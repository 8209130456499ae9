"""Deterministic text serialization for golden-file-stable outputs.

Every float is printed with 17 significant digits so values round-trip
exactly and identical runs produce byte-identical files. The JSON emitter
is hand-rolled for that reason: the stdlib encoder's shortest-repr floats
are also stable, but do not satisfy the fixed-digit output contract.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "csv_text", "dumps_json", "write_text"]


# the one float format of every text output
_FLOAT_FORMAT = ".17g"


def format_float(x):
    """17-significant-digit text for a float (``inf``, ``-inf``, ``nan`` and ``-0`` spelled out)."""
    return format(float(x), _FLOAT_FORMAT)


def csv_text(header, *columns):
    """CSV text: the `header` line, then one line per row of the equal-length `columns`.

    An integer column prints its integers; any other column is read as
    floats, each printed as `format_float` prints it. All rows are printed
    by one ``%`` format over the cells in row order, which spells every
    float as ``format`` does.
    """
    cells = []
    specs = []
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind in "iu":
            specs.append("%d")
        else:
            values = values.astype(float, copy=False)
            specs.append("%" + _FLOAT_FORMAT)
        cells.append(values.tolist())
    rows = len(cells[0]) if cells else 0
    flat = [None] * (rows * len(cells))
    for k, column in enumerate(cells):
        flat[k :: len(cells)] = column
    return header + "\n" + (",".join(specs) + "\n") * rows % tuple(flat)


def _emit(obj, indent, out):
    pad = " " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        # JSON has no literal for non-finite numbers; emit them as strings
        out.append(format_float(x) if math.isfinite(x) else json.dumps(format_float(x)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = " " * (indent + 2)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(value, indent + 2, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        inner = " " * (indent + 2)
        for i, value in enumerate(seq):
            out.append(inner)
            _emit(value, indent + 2, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj):
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    out = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_text(path, text):
    """Write text with a fixed newline convention regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
