"""Command-line interface: simulate, estimate, table1, audit and hill subcommands.

Each subcommand does one job and takes only the flags it reads. Only
`simulate` simulates; `estimate` and `hill` read a recorded series file.
Each setting has one entry point. Flags give the run: the sample size, the
seed, the output directory and the input file. A JSON config file gives what
to compute: the model, the mark law, the estimator and the smoothness class.
All outputs are deterministic given the config and flags, with floats
printed at 17 significant digits so repeated runs are byte-identical.

Exit codes: 0 success, 1 failure to write an output file, 2 configuration or
input error (an unreadable input file included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .bench import (
    per_run_errors_to_csv,
    reports_to_csv,
    reports_to_json_obj,
    run_lower_bound_audit,
    run_table1,
)
from .errors import InvalidParameterError, NumericalFailure, ResourceLimitError, checked_sample
from .estimator import (
    EstimatorConfig,
    XGrid,
    default_hill_k,
    density_to_csv,
    estimate_density,
    hill_ratio,
)
from .model import SmoothnessConfig, _check_keys, marks_from_json, marks_to_json, normalize
from .serialize import dumps_json, format_float, write_text
from .simulate import series_to_csv, series_to_f64le, simulate_series

_MODEL_KEYS = {"lambda", "alpha", "delta"}
# the ratio comes from the model section, never from the estimator's
_ESTIMATOR_KEYS = {f.name for f in fields(EstimatorConfig)} - {"ratio"}
_X_GRID_KEYS = {f.name for f in fields(XGrid)}
_SMOOTHNESS_KEYS = {f.name for f in fields(SmoothnessConfig)}
_TOP_KEYS = {"model", "marks", "estimator", "smoothness"}


def _fail(message):
    raise InvalidParameterError(message)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except OSError as exc:
        _fail(f"could not read config file {path}: {exc}")
    except ValueError as exc:
        _fail(f"config file {path} is not valid JSON: {exc}")
    _check_keys(raw, _TOP_KEYS, "config", required=("model", "marks"))
    _check_keys(raw["model"], _MODEL_KEYS, "config.model", required=_MODEL_KEYS)
    if "estimator" in raw:
        _check_keys(raw["estimator"], _ESTIMATOR_KEYS, "config.estimator")
    if "smoothness" in raw:
        _check_keys(raw["smoothness"], _SMOOTHNESS_KEYS, "config.smoothness",
                    required=_SMOOTHNESS_KEYS)
    return raw


def _resolve_model(raw):
    model = raw["model"]
    params = normalize(model["lambda"], model["alpha"], model["delta"])
    marks = marks_from_json(raw["marks"])
    return params, marks


def _resolve_estimator_config(raw, params):
    section = raw.get("estimator", {})
    if "cutoff" not in section:
        _fail("estimator cutoff unspecified: set estimator.cutoff in the config")
    grid = section.get("x_grid")
    if grid is not None:
        _check_keys(grid, _X_GRID_KEYS, "config.estimator.x_grid", required=_X_GRID_KEYS)
        section = {**section, "x_grid": XGrid(**grid)}
    return EstimatorConfig(ratio=params.ratio, **section)


def _write(out, name, data):
    """Write `data` (text, or bytes as is) to `out`/`name`; the first write creates `out`."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    if isinstance(data, bytes):
        with open(path, "wb") as handle:
            handle.write(data)
    else:
        write_text(path, data)


def _read_series_file(path):
    if path.endswith(".f64le"):
        # mapped, not read: the values never get a heap copy
        try:
            size = os.path.getsize(path)
            if size == 0 or size % 8:
                _fail(f"{path} is not a whole number of little-endian float64 values")
            values = np.memmap(path, dtype="<f8", mode="r")
        except OSError as exc:
            _fail(f"could not read series file {path}: {exc}")
    else:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, with its path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        except (OSError, ValueError) as exc:
            _fail(f"could not read series CSV {path}: {exc}")
        if values.size == 0:
            _fail(f"series CSV {path} holds no data rows")
    try:
        values, _, _ = checked_sample(values)
    except InvalidParameterError:
        # the full-length finiteness mask is built only to name the position
        finite = np.isfinite(values)
        if finite.all():
            raise
        first = int(np.argmin(finite)) + 1
        _fail(f"{path} holds a non-finite value (NaN or infinity) at series position {first}")
    return values


def _cmd_simulate(args, raw, params, marks):
    series = simulate_series(params, marks, args.n, seed=args.seed)
    data_file = f"series.{args.format}"
    encode = series_to_csv if args.format == "csv" else series_to_f64le
    _write(args.out, data_file, encode(series))
    meta = {
        "library": "shotdeconv",
        "version": __version__,
        "model": dict(raw["model"]),
        "marks": marks_to_json(marks),
        "seed": args.seed,
        "n": args.n,
        "burn_in": series.burn_in,
        "data_file": data_file,
    }
    _write(args.out, "series_meta.json", dumps_json(meta))
    return 0


def _cmd_estimate(args, raw, params, marks):
    config = _resolve_estimator_config(raw, params)
    estimate = estimate_density(_read_series_file(args.infile), config)
    _write(args.out, "estimate.csv", density_to_csv(estimate))
    diagnostics = dict(estimate.diagnostics)
    if diagnostics.get("fraction_thresholded") == 1.0:
        diagnostics["warning"] = "every grid point was thresholded; estimate is the bare inversion kernel"
    _write(args.out, "diagnostics.json", dumps_json(diagnostics))
    return 0


def _cmd_table1(args, raw, params, marks):
    reports = run_table1(params, marks, runs=args.runs, base_seed=args.seed, jobs=args.jobs)
    _write(args.out, "table1.csv", reports_to_csv(reports))
    _write(args.out, "table1_runs.csv", per_run_errors_to_csv(reports))
    _write(args.out, "table1.json", dumps_json(reports_to_json_obj(reports)))
    return 0


def _cmd_audit(args, raw, params, marks):
    if "smoothness" not in raw:
        _fail("audit needs a 'smoothness' section in the config")
    smoothness = SmoothnessConfig(**raw["smoothness"])
    report = run_lower_bound_audit(params, marks, smoothness, seed=args.seed)
    _write(args.out, "audit.json", dumps_json(report))
    print(f"audit {'passed' if report['passed'] else 'FAILED'}: min_slack={format_float(report['min_slack'])}")
    return 0


def _cmd_hill(args, raw, params, marks):
    values = _read_series_file(args.infile)
    estimate = hill_ratio(values, k=args.k)
    k_used = args.k if args.k is not None else default_hill_k(values.size)
    print(f"ratio_estimate={format_float(estimate)} k={k_used}")
    if args.out is not None:
        report = {"ratio_estimate": estimate, "k": k_used, "n": values.size}
        _write(args.out, "hill.json", dumps_json(report))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shotdeconv",
        description="Simulate exponential shot noise and recover the mark density "
        "from regularly sampled observations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out="."):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=out, help="output directory")
        p.set_defaults(func=func)
        return p

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit seed")

    def series_file(p):
        p.add_argument("--in", dest="infile", required=True, help="series file (csv or f64le)")

    p_sim = command("simulate", _cmd_simulate, "write a simulated sample series")
    seed(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--format", choices=["csv", "f64le"], default="csv")

    series_file(command("estimate", _cmd_estimate, "estimate the mark density from a series file"))

    p_table = command("table1", _cmd_table1, "Monte-Carlo sup-error table over sample sizes")
    seed(p_table)
    p_table.add_argument("--runs", type=int, default=100, help="Monte-Carlo replicates")
    p_table.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: every CPU this process may use)")

    seed(command("audit", _cmd_audit, "CF lower-bound audit; needs a smoothness section"))

    p_hill = command("hill", _cmd_hill, "estimate the intensity/decay ratio", out=None)
    series_file(p_hill)
    p_hill.add_argument("--k", type=int, default=None, help="number of upper order statistics")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = _load_config(args.config)
        params, marks = _resolve_model(raw)
        return args.func(args, raw, params, marks)
    except (InvalidParameterError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
