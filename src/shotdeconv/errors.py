"""Exception types shared across the package, and the parameter checks.

Every module checks its scalar settings with the two private helpers here:
`_check_number` for a finite real number within its bound and `_check_count`
for an integer count. Neither converts a string, a bool or None: a wrongly
typed value fails with the same message wherever it enters.
"""

import math
import operator

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter, configuration value, or input violates a documented precondition."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    The best available partial result, when one exists, is attached as
    ``partial`` so callers can inspect it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ResourceLimitError(RuntimeError):
    """A requested computation would exceed a hard resource cap."""


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _check_number(value, name, *, gt=None, ge=None, lt=None, le=None):
    """`value` as a float, if it is a finite real number within the given bounds.

    A real number is a Python or numpy int or float, never a bool. `gt`/`ge`
    give an open/closed lower bound, `lt`/`le` an open/closed upper one.
    """
    bounds = [(op, b) for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le)) if b is not None]
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        value = float(value)
        if math.isfinite(value) and all(_COMPARE[op](value, b) for op, b in bounds):
            return value
    text = " and".join(f" {op} {b:g}" for op, b in bounds)
    raise InvalidParameterError(f"{name} must be a finite real number{text}, got {value!r}")


def _check_count(value, name, minimum=1, maximum=None):
    """`value` as an int, if it is an integer within ``[minimum, maximum]``.

    An integer is a Python or numpy int, never a bool or a float.
    """
    if not isinstance(value, bool) and isinstance(value, (int, np.integer)):
        value = int(value)
        if value >= minimum and (maximum is None or value <= maximum):
            return value
    text = f" >= {minimum}" if maximum is None else f" in [{minimum}, {maximum}]"
    raise InvalidParameterError(f"{name} must be an integer{text}, got {value!r}")
