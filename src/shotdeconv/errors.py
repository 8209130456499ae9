"""Exception types shared across the package, and the parameter checks.

Every module checks its scalar settings with the two private helpers here:
`_check_number` for a finite real number within its bound and `_check_count`
for an integer count. Neither converts a string, a bool or None: a wrongly
typed value fails with the same message wherever it enters. Every library
entry point that takes a sample, `SampleSeries` included, checks it with
`checked_sample`.
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


# one hard cap, checked before anything of that size is allocated, on the
# intervals of one simulated series (burn-in included), the bins of one
# histogram and the points of one chirp-z FFT
_SIZE_CAP = 2**28


_COMPARE = {">": operator.gt, ">=": operator.ge}


def _check_number(value, name, *, gt=None, ge=None):
    """`value` as a float, if it is a finite real number within the given bounds.

    A real number is a Python or numpy int or float, never a bool. `gt`/`ge`
    give an open/closed lower bound.
    """
    bounds = [(op, b) for op, b in ((">", gt), (">=", ge)) if b is not None]
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


def checked_sample(sample):
    """The sample check at the library boundary: nonempty, 1-d and finite.

    Finiteness is read from the extremes, which callers need anyway: NaN
    propagates into both and an infinity is one of them, so the check costs
    no pass over the sample beyond its minimum and maximum.

    Returns
    -------
    (ndarray, float, float)
        The values as float64, their minimum and their maximum.

    Raises
    ------
    InvalidParameterError
        If the sample is not a nonempty 1-d array of finite values.
    """
    values = np.asarray(getattr(sample, "values", sample), dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidParameterError("sample must be a nonempty 1-d array of values")
    lo = float(values.min())
    hi = float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError("sample must hold only finite values (no NaN or infinity)")
    return values, lo, hi
