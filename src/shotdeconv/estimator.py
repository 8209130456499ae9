"""Nonparametric recovery of the mark density from sampled shot noise.

The estimator divides the ECF derivative by the ECF, which by the model's
characteristic-function identity isolates the mark CF, then inverts the
truncated Fourier integral and clamps at zero. Division is regularized by
thresholding: wherever the ECF modulus drops below a threshold the ratio
term is suppressed and the integrand falls back to the constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecf import EcfGrid, _czt_plan, build_histogram, ecf_from_histogram
from .errors import (
    _SIZE_CAP,
    InvalidParameterError,
    NumericalFailure,
    _check_count,
    _check_number,
    checked_sample,
)
from .serialize import csv_text

__all__ = [
    "XGrid",
    "EstimatorConfig",
    "DensityEstimate",
    "theorem_cutoff",
    "theorem_threshold",
    "adaptive_C",
    "mark_cf_estimate",
    "invert_density",
    "estimate_density",
    "hill_ratio",
    "density_to_csv",
]

# a threshold or threshold constant stays a positive, finite double
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


@dataclass(frozen=True)
class XGrid:
    """Regular evaluation grid ``start + step * (0 .. count-1)``."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", _check_number(self.start, "start"))
        object.__setattr__(self, "step", _check_number(self.step, "step", gt=0))
        # no FFT within the size cap evaluates more points
        object.__setattr__(self, "count", _check_count(self.count, "count", 2, _SIZE_CAP))
        last = self.start + self.step * (self.count - 1)
        if not math.isfinite(last):
            raise InvalidParameterError(
                f"x_grid last point start + step * (count - 1) = {last} is not finite"
            )

    @property
    def values(self):
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the density estimator.

    The threshold is not a setting: the CF ratio is divided only where the
    ECF modulus exceeds ``kappa = C * (1 + cutoff) ** (-2 * ratio)``
    (`theorem_threshold`), with the adaptive constant
    ``C = exp(-sample mean) / 2`` (`adaptive_C`). Nor is a rescaling to
    unit mass: the estimate is the clamped inversion as it stands.

    Parameters
    ----------
    ratio : float
        Intensity over decay rate, assumed known (or estimated upstream
        via `hill_ratio`). Strictly positive.
    cutoff : float
        Truncation limit of the inversion integral (reciprocal bandwidth).
    bin_width : float or None, optional
        Histogram bin width; None picks about 4096 bins over the sample
        range.
    x_grid : XGrid or None, optional
        Evaluation grid; None covers ``[0, 1.2 * q / ratio]`` with 2048
        points, where q is the upper edge of the first histogram bin at
        which the cumulative mass reaches 0.999.
    """

    ratio: float
    cutoff: float
    bin_width: float | None = None
    x_grid: XGrid | None = None

    def __post_init__(self):
        object.__setattr__(self, "ratio", _check_number(self.ratio, "ratio", gt=0))
        object.__setattr__(self, "cutoff", _check_number(self.cutoff, "cutoff", gt=0))
        if self.bin_width is not None:
            object.__setattr__(self, "bin_width", _check_number(self.bin_width, "bin_width", gt=0))
        if self.x_grid is not None and not isinstance(self.x_grid, XGrid):
            raise InvalidParameterError("x_grid must be an XGrid or None")


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Estimated mark density on a regular grid plus its diagnostics."""

    x_grid: np.ndarray
    theta_hat: np.ndarray
    diagnostics: dict

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        theta = np.asarray(self.theta_hat, dtype=float)
        if x.ndim != 1 or x.shape != theta.shape:
            raise InvalidParameterError("x_grid and theta_hat must be equal-length 1-d arrays")
        if np.any(theta < 0):
            raise InvalidParameterError("theta_hat must be nonnegative")
        x = x.copy()
        theta = theta.copy()
        x.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "theta_hat", theta)


def theorem_cutoff(n, s, ratio):
    """Inversion truncation limit: the reciprocal of the rate-optimal bandwidth.

    The bandwidth is ``n ** (-1 / (2s + 1 + 2 ratio))``.

    Parameters
    ----------
    n : int
        Sample size, >= 3.
    s : float
        Smoothness exponent, > 1/2.
    ratio : float
        Intensity over decay rate, >= 0.
    """
    n = _check_count(n, "n", minimum=3)
    s = _check_number(s, "s", gt=0.5)
    ratio = _check_number(ratio, "ratio", ge=0)
    return 1.0 / n ** (-1.0 / (2.0 * s + 1.0 + 2.0 * ratio))


def theorem_threshold(cutoff, C, ratio):
    """Threshold ``C * (1 + cutoff) ** (-2 * ratio)`` of the convergence theorem.

    A value that underflows is raised to the smallest normal double, which
    keeps it a valid threshold that suppresses nothing.
    """
    cutoff = _check_number(cutoff, "cutoff", ge=0)
    c_val = _check_number(C, "C", gt=0)
    ratio = _check_number(ratio, "ratio", ge=0)
    return max(c_val * (1.0 + cutoff) ** (-2 * ratio), _TINY)


def _adaptive_C(values):
    try:
        c_val = math.exp(-float(values.mean())) / 2.0
    except OverflowError:
        c_val = math.inf
    return min(max(c_val, _TINY), _HUGE)


def adaptive_C(sample):
    """Data-driven threshold constant ``exp(-mean(sample)) / 2``.

    Clamped to the positive finite doubles: a sample mean below about -709
    gives the largest double (every grid point is thresholded), one above
    about 709 the smallest normal one (nothing is thresholded).
    """
    values, _, _ = checked_sample(sample)
    return _adaptive_C(values)


def mark_cf_estimate(grid, ratio, kappa):
    """Estimated mark CF on the frequency grid, with thresholded division.

    Computes ``1 + (1/ratio) * u * phi_prime(u) / phi(u)`` wherever
    ``|phi(u)| > kappa`` and exactly 1 elsewhere.

    Parameters
    ----------
    grid : EcfGrid
    ratio : float
        Strictly positive.
    kappa : float
        Threshold, > 0 (values >= 1 suppress the ratio term everywhere).

    Returns
    -------
    (ndarray of complex, dict)
        Values on ``grid.u``, and diagnostics with keys
        ``fraction_thresholded`` and ``min_abs_ecf``.

    Raises
    ------
    InvalidParameterError
        If a kept ratio term overflows the float range (a tiny `ratio`).
    """
    if not isinstance(grid, EcfGrid):
        raise InvalidParameterError("grid must be an EcfGrid")
    ratio = _check_number(ratio, "ratio", gt=0)
    kappa = _check_number(kappa, "kappa", gt=0)
    u = grid.u
    abs_phi = np.abs(grid.phi)
    keep = abs_phi > kappa
    values = np.ones(u.size, dtype=complex)
    # an overflow gives an infinity or NaN, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(grid.phi_prime, grid.phi, out=values, where=keep)
        values = np.where(keep, 1.0 + (u / ratio) * values, 1.0 + 0.0j)
    if not np.isfinite(values).all():
        raise InvalidParameterError(
            f"the ratio term u * phi_prime / (ratio * phi) overflows the float range at "
            f"ratio = {ratio:g} and kappa = {kappa:g}; use a larger ratio, or rescale the sample"
        )
    diagnostics = {
        "fraction_thresholded": float(1.0 - keep.mean()),
        "min_abs_ecf": float(abs_phi.min()),
    }
    return values, diagnostics


def invert_density(mark_cf, u_step, cutoff, x_grid, diagnostics=None):
    """Truncated Fourier inversion of an estimated mark CF, clamped at zero.

    Evaluates the Riemann sum of ``(2 pi)^-1 * integral of exp(-i x u) *
    mark_cf(u)`` over grid points with ``|u| <= cutoff``, for every `x` in
    `x_grid`, via a chirp-z transform. The imaginary residual of the
    unclamped sum is recorded in diagnostics and must stay below 1e-6 of
    the real part's sup.

    Parameters
    ----------
    mark_cf : array of complex
        Values on the symmetric grid ``j * u_step``, odd length.
    u_step : float
        Frequency spacing; must satisfy ``u_step <= cutoff / 64``.
    cutoff : float
        Truncation limit; the grid must span ``[-cutoff, cutoff]``.
    x_grid : XGrid
    diagnostics : dict, optional
        Upstream diagnostics to carry through (thresholding statistics);
        the result's diagnostics hold these plus ``imag_residual``.

    Returns
    -------
    DensityEstimate

    Raises
    ------
    InvalidParameterError
        If `mark_cf` holds a NaN or an infinity, or if a phase ``x * u``
        overflows on the grids.
    NumericalFailure
        If the imaginary residual is not below 1e-6 (NaN included); the
        clamped estimate is attached as ``partial``.
    """
    values = np.asarray(mark_cf, dtype=complex)
    if values.ndim != 1 or values.size < 3 or values.size % 2 == 0:
        raise InvalidParameterError("mark_cf must be a 1-d complex array of odd length >= 3")
    if not np.isfinite(values).all():
        raise InvalidParameterError("mark_cf must hold finite values only")
    step = _check_number(u_step, "u_step", gt=0)
    cutoff = _check_number(cutoff, "cutoff", gt=0)
    if not isinstance(x_grid, XGrid):
        raise InvalidParameterError("x_grid must be an XGrid")
    half = (values.size - 1) // 2
    span = half * step
    if span < cutoff * (1.0 - 1e-12):
        raise InvalidParameterError(
            f"frequency grid spans only [-{span:g}, {span:g}], below cutoff {cutoff:g}"
        )
    if step > cutoff / 64.0 * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"u_step {step:g} too coarse for cutoff {cutoff:g}; need u_step <= cutoff/64"
        )
    # the phases x * u and (x - start) * u reach 2 * reach * span
    reach = max(abs(x_grid.start), abs(x_grid.start + x_grid.step * (x_grid.count - 1)))
    if not math.isfinite(2.0 * reach * span):
        raise InvalidParameterError(
            f"x_grid reaches |x| = {reach:g}, where the inversion phase x * u at the "
            f"frequency span {span:g} overflows; shift or rescale the x_grid"
        )
    omega = x_grid.step * step
    transform = _czt_plan(values.size, x_grid.count, -omega, 0.0, "reduce the x_grid count")
    u = np.arange(-half, half + 1) * step
    inside = np.abs(u) <= cutoff * (1.0 + 1e-12)
    g = np.where(inside, values, 0.0)
    # one chirp-z transform evaluates sum_j g_j exp(-i x u_j) on the whole x grid
    g = g * np.exp(-1j * x_grid.start * u)
    spectrum = transform(g)
    spectrum *= np.exp(1j * omega * np.arange(x_grid.count) * half)
    raw = spectrum * (step / (2.0 * math.pi))
    sup_real = float(np.max(np.abs(raw.real)))
    imag_residual = float(np.max(np.abs(raw.imag)) / max(sup_real, 1e-300))
    theta = np.maximum(raw.real, 0.0)
    diag = dict(diagnostics or {})
    diag["imag_residual"] = imag_residual
    estimate = DensityEstimate(x_grid.values, theta, diag)
    if not imag_residual < 1e-6:
        raise NumericalFailure(
            f"imaginary residual {imag_residual:g} of the inversion integral is not below 1e-6",
            partial=estimate,
        )
    return estimate


# defaults tying the discretization to the cutoff and sample range
_INVERSION_POINTS = 1024
_DEFAULT_X_COUNT = 2048
_X_GRID_MASS = 0.999


def _default_x_grid(hist, ratio):
    """``[0, 1.2 * q / ratio]`` with 2048 points, or ``[0, 1]`` when that is empty.

    q is the histogram's 0.999 point: the upper edge of the first bin at
    which the cumulative mass reaches 0.999.
    """
    top = int(np.searchsorted(np.cumsum(hist.mass), _X_GRID_MASS))
    q = (hist.l_min + top + 1) * hist.bin_width
    hi = 1.2 * q / ratio
    if not (math.isfinite(hi) and hi > 0):
        hi = 1.0
    return XGrid(0.0, hi / (_DEFAULT_X_COUNT - 1), _DEFAULT_X_COUNT)


def estimate_density(sample, config):
    """Full pipeline: histogram, ECF, thresholded CF ratio, inversion.

    Parameters
    ----------
    sample : SampleSeries or array_like
    config : EstimatorConfig

    Returns
    -------
    DensityEstimate
        `invert_density`'s clamped estimate, not rescaled to unit mass.

    Raises
    ------
    InvalidParameterError
        Among others, if the cutoff is so small that its frequency step
        ``cutoff / 1024`` rounds down so far (to 0 included) that 1024 steps
        fall short of the cutoff.
    """
    if not isinstance(config, EstimatorConfig):
        raise InvalidParameterError("config must be an EstimatorConfig")
    values = np.asarray(getattr(sample, "values", sample), dtype=float)
    # the histogram checks the sample (see `checked_sample`)
    hist = build_histogram(values, config.bin_width)
    # past pi/bin_width the bin-center ECF repeats itself (aliasing)
    if config.cutoff * hist.bin_width > math.pi:
        raise InvalidParameterError(
            f"cutoff {config.cutoff:g} is past the histogram's Nyquist frequency "
            f"pi/bin_width = {math.pi / hist.bin_width:g} (bin width {hist.bin_width:g}); "
            "pass a smaller bin_width"
        )
    u_step = config.cutoff / _INVERSION_POINTS
    if _INVERSION_POINTS * u_step < config.cutoff * (1.0 - 1e-12):
        # a subnormal step can round down, so that its grid falls short of
        # the cutoff; a step of at least the smallest normal double is exact
        raise InvalidParameterError(
            f"cutoff {config.cutoff!r} is too small: its frequency step "
            f"cutoff/{_INVERSION_POINTS} rounds down to {u_step!r}, so the grid "
            f"spans only {_INVERSION_POINTS * u_step!r}; use a cutoff of at least "
            f"{_INVERSION_POINTS * _TINY!r}"
        )
    grid = ecf_from_histogram(hist, u_step, _INVERSION_POINTS)
    kappa = theorem_threshold(config.cutoff, _adaptive_C(values), config.ratio)
    phi_y, diag = mark_cf_estimate(grid, config.ratio, kappa)
    x_grid = config.x_grid if config.x_grid is not None else _default_x_grid(hist, config.ratio)
    return invert_density(phi_y, u_step, config.cutoff, x_grid, diagnostics=diag)


def default_hill_k(n):
    """Default number of upper order statistics for `hill_ratio`: ``floor(n ** 0.6)`` within ``[1, n - 1]``."""
    return min(max(int(n**0.6), 1), n - 1)


def hill_ratio(sample, k=None):
    """Estimate the intensity/decay ratio from the lower tail of the sample.

    The reciprocal observations ``1/X`` have a regularly varying upper tail
    with index equal to the ratio, so the reciprocal of the Hill statistic
    over the top `k` order statistics estimates it.

    Parameters
    ----------
    sample : SampleSeries or array_like
        Observations of at least the smallest normal double, so that every
        reciprocal is finite.
    k : int, optional
        Number of upper order statistics; defaults to `default_hill_k`.

    Returns
    -------
    float
        The ratio estimate, finite and positive.

    Raises
    ------
    InvalidParameterError
        If a value is below the smallest normal double, or if the ``k + 1``
        smallest values are equal, so that the Hill statistic is 0.
    """
    values, lo, _ = checked_sample(sample)
    if values.size < 2:
        raise InvalidParameterError("sample must be a 1-d array with at least 2 values")
    if lo <= 0:
        raise InvalidParameterError(
            "all sample values must be > 0 for the Hill route (reciprocal transform)"
        )
    if lo < _TINY:
        raise InvalidParameterError(
            f"all sample values must be >= {_TINY!r} (the smallest normal double) for the "
            f"Hill route, whose reciprocal of a smaller value overflows; got minimum {lo!r}"
        )
    n = values.size
    if k is None:
        k = default_hill_k(n)
    k = _check_count(k, "k", maximum=n - 1)
    recip = 1.0 / values
    part = np.partition(recip, n - k - 1)
    pivot = part[n - k - 1]
    top = part[n - k :]
    hill = float(np.mean(np.log(top) - math.log(pivot)))
    if hill <= 0.0:
        raise InvalidParameterError(
            f"the k + 1 = {k + 1} smallest sample values are equal (to working precision), "
            f"so the Hill statistic is 0; pass a larger k (at most n - 1 = {n - 1})"
        )
    return 1.0 / hill


def density_to_csv(estimate):
    """CSV text for a density estimate: header ``x,theta_hat``."""
    return csv_text("x,theta_hat", estimate.x_grid, estimate.theta_hat)
