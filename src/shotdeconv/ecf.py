"""Empirical characteristic function of a sample and its derivative.

Two evaluation routes: direct summation at arbitrary frequencies, and the
histogram approximation evaluated on a regular symmetric frequency grid.
The histogram route replaces each observation by its bin center, which makes
the grid evaluation a single chirp-z transform over the bin masses, exact
to rounding at every bin count; the price is an approximation error with an
explicit, testable bound.

The Monte-Carlo deviation table (`ecf_deviation`) sums exactly, without
binning, on a regular grid: the ECF at grid index j is the mean of the j-th
power of exp(i u_step x), and the powers at all indices come from one small
complex matrix product per block of samples (see `_ecf_sup_gap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    _SIZE_CAP,
    InvalidParameterError,
    NumericalFailure,
    ResourceLimitError,
    _check_count,
    _check_number,
    checked_sample,
)
from .model import _BLOCK, true_shot_cf
from .simulate import _monte_carlo, simulate_series

__all__ = [
    "Histogram",
    "EcfGrid",
    "build_histogram",
    "ecf_direct",
    "ecf_from_histogram",
    "histogram_cf_bounds",
    "ecf_deviation",
]

# the default histogram splits the sample range into this many bins
_DEFAULT_BINS = 4096
# float64 holds every half-integer l + 1/2 with |l| below this bound exactly;
# bin indices must stay below it so that each bin center (l + 1/2) * w sits
# half a bin above its edge and floor(x / w) tells neighbouring bins apart
_EXACT_INDEX = 2**52
# samples per block of the ECF power sums in `_ecf_sup_gap`; the two power
# tables of one block (about 20 rows of complex values) stay in L2
_SUM_BLOCK = 4096
# the deviation table's grid: 161 frequencies spaced evenly over [-8, 8]
_DEVIATION_HALF = 80
_DEVIATION_U_STEP = 8.0 / _DEVIATION_HALF
# how far an ECF grid may miss each of its exact properties (see `_ecf_misses`)
_ECF_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Histogram:
    """Normalized histogram on the integer-bin grid ``[l*w, (l+1)*w)``.

    ``mass[k]`` is the fraction of the sample in bin ``l_min + k``. The last
    bin, ``l_max``, is closed on the right so the full sample is covered.
    """

    bin_width: float
    l_min: int
    mass: np.ndarray

    def __post_init__(self):
        width = _check_number(self.bin_width, "bin_width", gt=0)
        l_min = _check_count(self.l_min, "l_min", minimum=1 - _EXACT_INDEX)
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 1:
            raise InvalidParameterError(f"mass must be a 1-d array, got {mass.ndim} dimensions")
        # each check is written so that NaN fails it
        if not np.all(mass >= 0):
            raise InvalidParameterError("mass must be nonnegative")
        total = float(mass.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidParameterError(f"mass must sum to 1, got {total!r}")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "bin_width", width)
        object.__setattr__(self, "l_min", l_min)
        object.__setattr__(self, "mass", mass)

    @property
    def l_max(self):
        """Index of the top bin, ``l_min + mass.size - 1``."""
        return self.l_min + self.mass.size - 1

    @property
    def centers(self):
        """Bin centers ``(l + 1/2) * bin_width``."""
        return (self.l_min + np.arange(self.mass.size) + 0.5) * self.bin_width


def build_histogram(sample, bin_width=None):
    """Bin a sample into the regular integer-indexed histogram.

    Bins are right-open, the last one right-closed; a value exactly on the
    upper edge of the range therefore still lands in the top bin.

    The sample is binned ``model._BLOCK`` values at a time (or one block
    per bin count, when there are more bins than that): each block's
    offsets ``floor(x / w) - l_min`` go into two reused block buffers (one
    float, one index), and the block's integer bin counts are added into
    one counts array. Integer sums are exact, so the masses do not depend
    on the block size, and the memory beyond the sample is
    O(block + bins): about 1 MiB for the buffers plus the counts.

    Parameters
    ----------
    sample : SampleSeries or array_like
        Finite values (see `checked_sample`).
    bin_width : float or None, optional
        Strictly positive; None splits the sample range into 4096 bins
        (width 1.0 when the sample is constant).

    Returns
    -------
    Histogram
    """
    values, lo, hi = checked_sample(sample)
    if bin_width is None:
        span = hi - lo
        width = span / _DEFAULT_BINS if span > 0 else 1.0
        if not (math.isfinite(width) and width > 0):
            raise InvalidParameterError(
                f"sample range [{lo:g}, {hi:g}] cannot be split into the default "
                f"{_DEFAULT_BINS} bins: the bin width span/{_DEFAULT_BINS} is {width:g}, "
                "outside the positive finite floats; pass a bin_width or rescale the sample"
            )
    else:
        width = _check_number(bin_width, "bin_width", gt=0)
    l_min = math.floor(lo / width)
    l_max = max(math.ceil(hi / width) - 1, l_min)
    if max(abs(l_min), abs(l_max)) >= _EXACT_INDEX:
        raise InvalidParameterError(
            f"sample range [{lo:g}, {hi:g}] at bin_width {width:g} gives bin indices "
            f"of 2**52 or more in magnitude, where float64 no longer holds the bin "
            f"center l + 1/2 exactly; shift or rescale the sample"
        )
    if not math.isfinite(max(abs(l_min + 0.5), abs(l_max + 0.5)) * width):
        raise InvalidParameterError(
            f"sample range [{lo:g}, {hi:g}] at bin_width {width:g} puts an end bin "
            f"center (l + 1/2) * bin_width past the largest float; use a smaller bin_width"
        )
    nbins = l_max - l_min + 1
    if nbins > _SIZE_CAP:
        raise ResourceLimitError(
            f"sample range {hi - lo:g} at bin_width {width:g} needs {nbins} bins "
            f"(cap {_SIZE_CAP}); increase bin_width"
        )
    # floor(x / w) - l_min block by block, in two reused block buffers; the
    # subtraction is exact in floating point because both terms are integers
    # at most nbins apart, and integer counts add up exactly over the blocks
    # at least nbins values per block, so that a block's bincount over all
    # nbins + 1 bins never costs more than the block itself
    step = max(_BLOCK, nbins)
    counts = np.zeros(nbins + 1, dtype=np.intp)
    offsets = np.empty(min(values.size, step))
    index = np.empty(offsets.size, dtype=np.intp)
    for start in range(0, values.size, step):
        block = values[start : start + step]
        off = offsets[: block.size]
        idx = index[: block.size]
        np.divide(block, width, out=off)
        np.floor(off, out=off)
        np.subtract(off, float(l_min), out=idx, casting="unsafe")
        counts += np.bincount(idx, minlength=nbins + 1)
    # index nbins holds only values exactly on the top edge hi = (l_max+1)*w
    counts[nbins - 1] += counts[nbins]
    mass = counts[:nbins] / values.size
    return Histogram(width, l_min, mass)


def _ecf_misses(phi, dphi):
    """How far an ECF on a symmetric grid misses its exact properties.

    Returns the misses of phi(0) = 1, of |phi| <= 1, of conjugate symmetry
    of phi and of conjugate antisymmetry of phi_prime, in that order. phi
    is bounded by 1, so its misses are absolute; the derivative scales with
    the sample magnitude, so its miss is relative to its own size.
    """
    dphi_scale = max(1.0, float(np.max(np.abs(dphi))))
    return (
        abs(phi[phi.size // 2] - 1.0),
        np.max(np.abs(phi)) - 1.0,
        np.max(np.abs(phi - np.conj(phi[::-1]))),
        np.max(np.abs(dphi + np.conj(dphi[::-1]))) / dphi_scale,
    )


@dataclass(frozen=True, eq=False)
class EcfGrid:
    """ECF and its derivative on the symmetric grid ``u = j * u_step``.

    ``phi[j + half_count]`` holds the value at ``j * u_step`` for
    ``j = -half_count .. half_count``.
    """

    u_step: float
    half_count: int
    phi: np.ndarray
    phi_prime: np.ndarray

    def __post_init__(self):
        step = _check_number(self.u_step, "u_step", gt=0)
        half = _check_count(self.half_count, "half_count")
        phi = np.asarray(self.phi, dtype=complex)
        dphi = np.asarray(self.phi_prime, dtype=complex)
        size = 2 * half + 1
        if phi.shape != (size,) or dphi.shape != (size,):
            raise InvalidParameterError(f"phi and phi_prime must have length {size}")
        at_zero, modulus, symmetry, antisymmetry = _ecf_misses(phi, dphi)
        # NaN fails each check
        if not at_zero <= _ECF_TOL:
            raise InvalidParameterError(f"phi at u=0 must be 1, got {phi[half]!r}")
        if not modulus <= _ECF_TOL:
            raise InvalidParameterError("|phi| must not exceed 1")
        if not symmetry <= _ECF_TOL:
            raise InvalidParameterError("phi must be conjugate-symmetric in u")
        if not antisymmetry <= _ECF_TOL:
            raise InvalidParameterError("phi_prime must be conjugate-antisymmetric in u")
        phi = phi.copy()
        dphi = dphi.copy()
        phi.setflags(write=False)
        dphi.setflags(write=False)
        object.__setattr__(self, "u_step", step)
        object.__setattr__(self, "half_count", half)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_prime", dphi)

    @property
    def u(self):
        """Grid frequencies ``j * u_step``, ascending."""
        return np.arange(-self.half_count, self.half_count + 1) * self.u_step


def ecf_direct(sample, u):
    """Empirical CF and derivative at `u` by direct summation.

    Uses numpy mean reductions, which accumulate pairwise, so roundoff stays
    near machine precision even for millions of terms.

    Parameters
    ----------
    sample : SampleSeries or array_like
    u : float or array_like

    Returns
    -------
    (complex, complex) or (ndarray, ndarray)
        ``(phi, phi_prime)`` where ``phi = mean(exp(i u X))`` and
        ``phi_prime = mean(i X exp(i u X))``.
    """
    values, _, _ = checked_sample(sample)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_flat = np.atleast_1d(u_arr).ravel()
    if not np.all(np.isfinite(u_flat)):
        raise InvalidParameterError("u must be finite")
    phi = np.empty(u_flat.size, dtype=complex)
    dphi = np.empty(u_flat.size, dtype=complex)
    for k, uu in enumerate(u_flat):
        z = np.exp(1j * uu * values)
        phi[k] = z.mean()
        dphi[k] = 1j * (values * z).mean()
    phi = phi.reshape(np.atleast_1d(u_arr).shape)
    dphi = dphi.reshape(np.atleast_1d(u_arr).shape)
    if scalar:
        return complex(phi[0]), complex(dphi[0])
    return phi, dphi


def _czt_plan(n, m, omega, theta, remedy):
    """Chirp-z transform of `n` inputs to `m` outputs on real angles.

    Returns the map ``x -> sum_k x[k] * exp(i (j omega - theta) k)`` for
    ``j = 0 .. m-1``, by Bluestein's algorithm: ``j k = (j**2 + k**2 -
    (j - k)**2) / 2`` turns the sums into one convolution of chirps, done
    with power-of-two FFTs. Each chirp is ``exp(i * angle)`` of a real
    angle built on the exact ``k*k/2``, so its rounding does not grow with
    ``k``. Refuses a plan whose FFT would exceed the size cap before
    anything of that size exists; `remedy` tells the user what to change.
    """
    fft_len = 1 << (n + m - 2).bit_length()
    if fft_len > _SIZE_CAP:
        raise ResourceLimitError(
            f"chirp-z transform would need an FFT of {fft_len} > {_SIZE_CAP} points; {remedy}"
        )
    k = np.arange(max(m, n), dtype=float)
    half_sq = k * k / 2
    pre = np.exp(1j * (omega * half_sq[:n] - theta * k[:n]))
    post = np.exp(1j * omega * half_sq[:m])
    lag_half_sq = np.hstack((half_sq[n - 1:0:-1], half_sq[:m]))
    kernel = np.fft.fft(np.exp(-1j * omega * lag_half_sq), fft_len)

    def transform(x):
        return np.fft.ifft(kernel * np.fft.fft(x * pre, fft_len))[n - 1:n + m - 1] * post

    return transform


def ecf_from_histogram(hist, u_step, half_count):
    """Histogram approximation of the ECF on a symmetric regular grid.

    Every bin mass sits at its center, so the grid evaluation is a chirp-z
    transform (FFT-based) whose frequency spacing equals `u_step` exactly,
    with no interpolation. Results agree with the defining sums to within
    accumulated roundoff.

    Parameters
    ----------
    hist : Histogram
    u_step : float
        Grid spacing, > 0.
    half_count : int
        Grid covers ``j = -half_count .. half_count``.

    Returns
    -------
    EcfGrid

    Raises
    ------
    InvalidParameterError
        If the grid end ``half_count * u_step``, its phase
        ``u * bin_width * (l_min + 1/2)`` or a chirp-z angle
        ``u_step * bin_width * k**2 / 2`` is not finite.
    ResourceLimitError
        If the internal FFT length would exceed the size cap.
    NumericalFailure
        If the transform misses phi(0) = 1, |phi| <= 1 or the conjugate
        symmetries by more than 1e-9. Its rounding stays near 1e-15 at every
        bin count measured, up to 2**20 + 1; the message names a wider bin as
        the remedy.
    """
    step = _check_number(u_step, "u_step", gt=0)
    half = _check_count(half_count, "half_count")
    omega = step * hist.bin_width
    # the end phase overflows whenever the grid end half * step does, and
    # the plan's chirp angles omega * k*k/2 stay below omega * top**2
    end_phase = half * step * hist.bin_width * (hist.l_min + 0.5)
    top = float(max(hist.mass.size, 2 * half + 1))
    if not (math.isfinite(omega * top * top) and math.isfinite(end_phase)):
        raise InvalidParameterError(
            f"u_step = {step:g} and half_count = {half} put the grid end "
            f"half_count * u_step, its phase u * bin_width * (l_min + 1/2) or the "
            f"chirp-z angle u_step * bin_width * k**2 / 2 past the largest float; "
            f"use a smaller u_step or half_count"
        )
    # one plan serves both transforms
    transform = _czt_plan(
        hist.mass.size, 2 * half + 1, omega, omega * half, "reduce half_count or increase bin_width"
    )
    base = transform(hist.mass)
    dbase = transform(hist.mass * 1j * hist.centers)
    u = np.arange(-half, half + 1) * step
    phase = np.exp(1j * u * hist.bin_width * (hist.l_min + 0.5))
    phi = base * phase
    dphi = dbase * phase
    # np.max keeps a NaN miss, which then fails the check
    miss = float(np.max(_ecf_misses(phi, dphi)))
    if not miss <= _ECF_TOL:
        raise NumericalFailure(
            f"the chirp-z ECF over {hist.mass.size} bins misses its exact values "
            f"by {miss:.3g} (tolerance {_ECF_TOL:g}); increase bin_width"
        )
    return EcfGrid(step, half, phi, dphi)


def histogram_cf_bounds(hist, u):
    """Worst-case gap between histogram ECF and exact ECF at frequency `u`.

    Returns ``(bound, bound_prime)`` where the first bounds
    ``|phi_hist - phi|`` by ``(w/2)|u|`` and the second bounds the
    derivative gap by ``(w/2)(1 + |u| w sum(mass * (l + 1/2)))``. The
    derivative bound assumes the sample (hence every bin index) is
    nonnegative.
    """
    u_arr = np.asarray(u, dtype=float)
    width = hist.bin_width
    first = 0.5 * width * np.abs(u_arr)
    center_sum = float(np.sum(hist.mass * (hist.l_min + np.arange(hist.mass.size) + 0.5)))
    second = 0.5 * width * (1.0 + np.abs(u_arr) * width * center_sum)
    if u_arr.ndim:
        return first, second
    return float(first), float(second)


def _ecf_sup_gap(values, phi_true_half, u_step, half_count):
    """sup over the grid of |ecf - true cf|, using conjugate symmetry.

    `phi_true_half` holds the true CF at ``u = 0, u_step, ..., half_count*u_step``.
    The ECF at ``-u`` is the exact conjugate of the value at ``u`` and the true
    CF likewise, so the negative half contributes the same gaps.

    The ECF sums are power sums: with ``r = exp(i u_step x)`` the value at
    grid index ``j`` is ``mean(r**j)``. Writing ``j = a*K + b`` with
    ``0 <= b < K`` splits ``r**j`` into ``(r**K)**a * r**b``, so the sums
    at all ``m = half_count + 1`` indices form the ``ceil(m/K) x K`` matrix
    ``outer @ inner.T`` of the outer powers ``(r**K)**a`` and the inner
    powers ``r**b`` (``K = isqrt(m - 1) + 1``, 9 x 9 for m = 81). Each
    block of ``_SUM_BLOCK`` values builds both power tables by repeated
    multiplication from ``r = cos + i sin`` and adds its matrix product to
    the running sums. The values agree with the direct ``exp`` definition to
    a few units in the last place; they may differ from other summation
    orders in their last bits.
    """
    m = half_count + 1
    inner_count = math.isqrt(m - 1) + 1
    outer_count = -(-m // inner_count)
    block = min(values.size, _SUM_BLOCK)
    inner = np.empty((inner_count, block), dtype=complex)
    outer = np.empty((outer_count, block), dtype=complex)
    inner[0] = 1.0
    outer[0] = 1.0
    theta = np.empty(block)
    sums = np.zeros((outer_count, inner_count), dtype=complex)
    for start in range(0, values.size, block):
        size = min(block, values.size - start)
        np.multiply(values[start:start + size], u_step, out=theta[:size])
        rot = inner[1, :size]
        np.cos(theta[:size], out=rot.real)
        np.sin(theta[:size], out=rot.imag)
        for b in range(2, inner_count):
            np.multiply(inner[b - 1, :size], rot, out=inner[b, :size])
        if outer_count > 1:
            rot_k = outer[1, :size]
            np.multiply(inner[inner_count - 1, :size], rot, out=rot_k)
            for a in range(2, outer_count):
                np.multiply(outer[a - 1, :size], rot_k, out=outer[a, :size])
        sums += outer[:, :size] @ inner[:, :size].T
    ecf = sums.ravel()[:m] / values.size
    return float(np.abs(ecf - phi_true_half).max())


def _deviation_gap(phi_true_half, params, marks, n, seed):
    """Monte-Carlo worker: one simulated series' sup gap to the oracle CF."""
    values = simulate_series(params, marks, n, seed=seed).values
    return _ecf_sup_gap(values, phi_true_half, _DEVIATION_U_STEP, _DEVIATION_HALF)


def ecf_deviation(params, marks, n_list, runs, base_seed):
    """Monte-Carlo table of sup-norm ECF deviations from the true CF.

    For each sample size, simulates `runs` independent series, computes the
    sup over 161 evenly spaced frequencies of ``[-8, 8]`` of the gap between
    the empirical CF and the quadrature oracle, and reports mean and
    standard error. Used as an empirical check of the root-n deviation rate.

    The ECF is summed exactly over each series by blocked power sums, one
    small complex matrix product per block of samples (`_ecf_sup_gap`), and
    agrees with the defining mean of ``exp(i u x)`` to a few units in the
    last place. The deviation values may therefore change in their last
    bits when the summation order changes; no CSV or JSON output holds them.

    The oracle CF is computed once; the runs go to `simulate._monte_carlo`
    with its default worker count, and the table does not depend on it.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    n_list : sequence of int
    runs : int
        Replicates per sample size, >= 2.
    base_seed : int
        Per-run seeds derive deterministically from this.

    Returns
    -------
    list of dict
        One entry per n: ``{"n", "mean_sup", "se"}``.
    """
    runs = _check_count(runs, "runs", minimum=2)
    n_list = [_check_count(n, "n") for n in n_list]
    u_half = np.arange(_DEVIATION_HALF + 1) * _DEVIATION_U_STEP
    phi_true_half = np.asarray(true_shot_cf(params, marks, u_half))
    gaps = _monte_carlo(
        partial(_deviation_gap, phi_true_half, params, marks), n_list, runs, base_seed
    )
    out = []
    for n, column in zip(n_list, gaps):
        sups = np.array(column)
        mean = float(sups.mean())
        se = float(sups.std(ddof=1) / math.sqrt(runs))
        out.append({"n": n, "mean_sup": mean, "se": se})
    return out
