"""Exact sampling of the stationary shot noise at the sampling grid.

The sampled process is a first-order autoregression: each observation is the
previous one contracted by ``exp(-alpha_norm)`` plus an innovation equal to
the summed, partially decayed amplitudes of the pulses that arrived during
the interval. Innovations are drawn exactly from that compound-Poisson law,
so no discretization error enters beyond the burn-in of the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ResourceLimitError, _check_count, checked_sample
from .model import _BLOCK
from .serialize import csv_text

__all__ = [
    "SampleSeries",
    "sample_innovation",
    "simulate_series",
    "default_burn_in",
    "derive_seed",
    "series_to_csv",
    "series_to_f64le",
]

# Pulses older than this (in units of 1/alpha) contribute below exp(-40),
# under double-precision resolution of any accumulated observation.
_AGE_CUTOFF = 40.0

# Models with fewer thinned pulses per interval than this are sampled by
# pulse position, in chunks of _POSITION_CHUNK intervals (see `_innovations`).
_POSITION_BELOW = 16.0
_POSITION_CHUNK = 4096

# hard cap on the intervals one series simulates, burn-in included; the
# same figure as the histogram's bin cap and the chirp-z FFT cap
_INTERVAL_CAP = 2**28

_SEED_MAX = 2**64


def _check_seed(seed):
    return _check_count(seed, "seed", minimum=0, maximum=_SEED_MAX - 1)


@dataclass(frozen=True, eq=False)
class SampleSeries:
    """Regularly sampled shot-noise observations and the burn-in before them.

    Parameters
    ----------
    values : ndarray
        The observations, finite, nonempty.
    burn_in : int
        Number of initial recursion steps discarded before `values`.
    """

    values: np.ndarray
    burn_in: int

    def __post_init__(self):
        values, _, _ = checked_sample(self.values)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "burn_in", _check_count(self.burn_in, "burn_in", minimum=0))


def default_burn_in(params):
    """Burn-in long enough to contract any start value below exp(-40)."""
    return max(64, math.ceil(_AGE_CUTOFF / params.alpha_norm))


def derive_seed(base_seed, *indices):
    """Deterministic 64-bit child seed for the Monte-Carlo stream `indices`.

    Splits `base_seed` through a seed sequence keyed by the index tuple, so
    distinct (tier, run) streams are statistically independent and any
    stream can be regenerated without drawing the others.
    """
    base_seed = _check_seed(base_seed)
    key = tuple(_check_count(i, "stream index", minimum=0) for i in indices)
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def sample_innovation(params, marks, rng):
    """Draw one innovation of the sampled autoregression.

    The innovation is ``sum_k Y_k * exp(-alpha_norm * U_k)`` over
    ``N ~ Poisson(lambda_norm)`` pulses with i.i.d. marks ``Y_k`` and ages
    ``U_k ~ Uniform(0, 1)``.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    rng : numpy.random.Generator

    Returns
    -------
    float
    """
    count = int(rng.poisson(params.lambda_norm))
    if count == 0:
        return 0.0
    amplitudes = marks.sample(rng, count)
    ages = rng.random(count)
    return float(np.sum(amplitudes * np.exp(-params.alpha_norm * ages)))


def _innovations(params, marks, count, rng):
    """Vectorized innovation draws for `count` sampling intervals.

    Pulses whose age exceeds 40/alpha_norm are not generated at all: their
    contribution is below exp(-40), beneath double-precision resolution of
    the running sum. This thins the pulses per interval from lambda_norm to
    ``lam_eff = lambda_norm * cap``, ``cap = min(1, 40/alpha_norm)``, with
    ages uniform on the surviving range, leaving the innovation law
    unchanged to within that floor.

    The random stream is fixed by the rules below, one for each of two
    regimes. Changing the threshold, a chunk size, the order or size of any
    draw, or the float operations that turn the draws into innovations
    changes every seeded series of that regime, and must be announced as a
    stream change.

    Below ``lam_eff = 16`` the pulses are drawn by position: a Poisson
    process is a Poisson total with independent uniform positions. The
    intervals are cut into chunks of exactly 4096, the last one drawn at
    full length and its surplus cut off; per chunk, in this order, come
    ``total = rng.poisson(lam_eff * 4096)``, ``U = rng.random(total)`` and
    ``marks.sample(rng, total)``. With ``t = 4096 * U`` a pulse belongs to
    interval ``floor(t)`` and is scaled by
    ``exp((floor(t) + 1 - t) * (-alpha_norm * cap))``, worked as
    ``(float(floor(t)) + 1.0) - t`` times the Python float
    ``-alpha_norm * cap``; one ``bincount`` adds each interval's pulses in
    draw order from 0.0. Each chunk's draws depend only on the chunks
    before it, so the series at `n` is a prefix of the series at any
    larger `n` (same seed and burn-in).

    From ``lam_eff = 16`` up, the intervals are cut into chunks of
    ``max(1, int(8e6 / lam_eff))``; per chunk, in this order, come the
    Poisson counts of all its intervals, then the marks of all its pulses
    (``marks.sample``), then their uniform ages. The per-pulse arithmetic
    runs in blocks of about ``_BLOCK`` pulses, of ``max(1, int(_BLOCK /
    lam_eff))`` intervals each, cut only at interval boundaries: per block
    come its uniform ages, their ``exp(-alpha_norm * (U * cap))`` factors
    multiplied into its marks, and the per-interval sums. A draw split into
    consecutive calls of the same generator method returns the same values
    as one call of the summed size, and ``bincount`` adds each interval's
    pulses in order from 0.0, so the block size does not change the output;
    it is not part of the stream.
    """
    cap = min(1.0, _AGE_CUTOFF / params.alpha_norm)
    lam_eff = params.lambda_norm * cap
    if lam_eff == 0.0:
        return np.zeros(count)
    if lam_eff < _POSITION_BELOW:
        return _innovations_by_position(params, marks, count, rng, cap, lam_eff)
    return _innovations_by_interval(params, marks, count, rng, cap, lam_eff)


def _innovations_by_position(params, marks, count, rng, cap, lam_eff):
    size = _POSITION_CHUNK
    out = np.empty(-(-count // size) * size)
    scale = -params.alpha_norm * cap
    for pos in range(0, count, size):
        total = int(rng.poisson(lam_eff * size))
        t = rng.random(total)
        contrib = marks.sample(rng, total)
        t *= size
        owner = t.astype(np.intp)
        # factor exp(-alpha_norm * cap * (floor(t) + 1 - t)), worked in place
        ages = owner + 1.0
        ages -= t
        ages *= scale
        np.exp(ages, out=ages)
        contrib *= ages
        out[pos : pos + size] = np.bincount(owner, weights=contrib, minlength=size)
    return out[:count]


def _innovations_by_interval(params, marks, count, rng, cap, lam_eff):
    out = np.zeros(count)
    # chunk so the per-chunk event buffer stays modest
    chunk = max(1, int(8_000_000 / lam_eff))
    # intervals per block of the per-pulse arithmetic
    per_block = max(1, int(_BLOCK / lam_eff))
    for pos in range(0, count, chunk):
        block = min(chunk, count - pos)
        counts = rng.poisson(lam_eff, size=block)
        ends = np.cumsum(counts)
        contrib = marks.sample(rng, int(ends[-1]))
        p0 = 0
        for i0 in range(0, block, per_block):
            i1 = min(i0 + per_block, block)
            p1 = int(ends[i1 - 1])
            # contrib *= exp(-alpha_norm * (U * cap)), worked in place
            ages = rng.random(p1 - p0)
            ages *= cap
            ages *= -params.alpha_norm
            np.exp(ages, out=ages)
            part = contrib[p0:p1]
            part *= ages
            owner = np.repeat(np.arange(i1 - i0), counts[i0:i1])
            out[pos + i0 : pos + i1] = np.bincount(owner, weights=part, minlength=i1 - i0)
            p0 = p1
    return out


def simulate_series(params, marks, n, burn_in=None, seed=0):
    """Simulate `n` stationary observations of the sampled shot noise.

    Runs the recursion ``X_{i+1} = exp(-alpha_norm) * X_i + W_{i+1}`` from
    ``X_0 = 0``, discards `burn_in` steps, and returns the rest. Identical
    arguments give bit-identical output.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    n : int
        Number of returned observations, >= 1.
    burn_in : int, optional
        Discarded initial steps; defaults to ``max(64, ceil(40/alpha_norm))``
        so the arbitrary start is contracted below exp(-40).
    seed : int
        64-bit seed.

    Returns
    -------
    SampleSeries

    Raises
    ------
    ResourceLimitError
        When ``n + burn_in`` exceeds 2^28, before anything is allocated.
    """
    n = _check_count(n, "n")
    if burn_in is None:
        burn_in = default_burn_in(params)
    burn_in = _check_count(burn_in, "burn_in", minimum=0)
    if n + burn_in > _INTERVAL_CAP:
        raise ResourceLimitError(
            f"n = {n} observations after a burn-in of {burn_in} steps exceed the cap "
            f"of {_INTERVAL_CAP} simulated intervals; use a smaller n, or a larger "
            f"alpha*delta for a shorter burn-in"
        )
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    innov = _innovations(params, marks, n + burn_in, rng)
    decay = math.exp(-params.alpha_norm)
    path = lfilter([1.0], [1.0, -decay], innov)
    return SampleSeries(path[burn_in:], burn_in)


def series_to_csv(series):
    """CSV text for a series: header ``index,value``, 1-based indices."""
    return csv_text("index,value", np.arange(1, series.values.size + 1), series.values)


def series_to_f64le(series):
    """Raw little-endian float64 bytes of the series values."""
    return series.values.astype("<f8").tobytes()
