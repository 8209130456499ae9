"""Exact sampling of the stationary shot noise at the sampling grid.

The sampled process is a first-order autoregression: each observation is the
previous one contracted by ``exp(-alpha_norm)`` plus an innovation equal to
the summed, partially decayed amplitudes of the pulses that arrived during
the interval. Innovations are drawn exactly from that compound-Poisson law,
so no discretization error enters beyond the burn-in of the initial state.

When the decay factor is below 2**-53 and adding each carried value to the
next innovation rounds back to that innovation, the recursion is the
identity in float64 and is skipped: the series is then bit for bit what the
filter would return, and scipy is not imported. Every reference-model
series measured (alpha_norm = 80, factor e**-80) is such a case; any series
that fails the check is filtered, so the output never depends on it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import _SIZE_CAP, InvalidParameterError, ResourceLimitError, _check_count, checked_sample
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

_SEED_MAX = 2**64

# At or above half an ulp of 1 the carried value almost always survives the
# rounding of the next innovation, so the check in `_carries_nothing` is not
# worth its pass; this spares models with memory.
_SKIP_BELOW = 2.0**-53

# the refusal of marks whose draws or sums leave the float range
_OVERFLOW_MESSAGE = (
    "the simulated series overflows the float range (a mark or a sum of "
    "marks is not finite); rescale the marks to a smaller unit"
)


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
    """Burn-in long enough to contract any start value below exp(-40).

    Raises ResourceLimitError when 40/alpha_norm overflows to infinity: no
    such burn-in fits under the cap on simulated intervals.
    """
    steps = _AGE_CUTOFF / params.alpha_norm
    if math.isinf(steps):
        raise ResourceLimitError(
            f"alpha_norm = {params.alpha_norm:g} needs a burn-in of 40/alpha_norm steps, "
            f"which overflows and exceeds the cap of {_SIZE_CAP} simulated intervals; "
            f"use a larger alpha*delta for a shorter burn-in"
        )
    return max(64, math.ceil(steps))


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


def _resolve_jobs(jobs):
    """Worker processes for `jobs`, capped at the CPUs this process may use (None: all of them)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus if jobs is None else min(_check_count(jobs, "jobs"), cpus)


def _one_run(worker, n_list, seeds):
    """One Monte-Carlo run: `worker` at every size with that size's seed."""
    return [worker(n, seed) for n, seed in zip(n_list, seeds)]


def _monte_carlo(worker, n_list, runs, base_seed, jobs=None):
    """Monte-Carlo table ``table[tier][run] = worker(n_list[tier], seed)``.

    Run `run` at size ``n_list[tier]`` gets ``seed = derive_seed(base_seed,
    tier, run)``. One task is one run at every size, on up to `jobs` worker
    processes and never more than the CPUs this process may use; None means
    all of them. One worker runs inline, with no pool; under fork a pool
    starts all its workers at its first task, so it gets no more workers
    than tasks. The runs come back in run order, so the table does not
    depend on `jobs` when `worker` is pure (and picklable, for a pool).
    Every worker has exited when this returns.
    """
    workers = min(_resolve_jobs(jobs), runs)
    task = partial(_one_run, worker, n_list)
    seeds = [[derive_seed(base_seed, t, run) for t in range(len(n_list))] for run in range(runs)]
    if workers <= 1:
        rows = [task(s) for s in seeds]
    else:
        # import scipy.signal before the fork, so that no worker that filters
        # (lfilter) imports it again; it is the largest import of any worker
        import scipy.signal  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(task, seeds, chunksize=1))
    return [list(column) for column in zip(*rows)]


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

    Raises
    ------
    InvalidParameterError
        When the marks or their sum overflow the float range.
    """
    count = int(rng.poisson(params.lambda_norm))
    # an overflow gives an infinity or NaN, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = marks.sample(rng, count)
        ages = rng.random(count)
        value = float(np.sum(amplitudes * np.exp(-params.alpha_norm * ages)))
    if not math.isfinite(value):
        raise InvalidParameterError(_OVERFLOW_MESSAGE)
    return value


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
    larger `n` (same seed).

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


def _carries_nothing(innov, decay):
    """Whether the AR(1) filter of `innov` from zero returns `innov` bit for bit.

    The filter computes ``y[i] = x[i] + decay * y[i-1]`` in float64 from
    ``y[-1] = 0``. If one step with the innovations in place of the path,
    ``x[i] + decay * x[i-1]``, equals ``x[i]`` at every `i`, then by
    induction ``y[i] = x[i]``. No innovation is -0.0 (every interval's sum
    starts from +0.0), so equal values are equal bits; a NaN compares
    unequal and sends the series to the filter.
    """
    step = innov[:-1] * decay
    step += innov[1:]
    return bool(np.array_equal(step, innov[1:]))


def simulate_series(params, marks, n, *, seed=0):
    """Simulate `n` stationary observations of the sampled shot noise.

    Runs the recursion ``X_{i+1} = exp(-alpha_norm) * X_i + W_{i+1}`` from
    ``X_0 = 0``, discards a burn-in of ``default_burn_in(params)`` steps,
    which contracts the arbitrary start below exp(-40), and returns the
    rest. Identical arguments give bit-identical output.

    The recursion runs through ``scipy.signal.lfilter``, except when
    ``exp(-alpha_norm) < 2**-53`` and one step ``W_{i+1} + exp(-alpha_norm)
    * W_i`` rounds to ``W_{i+1}`` at every `i`. Then, by induction from
    ``X_0 = 0``, every ``X_i`` equals ``W_i`` exactly, and the innovations
    are returned as the path with the same bits the filter would give. An
    innovation of exactly 0 (an interval with no pulse) carries the tiny
    previous value, so such a series is filtered.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    n : int
        Number of returned observations, >= 1.
    seed : int
        64-bit seed, keyword only.

    Returns
    -------
    SampleSeries

    Raises
    ------
    ResourceLimitError
        When `n` plus the burn-in exceeds the size cap, before allocating.
    InvalidParameterError
        When the marks or their sums overflow the float range.
    """
    n = _check_count(n, "n")
    burn_in = default_burn_in(params)
    if n + burn_in > _SIZE_CAP:
        raise ResourceLimitError(
            f"n = {n} observations after a burn-in of {burn_in} steps exceed the cap "
            f"of {_SIZE_CAP} simulated intervals; use a smaller n, or a larger "
            f"alpha*delta for a shorter burn-in"
        )
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    # an overflow leaves an infinity or NaN in the series, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        innov = _innovations(params, marks, n + burn_in, rng)
        decay = math.exp(-params.alpha_norm)
        if decay < _SKIP_BELOW and _carries_nothing(innov, decay):
            path = innov
        else:
            from scipy.signal import lfilter

            path = lfilter([1.0], [1.0, -decay], innov)
    try:
        return SampleSeries(path[burn_in:], burn_in)
    except InvalidParameterError:
        # the values are nonempty and 1-d, so only a non-finite one fails
        raise InvalidParameterError(_OVERFLOW_MESSAGE) from None


def series_to_csv(series):
    """CSV text for a series: header ``index,value``, 1-based indices."""
    return csv_text("index,value", np.arange(1, series.values.size + 1), series.values)


def series_to_f64le(series):
    """Raw little-endian float64 bytes of the series values."""
    return series.values.astype("<f8").tobytes()
