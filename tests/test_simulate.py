import hashlib
import math
import multiprocessing
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import ks_2samp

from shotdeconv.errors import InvalidParameterError, ResourceLimitError
from shotdeconv.model import Exponential, GaussianMixture, ModelParams, PointMass
from shotdeconv.simulate import (
    SampleSeries,
    _innovations,
    _innovations_by_interval,
    _innovations_by_position,
    _monte_carlo,
    default_burn_in,
    derive_seed,
    sample_innovation,
    series_to_csv,
    series_to_f64le,
    simulate_series,
)

# Stationary moments of the reference configuration, exact closed forms:
# E[X] = lambda E[Y] / alpha, Var[X] = lambda E[Y^2] / (2 alpha).
REF_MEAN = 14.5
REF_VAR = 109.03125


class TestSampleSeries:
    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError, match="sample must be a nonempty 1-d array"):
            SampleSeries(np.array([]), 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError, match="sample must hold only finite values"):
            SampleSeries(np.array([1.0, np.inf]), 0)

    def test_len_and_readonly(self):
        series = SampleSeries(np.array([1.0, 2.0]), 64)
        assert len(series.values) == 2
        with pytest.raises(ValueError):
            series.values[0] = 9.0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2024, 1, 7) == derive_seed(2024, 1, 7)

    def test_distinct_streams(self):
        seeds = {derive_seed(2024, tier, run) for tier in range(3) for run in range(50)}
        assert len(seeds) == 150

    def test_matches_seed_sequence(self):
        expected = int(
            np.random.SeedSequence(entropy=99, spawn_key=(2, 3)).generate_state(1, np.uint64)[0]
        )
        assert derive_seed(99, 2, 3) == expected

    def test_rejects_bad_base(self):
        with pytest.raises(InvalidParameterError):
            derive_seed(-1, 0)


def _size_and_seed(n, seed):
    """Monte-Carlo worker that returns its arguments (picklable)."""
    return n, seed


class TestMonteCarlo:
    N_LIST = (5, 7, 11)

    def test_table_is_tier_by_run_with_derived_seeds(self):
        table = _monte_carlo(_size_and_seed, self.N_LIST, 4, 2024, jobs=1)
        assert table == [
            [(n, derive_seed(2024, tier, run)) for run in range(4)]
            for tier, n in enumerate(self.N_LIST)
        ]

    def test_pool_equals_inline_and_leaves_no_worker(self):
        inline = _monte_carlo(_size_and_seed, self.N_LIST, 5, 3, jobs=1)
        assert _monte_carlo(_size_and_seed, self.N_LIST, 5, 3, jobs=2) == inline
        assert multiprocessing.active_children() == []

    def test_one_size_table_is_the_common_random_numbers_rule(self):
        # a one-size table gives run r the seed derive_seed(base, 0, r) at any size
        small = _monte_carlo(_size_and_seed, (5,), 3, 9, jobs=1)
        large = _monte_carlo(_size_and_seed, (500,), 3, 9, jobs=1)
        assert [seed for _, seed in small[0]] == [seed for _, seed in large[0]]
        assert [seed for _, seed in small[0]] == [derive_seed(9, 0, r) for r in range(3)]

    def test_rejects_bad_base_seed_before_any_worker_runs(self):
        calls = []
        with pytest.raises(InvalidParameterError, match="seed"):
            _monte_carlo(lambda n, seed: calls.append(n), (5,), 2, -1, jobs=1)
        assert calls == []


class TestSampleInnovation:
    def test_zero_intensity(self):
        params = ModelParams(0.0, 1.0, 0.0)
        rng = np.random.default_rng(0)
        assert sample_innovation(params, Exponential(1.0), rng) == 0.0

    def test_moments(self, ref_params, ref_marks):
        rng = np.random.default_rng(11)
        draws = np.array([sample_innovation(ref_params, ref_marks, rng) for _ in range(20_000)])
        # E[W] = lambda E[Y] (1 - e^-alpha) / alpha, Var likewise; the
        # exponential factors are 1 to machine precision at alpha=80
        assert draws.mean() == pytest.approx(REF_MEAN, abs=0.3)
        assert draws.var() == pytest.approx(REF_VAR, rel=0.08)

    @pytest.mark.parametrize(
        "marks",
        [Exponential(1.0), GaussianMixture((0.4, 0.6), (1.0, 5.0), (0.5, 1.0)), PointMass(2.0)],
        ids=["exponential", "mixture", "point-mass"],
    )
    def test_no_pulse_is_positive_zero_and_draws_nothing(self, marks):
        # a Poisson count of 0 takes size-0 draws, which leave the generator
        # as it was, and the empty sum is +0.0
        params = ModelParams(0.1, 1.0, 0.1)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        assert twin.poisson(params.lambda_norm) == 0
        value = sample_innovation(params, marks, rng)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert rng.random() == twin.random()

    def test_point_mass_bounds(self):
        # every pulse contributes in (value * e^-alpha, value], so N pulses
        # sum to at most N * value
        params = ModelParams(3.0, 1.0, 3.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = sample_innovation(params, PointMass(2.0), rng)
            assert w >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_overflowing_marks_refused(self, seed):
        # sd * z + mu overflows: the simulator's refusal, with no warning
        marks = GaussianMixture((1.0,), (1e308,), (1e308,))
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError) as refused:
                sample_innovation(ModelParams(5.0, 1.0, 5.0), marks, rng)
            with pytest.raises(InvalidParameterError) as simulated:
                simulate_series(ModelParams(5.0, 1.0, 5.0), marks, 10, seed=seed)
        assert str(refused.value) == str(simulated.value)
        assert "overflows the float range" in str(refused.value)


class TestSimulateSeries:
    def test_shape_and_determinism(self, ref_params, ref_marks):
        a = simulate_series(ref_params, ref_marks, 500, seed=42)
        b = simulate_series(ref_params, ref_marks, 500, seed=42)
        assert a.values.shape == (500,)
        assert np.array_equal(a.values, b.values)
        c = simulate_series(ref_params, ref_marks, 500, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_stationary_moments(self, ref_params, ref_marks):
        series = simulate_series(ref_params, ref_marks, 100_000, seed=2)
        assert series.values.mean() == pytest.approx(REF_MEAN, abs=0.3)
        assert series.values.var() == pytest.approx(REF_VAR, rel=0.05)

    def test_matches_exact_innovation_law(self, ref_params, ref_marks):
        # at alpha=80 consecutive samples are independent innovations, so the
        # thinned vectorized path must match the exact single-draw sampler in
        # distribution; compare a few quantiles
        series = simulate_series(ref_params, ref_marks, 30_000, seed=8)
        rng = np.random.default_rng(9)
        exact = np.array([sample_innovation(ref_params, ref_marks, rng) for _ in range(30_000)])
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(series.values, q) == pytest.approx(
                np.quantile(exact, q), abs=0.35
            )

    def test_slow_decay_autocorrelation(self):
        # at alpha=0.05 the lag-1 autocorrelation must be close to exp(-alpha)
        params = ModelParams(0.5, 0.05, 10.0)
        series = simulate_series(params, Exponential(1.0), 50_000, seed=4)
        x = series.values - series.values.mean()
        rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
        assert rho == pytest.approx(math.exp(-0.05), abs=0.02)

    def test_zero_intensity_series(self):
        params = ModelParams(0.0, 1.0, 0.0)
        series = simulate_series(params, Exponential(1.0), 100, seed=0)
        assert np.all(series.values == 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 80.0], ids=["filtered", "filter-skipped"])
    def test_zero_intensity_series_is_positive_zeros(self, alpha):
        # no pulse is drawn, and every interval's sum starts from +0.0
        params = ModelParams(0.0, alpha, 0.0)
        series = simulate_series(params, Exponential(1.0), 5_000, seed=1)
        assert series.values.tobytes() == np.zeros(5_000).tobytes()

    def test_seed_is_keyword_only(self, ref_params, ref_marks):
        # a fourth positional argument cannot silently become the seed
        with pytest.raises(TypeError):
            simulate_series(ref_params, ref_marks, 10, 5)

    def test_invalid_n(self, ref_params, ref_marks):
        with pytest.raises(InvalidParameterError):
            simulate_series(ref_params, ref_marks, 0)

    def test_invalid_seed(self, ref_params, ref_marks):
        with pytest.raises(InvalidParameterError):
            simulate_series(ref_params, ref_marks, 10, seed=1.5)

    def test_seed_range(self, ref_params, ref_marks):
        for seed in (-1, 2**64):
            with pytest.raises(InvalidParameterError, match=r"seed must be an integer in \[0, "):
                simulate_series(ref_params, ref_marks, 1, seed=seed)
        assert simulate_series(ref_params, ref_marks, 1, seed=2**64 - 1).values.size == 1

    def test_burn_in_default(self):
        assert default_burn_in(ModelParams(1.0, 80.0, 0.0125)) == 64
        assert default_burn_in(ModelParams(1.0, 0.1, 10.0)) == 400

    def test_burn_in_beyond_float_range_refused(self):
        # 40 / alpha_norm overflows to inf below alpha_norm ~ 2.2e-307
        with pytest.raises(ResourceLimitError, match=f"cap of {2**28} simulated intervals"):
            default_burn_in(ModelParams(0.0, 1e-310, 0.0))
        with pytest.raises(ResourceLimitError, match="overflows"):
            simulate_series(ModelParams(0.0, 1e-310, 0.0), Exponential(1.0), 10)


_TWO_MODES = GaussianMixture((0.4, 0.6), (1.0, 5.0), (0.5, 1.0))


class TestPositionSampler:
    """Innovations of light models, drawn by pulse position in chunks."""

    @pytest.mark.parametrize(
        "case, lam, marks",
        [
            (1, 0.5, Exponential(1.0)),
            (2, 2.0, Exponential(1.0)),
            (3, 5.0, Exponential(1.0)),
            (4, 0.5, _TWO_MODES),
            (5, 2.0, _TWO_MODES),
            (6, 5.0, _TWO_MODES),
        ],
        ids=["exp-0.5", "exp-2", "exp-5", "mixture-0.5", "mixture-2", "mixture-5"],
    )
    def test_matches_exact_innovation_law(self, case, lam, marks):
        # alpha = 2 keeps every pulse (cap = 1), so both samplers draw the
        # same law, including the atom at 0 of an interval without pulses;
        # each case has streams of its own, so the six tests are independent
        params = ModelParams(lam, 2.0, lam / 2.0)
        fast = _innovations(params, marks, 10_000, np.random.default_rng([case, 0]))
        rng = np.random.default_rng([case, 1])
        exact = [sample_innovation(params, marks, rng) for _ in range(10_000)]
        assert ks_2samp(fast, exact).pvalue > 0.001

    def test_thinned_mean(self):
        # alpha = 80 keeps the pulses of the last half interval (cap = 0.5);
        # the thinned law has an exact zero where the full law has none, so
        # compare the mean, E[W] = lam_eff E[Y] (1 - e^(-alpha cap)) / (alpha cap)
        params = ModelParams(1.0, 80.0, 0.0125)
        cap = 0.5
        lam_eff = params.lambda_norm * cap
        draws = _innovations(params, Exponential(1.0), 200_000, np.random.default_rng(23))
        mean = lam_eff * (1.0 - math.exp(-80.0 * cap)) / (80.0 * cap)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 4.0 * se

    def test_point_mass(self):
        # a point mass draws nothing, so doubling it leaves the stream as it
        # is and doubles every innovation exactly
        params = ModelParams(2.0, 1.0, 2.0)
        one = _innovations(params, PointMass(1.0), 10_000, np.random.default_rng(24))
        two = _innovations(params, PointMass(2.0), 10_000, np.random.default_rng(24))
        assert np.array_equal(two, 2.0 * one)
        assert one.min() >= 0.0
        assert one.mean() == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=0.03)

    @pytest.mark.parametrize(
        "lam, sampler",
        [(15.5, _innovations_by_position), (16.0, _innovations_by_interval)],
        ids=["below", "at"],
    )
    def test_threshold(self, lam, sampler):
        params = ModelParams(lam, 1.0, lam)
        got = _innovations(params, Exponential(1.0), 5_000, np.random.default_rng(26))
        want = sampler(params, Exponential(1.0), 5_000, np.random.default_rng(26), 1.0, lam)
        assert np.array_equal(got, want)

    def test_prefix_stable(self):
        params = ModelParams(2.0, 1.0, 2.0)
        short = simulate_series(params, Exponential(1.0), 5_000, seed=25)
        long = simulate_series(params, Exponential(1.0), 50_000, seed=25)
        assert np.array_equal(short.values, long.values[:5_000])


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


_REF_MARKS = GaussianMixture((0.3, 0.5, 0.2), (4.0, 12.0, 22.0), (1.0, 1.0, 0.5))
_ZERO_WEIGHT_MARKS = GaussianMixture((0.4, 0.0, 0.6), (2.0, 7.0, 5.0), (0.5, 1.0, 2.0))


class TestFilterSkip:
    """The series against its reference: the AR(1) filter of the innovations.

    `simulate_series` returns the innovations unfiltered when the filter
    would change no bit. Whether it does is recorded per model: a model
    that carries needs the filter, and a series that skipped it would fail.
    """

    @pytest.mark.parametrize(
        "params, marks, carries",
        [
            (ModelParams(100.0, 80.0, 1.25), _REF_MARKS, False),
            (ModelParams(100.0, 80.0, 1.25), PointMass(1e-300), False),
            (ModelParams(50.0, 50.0, 1.0), PointMass(2.0), False),
            # innovations near 0 keep some carried values
            (
                ModelParams(60.0, 40.0, 1.5),
                GaussianMixture((0.5, 0.5), (-3.0, 3.0), (1.0, 1.0)),
                True,
            ),
            # an interval with no pulse after one that had some carries a tiny value
            (ModelParams(0.5, 50.0, 0.01), Exponential(1.0), True),
            # decay just under the gate
            (ModelParams(37.0, 37.0, 1.0), Exponential(1.0), True),
            # decay e**-1, above the gate
            (ModelParams(2.0, 1.0, 2.0), Exponential(1.0), True),
        ],
        ids=["reference", "tiny-marks", "point-mass", "signed", "empty-intervals", "gate", "gamma"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_filtered_innovations(self, params, marks, carries, seed):
        n = 20_000
        burn_in = default_burn_in(params)
        innov = _innovations(params, marks, n + burn_in, np.random.default_rng(seed))
        want = lfilter([1.0], [1.0, -math.exp(-params.alpha_norm)], innov)[burn_in:]
        got = simulate_series(params, marks, n, seed=seed).values
        assert got.tobytes() == want.tobytes()
        assert (want.tobytes() != innov[burn_in:].tobytes()) == carries


class TestStreamPinning:
    """Digests of seeded outputs, pinning the random stream and float order.

    Any change to the generator calls, their order or sizes, the chunking,
    or the floating-point operations that turn draws into observations
    changes these bytes. Such a change must be announced as a stream change
    and the digests recorded again. The innovations go through numpy's
    float64 ``exp``, whose last bit can depend on the numpy build and the
    CPU's vector extensions; these were recorded with numpy 2.4 on x86-64
    with AVX-512.
    """

    @pytest.mark.parametrize(
        "params, marks, seed, digest",
        [
            (
                ModelParams(100.0, 80.0, 1.25),
                _REF_MARKS,
                2024,
                "b599becdd51ccb7cdcf85d595d77f9c376a26001a3b1b1b82c9b54a728056aaf",
            ),
            (
                ModelParams(2.0, 1.0, 2.0),
                Exponential(1.0),
                7,
                "2bd472a21082bff050007ef5d806bc345b8aef3f74c10042ecdfb28421eb22ad",
            ),
            (
                ModelParams(5.0, 2.0, 2.5),
                _ZERO_WEIGHT_MARKS,
                11,
                "e2ccf127f1fd53e65b063e34dd5f29ffa91a1e73de9fc5b959688c00e71c7109",
            ),
        ],
        ids=["reference-mixture", "gamma", "zero-weight-mixture"],
    )
    def test_series_digest(self, params, marks, seed, digest):
        assert _sha256(simulate_series(params, marks, 20_000, seed=seed).values) == digest

    @pytest.mark.parametrize(
        "marks, seed, digest",
        [
            (
                _REF_MARKS,
                3,
                "f6452ac906c64dc5d559017ea781bb1e914e99698e5c4021dbdd256ec0ae8f9c",
            ),
            (
                _ZERO_WEIGHT_MARKS,
                5,
                "3193158979534beedbd65b99492b3a88c9b67dbafc7c3465696cd0d0641b2aa4",
            ),
            (
                # ten weights of 0.1, whose cumulative sum ends below 1
                GaussianMixture((0.1,) * 10, tuple(float(i) for i in range(10)), (1.0,) * 10),
                9,
                "1dea3a1b6c897645966af75c6cbec54cff14bd47ed75239b0360b443016fd8f0",
            ),
        ],
        ids=["reference-mixture", "zero-weight-mixture", "tenths-mixture"],
    )
    def test_mixture_sample_digest(self, marks, seed, digest):
        assert _sha256(marks.sample(np.random.default_rng(seed), 20_000)) == digest


class TestBlockBoundaryPinning:
    """Digests of seeded outputs that cross the simulator's internal boundaries.

    The simulator works in outer chunks of intervals: for heavy models,
    inside each chunk, in cache-sized blocks of pulses, and for light models
    in fixed chunks of 4096 intervals drawn by pulse position; the mixture
    sampler works in blocks of marks. These cases span several chunks and
    blocks, end on a ragged block or a cut-off chunk, hold chunks without
    pulses, or make every block one interval, so a change in how the work
    is cut that moves any draw or any float result changes their bytes.
    Recorded like `TestStreamPinning`.
    """

    @pytest.mark.parametrize(
        "params, marks, n, innovations_only, seed, digest",
        [
            (
                # two outer chunks, about 150 blocks of intervals each
                ModelParams(100.0, 80.0, 1.25),
                _REF_MARKS,
                200_000,
                False,
                2025,
                "37731ba856564a6a701695134ad4c1327fbf1b77827cfa7ad4bc3c5a6a4179e6",
            ),
            (
                # about 3 pulses in 300064 intervals, drawn by position in 74
                # chunks of 4096 (the last cut off): most chunks draw none
                ModelParams(1e-5, 1.0, 1e-5),
                Exponential(1.0),
                300_000,
                False,
                13,
                "0d798b8ab1cfce710781540a272d8373a68e7553ad2ed6103253ba0a157c58f2",
            ),
            (
                # 80000 pulses per interval: every block is one interval; the
                # innovations alone, which the series skipping the filter
                # returns as they are
                ModelParams(2e5, 100.0, 2000.0),
                Exponential(1.0),
                40,
                True,
                17,
                "650f1534ea345873ef923fa5cd2ff131fd7877bca5d7fd157ca94ecbd7d21e16",
            ),
        ],
        ids=["reference-two-chunks", "low-rate-empty-blocks", "one-interval-blocks"],
    )
    def test_series_digest(self, params, marks, n, innovations_only, seed, digest):
        if innovations_only:
            values = _innovations(params, marks, n, np.random.default_rng(seed))
        else:
            values = simulate_series(params, marks, n, seed=seed).values
        assert _sha256(values) == digest

    @pytest.mark.parametrize(
        "marks, seed, digest",
        [
            (
                _REF_MARKS,
                31,
                "3a47a97a4086eb56584204425b6ecf11f0088d1028c755aa15aece6d5b755c19",
            ),
            (
                _ZERO_WEIGHT_MARKS,
                37,
                "5921a5c43bd06f917911bf6729539165f5e00439820ff38db17666768c7e8bd7",
            ),
        ],
        ids=["reference-mixture", "zero-weight-mixture"],
    )
    def test_mixture_sample_ragged_block_digest(self, marks, seed, digest):
        # 200001 marks: three full blocks of 65536 and a ragged one
        assert _sha256(marks.sample(np.random.default_rng(seed), 200_001)) == digest


class TestWriters:
    def test_series_csv(self):
        series = SampleSeries(np.array([1.5, 2.25]), 0)
        assert series_to_csv(series) == "index,value\n1,1.5\n2,2.25\n"

    def test_series_f64le_round_trip(self):
        values = np.array([0.1, -3.75, 1e300])
        series = SampleSeries(values, 0)
        raw = series_to_f64le(series)
        assert len(raw) == 24
        assert np.array_equal(np.frombuffer(raw, dtype="<f8"), values)
