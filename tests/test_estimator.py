import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shotdeconv.ecf import EcfGrid, build_histogram
from shotdeconv.errors import _SIZE_CAP, InvalidParameterError, NumericalFailure, ResourceLimitError
from shotdeconv.estimator import (
    DensityEstimate,
    EstimatorConfig,
    XGrid,
    adaptive_C,
    default_hill_k,
    density_to_csv,
    estimate_density,
    hill_ratio,
    invert_density,
    mark_cf_estimate,
    theorem_cutoff,
    theorem_threshold,
)
from shotdeconv.model import Exponential, ModelParams
from shotdeconv.simulate import simulate_series

# Frozen tuning-formula oracles (independent exp/log evaluation).
BANDWIDTH_1E5_S1_R125 = 0.12328467394420663
CUTOFF_1E5_S1_R125 = 8.11130830789687
THRESHOLD_EXP2 = 0.032075014954979206  # 0.5 * 3^-2.5
ADAPTIVE_C_012 = 0.18393972058572117  # exp(-1)/2


class TestXGrid:
    def test_values(self):
        grid = XGrid(1.0, 0.5, 4)
        assert np.allclose(grid.values, [1.0, 1.5, 2.0, 2.5])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            XGrid(0.0, 0.0, 4)
        with pytest.raises(InvalidParameterError):
            XGrid(0.0, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            XGrid(float("nan"), 1.0, 4)

    @pytest.mark.parametrize(
        "start, step, count",
        [(-1e308, 1e308, 3), (0.0, 1e308, 3), (1e308, 1e308, 2)],
    )
    def test_non_finite_last_point_rejected(self, start, step, count):
        # every point is finite, or the grid is refused: no inf or nan x reaches the inversion
        with pytest.raises(InvalidParameterError, match="last point .* not finite"):
            XGrid(start, step, count)

    def test_count_past_size_cap_rejected(self):
        # refused as a count, not with an overflow converting it to a float
        with pytest.raises(InvalidParameterError, match="count must be an integer in"):
            XGrid(0.0, 1e-300, 10**400)


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig(ratio=1.25, cutoff=0.8)
        assert cfg.bin_width is None and cfg.x_grid is None
        # neither the threshold nor a rescaling to unit mass is a setting
        assert [f.name for f in fields(cfg)] == ["ratio", "cutoff", "bin_width", "x_grid"]

    def test_ratio_strictly_positive(self):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(ratio=0.0, cutoff=1.0)

    def test_x_grid_type(self):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(ratio=1.0, cutoff=1.0, x_grid=[0.0, 1.0])


class TestTuningFormulas:
    def test_bandwidth_frozen(self):
        assert 1.0 / theorem_cutoff(100_000, 1.0, 1.25) == pytest.approx(
            BANDWIDTH_1E5_S1_R125, rel=1e-12
        )

    def test_cutoff_reciprocal(self):
        assert theorem_cutoff(100_000, 1.0, 1.25) == pytest.approx(
            CUTOFF_1E5_S1_R125, rel=1e-12
        )
        # the reciprocal of the bandwidth, exactly as the formula reads
        for n in (100_000, 1_000_000):
            assert theorem_cutoff(n, 1.0, 1.25) == 1.0 / n ** (-1.0 / 5.5)

    def test_bandwidth_shrinks_with_n(self):
        cutoffs = [theorem_cutoff(n, 1.0, 1.25) for n in (1_000, 10_000, 100_000)]
        assert cutoffs[0] < cutoffs[1] < cutoffs[2]

    def test_bandwidth_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem_cutoff(2, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            theorem_cutoff(100.5, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            theorem_cutoff(100, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            theorem_cutoff(100, 1.0, -0.1)

    def test_threshold_frozen(self):
        assert theorem_threshold(2.0, 0.5, 1.25) == pytest.approx(THRESHOLD_EXP2, rel=1e-12)
        assert theorem_threshold(2.0, 0.5, 1.25) == 0.5 * 3.0 ** (-2 * 1.25)

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem_threshold(-1.0, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            theorem_threshold(1.0, 0.0, 1.0)

    def test_adaptive_c_frozen(self):
        assert adaptive_C(np.array([0.0, 1.0, 2.0])) == pytest.approx(ADAPTIVE_C_012, rel=1e-14)

    def test_adaptive_c_empty(self):
        with pytest.raises(InvalidParameterError):
            adaptive_C(np.array([]))

    def test_adaptive_c_clamped_to_positive_finite(self):
        # exp(1000) overflows and exp(-1000) underflows
        assert adaptive_C(np.full(5, -1000.0)) == np.finfo(float).max
        assert adaptive_C(np.full(5, 1000.0)) == np.finfo(float).tiny

    def test_threshold_underflow_stays_positive(self):
        assert theorem_threshold(1e6, 1e-300, 100.0) == np.finfo(float).tiny


def gamma_ecf_grid(u_step, half, shape=2.0):
    """Exact CF of Gamma(shape, 1) and its derivative on a symmetric grid."""
    u = np.arange(-half, half + 1) * u_step
    phi = (1.0 - 1j * u) ** -shape
    dphi = shape * 1j * (1.0 - 1j * u) ** -(shape + 1.0)
    return EcfGrid(u_step, half, phi, dphi)


class TestMarkCfEstimate:
    def test_exact_gamma_identity(self):
        # with the exact Gamma(2,1) CF the ratio formula returns the
        # Exponential(1) mark CF identically: 1 + (u/2) phi'/phi = 1/(1-iu)
        grid = gamma_ecf_grid(0.05, 200)
        values, diag = mark_cf_estimate(grid, 2.0, 1e-12)
        expected = 1.0 / (1.0 - 1j * grid.u)
        assert np.max(np.abs(values - expected)) < 1e-12
        assert diag["fraction_thresholded"] == 0.0
        assert diag["min_abs_ecf"] == pytest.approx(float(np.min(np.abs(grid.phi))), rel=1e-14)

    def test_threshold_region_returns_one(self):
        # |phi| > 0.5 iff |1 - iu|^2 < 2 iff |u| < 1
        grid = gamma_ecf_grid(0.25, 8)
        values, diag = mark_cf_estimate(grid, 2.0, 0.5)
        u = grid.u
        outside = np.abs(u) >= 1.0
        kept = (~outside) & (u != 0.0)
        assert np.all(values[outside] == 1.0 + 0.0j)
        assert np.allclose(values[kept], 1.0 / (1.0 - 1j * u[kept]), atol=1e-13)
        assert diag["fraction_thresholded"] == pytest.approx(outside.mean())

    def test_kappa_above_one_suppresses_everything(self):
        grid = gamma_ecf_grid(0.25, 8)
        values, diag = mark_cf_estimate(grid, 2.0, 1.1)
        assert np.all(values == 1.0 + 0.0j)
        assert diag["fraction_thresholded"] == 1.0

    def test_validation(self):
        grid = gamma_ecf_grid(0.25, 4)
        with pytest.raises(InvalidParameterError):
            mark_cf_estimate(grid, 0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            mark_cf_estimate(grid, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            mark_cf_estimate("grid", 1.0, 0.5)

    def test_overflowing_ratio_term_refused(self):
        # u / ratio overflows at a subnormal ratio: an input error naming
        # ratio and kappa, with no warning, not a non-finite mark CF
        grid = gamma_ecf_grid(0.25, 4)
        with pytest.raises(InvalidParameterError, match=r"ratio = 1e-310 and kappa = 0\.5"):
            mark_cf_estimate(grid, 1e-310, 0.5)


class TestInvertDensity:
    def test_point_mass_dirichlet_kernel(self):
        # phi(u) = e^{3iu} truncated at 2 inverts to sin(2(x-3))/(pi (x-3))
        cutoff = 2.0
        step = cutoff / 256
        u = np.arange(-256, 257) * step
        phi = np.exp(3j * u)
        x_grid = XGrid(0.0, 0.01, 701)
        est = invert_density(phi, step, cutoff, x_grid)
        x = est.x_grid
        peak = est.theta_hat[np.argmin(np.abs(x - 3.0))]
        assert peak == pytest.approx(cutoff / math.pi, abs=5e-3)
        zero = est.theta_hat[np.argmin(np.abs(x - (3.0 + math.pi / 2)))]
        assert zero <= 5e-3

    def test_gaussian_plug_in(self):
        cutoff = 6.0
        step = cutoff / 512
        u = np.arange(-512, 513) * step
        phi = np.exp(-0.5 * u * u)
        x_grid = XGrid(-4.0, 0.01, 801)
        est = invert_density(phi, step, cutoff, x_grid)
        truth = np.exp(-0.5 * est.x_grid**2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(est.theta_hat - truth)) < 1e-2
        assert est.diagnostics["imag_residual"] < 1e-10

    def test_cutoff_zeroes_tail_frequencies(self):
        # grid wider than the cutoff: frequencies beyond it must not matter
        step = 4.0 / 256
        u = np.arange(-320, 321) * step
        phi = np.exp(-0.5 * u * u)
        x_grid = XGrid(-2.0, 0.05, 81)
        est_wide = invert_density(phi, step, 4.0, x_grid)
        phi_trunc = np.where(np.abs(u) <= 4.0, phi, 0.0)
        est_trunc = invert_density(phi_trunc, step, 4.0, x_grid)
        assert np.allclose(est_wide.theta_hat, est_trunc.theta_hat, atol=1e-14)

    def test_without_config_records_only_what_it_computed(self):
        step = 2.0 / 128
        phi = np.exp(-0.5 * (np.arange(-128, 129) * step) ** 2)
        est = invert_density(phi, step, 2.0, XGrid(-2.0, 0.05, 81))
        assert set(est.diagnostics) == {"imag_residual"}

    def test_validation(self):
        x_grid = XGrid(0.0, 0.1, 11)
        with pytest.raises(InvalidParameterError, match="odd"):
            invert_density(np.ones(4, complex), 0.01, 0.64, x_grid)
        with pytest.raises(InvalidParameterError, match="spans"):
            invert_density(np.ones(65, complex), 0.01, 1.0, x_grid)
        with pytest.raises(InvalidParameterError, match="coarse"):
            invert_density(np.ones(65, complex), 0.05, 1.0, x_grid)
        with pytest.raises(InvalidParameterError):
            invert_density(np.ones(65, complex), 0.01, 0.64, "grid")

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_mark_cf_rejected(self, bad):
        # one bad value would make the whole estimate and imag_residual NaN
        phi = np.ones(65, complex)
        phi[40] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            invert_density(phi, 0.01, 0.64, XGrid(0.0, 0.1, 11))

    def test_overflowing_x_phase_rejected(self):
        # every grid point is finite, but x * u overflows at the cutoff
        with pytest.raises(InvalidParameterError, match="phase x \\* u .* overflows"):
            invert_density(np.ones(129, complex), 0.01, 0.64, XGrid(1e308, 1.0, 3))

    def test_nan_residual_is_a_numerical_failure(self):
        # finite mark CF values whose sums overflow give a NaN residual
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="residual nan") as excinfo:
                invert_density(np.full(129, 1e308 + 1e308j), 0.01, 0.64, XGrid(0.0, 0.1, 11))
        assert math.isnan(excinfo.value.partial.diagnostics["imag_residual"])

    def test_x_grid_count_past_fft_cap_fails_before_allocating(self):
        # 129 inputs to _SIZE_CAP outputs need an FFT of at least _SIZE_CAP + 128
        # points; the check runs before any array of that size exists. The grid
        # spans the cutoff at the finest step, so only the size is refused
        x_grid = XGrid(0.0, 0.1, _SIZE_CAP)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="FFT.*x_grid count"):
                invert_density(np.ones(129, complex), 0.01, 0.64, x_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_asymmetric_input_fails_with_partial(self):
        # killing the negative-frequency half makes the integral complex
        step = 2.0 / 128
        u = np.arange(-128, 129) * step
        phi = np.exp(1j * u)
        phi[:100] = 0.0
        x_grid = XGrid(0.0, 0.05, 61)
        with pytest.raises(NumericalFailure) as exc_info:
            invert_density(phi, step, 2.0, x_grid)
        partial = exc_info.value.partial
        assert isinstance(partial, DensityEstimate)
        assert np.all(partial.theta_hat >= 0)
        assert partial.diagnostics["imag_residual"] >= 1e-6


class TestEstimateDensity:
    def test_pipeline_smoke(self, gamma_params, gamma_marks):
        series = simulate_series(gamma_params, gamma_marks, 20_000, seed=31)
        cfg = EstimatorConfig(ratio=2.0, cutoff=2.0, x_grid=XGrid(0.0, 0.01, 601))
        est = estimate_density(series, cfg)
        truth = np.exp(-est.x_grid)
        # compare away from the pdf jump at 0, where sharp truncation at
        # cutoff 2 leaves an unavoidable Gibbs overshoot
        away = est.x_grid >= 1.0
        assert np.max(np.abs(est.theta_hat - truth)[away]) < 0.35
        assert set(est.diagnostics) >= {"fraction_thresholded", "min_abs_ecf", "imag_residual"}

    def test_default_x_grid(self, gamma_params, gamma_marks):
        series = simulate_series(gamma_params, gamma_marks, 2_000, seed=3)
        cfg = EstimatorConfig(ratio=2.0, cutoff=2.0)
        est = estimate_density(series, cfg)
        assert est.x_grid[0] == 0.0
        assert est.x_grid.size == 2048

    @pytest.mark.parametrize(
        "values, end",
        [
            # 99.8% of the mass in bin 0, the 0.999 point crossed in bin 3:
            # its upper edge 4, not np.quantile's 3.5
            ([0.5] * 9980 + [3.5] * 15 + [9.5] * 5, 1.2 * 4.0 / 2.0),
            # a constant sample: one bin of width 1, [5, 6)
            ([5.3] * 10, 1.2 * 6.0 / 2.0),
            # a negative edge leaves the grid empty: [0, 1] instead
            ([-3.5, -2.5], 1.0),
        ],
        ids=["crossing-bin", "constant", "negative"],
    )
    def test_default_x_grid_ends_at_the_histogram_edge(self, values, end):
        est = estimate_density(np.array(values), EstimatorConfig(ratio=2.0, cutoff=2.0, bin_width=1.0))
        assert est.x_grid[0] == 0.0 and est.x_grid.size == 2048
        assert est.x_grid[-1] == pytest.approx(end, rel=1e-12)

    def test_explicit_bin_width(self, gamma_params, gamma_marks):
        series = simulate_series(gamma_params, gamma_marks, 2_000, seed=3)
        a = estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=2.0, bin_width=0.01))
        b = estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=2.0, bin_width=0.02))
        assert not np.array_equal(a.theta_hat, b.theta_hat)

    def test_threshold_follows_sample_mean(self, gamma_params, gamma_marks):
        # a shift leaves |phi| as it is but scales the adaptive C by exp(-shift)
        values = simulate_series(gamma_params, gamma_marks, 2_000, seed=3).values
        cfg = EstimatorConfig(ratio=2.0, cutoff=2.0)
        kept = estimate_density(values, cfg).diagnostics
        shifted = estimate_density(values - 10.0, cfg).diagnostics
        assert kept["fraction_thresholded"] == 0.0
        # at the shifted mean of about -8, kappa = exp(8) / 2 * 3**-4 is about 18
        assert shifted["fraction_thresholded"] == 1.0

    def test_requires_config(self, gamma_params, gamma_marks):
        series = simulate_series(gamma_params, gamma_marks, 100, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_density(series, {"cutoff": 2.0})

    def test_cutoff_with_underflowing_step_refused(self, gamma_params, gamma_marks):
        # cutoff / 1024 rounds to 0 at or below 2**-1065, which the rounding
        # check refuses with the safe bound
        series = simulate_series(gamma_params, gamma_marks, 100, seed=0)
        refused = (r"^cutoff 5e-324 is too small: its frequency step cutoff/1024 rounds down "
                   r"to 0\.0, .*; use a cutoff of at least 2\.2784756311113742e-305$")
        with pytest.raises(InvalidParameterError, match=refused):
            estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=5e-324))
        smallest = math.nextafter(2.0**-1065, 1)
        estimate = estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=smallest))
        assert np.all(np.isfinite(estimate.theta_hat))

    @pytest.mark.parametrize("cutoff", [7e-321, 1e-312])
    def test_cutoff_whose_step_rounds_short_refused(self, gamma_params, gamma_marks, cutoff):
        # a subnormal cutoff / 1024 can round down, so that 1024 steps fall
        # short of the cutoff; from 1024 times the smallest normal double on,
        # the step is exact
        series = simulate_series(gamma_params, gamma_marks, 100, seed=0)
        refused = (rf"^cutoff {cutoff!r} is too small: its frequency step cutoff/1024 rounds "
                   r"down to .*; use a cutoff of at least 2\.2784756311113742e-305$")
        with pytest.raises(InvalidParameterError, match=refused):
            estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=cutoff))
        for kept in (3e-321, 1e-310, 1024 * np.finfo(float).tiny):
            estimate = estimate_density(series, EstimatorConfig(ratio=2.0, cutoff=kept))
            assert np.all(np.isfinite(estimate.theta_hat))



def _traced_peak_above_start(fn, *args):
    """Peak traced allocation, in bytes above the level at the call's start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


class TestEstimatePathMemory:
    """At n = 1e6 the estimate path allocates O(block + bins), not O(n)."""

    @pytest.fixture(scope="class")
    def sample(self):
        return np.random.default_rng(9).gamma(3.0, 4.0, 1_000_000)

    def test_build_histogram_peak(self, sample):
        build_histogram(sample)
        assert _traced_peak_above_start(build_histogram, sample) < 2 * 2**20

    def test_estimate_density_peak(self, sample):
        # the default x-grid reads only the histogram
        cfg = EstimatorConfig(ratio=1.25, cutoff=0.8)
        # a first call fills the FFT plan caches
        estimate_density(sample, cfg)
        assert _traced_peak_above_start(estimate_density, sample, cfg) < 2 * 2**20


class TestSampleValidation:
    """NaN and infinity are input errors at every library entry point."""

    CALLS = {
        "build_histogram": lambda x: build_histogram(x, 0.1),
        "estimate_density": lambda x: estimate_density(x, EstimatorConfig(ratio=1.0, cutoff=2.0)),
        "adaptive_C": adaptive_C,
        "hill_ratio": hill_ratio,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, bad):
        values = np.linspace(0.5, 3.0, 50)
        values[17] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            self.CALLS[name](values)

    def test_huge_magnitude_rejected(self):
        config = EstimatorConfig(ratio=1.0, cutoff=2.0)
        with pytest.raises(InvalidParameterError, match="bin indices"):
            estimate_density(np.full(10, 1e20), config)

    @pytest.mark.parametrize("values", [[1.0, 2.0, 1e300], [0.0, 1e20]], ids=["1e300", "1e20"])
    def test_cutoff_past_nyquist_rejected(self, values):
        # the default width (span/4096) puts pi/bin_width far below the cutoff
        config = EstimatorConfig(ratio=1.0, cutoff=2.0)
        with pytest.raises(InvalidParameterError, match="Nyquist.*smaller bin_width"):
            estimate_density(np.asarray(values), config)

    def test_cutoff_at_nyquist_accepted(self):
        width = math.pi / 2.0
        config = EstimatorConfig(ratio=1.0, cutoff=2.0, bin_width=width)
        estimate = estimate_density(np.linspace(0.5, 30.0, 200), config)
        assert np.all(np.isfinite(estimate.theta_hat))
        with pytest.raises(InvalidParameterError, match="Nyquist"):
            estimate_density(np.linspace(0.5, 30.0, 200), replace(config, bin_width=width * 1.001))

    @pytest.mark.parametrize("shift", [-1000.0, 1000.0])
    def test_extreme_mean_gives_estimate(self, gamma_params, gamma_marks, shift):
        series = simulate_series(gamma_params, gamma_marks, 2_000, seed=4)
        config = EstimatorConfig(ratio=gamma_params.ratio, cutoff=2.0)
        estimate = estimate_density(series.values + shift, config)
        # C clamps to the largest double below the zero mean, the smallest above
        assert estimate.diagnostics["fraction_thresholded"] == (1.0 if shift < 0 else 0.0)
        assert np.all(np.isfinite(estimate.theta_hat))


_ADVERSARIAL_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e20, -1e20, 1e300, -1e300, 2.0**53]),
)
# the internal consistency checks of `EcfGrid`, which no input may reach
_ECF_INVARIANT = "phi at u=0|must not exceed 1|conjugate"


class TestEstimateProperty:
    """`estimate_density` returns a finite estimate or raises a documented error."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(_ADVERSARIAL_VALUES, max_size=40),
            st.builds(lambda x, k: [x] * k, _ADVERSARIAL_VALUES, st.integers(1, 40)),
        ),
        cutoff=st.sampled_from([0.8, 2.0, 10.0]),
    )
    @example(values=[1.0, 2.0, 1e300], cutoff=2.0)
    @example(values=[0.0, 1e20], cutoff=2.0)
    @example(values=[], cutoff=2.0)
    def test_valid_estimate_or_documented_error(self, values, cutoff):
        config = EstimatorConfig(ratio=1.0, cutoff=cutoff)
        try:
            estimate = estimate_density(np.asarray(values, dtype=float), config)
        except (InvalidParameterError, ResourceLimitError, NumericalFailure) as exc:
            assert not re.search(_ECF_INVARIANT, str(exc)), str(exc)
        else:
            assert np.all(np.isfinite(estimate.theta_hat))


_GAMMA_SAMPLE = simulate_series(ModelParams(2.0, 1.0, 2.0), Exponential(1.0), 10_000, seed=5).values


class TestFineBinWidthProperty:
    """At fine bin widths the ECF either holds its exact values or names the remedy."""

    @settings(max_examples=20, deadline=None)
    @given(bins=st.integers(2**12, 2**21), nyquist_fraction=st.floats(0.01, 0.99))
    @example(bins=2**20, nyquist_fraction=0.5)
    # |phi| down to 6e-6 and 8e-6: unless the ECF halves are exact
    # conjugates, their rounding drives the imaginary residual past 1e-6
    @example(bins=290048, nyquist_fraction=0.8693914217229596)
    @example(bins=807478, nyquist_fraction=0.48038816533167555)
    def test_estimate_or_increase_bin_width(self, bins, nyquist_fraction):
        width = float(np.ptp(_GAMMA_SAMPLE)) / bins
        cutoff = nyquist_fraction * math.pi / width
        config = EstimatorConfig(ratio=2.0, cutoff=cutoff, bin_width=width)
        try:
            estimate = estimate_density(_GAMMA_SAMPLE, config)
        except (InvalidParameterError, ResourceLimitError, NumericalFailure) as exc:
            assert "increase bin_width" in str(exc), str(exc)
            assert not re.search(_ECF_INVARIANT, str(exc)), str(exc)
        else:
            assert np.all(np.isfinite(estimate.theta_hat))


class TestHillRatio:
    def test_default_k(self):
        assert default_hill_k(20_000) == int(20_000**0.6)
        assert default_hill_k(2) == 1


    def test_pareto_oracle(self):
        # X = U^(1/2) has density 2x on (0,1): reciprocal tail index 2
        rng = np.random.default_rng(2024)
        x = rng.random(100_000) ** 0.5
        assert hill_ratio(x) == pytest.approx(2.0, abs=0.25)

    def test_explicit_k(self):
        rng = np.random.default_rng(5)
        x = rng.random(50_000) ** (1.0 / 1.25)
        assert hill_ratio(x, k=800) == pytest.approx(1.25, abs=0.2)

    def test_degenerate_tail_raises(self):
        with pytest.raises(InvalidParameterError, match=r"the k \+ 1 = 16 smallest sample values are equal"):
            hill_ratio(np.full(100, 3.0))
        # equal k + 1 smallest values, above a larger value: a larger k resolves it
        values = np.array([2.0, 2.0, 2.0, 5.0])
        with pytest.raises(InvalidParameterError, match=r"pass a larger k \(at most n - 1 = 3\)"):
            hill_ratio(values, k=2)
        assert hill_ratio(values, k=3) > 0.0

    def test_subnormal_value_raises(self):
        values = np.array([5e-324, 1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(InvalidParameterError, match=r">= 2\.2250738585072014e-308 \(the smallest normal"):
            hill_ratio(values)
        values[0] = np.finfo(float).tiny
        assert 0.0 < hill_ratio(values) < float("inf")

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            hill_ratio(np.array([1.0, -2.0]))
        with pytest.raises(InvalidParameterError):
            hill_ratio(np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            hill_ratio(np.array([1.0, 2.0, 3.0]), k=3)
        with pytest.raises(InvalidParameterError):
            hill_ratio(np.array([1.0, 2.0, 3.0]), k=1.5)


class TestDensityCsv:
    def test_golden(self):
        est = DensityEstimate(np.array([0.0, 1.0]), np.array([0.5, 0.25]), {})
        assert density_to_csv(est) == "x,theta_hat\n0,0.5\n1,0.25\n"


class TestDensityEstimateType:
    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            DensityEstimate(np.array([0.0, 1.0]), np.array([0.5, -0.1]), {})

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            DensityEstimate(np.array([0.0, 1.0]), np.array([0.5]), {})
