import cmath
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotdeconv.ecf import (
    _SUM_BLOCK,
    _czt_plan,
    _ecf_misses,
    EcfGrid,
    Histogram,
    build_histogram,
    ecf_deviation,
    ecf_direct,
    ecf_from_histogram,
    histogram_cf_bounds,
    _ecf_sup_gap,
)
from shotdeconv.errors import _SIZE_CAP, InvalidParameterError, ResourceLimitError
from shotdeconv.estimator import EstimatorConfig, estimate_density
from shotdeconv.model import _BLOCK, Exponential, ModelParams, PointMass

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestBuildHistogram:
    def test_basic_binning(self):
        hist = build_histogram(np.array([0.2, 0.7, 1.2]), 0.5)
        assert hist.l_min == 0 and hist.l_max == 2
        assert np.allclose(hist.mass, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(hist.centers, [0.25, 0.75, 1.25])

    def test_exact_multiple_singleton(self):
        # a sample sitting exactly on a bin edge still yields one valid bin
        hist = build_histogram(np.array([2.0]), 1.0)
        assert hist.l_min == 2 and hist.l_max == 2
        assert hist.mass[0] == 1.0

    def test_upper_edge_closed(self):
        # the maximum lands in the top bin even when it is an exact edge
        hist = build_histogram(np.array([0.25, 1.0]), 0.5)
        assert hist.l_min == 0 and hist.l_max == 1
        assert np.allclose(hist.mass, [0.5, 0.5])

    def test_negative_values(self):
        hist = build_histogram(np.array([-1.2]), 0.5)
        assert hist.l_min == -3
        assert hist.centers[0] == pytest.approx(-1.25)

    def test_invalid_width(self):
        with pytest.raises(InvalidParameterError):
            build_histogram(np.array([1.0]), 0.0)

    def test_empty_sample(self):
        with pytest.raises(InvalidParameterError):
            build_histogram(np.array([]), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=60),
        width=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_mass_properties(self, values, width):
        arr = np.array(values)
        if (arr.max() - arr.min()) / width > 1e6:
            width = (arr.max() - arr.min()) / 1e6
        hist = build_histogram(arr, width)
        assert abs(float(hist.mass.sum()) - 1.0) <= 1e-12
        assert np.all(hist.mass >= 0)
        # every observation lies within the covered range
        assert hist.l_min * width <= arr.min() + 1e-9 * max(1.0, abs(arr.min()))
        assert arr.max() <= (hist.l_max + 1) * width + 1e-9 * max(1.0, abs(arr.max()))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(finite_floats, min_size=1, max_size=80),
            # quarter-bin multiples at power-of-two widths put values, the
            # maximum included, exactly on bin edges
            st.lists(st.integers(-400, 400).map(lambda k: k / 4), min_size=1, max_size=80),
        ),
        width=st.one_of(
            st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]),
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        ),
    )
    def test_mass_matches_clip_formula(self, values, width):
        arr = np.array(values)
        if (arr.max() - arr.min()) / width > 1e6:
            width = (arr.max() - arr.min()) / 1e6
        l_min = math.floor(arr.min() / width)
        l_max = max(math.ceil(arr.max() / width) - 1, l_min)
        nbins = l_max - l_min + 1
        idx = np.clip(np.floor(arr / width).astype(np.int64) - l_min, 0, nbins - 1)
        expected = np.bincount(idx, minlength=nbins) / arr.size
        hist = build_histogram(arr, width)
        assert (hist.l_min, hist.l_max) == (l_min, l_max)
        assert np.array_equal(hist.mass, expected)

    def test_default_width_splits_range_into_4096_bins(self):
        hist = build_histogram(np.array([1.0, 5.096]))
        assert hist.bin_width == (5.096 - 1.0) / 4096
        assert build_histogram(np.array([3.0, 3.0])).bin_width == 1.0

    def test_bin_count_cap(self):
        with pytest.raises(ResourceLimitError, match="bins"):
            build_histogram(np.array([0.0, 1e6]), 1e-6)

    @pytest.mark.parametrize("value", [1e20, 1e300, -1e19])
    def test_bin_index_range(self, value):
        with pytest.raises(InvalidParameterError, match=r"2\*\*52"):
            build_histogram(np.full(10, value))

    def test_bin_index_range_edge(self):
        edge = 2**52 - 1
        hist = build_histogram(np.full(3, float(edge)))
        assert hist.l_min == hist.l_max == edge
        assert hist.centers.shape == (1,)
        for value in (2.0**52, -(2.0**52)):
            with pytest.raises(InvalidParameterError, match=r"2\*\*52"):
                build_histogram(np.full(3, value))

    @pytest.mark.parametrize("width", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_center_half_bin_above_edge_at_index_bound(self, width, sign):
        # l + 1/2 is exact for |l| < 2**52, so at power-of-two widths the
        # center sits exactly half a bin above the bin's lower edge
        l = sign * (2**52 - 1)
        hist = build_histogram(np.full(3, l * width), width)
        assert hist.l_min == l
        assert hist.centers[0] - l * width == width / 2

    @pytest.mark.parametrize(
        "values, shown",
        [([0.0, 5e-324], "is 0"), ([-1e308, 1e308], "is inf")],
        ids=["span-underflow", "span-overflow"],
    )
    def test_default_width_out_of_range(self, values, shown):
        with pytest.raises(InvalidParameterError) as info:
            build_histogram(np.array(values))
        message = str(info.value)
        assert "sample range" in message and "default 4096 bins" in message
        assert shown in message
        assert "pass a bin_width or rescale the sample" in message
        assert "bin_width must be > 0" not in message

    def test_end_bin_center_past_largest_float(self):
        # the top bin's center (1 + 1/2) * 1.5e308 overflows: refused by the
        # histogram with no warning, before the ECF derivative sees an infinity
        values = np.array([1e307, 1.7e308, 5e307])
        with pytest.raises(InvalidParameterError, match="use a smaller bin_width$"):
            build_histogram(values, 1.5e308)
        config = EstimatorConfig(ratio=2.0, cutoff=1e-308, bin_width=1.5e308)
        with pytest.raises(InvalidParameterError, match="bin center .* bin_width"):
            estimate_density(values, config)



def _one_shot_mass(values, hist):
    """Masses from one floor/bincount over the whole sample (no blocks)."""
    nbins = hist.mass.size
    offsets = np.floor(values / hist.bin_width) - hist.l_min
    counts = np.bincount(offsets.astype(np.intp), minlength=nbins + 1)
    counts[nbins - 1] += counts[nbins]
    return counts[:nbins] / values.size


class TestBlockedBinning:
    """Binning block by block counts exactly what one pass over the sample counts."""

    SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("width", [0.25, None])
    def test_extremes_in_last_block(self, size, width):
        rng = np.random.default_rng(size)
        values = rng.uniform(-3.0, 5.0, size)
        # the minimum and a value exactly on the top edge (5 = 20 * 0.25)
        # sit in the last block, the maximum last of all
        values[-2] = -3.0
        values[-1] = 5.0
        hist = build_histogram(values, width)
        assert hist.l_min == math.floor(-3.0 / hist.bin_width)
        assert np.array_equal(hist.mass, _one_shot_mass(values, hist))
        if width is not None:
            # the top edge folds into the last bin: (l_max + 1) * w == 5
            assert hist.l_max == 19

    @pytest.mark.parametrize("size", SIZES)
    def test_negative_values(self, size):
        rng = np.random.default_rng(size + 1)
        values = rng.normal(-30.0, 7.0, size)
        for width in (None, 0.1, 3.0):
            hist = build_histogram(values, width)
            assert np.array_equal(hist.mass, _one_shot_mass(values, hist))

    @pytest.mark.parametrize("size", SIZES)
    def test_more_bins_than_block(self, size):
        # 2 * _BLOCK bins (the top edge folds into the last): blocks grow
        # to the bin count
        values = np.random.default_rng(size + 2).uniform(0.0, 2.0 * _BLOCK, size)
        values[-1] = 2.0 * _BLOCK
        values[-2] = 0.0
        hist = build_histogram(values, 1.0)
        assert hist.mass.size == 2 * _BLOCK
        assert np.array_equal(hist.mass, _one_shot_mass(values, hist))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("value", [2.5, 2.0, -7.25])
    def test_constant_sample(self, size, value):
        hist = build_histogram(np.full(size, value))
        assert hist.bin_width == 1.0
        assert hist.l_min == hist.l_max == math.floor(value)
        assert hist.mass.tolist() == [1.0]


class TestHistogramType:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(InvalidParameterError, match="sum to 1"):
            Histogram(1.0, 0, np.array([0.5, 0.4]))

    @pytest.mark.parametrize(
        "mass, message",
        [([[0.5, 0.5]], "mass must be a 1-d array, got 2 dimensions"),
         ([1.5, -0.5], "mass must be nonnegative"),
         ([np.nan], "mass must be nonnegative"),
         ([0.5, np.nan, 0.5], "mass must be nonnegative")],
        ids=["2-d", "negative", "nan", "nan-among-valid"],
    )
    def test_mass_shape_and_sign(self, mass, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            Histogram(1.0, 0, np.array(mass))


class TestEcfDirect:
    def test_two_point_sample(self):
        phi, dphi = ecf_direct(np.array([1.0, 2.0]), 0.5)
        expected_phi = (cmath.exp(0.5j) + cmath.exp(1.0j)) / 2
        expected_dphi = 1j * (1.0 * cmath.exp(0.5j) + 2.0 * cmath.exp(1.0j)) / 2
        assert phi == pytest.approx(expected_phi, rel=1e-14)
        assert dphi == pytest.approx(expected_dphi, rel=1e-14)

    def test_at_zero(self):
        values = np.array([3.0, 5.0, 7.0])
        phi, dphi = ecf_direct(values, 0.0)
        assert phi == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert dphi == pytest.approx(1j * values.mean(), rel=1e-14)

    def test_array_input(self):
        phi, dphi = ecf_direct(np.array([1.0, 4.0]), np.array([0.0, 0.3, -0.3]))
        assert phi.shape == (3,) and dphi.shape == (3,)
        assert phi[1] == pytest.approx(np.conj(phi[2]), rel=1e-14)

    def test_nonfinite_u(self):
        with pytest.raises(InvalidParameterError):
            ecf_direct(np.array([1.0]), float("nan"))


class TestEcfFromHistogram:
    def test_matches_naive_sum(self):
        rng = np.random.default_rng(12)
        values = rng.gamma(2.0, 1.0, size=400)
        hist = build_histogram(values, 0.05)
        grid = ecf_from_histogram(hist, 0.125, 32)
        centers = hist.centers
        for j in (-32, -7, 0, 7, 32):
            u = j * 0.125
            naive_phi = np.sum(hist.mass * np.exp(1j * u * centers))
            naive_dphi = np.sum(hist.mass * 1j * centers * np.exp(1j * u * centers))
            k = j + 32
            assert grid.phi[k] == pytest.approx(naive_phi, abs=1e-11)
            assert grid.phi_prime[k] == pytest.approx(naive_dphi, abs=1e-10)

    def test_exact_at_a_million_bins(self):
        # 2**20 + 1 bins, the estimator's 2049-point grid: every exact
        # property holds to 1e-12, and the grid equals the direct sums over
        # the sample with each value moved to its bin center
        values = np.random.default_rng(19).gamma(2.0, 1.0, 200_000)
        hist = build_histogram(values, float(np.ptp(values)) / 2**20)
        assert hist.mass.size > 2**20
        grid = ecf_from_histogram(hist, 0.8 / 1024, 1024)
        assert max(_ecf_misses(grid.phi, grid.phi_prime)) <= 1e-12
        binned = np.repeat(hist.centers, np.rint(hist.mass * values.size).astype(int))
        j = np.array([0, 1, 700, 1024, 1500, 2048])
        phi, dphi = ecf_direct(binned, grid.u[j])
        assert np.max(np.abs(grid.phi[j] - phi)) <= 1e-12
        assert np.max(np.abs(grid.phi_prime[j] - dphi)) <= 1e-12 * np.max(np.abs(dphi))

    def test_grid_frequencies(self):
        hist = build_histogram(np.array([0.5, 1.5]), 1.0)
        grid = ecf_from_histogram(hist, 0.25, 4)
        assert np.allclose(grid.u, np.arange(-4, 5) * 0.25)
        assert grid.phi[4] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_negative_support(self):
        values = np.array([-3.0, -1.0, 2.0])
        hist = build_histogram(values, 0.5)
        grid = ecf_from_histogram(hist, 0.2, 8)
        centers = hist.centers
        u = 1.2
        naive = np.sum(hist.mass * np.exp(1j * u * centers))
        assert grid.phi[8 + 6] == pytest.approx(naive, abs=1e-12)

    def test_resource_cap(self):
        hist = build_histogram(np.array([0.5]), 1.0)
        with pytest.raises(ResourceLimitError, match="FFT"):
            ecf_from_histogram(hist, 1e-9, 2**27 + 1)

    @pytest.mark.parametrize(
        "hist, u_step",
        [
            # the grid end 2 * u_step overflows
            (build_histogram([1.0, 2.0, 3.0], 0.5), 1e308),
            # the grid end is finite, its phase u * bin_width * (l_min + 1/2) is not
            (Histogram(0.5, 10**15, [1.0]), 1e307),
            # the grid end and its phase are finite, the chirp angle
            # u_step * bin_width * k**2 / 2 over 1000 bins is not
            (Histogram(1.0, 0, np.full(1000, 1e-3)), 1e307),
        ],
    )
    def test_nonfinite_grid_is_an_input_error(self, hist, u_step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="u_step = .* and half_count = 2 "):
                ecf_from_histogram(hist, u_step, 2)

    def test_invalid_args(self):
        hist = build_histogram(np.array([0.5]), 1.0)
        with pytest.raises(InvalidParameterError):
            ecf_from_histogram(hist, 0.0, 4)
        with pytest.raises(InvalidParameterError):
            ecf_from_histogram(hist, 0.1, 0)


class TestCztPlan:
    """The chirp-z plan equals the direct sums it stands for, on numpy.fft alone."""

    @pytest.mark.parametrize(
        "n, m, omega, theta",
        [
            # the ECF's shape: 4097 bins to 2049 points, theta = 1024 omega
            (4097, 2049, 0.003, 0.003 * 1024),
            # the inversion's shape: 2049 mark CF values to 2048 points, theta = 0
            (2049, 2048, -0.011, 0.0),
            (2049, 4097, -0.011, 0.0),
            (2049, 2049, 0.003, 0.003 * 1024),
            (46340, 2049, 1e-4, 1e-4 * 1024),
            (46341, 2049, 1e-4, 1e-4 * 1024),
            (2049, 46340, -1e-4, 0.0),
            (2049, 46341, -1e-4, 0.0),
        ],
        ids=lambda v: repr(v) if isinstance(v, int) else f"{v:g}",
    )
    def test_matches_direct_sums(self, n, m, omega, theta):
        # unit-mass inputs, so that the sums are at most 1 and the tolerance
        # is absolute; the direct sums cover 41 outputs spread over all m
        rng = np.random.default_rng(n + m)
        mass = rng.random(n)
        mass /= mass.sum()
        transform = _czt_plan(n, m, omega, theta, "unused")
        rows = np.unique(np.linspace(0, m - 1, 41).astype(int))
        for x in (mass, mass * 1j * rng.random(n)):
            direct = np.exp(1j * np.outer(rows * omega - theta, np.arange(n))) @ x
            assert np.max(np.abs(transform(x)[rows] - direct)) <= 1e-12

    def test_cap_refused_before_allocating(self):
        # 2 inputs to _SIZE_CAP outputs need an FFT of _SIZE_CAP + 1 points or more
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"> {_SIZE_CAP} points; the remedy$"):
                _czt_plan(2, _SIZE_CAP, 1e-9, 0.0, "the remedy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEcfGridType:
    def _mk(self, phi, dphi, step=0.5, half=1):
        return EcfGrid(step, half, np.asarray(phi, complex), np.asarray(dphi, complex))

    def test_unit_at_zero_enforced(self):
        with pytest.raises(InvalidParameterError, match="u=0"):
            self._mk([0.5, 0.9, 0.5], [0.1j, 0.0, -0.1j])

    def test_modulus_cap(self):
        with pytest.raises(InvalidParameterError, match="exceed 1"):
            self._mk([1.5, 1.0, 1.5], [0.0, 0.0, 0.0])

    def test_conjugate_symmetry_enforced(self):
        with pytest.raises(InvalidParameterError, match="conjugate-symmetric"):
            self._mk([0.5 + 0.1j, 1.0, 0.5 + 0.2j], [0.0, 0.0, 0.0])

    def test_antisymmetry_enforced(self):
        with pytest.raises(InvalidParameterError, match="antisymmetric"):
            self._mk([0.5, 1.0, 0.5], [0.3j, 0.1j, -0.3j])

    @pytest.mark.parametrize("wrong", ["phi", "phi_prime"])
    def test_length_enforced(self, wrong):
        phi, dphi = [0.5 - 0.1j, 1.0, 0.5 + 0.1j], [0.2j, 1.0j, 0.2j]
        if wrong == "phi":
            phi = phi[:2]
        else:
            dphi = dphi + [0.0]
        with pytest.raises(InvalidParameterError, match="^phi and phi_prime must have length 3$"):
            self._mk(phi, dphi)

    def test_nan_fails_the_tolerance_checks(self):
        # phi(0) = 1 holds, and NaN elsewhere must not pass |phi| <= 1
        with pytest.raises(InvalidParameterError, match="exceed 1"):
            EcfGrid(0.1, 1, [np.nan, 1.0, np.nan], np.zeros(3))

    def test_valid_grid(self):
        grid = self._mk([0.5 - 0.1j, 1.0, 0.5 + 0.1j], [0.2j, 1.0j, 0.2j])
        assert grid.half_count == 1
        assert np.allclose(grid.u, [-0.5, 0.0, 0.5])


class TestHistogramCfBounds:
    def test_bound_shapes(self):
        hist = build_histogram(np.array([0.2, 0.9]), 0.5)
        b1, b2 = histogram_cf_bounds(hist, 2.0)
        assert b1 == pytest.approx(0.5 * 0.5 * 2.0)
        assert b2 > 0
        # an array of frequencies gives arrays, each entry the scalar bound
        u = np.array([-2.0, 0.0, 2.0])
        a1, a2 = histogram_cf_bounds(hist, u)
        assert isinstance(a1, np.ndarray) and isinstance(a2, np.ndarray)
        assert a1.tolist() == [b1, 0.0, b1] and a2[[0, 2]].tolist() == [b2, b2]

    def test_bounds_hold_randomized(self):
        # the acceptance suite runs 200 triples; this is a quick spot check
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(20, 300))
            values = rng.gamma(2.0, 1.5, size=n)
            width = float(rng.uniform(0.02, 0.8))
            u = float(rng.uniform(-15.0, 15.0))
            hist = build_histogram(values, width)
            step = abs(u) if u != 0 else 1.0
            grid = ecf_from_histogram(hist, step, 1)
            hist_phi = grid.phi[2] if u >= 0 else grid.phi[0]
            hist_dphi = grid.phi_prime[2] if u >= 0 else grid.phi_prime[0]
            phi, dphi = ecf_direct(values, u)
            b1, b2 = histogram_cf_bounds(hist, u)
            assert abs(hist_phi - phi) <= b1 + 1e-10
            assert abs(hist_dphi - dphi) <= b2 + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        width=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
        u=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    def test_bounds_hold_property(self, values, width, u):
        arr = np.array(values)
        hist = build_histogram(arr, width)
        grid = ecf_from_histogram(hist, u, 1)
        phi, dphi = ecf_direct(arr, u)
        b1, b2 = histogram_cf_bounds(hist, u)
        assert abs(grid.phi[2] - phi) <= b1 + 1e-10
        assert abs(grid.phi_prime[2] - dphi) <= b2 + 1e-10


class TestEcfDeviation:
    def test_structure_and_determinism(self, monkeypatch):
        # one usable CPU runs the runs inline, two run them on a worker pool;
        # the table is the same to the bit
        params = ModelParams(2.0, 1.0, 2.0)
        tables = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            tables.append(
                ecf_deviation(params, Exponential(1.0), (200, 400), runs=3, base_seed=5)
            )
        a, b = tables
        assert [r["n"] for r in a] == [200, 400]
        assert a == b
        assert all(r["se"] >= 0.0 for r in a)

    def test_larger_n_smaller_deviation(self):
        params = ModelParams(2.0, 1.0, 2.0)
        out = ecf_deviation(params, Exponential(1.0), (100, 10_000), runs=5, base_seed=1)
        assert out[1]["mean_sup"] < out[0]["mean_sup"]

    def test_validation(self):
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ecf_deviation(params, PointMass(1.0), (100,), runs=1, base_seed=0)


class TestEcfSupGapKernel:
    """The blocked power-sum kernel against the defining mean of exp(i u x)."""

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.sampled_from(
            [1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 7]
        ),
        # 401 points give 201 frequencies, a ragged 15 x 14 power split
        grid_count=st.sampled_from([3, 5, 17, 161, 401]),
        u_max=st.floats(min_value=0.01, max_value=10.0),
        loc=st.floats(min_value=-5.0, max_value=5.0),
        scale=st.floats(min_value=0.0, max_value=5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_mean(self, size, grid_count, u_max, loc, scale, seed):
        values = loc + scale * np.random.default_rng(seed).standard_normal(size)
        half = (grid_count - 1) // 2
        u_step = u_max / half
        direct, _ = ecf_direct(values, np.arange(half + 1) * u_step)
        # with the direct ECF as the "true" CF the sup gap is the largest
        # kernel error over every grid point
        assert _ecf_sup_gap(values, direct, u_step, half) <= 1e-13

    def test_criterion_5_table_matches_recurrence(self):
        # recorded from `ecf_direct` on the same 50 series per size (seeds
        # derive_seed(505, tier, run)): the sup over the 161 points of
        # linspace(-8, 8, 161) of |direct ECF - true_shot_cf|, then mean and
        # std(ddof=1) / sqrt(50); numpy 2.4 on x86-64
        recorded = [
            (1_000, 0.05390419727335288, 0.0016703355121438451),
            (10_000, 0.016857689646165835, 0.0005674089588492659),
            (100_000, 0.005553120136867271, 0.00019402656900942302),
        ]
        table = ecf_deviation(
            ModelParams(2.0, 1.0, 2.0), Exponential(1.0), (1_000, 10_000, 100_000),
            runs=50, base_seed=505,
        )
        assert [row["n"] for row in table] == [n for n, _, _ in recorded]
        for row, (_, mean_sup, se) in zip(table, recorded):
            assert row["mean_sup"] == pytest.approx(mean_sup, rel=1e-12, abs=0)
            assert row["se"] == pytest.approx(se, rel=1e-12, abs=0)
