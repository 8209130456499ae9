"""The two parameter checks every module uses, and the library cases they close."""

import numpy as np
import pytest

from shotdeconv.ecf import build_histogram, ecf_deviation, ecf_from_histogram
from shotdeconv.errors import InvalidParameterError, _check_count, _check_number
from shotdeconv.estimator import (
    EstimatorConfig,
    XGrid,
    hill_ratio,
    theorem_cutoff,
    theorem_threshold,
)
from shotdeconv.model import Exponential, ModelParams, SmoothnessConfig, normalize
from shotdeconv.simulate import derive_seed, simulate_series

NOT_NUMBERS = [None, True, False, "1.5", "abc", [1.0], {"x": 1.0}, 1 + 0j]


class TestCheckNumber:
    @pytest.mark.parametrize("value", [3, 2.5, np.int32(3), np.float32(2.5), np.float64(-1.0)])
    def test_accepts_reals_as_float(self, value):
        out = _check_number(value, "x")
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value", NOT_NUMBERS + [np.bool_(True), float("nan"), float("inf")])
    def test_rejects_non_reals_and_non_finite(self, value):
        with pytest.raises(InvalidParameterError, match="x must be a finite real number"):
            _check_number(value, "x")

    @pytest.mark.parametrize(
        ("bounds", "bad", "text"),
        [
            ({"gt": 0}, 0.0, "> 0"),
            ({"ge": 0}, -1e-300, ">= 0"),
            ({"gt": 0.5}, 0.5, "> 0.5"),
        ],
    )
    def test_message_names_parameter_and_bound(self, bounds, bad, text):
        with pytest.raises(InvalidParameterError) as info:
            _check_number(bad, "cutoff", **bounds)
        assert str(info.value) == f"cutoff must be a finite real number {text}, got {bad!r}"

    def test_bounds_are_inclusive_where_closed(self):
        assert _check_number(0, "x", ge=0) == 0.0


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 7, np.int64(7), np.uint8(7)])
    def test_accepts_integers_as_int(self, value):
        out = _check_count(value, "n")
        assert type(out) is int and out == int(value)

    @pytest.mark.parametrize("value", NOT_NUMBERS + [2.0, 2.5, np.float64(2.0), np.bool_(True)])
    def test_rejects_non_integers(self, value):
        with pytest.raises(InvalidParameterError, match="n must be an integer >= 1"):
            _check_count(value, "n")

    def test_bounds(self):
        with pytest.raises(InvalidParameterError, match=r"k must be an integer in \[1, 4\], got 5"):
            _check_count(5, "k", maximum=4)
        with pytest.raises(InvalidParameterError, match="runs must be an integer >= 2, got 1"):
            _check_count(1, "runs", minimum=2)
        assert _check_count(-5, "l_min", minimum=-5) == -5


class TestLibraryCases:
    """Each used to raise a raw TypeError or to be accepted as another value."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EstimatorConfig(ratio=None, cutoff=1.0),
            lambda: XGrid(0, None, 3),
            lambda: theorem_threshold(1.0, None, 1.0),
            lambda: EstimatorConfig(ratio=True, cutoff=1.0),
            lambda: XGrid(0.0, 0.1, 2.9),
            lambda: ecf_from_histogram(build_histogram(np.arange(10.0), 1.0), 0.1, 3.7),
            lambda: EstimatorConfig(ratio=1.0, cutoff=1.0, renormalize="no"),
            lambda: EstimatorConfig(ratio=1.0, cutoff=1.0, renormalize=1),
            lambda: theorem_threshold(1.0, "0.5", 1.0),
            lambda: theorem_cutoff(1000.0, 1.0, 1.0),
            lambda: hill_ratio(np.arange(1.0, 20.0), k=3.0),
            lambda: normalize("2", 1.0, 1.0),
            lambda: SmoothnessConfig(1.0, 1.0, 1.0, None),
            lambda: derive_seed(1, -1),
        ],
        ids=[
            "config-ratio-None", "xgrid-step-None", "threshold-C-None", "config-ratio-True",
            "xgrid-count-2.9", "half_count-3.7", "renormalize-no", "renormalize-1",
            "C-string", "bandwidth-n-float", "hill-k-float", "normalize-string",
            "smoothness-None", "stream-index-negative",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_ecf_deviation_counts(self):
        params = ModelParams(2.0, 1.0, 2.0)
        marks = Exponential(1.0)
        with pytest.raises(InvalidParameterError):
            ecf_deviation(params, marks, [10], runs=2.0, base_seed=1)
        with pytest.raises(InvalidParameterError):
            ecf_deviation(params, marks, [10.0], runs=2, base_seed=1)

    def test_numpy_values_still_accepted(self):
        grid = XGrid(np.float32(0.0), np.float64(0.5), np.int64(4))
        assert (grid.start, grid.step, grid.count) == (0.0, 0.5, 4)
        assert type(grid.count) is int
        params = ModelParams(2.0, 1.0, 2.0)
        series = simulate_series(params, Exponential(1.0), np.int32(5), seed=np.uint64(3))
        expected = simulate_series(params, Exponential(1.0), 5, seed=3).values
        assert np.array_equal(series.values, expected)
