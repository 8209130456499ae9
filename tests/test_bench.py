import hashlib
import math
import os

import numpy as np
import pytest

from shotdeconv import simulate
from shotdeconv.bench import (
    _CUTOFF_ANCHORS,
    McReport,
    loglog_slope,
    per_run_errors_to_csv,
    reports_to_csv,
    reports_to_json_obj,
    run_lower_bound_audit,
    run_table1,
    sup_error,
    table_cutoff,
    table_renormalize,
)
from shotdeconv.errors import InvalidParameterError
from shotdeconv.estimator import DensityEstimate
from shotdeconv.model import Exponential, SmoothnessConfig
from shotdeconv.serialize import dumps_json


def _mk_estimate(x, theta):
    return DensityEstimate(np.asarray(x, float), np.asarray(theta, float), {})


class TestTableCutoff:
    def test_monotone_and_clamped(self):
        grid = [10**e for e in np.linspace(3.0, 7.0, 41)]
        values = [table_cutoff(n) for n in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert table_cutoff(1_000) == table_cutoff(10_000)
        assert table_cutoff(10_000_000) == table_cutoff(1_000_000)

    def test_interpolates_between_anchors(self):
        lo, hi = table_cutoff(10_000), table_cutoff(100_000)
        mid = table_cutoff(10**4.5)
        assert min(lo, hi) <= mid <= max(lo, hi)
        assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            table_cutoff(0)

    def test_matches_clamped_piecewise_linear_loop(self):
        # the clamped piecewise-linear rule as a loop; np.interp must match it bit for bit
        def reference(n):
            logn = math.log10(n)
            (lo_x, lo_y), *rest = _CUTOFF_ANCHORS
            if logn <= lo_x:
                return lo_y
            prev_x, prev_y = lo_x, lo_y
            for x, y in rest:
                if logn <= x:
                    t = (logn - prev_x) / (x - prev_x)
                    return prev_y + t * (y - prev_y)
                prev_x, prev_y = x, y
            return prev_y

        rng = np.random.default_rng(11)
        sizes = [1, 300, 400, 10**4, 10**5, 10**6, 10**8]
        sizes += rng.integers(1, 10**8, 2000).tolist() + (10 ** rng.uniform(3, 7, 2000)).tolist()
        assert [table_cutoff(n) for n in sizes] == [reference(n) for n in sizes]


class TestTableRenormalize:
    def test_switches_off_between_first_two_tiers(self):
        assert table_renormalize(10_000) is True
        assert table_renormalize(100_000) is False
        assert table_renormalize(1_000_000) is False

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            table_renormalize(0)


class TestSupError:
    def test_zero_when_exact(self, gamma_marks):
        x = np.linspace(0.0, 10.0, 101)
        est = _mk_estimate(x, gamma_marks.pdf(x))
        assert sup_error(est, gamma_marks) == 0.0

    def test_known_offset(self, gamma_marks):
        x = np.linspace(0.0, 10.0, 101)
        est = _mk_estimate(x, gamma_marks.pdf(x) + 0.05)
        assert sup_error(est, gamma_marks) == pytest.approx(0.05, rel=1e-12)

    def test_boundary_start_allowed(self, gamma_marks):
        # Exponential density is 1 at x=0; a grid starting there still
        # covers the support because there is nothing to the left of it.
        x = np.linspace(0.0, 12.0, 121)
        est = _mk_estimate(x, gamma_marks.pdf(x))
        assert sup_error(est, gamma_marks) == 0.0

    def test_coverage_guard(self, ref_marks):
        # a grid ending at 10 misses the modes at 12 and 22
        x = np.linspace(0.0, 10.0, 101)
        est = _mk_estimate(x, np.zeros_like(x))
        with pytest.raises(InvalidParameterError, match="cover"):
            sup_error(est, ref_marks)


class TestMcReport:
    def test_derived_mean_and_variance(self):
        errors = (0.1, 0.2, 0.3, 0.7)
        report = McReport(100, errors, {}, 1.0)
        mean = math.fsum(errors) / 4
        assert report.runs == 4
        assert report.mean_sup_error == mean
        assert report.variance_sup_error == math.fsum((e - mean) ** 2 for e in errors) / 3
        assert report.per_run_errors == errors

    def test_run_count_checks(self):
        with pytest.raises(InvalidParameterError, match="runs must be an integer >= 2"):
            McReport(100, (0.1,), {}, 1.0)
        with pytest.raises(InvalidParameterError):
            McReport(100, (), {}, 1.0)


class TestLoglogSlope:
    def test_exact_power_law(self):
        n = np.array([1e3, 1e4, 1e5])
        errors = 3.0 * n**-0.5
        slope, half = loglog_slope(n, errors)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert half == pytest.approx(0.0, abs=1e-10)

    def test_two_points_no_half_width(self):
        slope, half = loglog_slope([10, 1000], [1.0, 0.01])
        assert slope == pytest.approx(-1.0, rel=1e-12)
        assert half == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            loglog_slope([10], [1.0])
        with pytest.raises(InvalidParameterError):
            loglog_slope([10, 10], [1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            loglog_slope([10, 100], [0.0, 1.0])


    @pytest.mark.parametrize(
        "n_values, errors",
        [
            ([10, float("inf"), 1000], [1.0, 0.1, 0.01]),
            ([10, float("nan"), 1000], [1.0, 0.1, 0.01]),
            ([10, 100, 1000], [1.0, float("nan"), 0.01]),
            ([10, 100, 1000], [1.0, float("inf"), 0.01]),
        ],
        ids=["inf-n", "nan-n", "nan-error", "inf-error"],
    )
    def test_non_finite_rejected(self, n_values, errors):
        with pytest.raises(InvalidParameterError, match="finite"):
            loglog_slope(n_values, errors)


class TestRunTable1:
    def test_deterministic_and_jobs_invariant(self, gamma_params, gamma_marks):
        kwargs = dict(n_list=(400,), runs=3, base_seed=11)
        a = run_table1(gamma_params, gamma_marks, jobs=1, **kwargs)
        b = run_table1(gamma_params, gamma_marks, jobs=1, **kwargs)
        c = run_table1(gamma_params, gamma_marks, jobs=2, **kwargs)
        assert a[0].per_run_errors == b[0].per_run_errors == c[0].per_run_errors
        assert reports_to_csv(a) == reports_to_csv(c)

    def test_snapshot_and_wall_time(self, gamma_params, gamma_marks):
        reports = run_table1(gamma_params, gamma_marks, n_list=(300,), runs=2, base_seed=1)
        rep = reports[0]
        assert rep.n == 300 and rep.runs == 2
        assert rep.wall_time_seconds > 0
        assert rep.config_snapshot["estimator"] == {
            "cutoff": table_cutoff(300),
            "C": "adaptive",
            "kappa": "theorem",
            "bin_width": "auto",
            "renormalize": table_renormalize(300),
        }
        assert rep.config_snapshot["marks"]["type"] == "exponential"

    def test_csv_digest(self, ref_params, ref_marks):
        # pins table1.csv and table1_runs.csv bit for bit; the two sizes
        # cover both renormalization choices and an interpolated cutoff
        reports = run_table1(ref_params, ref_marks, n_list=(2_000, 40_000), runs=3, base_seed=7)
        text = reports_to_csv(reports) + per_run_errors_to_csv(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5208f03176b0ce78f930b79adef4f330685fb954b96e8162bfcdeeada371d180"
        )

    def test_rejects_single_run(self, gamma_params, gamma_marks):
        with pytest.raises(InvalidParameterError):
            run_table1(gamma_params, gamma_marks, n_list=(100,), runs=1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """`max_workers` of every pool `run_table1` builds; the pools run no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestJobs:
    """`jobs=None` means every CPU this process may use; 1 worker runs inline."""

    KWARGS = dict(n_list=(300, 400), runs=3, base_seed=11)

    def test_default_on_one_cpu_runs_inline(self, gamma_params, gamma_marks, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError(f"pool of {max_workers} built on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        default = run_table1(gamma_params, gamma_marks, **self.KWARGS)
        inline = run_table1(gamma_params, gamma_marks, jobs=1, **self.KWARGS)
        assert reports_to_csv(default) == reports_to_csv(inline)
        assert per_run_errors_to_csv(default) == per_run_errors_to_csv(inline)

    def test_default_on_two_cpus_builds_one_pool_per_tier(
        self, gamma_params, gamma_marks, monkeypatch, pool_sizes
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_table1(gamma_params, gamma_marks, **self.KWARGS)
        assert pool_sizes == [2, 2]

    @pytest.mark.parametrize("count, sizes", [(3, [3, 3]), (None, [])])
    def test_default_without_affinity_uses_cpu_count(
        self, gamma_params, gamma_marks, monkeypatch, pool_sizes, count, sizes
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        run_table1(gamma_params, gamma_marks, **self.KWARGS)
        assert pool_sizes == sizes

    def test_pool_capped_at_task_count(self, gamma_params, gamma_marks, pool_sizes):
        run_table1(gamma_params, gamma_marks, n_list=(300,), runs=2, jobs=10_000)
        assert pool_sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -1, 2.0, True, "2"])
    def test_explicit_jobs_checked(self, gamma_params, gamma_marks, jobs):
        with pytest.raises(InvalidParameterError, match="jobs must be an integer"):
            run_table1(gamma_params, gamma_marks, n_list=(300,), runs=2, jobs=jobs)


class TestLowerBoundAudit:
    def _smoothness(self):
        # brute-force constants for Exponential(1): E|Y|^5 = 120,
        # tail energy sqrt(pi/8 - 1/4) ~ 0.3778
        return SmoothnessConfig(1.0, 121.0, 0.378, 1.0)

    def test_gamma_configuration_passes(self, gamma_params, gamma_marks):
        report = run_lower_bound_audit(gamma_params, gamma_marks, self._smoothness(), seed=4)
        assert report["passed"] is True
        assert report["min_slack"] >= 0.0
        assert report["admissibility"]["admissible"] is True
        assert report["kappa"] > 0.0
        assert report["theorem_cutoff"] > 0.0

    def test_inadmissible_marks_rejected(self, gamma_params, gamma_marks):
        tight = SmoothnessConfig(1.0, 100.0, 0.378, 1.0)  # K below E|Y|^5
        with pytest.raises(InvalidParameterError, match="smoothness"):
            run_lower_bound_audit(gamma_params, gamma_marks, tight, seed=0)


class TestReportWriters:
    def _report(self):
        return McReport(1000, (0.25, 0.5), {"estimator": {"cutoff": 2.0}}, 1.5)

    def test_reports_csv_golden(self):
        text = reports_to_csv([self._report()])
        assert text == "n,runs,mean_sup_error,variance\n1000,2,0.375,0.03125\n"

    def test_per_run_csv_golden(self):
        text = per_run_errors_to_csv([self._report()])
        assert text == "n,run,sup_error\n1000,0,0.25\n1000,1,0.5\n"

    def test_json_obj_structure(self):
        obj = reports_to_json_obj([self._report()])
        assert isinstance(obj, list) and len(obj) == 1
        assert obj[0]["n"] == 1000
        assert obj[0]["mean_sup_error"] == pytest.approx(0.375)
        assert obj[0]["per_run_errors"] == (0.25, 0.5)
        assert "wall_time_seconds" in obj[0]

    def test_json_text_golden(self):
        # table1.json's layout: key order, nesting and number formatting
        snapshot = {"params": {"ratio": 1.25}, "estimator": {"cutoff": 2.0, "C": "adaptive"}}
        report = McReport(1000, (0.25, 0.5), snapshot, 1.5)
        assert dumps_json(reports_to_json_obj([report])) == (
            '[\n'
            '  {\n'
            '    "n": 1000,\n'
            '    "runs": 2,\n'
            '    "mean_sup_error": 0.375,\n'
            '    "variance_sup_error": 0.03125,\n'
            '    "per_run_errors": [\n'
            '      0.25,\n'
            '      0.5\n'
            '    ],\n'
            '    "config_snapshot": {\n'
            '      "params": {\n'
            '        "ratio": 1.25\n'
            '      },\n'
            '      "estimator": {\n'
            '        "cutoff": 2,\n'
            '        "C": "adaptive"\n'
            '      }\n'
            '    },\n'
            '    "wall_time_seconds": 1.5\n'
            '  }\n'
            ']\n'
        )
