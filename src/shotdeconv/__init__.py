"""Exponential shot-noise simulation and nonparametric mark-density recovery.

The library simulates a stationary shot-noise process driven by a marked
Poisson process, sampled on a regular grid, and recovers the mark density
from those samples by characteristic-function inversion. A Monte-Carlo
harness reproduces the reference error tables, and a CLI exposes the whole
pipeline with reproducible, golden-file-stable outputs.
"""

__version__ = "0.1.0"

from .bench import (
    McReport,
    loglog_slope,
    run_lower_bound_audit,
    run_rate_check,
    run_table1,
    sup_error,
    table_cutoff,
    table_renormalize,
)
from .ecf import (
    EcfGrid,
    Histogram,
    build_histogram,
    ecf_deviation,
    ecf_direct,
    ecf_from_histogram,
    histogram_cf_bounds,
)
from .errors import InvalidParameterError, NumericalFailure, ResourceLimitError
from .estimator import (
    DensityEstimate,
    EstimatorConfig,
    XGrid,
    adaptive_C,
    estimate_density,
    hill_ratio,
    invert_density,
    mark_cf_estimate,
    theorem_bandwidth,
    theorem_cutoff,
    theorem_threshold,
)
from .model import (
    Exponential,
    GaussianMixture,
    MarkDistribution,
    ModelParams,
    PointMass,
    SmoothnessConfig,
    cf_lower_bound,
    check_smoothness,
    mark_cf_tail_energy,
    mark_sobolev_norm,
    marks_from_json,
    marks_to_json,
    model_from_json,
    model_to_json,
    normalize,
    true_shot_cf,
)
from .simulate import (
    MarkedEventTrace,
    SampleSeries,
    default_burn_in,
    derive_seed,
    sample_innovation,
    simulate_series,
    simulate_trace,
)

__all__ = [
    "__version__",
    "InvalidParameterError",
    "NumericalFailure",
    "ResourceLimitError",
    "ModelParams",
    "GaussianMixture",
    "Exponential",
    "PointMass",
    "MarkDistribution",
    "SmoothnessConfig",
    "normalize",
    "true_shot_cf",
    "cf_lower_bound",
    "mark_sobolev_norm",
    "mark_cf_tail_energy",
    "check_smoothness",
    "marks_to_json",
    "marks_from_json",
    "model_to_json",
    "model_from_json",
    "SampleSeries",
    "MarkedEventTrace",
    "sample_innovation",
    "simulate_series",
    "simulate_trace",
    "default_burn_in",
    "derive_seed",
    "Histogram",
    "EcfGrid",
    "build_histogram",
    "ecf_direct",
    "ecf_from_histogram",
    "histogram_cf_bounds",
    "ecf_deviation",
    "XGrid",
    "EstimatorConfig",
    "DensityEstimate",
    "theorem_bandwidth",
    "theorem_cutoff",
    "theorem_threshold",
    "adaptive_C",
    "mark_cf_estimate",
    "invert_density",
    "estimate_density",
    "hill_ratio",
    "McReport",
    "sup_error",
    "table_cutoff",
    "table_renormalize",
    "run_table1",
    "loglog_slope",
    "run_rate_check",
    "run_lower_bound_audit",
]
