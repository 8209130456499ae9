"""Exponential shot-noise simulation and nonparametric mark-density recovery.

The library simulates a stationary shot-noise process driven by a marked
Poisson process, sampled on a regular grid, and recovers the mark density
from those samples by characteristic-function inversion. A Monte-Carlo
harness reproduces the reference error tables, and a CLI exposes the whole
pipeline with reproducible, golden-file-stable outputs.

The package root re-exports the names of the README examples and the three
error classes; everything else is imported from its own module.

Importing the package loads numpy alone. The chirp-z transforms
(Bluestein's algorithm on real phases) run on `numpy.fft`, and scipy is
imported only inside the functions that run its primitives (`lfilter`,
quadrature), so a process pays for it only when it first filters a series
or integrates; one that only estimates never does.
"""

__version__ = "0.1.0"

from .bench import run_table1
from .errors import InvalidParameterError, NumericalFailure, ResourceLimitError
from .estimator import EstimatorConfig, XGrid, estimate_density
from .model import GaussianMixture, ModelParams, normalize
from .simulate import simulate_series

__all__ = [
    "__version__",
    "InvalidParameterError",
    "NumericalFailure",
    "ResourceLimitError",
    "EstimatorConfig",
    "GaussianMixture",
    "ModelParams",
    "XGrid",
    "estimate_density",
    "normalize",
    "run_table1",
    "simulate_series",
]
