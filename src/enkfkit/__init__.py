"""Ensemble Kalman filtering with interchangeable analysis solvers.

The analysis system (diag(r) + V V') Z = D can be solved three ways: an
iterative rank-one-update sweep that never forms the observation-space
matrix, a dense Cholesky baseline, and a thin-SVD path in whitened
coordinates. On top sit the filter cycle, two standard test models
(Lorenz-96 and a quasi-geostrophic basin), and a twin-experiment harness
with deterministic seeding.

Importing the package sets the BLAS thread count for the whole process:
every OpenBLAS copy (numpy's and scipy's) runs one thread, and a dense
Cholesky solve of at least 1000 observations runs scipy's copy on two
threads where two CPUs are allowed (see :mod:`enkfkit.threads`), unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set, in which
case every copy is left as that variable made it.
"""

from .enkf import (
    ObservationBatch,
    SelectionOperator,
    analysis_step,
    ensemble_mean,
    forecast_step,
    inflate,
    influence_matrix_cyclic,
    innovations,
    member_deviations,
    perturb_observations,
)
from .errors import (
    ConfigError,
    DivergenceError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    SingularUpdateError,
)
from .experiment import ExperimentConfig, RunManifest, emit_csv, load_config, run_experiment
from .linalg import cholesky_factor, svd_thin, sym_rank_k_update
from .metrics import MetricSeries, elapsed_report, rmse, rse
from .rng import gaussian_matrix, make_rng
from .sherman import SolverResult, long_op_count, solve_sherman
from .solvers import SolverChoice, solve_analysis, solve_cholesky, solve_svd
from . import threads
from .threads import blas_threads, set_blas_threads
from .verify import solve_sherman_recursive

__version__ = "0.1.0"

threads.use_default_budget()

__all__ = [
    "ConfigError",
    "DivergenceError",
    "ExperimentConfig",
    "MetricSeries",
    "NotPositiveDefiniteError",
    "NumericalFailureError",
    "ObservationBatch",
    "RunManifest",
    "SelectionOperator",
    "SingularUpdateError",
    "SolverChoice",
    "SolverResult",
    "analysis_step",
    "blas_threads",
    "cholesky_factor",
    "elapsed_report",
    "emit_csv",
    "ensemble_mean",
    "forecast_step",
    "gaussian_matrix",
    "inflate",
    "influence_matrix_cyclic",
    "innovations",
    "load_config",
    "long_op_count",
    "make_rng",
    "member_deviations",
    "perturb_observations",
    "rmse",
    "rse",
    "run_experiment",
    "set_blas_threads",
    "solve_analysis",
    "solve_cholesky",
    "solve_sherman",
    "solve_sherman_recursive",
    "solve_svd",
    "svd_thin",
    "sym_rank_k_update",
]
