"""Coefficient-path solvers for L1-regularized regression.

Exact piecewise-linear paths (least angle regression, the lasso, and
the infinitesimal forward-stagewise / monotone path), epsilon-increment
stagewise fitting for squared error and general convex losses, a
monotonicity analyzer for designs, and the data generators and
diagnostics used to benchmark the solvers against each other.
"""

from .design import Dataset, ExpandedDesign, StandardizedDesign, standardize
from .diagnostics import (
    Curve,
    PathComparison,
    compare_paths,
    ell_at_index,
    holdout_mse,
    index_values,
    rss_at_index,
    rss_profile,
)
from .errors import (
    CheckBudgetError,
    ConfigError,
    CurvatureError,
    DataError,
    DegenerateDesignError,
    EmptyColumnError,
    InternalConsistencyError,
    L1PathError,
    SolverStallError,
    StepBudgetError,
    StepSizeError,
    TiedKnotError,
    ZeroVarianceError,
)
from .lars import (
    KKTReport,
    MoveDirection,
    SolverConfig,
    kkt_certify,
    lasso_move_direction,
    monotone_move_direction,
    next_event,
    solve_path,
)
from .linalg import CholeskyFactor, solve_least_squares, solve_nnls, solve_nnls_gram
from .losses import LossModel, logistic_loss, squared_error_loss
from .monotone import (
    ConditionReport,
    SearchReport,
    SignedSubset,
    check_condition,
    exhaustive_check,
    pc_gram,
    pc_inverse_gram,
)
from .path import PathEvent, PiecewiseLinearPath, collapse, expand, l1_norm
from .simulate import (
    BlockSpec,
    SineSpec,
    analytic_noise_to_signal,
    gen_block,
    gen_sine,
    signal,
    spline_columns,
)
from .stagewise import (
    StagewiseConfig,
    StepControl,
    fs_epsilon,
    glm_move_direction,
    integrate_monotone_path,
    monotone_incremental,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "CheckBudgetError",
    "CholeskyFactor",
    "ConditionReport",
    "ConfigError",
    "Curve",
    "CurvatureError",
    "DataError",
    "Dataset",
    "DegenerateDesignError",
    "EmptyColumnError",
    "ExpandedDesign",
    "InternalConsistencyError",
    "KKTReport",
    "L1PathError",
    "LossModel",
    "MoveDirection",
    "PathComparison",
    "PathEvent",
    "PiecewiseLinearPath",
    "SearchReport",
    "SignedSubset",
    "SineSpec",
    "SolverConfig",
    "SolverStallError",
    "StagewiseConfig",
    "StandardizedDesign",
    "StepBudgetError",
    "StepControl",
    "StepSizeError",
    "TiedKnotError",
    "ZeroVarianceError",
    "analytic_noise_to_signal",
    "check_condition",
    "collapse",
    "compare_paths",
    "ell_at_index",
    "exhaustive_check",
    "expand",
    "fs_epsilon",
    "gen_block",
    "gen_sine",
    "glm_move_direction",
    "holdout_mse",
    "index_values",
    "kkt_certify",
    "l1_norm",
    "lasso_move_direction",
    "logistic_loss",
    "monotone_incremental",
    "monotone_move_direction",
    "next_event",
    "pc_gram",
    "pc_inverse_gram",
    "rss_at_index",
    "rss_profile",
    "signal",
    "solve_least_squares",
    "solve_nnls",
    "solve_nnls_gram",
    "solve_path",
    "spline_columns",
    "squared_error_loss",
    "standardize",
    "integrate_monotone_path",
]
