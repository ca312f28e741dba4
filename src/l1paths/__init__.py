"""Coefficient-path solvers for L1-regularized regression.

Exact piecewise-linear paths (least angle regression, the lasso, and
the infinitesimal forward-stagewise / monotone path), epsilon-increment
stagewise fitting for squared error and general convex losses, a
monotonicity analyzer for designs, and the data generators and
diagnostics used to benchmark the solvers against each other.
"""

import importlib

from .design import Dataset, ExpandedDesign, StandardizedDesign, standardize
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
from .linalg import CholeskyFactor, solve_nnls, solve_nnls_gram
from .path import PathEvent, PiecewiseLinearPath, collapse, expand, l1_norm

# The exact-path core above loads with the package. The analysis modules
# load on first use of one of their names (PEP 562), so that a process
# which only solves or certifies a path does not import them.
_LAZY_MODULES = {
    "diagnostics": (
        "Curve",
        "PathComparison",
        "compare_paths",
        "holdout_mse",
        "rss_at_index",
        "rss_profile",
    ),
    "losses": ("LossModel", "logistic_loss", "squared_error_loss"),
    "monotone": (
        "ConditionReport",
        "SearchReport",
        "SignedSubset",
        "check_condition",
        "exhaustive_check",
        "pc_gram",
        "pc_inverse_gram",
    ),
    "simulate": (
        "BlockSpec",
        "analytic_noise_to_signal",
        "gen_block",
        "gen_sine",
        "signal",
        "spline_columns",
    ),
    "stagewise": (
        "StagewiseConfig",
        "StepControl",
        "fs_epsilon",
        "glm_move_direction",
        "integrate_monotone_path",
        "monotone_incremental",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    """Load a lazy name's module (or a lazy module itself) and cache the value."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


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
    "exhaustive_check",
    "expand",
    "fs_epsilon",
    "gen_block",
    "gen_sine",
    "glm_move_direction",
    "holdout_mse",
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
    "solve_nnls",
    "solve_nnls_gram",
    "solve_path",
    "spline_columns",
    "squared_error_loss",
    "standardize",
    "integrate_monotone_path",
]
