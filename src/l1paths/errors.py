"""Exception types shared across the solver suite.

Classes with their own ``__init__`` also define ``__reduce__``, so that
an error pickled by a process-pool worker comes back with the same
message and fields.
"""


class L1PathError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(L1PathError):
    """Invalid configuration value or flag combination."""


class DataError(L1PathError):
    """Malformed or unusable input data."""


class ZeroVarianceError(DataError):
    """A predictor column is constant after centering."""

    def __init__(self, column, name=None):
        self.column = column
        self.name = name
        label = name if name is not None else f"column {column}"
        super().__init__(f"cannot standardize {label}: zero variance after centering")

    def __reduce__(self):
        return type(self), (self.column, self.name)


class EmptyColumnError(DataError):
    """A generated basis column is identically zero."""

    def __init__(self, knot, message):
        self.knot = knot
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.knot, str(self))


class TiedKnotError(DataError):
    """Adjacent knots produce identical basis columns."""


class DegenerateDesignError(L1PathError):
    """A Gram matrix lost positive definiteness (dependent columns)."""

    def __init__(self, column=None, message=None):
        self.column = column
        if message is None:
            where = f" at column {column}" if column is not None else ""
            message = f"design is numerically rank deficient{where}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.column, str(self))


class SolverStallError(L1PathError):
    """An active-set solver exhausted its pivot budget without converging."""


class StepBudgetError(L1PathError):
    """A path solver hit its step budget; the partial path is attached."""

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.path)


class StepSizeError(L1PathError):
    """The path integrator could not decrease the loss even at its floor step."""


class CurvatureError(L1PathError):
    """A second-derivative weight collapsed to zero (saturated loss)."""


class CheckBudgetError(ConfigError):
    """An exhaustive search would exceed its check budget."""


class InternalConsistencyError(L1PathError):
    """The solver state violated an invariant that exact arithmetic guarantees."""
