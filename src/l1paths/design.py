"""Datasets, column standardization, and the mirrored two-sided design.

Solvers work in a space of 2p coordinates where column p + j is the
negation of column j; a signed original-space coefficient vector is the
difference of its two halves. The negated columns are virtual: they are
produced on access, so the mirror identity is exact and no extra memory
is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ZeroVarianceError

# A column is constant when its spread (max - min) is at most this fraction
# of its largest |entry|. Relative to the column's own magnitude, so the
# verdict does not depend on the units X is measured in, and exact for
# constant columns of any size, zero included.
ZERO_VARIANCE_RTOL = 1e-12
# The engine forms decay rates from the Gram only when every pivot of the
# Gram's Cholesky factor keeps at least this fraction of its column's squared
# norm (L_kk^2 / G_kk). On near-dependent designs (the sine hinge basis, a
# correlated 45 x 40 Gaussian) Gram-formed rates moved the vertices further
# from an exact replay than X.
GRAM_PIVOT_FLOOR = 1 / 16


@dataclass
class Dataset:
    """Raw predictors X (n rows, p columns) and response y."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        # C order, so that the column sums in ``standardize`` (and with them
        # the path) do not depend on how X was built, e.g. read from CSV.
        self.X = np.ascontiguousarray(np.atleast_2d(self.X), dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]} entries"
            )
        if self.X.size == 0:
            raise DataError("empty design")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise DataError("non-finite values in data")
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise DataError("feature_names length does not match number of columns")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class StandardizedDesign:
    """Column-standardized predictors with the statistics to undo it.

    Columns of ``Xs`` have mean zero and variance one, with variance
    taken over n (not n - 1) so that the squared norm of every column is
    exactly n. The response is centered unless the design was built for
    a loss that needs it raw, in which case ``y_mean`` is zero.

    ``gram`` is X'X of the standardized columns, the one Gram every solver
    reads. ``standardize`` returns ``Xs`` read-only, so that the Gram,
    formed on first use, cannot go stale; ``gram_decays``, decided once
    beside it, says whether the engine's decay rates may come from it too.
    """

    Xs: np.ndarray
    centers: np.ndarray
    scales: np.ndarray
    y_centered: np.ndarray
    y_mean: float
    feature_names: list[str] | None = None

    @property
    def n(self) -> int:
        return self.Xs.shape[0]

    @property
    def p(self) -> int:
        return self.Xs.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only Gram matrix ``Xs.T @ Xs``, formed on first use."""
        gram = self.Xs.T @ self.Xs
        gram.flags.writeable = False
        return gram

    @cached_property
    def gram_decays(self) -> bool:
        """Whether decay rates X'X rho may be formed from ``gram``.

        Only on a tall, well-conditioned design: n >= p + 2, so the path ends
        at the least-squares fit and not at a zero residual, and the Gram has
        a Cholesky factor whose smallest pivot ratio L_kk^2 / G_kk is at least
        GRAM_PIVOT_FLOOR. Decided on first use, at one factorization.
        """
        if self.n < self.p + 2:
            return False
        gram = self.gram
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
        return bool((np.diagonal(L) ** 2 / np.diagonal(gram)).min() >= GRAM_PIVOT_FLOOR)

    def correlations(self, r: np.ndarray) -> np.ndarray:
        """Inner products of every standardized column with r."""
        return self.Xs.T @ r

    def expanded(self) -> "ExpandedDesign":
        return ExpandedDesign(self)

    def name_of(self, j: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[j]
        return f"x{j}"

    def to_original_scale(self, collapsed: np.ndarray) -> tuple[np.ndarray, float]:
        """Map standardized-scale coefficients to the raw-data scale.

        Returns the rescaled coefficients and the implied intercept.
        """
        collapsed = np.asarray(collapsed, dtype=float)
        b = collapsed / self.scales
        intercept = self.y_mean - float(self.centers @ b)
        return b, intercept


def standardize(data: Dataset, center_response: bool = True) -> StandardizedDesign:
    """Standardize the columns of a dataset to mean zero, variance one.

    Raises ZeroVarianceError naming the first constant column (see
    ZERO_VARIANCE_RTOL), and DataError for a column whose mean square
    overflows or is subnormal in double precision (its standardized
    column would be off), or for a nonzero centered response whose sum of
    squares does: the solvers form it, and a subnormal or infinite one
    silently cuts the path short. With ``center_response=False`` the
    response is kept raw (for 0/1 responses used with a classification
    loss).
    """
    X = data.X
    # Near the double range the spread, the centers and the squares overflow
    # (to inf, or nan where inf meets inf); such a column is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        bad = X.max(axis=0) - X.min(axis=0) <= ZERO_VARIANCE_RTOL * np.abs(X).max(axis=0)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            name = data.feature_names[j] if data.feature_names is not None else None
            raise ZeroVarianceError(j, name)
        centers = X.mean(axis=0)
        Xc = X - centers
        mean_squares = (Xc**2).mean(axis=0)
    # A subnormal mean square has lost digits, and Xs with them.
    unscalable = ~((mean_squares >= np.finfo(float).tiny) & (mean_squares < np.inf))
    if np.any(unscalable):
        j = int(np.flatnonzero(unscalable)[0])
        label = data.feature_names[j] if data.feature_names is not None else f"column {j}"
        raise DataError(f"cannot standardize {label}: its variance over- or underflows")
    scales = np.sqrt(mean_squares)
    # A mean that overflows is inf, or nan where partial sums overflow both ways.
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = float(data.y.mean()) if center_response else 0.0
        y_centered = data.y - y_mean
        y_sq = y_centered.dot(y_centered)
    if not np.isfinite(y_mean) or (
            not np.finfo(float).tiny <= y_sq < np.inf and y_centered.any()):
        raise DataError("cannot standardize the response: its sum of squares over- or underflows")
    Xs = Xc / scales
    Xs.flags.writeable = False
    return StandardizedDesign(
        Xs=Xs,
        centers=centers,
        scales=scales,
        y_centered=y_centered,
        y_mean=y_mean,
        feature_names=list(data.feature_names) if data.feature_names else None,
    )


class ExpandedDesign:
    """Virtual [X : -X] view of a standardized design.

    Column a for a < p is the standardized column a; column p + a is its
    exact negation, applied on access. Products with X use ``ndarray.dot``,
    which on a C- or F-ordered X (as ``standardize`` makes it) calls the
    same BLAS routine as ``@`` without the matmul ufunc's dispatch.
    """

    def __init__(self, base: StandardizedDesign):
        self.base = base
        self.p = base.p
        self.p2 = 2 * base.p
        # The base column and the sign of each expanded column.
        self._column = np.tile(np.arange(base.p), 2)
        self._sign = np.repeat([1.0, -1.0], base.p)

    @property
    def n(self) -> int:
        return self.base.n

    def column(self, a: int) -> np.ndarray:
        p = self.p
        if a < p:
            return self.base.Xs[:, a]
        return -self.base.Xs[:, a - p]

    def columns(self, indices) -> np.ndarray:
        """Materialize the signed columns at the given expanded indices."""
        idx = np.asarray(indices, dtype=int)
        p = self.p
        cols = self.base.Xs[:, idx % p].copy()
        cols[:, idx >= p] *= -1.0
        return cols

    def correlations(self, r: np.ndarray) -> np.ndarray:
        """Inner products of all 2p signed columns with r (exact mirror)."""
        c = self.base.Xs.T.dot(r)
        return np.concatenate([c, -c])

    def predict(self, beta: np.ndarray) -> np.ndarray:
        """Fitted values for an expanded coefficient vector."""
        p = self.p
        return self.base.Xs.dot(beta[:p] - beta[p:])

    def decay_rates(self, rho: np.ndarray) -> np.ndarray:
        """X'X rho over all 2p signed columns (exact mirror): the rate at
        which each correlation with the residual falls along the move rho.

        Where the base design's ``gram_decays`` holds, one p x p product with
        its ``gram``, the matrix the directions are solved in: the rates then
        carry the Gram's own rounding, about n eps relative. Elsewhere the
        two n x p products X'(X rho).
        """
        base = self.base
        if base.gram_decays:
            p = self.p
            d = base.gram.dot(rho[:p] - rho[p:])
            return np.concatenate([d, -d])
        return self.correlations(self.predict(rho))

    def gram_entries(self, rows, cols) -> np.ndarray:
        """Inner products of the expanded columns at ``rows`` with those at ``cols``.

        An index array ``rows`` gives the block, rows by cols; a single index
        gives that column's one row. Each entry is the entry of the base
        design's ``gram`` times the signs of its two columns, which is exact.
        """
        column, sign = self._column, self._sign
        cols = np.asarray(cols, dtype=int)
        if isinstance(rows, (int, np.integer)) or np.ndim(rows) == 0:
            row = self.base.gram[column[rows]].take(column[cols])
            row *= sign[cols]
            return -row if sign[rows] < 0.0 else row
        rows = np.asarray(rows, dtype=int)
        return self.base.gram[column[rows][:, None], column[cols]] * (
            sign[rows][:, None] * sign[cols])
