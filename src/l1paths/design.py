"""Datasets, column standardization, and the mirrored two-sided design.

Solvers work in a space of 2p coordinates where column p + j is the
negation of column j; a signed original-space coefficient vector is the
difference of its two halves. The negated columns are virtual: they are
produced on access, so the mirror identity is exact and no extra memory
is spent.
"""

from __future__ import annotations

import math
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
# correlated 45 x 40 Gaussian) Gram-formed rates, even corrected for the
# Gram's rounding, moved the vertices further from an exact replay than X.
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
    beside it, says whether the engine's decay rates may come from it, and
    ``gram_rounding`` holds what its rounding left out.
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

    @cached_property
    def gram_rounding(self) -> np.ndarray:
        """X'X - ``gram``, the rounding error of the stored Gram, formed on
        first use with an error about 2^-k of its own size.

        Each column is scaled by a power of two to |x| < 1 and cut into a
        head on a fixed grid of 2^-k and an exact tail, with 2k bits plus
        log2(n) at most 53 (k = 21 at n = 600): every partial sum of head
        products is then a double, so BLAS forms the heads' Gram exactly in
        any order (Ozaki et al. 2012). The products with the tail are 2^-k
        smaller, so their rounding is too.
        """
        X, n = self.Xs, self.n
        k = (53 - math.ceil(math.log2(n))) // 2
        scale = np.ldexp(1.0, np.frexp(np.abs(X).max(axis=0))[1])
        tail = X / scale
        grid = 1.5 * 2.0 ** (52 - k)  # adding and removing it rounds to 2^-k
        head = tail + grid
        head -= grid
        tail -= head
        pairs = np.outer(scale, scale)
        rounding = head.T @ head - self.gram / pairs
        # The rest of X'X is A + A' with A = tail'(head + tail / 2), whose
        # rounding is 2^-k below that of X'X; formed in place, as twice
        # (tail / 2)'(head + tail / 2), to hold two n x p arrays at most.
        tail *= 0.5
        head += tail
        half = tail.T @ head
        rounding += 2.0 * (half + half.T)
        rounding *= pairs
        rounding.flags.writeable = False
        return rounding

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
    ZERO_VARIANCE_RTOL), and DataError for a column whose standard
    deviation over- or underflows in double precision. With
    ``center_response=False`` the response is kept raw (for 0/1
    responses used with a classification loss).
    """
    X = data.X
    bad = X.max(axis=0) - X.min(axis=0) <= ZERO_VARIANCE_RTOL * np.abs(X).max(axis=0)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        name = data.feature_names[j] if data.feature_names is not None else None
        raise ZeroVarianceError(j, name)
    centers = X.mean(axis=0)
    Xc = X - centers
    with np.errstate(over="ignore"):
        scales = np.sqrt((Xc**2).mean(axis=0))
    unscalable = ~(np.isfinite(scales) & (scales > 0))
    if np.any(unscalable):
        j = int(np.flatnonzero(unscalable)[0])
        label = data.feature_names[j] if data.feature_names is not None else f"column {j}"
        raise DataError(f"cannot standardize {label}: its variance over- or underflows")
    if center_response:
        y_mean = float(data.y.mean())
    else:
        y_mean = 0.0
    Xs = Xc / scales
    Xs.flags.writeable = False
    return StandardizedDesign(
        Xs=Xs,
        centers=centers,
        scales=scales,
        y_centered=data.y - y_mean,
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

        Where the base design's ``gram_decays`` holds, two p x p products:
        its ``gram`` and, so that the Gram's rounding does not move the path,
        its ``gram_rounding``. Elsewhere the two n x p products X'(X rho).
        """
        base = self.base
        if base.gram_decays:
            p = self.p
            move = rho[:p] - rho[p:]
            d = base.gram.dot(move)
            d += base.gram_rounding.dot(move)
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
