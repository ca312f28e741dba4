"""Dense least-squares kernels, all in Gram space (G = A.T A, c = A.T b), in numpy.

One factor serves every solve: ``CholeskyFactor`` keeps L with L L^T = G,
its inverse T = L^-1 and G itself, for columns that join one at a time.
An append is one matvec with T plus a new row of L, of T and of G,
written into buffers with room to grow that the factors of one growing
column sequence share (``_Rows``), with its pivot arithmetic on Python
floats; the Gram solve is two matvecs with T.
Vector products use ``ndarray.dot``, the same BLAS call as ``@`` without
the ufunc dispatch that costs about a microsecond at these sizes. A drop keeps
the leading block of L and T (the columns before the first one dropped)
and refactors the survivors after it from their Schur complement
``G33 - L31 L31^T``: G33 is read from the kept G and L31 from their rows
of L, so the refactor is one ``np.linalg.cholesky`` and one
``np.linalg.inv`` of the new triangular tail, and several drops cost one
refactor. Lawson-Hanson non-negative least squares runs on such a factor
and can continue from the one its last call left. One relative pivot
rule, ``_independent`` with ``PIVOT_RTOL``, makes every rank decision: an
append raises, NNLS skips the column. Forming G squares the condition
number of A. Factors are immutable; update operations return new factors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDesignError, SolverStallError

# Relative pivot threshold: a new diagonal below this fraction of the
# largest Gram diagonal means the column is dependent on the others.
PIVOT_RTOL = 1e-12
# NNLS dual feasibility: a variable may enter while its dual exceeds this
# fraction of max|c|, c the correlations A.T b.
NNLS_DUAL_RTOL = 1e-10
# NNLS line-move floor: a passive coefficient a line move leaves at or below
# this fraction of the largest coefficient after the move is set to zero.
NNLS_FLOOR_RTOL = 1e-14
# NNLS support changes allowed per variable before SolverStallError.
NNLS_PIVOT_BUDGET = 10


def _independent(d2, max_diag):
    """The pivot rule: a new diagonal ``d2`` is kept when it is finite and
    exceeds ``PIVOT_RTOL`` times the largest Gram diagonal ``max_diag``.

    Takes floats or arrays. A NaN ``d2`` fails both comparisons, +inf the
    second and -inf the first."""
    return (d2 > PIVOT_RTOL * max_diag) & (d2 < math.inf)


# Appends that fit in new factor buffers beyond the one that made them. fs0
# on wide designs drops a column about every segment and each drop starts
# new buffers, so more room is zeroed for nothing: on the 60 x 1000 block
# design, buffers of doubling size made an fs0 segment about 15% slower.
_ROOM = 8


class _Rows:
    """Square buffers that factors grown one column at a time share.

    A factor of size k is the leading k by k block of L, T and G. Only the
    factor of size ``size`` writes the next row; any other factor on the
    buffers copies them before it appends, so a factor's block never changes.
    """

    __slots__ = ("L", "T", "G", "views", "size")

    def __init__(self, factor: "CholeskyFactor"):
        k = factor.size
        capacity = k + 1 + _ROOM
        self.L, self.T, self.G = (np.zeros((capacity, capacity)) for _ in range(3))
        self.L[:k, :k], self.T[:k, :k], self.G[:k, :k] = factor._L, factor._T, factor._G
        # Read-only views, whose blocks the factors on the buffers hold.
        self.views = tuple(_frozen(M.view()) for M in (self.L, self.T, self.G))
        self.size = k


def _frozen(M):
    M.setflags(write=False)
    return M


class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to a Gram block G.

    The factor keeps T = L^-1 and G beside L, and tracks the largest Gram
    diagonal it has seen so that the rank check stays relative to the
    scale of the problem. G is kept for drops: ``drop_columns`` keeps L and
    T up to the first dropped column and refactors the survivors after it
    from their block of G less the part their rows of L already account for.
    An append writes one row into buffers with room to grow (``_Rows``).
    """

    __slots__ = ("_L", "_T", "_G", "_max_diag", "_rows")

    def __init__(self, L: np.ndarray, T: np.ndarray, G: np.ndarray, max_diag: float,
                 rows: _Rows | None = None):
        """L, T and G are read-only; ``rows`` holds them when an append made them."""
        self._L, self._T, self._G = L, T, G
        self._max_diag = float(max_diag)
        self._rows = rows

    @classmethod
    def empty(cls) -> "CholeskyFactor":
        return cls(*(_frozen(np.zeros((0, 0))) for _ in range(3)), 0.0)

    @classmethod
    def from_gram(cls, gram: np.ndarray) -> "CholeskyFactor":
        """Factor a full Gram matrix by appending one column at a time."""
        gram = np.asarray(gram, dtype=float)
        factor = cls.empty()
        for j in range(gram.shape[0]):
            factor = factor.append_column(gram[: j + 1, j])
        return factor

    @property
    def size(self) -> int:
        return self._L.shape[0]

    @property
    def L(self) -> np.ndarray:
        return self._L

    @property
    def T(self) -> np.ndarray:
        """The inverse factor L^-1."""
        return self._T

    def gram(self) -> np.ndarray:
        """Reconstruct the Gram matrix this factor represents."""
        return self._L @ self._L.T

    def append_column(self, gram_row: np.ndarray) -> "CholeskyFactor":
        """Return the factor of the Gram augmented with one column.

        ``gram_row`` holds the inner products of the new column with the
        existing ones, followed by the new column's squared norm. A row with
        a NaN or infinite entry is refused before any product with it.
        """
        gram_row = np.asarray(gram_row, dtype=float)
        k = self.size
        if gram_row.shape != (k + 1,):
            raise ValueError(f"expected gram row of length {k + 1}, got {gram_row.shape}")
        if np.count_nonzero(np.isfinite(gram_row)) <= k:  # a NaN or infinite entry
            raise DegenerateDesignError(column=k)
        g, diag = gram_row[:k], float(gram_row[k])
        max_diag = max(self._max_diag, diag)
        w = self._T.dot(g)
        d2 = diag - float(w.dot(w))
        # The rule admits only d2 > 0 (max_diag is never negative), so the
        # square root and the divisions below are of a positive pivot.
        if not _independent(d2, max_diag):
            raise DegenerateDesignError(column=k)
        pivot = math.sqrt(d2)
        rows = self._rows
        if rows is None or rows.size != k or k == rows.L.shape[0]:
            rows = _Rows(self)
        L, T, G = rows.L, rows.T, rows.G
        L[k, :k] = w
        L[k, k] = pivot
        T[k, :k] = w.dot(self._T) / -pivot
        T[k, k] = 1.0 / pivot
        G[k, :k] = G[:k, k] = g
        G[k, k] = diag
        rows.size = k = k + 1
        L, T, G = rows.views
        return CholeskyFactor(L[:k, :k], T[:k, :k], G[:k, :k], max_diag, rows)

    def drop_column(self, index: int) -> "CholeskyFactor":
        """Return the factor of the Gram with one variable removed."""
        return self.drop_columns([index])

    def drop_columns(self, indices) -> "CholeskyFactor":
        """Return the factor of the Gram with the variables at ``indices`` removed.

        The block before the first dropped column stays. The survivors
        after it are refactored from their Schur complement
        ``G33 - L31 L31^T``, which their Gram block ``G33`` and their rows
        ``L31`` of the kept block give without the dropped columns.
        """
        k = self.size
        indices = np.asarray(indices, dtype=int)
        if indices.size and not (0 <= indices.min() and indices.max() < k):
            raise IndexError(indices)
        keep = np.ones(k, dtype=bool)
        keep[indices] = False
        kept = np.flatnonzero(keep)
        first = int(indices.min()) if indices.size else k
        G = _frozen(self._G.take(kept, 0).take(kept, 1))
        if first == kept.size:
            return CholeskyFactor(self._L[:first, :first], self._T[:first, :first], G,
                                  self._max_diag)
        L = self._L.take(kept, 0).take(kept, 1)  # its last block is replaced below
        L31 = L[first:, :first]
        try:
            L33 = np.linalg.cholesky(G[first:, first:] - L31 @ L31.T)
        except np.linalg.LinAlgError:
            raise DegenerateDesignError(column=int(kept[first])) from None
        # Inverting the upper triangular L33^T needs no row exchange, so the
        # inverse is exactly triangular.
        T33 = np.linalg.inv(L33.T).T
        L[first:, first:] = L33
        T = np.zeros_like(L)
        T[:first, :first] = T11 = self._T[:first, :first]
        T[first:, :first], T[first:, first:] = -T33 @ (L31 @ T11), T33
        return CholeskyFactor(_frozen(L), _frozen(T), G, self._max_diag)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs for a vector rhs: x = T^T (T rhs)."""
        return self._T.dot(rhs).dot(self._T)


def append_columns(gram, factor: CholeskyFactor, labels, entering):
    """Append each label in ``entering``, in order, to ``factor`` of ``labels``.

    ``gram(row, cols)`` gives a label's Gram row against a label array, as
    in ``nnls_continue``. A label that the pivot rule finds in the span of
    the labels before it is refused. Returns the new factor, its labels (an
    index array) and the list of refused labels.
    """
    refused = []
    for j in entering:
        with_j = np.concatenate([labels, [j]])
        try:
            factor = factor.append_column(gram(j, with_j))
        except DegenerateDesignError:
            refused.append(j)
            continue
        labels = with_j
    return factor, labels, refused


def nnls_continue(gram, c: np.ndarray, variables, factor: CholeskyFactor, passive, entering=()):
    """Lawson-Hanson non-negative least squares on a kept Cholesky factor.

    Variables are named by integer labels: ``gram(rows, cols)`` returns the
    Gram block between two label arrays (one row for a single row label),
    and ``c`` is indexed by label.
    ``factor`` is the factor of ``gram(passive, passive)`` in the order of
    ``passive``; each label in ``entering`` is appended to it unless it
    depends on the passive set P (FNNLS, Bro & De Jong). Refit on P with
    one Gram solve; while some coefficient is not positive, a line move
    toward the refit drops what it drives to zero, all of one move's
    drops in one ``drop_columns``. The first move starts from the fit on
    P before ``entering`` where that is positive, else from zero, which
    drops every non-positive coefficient at once. Then the largest dual
    ``c - G theta`` of a variable outside P above NNLS_DUAL_RTOL times
    max|c| over the variables enters P by ``append_column``, so scaling c
    leaves every decision unchanged; a candidate failing the pivot rule
    depends on P and is skipped for that iteration (Lawson-Hanson step 6).
    More than NNLS_PIVOT_BUDGET support changes per variable raise
    SolverStallError.

    Returns theta on the passive set, its factor and the passive labels
    (an index array, in factor order).
    """
    variables = np.asarray(variables, dtype=int)
    passive = np.asarray(passive, dtype=int)
    kept_factor, kept = factor, passive
    factor, passive, _ = append_columns(gram, factor, passive, entering)
    pivot_cap = NNLS_PIVOT_BUDGET * variables.size
    x = tol = None
    pivots = 0
    while True:
        while passive.size:  # refit on P; line moves shed non-positive entries
            if pivots > pivot_cap:
                raise SolverStallError(
                    f"non-negative least squares stalled after {pivots - 1} pivots"
                )
            sub = factor.solve_gram(c[passive])
            if sub[sub.argmin()] > 0.0:
                break
            if x is None:  # start from the fit on the passive set before ``entering``
                x = np.zeros(passive.size)
                fit = kept_factor.solve_gram(c[kept])
                if kept.size and fit.min() > 0.0:
                    x[: kept.size] = fit
            mask = sub <= 0.0
            gap = x - sub
            ratios = np.divide(x, gap, out=np.full(sub.size, np.inf), where=mask)
            hit = int(np.argmin(ratios))
            x_new = x - ratios[hit] * gap
            drop = mask & (x_new <= NNLS_FLOOR_RTOL * max(np.max(np.abs(x_new)), 1e-300))
            drop[hit] = True
            pivots += int(drop.sum())
            factor = factor.drop_columns(drop.nonzero()[0])
            passive, x = passive[~drop], x_new[~drop]
        else:
            sub = np.zeros(0)
        if passive.size == variables.size:
            return sub, factor, passive
        if tol is None:
            tol = NNLS_DUAL_RTOL * float(np.max(np.abs(c[variables]), initial=0.0))
        free = np.ones(c.shape[0], dtype=bool)  # labels outside P
        free[passive] = False
        others = variables[free[variables]]
        cross = gram(others, passive)
        w = c[others] - cross.dot(sub)
        while True:
            i = int(np.argmax(w))
            if not w[i] > tol:
                return sub, factor, passive
            j = others[i]
            try:
                factor = factor.append_column(np.append(cross[i], gram(j, j)))
            except DegenerateDesignError:
                w[i] = -np.inf  # j depends on P: skipped (Lawson-Hanson step 6)
                continue
            break
        passive, x = np.concatenate([passive, [j]]), np.concatenate([sub, [0.0]])
        pivots += 1


def solve_nnls_gram(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0, given G = A.T A, c = A.T b.

    ``nnls_continue`` from an empty factor.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    theta, _, passive = nnls_continue(
        lambda rows, cols: G[np.asarray(rows)[..., None], cols], c, np.arange(n),
        CholeskyFactor.empty(), (),
    )
    x = np.zeros(n)
    x[passive] = theta
    return x


def solve_nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0 (rank-deficient A is fine).

    ``solve_nnls_gram`` on ``A.T A`` and ``A.T b``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return solve_nnls_gram(A.T @ A, A.T @ b)
