"""Dense least-squares kernels, all in Gram space (G = A.T A, c = A.T b), in numpy.

One factor serves every solve: ``CholeskyFactor`` keeps only the inverse
factor T = L^-1 of the Cholesky factor L of G (L L^T = G), for columns
that join one at a time. An append is one matvec with T plus a new row
of T, written into a buffer with room to grow that the factors of one
growing column sequence share (``_Rows``), with its pivot arithmetic on
Python floats; the Gram solve is two matvecs with T.
Vector products use ``ndarray.dot``, the same BLAS call as ``@`` without
the ufunc dispatch that costs about a microsecond at these sizes. A drop
keeps the rows of T before the dropped position and updates the rows
after it in closed form: removing a column turns the trailing block of
L into L33 K with K K^T = I + a a^T, so their rows of T are multiplied
by K^-1, which is a diagonal less a strictly lower rank-one part and is
applied with two cumulative sums and no LAPACK call (Gill, Golub, Murray
& Saunders 1974). Several drops run one at a time, highest position
first. The update keeps the absolute rounding of the rows it updates, so
when they shrink by more than ``DROP_SHRINK_MAX`` (the dropped column was
near the span of the others and its successors' rows carried its small
pivot) the rows after the first dropped position are refactored from
their Schur complement instead, from the kept Gram block that the
caller supplies. Lawson-Hanson non-negative least squares runs on such a
factor and can continue from the one its last call left. One relative
pivot rule, ``_independent`` with ``PIVOT_RTOL``, makes every rank
decision: an append raises, NNLS skips the column. Forming G squares
the condition number of A. Factors are immutable; update operations
return new factors.
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
# A drop whose updated rows of T have a largest entry more than this many
# times smaller than the rows they came from refactors them instead. On
# random drops from near-collinear factors, solves after an update within
# this bound stayed within 2.8 eps cond of the kept Gram; beyond it,
# updates reached 1e5 eps cond, where a refactor stays within 2.
DROP_SHRINK_MAX = 16.0


def _independent(d2, max_diag):
    """The pivot rule: a new diagonal ``d2`` is kept when it is finite and
    exceeds ``PIVOT_RTOL`` times the largest Gram diagonal ``max_diag``.

    Takes floats or arrays. A NaN ``d2`` fails both comparisons, +inf the
    second and -inf the first."""
    return (d2 > PIVOT_RTOL * max_diag) & (d2 < math.inf)


# Appends that fit in a new factor buffer beyond the one that made it. fs0
# on wide designs drops a column about every segment and each drop starts
# a new buffer, so more room is zeroed for nothing: on the 60 x 1000 block
# design, buffers of doubling size made an fs0 segment about 15% slower.
_ROOM = 8


class _Rows:
    """A square buffer of T that factors grown one column at a time share.

    A factor of size k is the leading k by k block of T. Only the factor
    of size ``size`` writes the next row; any other factor on the buffer
    copies it before it appends, so a factor's block never changes.
    """

    __slots__ = ("T", "view", "size")

    def __init__(self, T: np.ndarray):
        k = T.shape[0]
        capacity = k + 1 + _ROOM
        self.T = np.zeros((capacity, capacity))
        self.T[:k, :k] = T
        self.view = _frozen(self.T.view())  # read-only; the factors hold its blocks
        self.size = k


def _frozen(M):
    M.setflags(write=False)
    return M


def _drop_position(T: np.ndarray, q: int) -> np.ndarray:
    """The inverse factor of the Gram of T = L^-1 without position q.

    With a = -T[q+1:, q] / T[q, q], which equals T33 L[q+1:, q], the
    survivors' trailing factor is L33 K with K K^T = I + a a^T. For
    sigma_0 = 1, sigma_i = sigma_{i-1} + a_i^2 and
    b_i = a_i / sqrt(sigma_i sigma_{i-1}),
    K^-1 = diag(sqrt(sigma_{i-1} / sigma_i)) - tril(b a^T, -1) and
    K^-1 a = b, so the rows R of T after q become K^-1 R + b T[q], which is
    zero in column q. Row i is sqrt(sigma_{i-1} / sigma_i) R_i less b_i
    times the sum of a_j R_j over j < i and of -T[q]: a cumulative sum
    over the rows of T from q on, with weights -T[q:, q] / T[q, q] (the
    first is -1, so the same weights squared sum to sigma). Rows before q
    are kept. Every entry above the diagonal is a sum of exact zeros, so
    the result is exactly lower triangular, and its diagonal is positive.
    """
    k = T.shape[0]
    out = np.zeros((k - 1, k - 1))
    out[:q, :q] = T[:q, :q]
    if q == k - 1:
        return out
    weights = T[q:, q] / -T[q, q]
    sigma = (weights * weights).cumsum()
    b = weights[1:] / np.sqrt(sigma[:-1] * sigma[1:])
    above = (weights[:-1, None] * T[q:-1]).cumsum(0)
    R = T[q + 1:] * np.sqrt(sigma[:-1] / sigma[1:])[:, None] - b[:, None] * above
    out[q:, :q] = R[:, :q]
    out[q:, q:] = R[:, q + 1:]
    return out


class CholeskyFactor:
    """The inverse T = L^-1 of a lower-triangular L with L @ L.T equal to a Gram block.

    The factor tracks the largest Gram diagonal it has seen, so that the
    rank check stays relative to the scale of the problem. An append
    writes one row of T into a buffer with room to grow (``_Rows``); a
    drop updates the rows of T after the dropped position in closed form
    (``_drop_position``), or refactors them from the Gram when the update
    would lose accuracy.
    """

    __slots__ = ("_T", "_max_diag", "_rows")

    def __init__(self, T: np.ndarray, max_diag: float, rows: _Rows | None = None):
        """T is read-only; ``rows`` holds it when an append made it."""
        self._T = T
        self._max_diag = float(max_diag)
        self._rows = rows

    @classmethod
    def empty(cls) -> "CholeskyFactor":
        return cls(_frozen(np.zeros((0, 0))), 0.0)

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
        return self._T.shape[0]

    @property
    def T(self) -> np.ndarray:
        """The inverse factor L^-1."""
        return self._T

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
        if rows is None or rows.size != k or k == rows.T.shape[0]:
            rows = _Rows(self._T)
        T = rows.T
        T[k, :k] = w.dot(self._T) / -pivot
        T[k, k] = 1.0 / pivot
        rows.size = k = k + 1
        return CholeskyFactor(rows.view[:k, :k], max_diag, rows)

    def drop_column(self, index: int, gram) -> "CholeskyFactor":
        """Return the factor of the Gram with one variable removed."""
        return self.drop_columns([index], gram)

    def drop_columns(self, indices, gram) -> "CholeskyFactor":
        """Return the factor of the Gram with the variables at ``indices`` removed.

        ``gram(rows, cols)`` gives the Gram block between the factor's
        positions ``rows`` and ``cols`` (index arrays, positions before the
        drop). Each position is removed by ``_drop_position``, the highest
        first, so the positions still to go keep their indices. The updated
        rows keep the absolute rounding of the rows of T after the first
        dropped position; when their largest entry is more than
        ``DROP_SHRINK_MAX`` times smaller than those rows', the survivors
        after that position are refactored from their Schur complement
        ``G33 - L31 L31^T`` instead, with L31 = G31 T11^T from the kept
        block. This raises ``DegenerateDesignError`` when the complement's
        Cholesky factorization fails.
        """
        k = self.size
        positions = sorted(set(np.asarray(indices, dtype=int).tolist()), reverse=True)
        if positions and (positions[-1] < 0 or positions[0] >= k):
            raise IndexError(indices)
        T = self._T
        for q in positions:
            T = _drop_position(T, q)
        first = positions[-1] if positions else k
        if first < T.shape[0] and not (
                np.abs(self._T[first + 1:]).max() <= DROP_SHRINK_MAX * np.abs(T[first:]).max()):
            return self._refactor(positions, gram)
        return CholeskyFactor(_frozen(T), self._max_diag)

    def _refactor(self, positions, gram) -> "CholeskyFactor":
        """The factor without ``positions``, its rows after the first of
        them refactored from the Gram (see ``drop_columns``)."""
        first = positions[-1]
        kept = np.delete(np.arange(self.size), positions)
        G3 = gram(kept[first:], kept)
        T11 = self._T[:first, :first]
        L31 = G3[:, :first].dot(T11.T)
        try:
            L33 = np.linalg.cholesky(G3[:, first:] - L31.dot(L31.T))
        except np.linalg.LinAlgError:
            raise DegenerateDesignError(column=int(kept[first])) from None
        # Inverting the upper triangular L33^T needs no row exchange, so the
        # inverse is exactly triangular.
        T33 = np.linalg.inv(L33.T).T
        T = np.zeros((kept.size, kept.size))
        T[:first, :first] = T11
        T[first:, :first], T[first:, first:] = -T33.dot(L31.dot(T11)), T33
        return CholeskyFactor(_frozen(T), self._max_diag)

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
            factor = factor.drop_columns(
                drop.nonzero()[0], lambda rows, cols: gram(passive[rows], passive[cols]))
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
