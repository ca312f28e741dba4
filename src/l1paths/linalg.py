"""Dense least-squares kernels, all in Gram space (G = A.T A, c = A.T b), in numpy.

One factor serves every solve: ``CholeskyFactor`` keeps L with L L^T = G,
its inverse T = L^-1 and G itself, for columns that join one at a time.
An append is one matvec with T plus a new row of L and of T; the batched
rank test and the Gram solve are matvecs with T. A drop keeps the
leading block and refactors the columns after the first one dropped from
their Schur complement ``G33 - L31 L31^T``, so several drops cost one
refactor. Lawson-Hanson non-negative least squares runs on such a factor
and can continue from the one its last call left. One relative pivot
rule, ``_independent`` with ``PIVOT_RTOL``, makes every rank decision: an
append raises, ``CholeskyFactor.admits`` rejects the candidate, NNLS
skips the column. Forming G squares the condition number of A. Factors
are immutable; update operations return new factors.
"""

from __future__ import annotations

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


def _independent(d2, max_diag):
    """The pivot rule: a new diagonal ``d2`` is kept when it is finite and
    exceeds ``PIVOT_RTOL`` times the largest Gram diagonal ``max_diag``."""
    return np.isfinite(d2) & (d2 > PIVOT_RTOL * max_diag)


def _border(M, row, corner, column=0.0):
    """``M`` (k by k) grown by a last row ``row``, a last column ``column``
    above the diagonal and ``corner`` on it."""
    k = M.shape[0]
    new = np.empty((k + 1, k + 1))
    new[:k, :k] = M
    new[k, :k] = row
    new[:k, k] = column
    new[k, k] = corner
    return new


class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to a Gram block G.

    The factor keeps T = L^-1 and G beside L, and tracks the largest Gram
    diagonal it has seen so that the rank check stays relative to the
    scale of the problem.
    """

    __slots__ = ("_L", "_T", "_G", "_max_diag")

    def __init__(self, L: np.ndarray, T: np.ndarray, G: np.ndarray, max_diag: float):
        for M in (L, T, G):
            M.setflags(write=False)
        self._L, self._T, self._G = L, T, G
        self._max_diag = float(max_diag)

    @classmethod
    def empty(cls) -> "CholeskyFactor":
        return cls(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), 0.0)

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
        existing ones, followed by the new column's squared norm.
        """
        gram_row = np.asarray(gram_row, dtype=float)
        k = self.size
        if gram_row.shape != (k + 1,):
            raise ValueError(f"expected gram row of length {k + 1}, got {gram_row.shape}")
        g, diag = gram_row[:k], gram_row[k]
        max_diag = max(self._max_diag, diag)
        w = self._T @ g
        d2 = diag - w @ w
        if not _independent(d2, max_diag):
            raise DegenerateDesignError(column=k)
        pivot = np.sqrt(d2)
        return CholeskyFactor(
            _border(self._L, w, pivot),
            _border(self._T, (w @ self._T) / -pivot, 1.0 / pivot),
            _border(self._G, g, diag, g),
            max_diag,
        )

    def admits(self, gram_rows: np.ndarray) -> np.ndarray:
        """Which of m candidate columns ``append_column`` would accept.

        Column i of ``gram_rows`` (k + 1 by m) is the gram row that
        ``append_column`` would take for candidate i. One product with T
        gives every candidate's new pivot, judged by the same rule.
        """
        gram_rows = np.asarray(gram_rows, dtype=float)
        k = self.size
        if gram_rows.ndim != 2 or gram_rows.shape[0] != k + 1:
            raise ValueError(f"expected gram rows with {k + 1} rows, got {gram_rows.shape}")
        diag = gram_rows[k]
        W = self._T @ gram_rows[:k]
        return _independent(diag - np.einsum("ij,ij->j", W, W), np.maximum(self._max_diag, diag))

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
        first = int(np.argmin(keep)) if kept.size < k else k
        tail = kept[first:]
        G = self._G.take(kept, 0).take(kept, 1)
        if not tail.size:
            return CholeskyFactor(self._L[:first, :first], self._T[:first, :first], G,
                                  self._max_diag)
        L31 = self._L.take(tail, 0)[:, :first]
        try:
            L33 = np.linalg.cholesky(G[first:, first:] - L31 @ L31.T)
        except np.linalg.LinAlgError:
            raise DegenerateDesignError(column=int(tail[0])) from None
        # Inverting the upper triangular L33^T needs no row exchange, so the
        # inverse is exactly triangular.
        T33 = np.linalg.inv(L33.T).T
        m = kept.size
        L, T = np.zeros((m, m)), np.zeros((m, m))
        L[:first, :first], L[first:, :first], L[first:, first:] = self._L[:first, :first], L31, L33
        T[:first, :first] = self._T[:first, :first]
        T[first:, :first], T[first:, first:] = -T33 @ (L31 @ self._T[:first, :first]), T33
        return CholeskyFactor(L, T, G, self._max_diag)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs."""
        return self._T.T @ (self._T @ rhs)


def solve_least_squares(A: np.ndarray, b: np.ndarray, column_names=None) -> np.ndarray:
    """Minimize ||b - A theta||_2 for a full-column-rank A.

    Raises DegenerateDesignError naming the first column that is
    numerically dependent on its predecessors.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        factor = CholeskyFactor.from_gram(A.T @ A)
    except DegenerateDesignError as exc:
        j = exc.column
        label = column_names[j] if column_names is not None else f"column {j}"
        raise DegenerateDesignError(
            column=j, message=f"least squares design is rank deficient at {label}"
        ) from None
    return factor.solve_gram(A.T @ b)


def nnls_continue(
    gram, c: np.ndarray, variables, factor: CholeskyFactor, passive, entering=(),
    max_pivots: int | None = None, tol: float | None = None,
):
    """Lawson-Hanson non-negative least squares on a kept Cholesky factor.

    Variables are named by integer labels: ``gram(rows, cols)`` returns the
    Gram block between two label arrays, and ``c`` is indexed by label.
    ``factor`` is the factor of ``gram(passive, passive)`` in the order of
    ``passive``; each label in ``entering`` is appended to it unless it
    depends on the passive set P (FNNLS, Bro & De Jong). Refit on P with
    one Gram solve; while some coefficient is not positive, a line move
    toward the refit drops what it drives to zero, all of one move's
    drops in one ``drop_columns``. The first move starts from the fit on
    P before ``entering`` where that is positive, else from zero, which
    drops every non-positive coefficient at once. Then the largest dual
    ``c - G theta`` of a variable outside P above ``tol`` enters P by
    ``append_column``; a candidate failing the pivot rule depends on P and
    is skipped for that iteration (Lawson-Hanson step 6). ``max_pivots``
    caps support changes (default ``10 n`` for n variables; then
    SolverStallError); ``tol`` defaults to NNLS_DUAL_RTOL times max|c|
    over the variables, so scaling c leaves every decision unchanged.

    Returns theta on the passive set, its factor and the passive labels
    (an index array, in factor order).
    """
    variables = np.asarray(variables, dtype=int)
    passive = np.asarray(passive, dtype=int)
    kept_factor, kept = factor, passive
    for j in entering:
        with_j = np.concatenate([passive, [j]])
        try:
            factor = factor.append_column(gram(with_j[-1:], with_j)[0])
        except DegenerateDesignError:
            continue
        passive = with_j
    max_pivots = 10 * variables.size if max_pivots is None else max_pivots
    if tol is None:
        tol = NNLS_DUAL_RTOL * float(np.max(np.abs(c[variables]), initial=0.0))
    x = None
    pivots = 0
    while True:
        while passive.size:  # refit on P; line moves shed non-positive entries
            if pivots > max_pivots:
                raise SolverStallError(
                    f"non-negative least squares stalled after {pivots - 1} pivots"
                )
            sub = factor.solve_gram(c[passive])
            if sub.min() > 0.0:
                break
            if x is None:  # start from the fit on the passive set before ``entering``
                x = np.zeros(passive.size)
                fit = kept_factor.solve_gram(c[kept])
                if kept.size and fit.min() > 0.0:
                    x[: kept.size] = fit
            mask = sub <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, x / (x - sub), np.inf)
            hit = int(np.argmin(ratios))
            x_new = x + ratios[hit] * (sub - x)
            drop = mask & (x_new <= NNLS_FLOOR_RTOL * max(np.max(np.abs(x_new)), 1e-300))
            drop[hit] = True
            pivots += int(drop.sum())
            factor = factor.drop_columns(np.flatnonzero(drop))
            passive, x = passive[~drop], x_new[~drop]
        else:
            sub = np.zeros(0)
        if passive.size == variables.size:
            return sub, factor, passive
        inside = set(passive.tolist())
        others = np.array([v for v in variables.tolist() if v not in inside], dtype=int)
        cross = gram(others, passive)
        w = c[others] - cross @ sub
        while True:
            i = int(np.argmax(w))
            if not w[i] > tol:
                return sub, factor, passive
            j = others[i : i + 1]
            try:
                factor = factor.append_column(np.concatenate([cross[i], gram(j, j)[0]]))
            except DegenerateDesignError:
                w[i] = -np.inf  # j depends on P: skipped (Lawson-Hanson step 6)
                continue
            break
        passive, x = np.concatenate([passive, j]), np.concatenate([sub, [0.0]])
        pivots += 1


def solve_nnls_gram(
    G: np.ndarray, c: np.ndarray, max_pivots: int | None = None, tol: float | None = None,
    initial_support: list[int] | None = None,
) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0, given G = A.T A, c = A.T b.

    ``nnls_continue`` from an empty factor; see there for ``max_pivots`` and
    ``tol``. ``initial_support`` is a warm start: its columns enter the
    passive set first, and the first line move trims it to feasibility.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    warm = dict.fromkeys(int(j) for j in initial_support or () if 0 <= int(j) < n)
    theta, _, passive = nnls_continue(
        lambda rows, cols: G.take(rows, 0).take(cols, 1), c, np.arange(n), CholeskyFactor.empty(),
        (), warm, max_pivots, tol,
    )
    x = np.zeros(n)
    x[passive] = theta
    return x


def solve_nnls(
    A: np.ndarray, b: np.ndarray, max_pivots: int | None = None, tol: float | None = None,
    initial_support: list[int] | None = None,
) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0 (rank-deficient A is fine).

    ``solve_nnls_gram`` on ``A.T A`` and ``A.T b``; see there for the options.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return solve_nnls_gram(A.T @ A, A.T @ b, max_pivots, tol, initial_support)
