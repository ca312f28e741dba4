"""Dense least-squares kernels, all in Gram space (G = A.T A, c = A.T b).

Cholesky factors that grow and shrink one column at a time, a least-squares
solve, and Lawson-Hanson non-negative least squares. One relative pivot
rule, ``_independent`` with ``PIVOT_RTOL``, makes every rank decision: an
append raises, the batched test ``CholeskyFactor.admits`` rejects the
candidate, NNLS skips the column. Forming G squares the condition number
of A. Factors are immutable; update operations return new factors.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

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


class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to a Gram matrix.

    The factor tracks the largest Gram diagonal it has seen so that the
    rank check stays relative to the scale of the problem.
    """

    __slots__ = ("_L", "_max_diag")

    def __init__(self, L: np.ndarray, max_diag: float):
        L = np.asarray(L, dtype=float)
        L.setflags(write=False)
        self._L = L
        self._max_diag = float(max_diag)

    @classmethod
    def empty(cls) -> "CholeskyFactor":
        return cls(np.zeros((0, 0)), 0.0)

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
        diag = gram_row[k]
        max_diag = max(self._max_diag, diag)
        if k:
            w = solve_triangular(self._L, gram_row[:k], lower=True)
            d2 = diag - w @ w
        else:
            w = np.zeros(0)
            d2 = diag
        if not _independent(d2, max_diag):
            raise DegenerateDesignError(column=k)
        new = np.zeros((k + 1, k + 1))
        new[:k, :k] = self._L
        new[k, :k] = w
        new[k, k] = np.sqrt(d2)
        return CholeskyFactor(new, max_diag)

    def admits(self, gram_rows: np.ndarray) -> np.ndarray:
        """Which of m candidate columns ``append_column`` would accept.

        Column i of ``gram_rows`` (k + 1 by m) is the gram row that
        ``append_column`` would take for candidate i. One triangular solve
        gives every candidate's new pivot, judged by the same rule.
        """
        gram_rows = np.asarray(gram_rows, dtype=float)
        k = self.size
        if gram_rows.ndim != 2 or gram_rows.shape[0] != k + 1:
            raise ValueError(f"expected gram rows with {k + 1} rows, got {gram_rows.shape}")
        diag = gram_rows[k]
        W = solve_triangular(self._L, gram_rows[:k], lower=True) if k else gram_rows[:0]
        return _independent(diag - np.einsum("ij,ij->j", W, W), np.maximum(self._max_diag, diag))

    def drop_column(self, index: int) -> "CholeskyFactor":
        """Return the factor of the Gram with one variable removed.

        Deletes the corresponding row of L and re-triangularizes the
        trailing block with Givens rotations applied from the right.
        """
        k = self.size
        if not 0 <= index < k:
            raise IndexError(index)
        M = np.delete(np.array(self._L), index, axis=0)
        for j in range(index, k - 1):
            a, b = M[j, j], M[j, j + 1]
            r = np.hypot(a, b)
            if r <= 0.0 or not np.isfinite(r):
                raise DegenerateDesignError(column=j)
            c, s = a / r, b / r
            col_j = c * M[:, j] + s * M[:, j + 1]
            col_n = -s * M[:, j] + c * M[:, j + 1]
            M[:, j] = col_j
            M[:, j + 1] = col_n
            M[j, j + 1] = 0.0
        return CholeskyFactor(M[:, : k - 1], self._max_diag)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs."""
        if self.size == 0:
            return np.zeros(0)
        y = solve_triangular(self._L, rhs, lower=True)
        return solve_triangular(self._L.T, y, lower=False)


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


def _passive_factor(G: np.ndarray, passive: list[int]):
    """Kept members of P and the lower Cholesky factor of ``G[P, P]``.

    A member whose pivot fails ``PIVOT_RTOL`` depends on those before it.
    """
    while passive:
        block = G[np.ix_(passive, passive)]
        L, info = dpotrf(block, lower=1)
        k = info - 1 if info > 0 else len(passive)
        ok = _independent(np.diag(L)[:k] ** 2, np.maximum.accumulate(np.diag(block))[:k])
        bad = k if ok.all() else int(np.argmin(ok))
        if bad == len(passive):
            return passive, L
        passive = passive[:bad] + passive[bad + 1 :]
    return passive, None


def solve_nnls_gram(
    G: np.ndarray, c: np.ndarray, max_pivots: int | None = None, tol: float | None = None,
    initial_support: list[int] | None = None,
) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0, given G = A.T A, c = A.T b.

    Lawson-Hanson in Gram form (FNNLS, Bro & De Jong): the largest dual
    ``c - G theta`` above ``tol`` enters the passive set P, and a line move
    toward the least-squares solution on P (one Cholesky factorization of
    ``G[P, P]``) drops what it drives to zero. A candidate failing the
    ``PIVOT_RTOL`` check depends on P and is skipped for that iteration
    (Lawson-Hanson step 6). ``max_pivots`` caps support changes (default
    ``10 n``; then SolverStallError); ``tol`` defaults to NNLS_DUAL_RTOL
    times max|c|, so scaling b leaves every decision unchanged;
    ``initial_support`` is a warm start, trimmed to feasibility before the
    dual iteration takes over.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    max_pivots = 10 * n if max_pivots is None else max_pivots
    tol = NNLS_DUAL_RTOL * float(np.max(np.abs(c))) if tol is None else tol
    x = np.zeros(n)
    warm = dict.fromkeys(int(j) for j in initial_support or () if 0 <= int(j) < n)
    passive, L = _passive_factor(G, list(warm))
    pivots = 0
    while True:
        while passive:  # refit on P; line moves shed non-positive entries
            if pivots > max_pivots:
                raise SolverStallError(
                    f"non-negative least squares stalled after {pivots - 1} pivots"
                )
            sub = dpotrs(L, c[passive], lower=1)[0]
            if sub.min() > 0.0:
                break
            xp = x[passive]
            mask = sub <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, xp / (xp - sub), np.inf)
            hit = int(np.argmin(ratios))
            x_new = xp + ratios[hit] * (sub - xp)
            drop = mask & (x_new <= NNLS_FLOOR_RTOL * max(np.max(np.abs(x_new)), 1e-300))
            drop[hit] = True
            x[passive] = np.where(drop, 0.0, x_new)
            pivots += int(drop.sum())
            passive, L = _passive_factor(G, [j for j, d in zip(passive, drop) if not d])
        x[:] = 0.0
        x[passive] = sub if passive else 0.0
        w = c - G[:, passive] @ x[passive]
        w[passive] = -np.inf
        while True:
            j = int(np.argmax(w))
            if not w[j] > tol:
                return x
            trial, L = _passive_factor(G, passive + [j])
            if trial[-1:] == [j]:
                break
            w[j] = -np.inf  # j depends on P: skipped (Lawson-Hanson step 6)
        passive = trial
        pivots += 1


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
