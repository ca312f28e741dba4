"""Dense least-squares kernels.

Cholesky factors of Gram matrices that grow and shrink one column at a
time, a pivoted least-squares solve, and an active-set non-negative
least-squares solver. Everything here is a pure function of its inputs:
factors are immutable and update operations return new factors.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateDesignError, SolverStallError

# Relative pivot threshold: a new diagonal below this fraction of the
# largest Gram diagonal means the column is dependent on the others.
PIVOT_RTOL = 1e-12


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
        if not np.isfinite(d2) or d2 <= PIVOT_RTOL * max_diag:
            raise DegenerateDesignError(column=k)
        new = np.zeros((k + 1, k + 1))
        new[:k, :k] = self._L
        new[k, :k] = w
        new[k, k] = np.sqrt(d2)
        return CholeskyFactor(new, max_diag)

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


def solve_nnls(
    A: np.ndarray,
    b: np.ndarray,
    max_pivots: int | None = None,
    tol: float | None = None,
    initial_support: list[int] | None = None,
) -> np.ndarray:
    """Minimize ||b - A theta||_2 subject to theta >= 0.

    Active-set method in the Lawson-Hanson style: variables enter the
    support at the most positive dual value and leave when a line move
    toward the unconstrained subproblem solution drives them to zero.
    Terminates finitely with the exact optimum.

    Parameters
    ----------
    A : (m, n) array
    b : (m,) array
    max_pivots : iteration cap on support changes; default ``10 * n``.
    tol : dual feasibility tolerance; default scales with ``max|A.T b|``.
    initial_support : candidate support to warm start from (e.g. the
        support of a nearby problem's solution); trimmed to feasibility
        before the usual dual iteration takes over.

    Raises
    ------
    SolverStallError
        If the pivot cap is hit before the dual variables are feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 10 * n
    grad0 = A.T @ b
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(grad0))))

    x = np.zeros(n)
    passive: list[int] = []
    pivots = 0

    def refit_to_feasibility():
        """Solve on the passive set; line moves shed non-positive entries."""
        nonlocal passive, pivots
        while passive:
            sub = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if sub.min() > 0.0:
                x[:] = 0.0
                x[passive] = sub
                return
            xp = x[passive]
            mask = sub <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, xp / (xp - sub), np.inf)
            hit = int(np.argmin(ratios))
            alpha = float(ratios[hit])
            x_new = xp + alpha * (sub - xp)
            floor = 1e-14 * max(float(np.max(np.abs(x_new))), 1e-300)
            keep = []
            for pos, j in enumerate(passive):
                if pos == hit or (mask[pos] and x_new[pos] <= floor):
                    x[j] = 0.0
                    pivots += 1
                else:
                    x[j] = x_new[pos]
                    keep.append(j)
            passive = keep
            if pivots > max_pivots:
                raise SolverStallError(
                    f"non-negative least squares stalled after {pivots - 1} pivots"
                )
        x[:] = 0.0

    if initial_support:
        passive = [int(j) for j in dict.fromkeys(initial_support) if 0 <= int(j) < n]
        refit_to_feasibility()
    w = A.T @ (b - A @ x)

    while True:
        candidates = [j for j in range(n) if j not in passive]
        if not candidates:
            break
        w_cand = w[candidates]
        best = int(np.argmax(w_cand))
        if w_cand[best] <= tol:
            break
        passive.append(candidates[best])
        pivots += 1
        if pivots > max_pivots:
            raise SolverStallError(
                f"non-negative least squares stalled after {pivots - 1} pivots"
            )
        refit_to_feasibility()
        w = A.T @ (b - A @ x)
    return x
