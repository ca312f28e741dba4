"""Monotonicity analysis of coefficient paths.

A design has monotone paths for every response (and then the LAR, lasso,
and forward-stagewise paths all coincide) exactly when, for every subset
of columns and every choice of signs, the sign-adjusted inverse Gram has
non-negative row sums: S (X_A' X_A)^{-1} S 1 >= 0. This module checks
one signed subset, searches all of them, and provides the closed-form
Gram and inverse Gram of standardized step-function (threshold
indicator) bases, for which the condition always holds.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .design import StandardizedDesign
from .errors import CheckBudgetError, DataError, DegenerateDesignError, TiedKnotError


@dataclass(frozen=True)
class SignedSubset:
    """Distinct column indices (0-based) with a sign for each."""

    indices: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.signs):
            raise ValueError("indices and signs disagree in length")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be distinct")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass
class ConditionReport:
    subset: SignedSubset
    vector: np.ndarray
    passed: bool


@dataclass
class SearchReport:
    passed: bool
    violation: SignedSubset | None
    vector: np.ndarray | None
    checked: int


_MIN_ENTRY = -1e-10


def check_condition(design: StandardizedDesign, subset: SignedSubset) -> ConditionReport:
    """Row sums of the sign-adjusted inverse Gram for one signed subset.

    Returns the vector v = S (X_A' X_A)^{-1} S 1 and passes when its
    smallest entry is at least -1e-10.
    """
    idx = list(subset.indices)
    Xa = design.Xs[:, idx]
    gram = Xa.T @ Xa
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise DegenerateDesignError(
            message=f"columns {subset.indices} have a singular Gram matrix"
        ) from None
    v = _subset_vectors(np.linalg.inv(gram), np.asarray(subset.signs, dtype=float))
    return ConditionReport(subset=subset, vector=v, passed=bool(v.min() >= _MIN_ENTRY))


def _subset_vectors(gram_inv_sub: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # rows: one candidate sign vector; v_i = s_i * (M s)_i
    return signs * (signs @ gram_inv_sub)


def _sign_matrix(k: int) -> np.ndarray:
    return np.array(list(product((1.0, -1.0), repeat=k)))


def _scan_chunk(gram: np.ndarray, subsets: list[tuple[int, ...]]):
    """First violating signed subset among the given subsets, or None."""
    for pos, idx in enumerate(subsets):
        sub = gram[np.ix_(idx, idx)]
        try:
            M = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            raise DegenerateDesignError(
                message=f"columns {idx} have a singular Gram matrix"
            ) from None
        signs = _sign_matrix(len(idx))
        V = _subset_vectors(M, signs)
        bad = np.flatnonzero(V.min(axis=1) < _MIN_ENTRY)
        if bad.size:
            row = int(bad[0])
            return pos, tuple(int(s) for s in signs[row]), V[row]
    return None


def exhaustive_check(
    design: StandardizedDesign,
    max_subset_size: int | None = None,
    check_budget: int = 10_000_000,
    workers: int | None = None,
) -> SearchReport:
    """Search every signed subset for a monotonicity violation.

    Subsets are visited in size order, then lexicographically by index
    tuple; signs with +1 before -1 position by position. The first
    violation in that canonical order is returned, so the result does
    not depend on the number of workers.

    Refuses to start (CheckBudgetError) if the total count of signed
    subsets exceeds ``check_budget``.
    """
    p = design.p
    kmax = p if max_subset_size is None else min(max_subset_size, p)
    total = sum(comb(p, k) * 2**k for k in range(1, kmax + 1))
    if total > check_budget:
        raise CheckBudgetError(
            f"{total} signed subsets exceed the budget of {check_budget}; "
            "raise check_budget to force the search"
        )
    if workers is None:
        workers = int(os.environ.get("L1PATHS_THREADS", "1"))

    gram = design.Xs.T @ design.Xs
    subsets: list[tuple[int, ...]] = []
    for k in range(1, kmax + 1):
        subsets.extend(combinations(range(p), k))

    if workers <= 1 or len(subsets) < 64:
        hit = _scan_chunk(gram, subsets)
    else:
        hit = None
        chunks = np.array_split(np.arange(len(subsets)), workers * 4)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for chunk in chunks:
                if chunk.size == 0:
                    continue
                part = [subsets[i] for i in chunk]
                futures.append((int(chunk[0]), pool.submit(_scan_chunk, gram, part)))
            for offset, fut in futures:
                found = fut.result()
                if found is not None:
                    pos, signs, vec = found
                    if hit is None or offset + pos < hit[0]:
                        hit = (offset + pos, signs, vec)
    if hit is None:
        return SearchReport(passed=True, violation=None, vector=None, checked=total)
    pos, signs, vec = hit
    sub = SignedSubset(indices=subsets[pos], signs=signs)
    return SearchReport(passed=False, violation=sub, vector=vec, checked=total)


def _validate_counts(knot_counts, n: int) -> np.ndarray:
    counts = np.asarray(knot_counts, dtype=int)
    if counts.ndim != 1 or counts.size == 0:
        raise DataError("knot_counts must be a non-empty vector")
    if np.any(counts <= 0) or np.any(counts >= n):
        raise DataError(
            "each knot must have at least one observation on each side "
            f"(counts {counts.tolist()}, n={n})"
        )
    if np.any(np.diff(counts) > 0):
        raise DataError("knot_counts must be non-increasing (knots sorted ascending)")
    return counts


def pc_gram(knot_counts, n: int) -> np.ndarray:
    """Correlation matrix of standardized threshold-indicator columns.

    ``knot_counts[j]`` is the number of observations above knot j (knots
    ascending, so counts are non-increasing). For knots i <= j the
    indicator sets are nested and the correlation works out to
    sqrt((n - n_i) / n_i * n_j / (n - n_j)), which matches the
    empirically standardized Gram to rounding error.
    """
    counts = _validate_counts(knot_counts, n)
    a = counts / n
    v = a / (1.0 - a)  # non-increasing with the knot order
    k = counts.size
    G = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            G[i, j] = G[j, i] = np.sqrt(v[j] / v[i])
    return G


def pc_inverse_gram(knot_counts, n: int) -> np.ndarray:
    """Closed-form inverse of ``pc_gram``: a tridiagonal matrix.

    In the ordering of increasing v_j = s_j / (1 - s_j), s_j being the
    fraction of observations above the knot, the inverse has diagonal
    v_j (1/(v_j - v_{j-1}) + 1/(v_{j+1} - v_j)) (with v_0 = 0 and
    1/(v_{k+1} - v_k) = 0) and sub-diagonal -sqrt(v_j v_{j-1}) /
    (v_j - v_{j-1}); the result is permuted back to the knot order.
    Off-diagonal entries are non-positive and every row sum is
    non-negative, which is why threshold bases always yield monotone
    coefficient paths.
    """
    counts = _validate_counts(knot_counts, n)
    a = counts / n
    v = (a / (1.0 - a))[::-1]  # ascending
    if np.any(np.diff(v) <= 0):
        raise TiedKnotError("tied knots produce identical columns; merge them first")
    k = v.size
    M = np.zeros((k, k))
    vpad = np.concatenate([[0.0], v])
    for j in range(1, k + 1):
        left = vpad[j] / (vpad[j] - vpad[j - 1])
        right = vpad[j] / (v[j] - vpad[j]) if j < k else 0.0
        M[j - 1, j - 1] = left + right
        if j > 1:
            off = -np.sqrt(vpad[j] * vpad[j - 1]) / (vpad[j] - vpad[j - 1])
            M[j - 1, j - 2] = M[j - 2, j - 1] = off
    return M[::-1, ::-1]
