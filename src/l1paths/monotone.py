"""Monotonicity analysis of coefficient paths.

A design has monotone paths for every response (and then the LAR, lasso,
and forward-stagewise paths all coincide) exactly when, for every subset
of columns and every choice of signs, the sign-adjusted inverse Gram has
non-negative row sums: S (X_A' X_A)^{-1} S 1 >= 0. This module checks
one signed subset, searches all of them, and provides the closed-form
Gram and inverse Gram of standardized step-function (threshold
indicator) bases, for which the condition always holds.

The search runs in the calling process and evaluates the subsets of one
size in batches: one stacked inverse per batch of 256 subsets and, since
v(-s) = v(s), only the sign vectors that start with +1. Its memory is
bounded by one batch and one size's index array. It returns the first
violation in a fixed canonical order, or raises for the first singular
subset before any violation, or for a violating subset that
``check_condition`` would refuse as singular."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .design import StandardizedDesign
from .errors import CheckBudgetError, ConfigError, DataError, DegenerateDesignError, TiedKnotError


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
    smallest entry is at least -1e-10. Raises DataError for an index
    outside [0, p).
    """
    idx = list(subset.indices)
    bad = [j for j in idx if not 0 <= j < design.p]
    if bad:
        raise DataError(f"column index {bad[0]} is out of range for {design.p} columns")
    gram = _subset_gram(design, subset.indices)
    v = _subset_vectors(np.linalg.inv(gram), np.asarray(subset.signs, dtype=float))
    return ConditionReport(subset=subset, vector=v, passed=bool(v.min() >= _MIN_ENTRY))


def _subset_gram(design: StandardizedDesign, indices: tuple[int, ...]) -> np.ndarray:
    """Gram block of some columns; DegenerateDesignError unless Cholesky succeeds."""
    Xa = design.Xs[:, list(indices)]
    gram = Xa.T @ Xa
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise DegenerateDesignError(
            message=f"columns {indices} have a singular Gram matrix"
        ) from None
    return gram


def _subset_vectors(gram_inv_sub: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # rows: one candidate sign vector; v_i = s_i * (M s)_i
    return signs * (signs @ gram_inv_sub)


def _sign_matrix(k: int) -> np.ndarray:
    return np.array(list(product((1.0, -1.0), repeat=k)))


_BATCH = 256  # subsets per stacked inverse
_BATCH_ENTRIES = 1 << 18  # cap on subsets x sign rows x k of one batch's vectors


def _first_violation(M: np.ndarray, signs: np.ndarray):
    """First (member, signs, vector) violating in a stack of inverses, or None."""
    V = _subset_vectors(M, signs)
    if not (V < _MIN_ENTRY).any():  # one pass over the batch; rows only on a hit
        return None
    bad = np.flatnonzero(V.min(axis=2) < _MIN_ENTRY)
    member, row = divmod(int(bad[0]), len(signs))
    return member, tuple(int(s) for s in signs[row]), V[member, row].copy()


def _first_singular(stack: np.ndarray) -> int:
    for i, sub in enumerate(stack):
        try:
            np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            return i


def _scan(gram: np.ndarray, subsets: np.ndarray, signs: np.ndarray):
    """First violation among index rows of one size, in row order, or None.

    Raises DegenerateDesignError for the first singular subset when no
    violation comes before it.
    """
    k = subsets.shape[1]
    step = max(1, min(_BATCH, _BATCH_ENTRIES // (len(signs) * k)))
    for start in range(0, len(subsets), step):
        J = subsets[start:start + step]
        sub = gram[J[:, :, None], J[:, None, :]]
        singular = None
        try:
            M = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            singular = _first_singular(sub)
            M = np.linalg.inv(sub[:singular])
        found = _first_violation(M, signs)
        if found is not None:
            member, s, vec = found
            return start + member, s, vec
        if singular is not None:
            idx = tuple(int(j) for j in J[singular])
            raise DegenerateDesignError(message=f"columns {idx} have a singular Gram matrix")
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
    violation in that canonical order is returned. If a subset's Gram
    matrix is singular (``np.linalg.inv`` fails) before any violation,
    DegenerateDesignError names that subset. So it does for the violating
    subset itself if its Gram block fails ``check_condition``'s Cholesky
    test: ``inv`` succeeds on a numerically singular block, and the vector
    it gives is rounding noise.

    The subsets of one size k are built as one (m, k) index array, one
    size at a time, so a violation also skips the larger sizes. They are
    evaluated in batches of up to 256: one gather of their Gram blocks,
    one stacked inverse, and the vectors of every sign row at once. Only
    the 2^(k-1) sign rows with s_1 = +1 are evaluated: v(-s) equals v(s)
    exactly (negation is exact in floating point) and -s comes later in
    canonical order, so the first violation is always among them. A
    batch holds at most 256 subsets and 2^18 vector entries (or a single
    subset, if its sign rows alone exceed that), so peak memory is
    bounded by the batch and one size's index array.

    The search runs in the calling process. ``workers`` is accepted for
    existing callers and ignored.

    Raises ConfigError if ``max_subset_size`` is below 1, and refuses to
    start (CheckBudgetError) if the total count of signed subsets
    exceeds ``check_budget``.
    """
    p = design.p
    if max_subset_size is not None and max_subset_size < 1:
        raise ConfigError("max_subset_size must be at least 1")
    kmax = p if max_subset_size is None else min(max_subset_size, p)
    total = sum(comb(p, k) * 2**k for k in range(1, kmax + 1))
    if total > check_budget:
        raise CheckBudgetError(
            f"{total} signed subsets exceed the budget of {check_budget}; "
            "raise check_budget to force the search"
        )

    gram = design.Xs.T @ design.Xs
    for k in range(1, kmax + 1):
        subsets = np.fromiter(combinations(range(p), k), dtype=(np.intp, k), count=comb(p, k))
        hit = _scan(gram, subsets, _sign_matrix(k)[: 2 ** (k - 1)])
        if hit is not None:
            pos, s, vec = hit
            sub = SignedSubset(indices=tuple(int(j) for j in subsets[pos]), signs=s)
            _subset_gram(design, sub.indices)  # raises where check_condition would
            return SearchReport(passed=False, violation=sub, vector=vec, checked=total)
    return SearchReport(passed=True, violation=None, vector=None, checked=total)


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
