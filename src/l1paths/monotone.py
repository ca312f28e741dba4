"""Monotonicity analysis of coefficient paths.

A design has monotone paths for every response (and then the LAR, lasso,
and forward-stagewise paths all coincide) exactly when, for every subset
of columns and every choice of signs, the sign-adjusted inverse Gram has
non-negative row sums: S (X_A' X_A)^{-1} S 1 >= 0. This module checks
one signed subset, searches all of them, and provides the closed-form
Gram and inverse Gram of standardized step-function (threshold
indicator) bases, for which the condition always holds.

The search runs in the calling process and builds each subset size from
the one before it: every size-k subset is a size-(k-1) subset extended by
a later column, and its inverse Cholesky factor and inverse Gram are its
prefix's bordered by one row, so no subset is factored or inverted from
scratch. Since v(-s) = v(s), only the sign vectors that start with +1 are
evaluated, and none of a subset whose inverse Gram rows bound every entry
of v above the threshold. Its memory is bounded by the previous size's
factors, the current size's and one chunk of vectors. It returns the first
violation in a fixed canonical order, or raises for the first singular
subset before any violation; one pivot rule (``linalg.PIVOT_RTOL``)
decides singularity here and in ``check_condition``, which runs the
search's arithmetic on one subset."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from .design import StandardizedDesign
from .errors import CheckBudgetError, ConfigError, DataError, DegenerateDesignError, TiedKnotError
from .linalg import _independent


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
# Rounding margin of the row bound that lets the search skip a subset's
# sign rows, relative to k x sum_b |M_ab| (see ``_first_violation``).
_ROW_BOUND_RTOL = 8 * float(np.finfo(float).eps)


def check_condition(design: StandardizedDesign, subset: SignedSubset) -> ConditionReport:
    """Row sums of the sign-adjusted inverse Gram for one signed subset.

    Returns the vector v = S (X_A' X_A)^{-1} S 1, in the order of
    ``subset``, and passes when its smallest entry is at least -1e-10. This
    is the search's arithmetic on one subset: the inverse Gram is bordered
    by ``_grow`` from the design's ``gram``, one column at a time in
    increasing index order, and v is the same strided product as in
    ``_first_violation``, so v is bit-equal to the search's vector for
    the same signed subset. The design forms its Gram once, so only the
    first call on a design pays O(n p^2) for it. Raises DataError for an
    index outside [0, p), and DegenerateDesignError for a subset that
    ``exhaustive_check`` would refuse as singular.
    """
    bad = [j for j in subset.indices if not 0 <= j < design.p]
    if bad:
        raise DataError(f"column index {bad[0]} is out of range for {design.p} columns")
    gram = design.gram
    order = np.argsort(subset.indices)
    rows, T, M, top = (np.zeros((0, 1), dtype=np.intp), np.zeros((0, 0, 1)), np.zeros((0, 0, 1)),
                       np.zeros(1))
    for j in np.take(subset.indices, order):
        k = len(rows) + 1
        Tk, Mk = np.empty((k, k, 1)), np.empty((k, k, 2))  # two wide, as the search's stacks
        if not _grow(gram, rows, T, M, top, np.zeros(1, dtype=np.intp), np.array([j]), Tk,
                     Mk[:, :, :1]):
            raise DegenerateDesignError(
                message=f"columns {subset.indices} have a singular Gram matrix")
        rows, T, M, top = np.vstack([rows, [[j]]]), Tk, Mk, np.maximum(top, gram[j, j])
    signs = np.asarray(subset.signs, dtype=float)[order]
    v = np.empty(len(order))
    v[order] = signs * np.matmul(signs, M.transpose(2, 0, 1)[:1])[0]
    return ConditionReport(subset=subset, vector=v, passed=bool(v.min() >= _MIN_ENTRY))


def _sign_matrix(k: int) -> np.ndarray:
    return np.array(list(product((1.0, -1.0), repeat=k)))


_CHUNK = 1 << 16  # cap on the vector entries (subsets x sign rows x k) of one chunk


def _extensions(rows: np.ndarray, p: int):
    """Parent and new column of every one-column extension of the subsets
    ``rows`` (one subset per column of ``rows``).

    Each subset grows by every column after its last one, so the extensions
    of subsets in lexicographic order are again in lexicographic order.
    """
    last = rows[-1] if len(rows) else np.full(rows.shape[1], -1)
    counts = p - 1 - last
    parent = np.repeat(np.arange(len(last)), counts)
    col = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
    return parent, col


def _grow(gram: np.ndarray, rows: np.ndarray, T: np.ndarray, M: np.ndarray, top: np.ndarray,
          par: np.ndarray, col: np.ndarray, Tc: np.ndarray | None, Mc: np.ndarray):
    """Write into ``Tc`` and ``Mc`` the inverse factors and inverse Grams of
    the subsets ``rows[:, par]`` extended by ``col``, stacked along the last
    axis, up to the first one that the pivot rule refuses; return how many.

    Each factor T is its prefix's bordered as in
    ``CholeskyFactor.append_column``: w = T g, d^2 = g_jj - |w|^2, new row
    -w'T / d and corner 1 / d. M = T'T is its prefix's plus the outer
    product of the new row of T. Sums run over the small axis in index
    order, so no entry's rounding depends on the number of subsets.
    ``Tc`` may be None when the factors are not needed.
    """
    Tp = T.take(par, axis=2)
    g = gram.take(rows[:, par] * len(gram) + col)
    w = np.zeros_like(g)
    for i in range(len(g)):  # w = T g, T lower triangular
        w[i:] += Tp[i:, i] * g[i]
    d2 = gram[col, col]
    for x in w:
        d2 = d2 - x * x
    ok = _independent(d2, np.maximum(top[par], gram[col, col]))
    size = len(par) if ok.all() else int(np.argmin(ok))
    d, w, Tp = np.sqrt(d2[:size]), w[:, :size], Tp[:, :, :size]
    new = np.zeros((len(w) + 1, size))  # the new row of T
    for i in range(len(w)):
        new[: i + 1] += w[i] * Tp[i, : i + 1]
    new[:-1] /= -d
    new[-1] = 1.0 / d
    if Tc is not None:
        Tc[:-1, :-1, :size], Tc[:-1, -1, :size], Tc[-1, :, :size] = Tp, 0.0, new
    Mc = Mc[:, :, :size]
    np.multiply(new[:-1, None], new[:-1], out=Mc[:-1, :-1])
    Mc[:-1, :-1] += M.take(par[:size], axis=2)
    Mc[-1] = Mc[:, -1] = new * new[-1]
    return size


def _first_violation(M: np.ndarray, signs: np.ndarray, V: np.ndarray, spare: np.ndarray):
    """First (member, signs, vector) violating in a stack of inverse Grams, or None.

    ``M[:, :, i]`` is member i's inverse Gram. Entry a of v(s) is at least
    M_aa - sum_{b != a} |M_ab| whatever the signs, so a member whose bound
    clears ``_MIN_ENTRY`` on every row by more than the rounding of v
    (``_ROW_BOUND_RTOL`` x k x sum_b |M_ab|) cannot violate and is skipped.
    The others are gathered into ``spare``, and ``V`` (members, sign rows,
    k) receives v(s) = s * (M s) for each of them and every sign row, from
    one ``signs @ M``. The stack and ``spare`` are at least two members
    wide, so that numpy takes its strided loop and never BLAS, and each
    entry of v is the same sum whatever the stack; ``check_condition``
    repeats it on one member.
    """
    k, m = len(M), M.shape[2]
    abs_sums = np.abs(M).sum(axis=1)
    clear = 2.0 * np.diagonal(M).T - (1.0 + _ROW_BOUND_RTOL * k) * abs_sums >= _MIN_ENTRY
    left = np.flatnonzero(~clear.all(axis=0))
    if len(left) == 0:
        return None
    if len(left) < m:
        spare[:, :, : len(left)] = M[:, :, left]
        M = spare[:, :, : len(left)]
    V = V[: len(left)]
    np.matmul(signs, M.transpose(2, 0, 1), out=V)
    V *= signs
    low = V < _MIN_ENTRY
    if not low.any():
        return None
    member, row = divmod(int(np.flatnonzero(low.any(axis=2))[0]), len(signs))
    return int(left[member]), tuple(int(s) for s in signs[row]), V[member, row].copy()


def exhaustive_check(
    design: StandardizedDesign,
    max_subset_size: int | None = None,
    check_budget: int = 10_000_000,
    workers: int | None = None,
) -> SearchReport:
    """Search every signed subset for a monotonicity violation.

    Subsets are visited in size order, then lexicographically by index
    tuple; signs with +1 before -1 position by position. The first
    violation in that canonical order is returned. If a subset is singular
    before any violation, DegenerateDesignError names it. A subset is
    singular when the pivot rule of ``linalg`` (``PIVOT_RTOL`` times the
    largest Gram diagonal among its columns) refuses its last column after
    the others: ``check_condition`` refuses exactly these subsets.

    Each size is built from the one before it. The size-k subsets are the
    size-(k-1) subsets extended by every column after their last one, which
    is the order of ``itertools.combinations``. Each subset's inverse
    Cholesky factor T = L^-1 is its prefix's bordered by one row, as in
    ``CholeskyFactor.append_column`` (see ``_grow``), and its inverse Gram
    M = T'T its prefix's plus one outer product. The subsets of one size
    are processed in chunks of consecutive subsets; one ``signs @ M`` over
    a chunk's stacked inverse Grams gives the vectors v(s) = s * (M s) of
    all its subsets and sign rows. Only the 2^(k-1) sign rows with s_1 = +1
    are evaluated: v(-s) equals v(s) exactly (negation is exact in floating
    point) and -s comes later in canonical order, so the first violation
    is always among them. A subset none of whose sign rows can violate,
    because each row a of M has M_aa - sum_{b != a} |M_ab| above the
    threshold by a rounding margin, skips its sign rows (see
    ``_first_violation``). Every entry is computed the same way whatever
    the chunk and whichever subsets are skipped, so the report does not
    depend on either.

    A chunk holds at most 2^16 vector entries (or a single subset, if its
    sign rows alone exceed that). Only the previous size's subsets,
    factors and inverse Grams are kept, so besides the design's Gram peak
    memory is bounded by those, the current size's (at the last size, one
    chunk's inverse Grams) and one chunk of vectors: about 3 MB for the
    21,699 subsets of size at most 5 over 20 columns.

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
            "lower max_subset_size (--max-subset), or raise check_budget to force the search"
        )

    gram = design.gram
    # Subsets, their inverse factors T and inverse Grams M = T'T are stacked
    # along the last axis, starting from the empty subset, the parent of
    # every size-1 subset. ``top`` is the largest Gram diagonal among each
    # subset's columns.
    rows, T, M, top = (np.zeros((0, 1), dtype=np.intp), np.zeros((0, 0, 1)), np.zeros((0, 0, 1)),
                       np.zeros(1))
    for k in range(1, kmax + 1):
        parent, col = _extensions(rows, p)
        signs = _sign_matrix(k)[: 2 ** (k - 1)]
        keep = k < kmax
        step = max(1, _CHUNK // (len(signs) * k))
        # Factors of the whole size when they are kept for the next, else
        # the inverse Grams of one chunk at a time.
        width = len(parent) if keep else min(step, len(parent))
        Tk = np.empty((k, k, width)) if keep else None
        Mk = np.empty((k, k, max(2, width)))  # see ``_first_violation``
        V = np.empty((min(step, len(parent)), len(signs), k))
        spare = np.empty((k, k, max(2, len(V))))
        for start in range(0, len(parent), step):
            par, j = parent[start:start + step], col[start:start + step]
            at = start if keep else 0
            size = _grow(gram, rows, T, M, top, par, j,
                         Tk[:, :, at:at + len(par)] if keep else None, Mk[:, :, at:at + len(par)])
            found = _first_violation(Mk[:, :, at:at + size], signs, V, spare)
            if found is not None:
                member, s, vec = found
                idx = (*map(int, rows[:, par[member]]), int(j[member]))
                return SearchReport(passed=False, violation=SignedSubset(indices=idx, signs=s),
                                    vector=vec, checked=total)
            if size < len(par):
                idx = (*map(int, rows[:, par[size]]), int(j[size]))
                raise DegenerateDesignError(message=f"columns {idx} have a singular Gram matrix")
        if keep:
            rows, T, M = np.vstack([rows[:, parent], col]), Tk, Mk
            top = np.maximum(top[parent], gram[col, col])
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
