import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1paths import (
    CholeskyFactor,
    DegenerateDesignError,
    SolverStallError,
    solve_nnls,
    solve_nnls_gram,
)
from l1paths import linalg
from l1paths.linalg import nnls_continue
from oracles import ls_by_gram_inverse, nnls_by_enumeration, rng_for


class TestNNLS:
    def test_binding_constraint(self):
        theta = solve_nnls(np.eye(1), np.array([-2.0]))
        assert theta == pytest.approx([0.0])

    def test_interior_optimum(self):
        theta = solve_nnls(np.eye(1), np.array([2.0]))
        assert theta == pytest.approx([2.0])

    def test_mixed_sign_instance_matches_enumeration(self):
        rng = rng_for(3)
        A = rng.standard_normal((15, 4))
        # push the unconstrained optimum to mixed signs
        b = A @ np.array([1.0, -2.0, 0.5, -0.3]) + 0.1 * rng.standard_normal(15)
        assert ls_by_gram_inverse(A, b).min() < 0
        theta = solve_nnls(A, b)
        ref, _ = nnls_by_enumeration(A, b)
        np.testing.assert_allclose(theta, ref, atol=1e-10)

    def test_kkt_on_1000_random_instances(self):
        for seed in range(1000):
            rng = rng_for(seed)
            m = int(rng.integers(3, 9))
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            theta = solve_nnls(A, b)
            tol = 1e-8 * max(np.linalg.norm(b), 1e-30)
            nu = -A.T @ (b - A @ theta)
            assert theta.min() >= 0.0
            assert nu.min() >= -tol
            assert np.max(np.abs(nu * theta)) <= tol

    def test_objective_dominates_enumeration(self):
        for seed in range(40):
            rng = rng_for(100 + seed)
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((12, n))
            b = rng.standard_normal(12)
            theta = solve_nnls(A, b)
            r = b - A @ theta
            _, best_obj = nnls_by_enumeration(A, b)
            assert float(r @ r) <= best_obj + 1e-9 * max(1.0, best_obj)

    def test_stall_error_on_tiny_budget(self, monkeypatch):
        rng = rng_for(7)
        A = rng.standard_normal((10, 6))
        b = A @ np.abs(rng.standard_normal(6)) + 0.1 * rng.standard_normal(10)
        assert np.all(solve_nnls(A, b) >= 0.0)  # the default budget suffices
        monkeypatch.setattr(linalg, "NNLS_PIVOT_BUDGET", 0)
        with pytest.raises(SolverStallError, match="stalled after 0 pivots"):
            solve_nnls(A, b)


def _gram_of(T):
    """The Gram block T^-1 T^-T that an inverse factor represents."""
    L = np.linalg.inv(T)
    return L @ L.T


def _by_position(G, cols=None):
    """``drop_columns``' Gram callable for a factor of the columns ``cols`` of
    G (all of them by default), in factor order."""
    cols = np.arange(G.shape[0]) if cols is None else np.asarray(cols)
    return lambda rows, others: G[np.ix_(cols[rows], cols[others])]


class TestCholeskyFactor:
    def test_orthogonal_append_is_block_diagonal(self):
        factor = CholeskyFactor.from_gram(np.eye(3))
        new = factor.append_column(np.array([0.0, 0.0, 0.0, 4.0]))
        np.testing.assert_array_equal(new.T, np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_drop_then_append_restores(self):
        rng = rng_for(5)
        A = rng.standard_normal((20, 4))
        gram = A.T @ A
        factor = CholeskyFactor.from_gram(gram)
        dropped = factor.drop_column(3, _by_position(gram))
        restored = dropped.append_column(gram[:, 3])
        np.testing.assert_allclose(restored.T, factor.T, atol=1e-10)

    def test_interior_drop_reproduces_gram(self):
        rng = rng_for(6)
        A = rng.standard_normal((20, 5))
        gram = A.T @ A
        factor = CholeskyFactor.from_gram(gram).drop_column(2, _by_position(gram))
        keep = [0, 1, 3, 4]
        np.testing.assert_allclose(_gram_of(factor.T), gram[np.ix_(keep, keep)], atol=1e-10)

    def test_five_appends_match_fresh_factorization(self):
        rng = rng_for(8)
        A = rng.standard_normal((20, 5))
        gram = A.T @ A
        factor = CholeskyFactor.empty()
        for j in range(5):
            factor = factor.append_column(gram[: j + 1, j])
        fresh = np.linalg.inv(np.linalg.cholesky(gram))
        np.testing.assert_allclose(factor.T, fresh, atol=1e-9)
        np.testing.assert_allclose(_gram_of(factor.T), gram, rtol=1e-10)

    def test_solve_gram(self):
        rng = rng_for(9)
        A = rng.standard_normal((15, 4))
        gram = A.T @ A
        rhs = rng.standard_normal(4)
        factor = CholeskyFactor.from_gram(gram)
        np.testing.assert_allclose(factor.solve_gram(rhs), np.linalg.solve(gram, rhs),
                                   atol=1e-10)

    def test_dependent_append_raises(self):
        factor = CholeskyFactor.from_gram(np.eye(2))
        with pytest.raises(DegenerateDesignError):
            factor.append_column(np.array([1.0, 0.0, 1.0]))  # duplicate of column 0


class TestBatchedRankTest:
    """``append_column`` and ``nnls_continue`` take the same rank decisions."""

    def _appends(self, factor, gram_row):
        try:
            factor.append_column(gram_row)
        except DegenerateDesignError:
            return False
        return True

    def _two_decisions(self, A, row, c_new):
        """Whether ``append_column`` and ``nnls_continue`` take a candidate
        with gram row ``row`` after the columns of A.

        NNLS gets the bordered Gram matrix and appends the columns of A and
        then the candidate (``entering``), so its pivot test on the
        candidate is the same one; ``c_new`` is large, so that the candidate
        would take weight.
        """
        k = A.shape[1]
        G = A.T @ A
        factor = CholeskyFactor.from_gram(G)
        full = np.empty((k + 1, k + 1))
        full[:k, :k] = G
        full[k, :k] = full[:k, k] = row[:k]
        full[k, k] = row[k]
        c = np.append(A.T @ (A @ np.linspace(1.0, 2.0, k)), c_new)
        sub, _, passive = nnls_continue(
            lambda rows, cols: full[np.asarray(rows)[..., None], cols], c, np.arange(k + 1),
            CholeskyFactor.empty(), (), entering=range(k + 1))
        theta = np.zeros(k + 1)
        theta[passive] = sub
        assert np.all(theta[:k] > 0.0)
        return self._appends(factor, row), bool(theta[k] != 0.0)

    @pytest.mark.parametrize("on_diagonal", [False, True], ids=["off_diagonal", "diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rows_are_rejected_alike(self, value, on_diagonal):
        rng = rng_for(720)
        A = rng.standard_normal((12, 5))
        z = rng.standard_normal(12)
        row = np.append(A.T @ z, z @ z)
        assert self._two_decisions(A, row, 10.0) == (True, True)
        row[5 if on_diagonal else 2] = value
        assert self._two_decisions(A, row, 10.0 * np.abs(A.T @ z).max()) == (False, False)

    @pytest.mark.parametrize("column", range(3))
    def test_duplicated_column_is_rejected_alike(self, column):
        rng = rng_for(730 + column)
        A = rng.standard_normal((12, 3)) * rng.uniform(0.1, 10.0, 3)
        z = A[:, column]
        row = np.append(A.T @ z, z @ z)
        c_copy = float(z @ (A @ np.linspace(1.0, 2.0, 3)))  # the copied column's own c
        assert self._two_decisions(A, row, c_copy) == (False, False)


class TestNNLSGram:
    def _kkt_optimal(self, A, b, theta):
        _, best_obj = nnls_by_enumeration(A, b)
        r = b - A @ theta
        nu = -A.T @ r
        tol = 1e-8 * max(np.linalg.norm(b), 1e-30) * max(1.0, np.abs(A).max())
        assert theta.min() >= 0.0
        assert nu.min() >= -tol
        assert np.max(np.abs(nu * theta)) <= tol
        assert float(r @ r) <= best_obj + 1e-9 * max(1.0, best_obj)

    def test_duplicated_column_is_kkt_optimal(self):
        for seed in range(20):
            rng = rng_for(300 + seed)
            A = rng.standard_normal((10, 4))
            A = np.column_stack([A, A[:, 1]])
            b = A @ np.abs(rng.standard_normal(5)) + 0.3 * rng.standard_normal(10)
            theta = solve_nnls(A, b)
            self._kkt_optimal(A, b, theta)
            assert min(theta[1], theta[4]) == 0.0  # the copy never joins its original

    def test_wide_matrix_is_kkt_optimal(self):
        for seed in range(20):
            rng = rng_for(400 + seed)
            A = rng.standard_normal((4, 7))
            b = rng.standard_normal(4)
            theta = solve_nnls(A, b)
            self._kkt_optimal(A, b, theta)
            assert np.count_nonzero(theta) <= 4

    def test_gram_form_matches_public_solver(self):
        for seed in range(1000):
            rng = rng_for(seed)
            m = int(rng.integers(3, 9))
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            np.testing.assert_allclose(
                solve_nnls_gram(A.T @ A, A.T @ b), solve_nnls(A, b), rtol=0, atol=1e-12
            )


class TestFactorUpdates:
    """Appends and drops keep T lower triangular with T^-1 T^-T = G on the kept columns."""

    @pytest.mark.parametrize("noise", [1e-5, 1e-7])
    def test_random_appends_and_drops(self, noise):
        for seed in range(20):
            rng = rng_for(900 + seed)
            A = rng.standard_normal((30, 16)) * rng.uniform(0.1, 10.0, 16)
            for j in range(10, 16):  # near-combinations of the first three columns
                A[:, j] = A[:, :3] @ rng.standard_normal(3)
                A[:, j] += noise * np.linalg.norm(A[:, 0]) * rng.standard_normal(30)
            G = A.T @ A
            factor, cols = CholeskyFactor.empty(), []
            for _ in range(60):
                op = int(rng.integers(3)) if len(cols) >= 3 else 0
                if op == 0:
                    outside = [j for j in range(16) if j not in cols]
                    if not outside:
                        continue
                    j = int(rng.choice(outside))
                    try:
                        factor = factor.append_column(G[cols + [j], j])
                    except DegenerateDesignError:
                        continue
                    cols.append(j)
                elif op == 1:
                    i = int(rng.integers(len(cols)))
                    factor = factor.drop_column(i, _by_position(G, cols))
                    cols.pop(i)
                else:
                    gone = rng.choice(len(cols), int(rng.integers(1, 4)), replace=False)
                    factor = factor.drop_columns(gone, _by_position(G, cols))
                    cols = [c for i, c in enumerate(cols) if i not in gone]
                T = factor.T
                kept = G[np.ix_(cols, cols)]
                assert np.max(np.abs(_gram_of(T) - kept), initial=0.0) <= (
                    5e-12 * np.max(np.abs(kept), initial=0.0))
                assert np.array_equal(T, np.tril(T))

    def test_drop_columns_equals_single_drops(self):
        rng = rng_for(950)
        A = rng.standard_normal((20, 8))
        G = A.T @ A
        factor = CholeskyFactor.from_gram(G)
        one_by_one = factor.drop_column(6, _by_position(G)).drop_column(
            4, _by_position(G, [0, 1, 2, 3, 4, 5, 7])).drop_column(
            1, _by_position(G, [0, 1, 2, 3, 5, 7]))
        at_once = factor.drop_columns([1, 4, 6], _by_position(G))
        assert np.array_equal(at_once.T, one_by_one.T)
        with pytest.raises(IndexError):
            factor.drop_columns([8], _by_position(G))

    def test_drop_of_a_near_dependent_column_refactors(self):
        """Column 2 is within 1e-5 of the span of columns 0 and 1, so the
        rows of T after it carry its small pivot; dropping it refactors
        them from the kept Gram, and the factor is as accurate as a fresh one."""
        rng = rng_for(951)
        A = rng.standard_normal((20, 5))
        A[:, 2] = A[:, 0] + A[:, 1] + 1e-5 * rng.standard_normal(20)
        G = A.T @ A
        factor = CholeskyFactor.from_gram(G)
        asked = []

        def gram(rows, cols):
            asked.append((list(rows), list(cols)))
            return _by_position(G)(rows, cols)

        dropped = factor.drop_column(2, gram)
        assert asked == [([3, 4], [0, 1, 3, 4])]
        keep = [0, 1, 3, 4]
        fresh = np.linalg.inv(np.linalg.cholesky(G[np.ix_(keep, keep)]))
        np.testing.assert_allclose(dropped.T, fresh, rtol=1e-13, atol=1e-14 * np.abs(fresh).max())
        assert np.array_equal(dropped.T, np.tril(dropped.T))



@st.composite
def drops(draw):
    """A factor of 1-40 columns, some near-combinations of the first two, and
    the positions to drop from it: the first, the middle, the last or several.

    Returns the Gram of the columns, the factor, the columns it holds (an
    appended column that fails the pivot rule is left out) and the positions.
    """
    rng = rng_for(draw(st.integers(0, 2**20)))
    k = draw(st.integers(1, 40))
    noise = draw(st.sampled_from((1e-3, 1e-4, 1e-5, 1e-6, 1e-7)))
    n = k + draw(st.integers(1, 10))
    A = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    for j in range(2, k):
        if draw(st.booleans()):
            A[:, j] = A[:, :2] @ rng.standard_normal(2)
            A[:, j] += noise * np.linalg.norm(A[:, 0]) * rng.standard_normal(n)
    G = A.T @ A
    factor, cols = CholeskyFactor.empty(), []
    for j in range(k):
        try:
            factor = factor.append_column(G[cols + [j], j])
        except DegenerateDesignError:
            continue
        cols.append(j)
    m = len(cols)
    which = draw(st.sampled_from(("first", "middle", "last", "several")))
    if which == "several":
        positions = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 5),
                                  unique=True))
    else:
        positions = [{"first": 0, "middle": m // 2, "last": m - 1}[which]]
    return G, factor, cols, positions


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=drops())
def test_drops_keep_an_exact_factor(problem):
    """After a drop, T is exactly lower triangular with a positive diagonal,
    and ``solve_gram`` solves the kept Gram as accurately as a fresh factor
    of it: within 1e-15 (4.5 eps) times its condition number. Without the
    refactor of a drop whose rows shrink, the update's inherited rounding
    reaches 1e4 eps cond on these draws."""
    G, factor, cols, positions = problem
    dropped = factor.drop_columns(positions, _by_position(G, cols))
    kept = [c for i, c in enumerate(cols) if i not in positions]
    T = dropped.T
    assert T.shape == (len(kept), len(kept))
    assert np.array_equal(T, np.tril(T))
    assert np.all(np.diagonal(T) > 0.0)
    if not kept:
        return
    G_kept = G[np.ix_(kept, kept)]
    rhs = rng_for(len(kept)).standard_normal(len(kept))
    expected = np.linalg.solve(G_kept, rhs)
    bound = 1e-15 * np.linalg.cond(G_kept) * np.max(np.abs(expected))
    assert np.max(np.abs(dropped.solve_gram(rhs) - expected)) <= bound


def _near_dependent_gram():
    """A Gram whose column 2 is within 1e-5 of the span of columns 0 and 1,
    so that dropping it refactors the rows after it."""
    rng = rng_for(951)
    A = rng.standard_normal((20, 5))
    A[:, 2] = A[:, 0] + A[:, 1] + 1e-5 * rng.standard_normal(20)
    return A.T @ A


class TestFactorLayout:
    """Every factor owns its T: C-contiguous, read-only and never written after."""

    @staticmethod
    def _gram(seed=12, k=8):
        A = rng_for(seed).standard_normal((k + 40, k))
        return A.T @ A

    def _made_by(self, how):
        if how == "empty":
            return CholeskyFactor.empty()
        if how == "from_gram":
            return CholeskyFactor.from_gram(self._gram())
        if how == "append_column":
            G = self._gram()
            return CholeskyFactor.from_gram(G[:7, :7]).append_column(G[:, 7])
        G = _near_dependent_gram() if how == "refactor" else self._gram()
        asked = []

        def gram(rows, cols):
            asked.append(rows)
            return _by_position(G)(rows, cols)

        factor = CholeskyFactor.from_gram(G).drop_columns([2], gram)
        assert bool(asked) == (how == "refactor")
        return factor

    @pytest.mark.parametrize("how", ["empty", "from_gram", "append_column", "closed_form_drop",
                                     "refactor"])
    def test_T_is_contiguous_and_read_only(self, how):
        T = self._made_by(how).T
        assert T.flags.c_contiguous and T.flags.owndata
        assert not T.flags.writeable

    def test_appends_to_one_parent_change_no_factor(self):
        """Two appends to one factor, and an append to each child, leave
        the T of every factor as it was made."""
        G = self._gram(k=6)
        parent = CholeskyFactor.from_gram(G[:4, :4])
        before = parent.T.copy()
        a = parent.append_column(G[[0, 1, 2, 3, 4], 4])
        a_T = a.T.copy()
        b = parent.append_column(G[[0, 1, 2, 3, 5], 5])
        b_T = b.T.copy()
        a.append_column(G[:6, 5])
        b.append_column(G[[0, 1, 2, 3, 5, 4], 4])
        np.testing.assert_array_equal(parent.T, before)
        np.testing.assert_array_equal(a.T, a_T)
        np.testing.assert_array_equal(b.T, b_T)
        assert not np.array_equal(a_T, b_T)
        assert not np.shares_memory(a.T, b.T)
        np.testing.assert_array_equal(a_T[:4, :4], before)
        np.testing.assert_array_equal(b_T[:4, :4], before)

    @pytest.mark.parametrize("k", [1, 5, 60, 119])
    def test_solve_gram_is_two_products_with_T(self, k):
        G = self._gram(seed=k, k=k)
        factor = CholeskyFactor.from_gram(G)
        rhs = rng_for(k + 1).standard_normal(k)
        T = factor.T
        assert np.array_equal(factor.solve_gram(rhs).view(np.uint64),
                              (T.T @ (T @ rhs)).view(np.uint64))
