import numpy as np
import pytest

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


class TestCholeskyFactor:
    def test_orthogonal_append_is_block_diagonal(self):
        factor = CholeskyFactor.from_gram(np.eye(3))
        new = factor.append_column(np.array([0.0, 0.0, 0.0, 4.0]))
        expected = np.diag([1.0, 1.0, 1.0, 2.0])
        np.testing.assert_allclose(new.L, expected, atol=1e-14)

    def test_drop_then_append_restores(self):
        rng = rng_for(5)
        A = rng.standard_normal((20, 4))
        gram = A.T @ A
        factor = CholeskyFactor.from_gram(gram)
        dropped = factor.drop_column(3)
        restored = dropped.append_column(gram[:, 3])
        np.testing.assert_allclose(restored.L, factor.L, atol=1e-10)

    def test_interior_drop_reproduces_gram(self):
        rng = rng_for(6)
        A = rng.standard_normal((20, 5))
        gram = A.T @ A
        factor = CholeskyFactor.from_gram(gram).drop_column(2)
        keep = [0, 1, 3, 4]
        np.testing.assert_allclose(factor.gram(), gram[np.ix_(keep, keep)], atol=1e-10)

    def test_five_appends_match_fresh_factorization(self):
        rng = rng_for(8)
        A = rng.standard_normal((20, 5))
        gram = A.T @ A
        factor = CholeskyFactor.empty()
        for j in range(5):
            factor = factor.append_column(gram[: j + 1, j])
        fresh = np.linalg.cholesky(gram)
        np.testing.assert_allclose(factor.L, fresh, atol=1e-9)
        np.testing.assert_allclose(factor.gram(), gram, rtol=1e-10)

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
    """Appends and drops keep T = L^-1 and L L^T = G on the kept columns."""

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
                    factor = factor.drop_column(i)
                    cols.pop(i)
                else:
                    gone = rng.choice(len(cols), int(rng.integers(1, 4)), replace=False)
                    factor = factor.drop_columns(gone)
                    cols = [c for i, c in enumerate(cols) if i not in gone]
                L, T = factor.L, factor.T
                kept = G[np.ix_(cols, cols)]
                scale = np.linalg.norm(T, 2) * np.linalg.norm(L, 2) if cols else 1.0
                assert np.max(np.abs(T @ L - np.eye(len(cols))), initial=0.0) <= 1e-12 * scale
                assert np.max(np.abs(L @ L.T - kept), initial=0.0) <= (
                    1e-12 * np.max(np.abs(kept), initial=0.0))
                assert np.array_equal(T, np.tril(T))

    def test_drop_columns_equals_single_drops(self):
        rng = rng_for(950)
        A = rng.standard_normal((20, 8))
        factor = CholeskyFactor.from_gram(A.T @ A)
        one_by_one = factor.drop_column(6).drop_column(4).drop_column(1)
        at_once = factor.drop_columns([1, 4, 6])
        np.testing.assert_allclose(at_once.L, one_by_one.L, rtol=0, atol=1e-12)
        with pytest.raises(IndexError):
            factor.drop_columns([8])

