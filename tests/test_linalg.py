import numpy as np
import pytest

from l1paths import (
    CholeskyFactor,
    DegenerateDesignError,
    SolverStallError,
    solve_least_squares,
    solve_nnls,
    solve_nnls_gram,
)
from oracles import ls_by_gram_inverse, nnls_by_enumeration, rng_for


class TestLeastSquares:
    def test_identity_1x1(self):
        theta = solve_least_squares(np.eye(1), np.array([3.0]))
        assert theta == pytest.approx([3.0])

    def test_orthonormal_columns_give_projection(self):
        rng = rng_for(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        b = rng.standard_normal(4)
        theta = solve_least_squares(q, b)
        np.testing.assert_allclose(theta, q.T @ b, atol=1e-12)

    def test_matches_gram_inverse_oracle(self):
        rng = rng_for(42)
        A = rng.standard_normal((20, 5))
        A = (A - A.mean(0)) / A.std(0)
        b = rng.standard_normal(20)
        theta = solve_least_squares(A, b)
        np.testing.assert_allclose(theta, ls_by_gram_inverse(A, b), atol=1e-9)

    def test_residual_orthogonality(self):
        for seed in range(25):
            rng = rng_for(seed)
            A = rng.standard_normal((15, 4))
            b = rng.standard_normal(15)
            theta = solve_least_squares(A, b)
            resid = b - A @ theta
            bound = 1e-9 * np.linalg.norm(b) * np.max(np.linalg.norm(A, axis=0))
            assert np.max(np.abs(A.T @ resid)) <= bound

    def test_duplicate_column_names_offender(self):
        rng = rng_for(1)
        a = rng.standard_normal(10)
        A = np.column_stack([a, a])
        with pytest.raises(DegenerateDesignError) as err:
            solve_least_squares(A, rng.standard_normal(10), column_names=["u", "v"])
        assert err.value.column == 1
        assert "v" in str(err.value)


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

    def test_stall_error_on_tiny_budget(self):
        rng = rng_for(7)
        A = rng.standard_normal((10, 6))
        b = A @ np.abs(rng.standard_normal(6)) + 0.1 * rng.standard_normal(10)
        with pytest.raises(SolverStallError):
            solve_nnls(A, b, max_pivots=1)


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
    """``CholeskyFactor.admits`` decides every candidate as ``append_column`` does."""

    def _candidates(self, rng, A):
        n, k = A.shape
        cols = []
        for _ in range(4):
            combo = A @ rng.standard_normal(k)
            cols += [combo, -combo, combo + 1e-7 * rng.standard_normal(n),
                     combo + 1e-4 * rng.standard_normal(n)]
        cols += [-A[:, j] for j in range(k)] + [A[:, 0]]
        cols += [rng.standard_normal(n) for _ in range(4)]
        return np.column_stack(cols)

    def _appends(self, factor, gram_row):
        try:
            factor.append_column(gram_row)
        except DegenerateDesignError:
            return False
        return True

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_append_column(self, seed):
        rng = rng_for(700 + seed)
        A = rng.standard_normal((12, 6)) * rng.uniform(0.1, 10.0, 6)
        B = self._candidates(rng, A)
        for k in (0, 3, 6):
            factor = CholeskyFactor.from_gram(A[:, :k].T @ A[:, :k])
            rows = np.vstack([A[:, :k].T @ B, np.sum(B * B, axis=0)])
            expected = [self._appends(factor, rows[:, i]) for i in range(B.shape[1])]
            assert factor.admits(rows).tolist() == expected
            if k == 6:  # every combination and copy is rejected, the rest accepted
                assert expected.count(True) == 4 + 4
        with pytest.raises(ValueError):
            factor.admits(rows[:-1])


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


class TestNNLSWarmStart:
    def test_initial_support_gives_the_same_theta(self):
        """A random warm start reaches the cold start's theta where the optimum is
        unique (full column rank), and its objective where it is not (m < n)."""
        for seed in range(1000):
            rng = rng_for(seed)
            m = int(rng.integers(3, 9))
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            G, c = A.T @ A, A.T @ b
            cold = solve_nnls_gram(G, c)
            support = list(rng.permutation(n)[: int(rng.integers(0, n + 1))])
            warm = solve_nnls_gram(G, c, initial_support=support)
            if m >= n:
                np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12)
            else:
                r_warm, r_cold = b - A @ warm, b - A @ cold
                assert abs(r_warm @ r_warm - r_cold @ r_cold) <= 1e-12 * (b @ b)
