import concurrent.futures
import pickle
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import l1paths as lp
from l1paths import (
    CheckBudgetError,
    ConfigError,
    DataError,
    SignedSubset,
    TiedKnotError,
    check_condition,
    exhaustive_check,
    gen_sine,
    pc_gram,
    pc_inverse_gram,
    standardize,
)
from l1paths import monotone
from l1paths.linalg import PIVOT_RTOL
from oracles import first_violation_by_enumeration, orthonormal_design, rng_for


def pc_design_from_counts(counts, n):
    """Raw threshold-indicator columns with the given above-knot counts."""
    X = np.zeros((n, len(counts)))
    for j, c in enumerate(counts):
        X[n - c:, j] = 1.0
    return standardize(lp.Dataset(X=X, y=np.zeros(n) + np.arange(n)))


class TestCheckCondition:
    def test_orthonormal_any_signs_gives_ones(self):
        design = orthonormal_design(30, 4, seed=0)
        for signs in [(1, 1, 1, 1), (-1, 1, -1, 1), (-1, -1, -1, -1)]:
            rep = check_condition(design, SignedSubset((0, 1, 2, 3), signs))
            assert rep.passed
            np.testing.assert_allclose(rep.vector, np.full(4, 1.0 / 30), atol=1e-12)

    def test_sine_hinge_basis_known_violation(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        rep = check_condition(design, SignedSubset((3, 9, 8), (-1, 1, 1)))
        assert not rep.passed
        assert rep.vector.min() < 0

    def test_two_column_closed_form(self):
        # two standardized columns with correlation 1/2
        rng = rng_for(1)
        n = 400000
        z = rng.standard_normal((n, 2))
        X = np.column_stack([z[:, 0], 0.5 * z[:, 0] + np.sqrt(0.75) * z[:, 1]])
        design = standardize(lp.Dataset(X=X, y=np.zeros(n)))
        rep = check_condition(design, SignedSubset((0, 1), (1, 1)))
        corr = float(design.Xs[:, 0] @ design.Xs[:, 1]) / n
        # hand inversion of [[1, r], [r, 1]]: rows sum to 1/(1 + r)
        expected = 1.0 / (1.0 + corr) / n
        np.testing.assert_allclose(rep.vector, [expected, expected], rtol=1e-10)
        assert rep.passed

    def test_singular_subset_raises(self):
        rng = rng_for(2)
        x = rng.standard_normal(20)
        design = standardize(lp.Dataset(X=np.column_stack([x, 2 * x + 1e-9]), y=np.zeros(20)))
        with pytest.raises(lp.DegenerateDesignError):
            check_condition(design, SignedSubset((0, 1), (1, 1)))

    @pytest.mark.parametrize("indices", [(-1, 0), (0, 10), (0, 99)])
    def test_index_out_of_range_raises(self, indices):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        bad = indices[0] if indices[0] < 0 else indices[1]
        with pytest.raises(DataError, match=f"column index {bad} is out of range for 10"):
            check_condition(design, SignedSubset(indices, (1, 1)))

    def test_signed_subset_validation(self):
        with pytest.raises(ValueError):
            SignedSubset((0, 0), (1, 1))
        with pytest.raises(ValueError):
            SignedSubset((0, 1), (1, 2))


class TestExhaustiveCheck:
    def test_orthonormal_passes(self):
        design = orthonormal_design(40, 6, seed=3)
        rep = exhaustive_check(design)
        assert rep.passed
        assert rep.checked == 3**6 - 1

    def test_sine_step_basis_passes(self):
        design = standardize(gen_sine(basis="piecewise-constant", seed=0))
        rep = exhaustive_check(design)
        assert rep.passed
        assert rep.checked == 3**10 - 1

    def test_sine_hinge_basis_finds_violation(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        rep = exhaustive_check(design)
        assert not rep.passed
        assert rep.violation is not None
        confirm = check_condition(design, rep.violation)
        assert not confirm.passed
        np.testing.assert_allclose(confirm.vector, rep.vector, atol=1e-12)

    def test_budget_guard_refuses_with_count(self):
        design = orthonormal_design(40, 6, seed=3)
        with pytest.raises(CheckBudgetError) as err:
            exhaustive_check(design, check_budget=100)
        assert "728" in str(err.value)  # 3^6 - 1 signed subsets

    @pytest.mark.parametrize("size", [0, -2])
    def test_empty_search_refused(self, size):
        design = orthonormal_design(40, 6, seed=3)
        with pytest.raises(ConfigError, match="max_subset_size must be at least 1"):
            exhaustive_check(design, max_subset_size=size)

    def test_search_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search started a process pool")

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
        monkeypatch.setenv("L1PATHS_THREADS", "2")
        design = pc_design_from_counts(range(14, 2, -1), 20)  # 12 knots: C(12, 4) = 495 subsets
        expected = sum(comb(12, k) * 2**k for k in range(1, 5))
        for kwargs in ({"workers": 2}, {}):
            rep = exhaustive_check(design, max_subset_size=4, **kwargs)
            assert (rep.passed, rep.violation, rep.vector, rep.checked) == (True, None, None, expected)

    def test_workers_agree_with_sequential(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        seq = exhaustive_check(design, workers=1)
        par = exhaustive_check(design, workers=2)
        assert seq.passed == par.passed
        assert seq.violation == par.violation

    def test_worker_count_from_environment(self, monkeypatch):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        monkeypatch.setenv("L1PATHS_THREADS", "2")
        par = exhaustive_check(design)
        seq = exhaustive_check(design, workers=1)
        assert par.violation == seq.violation

    def test_random_threshold_designs_always_pass(self):
        rng = rng_for(4)
        for _ in range(100):
            n = int(rng.integers(20, 80))
            k = int(rng.integers(1, 9))
            counts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))[::-1]
            design = pc_design_from_counts(counts, n)
            assert exhaustive_check(design).passed

    def test_passing_design_implies_coinciding_monotone_paths(self):
        # a clean search certifies that all three solvers trace one path
        from l1paths import SolverConfig, collapse, solve_path
        from oracles import sup_distance

        rng = rng_for(6)
        for trial in range(5):
            n = int(rng.integers(25, 60))
            k = int(rng.integers(2, 7))
            counts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))[::-1]
            X = np.zeros((n, k))
            for j, c in enumerate(counts):
                X[n - c:, j] = 1.0
            y = rng.standard_normal(n)
            design = standardize(lp.Dataset(X=X, y=y))
            assert exhaustive_check(design).passed
            paths = [solve_path(design.expanded(), SolverConfig(mode=m))
                     for m in ("lar", "lasso", "fs0")]
            assert sup_distance(paths[0], paths[1], points=400) <= 1e-8
            assert sup_distance(paths[0], paths[2], points=400) <= 1e-8
            for path in paths:
                steps = np.diff(collapse(path.vertices), axis=0)
                up = (steps >= -1e-10).all(axis=0)
                down = (steps <= 1e-10).all(axis=0)
                assert np.all(up | down)


def search_designs():
    """40 seeded designs, p from 3 to 10: Gaussian, correlated, |X|, step and hinge bases."""
    designs = []
    for i in range(8):
        p = 3 + i
        rng = rng_for(700 + i)
        X = rng.standard_normal((30, p))
        corr = X.copy()
        corr[:, 1:] += 0.9 * corr[:, :1]
        y = rng.standard_normal(30)
        for kind, Z in (("gaussian", X), ("correlated", corr), ("abs", np.abs(X))):
            designs.append((f"{kind}-{p}", standardize(lp.Dataset(X=Z, y=y))))
        knots = np.sort(rng.choice(np.arange(1, 20), size=p, replace=False)) / 20.0
        for basis in ("piecewise-constant", "piecewise-linear"):
            data = gen_sine(n=60, basis=basis, knots=tuple(knots), seed=i)
            designs.append((f"{basis}-{p}", standardize(data)))
    return designs


SEARCH_DESIGNS = search_designs()
SEARCH_IDS = [name for name, _ in SEARCH_DESIGNS]


def same_report(a, b):
    return (a.passed == b.passed and a.violation == b.violation and a.checked == b.checked
            and (a.vector is None) == (b.vector is None)
            and (a.vector is None or np.array_equal(a.vector, b.vector)))


def hadamard_design():
    """Orthogonal integer columns plus the sum of the first two.

    Columns (0, 1, 6) have an exactly singular Gram matrix and no signed
    subset before them in canonical order violates the condition.
    """
    H = np.array([[1.0]])
    for _ in range(3):
        H = np.block([[H, H], [H, -H]])
    X = np.column_stack([H[:, 1:7], H[:, 1] + H[:, 2]])
    return lp.StandardizedDesign(Xs=X, centers=np.zeros(7), scales=np.ones(7),
                                 y_centered=np.zeros(8), y_mean=0.0)


def inv_fails(a):
    try:
        np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return True
    return False


def singular_triple_designs(count):
    """Integer designs whose columns (4, 5, 6) are exactly dependent, no pair singular."""
    rng = np.random.default_rng(0)
    designs = []
    while len(designs) < count:
        A = rng.integers(-3, 4, size=(12, 6)).astype(float)
        X = np.column_stack([A, A[:, 4] + A[:, 5]])
        G = X.T @ X
        singular = [inv_fails(G[np.ix_(idx, idx)])
                    for idx in [(4, 5, 6)] + list(combinations(range(7), 2))]
        if singular[0] and not any(singular[1:]):
            designs.append(lp.StandardizedDesign(Xs=X, centers=np.zeros(7), scales=np.ones(7),
                                                 y_centered=np.zeros(12), y_mean=0.0))
    return designs


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,design", SEARCH_DESIGNS, ids=SEARCH_IDS)
    def test_matches_enumeration(self, name, design, workers):
        ref = first_violation_by_enumeration(design, design.p)
        rep = exhaustive_check(design, workers=workers)
        assert (rep.passed, rep.violation, rep.checked) == (ref.passed, ref.violation, ref.checked)
        if ref.vector is None:
            assert rep.vector is None
        else:
            np.testing.assert_allclose(rep.vector, ref.vector,
                                       rtol=1e-10, atol=1e-10 * np.abs(ref.vector).max())

    def test_designs_cover_passes_and_violation_sizes(self):
        reports = [exhaustive_check(d) for _, d in SEARCH_DESIGNS]
        assert any(r.passed for r in reports)
        sizes = {len(r.violation.indices) for r in reports if not r.passed}
        assert sizes == {3, 4, 5, 6}

    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_batch_size_does_not_change_report(self, batch, monkeypatch):
        default = [exhaustive_check(d) for _, d in SEARCH_DESIGNS]
        monkeypatch.setattr(monotone, "_CHUNK", batch)
        for (name, design), ref in zip(SEARCH_DESIGNS, default):
            assert same_report(exhaustive_check(design), ref), name
        pooled = exhaustive_check(SEARCH_DESIGNS[-1][1], workers=2)
        assert same_report(pooled, default[-1])


class TestSearchErrors:
    @pytest.mark.parametrize("batch", [None, 1, 7])
    def test_pool_agrees_with_serial_on_singular_subsets(self, batch, monkeypatch):
        # A later chunk's singular subset must not hide an earlier violation.
        if batch is not None:
            monkeypatch.setattr(monotone, "_CHUNK", batch)
        for design in singular_triple_designs(6):
            outcomes = []
            for workers in (1, 2):
                try:
                    rep = exhaustive_check(design, max_subset_size=4, workers=workers)
                    outcomes.append((rep.passed, rep.violation, rep.vector.tolist()))
                except lp.DegenerateDesignError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]

    def test_search_refuses_violation_on_numerically_singular_subset(self):
        # inv succeeds on this pair's Gram block and gives a "violation" of
        # about -5.6e14; the pivot rule refuses the pair in both calls.
        x = rng_for(2).standard_normal(20)
        design = standardize(lp.Dataset(X=np.column_stack([x, 2 * x + 1e-9]), y=np.zeros(20)))
        with pytest.raises(lp.DegenerateDesignError) as err:
            exhaustive_check(design)
        assert str(err.value) == "columns (0, 1) have a singular Gram matrix"
        with pytest.raises(lp.DegenerateDesignError) as same:
            check_condition(design, SignedSubset((0, 1), (1, -1)))
        assert str(same.value) == str(err.value)

    def test_pivot_rule_decides_singular_subsets(self):
        # The pair's second Cholesky pivot is positive, so np.linalg.cholesky
        # accepts its Gram block, but it is below PIVOT_RTOL times the Gram
        # diagonal n: the search and check_condition both refuse the pair,
        # whatever the order of its indices.
        x, z = rng_for(3).standard_normal((2, 20))
        design = standardize(lp.Dataset(X=np.column_stack([x, x + 3e-7 * z]), y=np.zeros(20)))
        G = design.Xs.T @ design.Xs
        assert 0.0 < G[1, 1] - G[0, 1] ** 2 / G[0, 0] < PIVOT_RTOL * 20
        np.linalg.cholesky(G)
        with pytest.raises(lp.DegenerateDesignError) as err:
            exhaustive_check(design)
        assert str(err.value) == "columns (0, 1) have a singular Gram matrix"
        for signs in [(1, 1), (1, -1)]:
            with pytest.raises(lp.DegenerateDesignError) as same:
                check_condition(design, SignedSubset((0, 1), signs))
            assert str(same.value) == str(err.value)
        with pytest.raises(lp.DegenerateDesignError, match=r"columns \(1, 0\) have a singular"):
            check_condition(design, SignedSubset((1, 0), (1, 1)))

    @pytest.mark.parametrize("batch", [None, 1, 2, 7])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_singular_subset_raises_with_its_columns(self, workers, batch, monkeypatch):
        if batch is not None:
            monkeypatch.setattr(monotone, "_CHUNK", batch)
        with pytest.raises(lp.DegenerateDesignError) as err:
            exhaustive_check(hadamard_design(), workers=workers)
        assert str(err.value) == "columns (0, 1, 6) have a singular Gram matrix"

    def test_errors_survive_pickling(self):
        errors = [
            lp.DegenerateDesignError(message="columns (4, 5, 6) have a singular Gram matrix"),
            lp.DegenerateDesignError(column=3),
            lp.DegenerateDesignError(),
            lp.ZeroVarianceError(2),
            lp.ZeroVarianceError(2, name="x2"),
            lp.EmptyColumnError(0.5, "knot 0.5 gives an all-zero column"),
            lp.StepBudgetError("step budget reached", path=[1, 2]),
        ]
        for err in errors:
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err)
            assert str(back) == str(err)
            assert vars(back) == vars(err)


def correlated_blocks(seed, n, blocks, size, rho):
    """Blocks of columns that share one Gaussian factor each, so that two
    columns of a block have correlation about ``rho``."""
    rng = rng_for(seed)
    cols = []
    for _ in range(blocks):
        z = rng.standard_normal(n)
        cols += [z + np.sqrt(1.0 / rho - 1.0) * rng.standard_normal(n) for _ in range(size)]
    return standardize(lp.Dataset(X=np.column_stack(cols), y=np.zeros(n)))


class TestAdversarialSearch:
    @pytest.mark.parametrize("rho", [0.999, 0.9999])
    @pytest.mark.parametrize("blocks,size", [(1, 7), (2, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correlated_blocks_match_enumeration(self, rho, blocks, size, seed):
        design = correlated_blocks(seed, 40, blocks, size, rho)
        corr = design.Xs.T @ design.Xs / 40
        assert min(corr[b * size:(b + 1) * size, b * size:(b + 1) * size].min()
                   for b in range(blocks)) >= 0.99
        ref = first_violation_by_enumeration(design, design.p)
        rep = exhaustive_check(design)
        assert (rep.passed, rep.violation, rep.checked) == (ref.passed, ref.violation, ref.checked)
        if ref.vector is None:
            assert rep.vector is None
        else:
            np.testing.assert_allclose(rep.vector, ref.vector,
                                       rtol=1e-10, atol=1e-10 * np.abs(ref.vector).max())

    @pytest.mark.parametrize("copy", [1.0, -1.0], ids=["duplicated", "negated"])
    def test_copied_column_raises_naming_the_pair(self, copy):
        # Standardized pairs never violate, so the search reaches the pair.
        X = rng_for(8).standard_normal((30, 5))
        X[:, 3] = copy * X[:, 1]
        design = standardize(lp.Dataset(X=X, y=np.zeros(30)))
        with pytest.raises(lp.DegenerateDesignError) as err:
            exhaustive_check(design)
        assert str(err.value) == "columns (1, 3) have a singular Gram matrix"
        with pytest.raises(lp.DegenerateDesignError) as same:
            check_condition(design, SignedSubset((1, 3), (1, 1)))
        assert str(same.value) == str(err.value)

    def test_more_columns_than_rows(self):
        # Centering leaves n - 1 dimensions, so the first n columns are the
        # first singular subset. The full search raises there unless a
        # smaller subset violates first, as the enumeration up to size
        # n - 1 decides.
        outcomes = set()
        for n, p, seed in [(6, 8, 0), (6, 8, 1), (6, 8, 2), (3, 4, 0)]:
            X = rng_for(900 + seed).standard_normal((n, p))
            design = standardize(lp.Dataset(X=X, y=np.zeros(n)))
            ref = first_violation_by_enumeration(design, n - 1)
            if ref.passed:
                with pytest.raises(lp.DegenerateDesignError) as err:
                    exhaustive_check(design)
                assert str(err.value) == f"columns {tuple(range(n))} have a singular Gram matrix"
            else:
                rep = exhaustive_check(design)
                assert (rep.passed, rep.violation) == (False, ref.violation)
                np.testing.assert_allclose(rep.vector, ref.vector,
                                           rtol=1e-10, atol=1e-10 * np.abs(ref.vector).max())
            outcomes.add(ref.passed)
        assert outcomes == {True, False}

    def test_search_memory_is_bounded(self):
        # 21,699 subsets of size at most 5 over 20 step columns; the search
        # keeps one size's factors and one chunk, not every subset's.
        design = pc_design_from_counts(range(290, 10, -14), 300)
        exhaustive_check(design, max_subset_size=5)
        tracemalloc.start()
        try:
            rep = exhaustive_check(design, max_subset_size=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 4 * 2**20


class TestAnalyticGram:
    def test_single_knot(self):
        np.testing.assert_array_equal(pc_gram([5], 10), [[1.0]])
        np.testing.assert_allclose(pc_inverse_gram([5], 10), [[1.0]], atol=1e-15)

    def test_two_knot_small_case_matches_empirical(self):
        design = pc_design_from_counts([3, 1], 4)
        emp = design.Xs.T @ design.Xs / 4
        np.testing.assert_allclose(pc_gram([3, 1], 4), emp, atol=1e-12)
        assert pc_gram([3, 1], 4)[0, 1] == pytest.approx(1.0 / 3.0)

    def test_sine_grid_matches_empirical(self):
        x = np.linspace(0, 1, 300)
        counts = [(x > t).sum() for t in np.arange(10) * 0.1]
        design = standardize(gen_sine(basis="piecewise-constant", seed=0))
        emp = design.Xs.T @ design.Xs / 300
        np.testing.assert_allclose(pc_gram(counts, 300), emp, atol=1e-12)

    def test_inverse_product_is_identity(self):
        rng = rng_for(5)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 7))
            counts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))[::-1]
            G = pc_gram(counts, n)
            M = pc_inverse_gram(counts, n)
            np.testing.assert_allclose(M @ G, np.eye(k), atol=1e-9)

    def test_inverse_structure(self):
        counts = [40, 30, 22, 9, 2]
        M = pc_inverse_gram(counts, 50)
        band = np.triu(np.tril(M, 1), -1)
        np.testing.assert_array_equal(M, band)  # tridiagonal
        off = M - np.diag(np.diag(M))
        assert off.max() <= 0.0
        assert (M @ np.ones(5)).min() >= -1e-10

    def test_scalar_midpoint_inequality(self):
        # two-point distribution bound behind the row-sum positivity
        a, b = 0.25, 4.0
        value = 1.0 - np.sqrt(a) * (b - 1) / (b - a) - np.sqrt(b) * (1 - a) / (b - a)
        assert value == pytest.approx(0.2)
        assert value >= 0.0

    def test_degenerate_counts_rejected(self):
        with pytest.raises(DataError):
            pc_gram([0, 1], 10)
        with pytest.raises(DataError):
            pc_gram([10], 10)
        with pytest.raises(TiedKnotError):
            pc_inverse_gram([5, 5], 10)
