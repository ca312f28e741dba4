import dataclasses
import warnings

import numpy as np
import pytest

import l1paths as lp
from l1paths import (
    DataError,
    Dataset,
    SolverConfig,
    ZeroVarianceError,
    gen_sine,
    solve_path,
    standardize,
)
from oracles import gaussian_instance, rng_for


def _raw(design):
    """The standardized columns and centered response of an instance, as raw data."""
    return Dataset(X=np.array(design.Xs), y=design.y_centered)


RESPONSE_SCALES = {
    "gaussian_30x8": lambda: _raw(gaussian_instance(30, 8, seed=0)),
    "gaussian_10x20": lambda: _raw(gaussian_instance(10, 20, seed=0)),
    "sine_step": lambda: gen_sine(basis="piecewise-constant", seed=0),
    "sine_hinge": lambda: gen_sine(seed=0),
}


class TestStandardize:
    def test_three_point_column(self):
        data = Dataset(X=np.array([[1.0], [2.0], [3.0]]), y=np.zeros(3))
        design = standardize(data)
        np.testing.assert_allclose(
            design.Xs[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4
        )
        assert abs(design.Xs[:, 0].mean()) <= 1e-12
        assert abs((design.Xs[:, 0] ** 2).mean() - 1.0) <= 1e-10

    def test_idempotent_on_standardized_column(self):
        rng = rng_for(0)
        x = rng.standard_normal(50)
        x = (x - x.mean()) / np.sqrt(((x - x.mean()) ** 2).mean())
        design = standardize(Dataset(X=x[:, None], y=rng.standard_normal(50)))
        np.testing.assert_allclose(design.Xs[:, 0], x, atol=1e-12)

    def test_sine_design_columns_pass_invariants(self):
        design = standardize(gen_sine(seed=0))
        assert design.Xs.shape == (300, 10)
        assert np.max(np.abs(design.Xs.mean(axis=0))) <= 1e-12
        assert np.max(np.abs((design.Xs**2).mean(axis=0) - 1.0)) <= 1e-10

    def test_constant_column_names_offender(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ZeroVarianceError) as err:
            standardize(Dataset(X=X, y=np.zeros(5), feature_names=["a", "b"]))
        assert err.value.column == 1
        assert "b" in str(err.value)

    @pytest.mark.parametrize("k", [-13, -12, 0, 12])
    def test_column_scale_does_not_decide_constancy(self, k):
        data = gen_sine(seed=0)
        ref = standardize(data)
        design = standardize(Dataset(X=data.X * 10.0**k, y=data.y))
        np.testing.assert_allclose(design.Xs, ref.Xs, rtol=0, atol=1e-12)
        lasso = SolverConfig(mode="lasso")
        events = [(e.kind, e.index) for e in solve_path(design.expanded(), lasso).events]
        assert events == [(e.kind, e.index) for e in solve_path(ref.expanded(), lasso).events]

    @pytest.mark.parametrize("value", [0.0, 2.0, -3.0, 1e300, -1e300, 1e-300, 1e-310])
    @pytest.mark.parametrize("n", [5, 7, 20])
    def test_constant_column_of_any_size_names_offender(self, value, n):
        X = np.column_stack([np.arange(float(n)), np.full(n, value), np.arange(float(n))])
        with pytest.raises(ZeroVarianceError) as err:
            standardize(Dataset(X=X, y=np.zeros(n), feature_names=["a", "b", "c"]))
        assert err.value.column == 1
        assert "b" in str(err.value)

    @pytest.mark.parametrize("value", [1e300, 1e-300])
    def test_varying_column_beyond_double_range_raises(self, value):
        X = np.column_stack([np.arange(20.0), value * (1.0 + np.arange(20.0))])
        with pytest.raises(DataError, match="column 1: its variance over- or underflows"):
            standardize(Dataset(X=X, y=np.zeros(20)))

    def test_column_scaled_by_power_of_two(self):
        """Scaling one X column by 2^k, for every k that keeps it finite,
        gives the unscaled design's Xs bit for bit, or DataError with no
        warning. A column whose mean square is subnormal is refused, as its
        squares have lost digits, and so is one whose spread, center or mean
        square overflows (at k = 1022)."""
        rng = rng_for(0)
        X, y = rng.standard_normal((30, 8)), rng.standard_normal(30)
        plain = standardize(Dataset(X=X, y=y)).Xs
        accepted = []
        for k in range(-1074, 1024):
            with np.errstate(over="ignore"):
                column = np.ldexp(X[:, 3], k)
            if not np.isfinite(column).all():
                continue
            scaled = X.copy()
            scaled[:, 3] = column
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    Xs = standardize(Dataset(X=scaled, y=y)).Xs
                except DataError as err:
                    assert str(err).startswith("cannot standardize column 3: "), k
                    continue
            assert np.array_equal(Xs, plain), k
            accepted.append(k)
        assert accepted == list(range(-511, 510))

    @pytest.mark.parametrize("y", [
        np.ldexp(np.arange(20.0), 600),  # the sum of squares overflows
        np.ldexp(np.arange(20.0), -600),  # and underflows to zero
        np.ldexp(np.arange(20.0), -540),  # to a subnormal
        np.array([1.7e308] * 10 + [0.0] * 10),  # the mean overflows
    ])
    def test_response_beyond_double_range_raises(self, y):
        X = np.column_stack([np.arange(20.0), np.arange(20.0) ** 2])
        with pytest.raises(DataError, match="response: its sum of squares over- or underflows"):
            standardize(Dataset(X=X, y=y))

    @pytest.mark.parametrize("value", [0.0, 2.0**1000])
    def test_response_centered_to_zero_is_accepted(self, value):
        X = np.column_stack([np.arange(20.0), np.arange(20.0) ** 2])
        design = standardize(Dataset(X=X, y=np.full(20, value)))
        assert not design.y_centered.any()

    @pytest.mark.parametrize("name", sorted(RESPONSE_SCALES))
    def test_path_follows_response_scaled_by_power_of_two(self, name):
        """Scaling y by 2^k is exact and every tolerance is relative, so for
        each k in the double range ``standardize`` refuses the scaled
        response or every mode's path is 2^k times the unscaled one, bit for
        bit. The refused k lie outside one interval that holds [-500, 500];
        paths are compared at every eighth accepted k and at its six
        outermost on each side."""
        data = RESPONSE_SCALES[name]()
        modes = ("lar", "lasso", "fs0")
        plain = {mode: solve_path(standardize(data), SolverConfig(mode=mode)) for mode in modes}
        accepted = {}
        for k in range(-1074, 1024):
            with np.errstate(over="ignore"):
                y = np.ldexp(data.y, k)
            try:
                accepted[k] = standardize(Dataset(X=data.X, y=y))
            except DataError:
                pass
        ks = sorted(accepted)
        assert ks == list(range(ks[0], ks[-1] + 1)) and ks[0] <= -500 and ks[-1] >= 500
        for k in sorted(set(ks[::8] + ks[:6] + ks[-6:])):
            for mode in modes:
                path = solve_path(accepted[k], SolverConfig(mode=mode))
                assert np.array_equal(path.vertices, np.ldexp(plain[mode].vertices, k)), (k, mode)
                assert np.array_equal(path.breakpoints, np.ldexp(plain[mode].breakpoints, k))

    def test_invertible_via_stored_statistics(self):
        rng = rng_for(4)
        X = 3.0 + 2.5 * rng.standard_normal((30, 3))
        design = standardize(Dataset(X=X, y=rng.standard_normal(30)))
        rebuilt = design.Xs * design.scales + design.centers
        np.testing.assert_allclose(rebuilt, X, atol=1e-12)

    def test_original_scale_roundtrip_predictions(self):
        rng = rng_for(5)
        X = 1.0 + 2.0 * rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        design = standardize(Dataset(X=X, y=y))
        coef = rng.standard_normal(4)
        b, intercept = design.to_original_scale(coef)
        np.testing.assert_allclose(
            design.Xs @ coef + design.y_mean, X @ b + intercept, atol=1e-10
        )


class TestExpandedDesign:
    def test_mirror_columns_exact(self):
        design = standardize(Dataset(X=rng_for(1).standard_normal((10, 3)),
                                     y=rng_for(2).standard_normal(10)))
        ed = design.expanded()
        for j in range(3):
            assert np.array_equal(ed.column(3 + j), -ed.column(j))

    def test_correlations_mirror_exact(self):
        design = standardize(Dataset(X=rng_for(3).standard_normal((10, 3)),
                                     y=rng_for(4).standard_normal(10)))
        ed = design.expanded()
        c = ed.correlations(design.y_centered)
        assert np.array_equal(c[3:], -c[:3])

    def test_predict_uses_paired_difference(self):
        design = standardize(Dataset(X=rng_for(5).standard_normal((10, 2)),
                                     y=rng_for(6).standard_normal(10)))
        ed = design.expanded()
        beta = np.array([0.5, 0.0, 0.2, 1.0])
        np.testing.assert_allclose(
            ed.predict(beta), design.Xs @ np.array([0.3, -1.0]), atol=1e-15
        )

    def test_gram_entries_signs(self):
        design = standardize(Dataset(X=rng_for(7).standard_normal((12, 3)),
                                     y=rng_for(8).standard_normal(12)))
        ed = design.expanded()
        g = ed.base.gram
        np.testing.assert_allclose(ed.gram_entries(4, [0, 1, 2]), -g[1], atol=0)
        np.testing.assert_allclose(ed.gram_entries(4, [3, 4, 5]), g[1], atol=0)


class _CountingXs(np.ndarray):
    """Standardized columns that count the p x p products formed from them."""

    p = 0
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(x.view(np.ndarray) if isinstance(x, _CountingXs) else x for x in inputs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            self._count(result)
        return result

    def dot(self, other, out=None):
        result = self.view(np.ndarray).dot(other, out)
        self._count(result)
        return result

    @classmethod
    def _count(cls, result):
        if np.shape(result) == (cls.p, cls.p):
            cls.products += 1


class TestOneGram:
    """A design forms X'X once, for every solver that reads it."""

    @pytest.fixture
    def design(self):
        X, y = rng_for(11).standard_normal((30, 6)), rng_for(12).standard_normal(30)
        return standardize(Dataset(X=X, y=y))

    def test_every_reader_shares_one_product(self, design, monkeypatch):
        monkeypatch.setattr(_CountingXs, "p", design.p)
        monkeypatch.setattr(_CountingXs, "products", 0)
        counting = dataclasses.replace(design, Xs=design.Xs.view(_CountingXs))
        for mode in ("lar", "lasso", "fs0"):
            plain = solve_path(design, SolverConfig(mode=mode))
            for view in (counting.expanded(), counting.expanded()):
                assert np.array_equal(solve_path(view, SolverConfig(mode=mode)).vertices,
                                      plain.vertices)
        lp.monotone_incremental(counting, lp.StagewiseConfig(epsilon=0.05, max_iterations=200))
        lp.exhaustive_check(counting, max_subset_size=3)
        lp.check_condition(counting, lp.SignedSubset(indices=(0, 4), signs=(1, -1)))
        lp.check_condition(counting, lp.SignedSubset(indices=(1, 2, 5), signs=(1, 1, -1)))
        assert _CountingXs.products == 1
        assert np.array_equal(counting.gram, design.Xs.T @ design.Xs)

    def test_gram_route_design_holds_one_gram(self):
        """A design whose decay rates come from its Gram caches that Gram and
        the route's verdict beside its fields, and no other matrix."""
        design = standardize(gen_sine(basis="piecewise-constant", seed=0))
        for mode in ("lar", "lasso", "fs0"):
            solve_path(design, SolverConfig(mode=mode))
        lp.check_condition(design, lp.SignedSubset(indices=(0, 4), signs=(1, -1)))
        lp.monotone_incremental(design, lp.StagewiseConfig(epsilon=0.05, max_iterations=200))
        assert design.gram_decays
        fields = {f.name for f in dataclasses.fields(design)}
        assert set(vars(design)) == fields | {"gram", "gram_decays"}

    def test_columns_and_gram_refuse_writes(self, design):
        with pytest.raises(ValueError, match="read-only"):
            design.Xs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            design.gram[0, 0] = 1.0


class TestSignedGramGather:
    """``gram_entries`` is the base Gram entry with the signs of both expanded
    columns written out, bit for bit, as a block and as one row."""

    P = 5

    @staticmethod
    def _explicit(g, p, rows, cols):
        sign = {False: 1.0, True: -1.0}  # by whether the column is mirrored
        return np.array([[sign[a >= p] * sign[b >= p] * g[a % p, b % p] for b in cols]
                         for a in rows])

    @pytest.fixture
    def ed(self):
        X, y = rng_for(9).standard_normal((14, self.P)), rng_for(10).standard_normal(14)
        return standardize(Dataset(X=X, y=y)).expanded()

    @pytest.mark.parametrize("rows, cols", [
        ([0, 7, 3, 9], [8, 1, 5, 4, 6]),  # the NNLS block: plain and mirrored both ways
        ([6], [2, 7]),
        ([1, 8], []),
        ([], [3, 8]),
    ])
    def test_block(self, ed, rows, cols):
        block = ed.gram_entries(np.array(rows, dtype=int), np.array(cols, dtype=int))
        expected = self._explicit(ed.base.gram, self.P, rows, cols).reshape(len(rows), len(cols))
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("row, cols", [(7, [0, 7, 3, 9]), (2, [8, 1, 2]), (9, [])])
    def test_one_row(self, ed, row, cols):
        entries = ed.gram_entries(row, cols)
        expected = self._explicit(ed.base.gram, self.P, [row], cols).reshape(len(cols))
        assert entries.shape == (len(cols),)
        assert np.array_equal(entries, expected)

    def test_append_factor_row(self, ed, monkeypatch):
        """The row the engine appends to its factor for a joining column."""
        seen = []
        append = lp.CholeskyFactor.append_column

        def recording(factor, row):
            seen.append(row)
            return append(factor, row)

        monkeypatch.setattr(lp.CholeskyFactor, "append_column", recording)
        active = np.array([7, 1, 3])
        factor, joined, refused = lp.linalg.append_columns(
            ed.gram_entries, lp.CholeskyFactor.empty(), active[:0], active)
        assert np.array_equal(joined, active) and refused == [] and factor.size == 3
        assert len(seen) == 3
        for k, row in enumerate(seen):
            expected = self._explicit(ed.base.gram, self.P, [active[k]], active[: k + 1])
            assert np.array_equal(row, expected[0])


def _tall(seed=0, n=600, p=120):
    """A tall Gaussian design, the shape of the benchmark's tall workload."""
    X = rng_for(seed).standard_normal((n, p))
    y = X[:, :12] @ rng_for(seed + 1).standard_normal(12) + 2.0 * rng_for(seed + 2).standard_normal(n)
    return standardize(Dataset(X=X, y=y))


def _square():
    """The square 6 x 5 design of test_ill_conditioned_square_design_matches_replay."""
    rng = rng_for(885)
    X = rng.standard_normal((6, 5))
    y = X @ (rng.standard_normal(5) * (rng.random(5) < 0.6)) + rng.standard_normal(6)
    return standardize(Dataset(X=X, y=y))


def _duplicated():
    """A Gaussian design whose last column repeats its second: a singular Gram."""
    X = rng_for(13).standard_normal((40, 4))
    return standardize(Dataset(X=np.column_stack([X, X[:, 1]]), y=rng_for(14).standard_normal(40)))


GRAM_ROUTE = {
    "tall": _tall,
    "sine_step": lambda: standardize(gen_sine(basis="piecewise-constant", seed=0)),
}
X_ROUTE = {
    "sine_hinge": lambda: standardize(gen_sine(seed=0)),
    "correlated_45x40": lambda: gaussian_instance(45, 40, seed=1000, correlated=True),
    "square_6x5": _square,
    "block_30x100": lambda: standardize(lp.gen_block(n=30, p=100, seed=0)[0]),
    "duplicated_column": _duplicated,
}


def _moves(p2):
    """Unit-mass mirrored moves with both signs, on a few columns and on all."""
    rng = rng_for(15)
    for size in (3, 8, p2):
        rho = np.zeros(p2)
        rho[rng.choice(p2, size=size, replace=False)] = rng.standard_normal(size)
        yield rho / rho.sum()


class TestDecayRates:
    """``decay_rates`` is X'X rho over the mirrored columns: one product with
    the design's one Gram on a tall, well-conditioned design, and X'(X rho),
    bit for bit, elsewhere."""

    @pytest.mark.parametrize("name", sorted(GRAM_ROUTE))
    def test_gram_route_matches_explicit_product(self, name):
        design = GRAM_ROUTE[name]()
        assert design.gram_decays
        ed = design.expanded()
        Xe = np.hstack([design.Xs, -design.Xs])
        for rho in _moves(ed.p2):
            d = ed.decay_rates(rho)
            explicit = Xe.T @ (Xe @ rho)
            assert np.max(np.abs(d - explicit)) <= 1e-13 * np.max(np.abs(explicit))
            assert np.array_equal(d[ed.p:], -d[: ed.p])
            one = design.gram.dot(rho[: ed.p] - rho[ed.p:])
            assert np.array_equal(d, np.concatenate([one, -one]))

    @pytest.mark.parametrize("name", sorted(X_ROUTE))
    def test_x_route_is_the_two_products(self, name):
        design = X_ROUTE[name]()
        assert not design.gram_decays
        ed = design.expanded()
        for rho in _moves(ed.p2):
            assert np.array_equal(ed.decay_rates(rho), ed.correlations(ed.predict(rho)))


class TestDatasetValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            Dataset(X=np.ones((3, 2)), y=np.ones(4))

    def test_non_finite(self):
        with pytest.raises(DataError):
            Dataset(X=np.array([[1.0], [np.nan]]), y=np.ones(2))
