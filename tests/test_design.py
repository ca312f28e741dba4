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
from oracles import rng_for


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
        g = ed.base_gram()
        np.testing.assert_allclose(ed.gram_entries(4, [0, 1, 2]), -g[1], atol=0)
        np.testing.assert_allclose(ed.gram_entries(4, [3, 4, 5]), g[1], atol=0)


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
        expected = self._explicit(ed.base_gram(), self.P, rows, cols).reshape(len(rows), len(cols))
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("row, cols", [(7, [0, 7, 3, 9]), (2, [8, 1, 2]), (9, [])])
    def test_one_row(self, ed, row, cols):
        entries = ed.gram_entries(row, cols)
        expected = self._explicit(ed.base_gram(), self.P, [row], cols).reshape(len(cols))
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
            expected = self._explicit(ed.base_gram(), self.P, [active[k]], active[: k + 1])
            assert np.array_equal(row, expected[0])


class TestDatasetValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            Dataset(X=np.ones((3, 2)), y=np.ones(4))

    def test_non_finite(self):
        with pytest.raises(DataError):
            Dataset(X=np.array([[1.0], [np.nan]]), y=np.ones(2))
