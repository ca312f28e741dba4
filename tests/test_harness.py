import numpy as np
import pytest

import l1paths as lp
from l1paths import (
    BlockSpec,
    EmptyColumnError,
    SolverConfig,
    analytic_noise_to_signal,
    collapse,
    compare_paths,
    gen_block,
    gen_sine,
    holdout_mse,
    rss_at_index,
    rss_profile,
    solve_path,
    standardize,
)
from oracles import gaussian_instance, rng_for


class TestGenSine:
    def test_noiseless_reproduces_signal(self):
        data = gen_sine(noise_scale=0.0, seed=5)
        x = np.linspace(0, 1, 300)
        np.testing.assert_allclose(data.y, np.sin(6 * x) / (1 + x), atol=1e-15)

    def test_default_shape(self):
        data = gen_sine(seed=0)
        assert data.X.shape == (300, 10)

    def test_step_basis_zero_counts(self):
        data = gen_sine(basis="piecewise-constant", seed=0)
        x = np.linspace(0, 1, 300)
        for j, t in enumerate(np.arange(10) * 0.1):
            n_above = int((x > t).sum())
            assert int((data.X[:, j] == 0.0).sum()) == 300 - n_above

    def test_out_of_range_knots_rejected(self):
        with pytest.raises(EmptyColumnError):
            gen_sine(knots=(0.5, 1.0), seed=0)
        with pytest.raises(EmptyColumnError):
            gen_sine(knots=(-0.2, 0.5), seed=0)

    def test_reproducible(self):
        a = gen_sine(seed=3)
        b = gen_sine(seed=3)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_duplicate_step_knots_merged_with_warning(self):
        with pytest.warns(UserWarning, match="merged"):
            data = gen_sine(n=10, basis="piecewise-constant", knots=(0.31, 0.32), seed=0)
        assert data.p == 1


class TestGenBlock:
    def test_analytic_ratio_defaults(self):
        assert analytic_noise_to_signal(BlockSpec()) == 36.0 / 50.0

    def test_analytic_ratio_scales_with_blocks(self):
        assert analytic_noise_to_signal(BlockSpec(p=200)) == 3.6

    def test_shapes_and_sparsity(self):
        data, beta = gen_block(n=30, p=100, block=20, seed=1)
        assert data.X.shape == (30, 100)
        assert (beta != 0).sum() == 5
        assert set(np.flatnonzero(beta) % 20) == {0}

    def test_indivisible_p_rejected(self):
        with pytest.raises(lp.ConfigError):
            gen_block(p=130, block=20)

    @pytest.mark.parametrize("kwargs, message", [
        ({"block": 0}, "block must be at least 1, got 0"),
        ({"block": -20}, "block must be at least 1, got -20"),
        ({"n": 1}, "n must be at least 2, got 1"),
        ({"n": 0}, "n must be at least 2, got 0"),
        ({"p": 0}, "p must be at least 1, got 0"),
        ({"p": -20}, "p must be at least 1, got -20"),
    ])
    def test_sizes_below_their_minimum_rejected(self, kwargs, message):
        with pytest.raises(lp.ConfigError, match=message):
            gen_block(**kwargs)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_sine_needs_two_rows(self, n):
        with pytest.raises(lp.ConfigError, match=f"n must be at least 2, got {n}"):
            gen_sine(n=n)

    @pytest.mark.parametrize("generator, kwargs, message", [
        (gen_block, {"sigma2": -1.0}, "sigma2 must be finite and non-negative, got -1.0"),
        (gen_block, {"sigma2": float("nan")}, "sigma2 must be finite and non-negative, got nan"),
        (gen_block, {"sigma2": float("inf")}, "sigma2 must be finite and non-negative, got inf"),
        (gen_sine, {"noise_scale": -1.0}, "noise_scale must be finite and non-negative, got -1.0"),
        (gen_sine, {"noise_scale": float("nan")},
         "noise_scale must be finite and non-negative, got nan"),
        (gen_sine, {"noise_scale": -float("inf")},
         "noise_scale must be finite and non-negative, got -inf"),
        (gen_block, {"seed": -1}, "seed must be non-negative, got -1"),
        (gen_sine, {"seed": -1}, "seed must be non-negative, got -1"),
    ])
    def test_noise_and_seed_out_of_range_rejected(self, generator, kwargs, message):
        with pytest.raises(lp.ConfigError, match=message):
            generator(**kwargs)

    def test_zero_noise_gives_the_noiseless_response(self):
        data, beta = gen_block(n=20, p=40, sigma2=0.0, seed=3)
        assert np.array_equal(data.y, data.X @ beta)
        data = gen_sine(noise_scale=0.0, seed=3)
        assert np.array_equal(data.y, lp.signal(np.linspace(0.0, 1.0, data.n)))

    def test_rho_zero_gives_uncorrelated_columns(self):
        offs = []
        for seed in range(50):
            data, _ = gen_block(n=200, p=40, block=20, rho=0.0, sigma2=1.0, seed=seed)
            c = np.corrcoef(data.X[:, :20], rowvar=False)
            offs.append(c[np.triu_indices(20, 1)].mean())
        assert abs(np.mean(offs)) <= 3.0 / np.sqrt(200)

    def test_signal_variance_matches_identity(self):
        ratios = []
        for seed in range(200):
            data, beta = gen_block(n=60, p=200, block=20, seed=seed)
            ratios.append(np.var(data.X @ beta))
        expected = 10.0  # blocks x nonzero, unit-variance coordinates
        assert np.mean(ratios) / expected == pytest.approx(1.0, abs=0.1)

    def test_reproducible(self):
        a, ba = gen_block(n=20, p=40, seed=9)
        b, bb = gen_block(n=20, p=40, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(ba, bb)


class TestRssProfile:
    def test_starts_at_centered_total_sum_of_squares(self):
        design = gaussian_instance(20, 5, seed=0)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        curve = rss_profile(design, path, index_by="norm")
        tss = float(design.y_centered @ design.y_centered)
        assert curve.values[0] == pytest.approx(tss, rel=1e-12)

    def test_ends_at_ols_rss(self):
        design = gaussian_instance(20, 5, seed=0)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        curve = rss_profile(design, path, index_by="norm")
        theta = np.linalg.lstsq(design.Xs, design.y_centered, rcond=None)[0]
        r = design.y_centered - design.Xs @ theta
        assert curve.values[-1] == pytest.approx(float(r @ r), abs=1e-8)

    def test_nonincreasing_along_native_index(self):
        design = gaussian_instance(20, 5, seed=1, correlated=True)
        for mode, idx in (("lasso", "norm"), ("fs0", "arclength")):
            path = solve_path(design.expanded(), SolverConfig(mode=mode))
            curve = rss_profile(design, path, index_by=idx)
            assert np.all(np.diff(curve.values) <= 1e-9 * curve.values[0])

    def test_local_optimality_each_method_wins_its_index(self):
        design = gaussian_instance(20, 5, seed=2, correlated=True)
        ed = design.expanded()
        lasso = solve_path(ed, SolverConfig(mode="lasso"))
        fs0 = solve_path(ed, SolverConfig(mode="fs0"))
        tss = float(design.y_centered @ design.y_centered)
        slack = 1e-9 * tss
        # under norm indexing the lasso is below the monotone path
        fs_curve = rss_profile(design, fs0, index_by="norm", grid=120)
        keep = fs_curve.index <= lasso.end
        lasso_vals = rss_at_index(design, lasso, fs_curve.index[keep], "norm")
        assert np.all(lasso_vals <= fs_curve.values[keep] + slack)
        # under arc-length indexing the monotone path is below the lasso
        la_curve = rss_profile(design, lasso, index_by="arclength", grid=120)
        keep = la_curve.index <= fs0.end
        fs_vals = rss_at_index(design, fs0, la_curve.index[keep], "arclength")
        assert np.all(fs_vals <= la_curve.values[keep] + slack)


class TestComparePaths:
    def test_path_against_itself(self):
        design = gaussian_instance(20, 5, seed=3)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        rep = compare_paths(path, path)
        assert rep.sup_difference == 0.0
        assert rep.divergence_index is None

    def test_lar_equals_lasso_on_orthogonal_design(self):
        from oracles import orthonormal_design

        design = orthonormal_design(50, 6, seed=4)
        lar = solve_path(design.expanded(), SolverConfig(mode="lar"))
        lasso = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        rep = compare_paths(lar, lasso)
        assert rep.sup_difference <= 1e-10

    def test_sine_lasso_arc_exceeds_norm_after_sign_reversal(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        first_drop = next(e.ell for e in path.events if e.kind == "drop")
        for k, ell in enumerate(path.breakpoints):
            arc = path.arc_length(ell)
            norm = float(np.abs(collapse(path.vertices[k])).sum())
            assert arc >= norm - 1e-10
            if ell > first_drop:
                assert arc > norm + 1e-6

    def test_sine_divergences_match_event_log(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        ed = design.expanded()
        lar = solve_path(ed, SolverConfig(mode="lar"))
        lasso = solve_path(ed, SolverConfig(mode="lasso"))
        fs0 = solve_path(ed, SolverConfig(mode="fs0"))
        first_drop = next(e.ell for e in lasso.events if e.kind == "drop")
        rep = compare_paths(lar, lasso, index_by="norm")
        assert rep.divergence_index == pytest.approx(first_drop, abs=1e-4 * lar.end)
        third_join = lar.events[1].ell  # segment boundary where variable 3 joins
        rep2 = compare_paths(lar, fs0, index_by="norm")
        assert rep2.divergence_index == pytest.approx(third_join, abs=1e-4 * lar.end)
        assert rep2.divergence_index >= third_join - 1e-12


class TestHoldoutMse:
    def test_null_path_matches_response_variance(self):
        rng = rng_for(6)
        design = gaussian_instance(40, 5, seed=6)
        path = lp.PiecewiseLinearPath(
            breakpoints=np.array([0.0]),
            vertices=np.zeros((1, 10)),
            segment_active_sets=[],
            parametrization="l1_norm",
        )
        Xh = rng.standard_normal((5000, 5))
        yh = rng.standard_normal(5000) + design.y_mean
        curve = holdout_mse(design, path, Xh, y_holdout=yh, grid=3)
        assert np.allclose(curve.values, np.var(yh), rtol=0.05)

    def test_noiseless_recovery_reaches_zero(self):
        rng = rng_for(7)
        X = rng.standard_normal((40, 4))
        beta_true = np.array([1.0, -2.0, 0.5, 0.0])
        y = X @ beta_true  # no noise
        design = standardize(lp.Dataset(X=X, y=y))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        Xh = rng.standard_normal((2000, 4))
        curve = holdout_mse(design, path, Xh, beta_true=beta_true, grid=50)
        assert curve.values[-1] == pytest.approx(0.0, abs=1e-12)
        assert curve.values[0] > 1.0

    def test_fraction_grid_spans_unit_interval(self):
        design = gaussian_instance(25, 4, seed=8)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        rng = rng_for(9)
        curve = holdout_mse(design, path, rng.standard_normal((100, 4)),
                            beta_true=np.zeros(4), grid=11)
        np.testing.assert_allclose(curve.index, np.linspace(0, 1, 11), atol=1e-15)


class TestIndexAtPathEnd:
    """Index values are sums over vertices and may round past the path's end."""

    @pytest.mark.parametrize("mode, index_by", [("fs0", "arclength"), ("lasso", "norm")])
    def test_path_end_maps_to_final_vertex(self, mode, index_by):
        for correlated in (False, True):
            for seed in range(20):
                design = gaussian_instance(20, 5, seed=seed, correlated=correlated)
                path = solve_path(design.expanded(), SolverConfig(mode=mode))
                r = design.y_centered - design.Xs @ collapse(path.vertices[-1])
                rss = rss_at_index(design, path, [path.end], index_by)
                np.testing.assert_allclose(rss, [r @ r], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode, index_by", [("fs0", "arclength"), ("lasso", "norm")])
    def test_value_past_the_end_raises(self, mode, index_by):
        design = gaussian_instance(20, 5, seed=0)
        path = solve_path(design.expanded(), SolverConfig(mode=mode))
        with pytest.raises(ValueError, match="beyond the path's range"):
            rss_at_index(design, path, [path.end * (1.0 + 1e-9)], index_by)
