import numpy as np
import pytest

import l1paths as lp
from l1paths import (
    SolverConfig,
    StepBudgetError,
    collapse,
    gen_sine,
    kkt_certify,
    lasso_move_direction,
    monotone_move_direction,
    next_event,
    solve_path,
    standardize,
)
from oracles import (
    cd_lasso,
    gaussian_instance,
    grid_scan_event,
    nnls_by_enumeration,
    orthonormal_design,
    replay_vertices,
    rng_for,
    sup_distance,
)


def vertex_lambdas(design, path):
    ed = design.expanded()
    lams = []
    for k in range(len(path.breakpoints)):
        r = design.y_centered - ed.predict(path.vertices[k])
        lams.append(float(np.max(np.abs(design.correlations(r)))))
    return lams


class TestMoveDirections:
    def test_orthogonal_response_gives_zero_direction(self):
        # An exactly zero response is orthogonal to every column: every
        # correlation is 0, at most the floor at which solve_path ends.
        rng = rng_for(0)
        X = rng.standard_normal((12, 3))
        design = standardize(lp.Dataset(X=X, y=np.zeros(12)))
        for fn in (lasso_move_direction, monotone_move_direction):
            move = fn(design.expanded(), np.zeros(6))
            assert move.is_zero
            assert np.all(move.rho == 0.0)

    def test_default_zero_tolerance_is_relative(self):
        """At y x 1e-15 the helpers start where solve_path starts: the default
        floor scales with max|X^T y| as solve_path's does."""
        data = lp.gen_block(n=30, p=100, seed=0)[0]
        ed = standardize(lp.Dataset(X=data.X, y=data.y * 1e-15)).expanded()
        first = solve_path(ed, SolverConfig(mode="lasso")).segment_active_sets[0]
        assert first == (57,)
        for fn in (lasso_move_direction, monotone_move_direction):
            assert fn(ed, np.zeros(ed.p2)).support == first

    def test_single_predictor_full_mass(self):
        rng = rng_for(1)
        x = rng.standard_normal(15)
        y = 2.0 * x + 0.1 * rng.standard_normal(15)
        design = standardize(lp.Dataset(X=x[:, None], y=y))
        move = lasso_move_direction(design.expanded(), np.zeros(2))
        np.testing.assert_allclose(move.rho, [1.0, 0.0], atol=1e-15)

    def test_two_variable_direction_matches_2x2_inverse(self):
        design = gaussian_instance(20, 5, seed=2)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        beta = path.vertices[1]  # two tied variables here
        r = design.y_centered - ed.predict(beta)
        c = ed.correlations(r)
        C = c.max()
        active = np.flatnonzero(c >= C * (1 - 1e-9))
        assert active.size == 2
        move = lasso_move_direction(ed, beta)
        G = ed.columns(active)
        G = G.T @ G
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        inv = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]]) / det
        theta = inv @ c[active]
        np.testing.assert_allclose(move.rho[active], theta / theta.sum(), atol=1e-10)

    def test_monotone_equals_lasso_when_ls_nonnegative(self):
        design = gaussian_instance(20, 5, seed=2)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        beta = path.vertices[1]
        a = lasso_move_direction(ed, beta)
        b = monotone_move_direction(ed, beta)
        assert a.rho[list(a.support)].min() > 0
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-10)

    def test_three_variable_negative_ls_matches_enumeration(self):
        # frozen instance: the unconstrained direction has a negative entry
        design = gaussian_instance(25, 6, seed=4, correlated=True, noise=0.8)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="fs0"))
        beta = path.vertices[2]
        r = design.y_centered - ed.predict(beta)
        c = ed.correlations(r)
        active = np.flatnonzero(c >= c.max() * (1 - 1e-9))
        assert active.size == 3
        Xa = ed.columns(active)
        ls = np.linalg.solve(Xa.T @ Xa, c[active])
        assert ls.min() < -1e-6
        move = monotone_move_direction(ed, beta)
        ref, _ = nnls_by_enumeration(Xa, r)
        np.testing.assert_allclose(move.rho[active], ref / ref.sum(), atol=1e-9)


def _copied_top_column(seed, sign):
    """A Gaussian design with its most correlated column copied (sign 1) or
    negated (sign -1) into an extra last column: the pair starts tied."""
    rng = rng_for(seed)
    X = rng.standard_normal((25, 6))
    y = X @ rng.standard_normal(6) + rng.standard_normal(25)
    top = int(np.argmax(np.abs(standardize(lp.Dataset(X=X, y=y)).correlations(y - y.mean()))))
    design = standardize(lp.Dataset(X=np.column_stack([X, sign * X[:, top]]), y=y))
    c = np.abs(design.correlations(design.y_centered))
    assert min(c[top], c[-1]) >= c.max() * (1.0 - 1e-12)
    return design


class TestHelpersMatchEngine:
    @pytest.mark.parametrize("mode, helper, correlated", [
        ("lar", lasso_move_direction, False),
        ("lar", lasso_move_direction, True),
        ("lar", lasso_move_direction, "copied"),
        ("lar", lasso_move_direction, "negated"),
        ("fs0", monotone_move_direction, False),
        ("fs0", monotone_move_direction, True),
        ("fs0", monotone_move_direction, "copied"),
        ("fs0", monotone_move_direction, "negated"),
    ])
    def test_public_helper_reproduces_every_segment(self, mode, helper, correlated):
        """Also where a column and its copy or negation tie at the start: each
        helper, like the engine, enters the tied columns in index order and
        gives the copy no weight."""
        for seed in range(20):
            if correlated in ("copied", "negated"):
                design = _copied_top_column(seed, 1.0 if correlated == "copied" else -1.0)
            else:
                design = gaussian_instance(25, 6, seed=seed, correlated=correlated)
            ed = design.expanded()
            path = solve_path(ed, SolverConfig(mode=mode))
            for k in range(path.n_segments):
                move = helper(ed, path.vertices[k])
                assert move.support == tuple(sorted(path.segment_active_sets[k]))
                step = path.breakpoints[k + 1] - path.breakpoints[k]
                engine = (path.vertices[k + 1] - path.vertices[k]) / step
                np.testing.assert_allclose(move.rho, engine, rtol=0, atol=1e-10)


class TestNextEvent:
    def test_orthonormal_catchup_closed_form_and_grid(self):
        n, p = 40, 2
        design = orthonormal_design(n, p, seed=3)
        # choose the response so the column inner products are exactly (0.9, 0.4)
        design.y_centered = design.Xs @ (np.array([0.9, 0.4]) / n)
        ed = design.expanded()
        move = lasso_move_direction(ed, np.zeros(2 * p))
        event = next_event(ed, np.zeros(2 * p), move, mode="lar")
        # active correlation decays to the bystander's constant 0.4
        gamma_exact = (0.9 - 0.4) / n
        assert event.kind == "join"
        assert event.index == 1
        assert event.gamma == pytest.approx(gamma_exact, rel=1e-10)
        g_scan, j_scan = grid_scan_event(ed, np.zeros(2 * p), move.rho, dgamma=1e-6,
                                         gmax=10 * gamma_exact + 1e-3)
        assert j_scan == 1
        assert abs(g_scan - event.gamma) <= 2e-6

    def test_random_instance_event_matches_grid_scan(self):
        design = gaussian_instance(20, 4, seed=6)
        ed = design.expanded()
        move = lasso_move_direction(ed, np.zeros(8))
        event = next_event(ed, np.zeros(8), move, mode="lasso")
        g_scan, j_scan = grid_scan_event(ed, np.zeros(8), move.rho, dgamma=1e-6,
                                         gmax=event.gamma * 2)
        assert j_scan == event.index
        assert abs(g_scan - event.gamma) <= 5e-6

    def test_single_predictor_reaches_full_fit_at_ols(self):
        rng = rng_for(7)
        x = rng.standard_normal(25)
        y = 1.3 * x + 0.2 * rng.standard_normal(25)
        design = standardize(lp.Dataset(X=x[:, None], y=y))
        ed = design.expanded()
        move = lasso_move_direction(ed, np.zeros(2))
        event = next_event(ed, np.zeros(2), move, mode="lar")
        ols = float(design.Xs[:, 0] @ design.y_centered) / design.n
        assert event.kind == "full_ls"
        assert event.gamma == pytest.approx(abs(ols), rel=1e-10)

    def test_sine_lasso_third_event_is_a_zero_crossing(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        kinds = [e.kind for e in path.events]
        assert kinds[2] == "drop"


class TestSolvePath:
    def test_single_predictor_three_modes_identical(self):
        rng = rng_for(8)
        x = rng.standard_normal(30)
        y = -0.8 * x + 0.3 * rng.standard_normal(30)
        design = standardize(lp.Dataset(X=x[:, None], y=y))
        paths = [solve_path(design.expanded(), SolverConfig(mode=m))
                 for m in ("lar", "lasso", "fs0")]
        for path in paths:
            assert path.n_segments == 1
        ols = float(design.Xs[:, 0] @ design.y_centered) / design.n
        for path in paths:
            np.testing.assert_allclose(collapse(path.vertices[-1]), [ols], atol=1e-12)
        for other in paths[1:]:
            assert sup_distance(paths[0], other) <= 1e-12

    def test_orthogonal_design_modes_coincide(self):
        design = orthonormal_design(50, 6, seed=9)
        paths = {m: solve_path(design.expanded(), SolverConfig(mode=m))
                 for m in ("lar", "lasso", "fs0")}
        assert sup_distance(paths["lar"], paths["lasso"], points=800) <= 1e-10
        assert sup_distance(paths["lar"], paths["fs0"], points=800) <= 1e-8
        assert sup_distance(paths["lasso"], paths["fs0"], points=800) <= 1e-8

    def test_lasso_vertices_match_coordinate_descent(self):
        design = gaussian_instance(20, 5, seed=10, correlated=True)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        for k, lam in enumerate(vertex_lambdas(design, path)):
            ref = cd_lasso(design.Xs, design.y_centered, lam)
            assert np.max(np.abs(collapse(path.vertices[k]) - ref)) <= 1e-6

    def test_lasso_vertices_selfcertify(self):
        design = gaussian_instance(20, 5, seed=10, correlated=True)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        for k, lam in enumerate(vertex_lambdas(design, path)):
            assert kkt_certify(design.expanded(), path.vertices[k], lam).passed

    def test_lasso_active_correlations_tied_at_vertices(self):
        design = gaussian_instance(25, 6, seed=12, correlated=True)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        for k in range(1, len(path.breakpoints) - 1):
            r = design.y_centered - ed.predict(path.vertices[k])
            c = ed.correlations(r)
            C = c.max()
            moving = list(path.segment_active_sets[k - 1])
            assert np.max(np.abs(c[moving] - C)) <= 1e-8 * C

    def test_lar_takes_exactly_p_segments(self):
        for seed in range(10):
            rng = rng_for(200 + seed)
            p = int(rng.integers(2, 7))
            n = p + int(rng.integers(8, 25))
            design = gaussian_instance(n, p, seed=300 + seed)
            path = solve_path(design.expanded(), SolverConfig(mode="lar"))
            assert path.n_segments == design.p
            assert path.events[-1].kind == "full_ls"

    def test_lasso_may_exceed_p_segments_but_terminates(self):
        design = standardize(gen_sine(basis="piecewise-linear", seed=0))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        assert path.n_segments > design.p
        assert path.events[-1].kind == "full_ls"

    def test_fs0_monotone_and_unit_speed(self):
        design = gaussian_instance(20, 5, seed=13, correlated=True)
        path = solve_path(design.expanded(), SolverConfig(mode="fs0"))
        diffs = np.diff(path.vertices, axis=0)
        assert np.all(diffs >= 0.0)
        speed = np.abs(diffs).sum(axis=1) / np.diff(path.breakpoints)
        assert np.all(speed >= 1 - 1e-8)
        assert np.all(speed <= 1 + 1e-8)

    def test_fs0_never_emits_drop_events(self):
        for seed in (4, 10, 12, 13):
            design = gaussian_instance(25, 6, seed=seed, correlated=True)
            path = solve_path(design.expanded(), SolverConfig(mode="fs0"))
            assert all(e.kind != "drop" for e in path.events)

    def test_expanded_and_collapsed_norms_agree_on_lasso_vertices(self):
        design = gaussian_instance(20, 5, seed=10, correlated=True)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        for k in range(len(path.breakpoints)):
            expanded_norm = np.abs(path.vertices[k]).sum()
            collapsed_norm = np.abs(collapse(path.vertices[k])).sum()
            assert expanded_norm == pytest.approx(collapsed_norm, abs=1e-10)

    def test_lasso_parameter_is_l1_norm(self):
        design = gaussian_instance(20, 5, seed=10, correlated=True)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        assert path.parametrization == "l1_norm"
        for k in range(len(path.breakpoints)):
            norm = np.abs(collapse(path.vertices[k])).sum()
            assert norm == pytest.approx(path.breakpoints[k], abs=1e-9)

    def test_stop_norm_cuts_midsegment(self):
        design = gaussian_instance(20, 5, seed=10)
        full = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        bound = 0.6 * full.end
        cut = solve_path(design.expanded(), SolverConfig(mode="lasso", stop_l1_norm=bound))
        assert cut.end == pytest.approx(bound, abs=1e-12)
        assert cut.events[-1].kind == "stop_norm"
        np.testing.assert_allclose(cut.vertices[-1], full.evaluate(bound), atol=1e-10)

    @pytest.mark.parametrize("field", ["stop_l1_norm", "stop_lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_invalid_stop_bounds_are_config_errors(self, field, value):
        design = gaussian_instance(20, 5, seed=10)
        for mode in ("lar", "lasso", "fs0"):
            with pytest.raises(lp.ConfigError,
                               match=f"^{field} must be finite and non-negative, got {value}$"):
                solve_path(design.expanded(), SolverConfig(mode=mode, **{field: value}))

    def test_zero_stop_norm_gives_the_empty_path(self):
        design = gaussian_instance(20, 5, seed=10)
        for mode in ("lar", "lasso", "fs0"):
            path = solve_path(design.expanded(), SolverConfig(mode=mode, stop_l1_norm=0.0))
            assert path.n_segments == 0
            assert path.events == []
            assert not path.vertices.any()

    def test_stop_lambda_hits_requested_correlation(self):
        design = gaussian_instance(20, 5, seed=10)
        ed = design.expanded()
        lam_stop = 3.0
        cut = solve_path(ed, SolverConfig(mode="lasso", stop_lambda=lam_stop))
        assert cut.events[-1].kind == "stop_lambda"
        r = design.y_centered - ed.predict(cut.vertices[-1])
        assert float(np.max(design.correlations(r))) == pytest.approx(lam_stop, rel=1e-9)

    def test_step_budget_attaches_partial_path(self):
        design = gaussian_instance(20, 5, seed=10)
        with pytest.raises(StepBudgetError) as err:
            solve_path(design.expanded(), SolverConfig(mode="lasso", max_steps=2))
        partial = err.value.path
        assert partial.truncated
        assert partial.n_segments == 2

    def test_zero_response_gives_empty_path(self):
        rng = rng_for(14)
        X = rng.standard_normal((10, 3))
        design = standardize(lp.Dataset(X=X, y=np.zeros(10)))
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        assert path.n_segments == 0

    def test_duplicate_columns_in_the_starting_tie_bar_the_copy(self):
        """The copy ties with its original at the start and is barred there,
        with its mirror, as a collinear catcher is at a later join."""
        rng = rng_for(18)
        x = rng.standard_normal(15)
        X = np.column_stack([x, x, rng.standard_normal(15)])
        y = x + 0.1 * rng.standard_normal(15)
        design = standardize(lp.Dataset(X=X, y=y))
        ed = design.expanded()
        for mode in ("lar", "lasso", "fs0"):
            path = solve_path(ed, SolverConfig(mode=mode))
            assert path.n_segments > 0
            if mode != "fs0":
                assert not path.vertices[:, [1, 1 + design.p]].any()
            if mode == "lasso":
                for beta in path.vertices:
                    report = kkt_certify(ed, beta, _own_lambda(ed, beta))
                    assert report.passed, (report.worst_violation, report.tolerance)

    def test_p_larger_than_n_reaches_zero_residual(self):
        rng = rng_for(15)
        X = rng.standard_normal((12, 30))
        y = X @ (rng.standard_normal(30) * (rng.random(30) < 0.2)) + 0.1 * rng.standard_normal(12)
        design = standardize(lp.Dataset(X=X, y=y))
        for mode in ("lasso", "fs0"):
            path = solve_path(design.expanded(), SolverConfig(mode=mode))
            r = design.y_centered - design.expanded().predict(path.vertices[-1])
            assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(design.y_centered)


class TestKKTCertify:
    def test_zero_vector_at_lambda_max(self):
        design = gaussian_instance(20, 5, seed=16)
        lam = float(np.max(np.abs(design.correlations(design.y_centered))))
        report = kkt_certify(design.expanded(), np.zeros(10), lam)
        assert report.passed
        assert np.max(report.bound_excess) == pytest.approx(0.0, abs=1e-12)

    def test_full_ls_endpoint_at_lambda_zero(self):
        design = gaussian_instance(20, 5, seed=16)
        path = solve_path(design.expanded(), SolverConfig(mode="lasso"))
        report = kkt_certify(design.expanded(), path.vertices[-1], 0.0)
        assert report.passed

    def test_fails_off_path_point(self):
        design = gaussian_instance(20, 5, seed=16)
        beta = np.zeros(10)
        beta[0] = 1.0  # arbitrary point, correlations not tied at lambda
        report = kkt_certify(design.expanded(), beta, 1.0)
        assert not report.passed
        assert report.worst_violation > 1e-3

    def test_rejects_negative_coefficients(self):
        design = gaussian_instance(20, 5, seed=16)
        beta = np.zeros(10)
        beta[0] = -0.5
        with pytest.raises(ValueError):
            kkt_certify(design.expanded(), beta, 1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -1e-300])
    def test_rejects_a_tolerance_not_finite_and_non_negative(self, tol):
        """NaN would fail every point and infinity pass every one."""
        design = gaussian_instance(20, 5, seed=16)
        with pytest.raises(lp.ConfigError, match="tolerance must be finite and non-negative"):
            kkt_certify(design.expanded(), np.zeros(10), 1.0, tol=tol)

    def test_zero_tolerance_is_valid(self):
        design = gaussian_instance(20, 5, seed=16)
        lam = float(np.max(np.abs(design.correlations(design.y_centered))))
        report = kkt_certify(design.expanded(), np.zeros(10), lam, tol=0.0)
        assert report.tolerance == 0.0
        assert report.passed == (report.worst_violation == 0.0)


RESPONSE_SCALES = [10.0**k for k in (-10, -6, 0, 6)]


def _scaled(data, scale):
    """Standardized data (a Dataset or a StandardizedDesign) with y times scale."""
    if isinstance(data, lp.StandardizedDesign):
        data = lp.Dataset(X=data.Xs, y=data.y_centered)
    return standardize(lp.Dataset(X=data.X, y=data.y * scale))


def _own_lambda(ed, beta):
    """The maximal |correlation| at beta, as `l1paths certify` takes it."""
    r = ed.base.y_centered - ed.predict(beta)
    return float(np.max(np.abs(ed.base.correlations(r))))


class TestKKTResponseScale:
    """kkt_certify's verdict does not depend on the scale of y."""

    @pytest.mark.parametrize("scale", RESPONSE_SCALES)
    def test_vertex_one_percent_off_the_path_fails(self, scale):
        ed = _scaled(lp.gen_block(n=30, p=100, seed=0)[0], scale).expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        beta = 1.01 * path.vertices[path.n_segments // 2]
        assert not kkt_certify(ed, beta, _own_lambda(ed, beta)).passed

    @pytest.mark.parametrize("scale", RESPONSE_SCALES)
    @pytest.mark.parametrize("data", [
        lp.gen_block(n=30, p=100, seed=0)[0],
        gen_sine(seed=0),
        gaussian_instance(600, 120, seed=0),
    ], ids=["block", "sine", "gaussian"])
    def test_every_lasso_vertex_passes(self, data, scale):
        ed = _scaled(data, scale).expanded()
        path = solve_path(ed, SolverConfig(mode="lasso"))
        for beta in path.vertices:
            report = kkt_certify(ed, beta, _own_lambda(ed, beta))
            assert report.passed, (report.worst_violation, report.tolerance)

    def test_negative_coefficient_rule_is_relative(self):
        ed = gaussian_instance(20, 5, seed=16).expanded()
        beta = np.zeros(10)
        beta[0], beta[1] = 1e-10, -1e-13
        with pytest.raises(ValueError):
            kkt_certify(ed, beta, 1.0)


class TestGramSpaceFs0:
    def test_fs0_never_materializes_columns(self, monkeypatch):
        calls = []
        original = lp.ExpandedDesign.columns

        def counting(self, indices):
            calls.append(len(indices))
            return original(self, indices)

        monkeypatch.setattr(lp.ExpandedDesign, "columns", counting)
        for seed in range(3):
            design = standardize(lp.gen_block(n=30, p=100, seed=seed)[0])
            path = solve_path(design.expanded(), SolverConfig(mode="fs0"))
            assert path.n_segments > 0
        assert calls == []


def _near_collinear(seed):
    rng = rng_for(seed)
    X = rng.standard_normal((30, 8))
    X[:, 1] = X[:, 0] + 1e-7 * rng.standard_normal(30)
    y = X @ rng.standard_normal(8) + rng.standard_normal(30)
    return standardize(lp.Dataset(X=X, y=y))


def _copied_column(seed, n, p, sign):
    rng = rng_for(seed)
    X = rng.standard_normal((n, p))
    X[:, 1] = sign * X[:, 0]
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    return standardize(lp.Dataset(X=X, y=y))


class TestCollinearColumns:
    """One rule in all modes: a column the pivot check calls dependent carries no mass."""

    @pytest.mark.parametrize("seed", range(5))
    def test_near_collinear_fs0_ends_at_lasso_vertex(self, seed):
        ed = _near_collinear(seed).expanded()
        lasso = solve_path(ed, SolverConfig(mode="lasso"))
        fs0 = solve_path(ed, SolverConfig(mode="fs0"))
        end = collapse(lasso.vertices[-1])
        scale = max(1.0, float(np.abs(lasso.vertices).max()))
        assert np.max(np.abs(collapse(fs0.vertices[-1]) - end)) <= 1e-9 * scale
        # the pair never carries the opposing mass of an unregularized fit
        assert np.abs(collapse(fs0.vertices)[:, :2]).max() <= 10.0 * scale

    @pytest.mark.parametrize("n, p, sign", [(30, 8, 1.0), (30, 8, -1.0), (10, 20, 1.0)])
    def test_copied_columns_end_at_least_squares(self, n, p, sign):
        for seed in range(5):
            design = _copied_column(seed, n, p, sign)
            y = design.y_centered
            for mode in ("lar", "lasso", "fs0"):
                path = solve_path(design.expanded(), SolverConfig(mode=mode))
                b = collapse(path.vertices[-1])
                r = y - design.Xs @ b
                if n > p:
                    assert path.events[-1].kind == "full_ls"
                    assert np.max(np.abs(design.Xs.T @ r)) <= 1e-9 * np.linalg.norm(y)
                else:  # p > n ends at the first zero-residual point
                    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(y)


class TestScaleInvariance:
    """Every tolerance is relative: scaling y leaves the event sequence unchanged."""

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    @pytest.mark.parametrize("seed", range(3))
    def test_response_scale_keeps_events(self, mode, seed):
        data = lp.gen_block(n=30, p=100, seed=seed)[0]
        events = []
        for scale in (1e-6, 1.0, 1e6):
            design = standardize(lp.Dataset(X=data.X, y=data.y * scale))
            path = solve_path(design.expanded(), SolverConfig(mode=mode))
            events.append([(e.kind, e.index) for e in path.events])
        assert events[0] == events[1] == events[2]

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    @pytest.mark.parametrize("scaled, seed", [("X", 0), ("X", 1), ("X", 2), ("X", 3), ("y", 3)])
    def test_scale_keeps_events(self, mode, scaled, seed):
        """Also scaling X, whose rounding used to pick the label of the final,
        zero-residual event of these p > n paths."""
        data = lp.gen_block(n=30, p=100, seed=seed)[0]
        events = []
        for scale in (1e-6, 1.0, 1e6):
            X, y = (data.X * scale, data.y) if scaled == "X" else (data.X, data.y * scale)
            path = solve_path(standardize(lp.Dataset(X=X, y=y)).expanded(), SolverConfig(mode=mode))
            events.append([(e.kind, e.index) for e in path.events])
        assert events[0] == events[1] == events[2]
        assert events[1][-1][0] == "join"


class TestReplay:
    """Vertices agree with an exact-arithmetic replay of the path's own supports and events."""

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    @pytest.mark.parametrize("design", [
        lp.gen_block(n=12, p=30, block=5, seed=0)[0],
        lp.gen_block(n=12, p=30, block=5, rho=0.99, seed=1)[0],
        gen_sine(n=60, seed=0),
    ], ids=["block", "block_rho99", "sine"])
    def test_vertices_match_replay(self, mode, design):
        design = standardize(design)
        path = solve_path(design.expanded(), SolverConfig(mode=mode))
        V = path.vertices
        error = np.max(np.abs(replay_vertices(design, path) - V))
        assert error <= 1e-10 * max(1.0, np.abs(V).max())

    @pytest.mark.parametrize("mode", ["lasso", "fs0"])
    def test_vertices_match_replay_through_drops(self, mode):
        """A rho = 0.95 block whose paths drop columns from their factors."""
        design = standardize(lp.gen_block(n=30, p=100, seed=1)[0])
        path = solve_path(design.expanded(), SolverConfig(mode=mode))
        V = path.vertices
        error = np.max(np.abs(replay_vertices(design, path) - V))
        assert error <= 1e-10 * max(1.0, np.abs(V).max())

    @pytest.mark.parametrize("design, mode", [
        (standardize(lp.gen_block(n=30, p=100, seed=0)[0]), "fs0"),
        (gaussian_instance(100, 40, seed=0, correlated=True), "lar"),
        (gaussian_instance(100, 40, seed=0, correlated=True), "lasso"),
    ], ids=["block_fs0", "gaussian_lar", "gaussian_lasso"])
    def test_vertices_match_replay_across_refreshes(self, design, mode):
        """Paths long enough that the carried residual and correlations are
        refreshed from the coefficients at least twice before the end."""
        path = solve_path(design.expanded(), SolverConfig(mode=mode))
        assert path.n_segments > 2 * lp.lars.REFRESH_EVERY
        V = path.vertices
        error = np.max(np.abs(replay_vertices(design, path) - V))
        assert error <= 1e-10 * max(1.0, np.abs(V).max())


class TestDriftGuard:
    """The guard is relative to C0: a carried correlation that disagrees with
    its exact refresh by 1e-3 C0 raises at any scale of the response."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_perturbed_refresh_raises(self, monkeypatch, scale):
        design = _scaled(lp.gen_block(n=30, p=100, seed=0)[0], scale)
        shift = 1e-3 * float(np.max(np.abs(design.correlations(design.y_centered))))
        predict, correlations = lp.ExpandedDesign.predict, lp.ExpandedDesign.correlations
        seen = {"fits": [], "residuals": 0}

        def fitted(self, beta):
            out = predict(self, beta)
            seen["fits"].append(out)
            return out

        def perturbed(self, r):
            # On this X-route design a decay rate is the correlation of a
            # vector that predict returned, X^T (X rho); any other call is
            # the correlation of a residual, left exact only on the first
            # (y itself)
            c = correlations(self, r)
            if any(r is f for f in seen["fits"]):
                return c
            seen["residuals"] += 1
            return c if seen["residuals"] == 1 else c + shift

        monkeypatch.setattr(lp.ExpandedDesign, "predict", fitted)
        monkeypatch.setattr(lp.ExpandedDesign, "correlations", perturbed)
        with pytest.raises(lp.InternalConsistencyError):
            solve_path(design.expanded(), SolverConfig(mode="lasso"))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_perturbed_gram_decay_rates_raise(self, monkeypatch, scale):
        """On the Gram route the decay rates never touch X, so the refresh
        is what ties them to X: rates shifted by 1e-3 of their largest entry
        move the carried correlations off the exact ones. A rate is per unit
        of coefficient, which scales with y, so the shift is relative to the
        rates; the drift it makes is then a fixed fraction of C0."""
        design = _scaled(gaussian_instance(200, 20, seed=0), scale)
        assert design.gram_decays
        decay_rates = lp.ExpandedDesign.decay_rates

        def shifted(self, rho):
            d = decay_rates(self, rho)
            return d + 1e-3 * float(np.abs(d).max())

        monkeypatch.setattr(lp.ExpandedDesign, "decay_rates", shifted)
        with pytest.raises(lp.InternalConsistencyError, match="drifted"):
            solve_path(design.expanded(), SolverConfig(mode="lasso"))


@pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
def test_gram_route_forms_x_products_only_at_refreshes(monkeypatch, mode):
    """On a Gram-route design the residual is formed from X at the exact
    refreshes only: every REFRESH_EVERY segments, near a threshold and at
    the end; the segments in between read the Gram."""
    X = rng_for(16).standard_normal((600, 120))
    design = standardize(lp.Dataset(X=X, y=X[:, :12] @ rng_for(17).standard_normal(12)
                                    + 2.0 * rng_for(18).standard_normal(600)))
    calls = []
    predict = lp.ExpandedDesign.predict

    def counting(self, beta):
        calls.append(None)
        return predict(self, beta)

    monkeypatch.setattr(lp.ExpandedDesign, "predict", counting)
    path = solve_path(design.expanded(), SolverConfig(mode=mode))
    assert path.n_segments > 4 * lp.lars.REFRESH_EVERY
    assert len(calls) <= -(-path.n_segments // lp.lars.REFRESH_EVERY) + 2
    assert design.gram_decays


class TestBatchedJoin:
    def test_saturated_tie_is_screened_without_appends(self, monkeypatch):
        calls = []
        original = lp.CholeskyFactor.append_column

        def counting(self, gram_row):
            calls.append(self.size)
            return original(self, gram_row)

        monkeypatch.setattr(lp.CholeskyFactor, "append_column", counting)
        design = standardize(lp.gen_block(n=30, p=100, seed=0)[0])
        path = solve_path(design.expanded(), SolverConfig(mode="lar"))
        # the last event ties all 142 remaining columns at the zero-residual point
        assert [e.kind for e in path.events] == ["join"] * 29
        assert [e.index for e in path.events] == [
            81, 54, 87, 106, 52, 115, 96, 85, 179, 94, 23, 83, 9, 102, 59,
            98, 3, 51, 69, 35, 139, 173, 91, 156, 120, 140, 95, 8, 0,
        ]
        assert len(calls) <= path.n_segments + 1

    @pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
    def test_nothing_is_gathered_after_the_final_vertex(self, monkeypatch, mode):
        """The path returns at its final vertex, here a zero-residual join of
        every remaining column, before any join bookkeeping."""
        recorded, gathered_at, appended_at = [], [], []
        record = lp.path._PathRecorder.append
        gather = lp.ExpandedDesign.gram_entries
        append = lp.CholeskyFactor.append_column

        def recording(self, *args):
            recorded.append(None)
            return record(self, *args)

        def gathering(self, rows, cols):
            gathered_at.append(len(recorded))
            return gather(self, rows, cols)

        def appending(self, gram_row):
            appended_at.append(len(recorded))
            return append(self, gram_row)

        monkeypatch.setattr(lp.path._PathRecorder, "append", recording)
        monkeypatch.setattr(lp.ExpandedDesign, "gram_entries", gathering)
        monkeypatch.setattr(lp.CholeskyFactor, "append_column", appending)
        design = standardize(lp.gen_block(n=30, p=100, seed=0)[0])
        path = solve_path(design.expanded(), SolverConfig(mode=mode))
        assert path.events[-1].kind == "join" and len(recorded) == path.n_segments
        assert gathered_at and max(gathered_at) < path.n_segments
        assert appended_at and max(appended_at) < path.n_segments
