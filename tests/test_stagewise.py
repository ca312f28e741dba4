import math
import warnings

import numpy as np
import pytest

import l1paths as lp
from l1paths import (
    ConfigError,
    SolverConfig,
    StagewiseConfig,
    StepControl,
    StepSizeError,
    collapse,
    fs_epsilon,
    glm_move_direction,
    integrate_monotone_path,
    logistic_loss,
    monotone_incremental,
    monotone_move_direction,
    solve_path,
    squared_error_loss,
    standardize,
)
from oracles import (
    gaussian_instance,
    integrate_reference,
    nnls_by_enumeration,
    orthonormal_design,
    rng_for,
    stagewise_reference,
    sup_distance,
)


def balanced_logistic_design(n=20, p=4, seed=9):
    rng = rng_for(seed)
    X = rng.standard_normal((n, p))
    y = (np.arange(n) % 2).astype(float)
    return standardize(lp.Dataset(X=X, y=y), center_response=False)


def tied_logistic_design(n=20, p=4, seed=9):
    """``balanced_logistic_design`` with column 1 replaced by column 0 moved
    down two rows. The response has period 2, so at beta = 0 the two columns
    have the same gradient, and it is the largest: the first direction is a
    weighted NNLS fit on both."""
    rng = rng_for(seed)
    X = rng.standard_normal((n, p))
    X[:, 1] = np.roll(X[:, 0], 2)
    y = (np.arange(n) % 2).astype(float)
    return standardize(lp.Dataset(X=X, y=y), center_response=False)


def logistic_sine(seed):
    """The sine design with the response split at its median."""
    data = lp.gen_sine(seed=seed)
    y = (data.y > np.median(data.y)).astype(float)
    return standardize(lp.Dataset(X=data.X, y=y), center_response=False)


def signal_logistic_design(n=30, p=4, seed=15):
    # real signal keeps the unpenalized optimum far out, so integration
    # budgets below its coefficient norm stay in the descending regime
    rng = rng_for(seed)
    X = rng.standard_normal((n, p))
    eta = X @ np.array([2.0, -1.5, 1.0, 0.0])[:p]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return standardize(lp.Dataset(X=X, y=y), center_response=False)


class TestFsEpsilon:
    def test_orthogonal_response_empty_path(self):
        # An exactly zero response is orthogonal to every column: no
        # correlation exceeds the stop tolerance, 1e-8 x ||y|| = 0.
        rng = rng_for(0)
        X = rng.standard_normal((12, 3))
        design = standardize(lp.Dataset(X=X, y=np.zeros(12)))
        path, steps = fs_epsilon(design, StagewiseConfig(epsilon=0.01), return_steps=True)
        assert len(steps) == 0
        assert path.n_segments == 0

    def test_single_predictor_step_count(self):
        # engineered so the least-squares coefficient is exactly 0.5
        n = 16
        design = orthonormal_design(n, 1, seed=1)
        design.y_centered = design.Xs[:, 0] * 0.5
        path, steps = fs_epsilon(design, StagewiseConfig(epsilon=0.1, max_iterations=50),
                                 return_steps=True)
        assert len(steps) == 5
        np.testing.assert_allclose(collapse(path.vertices[-1]), [0.5], atol=1e-12)

    def test_sup_distance_to_limit_decreases_with_epsilon(self):
        design = gaussian_instance(20, 5, seed=2, correlated=True)
        exact = solve_path(design.expanded(), SolverConfig(mode="fs0"))
        dists = []
        for eps in (1e-2, 1e-3, 1e-4):
            budget = int(np.ceil(1.5 * exact.end / eps)) + 10
            path = fs_epsilon(design, StagewiseConfig(epsilon=eps, max_iterations=budget))
            dists.append(sup_distance(path, exact, points=500))
        assert dists[0] > dists[1] > dists[2]
        for eps, dist in zip((1e-2, 1e-3, 1e-4), dists):
            assert dist <= 5 * eps * np.sqrt(design.p)

    def test_each_step_changes_one_coordinate_by_epsilon(self):
        design = gaussian_instance(15, 4, seed=3)
        eps = 0.05
        cfg = StagewiseConfig(epsilon=eps, max_iterations=60, record_stride=1)
        path = fs_epsilon(design, cfg)
        for k in range(path.n_segments):
            jump = collapse(path.vertices[k + 1]) - collapse(path.vertices[k])
            moved = np.flatnonzero(jump != 0.0)
            assert moved.size == 1
            steps_in_segment = (path.breakpoints[k + 1] - path.breakpoints[k]) / eps
            assert abs(jump[moved[0]]) == pytest.approx(
                eps * round(steps_in_segment), abs=1e-12
            )


class TestMonotoneIncremental:
    def test_expanded_coordinates_never_decrease(self):
        design = gaussian_instance(20, 5, seed=4, correlated=True)
        path = monotone_incremental(design.expanded(),
                                    StagewiseConfig(epsilon=0.01, max_iterations=3000))
        assert np.all(np.diff(path.vertices, axis=0) >= 0.0)

    def test_orthogonal_two_predictors_alternate_after_catchup(self):
        n = 32
        design = orthonormal_design(n, 2, seed=5)
        design.y_centered = design.Xs @ (np.array([0.9, 0.4]) / n)
        eps = 0.9 / n / 40  # correlation drop per step is eps * n
        _, steps = monotone_incremental(
            design.expanded(),
            StagewiseConfig(epsilon=eps, max_iterations=60),
            return_steps=True,
        )
        # closed form: c0 = 0.9 - k * eps * n crosses 0.4 after 23 steps,
        # then the two coordinates alternate strictly
        burn = int(np.ceil((0.9 - 0.4) / (eps * n)))
        assert np.all(steps[:burn] == 0)
        tail = steps[burn:burn + 20]
        assert np.all(tail[::2] != tail[1::2])

    def test_step_sequences_bitwise_identical_to_signed_variant(self):
        design = gaussian_instance(20, 5, seed=6, correlated=True)
        cfg = StagewiseConfig(epsilon=0.01, max_iterations=5000, record_stride=7)
        _, s_signed = fs_epsilon(design, cfg, return_steps=True)
        _, s_mirror = monotone_incremental(design.expanded(), cfg, return_steps=True)
        assert np.array_equal(s_signed, s_mirror)

    def test_collapsed_vertices_match_signed_variant_exactly_at_binary_epsilon(self):
        # epsilon an exact power of two keeps every coefficient sum exact,
        # so the two formulations agree bit for bit
        design = gaussian_instance(20, 5, seed=6, correlated=True)
        cfg = StagewiseConfig(epsilon=2.0**-7, max_iterations=4000, record_stride=5)
        p_signed = fs_epsilon(design, cfg)
        p_mirror = monotone_incremental(design.expanded(), cfg)
        assert np.array_equal(p_signed.breakpoints, p_mirror.breakpoints)
        assert np.array_equal(collapse(p_signed.vertices), collapse(p_mirror.vertices))

    def test_arc_length_equals_steps_times_epsilon(self):
        design = gaussian_instance(20, 5, seed=6)
        cfg = StagewiseConfig(epsilon=0.01, max_iterations=500)
        path, steps = monotone_incremental(design.expanded(), cfg, return_steps=True)
        assert path.end == pytest.approx(len(steps) * 0.01, abs=1e-12)
        assert np.all(np.diff(path.vertices, axis=0) >= 0)

    @pytest.mark.parametrize("y, first", [((1, -1), 0), ((-1, 1), 1)])
    def test_tie_rule_positive_column_then_lower_index(self, y, first):
        # |x0 . y| = |x1 . y| = 4 exactly; the positive column wins over
        # the negated one
        X = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]).T
        design = standardize(lp.Dataset(X=X, y=X @ np.array(y, dtype=float)))
        np.testing.assert_array_equal(np.abs(design.Xs.T @ design.y_centered), [4.0, 4.0])
        cfg = StagewiseConfig(epsilon=0.1, max_iterations=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, s_signed = fs_epsilon(design, cfg, return_steps=True)
            _, s_mirror = monotone_incremental(design.expanded(), cfg, return_steps=True)
        assert s_signed.tolist() == s_mirror.tolist() == [first]

    def test_truncated_means_the_same_for_both_losses(self):
        # both standardized columns are orthogonal to y - 1/2, so the
        # logistic gradient at zero is exactly zero, as are the correlations
        X = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, -1.0], [0.0, 1.0]])
        zero = standardize(lp.Dataset(X=X, y=np.array([1.0, 0.0, 1.0, 0.0])),
                           center_response=False)
        live = signal_logistic_design(seed=15)
        for loss in (squared_error_loss(), logistic_loss()):
            for design, budget, truncated in ((zero, 0, False), (live, 3, True)):
                cfg = StagewiseConfig(epsilon=0.1, max_iterations=budget)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    path = monotone_incremental(design.expanded(), cfg, loss=loss)
                assert path.truncated is truncated
                assert len(caught) == int(truncated)


class TestRecordedVertices:
    """A stepping solver records a vertex at every record_stride step,
    at every direction change, and at the end, and nowhere else."""

    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_epsilon_solvers(self, stride):
        design = gaussian_instance(30, 5, seed=3, correlated=True)
        cfg = StagewiseConfig(epsilon=1e-2, max_iterations=800, record_stride=stride)
        for path, steps in (monotone_incremental(design.expanded(), cfg, return_steps=True),
                            fs_epsilon(design, cfg, return_steps=True)):
            m = len(steps)
            changes = [i for i in range(1, m) if steps[i] != steps[i - 1]]
            counts = sorted({0, m, *range(stride, m + 1, stride), *changes})
            assert np.all(np.diff(path.breakpoints) > 0)
            np.testing.assert_array_equal(path.breakpoints,
                                          np.array(counts, dtype=float) * cfg.epsilon)
            for k, count in enumerate(counts):
                moved = np.bincount(steps[:count], minlength=2 * design.p) * cfg.epsilon
                np.testing.assert_allclose(collapse(path.vertices[k]), collapse(moved),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 5, 100])
    def test_integrator(self, stride):
        design = signal_logistic_design(seed=15)
        ed = design.expanded()
        loss = logistic_loss()
        h = 0.02
        path = integrate_monotone_path(
            ed, loss, StepControl(step=h, arc_budget=2.0, record_stride=stride)
        )
        assert np.all(np.diff(path.breakpoints) > 0)
        # Every recorded segment moves on one support, the one its first
        # vertex's direction has: a support change always starts a segment.
        for k in range(path.n_segments):
            move = glm_move_direction(ed, path.vertices[k], loss)
            moved = np.flatnonzero(path.vertices[k + 1] > path.vertices[k])
            assert move.support == tuple(int(a) for a in moved)
        # The step is never halved here, so breakpoints are step counts times h.
        counts = np.round(path.breakpoints / h).astype(int)
        np.testing.assert_allclose(counts * h, path.breakpoints, rtol=0, atol=1e-9)
        assert set(range(0, counts[-1] + 1, stride)) <= set(counts.tolist())


def _sine(seed):
    return standardize(lp.gen_sine(seed=seed))


def _zero_response(design):
    return lp.StandardizedDesign(Xs=design.Xs, centers=design.centers, scales=design.scales,
                                 y_centered=np.zeros(design.n), y_mean=0.0)


def _p_greater_than_n():
    rng = rng_for(21)
    return standardize(lp.Dataset(X=rng.standard_normal((20, 60)), y=rng.standard_normal(20)))


REFERENCE_CASES = [
    *((f"sine{seed}-stride{stride}", lambda seed=seed: _sine(seed),
       dict(epsilon=1e-3, max_iterations=8000, record_stride=stride))
      for seed in range(3) for stride in (1, 7, 100)),
    ("block30x100", lambda: standardize(lp.gen_block(n=30, p=100, seed=0)[0]),
     dict(epsilon=1e-2, max_iterations=20_000, record_stride=7)),
    ("p>n-20x60", _p_greater_than_n, dict(epsilon=1e-2, max_iterations=5000, record_stride=3)),
    ("no-budget", lambda: _sine(0), dict(epsilon=1e-3, max_iterations=0)),
    ("truncating", lambda: _sine(1), dict(epsilon=1e-3, max_iterations=777, record_stride=10)),
    ("zero-response", lambda: _zero_response(_sine(0)), dict(epsilon=1e-3)),
]


class TestMatchesPerStepReference:
    """The vertices built from the step sequence are the per-step loop's, bit for bit."""

    @staticmethod
    def _assert_same(path, steps, ref, ref_steps):
        np.testing.assert_array_equal(steps, ref_steps)
        assert np.array_equal(path.breakpoints, ref.breakpoints)
        assert np.array_equal(path.vertices, ref.vertices)
        assert path.truncated == ref.truncated
        assert path.segment_active_sets == ref.segment_active_sets

    @pytest.mark.parametrize("make, options", [case[1:] for case in REFERENCE_CASES],
                             ids=[case[0] for case in REFERENCE_CASES])
    def test_squared_loss(self, make, options):
        design = make()
        cfg = StagewiseConfig(**options)
        ref, ref_steps = stagewise_reference(design, cfg)
        self._assert_same(*monotone_incremental(design.expanded(), cfg, return_steps=True),
                          ref, ref_steps)
        signed = lp.PiecewiseLinearPath(ref.breakpoints, lp.expand(collapse(ref.vertices)),
                                        ref.segment_active_sets, ref.parametrization,
                                        truncated=ref.truncated)
        self._assert_same(*fs_epsilon(design, cfg, return_steps=True), signed, ref_steps)

    def test_reference_cases_cover_both_stops(self):
        stops = {stagewise_reference(make(), StagewiseConfig(**options))[0].truncated
                 for _, make, options in REFERENCE_CASES}
        assert stops == {True, False}

    @pytest.mark.parametrize("budget, stride", [(400, 1), (400, 9), (0, 100)])
    def test_logistic_loss(self, budget, stride):
        design = signal_logistic_design(seed=15)
        cfg = StagewiseConfig(epsilon=0.01, max_iterations=budget, record_stride=stride)
        ref, ref_steps = stagewise_reference(design, cfg, loss=logistic_loss())
        self._assert_same(*monotone_incremental(design.expanded(), cfg, loss=logistic_loss(),
                                                return_steps=True), ref, ref_steps)


class TestGlmMoveDirection:
    def test_default_zero_tolerance_is_relative(self):
        """With squared loss, y x 1e-15 moves on the support y does: the
        default tolerance is 1e-8 x ||y||, as integrate_monotone_path's."""
        data = lp.gen_block(n=30, p=100, seed=0)[0]
        supports = []
        for scale in (1.0, 1e-15):
            ed = standardize(lp.Dataset(X=data.X, y=data.y * scale)).expanded()
            move = glm_move_direction(ed, np.zeros(ed.p2), squared_error_loss())
            supports.append(move.support)
        assert supports[0] != ()
        assert supports[1] == supports[0]

    def test_squared_error_coincides_with_monotone_direction(self):
        design = gaussian_instance(20, 5, seed=7, correlated=True)
        ed = design.expanded()
        path = solve_path(ed, SolverConfig(mode="fs0"))
        for k in (1, 2, len(path.breakpoints) - 2):
            beta = path.vertices[k]
            a = monotone_move_direction(ed, beta)
            b = glm_move_direction(ed, beta, squared_error_loss())
            np.testing.assert_allclose(a.rho, b.rho, atol=1e-10)

    def test_logistic_at_zero_equals_squared_on_centered_response(self):
        design = balanced_logistic_design()
        g_logistic = glm_move_direction(design.expanded(), np.zeros(8), logistic_loss())
        centered = standardize(
            lp.Dataset(X=design.Xs * 1.0, y=design.y_centered), center_response=True
        )
        # standardizing an already standardized design is a no-op; y is centered to y - 1/2
        g_squared = monotone_move_direction(centered.expanded(), np.zeros(8))
        np.testing.assert_allclose(g_logistic.rho, g_squared.rho, atol=1e-12)

    def test_logistic_direction_matches_weighted_enumeration(self):
        # At beta = 0 two columns tie exactly, so the direction is a weighted
        # NNLS fit on both.
        ed = tied_logistic_design().expanded()
        loss = logistic_loss()
        beta = np.zeros(ed.p2)
        move = glm_move_direction(ed, beta, loss)
        y = ed.base.y_centered
        eta = ed.predict(beta)
        u = loss.first(y, eta)
        w = loss.second(y, eta)
        g = ed.correlations(-u)
        active = np.flatnonzero(g >= g.max() * (1 - 1e-9))
        assert active.size >= 2
        ref, _ = nnls_by_enumeration(ed.columns(active), -u / w, weights=w)
        np.testing.assert_allclose(move.rho[active], ref / ref.sum(), atol=1e-9)

    def test_saturated_weights_raise_curvature_error(self):
        design = balanced_logistic_design()
        beta = np.zeros(8)
        beta[0] = 50.0  # eta magnitudes far beyond logistic resolution
        with pytest.raises(lp.CurvatureError):
            glm_move_direction(design.expanded(), beta, logistic_loss())


EULER_CASES = [
    *((f"sine{seed}-stride{stride}", lambda seed=seed: logistic_sine(seed), logistic_loss,
       dict(step=0.01, arc_budget=5.0, record_stride=stride))
      for seed in range(4) for stride in (1, 100)),
    ("squared-correlated", lambda: gaussian_instance(20, 5, seed=14, correlated=True),
     squared_error_loss, dict(step=0.01, arc_budget=2.0, record_stride=7)),
    ("truncating", lambda: logistic_sine(1), logistic_loss,
     dict(step=0.01, max_steps=150, record_stride=10)),
    ("tied-start", tied_logistic_design, logistic_loss,
     dict(step=0.05, arc_budget=2.0, record_stride=1)),
]


class TestEulerMatchesReference:
    """The integrator's path is the per-step reference's, bit for bit: a lone
    tied column as the direction gives what the weighted NNLS gives."""

    @pytest.mark.parametrize("make, loss, options", [case[1:] for case in EULER_CASES],
                             ids=[case[0] for case in EULER_CASES])
    def test_same_path(self, make, loss, options):
        ed = make().expanded()
        control = StepControl(**options)
        path = integrate_monotone_path(ed, loss(), control)
        ref = integrate_reference(ed, loss(), control)
        assert np.array_equal(path.breakpoints, ref.breakpoints)
        assert np.array_equal(path.vertices, ref.vertices)
        assert path.truncated == ref.truncated

    def test_cases_cover_truncation_and_both_directions(self):
        truncated = {integrate_reference(make().expanded(), loss(), StepControl(**options))
                     .truncated for _, make, loss, options in EULER_CASES}
        assert truncated == {True, False}
        ed = tied_logistic_design().expanded()
        assert len(glm_move_direction(ed, np.zeros(ed.p2), logistic_loss()).support) >= 2


BAD_STEP_CONTROLS = [
    dict(step=math.nan), dict(step=math.inf), dict(step=0.0), dict(step=-0.01),
    dict(arc_budget=math.nan), dict(arc_budget=math.inf), dict(arc_budget=0.0),
    dict(arc_budget=-1.0),
    dict(max_steps=-1),
    dict(record_stride=0),
]


class TestStepValidation:
    """Invalid stepping settings raise ConfigError before any step."""

    @pytest.mark.parametrize("options", BAD_STEP_CONTROLS,
                             ids=[",".join(f"{k}={v}" for k, v in o.items())
                                  for o in BAD_STEP_CONTROLS])
    def test_step_control_rejects(self, options):
        with pytest.raises(ConfigError):
            StepControl(**options).validate()
        # A zero step budget ends any run before its first step.
        control = StepControl(**{"max_steps": 0, **options})
        with pytest.raises(ConfigError):
            integrate_monotone_path(signal_logistic_design(), logistic_loss(), control)

    def test_step_control_boundaries_accepted(self):
        StepControl(step=1e-300, arc_budget=1e-300, max_steps=0).validate()

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.01])
    def test_stagewise_config_rejects_epsilon(self, epsilon):
        cfg = StagewiseConfig(epsilon=epsilon, max_iterations=1)
        with pytest.raises(ConfigError):
            cfg.validate()
        design = gaussian_instance(20, 5, seed=3)
        with pytest.raises(ConfigError):
            monotone_incremental(design.expanded(), cfg)
        with pytest.raises(ConfigError):
            fs_epsilon(design, cfg)


class TestNewtonStep:
    def test_newton_equals_first_irls_iterate(self):
        rng = rng_for(13)
        X = rng.standard_normal((60, 3))
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(X @ np.array([1.0, -0.5, 0.25]))))).astype(float)
        loss = logistic_loss()
        eta0 = np.zeros(60)
        u = loss.first(y, eta0)
        w = loss.second(y, eta0)
        newton = -np.linalg.inv(X.T @ (w[:, None] * X)) @ (X.T @ u)
        # reference: weighted least squares on the adjusted response
        sw = np.sqrt(w)
        z = eta0 - u / w
        irls = np.linalg.lstsq(sw[:, None] * X, sw * z, rcond=None)[0]
        np.testing.assert_allclose(newton, irls, atol=1e-9)


class TestIntegrator:
    def test_squared_error_converges_to_exact_path(self):
        design = gaussian_instance(20, 5, seed=14, correlated=True)
        ed = design.expanded()
        exact = solve_path(ed, SolverConfig(mode="fs0"))
        dists = []
        for h in (1e-2, 1e-3):
            path = integrate_monotone_path(
                ed, squared_error_loss(),
                StepControl(step=h, arc_budget=exact.end, max_steps=200_000),
            )
            dists.append(sup_distance(path, exact, points=400))
        assert dists[1] < dists[0]
        assert dists[0] <= 0.2

    def test_loss_never_increases_along_path(self):
        design = signal_logistic_design(seed=15)
        loss = logistic_loss()
        path = integrate_monotone_path(design.expanded(), loss,
                                       StepControl(step=0.02, arc_budget=3.0))
        y = design.y_centered
        vals = [loss.total(y, design.expanded().predict(v)) for v in path.vertices]
        assert np.all(np.diff(vals) <= 1e-10)

    def test_separable_single_predictor_stops_at_budget(self):
        x = np.linspace(-1, 1, 20)
        y = (x > 0).astype(float)
        design = standardize(lp.Dataset(X=x[:, None], y=y), center_response=False)
        loss = logistic_loss()
        budget = 3.0
        path = integrate_monotone_path(design.expanded(), loss,
                                       StepControl(step=0.05, arc_budget=budget))
        assert path.end >= budget - 1e-9
        vals = [loss.total(design.y_centered, design.expanded().predict(v))
                for v in (path.vertices[-2], path.vertices[-1])]
        assert vals[1] < vals[0]  # still descending when the budget stops it

    def test_monotone_expanded_coordinates(self):
        design = signal_logistic_design(seed=15)
        path = integrate_monotone_path(design.expanded(), logistic_loss(),
                                       StepControl(step=0.02, arc_budget=2.0))
        assert np.all(np.diff(path.vertices, axis=0) >= 0.0)

    def test_matches_epsilon_stepping_at_same_resolution(self):
        design = signal_logistic_design(seed=16)
        ed = design.expanded()
        loss = logistic_loss()
        h = 0.01
        budget = 2.0
        euler = integrate_monotone_path(ed, loss, StepControl(step=h, arc_budget=budget))
        stepped = monotone_incremental(
            ed, StagewiseConfig(epsilon=h, max_iterations=int(budget / h)), loss=loss
        )
        hi = min(euler.end, stepped.end)
        y = design.y_centered
        la = loss.total(y, ed.predict(euler.evaluate(hi)))
        lb = loss.total(y, ed.predict(stepped.evaluate(hi)))
        assert abs(la - lb) <= 1e-3

    def test_floor_abort_raises_step_size_error(self):
        class RisingLoss(lp.losses.SquaredErrorLoss):
            """Squared loss whose total rises with every evaluation, so no
            trial step descends."""

            calls = 0

            def total(self, y, eta):
                self.calls += 1
                return float(self.calls)

        design = gaussian_instance(15, 3, seed=17)
        loss = RisingLoss()
        with pytest.raises(StepSizeError):
            integrate_monotone_path(design.expanded(), loss, StepControl(step=0.05))
        # The start, then one trial at each step from 0.05 down to the floor.
        assert loss.calls == 2 + round(-math.log2(lp.stagewise.STEP_FLOOR))
