"""The vectorized index lookup against the scalar first-crossing definition."""

import numpy as np
import pytest

import l1paths as lp
from l1paths import SolverConfig, collapse, compare_paths, holdout_mse, rss_at_index, solve_path
from l1paths.diagnostics import INDEX_END_RTOL, _IndexMap
from oracles import compare_paths_reference, first_crossing, index_knots, rng_for

MODES = ("lar", "lasso", "fs0")


def _sine_paths(seed):
    design = lp.standardize(lp.gen_sine(seed=seed))
    return design, {m: solve_path(design.expanded(), SolverConfig(mode=m)) for m in MODES}


def _zigzag_path():
    """A norm that rises, stays flat, falls, then rises through a sign change."""
    signed = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.2, 0.3], [1.5, -1.0]])
    return lp.PiecewiseLinearPath(np.arange(5.0), lp.expand(signed), [()] * 4, "l1_norm")


def _probe_values(values):
    """Every knot value, midpoints between them, and values at and past the end."""
    top = values.max()
    return np.concatenate([
        values, 0.5 * (values[:-1] + values[1:]), [values[0] - 1.0],
        [top * (1.0 + 0.5 * INDEX_END_RTOL), top * (1.0 + INDEX_END_RTOL)],
    ])


class TestIndexMap:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("index_by", ["norm", "arclength"])
    def test_lar_paths_match_scalar_first_crossing(self, seed, index_by):
        _, paths = _sine_paths(seed)
        imap = _IndexMap(paths["lar"], index_by)
        knots, values = index_knots(paths["lar"], index_by)
        assert np.array_equal(imap.knots, knots)
        assert np.array_equal(imap.values, values)
        probes = _probe_values(values)
        expected = [first_crossing(knots, values, v, INDEX_END_RTOL) for v in probes]
        assert np.array_equal(imap.ells_at(probes), expected)
        assert [imap.ell_at(float(v)) for v in probes] == expected

    def test_sine_lar_norm_is_not_monotone_for_some_seed(self):
        falls = [np.any(np.diff(_IndexMap(_sine_paths(seed)[1]["lar"], "norm").values) < 0)
                 for seed in range(4)]
        assert any(falls)

    def test_flat_and_falling_stretches(self):
        path = _zigzag_path()
        imap = _IndexMap(path, "norm")
        knots, values = index_knots(path, "norm")
        assert np.array_equal(imap.knots, knots)
        assert np.any(np.diff(values) == 0) and np.any(np.diff(values) < 0)
        assert knots.size == 6  # the sign change adds a knot
        probes = np.concatenate([_probe_values(values), [0.75, 1.0, 0.6, 2.0]])
        expected = [first_crossing(knots, values, v, INDEX_END_RTOL) for v in probes]
        assert np.array_equal(imap.ells_at(probes), expected)
        # the flat stretch at norm 1 is first reached at the end of segment 0
        assert imap.ell_at(1.0) == 1.0

    @pytest.mark.parametrize("index_by", ["norm", "arclength"])
    def test_value_past_the_end_tolerance_raises(self, index_by):
        for path in (_sine_paths(1)[1]["lar"], _zigzag_path()):
            imap = _IndexMap(path, index_by)
            beyond = imap.values.max() * (1.0 + 1e-9)
            with pytest.raises(ValueError, match="beyond the path's range"):
                first_crossing(imap.knots, imap.values, beyond, INDEX_END_RTOL)
            with pytest.raises(ValueError, match="beyond the path's range"):
                imap.ells_at([0.0, beyond])
            with pytest.raises(ValueError, match="beyond the path's range"):
                imap.ell_at(beyond)


class TestMatchesScalarReference:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("index_by", ["norm", "arclength"])
    def test_compare_paths(self, seed, index_by):
        _, paths = _sine_paths(seed)
        for a, b in (("lar", "lasso"), ("lasso", "fs0"), ("lar", "fs0")):
            rep = compare_paths(paths[a], paths[b], index_by=index_by)
            ref = compare_paths_reference(paths[a], paths[b], index_by=index_by)
            assert (rep.sup_difference, rep.divergence_index) == ref
            assert rep.divergence_index is not None

    @pytest.mark.parametrize("index_by", ["norm", "arclength"])
    def test_rss_at_index(self, index_by):
        design, paths = _sine_paths(1)
        for path in paths.values():
            knots, values = index_knots(path, index_by)
            probes = np.linspace(0.0, values.max(), 41)
            expected = []
            for v in probes:
                r = design.y_centered - design.Xs @ collapse(
                    path.evaluate(first_crossing(knots, values, v)))
                expected.append(r @ r)
            assert np.array_equal(rss_at_index(design, path, probes, index_by), expected)

    def test_holdout_mse(self):
        design, paths = _sine_paths(1)
        rng = rng_for(4)
        Xh, yh = rng.standard_normal((50, design.p)), rng.standard_normal(50)
        for path in paths.values():
            knots, values = index_knots(path, "norm")
            fractions = np.linspace(0.0, 1.0, 33)
            ells = [first_crossing(knots, values, f * values.max()) for f in fractions]
            expected = []
            for ell in ells:
                b, intercept = design.to_original_scale(collapse(path.evaluate(ell)))
                expected.append(np.mean((Xh @ b + intercept - yh) ** 2))
            curve = holdout_mse(design, path, Xh, y_holdout=yh, grid=33)
            assert np.array_equal(curve.ell, ells)
            assert np.array_equal(curve.values, expected)


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_grid_below_two_is_a_config_error(grid):
    """A grid spans its range from both ends, so it has at least two points."""
    design, paths = _sine_paths(0)
    path = paths["lasso"]
    Xh = rng_for(4).standard_normal((5, design.p))
    calls = [
        lambda: lp.rss_profile(design, path, grid=grid),
        lambda: holdout_mse(design, path, Xh, y_holdout=np.zeros(5), grid=grid),
        lambda: compare_paths(path, paths["fs0"], grid=grid),
    ]
    for call in calls:
        with pytest.raises(lp.ConfigError, match=f"grid must be at least 2, got {grid}"):
            call()
