"""Generated small designs: solve_path against the exact replay and the KKT certificate.

Designs have n <= 20 rows and p <= 12 columns: Gaussian (n > p + 1,
n = p + 1 and p > n), step bases (a linear response on them gives exact
ties), and Gaussian designs with a duplicated or negated column. Columns
are scaled by 1e-6, 1 or 1e6 before standardizing, and the response by
1e-6, 1 or 1e6. The examples are derandomized, so every run checks the
same designs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import l1paths as lp
from l1paths import SolverConfig, kkt_certify, solve_path, standardize
from l1paths.lars import TIE_TOLERANCE
from oracles import replay_vertices, rng_for

SCALES = (1e-6, 1.0, 1e6)
KINDS = ("gaussian", "square", "wide", "step", "copied", "negated")


@st.composite
def datasets(draw, kind):
    """A generated design of the given kind."""
    rng = rng_for(draw(st.integers(0, 2**20)))
    if kind == "step":
        n = draw(st.integers(4, 20))
        p = draw(st.integers(2, min(12, n - 1)))
        knots = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))
        X = (np.arange(n)[:, None] >= knots).astype(float)
        y = np.arange(n, dtype=float) if draw(st.booleans()) else rng.standard_normal(n)
    else:
        if kind == "square":
            p = draw(st.integers(2, 12))
            n = p + 1
        elif kind == "wide":
            n = draw(st.integers(3, 10))
            p = draw(st.integers(n + 1, 12))
        else:
            p = draw(st.integers(2, 12))
            n = draw(st.integers(p + 2, 20))
        X = rng.standard_normal((n, p))
        if kind in ("copied", "negated"):
            X[:, 1] = X[:, 0] if kind == "copied" else -X[:, 0]
        y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.6)) + rng.standard_normal(n)
    X = X * np.array([draw(st.sampled_from(SCALES)) for _ in range(X.shape[1])])
    return lp.Dataset(X=X, y=y * draw(st.sampled_from(SCALES)))


def _own_lambda(ed, beta):
    r = ed.base.y_centered - ed.predict(beta)
    return float(np.max(np.abs(ed.base.correlations(r))))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_paths_match_replay_and_certify(kind, data):
    design = standardize(data.draw(datasets(kind)))
    ed = design.expanded()
    c = np.abs(design.correlations(design.y_centered))
    pair_in_start_tie = kind in ("copied", "negated") and c[0] >= c.max() * (1.0 - TIE_TOLERANCE)
    for mode in ("lar", "lasso", "fs0"):
        if pair_in_start_tie and mode != "fs0":
            # a collinear pair in the starting tie cannot be factored
            with pytest.raises(lp.DegenerateDesignError):
                solve_path(ed, SolverConfig(mode=mode))
            continue
        path = solve_path(ed, SolverConfig(mode=mode))
        V = path.vertices
        scale = np.abs(V).max()
        assert path.n_segments > 0
        assert np.max(np.abs(replay_vertices(design, path) - V)) <= 1e-9 * scale
        if mode == "lasso":
            for beta in V:
                report = kkt_certify(ed, beta, _own_lambda(ed, beta))
                assert report.passed, (report.worst_violation, report.tolerance)
