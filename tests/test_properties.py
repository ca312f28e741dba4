"""Generated small designs: solve_path against the exact replay and the KKT certificate.

Designs have n <= 20 rows and p <= 12 columns: Gaussian (n > p + 1,
n = p + 1 and p > n), step bases (a linear response on them gives exact
ties), and Gaussian designs with a duplicated or negated column. Columns
are scaled by 1e-6, 1 or 1e6 before standardizing, and the response by
1e-6, 1 or 1e6. The examples come from fixed seeds (derandomized ones for
the NNLS problems below), so every run checks the same designs.

Generated small non-negative least-squares problems (m <= 8, n <= 6)
check ``solve_nnls_gram`` against ``oracles.nnls_by_enumeration``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import l1paths as lp
from l1paths import SolverConfig, kkt_certify, solve_path, standardize
from oracles import nnls_by_enumeration, replay_vertices, rng_for

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


# Hypothesis seeds derandomized examples from a hash of the test's source, so
# any edit to its body would draw new designs. Each kind's seed is fixed
# instead, to the one Hypothesis derived from an earlier version of the test,
# so the test keeps checking the same designs.
SEEDS = {
    "gaussian": int("262171861194151394176202367882866533217393282488146661533136"
                    "39689064856656799720294636905457125549045407939305780054"),
    "square": int("312098045441073907317457055348584135246050518554476355677327"
                  "78608769909143345942528558591759636271776590780064320801"),
    "wide": int("325813198079308989280912272776210712066108194748210715932244"
                "74842006424082485750834717912023513280939993374938630902"),
    "step": int("277668321948187496514489763271783656460737320162291130865398"
                "23755272262102776331332490188500416300575367358706045460"),
    "copied": int("390654728709745698976862695101095477131287820468197746262047"
                  "54649170851259122493388488937649193608918099618570486089"),
    "negated": int("251505269025935150803358932491544377969772378261626543921956"
                   "37024290139374528389012205506969266421802480069077138228"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_paths_match_replay_and_certify(kind):
    @seed(SEEDS[kind])
    @settings(max_examples=15, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        design = standardize(data.draw(datasets(kind)))
        ed = design.expanded()
        for mode in ("lar", "lasso", "fs0"):
            path = solve_path(ed, SolverConfig(mode=mode))
            V = path.vertices
            scale = np.abs(V).max()
            assert path.n_segments > 0
            assert np.max(np.abs(replay_vertices(design, path) - V)) <= 1e-9 * scale
            if mode == "lasso":
                for beta in V:
                    report = kkt_certify(ed, beta, _own_lambda(ed, beta))
                    assert report.passed, (report.worst_violation, report.tolerance)

    check()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Gram-space solves square the condition number: cond(X_A) is 7.2e4 on the last "
    "segment, and the last vertex is 2e-7 to 6e-7 relative from the replay "
    "(ROADMAP, accuracy on near-singular active sets)"))
@pytest.mark.parametrize("mode", ["lar", "lasso", "fs0"])
def test_ill_conditioned_square_design_matches_replay(mode):
    """A square Gaussian design (n = 6, p = 5) of the kind the test above draws."""
    rng = rng_for(885)
    X = rng.standard_normal((6, 5))
    y = X @ (rng.standard_normal(5) * (rng.random(5) < 0.6)) + rng.standard_normal(6)
    design = standardize(lp.Dataset(X=X, y=y))
    path = solve_path(design.expanded(), SolverConfig(mode=mode))
    V = path.vertices
    assert np.max(np.abs(replay_vertices(design, path) - V)) <= 1e-9 * np.abs(V).max()


@st.composite
def nnls_problems(draw, pair_noise):
    """A non-negative least-squares problem: A (m <= 8 by n <= 6) and b.

    With ``pair_noise`` set, one column of A may be another plus that much
    Gaussian noise (0: an exact copy). b is Gaussian, zero or constant.
    """
    rng = rng_for(draw(st.integers(0, 2**20)))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    A = rng.standard_normal((m, n))
    if pair_noise is not None and n >= 2 and draw(st.booleans()):
        i, j = rng.choice(n, size=2, replace=False)
        A[:, j] = A[:, i] + pair_noise * rng.standard_normal(m)
    response = draw(st.sampled_from(("gaussian", "zero", "constant")))
    if response == "gaussian":
        b = rng.standard_normal(m)
    else:
        b = np.full(m, 0.0 if response == "zero" else rng.standard_normal())
    return A, b


def _assert_matches_enumeration(A, b):
    """solve_nnls_gram is optimal: its objective is the enumerated optimum's
    to 1e-9 relative, and it meets KKT as TestNNLSGram._kkt_optimal checks."""
    theta = lp.solve_nnls_gram(A.T @ A, A.T @ b)
    _, best_obj = nnls_by_enumeration(A, b)
    r = b - A @ theta
    assert abs(float(r @ r) - best_obj) <= 1e-9 * max(1.0, best_obj)
    nu = -A.T @ r
    tol = 1e-8 * max(np.linalg.norm(b), 1e-30) * max(1.0, np.abs(A).max())
    assert theta.min() >= 0.0
    assert nu.min() >= -tol
    assert np.max(np.abs(nu * theta)) <= tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=nnls_problems(pair_noise=0.0))
def test_nnls_gram_matches_enumeration(problem):
    _assert_matches_enumeration(*problem)


@pytest.mark.xfail(strict=True, reason=(
    "Gram-space NNLS squares the condition number: a column 1e-7 from another "
    "fails the relative pivot rule, and the fit misses the optimum by up to 6e-7 "
    "relative (ROADMAP, accuracy on near-singular active sets)"))
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=nnls_problems(pair_noise=1e-7))
def test_nnls_gram_matches_enumeration_near_collinear(problem):
    _assert_matches_enumeration(*problem)
