"""Independent reference implementations used to verify the solvers.

Everything here deliberately avoids the package's solver code paths:
least squares by explicit Gram inversion, non-negative least squares by
support enumeration, the L1-penalized problem by coordinate descent,
path events by scanning correlations on a fine grid, and path vertices
by an exact-arithmetic replay at 40 digits.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import mpmath
import numpy as np

import l1paths as lp


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_instance(n: int, p: int, seed: int, correlated: bool = False,
                      noise: float = 1.0):
    """A standardized regression instance with a sparse-ish truth."""
    rng = rng_for(seed)
    if correlated:
        A = rng.standard_normal((p, p))
        cov = A @ A.T + 0.5 * np.eye(p)
        X = rng.multivariate_normal(np.zeros(p), cov, size=n)
    else:
        X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) * (rng.random(p) < 0.7)
    y = X @ beta + noise * rng.standard_normal(n)
    return lp.standardize(lp.Dataset(X=X, y=y))


def orthonormal_design(n: int, p: int, seed: int, y=None):
    """Mean-zero columns with Gram exactly n * I (up to rounding)."""
    rng = rng_for(seed)
    raw = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    q, _ = np.linalg.qr(raw)
    X = q[:, 1:] * np.sqrt(n)
    if y is None:
        y = rng.standard_normal(n)
    data = lp.Dataset(X=X, y=np.asarray(y, dtype=float))
    centers = np.zeros(p)
    scales = np.ones(p)
    return lp.StandardizedDesign(
        Xs=X, centers=centers, scales=scales,
        y_centered=data.y - data.y.mean(), y_mean=float(data.y.mean()),
    )


def ls_by_gram_inverse(A, b):
    A = np.asarray(A, dtype=float)
    return np.linalg.inv(A.T @ A) @ (A.T @ b)


def nnls_by_enumeration(A, b, weights=None):
    """Global non-negative least squares by support enumeration.

    Solves the unconstrained problem on every support, keeps feasible
    candidates, and returns the best; exact for full-rank A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float))
        A = sw[:, None] * A
        b = sw * b
    n = A.shape[1]
    best = np.zeros(n)
    best_obj = float(b @ b)
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            sub = A[:, support]
            theta = np.linalg.lstsq(sub, b, rcond=None)[0]
            if theta.min() < -1e-12:
                continue
            r = b - sub @ theta
            obj = float(r @ r)
            if obj < best_obj - 1e-12 * max(1.0, best_obj):
                best_obj = obj
                best = np.zeros(n)
                best[list(support)] = np.maximum(theta, 0.0)
    return best, best_obj


def cd_lasso(X, y, lam, max_sweeps=200_000, tol=1e-14):
    """Coordinate descent for min 1/2 ||y - X b||^2 + lam ||b||_1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    beta = np.zeros(p)
    r = y.copy()
    ss = (X**2).sum(axis=0)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(p):
            bj = beta[j]
            rho = X[:, j] @ r + ss[j] * bj
            bn = np.sign(rho) * max(abs(rho) - lam, 0.0) / ss[j]
            if bn != bj:
                r += X[:, j] * (bj - bn)
                beta[j] = bn
                delta = max(delta, abs(bn - bj))
        if delta <= tol * max(1.0, float(np.max(np.abs(beta)))):
            break
    return beta


def grid_scan_event(design, beta, rho, dgamma=1e-6, gmax=None):
    """First catch-up step along rho found by brute-force scanning.

    Walks gamma on a fixed grid, recomputing every correlation from the
    residual, until some column outside the moving support matches the
    maximal correlation.
    """
    beta = np.asarray(beta, dtype=float)
    y = design.base.y_centered
    r0 = y - design.predict(beta)
    c0 = design.correlations(r0)
    C0 = c0.max()
    tied0 = set(np.flatnonzero(c0 >= C0 * (1 - 1e-9)))
    support = set(np.flatnonzero(rho != 0.0))
    p = design.p
    blocked = tied0 | {a + p if a < p else a - p for a in support}
    if gmax is None:
        gmax = 10.0
    for gamma in np.arange(dgamma, gmax, dgamma):
        r = y - design.predict(beta + gamma * rho)
        c = design.correlations(r)
        Cact = max(c[a] for a in tied0)
        if Cact <= 0:
            return gamma, None
        for j in range(2 * p):
            if j in blocked:
                continue
            if c[j] >= Cact:
                return gamma, j
    return None, None


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sup_distance(path_a, path_b, upto=None, points=400):
    """Sup of collapsed coefficient differences at matched parameters."""
    hi = min(path_a.end, path_b.end)
    if upto is not None:
        hi = min(hi, upto)
    grid = np.linspace(0.0, hi, points)
    ca = lp.collapse(path_a.evaluate(grid))
    cb = lp.collapse(path_b.evaluate(grid))
    return float(np.max(np.abs(ca - cb)))


def replay_vertices(design, path, dps=40):
    """The vertices of an exact path, recomputed at ``dps`` significant digits.

    From zero, each segment takes the path's own support
    (``segment_active_sets``) and event. The direction is the
    least-squares fit of the residual on the support's signed columns,
    scaled to unit mass; the step follows from the event kind: the
    catch-up of the joining column, the zero crossing of the dropping
    one, or the least-squares point (a stop event keeps the path's step).
    The standardized data enter as the exact values of their floats.
    """
    design = design.expanded() if isinstance(design, lp.StandardizedDesign) else design
    p = design.p

    def sign(a):
        return 1 if a < p else -1

    with mpmath.workdps(dps):
        cols = [[mpmath.mpf(float(v)) for v in design.base.Xs[:, j]] for j in range(p)]
        xty = [mpmath.fdot(col, [mpmath.mpf(float(v)) for v in design.base.y_centered])
               for col in cols]
        rows = {}

        def gram(i, j):
            if i not in rows:
                rows[i] = [mpmath.fdot(cols[i], col) for col in cols]
            return rows[i][j]

        def product(a, b):  # mirrored column a against a signed base vector b
            return sign(a) * mpmath.fsum(gram(a % p, i) * v for i, v in b.items())

        beta = [mpmath.mpf(0)] * (2 * p)
        vertices = [np.zeros(2 * p)]
        for support, event in zip(path.segment_active_sets, path.events):
            signed = {}
            for a in range(2 * p):
                if beta[a] != 0:
                    signed[a % p] = signed.get(a % p, 0) + sign(a) * beta[a]

            def corr(a):
                return sign(a) * xty[a % p] - product(a, signed)

            S = list(support)
            G = mpmath.matrix([[sign(a) * sign(b) * gram(a % p, b % p) for b in S] for a in S])
            c_S = [corr(a) for a in S]
            theta = mpmath.lu_solve(G, mpmath.matrix(c_S))
            total = mpmath.fsum(theta)
            rho = {a: theta[k] / total for k, a in enumerate(S)}
            moving = {}
            for a, v in rho.items():
                moving[a % p] = moving.get(a % p, 0) + sign(a) * v
            C = max(c_S)
            Delta = max(product(a, moving) for a in S)
            j = event.index
            if event.kind == "join":
                gamma = (C - corr(j)) / (Delta - product(j, moving))
            elif event.kind == "drop":
                gamma = -beta[j] / rho[j]
            elif event.kind == "full_ls":
                gamma = C / Delta
            else:
                gamma = mpmath.mpf(event.gamma)
            for a, v in rho.items():
                beta[a] += gamma * v
            if event.kind == "drop":
                beta[j] = mpmath.mpf(0)
            vertices.append(np.array([float(v) for v in beta]))
        return np.array(vertices)


def first_violation_by_enumeration(design, kmax):
    """The first signed subset with S G_A^{-1} S 1 < -1e-10, by enumeration.

    Walks subsets by size, then lexicographically, and for each one all
    2^k sign vectors (+1 before -1, position by position), computing
    v = s * solve(G_A, s) for every sign vector. Returns a SearchReport
    in the form ``exhaustive_check`` gives.
    """
    gram = design.gram
    p = design.p
    checked = sum(comb(p, k) * 2**k for k in range(1, kmax + 1))
    for k in range(1, kmax + 1):
        signs = np.array(list(product((1.0, -1.0), repeat=k)))
        for idx in combinations(range(p), k):
            V = signs * np.linalg.solve(gram[np.ix_(idx, idx)], signs.T).T
            for s, v in zip(signs, V):
                if v.min() < -1e-10:
                    sub = lp.SignedSubset(indices=idx, signs=tuple(int(x) for x in s))
                    return lp.SearchReport(passed=False, violation=sub, vector=v, checked=checked)
    return lp.SearchReport(passed=True, violation=None, vector=None, checked=checked)


def stagewise_reference(design, config, loss=None):
    """Mirrored epsilon stagewise one step at a time, recording as it goes.

    Each step adds epsilon to the coefficient of the mirrored column with
    the largest negative loss gradient and updates the squared-loss
    gradient by that column's signed Gram column. A vertex is copied from
    the coefficients before every step whose column differs from the
    previous one, after every ``record_stride`` steps and at the end.
    Returns the path and the step sequence.
    """
    design = design.expanded() if isinstance(design, lp.StandardizedDesign) else design
    p = design.p
    y = design.base.y_centered
    eps = config.epsilon
    tol = config.stop_correlation_tolerance
    if tol is None:
        tol = lp.stagewise.STOP_RTOL * float(np.linalg.norm(y))
    squared = loss is None or loss.name == "squared"
    if squared:
        gram = design.base.gram
        c0 = design.base.Xs.T @ y
        g = np.concatenate([c0, -c0])
    else:
        eta = np.zeros(design.n)
    beta = np.zeros(2 * p)
    counts, vertices, steps = [0], [beta.copy()], []

    def record(m):
        if m > counts[-1]:
            counts.append(m)
            vertices.append(beta.copy())

    truncated = False
    m = 0
    while True:
        if not squared:
            g = design.correlations(-loss.first(y, eta))
        if float(g.max()) <= tol:
            break
        if m >= config.max_iterations:
            truncated = True
            break
        a = int(np.argmax(g))
        if steps and a != steps[-1]:
            record(m)
        if squared:
            upd = eps * gram[:, a % p]
            if a >= p:
                upd = -upd
            g[:p] -= upd
            g[p:] += upd
        else:
            eta = eta + eps * design.column(a)
        beta[a] += eps
        steps.append(a)
        m += 1
        if m % config.record_stride == 0:
            record(m)
    record(m)
    path = lp.PiecewiseLinearPath(
        breakpoints=np.array(counts, dtype=float) * eps,
        vertices=np.array(vertices),
        segment_active_sets=[()] * (len(counts) - 1),
        parametrization="l1_arc_length",
        truncated=truncated,
    )
    return path, np.array(steps, dtype=np.int64)


def index_knots(path, index_by):
    """Knots and index values of a path, refined segment by segment.

    For the norm, every segment is split at the zero crossings of its
    signed coordinates, so the norm is linear between knots.
    """
    bps = path.breakpoints
    if index_by == "arclength":
        return bps.copy(), path.tv_prefix()
    coll = lp.collapse(path.vertices)
    knots = [bps[0]]
    for k in range(path.n_segments):
        lo, hi = bps[k], bps[k + 1]
        u, w = coll[k], coll[k + 1]
        crossing = u * w < 0
        for t in np.unique(u[crossing] / (u[crossing] - w[crossing])):
            knots.append(lo + t * (hi - lo))
        knots.append(hi)
    knots = np.unique(np.asarray(knots))
    return knots, np.abs(lp.collapse(path.evaluate(knots))).sum(axis=-1)


def first_crossing(knots, values, value, end_rtol=1e-12):
    """First parameter at which a piecewise-linear index reaches ``value``.

    Scans the segments in order for the first one whose values bracket
    ``value`` and are not equal, and interpolates on it. A value at or
    below the first index value maps to the first knot, one past the
    largest by at most ``end_rtol`` of it to the last knot; a larger one
    raises ValueError.
    """
    if value <= values[0]:
        return float(knots[0])
    for k in range(len(values) - 1):
        lo, hi = values[k], values[k + 1]
        if min(lo, hi) <= value <= max(lo, hi) and lo != hi:
            t = (value - lo) / (hi - lo)
            return float(knots[k] + t * (knots[k + 1] - knots[k]))
    if value > values.max() * (1.0 + end_rtol):
        raise ValueError(f"index value {value} beyond the path's range {values.max()}")
    return float(knots[-1])


def compare_paths_reference(a, b, index_by="norm", grid=512, threshold=1e-8):
    """Sup difference and first divergence of two paths, one index value at a time.

    Returns ``(sup_difference, divergence_index)``: both paths are
    evaluated at the first crossing of every index value of either path
    and of an even grid over the common range; the first value whose
    difference exceeds ``threshold`` is refined by 60 bisection steps.
    """
    ka, va = index_knots(a, index_by)
    kb, vb = index_knots(b, index_by)
    hi = min(va[-1], vb[-1])
    values = np.union1d(np.union1d(va[va <= hi], vb[vb <= hi]), np.linspace(0.0, hi, grid))

    def diff_at(v):
        ca = lp.collapse(a.evaluate(first_crossing(ka, va, v)))
        cb = lp.collapse(b.evaluate(first_crossing(kb, vb, v)))
        return float(np.max(np.abs(ca - cb)))

    diffs = np.array([diff_at(float(v)) for v in values])
    over = np.flatnonzero(diffs > threshold)
    divergence = None
    if over.size:
        k = int(over[0])
        lo_v = float(values[k - 1]) if k else 0.0
        hi_v = float(values[k])
        for _ in range(60):
            mid = 0.5 * (lo_v + hi_v)
            if diff_at(mid) > threshold:
                hi_v = mid
            else:
                lo_v = mid
        divergence = hi_v
    return float(diffs.max()), divergence


def _glm_direction_reference(design, beta, loss, tie_tolerance=lp.lars.TIE_TOLERANCE,
                             zero_tolerance=None):
    """``glm_move_direction`` with every direction from the weighted NNLS."""
    from l1paths.lars import _as_expanded, _tied_set, _unit_direction
    from l1paths.stagewise import WEIGHT_FLOOR, _stop_tolerance

    design = _as_expanded(design)
    beta = np.asarray(beta, dtype=float)
    y = design.base.y_centered
    eta = design.predict(beta)
    u = loss.first(y, eta)
    g = design.correlations(-u)  # negative gradient per mirrored column
    C = float(g.max())
    if C <= _stop_tolerance(zero_tolerance, y):
        return lp.MoveDirection(np.zeros(design.p2), ())
    w = loss.second(y, eta)
    if np.any(w <= WEIGHT_FLOOR):
        raise lp.CurvatureError(
            "second-derivative weights collapsed to zero; reduce the step size"
        )
    active = _tied_set(g, C, tie_tolerance)
    Xa = design.columns(active)
    theta = lp.solve_nnls_gram(Xa.T @ (w[:, None] * Xa), g[active])
    return _unit_direction(design.p2, active, theta)


def integrate_reference(design, loss, control=None):
    """The Euler loop of ``integrate_monotone_path`` on the reference direction.

    Every step's direction comes from a weighted Lawson-Hanson fit on the
    tied columns, even when one column is tied alone, and the loss
    derivatives u and w from separate ``first`` and ``second`` calls.
    Unlike the other references here it reuses the package's weighted
    NNLS and path recorder: it checks the integrator's choice of
    direction, bit for bit, not those pieces.
    """
    from l1paths.lars import _as_expanded
    from l1paths.path import _PathRecorder
    from l1paths.stagewise import LOSS_INCREASE_SLACK, _stop_tolerance

    control = control or lp.StepControl()
    design = _as_expanded(design)
    y = design.base.y_centered
    loss.validate_response(y)
    tol = _stop_tolerance(control.gradient_tolerance, y)

    h = control.step
    h_floor = control.step * control.min_step_factor
    beta = np.zeros(design.p2)
    eta = np.zeros(design.n)
    current = loss.total(y, eta)
    rec = _PathRecorder(beta, "l1_arc_length", design.base.feature_names)
    ell = 0.0
    prev_support = ()
    truncated = False
    accepted = 0

    while True:
        if accepted >= control.max_steps:
            truncated = True
            break
        direction = _glm_direction_reference(design, beta, loss, zero_tolerance=tol)
        if direction.is_zero:
            break
        step_fit = design.predict(direction.rho)
        while True:
            eta_trial = eta + h * step_fit
            trial = loss.total(y, eta_trial)
            if trial <= current + LOSS_INCREASE_SLACK * (1.0 + abs(current)):
                break
            h /= 2.0
            if h < h_floor:
                raise lp.StepSizeError(
                    "loss increases even at the floor step size; integration aborted"
                )
        if direction.support != prev_support:
            rec.advance(ell, beta)
            prev_support = direction.support
        beta = beta + h * direction.rho
        eta = eta_trial
        current = trial
        ell += h
        accepted += 1
        if accepted % control.record_stride == 0:
            rec.advance(ell, beta)
        if control.arc_budget is not None and ell >= control.arc_budget:
            break
    rec.advance(ell, beta)
    return rec.build(truncated)
