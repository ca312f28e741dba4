"""Exact piecewise-linear path solvers.

Three modes share one event-driven engine, all run in the mirrored 2p
coordinate space where every candidate move has positive correlation
with the residual:

* ``lar``: move along the least-squares fit of the residual on the
  active columns; coordinates may pass through zero and keep going.
* ``lasso``: same direction, but a coordinate that reaches zero leaves
  the active set and the direction is recomputed.
* ``fs0``: the infinitesimal forward-stagewise limit, where the
  direction is the non-negative least-squares fit; every coordinate of
  the mirrored path is non-decreasing and the path has unit L1 speed.

A segment ends at the first of: an inactive column catching up to the
active correlation, an active coefficient hitting zero (lasso), or the
residual reaching the unrestricted least-squares fit.

Along a segment the residual and every correlation are linear in the
step, so ``solve_path`` carries them from vertex to vertex (covariance
updates) and recomputes them from the coefficients only every
``REFRESH_EVERY`` segments, near a stopping threshold, and at the end.
Each such refresh checks the carried values against the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ExpandedDesign, StandardizedDesign
from .errors import (
    ConfigError,
    DegenerateDesignError,
    InternalConsistencyError,
    StepBudgetError,
)
from .linalg import CholeskyFactor, nnls_continue
from .path import (
    EVENT_DROP,
    EVENT_FULL_LS,
    EVENT_JOIN,
    EVENT_STOP_LAMBDA,
    EVENT_STOP_NORM,
    PathEvent,
    PiecewiseLinearPath,
    _PathRecorder,
)

MODES = ("lar", "lasso", "fs0")

# Relative band within which two correlations count as tied.
TIE_TOLERANCE = 1e-9
# The path ends once the maximal correlation falls to this fraction of its
# initial value, or the residual norm to this fraction of the response norm
# (a zero-residual fit, reached when p >= n).
CORRELATION_FLOOR = 1e-10
RESIDUAL_FLOOR = 1e-10
# A step of at most this fraction of the least-squares step C / Delta is no
# step: a catch-up that short is ignored, and a drop that short is instant.
MIN_STEP_RTOL = 1e-14
# An event must come this fraction earlier than the one it displaces (a
# catch-up before the least-squares point, a drop before a catch-up), and an
# fs0 column without mass must decay this fraction faster than the tied
# maximum to leave the active set.
STRICT_RTOL = 1e-12
# The drift guard, as a fraction of the starting maximal correlation C0:
# after every segment the new maximum must equal C - gamma * Delta, and at
# every exact refresh each carried correlation its exact value, to this band.
DRIFT_RTOL = 1e-6
# Segments between exact refreshes of the carried residual and correlations.
REFRESH_EVERY = 16
# kkt_certify scales its tolerance by max(lambda, KKT_FLOOR_RTOL * lambda_max),
# lambda_max = max|X^T y|, and refuses a mirrored coefficient below
# -KKT_NEGATIVE_RTOL * max|beta|.
KKT_FLOOR_RTOL = 1e-3
KKT_NEGATIVE_RTOL = 1e-12


@dataclass
class SolverConfig:
    mode: str = "lasso"
    max_steps: int | None = None       # None: 16 p + 64
    stop_l1_norm: float | None = None
    stop_lambda: float | None = None

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")


@dataclass
class MoveDirection:
    """A unit-L1-mass direction in the mirrored coordinates.

    ``support`` lists the mirrored indices that carry mass, in the order
    of the active set the direction was built on. The public
    ``*_move_direction`` helpers build on the tied set, so their support
    is in increasing index order; ``solve_path`` builds on its active set,
    which is in join order.
    """

    rho: np.ndarray
    support: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return len(self.support) == 0


def _as_expanded(design) -> ExpandedDesign:
    if isinstance(design, StandardizedDesign):
        return design.expanded()
    return design


def _tied_set(c: np.ndarray, C: float, tie_tolerance: float) -> np.ndarray:
    return np.flatnonzero(c >= C - tie_tolerance * abs(C))


def _unit_direction(p2: int, active, theta: np.ndarray) -> MoveDirection:
    """Scale a raw direction on the active columns to unit coefficient sum."""
    total = float(theta.sum())
    if total <= 0.0:
        raise InternalConsistencyError("positive correlation but the move has no mass")
    active = np.asarray(active, dtype=int)
    rho = np.zeros(p2)
    rho[active] = theta / total
    return MoveDirection(rho, tuple(active[rho[active] != 0.0].tolist()))


def _nnls_direction(
    design, active, c, weights=None, factor=CholeskyFactor.empty(), passive=(), entering=()
):
    """Unit-mass (weighted) non-negative least-squares move on the active columns.

    ``c``: every mirrored column's correlation with the target. Lawson-Hanson
    continues from ``factor`` (immutable), the factor of the ``passive``
    columns, after appending ``entering``. Gram entries come from the cached
    base Gram, or from the active columns under ``weights``. Returns the
    direction, and the factor and passive columns of its support.
    """
    active = np.asarray(active, dtype=int)
    if weights is None:
        gram = design.gram_block
    else:
        Xa = design.columns(active)
        G = Xa.T @ (weights[:, None] * Xa)
        at = np.zeros(design.p2, dtype=int)
        at[active] = np.arange(active.size)

        def gram(rows, cols):
            return G.take(at[rows], 0).take(at[cols], 1)

    theta, factor, passive = nnls_continue(gram, c, active, factor, passive, entering)
    mass = np.zeros(design.p2)
    mass[passive] = theta
    return _unit_direction(design.p2, active, mass[active]), factor, passive


def lasso_move_direction(
    design, beta: np.ndarray, tie_tolerance: float = TIE_TOLERANCE, zero_tolerance: float = 1e-12
) -> MoveDirection:
    """Instantaneous lasso move from an arbitrary mirrored point.

    Zero when the residual is orthogonal to every column; otherwise the
    least-squares coefficients of the residual on the columns tied at
    the maximal correlation, scaled to unit coefficient sum.
    """
    design = _as_expanded(design)
    r = design.base.y_centered - design.predict(np.asarray(beta, dtype=float))
    c = design.correlations(r)
    C = float(c.max())
    if C <= zero_tolerance:
        return MoveDirection(np.zeros(design.p2), ())
    active = _tied_set(c, C, tie_tolerance)
    try:
        factor = _factor_active(design, active)
    except DegenerateDesignError:
        raise DegenerateDesignError(
            message="active set is collinear; cannot form a move direction"
        ) from None
    return _unit_direction(design.p2, active, factor.solve_gram(c[active]))


def monotone_move_direction(
    design, beta: np.ndarray, tie_tolerance: float = TIE_TOLERANCE, zero_tolerance: float = 1e-12
) -> MoveDirection:
    """Instantaneous monotone move: non-negative least squares on the tied set.

    Components forced to zero by the sign constraint carry no mass and
    are excluded from the support.
    """
    design = _as_expanded(design)
    r = design.base.y_centered - design.predict(np.asarray(beta, dtype=float))
    c = design.correlations(r)
    C = float(c.max())
    if C <= zero_tolerance:
        return MoveDirection(np.zeros(design.p2), ())
    active = _tied_set(c, C, tie_tolerance)
    return _nnls_direction(design, active, c)[0]


def _scan_events(design, beta, r, r_floor, c, C, rho, members, mode, stop_state):
    """First event along beta + gamma * rho from residual r.

    Correlations are linear in gamma: column j decays at rate
    d_j = x_j . (X rho). Every supported column (rho_j != 0) decays
    proportionally, so the tied maximum decays at Delta = max over the
    support of d, and the catch-up step for an inactive column is
    (C - c_j) / (Delta - d_j).
    The mirror of a supported column would tie exactly at the
    least-squares point, so it is excluded from the catch-up scan. Where
    the least-squares point leaves a residual of at most ``r_floor`` (a
    zero-residual fit, p >= n), every column catches up there; a catch-up
    within TIE_TOLERANCE of it is then a join at that point, so neither
    the label nor the step depends on rounding.

    Returns (gamma, kind, indices, v, d, Delta).
    """
    v = design.predict(rho)
    d = design.correlations(v)
    supported = rho != 0.0
    Delta = float(d[supported].max())
    if not Delta > 0.0:
        raise InternalConsistencyError("move does not decay the active correlation")
    gamma_c = C / Delta

    p = design.p
    gamma_eps = MIN_STEP_RTOL * gamma_c

    best_gamma, kind, indices = gamma_c, EVENT_FULL_LS, None

    excluded = members | np.concatenate([supported[p:], supported[:p]])  # mirrors

    cand = np.flatnonzero(~excluded)
    if cand.size:
        den = Delta - d[cand]
        num = C - c[cand]
        with np.errstate(divide="ignore", invalid="ignore"):
            gammas = np.where(den > 0.0, num / den, np.inf)
        gammas[gammas <= gamma_eps] = np.inf
        gmin = float(np.min(gammas))
        at_zero_residual = (
            abs(gmin - gamma_c) <= TIE_TOLERANCE * gamma_c
            and np.linalg.norm(r - gamma_c * v) <= r_floor
        )
        if at_zero_residual or gmin < gamma_c * (1.0 - STRICT_RTOL):
            tied = gammas <= gmin * (1.0 + TIE_TOLERANCE)
            best_gamma = gamma_c if at_zero_residual else gmin
            kind = EVENT_JOIN
            indices = [int(j) for j in cand[tied]]

    if mode == "lasso":
        movers = np.flatnonzero(rho < 0.0)
        if movers.size:
            gb = -beta[movers] / rho[movers]
            posb = int(np.argmin(gb))
            if gb[posb] < best_gamma * (1.0 - STRICT_RTOL):
                best_gamma, kind, indices = float(gb[posb]), EVENT_DROP, [int(movers[posb])]
    elif mode == "fs0":
        if (rho < 0.0).any():
            raise InternalConsistencyError("monotone direction has a negative component")

    if stop_state is not None:
        ell, stop_norm, stop_lambda = stop_state
        if stop_norm is not None:
            g = stop_norm - ell
            if g < best_gamma:
                best_gamma, kind, indices = g, EVENT_STOP_NORM, None
        if stop_lambda is not None and stop_lambda < C:
            g = (C - stop_lambda) / Delta
            if g < best_gamma:
                best_gamma, kind, indices = g, EVENT_STOP_LAMBDA, None

    return best_gamma, kind, indices, v, d, Delta


def next_event(design, beta, direction: MoveDirection, mode: str = "lasso") -> PathEvent:
    """First event along a move direction from an arbitrary point."""
    design = _as_expanded(design)
    beta = np.asarray(beta, dtype=float)
    if direction.is_zero:
        raise ValueError("direction is zero; no event ahead")
    y = design.base.y_centered
    r = y - design.predict(beta)
    c = design.correlations(r)
    C = float(c.max())
    members = np.zeros(design.p2, dtype=bool)
    members[_tied_set(c, C, TIE_TOLERANCE)] = True
    gamma, kind, indices, _, _, _ = _scan_events(
        design, beta, r, RESIDUAL_FLOOR * np.linalg.norm(y), c, C, direction.rho,
        members, mode, None,
    )
    index = indices[0] if indices else None
    return PathEvent(kind=kind, index=index, gamma=gamma, ell=gamma)


def solve_path(design, config: SolverConfig | None = None) -> PiecewiseLinearPath:
    """Trace the full coefficient path for the configured mode.

    The path starts at zero and ends at the unrestricted least-squares
    fit (or the first zero-residual point when p >= n), unless an early
    stop bound cuts it short. Lasso and LAR paths are parametrized by
    the normalized step (the L1 coefficient norm for the lasso); the
    monotone path is parametrized by L1 arc length.

    Raises StepBudgetError with the partial path attached if the step
    budget is exhausted.
    """
    design = _as_expanded(design)
    cfg = config or SolverConfig()
    cfg.validate()
    mode = cfg.mode
    p2 = design.p2
    y = design.base.y_centered
    y_norm = float(np.linalg.norm(y))

    beta = np.zeros(p2)
    ell = 0.0
    r = y.copy()
    c = design.correlations(r)
    C = float(c.max())
    floor = CORRELATION_FLOOR * max(C, 1e-300)
    r_floor = RESIDUAL_FLOOR * y_norm
    drift_tol = DRIFT_RTOL * C

    rec = _PathRecorder(
        beta, "l1_arc_length" if mode == "fs0" else "l1_norm", design.base.feature_names
    )

    if C <= floor or np.linalg.norm(r) <= r_floor:
        return rec.build()
    if cfg.stop_l1_norm is not None and cfg.stop_l1_norm <= 0:
        return rec.build()

    members = np.zeros(p2, dtype=bool)
    barred = np.zeros(p2, dtype=bool)  # columns collinear with the active set
    active: list[int] = [int(a) for a in _tied_set(c, C, TIE_TOLERANCE)]
    members[active] = True
    # lar and lasso keep the factor of the active set. fs0 keeps the factor
    # of the passive set of its last NNLS fit, whose columns carry the move;
    # the first fit appends the starting tie to an empty one.
    if mode == "fs0":
        factor, passive, entering = CholeskyFactor.empty(), (), active
    else:
        factor = _factor_active(design, active)
    max_steps = cfg.max_steps if cfg.max_steps is not None else 16 * p2 + 64
    instant_drops = 0
    since_refresh = 0

    for _ in range(max_steps):
        if cfg.stop_l1_norm is not None and ell >= cfg.stop_l1_norm:
            return rec.build()
        if cfg.stop_lambda is not None and C <= cfg.stop_lambda:
            return rec.build()
        # Direction on the current active set.
        if mode == "fs0":
            direction, factor, passive = _nnls_direction(
                design, active, c, factor=factor, passive=passive, entering=entering
            )
            entering = ()
        else:
            direction = _unit_direction(p2, active, factor.solve_gram(c[active]))
        rho, support = direction.rho, direction.support

        gamma, kind, indices, v, d, Delta = _scan_events(
            design, beta, r, r_floor, c, C, rho, members | barred,
            mode, (ell, cfg.stop_l1_norm, cfg.stop_lambda),
        )
        index = indices[0] if indices else None

        # A coefficient already at zero with an inward direction: drop it
        # and recompute without emitting a zero-length segment.
        if kind == EVENT_DROP and gamma <= MIN_STEP_RTOL * (C / Delta):
            instant_drops += 1
            if instant_drops > p2:
                raise InternalConsistencyError("drop events are not making progress")
            pos = active.index(index)
            factor = factor.drop_column(pos)
            active.pop(pos)
            members[index] = False
            beta[index] = 0.0
            continue
        instant_drops = 0

        beta = beta + gamma * rho
        if kind == EVENT_DROP:
            beta[index] = 0.0
        ell += gamma
        final = kind in (EVENT_FULL_LS, EVENT_STOP_NORM, EVENT_STOP_LAMBDA)
        # Covariance update: the residual and the correlations move linearly.
        r = r - gamma * v
        c_carried = c - gamma * d
        C_new = float(c_carried.max())
        r_norm = np.linalg.norm(r)
        since_refresh += 1
        if (
            since_refresh >= REFRESH_EVERY
            or final
            or (cfg.stop_l1_norm is not None and ell >= cfg.stop_l1_norm)
            # near a stopping threshold, within the band the guard allows
            or C_new <= floor + drift_tol
            or r_norm <= r_floor + DRIFT_RTOL * y_norm
            or (cfg.stop_lambda is not None and C_new <= cfg.stop_lambda + drift_tol)
        ):
            # Exact refresh, where the carried correlations must agree.
            r = y - design.predict(beta)
            c = design.correlations(r)
            worst = float(np.max(np.abs(c - c_carried)))
            if worst > drift_tol:
                raise InternalConsistencyError(
                    f"carried correlations drifted by {worst:.3e} from the exact ones"
                )
            C_new = float(c.max())
            r_norm = np.linalg.norm(r)
            since_refresh = 0
        else:
            c = c_carried
        expected = C - gamma * Delta
        if abs(C_new - expected) > drift_tol:
            raise InternalConsistencyError(
                f"correlation ties broke down: max {C_new:.3e}, expected {expected:.3e}"
            )
        C = C_new

        rec.append(ell, beta, support, PathEvent(kind=kind, index=index, gamma=gamma, ell=ell))

        if final:
            return rec.build()

        # Membership updates for the next segment. In monotone mode a
        # coordinate that carried no mass decays faster than the tied
        # maximum and falls out of contention.
        if mode == "fs0":
            members[[a for a in active if rho[a] == 0.0 and d[a] > Delta * (1.0 + STRICT_RTOL)]] = False
            active = [a for a in active if members[a]]
        if kind == EVENT_DROP:
            pos = active.index(index)
            factor = factor.drop_column(pos)
            active.pop(pos)
            members[index] = False
        elif kind == EVENT_JOIN and mode == "fs0":
            # The next NNLS fit appends the catchers to its factor; one that
            # depends on the factor's columns gets no weight there.
            entering = indices
            active += indices
            members[indices] = True
        elif kind == EVENT_JOIN:
            # A catcher in the span of the active columns (typical once the
            # active set saturates the sample size, where every remaining
            # column ties) cannot carry an independent move: it is barred
            # with its mirror and the active direction continues unchanged.
            if len(indices) > 1:
                # One batched rank test against the factor at the start of
                # the event. Appends only shrink a candidate's pivot, so a
                # column failing here fails the append below too; survivors
                # still go through it, one at a time and in order.
                cand = np.asarray(indices)
                diag = design.base_gram().diagonal()[cand % design.p]
                ok = factor.admits(np.vstack([design.gram_block(active, cand), diag]))
                barred[np.concatenate([cand[~ok], (cand[~ok] + design.p) % p2])] = True
                indices = [int(j) for j in cand[ok]]
            for j in indices:
                try:
                    factor = _append_factor(design, factor, active, j)
                except DegenerateDesignError:
                    barred[[j, (j + design.p) % p2]] = True
                    continue
                active.append(j)
                members[j] = True

        if C <= floor or r_norm <= r_floor:
            return rec.build()

    raise StepBudgetError(
        f"path did not terminate within {max_steps} steps", path=rec.build(truncated=True)
    )


def _factor_active(design, active):
    """Cholesky factor of the Gram of the active columns, appended in order."""
    factor = CholeskyFactor.empty()
    for a in active:
        factor = _append_factor(design, factor, active[: factor.size], a)
    return factor


def _append_factor(design, factor, current, new_index):
    try:
        return factor.append_column(design.gram_entries(new_index, [*current, new_index]))
    except DegenerateDesignError:
        name = design.base.name_of(new_index % design.p)
        raise DegenerateDesignError(
            column=new_index,
            message=f"joining column for {name} is collinear with the active set",
        ) from None


@dataclass
class KKTReport:
    """Stationarity certificate for a mirrored coefficient vector.

    Per original coordinate: how far |x_j . r| exceeds lambda, how far
    the correlation of a supported coordinate sits from lambda, and the
    overlap of mirrored pairs. ``worst_violation`` is the largest of the
    three families; the report passes when it is at most ``tolerance``,
    tol scaled by max(lambda, KKT_FLOOR_RTOL * lambda_max), so the verdict
    does not depend on the scale of the response.
    """

    lam: float
    tolerance: float
    passed: bool
    worst_violation: float
    bound_excess: np.ndarray
    support_gap: np.ndarray
    pair_overlap: np.ndarray


def kkt_certify(design, beta: np.ndarray, lam: float, tol: float = 1e-8) -> KKTReport:
    """Check the stationarity conditions of the L1-constrained fit.

    Requires a mirrored coefficient vector with non-negative entries
    (lasso or monotone paths; a LAR path past a sign change is not a
    certifiable point).
    """
    design = _as_expanded(design)
    beta = np.asarray(beta, dtype=float)
    if beta.min() < -KKT_NEGATIVE_RTOL * np.abs(beta).max():
        raise ValueError("certificate needs non-negative mirrored coefficients")
    p = design.p
    y = design.base.y_centered
    r = y - design.predict(beta)
    corr = design.base.correlations(r)
    bound_excess = np.abs(corr) - lam
    pos, neg = beta[:p], beta[p:]
    support_gap = np.zeros(p)
    sup_p = pos > 0
    sup_n = neg > 0
    support_gap[sup_p] = np.abs(corr[sup_p] - lam)
    support_gap[sup_n] = np.maximum(support_gap[sup_n], np.abs(-corr[sup_n] - lam))
    pair_overlap = np.minimum(pos, neg)
    worst = max(
        float(np.max(bound_excess, initial=0.0)),
        float(np.max(support_gap, initial=0.0)),
        float(np.max(pair_overlap, initial=0.0)),
        0.0,
    )
    lam_max = float(np.max(np.abs(design.base.correlations(y)), initial=0.0))
    tolerance = tol * max(abs(lam), KKT_FLOOR_RTOL * lam_max)
    return KKTReport(
        lam=lam,
        tolerance=tolerance,
        passed=worst <= tolerance,
        worst_violation=worst,
        bound_excess=bound_excess,
        support_gap=support_gap,
        pair_overlap=pair_overlap,
    )
