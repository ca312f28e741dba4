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

The engine, ``_segments``, yields the segments and ``solve_path`` records
them. A yielded vertex is never written again, so the recorder keeps each
without a copy. Along a segment every correlation is linear in the step and
the squared residual norm quadratic, so the engine carries them from vertex to
vertex (covariance updates) and forms the residual from the coefficients
only every ``REFRESH_EVERY`` segments, near a stopping threshold, and at
the end. Each such refresh checks the carried correlations against the
exact ones. The decay rates X'X rho of a segment come from the design's
one Gram, the matrix the directions are solved in (one p x p product), on
a tall, well-conditioned design (``StandardizedDesign.gram_decays``), and
from X (two n x p products) elsewhere.

A segment costs a few dozen numpy calls on small designs, so the engine
keeps that count down: the event scan reads the columns it may consider
from a mask that the engine updates as columns join, are barred or
leave, its scalar decisions are on Python floats, and a join borders the
active set's factor with one row. The path returns at its final
vertex before any join bookkeeping, so the zero-residual join of a p > n
path, where every remaining column ties, gathers and appends nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import ExpandedDesign, StandardizedDesign
from .errors import (
    ConfigError,
    InternalConsistencyError,
    StepBudgetError,
)
from .linalg import CholeskyFactor, append_columns, nnls_continue
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
        # A NaN bound never stops the path and a negative one stops it before
        # it starts; both are configuration errors. A zero norm bound gives
        # the empty path.
        for name in ("stop_l1_norm", "stop_lambda"):
            bound = getattr(self, name)
            if bound is not None and not (math.isfinite(bound) and bound >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {bound}")


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


def _tied_set(c: np.ndarray, C: float) -> np.ndarray:
    return (c >= C - TIE_TOLERANCE * abs(C)).nonzero()[0]


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, as ``np.linalg.norm`` computes it."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _unit_direction(p2: int, active: np.ndarray, theta: np.ndarray) -> MoveDirection:
    """Scale a raw direction on the active columns (an index array) to unit
    coefficient sum."""
    total = float(theta.sum())
    if total <= 0.0:
        raise InternalConsistencyError("positive correlation but the move has no mass")
    mass = theta / total
    rho = np.zeros(p2)
    rho[active] = mass
    return MoveDirection(rho, tuple(active[mass != 0.0].tolist()))


def _nnls_direction(design, active, c, factor=CholeskyFactor.empty(), passive=(), entering=()):
    """Unit-mass non-negative least-squares move on the active columns.

    ``active``: an index array. ``c``: every mirrored column's correlation
    with the target. Lawson-Hanson continues from ``factor`` (immutable), the
    factor of the ``passive`` columns, after appending ``entering``, with
    Gram entries from the design's Gram. Returns the direction, and the
    factor and passive columns of its support.
    """
    theta, factor, passive = nnls_continue(
        design.gram_entries, c, active, factor, passive, entering)
    mass = np.zeros(design.p2)
    mass[passive] = theta
    return _unit_direction(design.p2, active, mass[active]), factor, passive


def _tied_at(design, beta):
    """Correlations at the mirrored point ``beta`` and the columns tied at
    their maximum C, or no columns when C is at most the floor at which
    ``solve_path`` ends: CORRELATION_FLOOR times max|X^T y|.
    """
    y = design.base.y_centered
    floor = CORRELATION_FLOOR * max(float(design.correlations(y).max()), 1e-300)
    c = design.correlations(y - design.predict(np.asarray(beta, dtype=float)))
    C = float(c.max())
    return c, (None if C <= floor else _tied_set(c, C))


def lasso_move_direction(design, beta: np.ndarray) -> MoveDirection:
    """Instantaneous lasso move from an arbitrary mirrored point.

    Zero when the maximal correlation is at most CORRELATION_FLOOR times
    max|X^T y|, where ``solve_path`` ends; otherwise the least-squares
    coefficients of the residual on the columns tied at the maximal
    correlation, scaled to unit coefficient sum. A tied column in the span
    of the tied columns before it gets no weight, as in ``solve_path``.
    """
    design = _as_expanded(design)
    c, tied = _tied_at(design, beta)
    if tied is None:
        return MoveDirection(np.zeros(design.p2), ())
    factor, active, _ = append_columns(
        design.gram_entries, CholeskyFactor.empty(), tied[:0], tied)
    return _unit_direction(design.p2, active, factor.solve_gram(c[active]))


def monotone_move_direction(design, beta: np.ndarray) -> MoveDirection:
    """Instantaneous monotone move: non-negative least squares on the tied set.

    Components forced to zero by the sign constraint carry no mass and
    are excluded from the support. The tied columns enter the fit in index
    order, as the starting tie of ``solve_path`` does, so a column in the
    span of the tied columns before it gets no weight. Zero below the same
    floor as ``lasso_move_direction``.
    """
    design = _as_expanded(design)
    c, active = _tied_at(design, beta)
    if active is None:
        return MoveDirection(np.zeros(design.p2), ())
    return _nnls_direction(design, active, c, entering=active)[0]


def _scan_events(design, beta, r_floor, c, C, rho, scannable, mode, stop_state):
    """First event along beta + gamma * rho, where the correlations are c.

    Correlations are linear in gamma: column j decays at rate
    d_j = x_j . (X rho) (``ExpandedDesign.decay_rates``). Every supported
    column (rho_j != 0) decays proportionally, so the tied maximum decays
    at Delta = max over the support of d, and the catch-up step for an
    inactive column is (C - c_j) / (Delta - d_j). Only columns flagged in
    ``scannable`` are scanned: not the active or barred ones, nor the
    mirror of a supported column, which would tie exactly at the
    least-squares point. Where the least-squares point leaves a residual
    of at most ``r_floor`` (a zero-residual fit, p >= n), every column
    catches up there; that residual is formed exactly, from the
    coefficients. A catch-up within TIE_TOLERANCE of it is then a join at
    that point. So the kind of the path's last event does not depend on
    rounding, but its index and step can: a column whose catch-up rounds
    to just outside the tie band ends the path at its own step, as its
    only catcher.

    Returns (gamma, kind, indices, d, Delta).
    """
    d = design.decay_rates(rho)
    Delta = float(d[rho != 0.0].max())
    if not Delta > 0.0:
        raise InternalConsistencyError("move does not decay the active correlation")
    gamma_c = C / Delta
    best_gamma, kind, indices = gamma_c, EVENT_FULL_LS, None

    # Every scannable column whose correlation decays slower than the
    # maximum catches up at a finite step. A step of at most MIN_STEP_RTOL
    # times the least-squares step is no step; such steps are masked only
    # when the shortest one is.
    den = Delta - d
    scanned = den > 0.0
    scanned &= scannable
    gammas = np.empty(design.p2)
    gammas.fill(np.inf)
    np.divide(C - c, den, out=gammas, where=scanned)
    gmin = float(gammas[gammas.argmin()])
    min_step = MIN_STEP_RTOL * gamma_c
    if gmin <= min_step:
        gammas[gammas <= min_step] = np.inf
        gmin = float(gammas[gammas.argmin()])
    at_zero_residual = (
        abs(gmin - gamma_c) <= TIE_TOLERANCE * gamma_c
        and _norm(design.base.y_centered - design.predict(beta + gamma_c * rho)) <= r_floor
    )
    if at_zero_residual or gmin < gamma_c * (1.0 - STRICT_RTOL):
        best_gamma = gamma_c if at_zero_residual else gmin
        kind = EVENT_JOIN
        indices = (gammas <= gmin * (1.0 + TIE_TOLERANCE)).nonzero()[0].tolist()

    if mode == "lasso":
        movers = (rho < 0.0).nonzero()[0]
        if movers.size:
            gb = -beta[movers] / rho[movers]
            posb = int(gb.argmin())
            g = float(gb[posb])
            if g < best_gamma * (1.0 - STRICT_RTOL):
                best_gamma, kind, indices = g, EVENT_DROP, [int(movers[posb])]
    elif mode == "fs0":
        if rho[rho.argmin()] < 0.0:
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

    return best_gamma, kind, indices, d, Delta


def next_event(design, beta, direction: MoveDirection, mode: str = "lasso") -> PathEvent:
    """First event along a move direction from an arbitrary point."""
    design = _as_expanded(design)
    beta = np.asarray(beta, dtype=float)
    if direction.is_zero:
        raise ValueError("direction is zero; no event ahead")
    y = design.base.y_centered
    c = design.correlations(y - design.predict(beta))
    C = float(c.max())
    scannable = np.ones(design.p2, dtype=bool)
    scannable[_tied_set(c, C)] = False
    scannable[(direction.rho.nonzero()[0] + design.p) % design.p2] = False
    gamma, kind, indices, _, _ = _scan_events(
        design, beta, RESIDUAL_FLOOR * _norm(y), c, C, direction.rho,
        scannable, mode, None,
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
    rec = _PathRecorder(np.zeros(design.p2), "l1_arc_length" if cfg.mode == "fs0" else "l1_norm",
                        design.base.feature_names)
    try:
        for ell, beta, support, event, _, _, _ in _segments(design, cfg):
            rec.append(ell, beta, support, event)
    except StepBudgetError as err:
        err.path = rec.build(truncated=True)
        raise
    return rec.build()


def _segments(design: ExpandedDesign, cfg: SolverConfig):
    """Trace the exact path of a validated ``cfg`` from zero, one segment at a time.

    Yields ``(ell, beta, support, event, C, Delta, refresh_gap)`` per segment:
    the parameter and mirrored coefficients at its end, the indices that move
    along it (in join order), the ``PathEvent`` that ended it, the maximal
    correlation C at its start and the rate Delta at which C decays along it,
    and the largest gap between the carried and the exact correlations if it
    ended in an exact refresh (else None). A yielded ``beta`` is never written
    again. Raises StepBudgetError, without a path, when the step budget runs out.
    """
    mode, stop_norm, stop_lambda = cfg.mode, cfg.stop_l1_norm, cfg.stop_lambda
    p, p2 = design.p, design.p2
    y = design.base.y_centered
    # The squared residual norm, carried in place of the residual itself.
    r2 = float(y.dot(y))
    y_norm = math.sqrt(r2)

    beta = np.zeros(p2)
    ell = 0.0
    c = design.correlations(y)
    C = float(c[c.argmax()])
    floor = CORRELATION_FLOOR * max(C, 1e-300)
    r_floor = RESIDUAL_FLOOR * y_norm
    drift_tol = DRIFT_RTOL * C

    if C <= floor or y_norm <= r_floor:  # the residual is still y
        return
    if stop_norm is not None and stop_norm <= 0:
        return

    barred = np.zeros(p2, dtype=bool)  # columns collinear with the active set
    # The event scan skips the active and barred columns and the mirrors of
    # the supported ones. ``scannable`` is kept up to date as columns join
    # or are barred; ``shadowed`` is the support whose mirrors it excludes,
    # None once a column left the active set (then it is rebuilt).
    scannable, shadowed = np.ones(p2, dtype=bool), None
    # lar and lasso keep the factor of the active set (an index array, in
    # join order); fs0 that of the passive set of its last NNLS fit.
    factor, passive, entering = CholeskyFactor.empty(), (), ()
    active = np.zeros(0, dtype=int)
    # The columns tied at the start join as the catchers of any join do.
    kind, indices, support = EVENT_JOIN, _tied_set(c, C), ()
    max_steps = cfg.max_steps if cfg.max_steps is not None else 16 * p2 + 64
    instant_drops = 0
    since_refresh = 0

    for _ in range(max_steps):
        # Membership updates for the event that ended the last segment. In
        # monotone mode a coordinate that carried no mass decays faster than
        # the tied maximum and falls out of contention.
        if mode == "fs0" and len(support) < active.size:
            gone = (rho[active] == 0.0) & (d[active] > Delta * (1.0 + STRICT_RTOL))
            if gone.any():
                active = active[~gone]
                shadowed = None
        if kind == EVENT_DROP:
            keep = active != index
            factor = factor.drop_column(
                int(keep.argmin()), lambda rows, cols: design.gram_entries(active[rows], active[cols]))
            active = active[keep]
            shadowed = None
        elif kind == EVENT_JOIN:
            if mode == "fs0":
                # The next NNLS fit appends the catchers to its factor; one
                # that depends on the factor's columns gets no weight there.
                entering = indices
                active = np.concatenate([active, indices])
            else:
                # A catcher in the span of the active columns (typical once
                # the active set saturates the sample size, where every
                # remaining column ties) cannot carry an independent move:
                # it is barred with its mirror and the active direction
                # continues unchanged.
                factor, active, refused = append_columns(
                    design.gram_entries, factor, active, indices)
                for j in refused:
                    pair = [j, (j + p) % p2]
                    barred[pair] = True
                    scannable[pair] = False
            scannable[active] = False

        if stop_norm is not None and ell >= stop_norm:
            return
        if stop_lambda is not None and C <= stop_lambda:
            return
        # Direction on the current active set.
        if mode == "fs0":
            direction, factor, passive = _nnls_direction(
                design, active, c, factor=factor, passive=passive, entering=entering
            )
            entering = ()
        else:
            direction = _unit_direction(p2, active, factor.solve_gram(c[active]))
        rho, support = direction.rho, direction.support
        # A support that extends the shadowed one adds the mirrors of its new
        # columns; any other support rebuilds the mask.
        if shadowed is None or support[: len(shadowed)] != shadowed:
            scannable = ~barred
            scannable[active] = False
            shadowed = ()
        for a in support[len(shadowed):]:
            scannable[(a + p) % p2] = False
        shadowed = support

        gamma, kind, indices, d, Delta = _scan_events(
            design, beta, r_floor, c, C, rho, scannable, mode, (ell, stop_norm, stop_lambda)
        )
        index = indices[0] if indices else None

        # A coefficient already at zero with an inward direction: drop it, in
        # a copy of the vertex, and recompute without a zero-length segment.
        if kind == EVENT_DROP and gamma <= MIN_STEP_RTOL * (C / Delta):
            instant_drops += 1
            if instant_drops > p2:
                raise InternalConsistencyError("drop events are not making progress")
            beta = beta.copy()
            beta[index] = 0.0
            continue
        instant_drops = 0

        beta = beta + gamma * rho
        if kind == EVENT_DROP:
            beta[index] = 0.0
        ell += gamma
        final = kind in (EVENT_FULL_LS, EVENT_STOP_NORM, EVENT_STOP_LAMBDA)
        # Covariance update: the correlations move linearly, and the squared
        # residual norm as |r - gamma X rho|^2 = |r|^2 - 2 gamma c.rho
        # + gamma^2 d.rho.
        r2 += gamma * (gamma * float(d.dot(rho)) - 2.0 * float(c.dot(rho)))
        c_carried = c - gamma * d
        C_new = float(c_carried[c_carried.argmax()])
        r_norm = math.sqrt(max(r2, 0.0))
        since_refresh += 1
        if (
            since_refresh >= REFRESH_EVERY
            or final
            or (stop_norm is not None and ell >= stop_norm)
            # near a stopping threshold, within the band the guard allows
            or C_new <= floor + drift_tol
            or r_norm <= r_floor + DRIFT_RTOL * y_norm
            or (stop_lambda is not None and C_new <= stop_lambda + drift_tol)
        ):
            # Exact refresh, where the carried correlations must agree.
            r = y - design.predict(beta)
            c = design.correlations(r)
            gap = float(np.max(np.abs(c - c_carried)))
            if gap > drift_tol:
                raise InternalConsistencyError(
                    f"carried correlations drifted by {gap:.3e} from the exact ones"
                )
            C_new = float(c[c.argmax()])
            r2 = float(r.dot(r))
            r_norm = math.sqrt(r2)
            since_refresh = 0
        else:
            c = c_carried
            gap = None
        expected = C - gamma * Delta
        if abs(C_new - expected) > drift_tol:
            raise InternalConsistencyError(
                f"correlation ties broke down: max {C_new:.3e}, expected {expected:.3e}"
            )
        event = PathEvent(kind=kind, index=index, gamma=gamma, ell=ell)
        yield ell, beta, support, event, C, Delta, gap
        C = C_new

        # The path ends here, before any membership update.
        if final or C <= floor or r_norm <= r_floor:
            return

    raise StepBudgetError(f"path did not terminate within {max_steps} steps")


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
    certifiable point). ``tol`` must be finite and non-negative.
    """
    design = _as_expanded(design)
    beta = np.asarray(beta, dtype=float)
    y = design.base.y_centered
    corr = design.base.correlations(y - design.predict(beta))
    lam_max = float(np.max(np.abs(design.base.correlations(y)), initial=0.0))
    return _kkt_report(beta, corr, lam, lam_max, tol)


def _kkt_report(beta: np.ndarray, corr: np.ndarray, lam: float, lam_max: float,
                tol: float) -> KKTReport:
    """``kkt_certify``'s report from the correlations ``corr`` = X'(y - X beta)
    and lambda_max = max|X'y|, for a caller that has them in hand."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be finite and non-negative, got {tol}")
    if beta.min() < -KKT_NEGATIVE_RTOL * np.abs(beta).max():
        raise ValueError("certificate needs non-negative mirrored coefficients")
    p = len(corr)
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
