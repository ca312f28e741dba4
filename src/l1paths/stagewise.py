"""Incremental (epsilon-step) stagewise solvers and the loss-aware integrator.

Incremental forward stagewise fitting is one loop in the mirrored
coordinates: each step adds epsilon to the column of the augmented
design [X, -X] with the largest negative loss gradient, so every
coordinate is non-decreasing. Squared loss reads that gradient as the
residual correlations; the signed solver ``fs_epsilon`` is the same
run read back in the original coordinates (bump the most-correlated
coefficient by +/- epsilon).

An explicit Euler integrator follows the loss-aware monotone move
direction in arc length. Where a single column has the largest negative
gradient, that column is the direction and no weighted non-negative
least squares fit runs; only ties of two or more columns need one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .design import StandardizedDesign
from .errors import ConfigError, CurvatureError, StepSizeError
from .lars import (
    MoveDirection,
    _as_expanded,
    _tied_set,
    _unit_direction,
)
from .linalg import solve_nnls_gram
from .losses import LossModel
from .path import PiecewiseLinearPath, _PathRecorder, collapse, expand

# Relative loss increase an Euler step may make and still be accepted.
LOSS_INCREASE_SLACK = 1e-12
# Stop tolerance of the stepping solvers, the Euler integrator and the
# loss-aware direction, on the largest negative loss gradient, relative to
# ||response||_2.
STOP_RTOL = 1e-8
# The Euler integrator's floor step, as a fraction of StepControl.step: a
# step halved below it aborts the integration.
STEP_FLOOR = 2.0**-20
# A second-derivative weight at or below this has collapsed, and the
# loss-aware direction raises CurvatureError. Absolute: the weights are the
# loss's own curvature, e.g. p(1 - p) <= 1/4 for binomial deviance.
WEIGHT_FLOOR = 1e-12


@dataclass
class StagewiseConfig:
    epsilon: float = 1e-3
    max_iterations: int = 1_000_000
    record_stride: int = 100

    def validate(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be at least 1")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")


def _stop_tolerance(y: np.ndarray) -> float:
    return STOP_RTOL * float(np.linalg.norm(y))


def fs_epsilon(
    design: StandardizedDesign, config: StagewiseConfig, return_steps: bool = False
):
    """Signed incremental forward stagewise fitting.

    Repeatedly bumps the coefficient of the predictor most correlated
    with the residual by epsilon times the sign of that correlation. This
    is ``monotone_incremental`` with squared loss read in signed
    coordinates: a step on mirrored column j < p is +epsilon on
    coefficient j, a step on column p + j is -epsilon, so both take the
    same steps and the same stop and truncation rules. Each recorded
    vertex is the positive/negative split of its signed coefficients.
    """
    path, steps = monotone_incremental(design, config, return_steps=True)
    path = replace(path, vertices=expand(collapse(path.vertices)))
    if return_steps:
        return path, steps
    return path


def monotone_incremental(
    design,
    config: StagewiseConfig,
    loss: LossModel | None = None,
    return_steps: bool = False,
):
    """Mirrored incremental forward stagewise fitting.

    Each step adds epsilon to the mirrored coordinate whose column has
    the largest negative loss gradient (for squared loss: is most
    positively correlated with the residual), so every coordinate is
    non-decreasing by construction. Ties go to the lowest mirrored
    index: a positive column beats a negated one, then the lower column
    index wins. Squared loss keeps the gradient current through a table
    of signed, epsilon-scaled Gram columns, one subtraction per step;
    another loss model recomputes it from the updated predictor.
    Stepping stops once no gradient exceeds the stop tolerance; if the
    iteration budget runs out first, the path is flagged truncated.

    The loop only chooses columns. The vertices are built afterwards from
    the step sequence (see ``_epsilon_path``).
    """
    config.validate()
    design = _as_expanded(design)
    y = design.base.y_centered
    tol = _stop_tolerance(y)
    steps: list[int] = []
    truncated = False
    if loss is None or loss.name == "squared":
        # Row a is the gradient change of one step on mirrored column a:
        # epsilon times its Gram column, negated on the mirrored half.
        u = (config.epsilon * design.base.gram).T
        U = np.block([[u, -u], [-u, u]])
        c0 = design.base.Xs.T @ y
        g = np.concatenate([c0, -c0])
        for _ in range(config.max_iterations):
            a = g.argmax()
            if g[a] <= tol:
                break
            g -= U[a]
            steps.append(a)
        else:
            truncated = not g[g.argmax()] <= tol
    else:
        loss.validate_response(y)
        eta = np.zeros(design.n)
        for _ in range(config.max_iterations):
            g = design.correlations(-loss.first(y, eta))
            a = g.argmax()
            if g[a] <= tol:
                break
            eta = eta + config.epsilon * design.column(a)
            steps.append(a)
        else:
            g = design.correlations(-loss.first(y, eta))
            truncated = not g[g.argmax()] <= tol
    steps = np.asarray(steps, dtype=np.int64)
    path = _epsilon_path(design, steps, config, truncated)
    if truncated:
        warnings.warn("stagewise iteration budget exhausted; path is partial")
    if return_steps:
        return path, steps
    return path


def _epsilon_path(design, steps: np.ndarray, config: StagewiseConfig, truncated: bool):
    """The recorded vertices of an epsilon-step run, from its step sequence.

    A vertex is recorded at step count 0, before every step whose column
    differs from the previous step's, after every ``record_stride`` steps
    and at the end. A coordinate stepped k times by then holds the k-th
    partial sum of epsilon, summed in order, so it carries the same bits
    as adding epsilon one step at a time.
    """
    m = steps.size
    changes = np.flatnonzero(steps[1:] != steps[:-1]) + 1
    counts = np.union1d(np.r_[0, changes, m], np.arange(config.record_stride, m + 1,
                                                        config.record_stride))
    # Step i (from 0) is first in the vertex of the first count >= i + 1.
    first_record = np.searchsorted(counts, np.arange(1, m + 1))
    p2 = design.p2
    taken = np.bincount(first_record * p2 + steps, minlength=counts.size * p2)
    taken = taken.reshape(counts.size, p2).cumsum(axis=0)
    partial_sums = np.cumsum(np.r_[0.0, np.full(m, config.epsilon)])
    names = design.base.feature_names
    return PiecewiseLinearPath(
        breakpoints=counts.astype(float) * config.epsilon,
        vertices=partial_sums[taken],
        segment_active_sets=[()] * (counts.size - 1),
        parametrization="l1_arc_length",
        feature_names=list(names) if names else None,
        truncated=truncated,
    )


def glm_move_direction(design, beta: np.ndarray, loss: LossModel) -> MoveDirection:
    """Loss-aware monotone move direction at a mirrored point.

    Steps: evaluate the per-observation first derivatives u and weights
    w at the current predictor; if no column's negative gradient exceeds
    STOP_RTOL x ||response||_2, the stop tolerance of
    ``integrate_monotone_path``, the direction is zero. Otherwise the
    active set collects the columns with the largest negative gradient C.
    A single column tied at C > 0 is the direction by itself: the weighted
    fit on it alone is C / G_aa > 0, which unit mass scales to exactly 1.
    Two or more tied columns take a weighted non-negative least squares
    fit of those columns on -u/w (weights w), ``solve_nnls_gram`` on their
    weighted Gram X_A' W X_A and gradients, as the raw direction,
    normalized to unit coefficient sum.

    Raises CurvatureError when some weight falls to WEIGHT_FLOOR (e.g.
    saturated classification probabilities), whatever the number of tied
    columns; a smaller step along the path avoids the saturation.
    """
    design = _as_expanded(design)
    return _glm_direction(design, beta, loss, _stop_tolerance(design.base.y_centered))


def _glm_direction(design, beta, loss: LossModel, tol: float) -> MoveDirection:
    """``glm_move_direction`` on an expanded design, given its stop
    tolerance, which the integrator computes once per run."""
    beta = np.asarray(beta, dtype=float)
    y = design.base.y_centered
    u, w = loss.derivatives(y, design.predict(beta))
    g = design.correlations(-u)  # negative gradient per mirrored column
    C = float(g.max())
    if C <= tol:
        return MoveDirection(np.zeros(design.p2), ())
    if np.any(w <= WEIGHT_FLOOR):
        raise CurvatureError(
            "second-derivative weights collapsed to zero; reduce the step size"
        )
    active = _tied_set(g, C)
    if active.size == 1 and C > 0.0:
        return _unit_direction(design.p2, active, np.ones(1))
    Xa = design.columns(active)
    return _unit_direction(design.p2, active, solve_nnls_gram(Xa.T @ (w[:, None] * Xa), g[active]))


@dataclass
class StepControl:
    """Euler integration control for the loss-aware monotone path."""

    step: float = 1e-3
    arc_budget: float | None = None
    max_steps: int = 200_000
    record_stride: int = 100

    def validate(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step must be finite and positive, got {self.step}")
        if self.arc_budget is not None and not (
            math.isfinite(self.arc_budget) and self.arc_budget > 0
        ):
            raise ConfigError(f"arc_budget must be finite and positive, got {self.arc_budget}")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be non-negative")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be at least 1")


def integrate_monotone_path(design, loss: LossModel, control: StepControl | None = None):
    """Explicit Euler integration of the loss-aware monotone path.

    Advances beta by h times the current move direction, recomputing the
    direction each step; the direction has unit coefficient sum, so each
    accepted step adds h of L1 arc length. A step that increases the
    loss beyond a tiny slack halves h (down to STEP_FLOOR times
    ``control.step``, then the integration aborts with StepSizeError).
    Stops when the gradient falls under STOP_RTOL x ||response||_2, the
    arc budget is reached, or the step budget runs out (flagged
    truncated).
    """
    control = control or StepControl()
    control.validate()
    design = _as_expanded(design)
    y = design.base.y_centered
    loss.validate_response(y)
    tol = _stop_tolerance(y)

    h = control.step
    h_floor = control.step * STEP_FLOOR
    beta = np.zeros(design.p2)
    eta = np.zeros(design.n)
    current = loss.total(y, eta)
    rec = _PathRecorder(beta, "l1_arc_length", design.base.feature_names)
    ell = 0.0
    prev_support: tuple[int, ...] = ()
    truncated = False
    accepted = 0

    while True:
        if accepted >= control.max_steps:
            truncated = True
            break
        direction = _glm_direction(design, beta, loss, tol)
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
                raise StepSizeError(
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
    path = rec.build(truncated)
    if truncated:
        warnings.warn("integration step budget exhausted; path is partial")
    return path
