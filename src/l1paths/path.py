"""Piecewise-linear coefficient paths in the mirrored coordinate space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EVENT_JOIN = "join"
EVENT_DROP = "drop"
EVENT_FULL_LS = "full_ls"
EVENT_STOP_NORM = "stop_norm"
EVENT_STOP_LAMBDA = "stop_lambda"

# A parameter value up to this fraction past a path's end still evaluates,
# at the end: the last breakpoint is a sum of step lengths, so a value
# computed to reach it may round just beyond.
END_RTOL = 1e-12


@dataclass
class PathEvent:
    """A breakpoint event: what ended a segment and at which step length."""

    kind: str
    index: int | None
    gamma: float
    ell: float


@dataclass
class PiecewiseLinearPath:
    """Ordered breakpoints with coefficient vertices in 2p coordinates.

    ``breakpoints[k]`` is the path parameter at vertex k (L1 norm for
    lasso-style paths, L1 arc length for monotone paths); the path is the
    linear interpolation of consecutive vertices. ``segment_active_sets``
    holds, per segment, the expanded indices that move during it, in the
    order they joined the active set; the stepping solvers record an empty
    tuple per segment.
    """

    breakpoints: np.ndarray
    vertices: np.ndarray
    segment_active_sets: list[tuple[int, ...]]
    parametrization: str
    events: list[PathEvent] = field(default_factory=list)
    feature_names: list[str] | None = None
    truncated: bool = False

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.breakpoints.shape[0] != self.vertices.shape[0]:
            raise ValueError("breakpoints and vertices disagree in length")
        if self.vertices.shape[1] % 2:
            raise ValueError("vertices must live in an even number of coordinates")
        if (self.breakpoints[1:] - self.breakpoints[:-1] <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def p(self) -> int:
        return self.vertices.shape[1] // 2

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def end(self) -> float:
        return float(self.breakpoints[-1])

    def evaluate(self, ell) -> np.ndarray:
        """Coefficients at parameter value(s) ell by linear interpolation."""
        ell_arr = np.asarray(ell, dtype=float)
        if np.any(ell_arr < 0) or np.any(ell_arr > self.end * (1 + END_RTOL) + 1e-300):
            raise ValueError(f"parameter out of range [0, {self.end}]")
        ell_arr = np.minimum(ell_arr, self.end)
        seg = np.clip(np.searchsorted(self.breakpoints, ell_arr, side="right") - 1, 0,
                      max(self.n_segments - 1, 0))
        if self.n_segments == 0:
            out = np.broadcast_to(self.vertices[0], ell_arr.shape + (2 * self.p,))
            return out[()] if ell_arr.ndim else self.vertices[0].copy()
        lo = self.breakpoints[seg]
        hi = self.breakpoints[seg + 1]
        t = (ell_arr - lo) / (hi - lo)
        out = (1.0 - t)[..., None] * self.vertices[seg] + t[..., None] * self.vertices[seg + 1]
        return out

    def collapsed_vertices(self) -> np.ndarray:
        return collapse(self.vertices)

    def segment_tv(self) -> np.ndarray:
        """L1 length of every segment in the expanded coordinates."""
        return np.abs(np.diff(self.vertices, axis=0)).sum(axis=1)

    def tv_prefix(self) -> np.ndarray:
        """Cumulative expanded L1 arc length at every breakpoint."""
        return np.concatenate([[0.0], np.cumsum(self.segment_tv())])

    def arc_length(self, ell: float) -> float:
        """L1 arc length traveled up to parameter value ell.

        Sums full segments and the proportional part of the segment
        containing ell; equals the L1 norm of the evaluated point when
        every coordinate is monotone.
        """
        ell = float(ell)
        if ell < 0 or ell > self.end * (1 + END_RTOL) + 1e-300:
            raise ValueError(f"parameter out of range [0, {self.end}]")
        ell = min(ell, self.end)
        if self.n_segments == 0:
            return 0.0
        prefix = self.tv_prefix()
        seg = min(int(np.searchsorted(self.breakpoints, ell, side="right")) - 1,
                  self.n_segments - 1)
        lo, hi = self.breakpoints[seg], self.breakpoints[seg + 1]
        frac = (ell - lo) / (hi - lo)
        return float(prefix[seg] + frac * (prefix[seg + 1] - prefix[seg]))


class _PathRecorder:
    """Collects a path's vertices, breakpoints, segment active sets and events.

    The exact engine ``append``s every segment; the Euler integrator
    ``advance``s, which skips a vertex at the parameter already recorded.
    """

    def __init__(self, beta, parametrization: str, feature_names=None):
        self.params = [0]
        self.vertices = [np.array(beta, dtype=float)]
        self.active_sets: list[tuple[int, ...]] = []
        self.events: list[PathEvent] = []
        self.parametrization = parametrization
        self.feature_names = list(feature_names) if feature_names else None

    def append(self, param, beta, active_set=(), event: PathEvent | None = None):
        self.params.append(param)
        self.vertices.append(np.array(beta, dtype=float))
        self.active_sets.append(active_set)
        if event is not None:
            self.events.append(event)

    def advance(self, param, beta):
        if param > self.params[-1]:
            self.append(param, beta)

    def build(self, truncated: bool = False) -> PiecewiseLinearPath:
        return PiecewiseLinearPath(
            breakpoints=np.array(self.params, dtype=float),
            vertices=np.array(self.vertices),
            segment_active_sets=self.active_sets,
            parametrization=self.parametrization,
            events=self.events,
            feature_names=self.feature_names,
            truncated=truncated,
        )


def collapse(beta: np.ndarray) -> np.ndarray:
    """Signed original-space coefficients from a mirrored vector."""
    beta = np.asarray(beta, dtype=float)
    p = beta.shape[-1] // 2
    return beta[..., :p] - beta[..., p:]


def expand(beta: np.ndarray) -> np.ndarray:
    """Split a signed vector into its positive and negative parts."""
    beta = np.asarray(beta, dtype=float)
    return np.concatenate([np.maximum(beta, 0.0), np.maximum(-beta, 0.0)], axis=-1)


def l1_norm(beta: np.ndarray) -> float:
    return float(np.abs(beta).sum())
