"""Path diagnostics: squared-error profiles, path comparison, holdout error.

Curves can be indexed by the L1 norm of the signed coefficients or by
the L1 arc length traveled. Both index functions are piecewise linear
in the path parameter, so index values are mapped back to parameter
values exactly (taking the first crossing when the norm is not
monotone, as it need not be for a LAR path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import StandardizedDesign
from .errors import ConfigError
from .path import PiecewiseLinearPath, collapse

INDEX_CHOICES = ("norm", "arclength")
# Index values are summed from vertices and can round a few ULPs past the
# path's own end; a value within this fraction of the largest index value
# maps to the last knot.
INDEX_END_RTOL = 1e-12
# compare_paths locates the first index value where the collapsed
# coefficients of the two paths differ by more than this. Absolute.
DIVERGENCE_TOLERANCE = 1e-8
# compare_paths refines the first divergence by this many bisection steps,
# testing the midpoints of this many consecutive steps in one evaluation.
_BISECTION_STEPS = 60
_BISECTION_LEVELS = 6


@dataclass
class Curve:
    index: np.ndarray
    values: np.ndarray
    ell: np.ndarray
    index_by: str


@dataclass
class PathComparison:
    sup_difference: float
    divergence_index: float | None
    index_by: str
    threshold: float


class _IndexMap:
    """Exact piecewise-linear map from path parameter to index value.

    For arc length the breakpoints themselves are the knots. For the
    norm, segments are refined at interior zero crossings of the signed
    coordinates so the norm is linear between consecutive knots.

    ``ells_at`` inverts the map for many index values at once: the first
    knot whose value reaches the target is a search in the running
    maximum of the knot values, and the parameter is interpolated on the
    segment that ends there.
    """

    def __init__(self, path: PiecewiseLinearPath, index_by: str):
        if index_by not in INDEX_CHOICES:
            raise ConfigError(f"index must be one of {INDEX_CHOICES}")
        self.path = path
        bps = path.breakpoints
        if index_by == "arclength":
            self.knots = bps.copy()
            self.values = path.tv_prefix()
        else:
            coll = path.collapsed_vertices()
            u, w = coll[:-1], coll[1:]
            seg, col = np.nonzero(u * w < 0)
            t = u[seg, col] / (u[seg, col] - w[seg, col])
            lo, hi = bps[seg], bps[seg + 1]
            self.knots = np.unique(np.concatenate([bps, lo + t * (hi - lo)]))
            self.values = np.abs(collapse(path.evaluate(self.knots))).sum(axis=-1)
        self._reach = np.maximum.accumulate(self.values[1:])

    def values_at(self, ells) -> np.ndarray:
        return np.interp(np.asarray(ells, dtype=float), self.knots, self.values)

    def ells_at(self, values) -> np.ndarray:
        """First parameter values at which the index reaches ``values``."""
        kn, iv = self.knots, self.values
        values = np.asarray(values, dtype=float)
        top = iv.max()
        over = values[values > top * (1.0 + INDEX_END_RTOL)]
        if over.size:
            raise ValueError(f"index value {over[0]} beyond the path's range {top}")
        # Knot k + 1 is the first past the start to reach the value, so
        # iv[k] < value <= iv[k + 1].
        k = np.searchsorted(self._reach, values)
        inside = (values > iv[0]) & (k < self._reach.size)
        k = k[inside]
        t = (values[inside] - iv[k]) / (iv[k + 1] - iv[k])
        ells = np.where(values <= iv[0], kn[0], kn[-1])
        ells[inside] = kn[k] + t * (kn[k + 1] - kn[k])
        return ells

    def ell_at(self, value: float) -> float:
        """First parameter value at which the index reaches ``value``."""
        return float(self.ells_at([value])[0])


def _check_grid(grid: int) -> None:
    # A grid spans its range from both ends.
    if grid < 2:
        raise ConfigError(f"grid must be at least 2, got {grid}")


def rss_profile(
    design: StandardizedDesign,
    path: PiecewiseLinearPath,
    index_by: str = "norm",
    grid: int = 200,
) -> Curve:
    """Residual sum of squares along the path, tagged with index values.

    Samples the path at its breakpoints plus ``grid`` evenly spaced
    parameter values and reports (index, RSS) pairs; the parameter
    values themselves are kept so the curve can be re-indexed.
    """
    _check_grid(grid)
    ells = np.union1d(path.breakpoints, np.linspace(0.0, path.end, grid))
    coll = collapse(path.evaluate(ells))
    resid = design.y_centered[None, :] - coll @ design.Xs.T
    rss = (resid**2).sum(axis=1)
    return Curve(
        index=_IndexMap(path, index_by).values_at(ells),
        values=rss,
        ell=ells,
        index_by=index_by,
    )


def rss_at_index(design, path, values, index_by: str = "norm") -> np.ndarray:
    """RSS at given index values (first crossing for non-monotone norms)."""
    ells = _IndexMap(path, index_by).ells_at(np.asarray(values, dtype=float).ravel())
    y = design.y_centered
    out = np.empty(ells.size)
    for i, coll in enumerate(collapse(path.evaluate(ells))):
        r = y - design.Xs @ coll
        out[i] = r @ r
    return out


def compare_paths(
    a: PiecewiseLinearPath,
    b: PiecewiseLinearPath,
    index_by: str = "norm",
    grid: int = 512,
) -> PathComparison:
    """Sup distance between two paths at matched index values.

    Evaluates both paths (collapsed) on the union of their breakpoint
    index values plus an even fill over the common index range, takes
    the sup of the coordinate-wise differences, and locates the first
    index value where the difference exceeds DIVERGENCE_TOLERANCE, refined
    by 60 bisection steps.
    """
    _check_grid(grid)
    map_a = _IndexMap(a, index_by)
    map_b = _IndexMap(b, index_by)
    va, vb = map_a.values, map_b.values
    hi = min(va[-1], vb[-1])
    values = np.union1d(np.union1d(va[va <= hi], vb[vb <= hi]), np.linspace(0.0, hi, grid))

    def diff_at(v: np.ndarray) -> np.ndarray:
        ca = collapse(a.evaluate(map_a.ells_at(v)))
        cb = collapse(b.evaluate(map_b.ells_at(v)))
        return np.abs(ca - cb).max(axis=-1)

    diffs = diff_at(values)
    sup = float(diffs.max()) if diffs.size else 0.0
    divergence = None
    over = np.flatnonzero(diffs > DIVERGENCE_TOLERANCE)
    if over.size:
        k = int(over[0])
        lo_v = float(values[k - 1]) if k else 0.0
        hi_v = float(values[k])
        for _ in range(_BISECTION_STEPS // _BISECTION_LEVELS):
            lo_v, hi_v = _bisect(lo_v, hi_v, lambda v: diff_at(v) > DIVERGENCE_TOLERANCE)
        divergence = hi_v
    return PathComparison(
        sup_difference=sup,
        divergence_index=divergence,
        index_by=index_by,
        threshold=DIVERGENCE_TOLERANCE,
    )


def _bisect(lo: float, hi: float, above) -> tuple[float, float]:
    """``_BISECTION_LEVELS`` bisection steps on [lo, hi] from one call of ``above``.

    Every midpoint the steps could visit is formed as sequential bisection
    forms it, as the mean of its two neighbors one level up, and all are
    tested at once; the walk then keeps the half whose midpoint is above.
    """
    grid = np.array([lo, hi])
    for _ in range(_BISECTION_LEVELS):
        finer = np.empty(2 * grid.size - 1)
        finer[::2] = grid
        finer[1::2] = 0.5 * (grid[:-1] + grid[1:])
        grid = finer
    tested = above(grid[1:-1])
    i, j = 0, grid.size - 1
    while j - i > 1:
        mid = (i + j) // 2
        if tested[mid - 1]:
            j = mid
        else:
            i = mid
    return float(grid[i]), float(grid[j])


def holdout_mse(
    design: StandardizedDesign,
    path: PiecewiseLinearPath,
    X_holdout: np.ndarray,
    beta_true: np.ndarray | None = None,
    y_holdout: np.ndarray | None = None,
    grid: int = 100,
) -> Curve:
    """Holdout mean squared error along the path.

    Evaluated at ``grid`` evenly spaced fractions of the final L1
    coefficient norm. Coefficients are mapped back to the raw predictor
    scale (with the implied intercept) before predicting. The target is
    the noise-free signal ``X_holdout @ beta_true`` when the truth is
    known, else the observed ``y_holdout``.
    """
    if (beta_true is None) == (y_holdout is None):
        raise ConfigError("provide exactly one of beta_true or y_holdout")
    _check_grid(grid)
    X_holdout = np.asarray(X_holdout, dtype=float)
    target = X_holdout @ beta_true if beta_true is not None else np.asarray(y_holdout)
    imap = _IndexMap(path, "norm")
    end_norm = float(imap.values.max())
    fractions = np.linspace(0.0, 1.0, grid)
    ells = imap.ells_at(fractions * end_norm) if end_norm > 0 else np.zeros(fractions.size)
    mse = np.empty(fractions.size)
    for i, coll in enumerate(collapse(path.evaluate(ells))):
        b, intercept = design.to_original_scale(coll)
        pred = X_holdout @ b + intercept
        mse[i] = float(np.mean((pred - target) ** 2))
    return Curve(index=fractions, values=mse, ell=ells, index_by="norm-fraction")
