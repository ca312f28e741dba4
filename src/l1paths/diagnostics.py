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


@dataclass
class Curve:
    index: np.ndarray
    values: np.ndarray
    ell: np.ndarray
    index_by: str
    label: str = ""


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
    """

    def __init__(self, path: PiecewiseLinearPath, index_by: str):
        if index_by not in INDEX_CHOICES:
            raise ConfigError(f"index must be one of {INDEX_CHOICES}")
        self.path = path
        bps = path.breakpoints
        if index_by == "arclength":
            self.knots = bps.copy()
            self.values = path.tv_prefix()
            return
        coll = path.collapsed_vertices()
        knots = [bps[0]]
        for k in range(path.n_segments):
            lo, hi = bps[k], bps[k + 1]
            u, w = coll[k], coll[k + 1]
            crossing = u * w < 0
            if np.any(crossing):
                ts = u[crossing] / (u[crossing] - w[crossing])
                for t in np.unique(ts):
                    knots.append(lo + t * (hi - lo))
            knots.append(hi)
        self.knots = np.unique(np.asarray(knots))
        self.values = np.abs(collapse(path.evaluate(self.knots))).sum(axis=-1)

    def values_at(self, ells) -> np.ndarray:
        return np.interp(np.asarray(ells, dtype=float), self.knots, self.values)

    def ell_at(self, value: float) -> float:
        """First parameter value at which the index reaches ``value``."""
        kn, iv = self.knots, self.values
        if value <= iv[0]:
            return float(kn[0])
        up = np.flatnonzero((np.minimum(iv[:-1], iv[1:]) <= value)
                            & (value <= np.maximum(iv[:-1], iv[1:]))
                            & (iv[:-1] != iv[1:]))
        if up.size:
            k = int(up[0])
            t = (value - iv[k]) / (iv[k + 1] - iv[k])
            return float(kn[k] + t * (kn[k + 1] - kn[k]))
        if value > iv.max() * (1.0 + INDEX_END_RTOL):
            raise ValueError(f"index value {value} beyond the path's range {iv.max()}")
        return float(kn[-1])


def index_values(path: PiecewiseLinearPath, ells, index_by: str) -> np.ndarray:
    """Index value at the given parameter values."""
    return _IndexMap(path, index_by).values_at(ells)


def ell_at_index(path: PiecewiseLinearPath, value: float, index_by: str) -> float:
    """First parameter value at which the index reaches ``value``."""
    return _IndexMap(path, index_by).ell_at(value)


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
    ells = np.union1d(path.breakpoints, np.linspace(0.0, path.end, max(grid, 2)))
    coll = collapse(path.evaluate(ells))
    resid = design.y_centered[None, :] - coll @ design.Xs.T
    rss = (resid**2).sum(axis=1)
    return Curve(
        index=index_values(path, ells, index_by),
        values=rss,
        ell=ells,
        index_by=index_by,
    )


def rss_at_index(design, path, values, index_by: str = "norm") -> np.ndarray:
    """RSS at given index values (first crossing for non-monotone norms)."""
    imap = _IndexMap(path, index_by)
    out = np.empty(len(values))
    y = design.y_centered
    for i, v in enumerate(values):
        coll = collapse(path.evaluate(imap.ell_at(float(v))))
        r = y - design.Xs @ coll
        out[i] = r @ r
    return out


def compare_paths(
    a: PiecewiseLinearPath,
    b: PiecewiseLinearPath,
    index_by: str = "norm",
    grid: int = 512,
    threshold: float = 1e-8,
) -> PathComparison:
    """Sup distance between two paths at matched index values.

    Evaluates both paths (collapsed) on the union of their breakpoint
    index values plus an even fill over the common index range, takes
    the sup of the coordinate-wise differences, and locates the first
    index value where the difference exceeds ``threshold``, refined by
    bisection.
    """
    map_a = _IndexMap(a, index_by)
    map_b = _IndexMap(b, index_by)
    va, vb = map_a.values, map_b.values
    hi = min(va[-1], vb[-1])
    values = np.union1d(np.union1d(va[va <= hi], vb[vb <= hi]), np.linspace(0.0, hi, grid))

    def diff_at(v: float) -> float:
        ca = collapse(a.evaluate(map_a.ell_at(v)))
        cb = collapse(b.evaluate(map_b.ell_at(v)))
        return float(np.max(np.abs(ca - cb)))

    diffs = np.array([diff_at(float(v)) for v in values])
    sup = float(diffs.max()) if diffs.size else 0.0
    divergence = None
    over = np.flatnonzero(diffs > threshold)
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
    return PathComparison(
        sup_difference=sup,
        divergence_index=divergence,
        index_by=index_by,
        threshold=threshold,
    )


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
    X_holdout = np.asarray(X_holdout, dtype=float)
    target = X_holdout @ beta_true if beta_true is not None else np.asarray(y_holdout)
    imap = _IndexMap(path, "norm")
    end_norm = float(imap.values.max())
    fractions = np.linspace(0.0, 1.0, max(grid, 2))
    mse = np.empty(fractions.size)
    ells = np.empty(fractions.size)
    for i, f in enumerate(fractions):
        ell = imap.ell_at(f * end_norm) if end_norm > 0 else 0.0
        ells[i] = ell
        coll = collapse(path.evaluate(ell))
        b, intercept = design.to_original_scale(coll)
        pred = X_holdout @ b + intercept
        mse[i] = float(np.mean((pred - target) ** 2))
    return Curve(index=fractions, values=mse, ell=ells, index_by="norm-fraction")
