"""Synthetic regression problems used throughout the test harness.

Two generators: a damped-sine response on spline bases over a grid
(hinge or step functions at a set of knots), and a block-correlated
Gaussian design with one sparse coefficient per block. Randomness comes
from numpy's PCG64 generator with an explicit seed, so a fixed spec
reproduces the dataset byte for byte.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import Dataset
from .errors import ConfigError, EmptyColumnError

BASES = ("piecewise-linear", "piecewise-constant")

DEFAULT_KNOTS = tuple(np.round(np.arange(10) * 0.1, 1))


@dataclass
class BlockSpec:
    n: int = 60
    p: int = 1000
    block: int = 20
    rho: float = 0.95
    sigma2: float = 36.0
    nonzero_per_block: int = 1
    seed: int = 0


def _check_rows(n: int) -> None:
    # Standardizing needs two rows: one row has no spread.
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")


def _check_spread(name: str, value: float) -> None:
    # A noise scale or variance: zero gives the noiseless response.
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and non-negative, got {value}")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def signal(x: np.ndarray) -> np.ndarray:
    """The noiseless response curve sin(6x) / (1 + x)."""
    return np.sin(6.0 * x) / (1.0 + x)


def spline_columns(x: np.ndarray, knots, basis: str) -> tuple[np.ndarray, list[str]]:
    """Hinge or step basis columns at the given knots.

    A knot at or above max(x) produces an all-zero column and a knot
    below min(x) a constant one; both are rejected. Knots between the
    same pair of adjacent step-basis grid points would duplicate a
    column; duplicates are merged with a warning.
    """
    if basis not in BASES:
        raise ConfigError(f"unknown basis {basis!r}; expected one of {BASES}")
    cols = []
    names = []
    seen = {}
    for t in knots:
        t = float(t)
        if t >= x.max():
            raise EmptyColumnError(t, f"knot {t} is at or beyond the data range; empty column")
        if t < x.min():
            raise EmptyColumnError(t, f"knot {t} is below the data range; constant column")
        ind = x > t
        if basis == "piecewise-constant":
            col = ind.astype(float)
            key = int(ind.sum())
            if key in seen:
                warnings.warn(
                    f"knot {t} duplicates the column of knot {seen[key]}; merged"
                )
                continue
            seen[key] = t
        else:
            col = (x - t) * ind
        cols.append(col)
        names.append(f"h{t:g}")
    return np.column_stack(cols), names


def gen_sine(
    n: int = 300,
    basis: str = "piecewise-linear",
    knots=DEFAULT_KNOTS,
    noise_scale: float = 0.25,
    seed: int = 0,
) -> Dataset:
    """Damped-sine response on a spline basis over an equally spaced grid.

    x takes n equally spaced values in [0, 1]; the response is
    sin(6x) / (1 + x) plus noise_scale times standard normal noise, and
    the predictors are the chosen basis functions at the knots.
    """
    _check_rows(n)
    _check_spread("noise_scale", noise_scale)
    x = np.linspace(0.0, 1.0, n)
    X, names = spline_columns(x, knots, basis)
    y = signal(x) + noise_scale * _rng(seed).standard_normal(n)
    return Dataset(X=X, y=y, feature_names=names)


def gen_block(
    n: int = 60,
    p: int = 1000,
    block: int = 20,
    rho: float = 0.95,
    sigma2: float = 36.0,
    nonzero_per_block: int = 1,
    seed: int = 0,
) -> tuple[Dataset, np.ndarray]:
    """Block-correlated Gaussian design with sparse coefficients.

    Rows are drawn from a centered Gaussian whose covariance is block
    diagonal with p / block identical blocks (1 - rho) I + rho 11'; the
    rank-one structure is sampled directly as sqrt(1 - rho) z + sqrt(rho) g
    with g shared within a block, avoiding any large factorization. The
    first ``nonzero_per_block`` coefficients of every block are standard
    normal, the rest zero, and the noise variance is sigma2. Returns the
    dataset and the true coefficient vector.

    Draw order (for reproducibility): the p iid columns, then the shared
    block factors, then the coefficients, then the noise.
    """
    _check_rows(n)
    if p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    if block < 1:
        raise ConfigError(f"block must be at least 1, got {block}")
    if p % block:
        raise ConfigError(f"p={p} is not divisible by block={block}")
    if not 0 <= rho < 1:
        raise ConfigError("rho must be in [0, 1)")
    if not 1 <= nonzero_per_block <= block:
        raise ConfigError("nonzero_per_block must be in [1, block]")
    _check_spread("sigma2", sigma2)
    blocks = p // block
    rng = _rng(seed)
    Z = rng.standard_normal((n, p))
    shared = rng.standard_normal((n, blocks))
    X = np.sqrt(1.0 - rho) * Z + np.sqrt(rho) * np.repeat(shared, block, axis=1)
    beta = np.zeros(p)
    draws = rng.standard_normal((blocks, nonzero_per_block))
    for m in range(blocks):
        beta[m * block : m * block + nonzero_per_block] = draws[m]
    y = X @ beta + np.sqrt(sigma2) * rng.standard_normal(n)
    names = [f"b{m}v{j}" for m in range(blocks) for j in range(block)]
    return Dataset(X=X, y=y, feature_names=names), beta


def analytic_noise_to_signal(spec: BlockSpec | None = None, **kwargs) -> float:
    """Expected noise-to-signal ratio of the block generator.

    The signal variance is E[beta' Sigma beta]; with independent unit
    blocks and unit-variance diagonal it equals the number of nonzero
    coefficients, so the ratio is sigma2 / (blocks * nonzero_per_block).
    """
    spec = spec or BlockSpec(**kwargs)
    blocks = spec.p // spec.block
    return spec.sigma2 / (blocks * spec.nonzero_per_block)
