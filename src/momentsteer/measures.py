"""Output-measure representations and one-dimensional optimal-transport distances.

Three interchangeable forms of a measure on the line: weighted atoms
(:class:`EmpiricalMeasure`), density samples on a uniform grid
(:class:`GridDensity`) and a tabulated distribution function
(:class:`CDFTable`).  Distances are computed through quantile functions,
which in one dimension realize the optimal-transport cost exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ensembles import ParameterGrid

__all__ = [
    "EmpiricalMeasure",
    "GridDensity",
    "CDFTable",
    "pushforward",
    "cdf",
    "quantile",
    "wasserstein",
    "wasserstein_to_point_circular",
    "truncated_gaussian",
    "truncated_gaussian_mixture",
    "point_source_cdf",
    "point_source_pde_residual",
    "sample_empirical",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms on the real line (or on the circle, as wrapped angles)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 1 or pts.size == 0 or w.shape != pts.shape:
            raise ConfigError("points and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(pts)):
            raise ValueError("measure atoms must be finite")
        if np.any(w <= 0):
            raise ConfigError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must sum to 1 within 1e-12")

    @classmethod
    def from_samples(cls, xs) -> "EmpiricalMeasure":
        xs = np.asarray(xs, dtype=float)
        return cls(xs, np.full(xs.size, 1.0 / xs.size))

    def sorted(self):
        order = np.argsort(self.points, kind="stable")
        return self.points[order], self.weights[order]


@dataclass(frozen=True)
class GridDensity:
    """Density samples on a uniform grid over ``support``.

    A probability density must integrate to one (trapezoid rule) within 1e-6;
    use :meth:`normalized` to rescale raw samples.  ``signed=True`` marks
    series reconstructions that may dip below zero; such values are kept
    as-is and flagged, not clipped.
    """

    support: tuple
    values: np.ndarray
    signed: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "support", (float(self.support[0]), float(self.support[1])))
        object.__setattr__(self, "values", vals)
        a, b = self.support
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigError("density support must be a finite interval")
        if vals.ndim != 1 or vals.size < 2:
            raise ConfigError("density needs at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density samples must be finite")
        if not self.signed:
            if np.any(vals < 0):
                raise ConfigError("density samples must be nonnegative")
            mass = self.mass()
            if abs(mass - 1.0) > 1e-6:
                raise ConfigError(f"density must integrate to 1 within 1e-6 (it integrates to "
                                  f"{mass:.10g})")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.support[0], self.support[1], self.values.size)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.xs))

    @property
    def has_negative(self) -> bool:
        return bool(np.any(self.values < 0))

    @classmethod
    def normalized(cls, support, values) -> "GridDensity":
        values = np.asarray(values, dtype=float)
        xs = np.linspace(support[0], support[1], values.size)
        total = np.trapezoid(values, xs)
        if not np.isfinite(total) or total <= 0:
            raise ConfigError("cannot normalize a density with nonpositive mass")
        return cls(tuple(support), values / total)


@dataclass(frozen=True)
class CDFTable:
    """Tabulated distribution function: nondecreasing values over increasing abscissae."""

    abscissae: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.abscissae, dtype=float)
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "F", F)
        if xs.ndim != 1 or xs.size == 0 or F.shape != xs.shape:
            raise ConfigError("abscissae and F must be matching 1-d arrays")
        if xs.size > 1 and np.any(np.diff(xs) <= 0):
            raise ConfigError("abscissae must be strictly increasing")
        if np.any(np.diff(F) < -1e-15) or F[0] < -1e-15:
            raise ConfigError("F must be nondecreasing and nonnegative")
        if abs(F[-1] - 1.0) > 1e-9:
            raise ConfigError("F must reach 1 within 1e-9")


def pushforward(grid: ParameterGrid, y) -> EmpiricalMeasure:
    """Output measure of member outputs ``y`` under the grid's parameter measure."""
    y = np.asarray(y, dtype=float)
    if y.shape != grid.nodes.shape:
        raise ValueError("output values must have one entry per grid member")
    if not np.all(np.isfinite(y)):
        raise ValueError("output values must be finite")
    return EmpiricalMeasure(y, grid.weights.copy())


def _cumulative_trapezoid(values, xs) -> np.ndarray:
    """Trapezoid integrals of ``values`` over ``xs`` from xs[0] to each abscissa."""
    return np.concatenate([[0.0], np.cumsum((values[1:] + values[:-1]) / 2 * np.diff(xs))])


def cdf(mu) -> CDFTable:
    """Right-continuous step CDF of an empirical measure, or the cumulative
    trapezoid CDF of a grid density."""
    if isinstance(mu, CDFTable):
        return mu
    if isinstance(mu, EmpiricalMeasure):
        pts, w = mu.sorted()
        uniq, start = np.unique(pts, return_index=True)
        acc = np.add.reduceat(w, start)
        return CDFTable(uniq, np.minimum(np.cumsum(acc), 1.0))
    if isinstance(mu, GridDensity):
        if mu.signed and mu.has_negative:
            raise ConfigError("cannot build a CDF from a signed density")
        xs = mu.xs
        inc = _cumulative_trapezoid(mu.values, xs)
        return CDFTable(xs, inc / inc[-1])
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


def quantile(F: CDFTable, s):
    """Generalized inverse over the table: the largest abscissa with F <= s.

    Ties resolve to the largest qualifying grid point; levels below the first
    table value return the first abscissa.  Accepts scalar or array ``s``.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0) or np.any(s_arr > 1):
        raise ValueError("probability levels must lie in [0, 1]")
    idx = np.searchsorted(F.F, s_arr, side="right") - 1
    out = F.abscissae[np.clip(idx, 0, F.abscissae.size - 1)]
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def _exact_empirical_cost(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
    # integrate |G_mu^{-1}(s) - G_nu^{-1}(s)|^p exactly over the merged
    # cumulative-weight partition (quantiles are piecewise constant in s)
    xu, wu = mu.sorted()
    xv, wv = nu.sorted()
    cu = np.cumsum(wu)
    cv = np.cumsum(wv)
    levels = np.concatenate([[0.0], np.union1d(cu, cv)])
    levels[-1] = 1.0
    mids = (levels[:-1] + levels[1:]) / 2
    qu = xu[np.minimum(np.searchsorted(cu, mids, side="left"), xu.size - 1)]
    qv = xv[np.minimum(np.searchsorted(cv, mids, side="left"), xv.size - 1)]
    seg = np.diff(levels)
    return float(np.sum(seg * np.abs(qu - qv) ** p))


# probability levels of wasserstein's quantile quadrature when a measure is not atoms
QUANTILE_LEVELS = 2048


def wasserstein(mu, nu, p: float = 2.0) -> float:
    """Order-``p`` transport distance between measures on the line.

    For two empirical measures the quantile integral is evaluated exactly on
    the merged cumulative-weight partition; otherwise it is approximated by
    midpoint quadrature over ``QUANTILE_LEVELS`` uniform probability levels.
    """
    if p < 1:
        raise ValueError("order p must be at least 1")
    if isinstance(mu, EmpiricalMeasure) and isinstance(nu, EmpiricalMeasure):
        return _exact_empirical_cost(mu, nu, p) ** (1.0 / p)
    Fu, Fv = cdf(mu), cdf(nu)
    s = (np.arange(QUANTILE_LEVELS) + 0.5) / QUANTILE_LEVELS
    qu, qv = quantile(Fu, s), quantile(Fv, s)
    return float(np.mean(np.abs(qu - qv) ** p) ** (1.0 / p))


def wasserstein_to_point_circular(mu: EmpiricalMeasure, target: float, p: float = 2.0) -> float:
    """Transport distance on the circle to a point mass, along shorter arcs."""
    d = np.abs(np.mod(mu.points - target + np.pi, 2 * np.pi) - np.pi)
    return float(np.sum(mu.weights * d**p) ** (1.0 / p))


def _ndtr(x):  # the standard normal distribution function of a scalar
    return 0.5 * math.erfc(-x / math.sqrt(2))


def _trunc_gauss_values(xs, mean, sigma):
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    z = (xs - mean) / sigma
    tail_mass = _ndtr((1.0 - mean) / sigma) - _ndtr((0.0 - mean) / sigma)
    if tail_mass < 1e-12:
        raise ConfigError("truncation retains almost no mass on [0, 1]")
    return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) / (sigma * tail_mass)


def truncated_gaussian(mean: float, sigma: float, n_points: int = 2001) -> GridDensity:
    """Gaussian restricted and renormalized to [0, 1], sampled on a uniform grid.

    The samples follow the analytic truncated density, rescaled so the grid
    trapezoid mass is exactly one (the quadrature residual is a few 1e-9).
    """
    xs = np.linspace(0.0, 1.0, n_points)
    return GridDensity.normalized((0.0, 1.0), _trunc_gauss_values(xs, mean, sigma))


def truncated_gaussian_mixture(means, sigmas, weights, n_points: int = 2001) -> GridDensity:
    """Convex mixture of truncated Gaussians on [0, 1]."""
    means, sigmas, weights = map(np.atleast_1d, (means, sigmas, weights))
    if not (means.size == sigmas.size == weights.size):
        raise ConfigError("means, sigmas and weights must have equal length")
    if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights <= 0):
        raise ConfigError("mixture weights must be positive and sum to 1")
    xs = np.linspace(0.0, 1.0, n_points)
    vals = np.zeros_like(xs)
    for m, s, c in zip(means, sigmas, weights):
        vals += c * _trunc_gauss_values(xs, m, s)
    return GridDensity.normalized((0.0, 1.0), vals)


def _point_source_F(y, a, t):
    # distribution function of an initial point mass at a > 0 advected by
    # y = a * exp(t * beta) with beta uniform on [0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        core = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300) / a) / t
    return np.clip(core, 0.0, 1.0)


def point_source_cdf(a: float, t: float, n_points: int = 2001) -> CDFTable:
    """Closed-form CDF of the spread of a point mass at ``a`` under the
    exponential parameter flow, tabulated over its support [a, a e^t]."""
    if a <= 0 or t <= 0:
        raise ConfigError("point-source flow needs a > 0 and t > 0")
    ys = np.linspace(a, a * np.exp(t), n_points)
    return CDFTable(ys, _point_source_F(ys, a, t))


def point_source_pde_residual(a: float, t: float, step: float = 1e-3, n_probe: int = 400) -> float:
    """Max residual of dF/dt = -0.5 * y * d(F^2)/dy on the interior of the support.

    Both sides are formed by central finite differences of the closed-form
    distribution function; probe points keep the stencil away from the kinks
    at the support edges.
    """
    if t <= 2 * step:
        raise ConfigError("time must exceed the differencing stencil")
    lo = a * np.exp(2 * step)
    hi = a * np.exp(t - 2 * step) / (1 + 2 * step)
    ys = np.linspace(lo, hi, n_probe)
    dFdt = (_point_source_F(ys, a, t + step) - _point_source_F(ys, a, t - step)) / (2 * step)
    h = step * max(a, 1.0)
    F2p = _point_source_F(ys + h, a, t) ** 2
    F2m = _point_source_F(ys - h, a, t) ** 2
    rhs_vals = -0.5 * ys * (F2p - F2m) / (2 * h)
    return float(np.max(np.abs(dFdt - rhs_vals)))


def sample_empirical(mu: EmpiricalMeasure, n: int, rng: np.random.Generator) -> EmpiricalMeasure:
    """Equal-weight resample of ``n`` atoms drawn according to the weights."""
    idx = rng.choice(mu.points.size, size=n, p=mu.weights)
    return EmpiricalMeasure.from_samples(mu.points[idx])
