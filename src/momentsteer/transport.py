"""Displacement interpolation between output measures and reference moment
trajectories along the transport path.

The one-dimensional interpolant moves each source atom linearly toward its
monotone-rearrangement image.  Power moments of the interpolant are
polynomials in the transport stage, evaluated in closed form from mixed
moments of the plan, or from their monomial coefficients; trigonometric
moments and their rates sum over the source atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import ConfigError, SolverError
from .measures import CDFTable, EmpiricalMeasure, GridDensity, cdf, quantile
from .moments import FOURIER, MONOMIAL_OUTPUT, MONOMIAL_PARAM, _power_sums

__all__ = [
    "DisplacementPlan",
    "MomentReference",
    "mccann_plan",
    "interpolate",
    "ot_moment_reference",
    "circular_plan",
]

# equal-weight atoms that stand for a continuous source measure in a plan
PLAN_LEVELS = 4096


@dataclass(frozen=True)
class DisplacementPlan:
    """Monotone transport map sampled at the atoms of the source measure.

    ``targets[j]`` is the image of ``points[j]``; over sorted source points
    the targets are nondecreasing, which certifies optimality of the pairing
    in one dimension.  ``period`` marks plans built on the circle through a
    cut; interpolants are wrapped back to [0, period).
    """

    points: np.ndarray
    weights: np.ndarray
    targets: np.ndarray
    period: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        tg = np.asarray(self.targets, dtype=float)
        for name, arr in (("points", pts), ("weights", w), ("targets", tg)):
            if arr.shape != pts.shape or arr.ndim != 1:
                raise ConfigError(f"plan {name} must be 1-d and consistent")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "targets", tg)
        order = np.argsort(pts, kind="stable")
        if np.any(np.diff(tg[order]) < -1e-12):
            raise ConfigError("targets must be nondecreasing along sorted source points")
        object.__setattr__(self, "_mixed", {})

    def mixed_moments(self, q: int, dtype=np.float64) -> np.ndarray:
        """Table M[a, b] = sum_j w_j y_j^a T_j^b for a, b <= q of sources y and
        targets T, computed once per order and dtype."""
        key = (q, np.dtype(dtype))
        if key not in self._mixed:
            ks = np.arange(q + 1)
            y, tg, w = (arr.astype(dtype) for arr in (self.points, self.targets, self.weights))
            table = (y**ks[:, None] * w) @ (tg**ks[:, None]).T
            table.setflags(write=False)  # shared by every later caller
            self._mixed[key] = table
        return self._mixed[key]

    def positions(self, t: float) -> np.ndarray:
        pos = (1.0 - t) * self.points + t * self.targets
        if self.period is not None:
            pos = np.mod(pos, self.period)
        return pos


def _interp_quantiles(F: CDFTable, levels) -> np.ndarray:
    # continuous inverse of a tabulated CDF by linear interpolation; unbiased
    # for smooth distributions, unlike the discrete sup convention
    return np.interp(levels, F.F, F.abscissae)


def _atomize(mu):
    """Represent a measure by atoms; continuous measures get ``PLAN_LEVELS``
    equal-weight atoms at midpoint quantile levels."""
    if isinstance(mu, EmpiricalMeasure):
        pts, w = mu.sorted()
        return pts, w, np.minimum(np.cumsum(w), 1.0)
    if isinstance(mu, (GridDensity, CDFTable)):
        F = cdf(mu)
        s = (np.arange(PLAN_LEVELS) + 0.5) / PLAN_LEVELS
        pts = _interp_quantiles(F, s)
        w = np.full(PLAN_LEVELS, 1.0 / PLAN_LEVELS)
        return pts, w, s
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


def mccann_plan(mu0, mu1) -> DisplacementPlan:
    """Monotone-rearrangement plan: each source atom maps to the target
    quantile at its own cumulative level.

    Discrete targets use the right-continuous table inverse (largest
    qualifying atom); continuous targets use the interpolated inverse of
    their tabulated CDF.
    """
    pts, w, lev = _atomize(mu0)
    F1 = cdf(mu1)
    if isinstance(mu1, EmpiricalMeasure):
        targets = np.asarray(quantile(F1, lev), dtype=float)
    else:
        targets = _interp_quantiles(F1, lev)
    return DisplacementPlan(pts, w, targets)


def interpolate(plan: DisplacementPlan, t: float) -> EmpiricalMeasure:
    """Measure at stage ``t`` of the displacement path: atoms at
    (1-t) y + t T(y) with the source weights."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation stage must lie in [0, 1]")
    return EmpiricalMeasure(plan.positions(t), plan.weights.copy())


def circular_plan(mu0: EmpiricalMeasure, theta_target: float) -> DisplacementPlan:
    """Plan on the circle toward a point mass: cut at the antipode of the
    target, unroll, and move every atom along its shorter arc.

    No atom crosses the cut, so the unrolled problem is an ordinary
    interval transport with a degenerate target.
    """
    theta_target = float(np.mod(theta_target, 2 * np.pi))
    # signed arc from target in (-pi, pi], shifted so the cut sits at the ends
    arc = np.mod(mu0.points - theta_target + np.pi, 2 * np.pi) - np.pi
    unrolled = theta_target + arc
    order = np.argsort(unrolled, kind="stable")
    return DisplacementPlan(
        unrolled[order],
        mu0.weights[order],
        np.full(mu0.points.size, theta_target),
        period=2 * np.pi,
    )


@dataclass(frozen=True)
class MomentReference:
    """Reference moments m*(t) of a displacement path with time derivatives.

    The unit transport stage of ``plan`` is traversed over the span of
    ``time_grid``.  :meth:`value` and :meth:`derivative` evaluate the
    closed-form moments of order 0..``order`` in ``basis`` at arbitrary
    instants, which integrators use at their own stage points; both accept a
    scalar or an array of instants, and a longdouble array is evaluated in
    longdouble.  ``m_star`` and ``dm_star`` are the two on ``time_grid``,
    taken once at construction; a non-finite entry in either (order-q
    powers of large atoms overflow) raises :class:`SolverError`.
    """

    plan: DisplacementPlan
    basis: str
    order: int
    time_grid: np.ndarray
    m_star: np.ndarray = field(init=False, repr=False)
    dm_star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.basis not in (MONOMIAL_PARAM, MONOMIAL_OUTPUT, FOURIER):
            raise ValueError(f"unknown basis {self.basis!r}")
        tg = np.asarray(self.time_grid, dtype=float)
        object.__setattr__(self, "time_grid", tg)
        if tg.size < 2 or tg[-1] <= tg[0]:
            raise ConfigError("reference time grid must span a positive duration")
        with np.errstate(over="ignore", invalid="ignore"):
            m, dm = self.value(tg), self.derivative(tg)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(dm))):
            raise SolverError(f"order-{self.order} moments of the transport reference overflow")
        object.__setattr__(self, "m_star", m)
        object.__setattr__(self, "dm_star", dm)

    @property
    def span(self) -> float:
        return float(self.time_grid[-1] - self.time_grid[0])

    def _stage(self, t) -> np.ndarray:
        # transport stage of the instants, in longdouble for longdouble input
        t = np.asarray(t)
        dtype = np.longdouble if t.dtype == np.longdouble else np.float64
        return (t.astype(dtype) - dtype(self.time_grid[0])) / dtype(self.span)

    def value(self, t) -> np.ndarray:
        return _path_moments(self.plan, self.basis, self.order, self._stage(t))

    def derivative(self, t) -> np.ndarray:
        rate = _path_moments(self.plan, self.basis, self.order, self._stage(t), rate=True)
        return rate / self.span


def _path_moments(plan: DisplacementPlan, basis: str, q: int, s: np.ndarray,
                  rate: bool = False) -> np.ndarray:
    """Moments m_k(s) of the displacement path at stages ``s`` (any shape), or
    their stage derivatives; the trailing axis is the order k.

    Power moments are polynomials in s, evaluated in Bernstein form from the
    mixed plan moments M[a, b] = sum_j w_j y_j^a T_j^b:
    m_k(s) = sum_i C(k, i) (1-s)^(k-i) s^i M[k-i, i] and
    m_k'(s) = k sum_i C(k-1, i) (1-s)^(k-1-i) s^i (M[k-1-i, i+1] - M[k-i, i]).
    Trigonometric moments sum over the atoms, with the rate
    -ik sum_j w_j (T_j - y_j) e^(-ik pos_j).
    """
    if basis == FOURIER:
        pos = np.multiply.outer(1.0 - s, plan.points) + np.multiply.outer(s, plan.targets)
        w = plan.weights * (plan.targets - plan.points) if rate else plan.weights
        out = _power_sums(pos, w, q, trig=True)
        return -1j * np.arange(q + 1) * out if rate else out
    M = plan.mixed_moments(q, s.dtype)
    ks = np.arange(q + 1)
    one_minus = (1 - s)[..., None] ** ks
    power = s[..., None] ** ks
    out = np.zeros(s.shape + (q + 1,), dtype=s.dtype)
    for k in range(1 if rate else 0, q + 1):
        d = k - 1 if rate else k  # polynomial degree
        i = np.arange(d + 1)
        coef = np.array([comb(d, j) for j in i], dtype=s.dtype)
        coef = k * coef * (M[d - i, i + 1] - M[k - i, i]) if rate else coef * M[k - i, i]
        out[..., k] = (one_minus[..., d - i] * power[..., i]) @ coef
    return out


def _path_coefficients(plan: DisplacementPlan, q: int, dtype=np.float64) -> np.ndarray:
    """Monomial coefficients C of the power moments of the displacement path,
    m_k(s) = sum_j C[k, j] s^j, in ``dtype``.

    Expanding (1-s)^(k-i) in the Bernstein form of :func:`_path_moments`
    gives C[k, i+l] += k! / (i! l! (k-i-l)!) (-1)^l M[k-i, i].
    """
    M = plan.mixed_moments(q, dtype)
    C = np.zeros((q + 1, q + 1), dtype=dtype)
    for k in range(q + 1):
        for i in range(k + 1):
            for l in range(k - i + 1):
                C[k, i + l] += comb(k, i) * comb(k - i, l) * (-1) ** l * M[k - i, i]
    return C


def ot_moment_reference(plan: DisplacementPlan, basis: str, q: int, time_grid=None) -> MomentReference:
    """The reference of the transport path of ``plan`` over ``time_grid``
    (default: 201 instants on [0, 1]); the unit transport stage is mapped
    affinely onto the grid's span, and the rate of the zeroth moment is
    exactly zero."""
    if time_grid is None:
        time_grid = np.linspace(0.0, 1.0, 201)
    return MomentReference(plan, basis, q, time_grid)
