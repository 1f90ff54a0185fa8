"""Moment transforms of measures, the weighted sequence metric, density
reconstruction from trigonometric moments, and realizability checks.  Every
layer maps member values to moments through :func:`member_moments` and
measures d_M through :func:`moment_metric_values`."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .measures import EmpiricalMeasure, GridDensity
from .ensembles import ParameterGrid

__all__ = [
    "MONOMIAL_PARAM",
    "MONOMIAL_OUTPUT",
    "FOURIER",
    "MomentSequence",
    "HausdorffCheck",
    "member_moments",
    "moments_density",
    "moments_output",
    "moments_fourier",
    "reconstruct_fourier",
    "moment_metric",
    "moment_metric_values",
    "hausdorff_check",
]

MONOMIAL_PARAM = "monomial_param"
MONOMIAL_OUTPUT = "monomial_output"
FOURIER = "fourier"
_BASES = (MONOMIAL_PARAM, MONOMIAL_OUTPUT, FOURIER)


@dataclass(frozen=True)
class MomentSequence:
    """Truncated moment coordinates m_0..m_q of a measure against a basis tag.

    For a probability measure the zeroth monomial-output or trigonometric
    moment is 1; trigonometric moments have modulus at most 1.  The
    ``monomial_param`` basis describes a density on the parameter interval,
    whose zeroth moment is its total mass.
    """

    basis: str
    values: np.ndarray

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        vals = np.asarray(self.values)
        vals = vals.astype(complex) if self.basis == FOURIER else vals.astype(float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("moment values must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("moments must be finite")
        if self.basis in (MONOMIAL_OUTPUT, FOURIER) and abs(vals[0] - 1.0) > 1e-10:
            raise ValueError("zeroth moment of a probability measure must be 1 within 1e-10")
        if self.basis == FOURIER and np.any(np.abs(vals) > 1 + 1e-9):
            raise ValueError("trigonometric moments of a probability measure have modulus <= 1")

    @property
    def order(self) -> int:
        return self.values.size - 1


def moments_density(f: GridDensity, q: int) -> MomentSequence:
    """Power moments of a density on the parameter interval by trapezoid quadrature."""
    if q < 0:
        raise ValueError("order must be nonnegative")
    xs = f.xs
    vals = np.array([np.trapezoid(xs**k * f.values, xs) for k in range(q + 1)])
    return MomentSequence(MONOMIAL_PARAM, vals)


def _power_sums(x, w, q: int, trig: bool = False) -> np.ndarray:
    """Sums m_k = sum_j w_j x_j^k (with ``trig``, sum_j w_j exp(-i k x_j)),
    k = 0..q, over the last axis of ``x``, batched over its leading axes; the
    orders form a new trailing axis.  Incremental powers (phase factors) keep
    every temporary at the shape of ``x``; overflow comes back non-finite.
    The weighted sums are einsum loops, not matrix-vector products: BLAS
    would spread these small reductions over threads for no gain."""
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(-1j * x) if trig else x
        acc = np.ones_like(factor)
        out = np.empty(x.shape[:-1] + (q + 1,), dtype=np.result_type(factor, w))
        out[..., 0] = np.einsum("...j,j->...", acc, w)
        for k in range(1, q + 1):
            acc = acc * factor
            out[..., k] = np.einsum("...j,j->...", acc, w)
    return out


def member_moments(x, grid: ParameterGrid, basis: str, q: int) -> np.ndarray:
    """Moments m_0..m_q of member values ``x`` (last axis: the members of
    ``grid``), batched over the leading axes.  ``monomial_param`` reads ``x``
    as density samples, m_k = sum_j w_j beta_j^k x_j; the other bases are the
    pushforward moments sum_j w_j x_j^k and sum_j w_j exp(-i k x_j)."""
    if basis == MONOMIAL_PARAM:
        ks = np.arange(q + 1)
        return np.asarray(x) @ (grid.nodes[None, :] ** ks[:, None] * grid.weights[None, :]).T
    if basis not in _BASES:
        raise ValueError(f"unknown basis {basis!r}")
    return _power_sums(x, grid.weights, q, trig=basis == FOURIER)


def _member_moments_vjp(x, grid: ParameterGrid, basis: str, q: int, mbar) -> np.ndarray:
    """Cotangent of :func:`member_moments`: Re(sum_k mbar_k dm_k/dx_j) for
    every member, batched like ``x``.  Powers are built up incrementally as
    in :func:`_power_sums`, so no term forms x^-1; m_0 does not depend on the
    members of the pushforward bases."""
    x = np.asarray(x)
    w = grid.weights
    if basis == MONOMIAL_PARAM:
        ks = np.arange(q + 1)
        return np.real(mbar) @ (grid.nodes[None, :] ** ks[:, None] * w[None, :])
    trig = basis == FOURIER
    mbar = (np.asarray(mbar) if trig else np.real(mbar))[..., None]
    out = np.zeros(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(-1j * x) if trig else x
        acc = np.ones_like(factor)
        for k in range(1, q + 1):
            if trig:  # d/dx e^{-ikx} = -ik e^{-ikx}, and Re(-i a) = Im(a)
                acc = acc * factor
                out += k * np.imag(mbar[..., k, :] * acc)
            else:
                out += k * mbar[..., k, :] * acc
                acc = acc * factor
    return out * w


def moments_output(mu: EmpiricalMeasure, q: int) -> MomentSequence:
    """Power moments of an output measure: m_k = sum_j w_j y_j^k."""
    if q < 0:
        raise ValueError("order must be nonnegative")
    vals = _power_sums(mu.points, mu.weights, q)
    if not np.all(np.isfinite(vals)):
        raise ValueError("moment overflow: outputs too large for the requested order")
    return MomentSequence(MONOMIAL_OUTPUT, vals)


def moments_fourier(mu: EmpiricalMeasure, q: int) -> MomentSequence:
    """Trigonometric moments m_k = sum_j w_j exp(-i k theta_j) of angles on the circle."""
    if q < 0:
        raise ValueError("order must be nonnegative")
    th = mu.points
    if np.any(th < 0) or np.any(th >= 2 * np.pi):
        raise ValueError("angles must lie in [0, 2*pi)")
    return MomentSequence(FOURIER, _power_sums(th, mu.weights, q, trig=True))


def reconstruct_fourier(m: MomentSequence, n_points: int = 512) -> GridDensity:
    """Truncated trigonometric series density on [0, 2*pi].

    f(theta) = (1/2pi) [m_0 + sum_k (conj(m_k) e^{-ik theta} + m_k e^{ik theta})].
    Truncation can produce negative lobes; they are returned as-is and exposed
    through the density's ``has_negative`` flag.
    """
    if m.basis != FOURIER:
        raise ValueError("reconstruction needs trigonometric moments")
    m0 = m.values[0]
    if abs(m0.imag) > 1e-9 or m0.real <= 0:
        raise ValueError("zeroth moment must be real and positive")
    theta = np.linspace(0.0, 2 * np.pi, n_points + 1)
    vals = np.full(theta.shape, m0.real, dtype=float)
    for k in range(1, m.order + 1):
        vals += 2 * np.real(m.values[k] * np.exp(1j * k * theta))
    return GridDensity((0.0, 2 * np.pi), vals / (2 * np.pi), signed=True)


def moment_metric_values(a, b):
    """Weighted sequence distance sum_k 2^-k |a_k - b_k| over the last axis;
    leading axes broadcast, and 1-d inputs give a float."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError("moment arrays must have equal length")
    k = np.arange(a.shape[-1], dtype=float)
    d = (2.0**-k * np.abs(a - b)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def _metric_vjp(a, b) -> np.ndarray:
    """Gradient of :func:`moment_metric_values` in ``a``: 2^-k conj(e_k)/|e_k|
    with e = a - b, which is the sign of the gap for real moments and 0 at an
    exact zero.  The derivative along a real variation of ``a`` is
    Re(sum_k grad_k da_k)."""
    e = np.asarray(a) - np.asarray(b)
    mag = np.abs(e)
    k = np.arange(e.shape[-1], dtype=float)
    return 2.0**-k * (np.conj(e) / np.where(mag > 0, mag, 1.0))


def moment_metric(a: MomentSequence, b: MomentSequence) -> float:
    """Metric on moment sequences of the same basis and order."""
    if a.basis != b.basis:
        raise ValueError("moment sequences have different bases")
    if a.order != b.order:
        raise ValueError("moment sequences have different orders")
    return moment_metric_values(a.values, b.values)


@dataclass(frozen=True)
class HausdorffCheck:
    """Outcome of the finite-difference realizability test for [0, 1] moments."""

    passed: bool
    worst: float
    where: tuple


def hausdorff_check(m, depth: int, tol: float = 1e-9) -> HausdorffCheck:
    """Check sum_i C(r, i) (-1)^i m_{k+i} >= -tol for all r <= depth.

    Nonnegativity of these differences for all orders characterizes power
    moment sequences of measures on [0, 1]; at finite depth the check is a
    necessary condition.  Returns the worst signed value and where it occurs.
    """
    vals = np.asarray(m.values if isinstance(m, MomentSequence) else m, dtype=float)
    worst = np.inf
    where = (0, 0)
    for r in range(depth + 1):
        coeff = np.array([(-1) ** i * comb(r, i) for i in range(r + 1)])
        for k in range(vals.size - r):
            d = float(coeff @ vals[k : k + r + 1])
            if d < worst:
                worst, where = d, (k, r)
    return HausdorffCheck(worst >= -tol, worst, where)
