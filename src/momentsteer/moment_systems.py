"""Truncated moment dynamics of the labeled linear ensemble, and numeric
moment trajectories for simulated ensembles.

For the labeled linear family the density moments obey an exact linear
system: a left-shift in the moment index plus a Hankel-structured input
matrix with entries 1/(k+i).  Truncation keeps orders 0..q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import (ControlSignal, LinearScalar, ParameterGrid, Trajectory,
                        _steps_per_interval, simulate)
from .moments import MONOMIAL_PARAM, member_moments, moment_metric_values

__all__ = [
    "LinearMomentSystem",
    "MomentTrace",
    "build_linear_moment_system",
    "moment_rhs",
    "verify_moment_consistency",
    "moment_trajectory",
]


@dataclass(frozen=True)
class LinearMomentSystem:
    """Shift-plus-Hankel moment dynamics dm/dt = L m + H u truncated at order q.

    ``L`` is the (q+1) x (q+1) nilpotent superdiagonal shift; ``H`` is
    (q+1) x p with H[k, i-1] = 1/(k+i).  ``h_rank`` reports the numerical
    rank of H: singular values above 1e-10, an absolute cutoff that matches
    the relative scale because the entries are of order one.
    """

    q: int
    p: int
    L: np.ndarray
    H: np.ndarray
    h_rank: int
    h_cond: float


def build_linear_moment_system(q: int, p: int) -> LinearMomentSystem:
    if q < 1 or p < 1:
        raise ValueError("need q >= 1 and p >= 1")
    L = np.diag(np.ones(q), 1)
    k = np.arange(q + 1)[:, None]
    i = np.arange(1, p + 1)[None, :]
    H = 1.0 / (k + i)
    sv = np.linalg.svd(H, compute_uv=False)
    rank = int(np.sum(sv > 1e-10))
    return LinearMomentSystem(q, p, L, H, rank, float(sv[0] / sv[-1]))


def moment_rhs(sys: LinearMomentSystem, m, u) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if m.shape != (sys.q + 1,):
        raise ValueError(f"moment vector must have length {sys.q + 1}")
    if u.shape != (sys.p,):
        raise ValueError(f"control vector must have length {sys.p}")
    return sys.L @ m + sys.H @ u


def _rk4_affine(A, z0, forcing_half, dt, dtype=np.float64, hold=None, per=1):
    """Classical RK4 for dz/dt = A z + f(t) + g, batched over leading axes.

    ``forcing_half`` samples f on the half-step grid, (..., 2*n_steps+1, n).
    ``hold`` is an optional zero-order-hold term g, (..., n_segments, n), with
    ``per`` steps per segment; all stages of a step use the step's segment.
    ``z0`` is (..., n); leading axes of the three inputs broadcast, and the
    trajectory comes back as (..., n_steps+1, n) in ``dtype``.
    """
    At = np.asarray(A, dtype=dtype).T
    f = np.asarray(forcing_half, dtype=dtype)
    n_steps = (f.shape[-2] - 1) // 2
    lead = [np.shape(z0)[:-1], f.shape[:-2]] + ([] if hold is None else [np.shape(hold)[:-2]])
    z = np.broadcast_to(np.asarray(z0, dtype=dtype), np.broadcast_shapes(*lead) + At.shape[:1])
    out = np.empty(z.shape[:-1] + (n_steps + 1, z.shape[-1]), dtype=dtype)
    out[..., 0, :] = z
    h = dtype(dt)
    for i in range(n_steps):
        f0, fm, f1 = f[..., 2 * i, :], f[..., 2 * i + 1, :], f[..., 2 * i + 2, :]
        if hold is not None:
            g = hold[..., i // per, :]
            f0, fm, f1 = f0 + g, fm + g, f1 + g
        k1 = z @ At + f0
        k2 = (z + h / 2 * k1) @ At + fm
        k3 = (z + h / 2 * k2) @ At + fm
        k4 = (z + h * k3) @ At + f1
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[..., i + 1, :] = z
    return out


def _rk4_linear_moments(L, H, m0, control: ControlSignal, dt: float) -> np.ndarray:
    """RK4 trajectory of dm/dt = L m + H u(t) sampled every dt."""
    n_int = control.values.shape[0]
    per = _steps_per_interval(control.horizon / n_int, dt)
    free = np.zeros((2 * per * n_int + 1, L.shape[0]))
    return _rk4_affine(L, m0, free, dt, hold=control.values @ H.T, per=per)


def verify_moment_consistency(
    model: LinearScalar,
    x0,
    grid: ParameterGrid,
    control: ControlSignal,
    q: int,
    dt: float,
    pad: int = 8,
) -> float:
    """Largest metric gap between ensemble-side and moment-side trajectories.

    One path simulates the ensemble and takes density moments per instant by
    grid quadrature; the other integrates the shift-plus-Hankel system from
    the same initial moments under the same control.  The moment ODE is
    integrated at order q+pad and projected back to q, so the comparison
    isolates modeling and integrator error rather than truncation error of
    the top component.
    """
    if not isinstance(model, LinearScalar):
        raise ValueError("consistency check applies to the labeled linear model")
    traj = simulate(model, x0, grid, control, dt)
    if control.horizon == 0.0:
        return 0.0
    ens = member_moments(traj.states, grid, MONOMIAL_PARAM, q + pad)
    big = build_linear_moment_system(q + pad, model.n_inputs)
    ode = _rk4_linear_moments(big.L, big.H, ens[0], control, dt)
    return float(np.max(moment_metric_values(ens[:, : q + 1], ode[:, : q + 1])))


@dataclass(frozen=True)
class MomentTrace:
    """Moment vectors per trajectory instant."""

    times: np.ndarray
    values: np.ndarray
    basis: str


def moment_trajectory(traj: Trajectory, basis: str, q: int) -> MomentTrace:
    """Per-instant moments of the trajectory's output measure.

    ``monomial_param`` treats the member values as density samples against
    the grid weights; ``monomial_output`` and ``fourier`` are pushforward
    moments of the member outputs.
    """
    return MomentTrace(traj.times.copy(), member_moments(traj.states, traj.grid, basis, q), basis)
