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

    For a linear system one RK4 step of size h has the closed form
    z_{k+1} = Phi z_k + g_k with M = h A,

        Phi  = I + M + M^2/2 + M^3/6 + M^4/24,
        g_k  = C0 f(t_k) + Ch f(t_k + h/2) + C1 f(t_k + h),
        C0   = h/6 (I + M + M^2/2 + M^3/4),
        Ch   = h/6 (4 I + 2 M + M^2/2),   C1 = h/6 I (applied as a scalar),

    the same scheme as the stage-by-stage form up to rounding.  The matrices
    are built once per call in ``dtype``; the increments g_k of a segment
    come from batched products over its half-step forcing, and the loop is
    one product and one add per step.  With ``hold`` the steps run segment
    by segment, each segment's hold added to its forcing, so a call with
    ``hold`` equals the segments run one at a time, bit for bit.
    """
    f = np.asarray(forcing_half, dtype=dtype)
    n_steps = (f.shape[-2] - 1) // 2
    h = dtype(dt)
    M = h * np.asarray(A, dtype=dtype)
    eye = np.eye(M.shape[0], dtype=dtype)
    M2 = M @ M
    M3 = M2 @ M
    phi_t = (eye + M + M2 / 2 + M3 / 6 + M3 @ M / 24).T
    c0_t = (h / 6 * (eye + M + M2 / 2 + M3 / 4)).T
    ch_t = (h / 6 * (4 * eye + 2 * M + M2 / 2)).T
    lead = [np.shape(z0)[:-1], f.shape[:-2]] + ([] if hold is None else [np.shape(hold)[:-2]])
    out = np.empty(np.broadcast_shapes(*lead) + (n_steps + 1, M.shape[0]), dtype=dtype)
    out[..., 0, :] = z0
    if hold is None:
        per = max(n_steps, 1)
    for s in range(0, n_steps, per):
        e = min(s + per, n_steps)
        fs = f[..., 2 * s: 2 * e + 1, :]
        if hold is not None:
            fs = fs + hold[..., s // per, None, :]
        out[..., s + 1: e + 1, :] = (fs[..., :-1:2, :] @ c0_t + fs[..., 1::2, :] @ ch_t
                                     + h / 6 * fs[..., 2::2, :])
        for k in range(s, e):
            out[..., k + 1, :] += out[..., k, :] @ phi_t
    return out


def _rk4_linear_moments(L, H, m0, control: ControlSignal, dt: float) -> np.ndarray:
    """RK4 trajectory of dm/dt = L m + H u(t) sampled every dt."""
    n_int = control.values.shape[0]
    per = _steps_per_interval(control.horizon / n_int, dt)
    free = np.zeros((2 * per * n_int + 1, L.shape[0]))
    return _rk4_affine(L, m0, free, dt, hold=control.values @ H.T, per=per)


# orders integrated above q, so that truncation stays out of the consistency check
CONSISTENCY_PAD = 8


def verify_moment_consistency(
    model: LinearScalar,
    x0,
    grid: ParameterGrid,
    control: ControlSignal,
    q: int,
    dt: float,
) -> float:
    """Largest metric gap between ensemble-side and moment-side trajectories.

    One path simulates the ensemble and takes density moments per instant by
    grid quadrature; the other integrates the shift-plus-Hankel system from
    the same initial moments under the same control.  The moment ODE is
    integrated at order q + ``CONSISTENCY_PAD`` and projected back to q, so
    the comparison isolates modeling and integrator error rather than
    truncation error of the top component.
    """
    if not isinstance(model, LinearScalar):
        raise ValueError("consistency check applies to the labeled linear model")
    traj = simulate(model, x0, grid, control, dt)
    if control.horizon == 0.0:
        return 0.0
    ens = member_moments(traj.states, grid, MONOMIAL_PARAM, q + CONSISTENCY_PAD)
    big = build_linear_moment_system(q + CONSISTENCY_PAD, model.n_inputs)
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
