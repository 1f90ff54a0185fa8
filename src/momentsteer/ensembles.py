"""Ensemble models and fixed-step integration of member trajectories.

An ensemble is a family of scalar units indexed by a parameter drawn from a
compact interval, all driven by one broadcast input.  Two model kinds are
provided: a multi-input scalar linear family (rate parameter times state plus
a polynomial-in-parameter input profile) and globally coupled Kuramoto phase
oscillators actuated through ``u * sin(theta)``.  Every run, single or
batched, replayed or recorded for the adjoint, goes through one forward
function, :func:`_simulate_segments_batch`.  The linear family takes each
control segment in closed form, as the exact transfer of its RK4 steps
(:func:`_linear_transfer`); Kuramoto takes its RK4 steps stage by stage, and
for the adjoint records each stage's cos x, sin x and mean-field sums, from
which the reverse sweep (:func:`_rk4_adjoint`) runs with no trig.  The
discrete adjoint of a forward run, from the cotangents of its boundary states
to that of its control, is :func:`_segments_pullback`; it runs no forward
pass of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError

__all__ = [
    "ParameterGrid",
    "ControlSignal",
    "LinearScalar",
    "Kuramoto",
    "Trajectory",
    "make_uniform_grid",
    "rhs",
    "mean_field",
    "simulate",
]


@dataclass(frozen=True)
class ParameterGrid:
    """Quadrature discretization of the parameter interval.

    ``nodes`` are strictly increasing parameter values, ``weights`` are
    positive quadrature weights summing to one, so the discrete parameter
    measure is a probability measure.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ConfigError("grid nodes must be a nonempty 1-d array")
        if weights.shape != nodes.shape:
            raise ConfigError("grid weights must match nodes in shape")
        if np.any(np.diff(nodes) <= 0):
            raise ConfigError("grid nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ConfigError("grid weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError("grid weights must sum to 1 within 1e-12")

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: one value vector per interval of a uniform time grid."""

    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        tg = np.asarray(self.time_grid, dtype=float)
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "time_grid", tg)
        object.__setattr__(self, "values", vals)
        if tg.ndim != 1 or tg.size < 2:
            raise ConfigError("control time grid needs at least two instants")
        steps = np.diff(tg)
        degenerate = np.all(steps == 0.0)  # zero-horizon signal
        if not degenerate and np.any(steps <= 0):
            raise ConfigError("control time grid must be increasing")
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9 * max(steps[0], 1.0)):
            raise ConfigError("control time grid must be uniform")
        if vals.shape[0] != tg.size - 1:
            raise ConfigError("need one control vector per time interval")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("control values must be finite")

    @classmethod
    def zeros(cls, n_inputs: int, horizon: float, n_intervals: int = 1) -> "ControlSignal":
        return cls(np.linspace(0.0, horizon, n_intervals + 1), np.zeros((n_intervals, n_inputs)))

    @property
    def n_inputs(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1] - self.time_grid[0])


@dataclass(frozen=True)
class LinearScalar:
    """dx/dt = beta * x + sum_i beta^(i-1) u_i, state on the real line."""

    n_inputs: int = 1

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ConfigError("LinearScalar needs at least one input channel")


@dataclass(frozen=True)
class Kuramoto:
    """dtheta/dt = omega + K r sin(psi - theta) + u sin(theta), phases on the circle.

    The grid nodes play the role of the natural frequencies; (r, psi) is the
    weighted mean field of the current phases.
    """

    coupling: float = 0.0

    def __post_init__(self):
        if self.coupling < 0:
            raise ConfigError("Kuramoto coupling must be nonnegative")

    n_inputs: int = field(default=1, init=False)


@dataclass
class Trajectory:
    """States sampled on a uniform time grid, one row per instant."""

    times: np.ndarray
    states: np.ndarray
    grid: ParameterGrid


def make_uniform_grid(n: int, lo: float, hi: float) -> ParameterGrid:
    """Midpoint-rule discretization of [lo, hi] with equal weights 1/n."""
    if n < 2:
        raise ConfigError("grid needs at least 2 members")
    if not lo < hi:
        raise ConfigError("grid bounds must satisfy lo < hi")
    j = np.arange(n)
    nodes = lo + (j + 0.5) * (hi - lo) / n
    return ParameterGrid(nodes, np.full(n, 1.0 / n))


def mean_field(x, grid: ParameterGrid):
    """Weighted circular mean of phases ``x``: returns (r, psi) with
    r e^{i psi} = sum_j w_j e^{i x_j}."""
    x = np.asarray(x, dtype=float)
    zr, zi = float(np.cos(x) @ grid.weights), float(np.sin(x) @ grid.weights)
    return min(math.hypot(zr, zi), 1.0), math.atan2(zi, zr)


def _profile(model: LinearScalar, grid: ParameterGrid) -> np.ndarray:
    """Input profile of the linear family: row i holds beta^i."""
    return grid.nodes[None, :] ** np.arange(model.n_inputs)[:, None]


def _drive(model, grid: ParameterGrid):
    """Input term of a control segment as a function of its control ``u``,
    batched over leading axes: ``u @ profile`` with rows beta^(i-1) for the
    linear family, the scalar u_1 for Kuramoto."""
    if isinstance(model, LinearScalar):
        profile = _profile(model, grid)
        return lambda u: u @ profile
    return lambda u: u[..., 0]


def _field(model, grid: ParameterGrid, record=None):
    """Right-hand side f(x, drive, out) of the model at one member vector
    ``x``, written into ``out``, which it returns.

    Kuramoto is written in cos/sin form: with z = sum_j w_j e^{i x_j} =
    zr + i zi and r = min(|z|, 1), K r sin(psi - x) equals
    k (zi cos x - zr sin x) with k = K / max(|z|, 1), so the clip is kept and
    the coupling vanishes at z = 0.  A Kuramoto ``record`` of three blocks
    ``(C, S, Z)`` keeps what :func:`_rk4_adjoint` reads: each call writes
    cos x, sin x and (zr, zi) into the next row of C, S and Z."""
    nodes = grid.nodes
    if isinstance(model, LinearScalar):
        return lambda x, drive, out: np.add(nodes * x, drive, out=out)
    K, w = model.coupling, grid.weights
    scratch = np.empty(grid.size)
    kzi, dkzr = np.empty(()), np.empty(())  # 0-d operands: see _simulate_segments_batch
    # without a record, cos x, sin x and the sums go to one reused scratch row each
    rows = zip(*record) if record else itertools.repeat(
        (np.empty(grid.size), np.empty(grid.size), np.empty(2)))

    def kuramoto(x, drive, out):
        c, s, z = next(rows)
        np.cos(x, c)
        np.sin(x, s)
        zr, zi = float(c.dot(w)), float(s.dot(w))  # ndarray.dot: the ddot of @, called faster
        z[0], z[1] = zr, zi
        k = K / max(math.hypot(zr, zi), 1.0)
        kzi[()], dkzr[()] = k * zi, drive - k * zr
        # nodes + (k zi) c + (drive - k zr) s, summed in that order
        np.add(nodes, np.multiply(c, kzi, out), out)
        return np.add(out, np.multiply(s, dkzr, scratch), out)

    return kuramoto


def _linear_transfer(grid: ParameterGrid, per: int, dt: float):
    """Exact transfer of ``per`` RK4 steps of dx/dt = beta x + d with the
    drive d held: x -> Rp x + S d, member by member.

    With z = dt beta, one step of the four stages is exactly
    x -> R x + dt P d, where R = 1 + z + z^2/2 + z^3/6 + z^4/24 and
    P = 1 + z/2 + z^2/6 + z^3/24; so Rp = R^per and
    S = dt P sum_{j<per} R^j."""
    z = dt * grid.nodes
    R = 1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24)))
    P = 1 + z * (1 / 2 + z * (1 / 6 + z / 24))
    powers = R ** np.arange(per + 1)[:, None]  # R^0 .. R^per
    return powers[-1], dt * P * powers[:-1].sum(axis=0)


def _rk4_adjoint(model: Kuramoto, grid: ParameterGrid, record, drives, per: int, dt: float,
                 seeds) -> np.ndarray:
    """Reverse sweep of Kuramoto's RK4 steps in :func:`_simulate_segments_batch`:
    the exact discrete adjoint, read from the forward's ``record`` of every
    stage (see :func:`_field`), so it forms no trig and no mean-field sums.

    ``seeds`` holds the cotangents of the states at the segment boundaries
    (one row per boundary).  Returns the cotangent of each segment's drive.
    The phase wrap has identity derivative.  A stage pulls the cotangent
    ``b`` of its field value back through the unclipped field, in cos/sin
    form, to b ((drive - K zr) cos x - K zi sin x) + K w (cos x sum_j b_j
    cos x_j + sin x sum_j b_j sin x_j) for x and to the float
    sum_j b_j sin x_j for the drive.  The member-wise first factor depends on
    the forward alone; it is formed for one segment's 4 * per stages at a
    time."""
    C, S, Z = record
    K, Kw = model.coupling, model.coupling * grid.weights
    n = grid.size
    # stage cotangents b1..b4, the stage input y, dt/6 and dt/3 of xbar, and
    # the sweep's temporaries, each written in place; scalars as 0-d operands
    b1, b2, b3, b4, y, x6, x3, t, t2 = np.empty((9, n))
    diag, diag2 = np.empty((2, 4 * per, n))
    bc, bs = np.empty(()), np.empty(())
    sixth, third, whole, half = map(np.array, (dt / 6, dt / 3, dt, dt / 2))

    def vjp(i, b, out):  # stage i of the segment whose Cs, Ss and diag the loop below holds
        c, s = Cs[i], Ss[i]
        bc[()], bs[()] = b.dot(c), b.dot(s)
        # b diag + Kw (bc c + bs s)
        np.add(np.multiply(c, bc, t), np.multiply(s, bs, t2), t)
        np.multiply(Kw, t, t)
        np.add(np.multiply(b, diag[i], out), t, out)
        return float(bs)

    xbar = seeds[-1].copy()
    dbar = np.zeros_like(drives)
    for seg in range(len(drives) - 1, -1, -1):
        rows = slice(4 * per * seg, 4 * per * (seg + 1))
        Cs, Ss = C[rows], S[rows]
        # (drive - K zr) cos x - (K zi) sin x
        np.multiply(drives[seg] - K * Z[rows, :1], Cs, out=diag)
        np.subtract(diag, np.multiply(K * Z[rows, 1:], Ss, out=diag2), out=diag)
        for i in range(4 * per - 4, -1, -4):  # the step's first stage
            np.multiply(xbar, sixth, x6)
            np.multiply(xbar, third, x3)
            g4 = vjp(i + 3, x6, b4)
            g3 = vjp(i + 2, np.add(x3, np.multiply(b4, whole, y), y), b3)
            g2 = vjp(i + 1, np.add(x3, np.multiply(b3, half, y), y), b2)
            g1 = vjp(i, np.add(x6, np.multiply(b2, half, y), y), b1)
            for b in (b1, b2, b3, b4):
                np.add(xbar, b, xbar)
            dbar[seg] += g1 + g2 + g3 + g4
        np.add(xbar, seeds[seg], xbar)
    return dbar


def rhs(model, x, grid: ParameterGrid, u) -> np.ndarray:
    """Derivatives of the member values ``x`` under control vector ``u``."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != grid.nodes.shape:
        raise ValueError("state length must equal grid size")
    if u.size != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} control values, got {u.size}")
    return _field(model, grid)(x, _drive(model, grid)(u), np.empty_like(x))


def _steps_per_interval(interval: float, dt: float) -> int:
    """Number of ``dt`` steps in ``interval``; the package's one rule for
    fixed-step grids.  Raises :class:`ConfigError` unless ``dt`` divides the
    interval into at least one step."""
    n = int(round(interval / dt))
    if n < 1 or abs(n * dt - interval) > 1e-9 * max(1.0, interval):
        raise ConfigError(f"dt={dt:g} does not divide the interval {interval:g}")
    return n


def simulate(model, x0, grid: ParameterGrid, control: ControlSignal, dt: float) -> Trajectory:
    """Classical fixed-step RK4 over [0, T], sampled every ``dt``.

    The control is held constant on each of its intervals; ``dt`` must divide
    the interval length.  Kuramoto phases are wrapped to [0, 2*pi) after every
    step.  The run is deterministic: identical inputs give identical output.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != grid.nodes.shape:
        raise ValueError("initial state length must equal grid size")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    if control.n_inputs != model.n_inputs:
        raise ValueError("control channel count must match the model input count")

    horizon = control.horizon
    if horizon == 0.0:
        return Trajectory(np.zeros(1), x[None, :].copy(), grid)
    if dt <= 0:
        raise ValueError("dt must be positive")

    per = _steps_per_interval(horizon / control.values.shape[0], dt)
    # one segment per step, so every state is a recorded boundary
    U = np.repeat(control.values, per, axis=0)[None]
    states = _simulate_segments_batch(model, x, grid, U, horizon, dt)[0]
    times = control.time_grid[0] + dt * np.arange(states.shape[0])
    return Trajectory(times, states, grid)


def _simulate_segments_batch(model, x0, grid, U, horizon, dt, *, record=None):
    """The package's one ensemble forward run: classical fixed-step RK4 for a
    batch of piecewise-constant controls, sampled at the segment boundaries.

    U has shape (B, n_intervals, p) and ``dt`` must divide each interval;
    returns states of shape (B, n_intervals + 1, n).  Each batch row is
    integrated on its own as one 1-d member vector, so a row equals the run
    of its control alone, bit for bit.  The linear family advances a whole
    segment at once by the exact transfer of its RK4 steps
    (:func:`_linear_transfer`).  Kuramoto takes its RK4 steps stage by stage
    and wraps the phases to [0, 2*pi) after every step; a ``record``
    ``(C, S, Z)`` passed with B = 1, three blocks with one row for each of
    the 4 * n_intervals * (interval / dt) stages, receives every stage's
    cos x, sin x and mean-field sums, in order, for :func:`_rk4_adjoint`
    (see :func:`_field`).  A non-finite state
    raises :class:`SolverError` at the first boundary of a row where it
    appears, with its time from the run's start.
    """
    B, n_int, p = U.shape
    if p != model.n_inputs:
        raise ValueError("control channel count must match the model input count")
    per = _steps_per_interval(horizon / n_int, dt)
    if isinstance(model, LinearScalar):
        Rp, S = _linear_transfer(grid, per, dt)

        def advance(x, drive):
            return Rp * x + S * drive
    else:
        f = _field(model, grid, record)
        # the stage derivatives, the stage input or step sum y, and the state;
        # every op writes to its last, positional argument, and scalar operands
        # are 0-d arrays: NumPy converts a Python float operand on every call,
        # half the cost of an op on 200 members
        k1, k2, k3, k4, y, state = np.empty((6, grid.size))
        half, whole, sixth, two, two_pi = map(np.array, (dt / 2, dt, dt / 6, 2.0, 2 * np.pi))

        def advance(x, drive):
            for _ in range(per):
                f(x, drive, k1)
                f(np.add(x, np.multiply(k1, half, y), y), drive, k2)
                f(np.add(x, np.multiply(k2, half, y), y), drive, k3)
                f(np.add(x, np.multiply(k3, whole, y), y), drive, k4)
                # x + dt/6 (((k1 + 2 k2) + 2 k3) + k4), wrapped
                np.add(k1, np.multiply(k2, two, y), y)
                np.add(y, np.multiply(k3, two, k3), y)
                np.multiply(np.add(y, k4, y), sixth, y)
                x = np.mod(np.add(x, y, y), two_pi, state)
            return x

    drive_of = _drive(model, grid)
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), grid.nodes.shape)
    out = np.empty((B, n_int + 1, grid.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(B):
            x = out[row, 0] = x0
            drives = drive_of(U[row])
            for seg in range(n_int):
                x = advance(x, drives[seg])
                if not np.all(np.isfinite(x)):
                    t_bad = (seg + 1) * per * dt
                    raise SolverError(f"non-finite state in the forward run at t={t_bad:.6g}")
                out[row, seg + 1] = x
    return out


def _adjoint_record(model, grid: ParameterGrid, n_intervals: int, per: int):
    """The record a Kuramoto forward run of ``n_intervals`` segments of
    ``per`` steps fills for :func:`_rk4_adjoint`: blocks C and S with one row
    per RK4 stage, for cos x and sin x, and Z with the stage's mean-field
    sums (see :func:`_field`).  The linear family's pullback needs none:
    returns None.  A record is overwritten by every run it is passed to.

    Blocks rather than lists of member vectors keep the heap unfragmented.
    C and S are two allocations: under glibc's malloc one joint block of
    both stayed resident once freed, and raised the peak RSS of a
    track + validate run on kuramoto_sync's size by 2.4 MB."""
    if isinstance(model, LinearScalar):
        return None
    n_stages = 4 * per * n_intervals
    return (np.empty((n_stages, grid.size)), np.empty((n_stages, grid.size)),
            np.empty((n_stages, 2)))


def _segments_pullback(model, grid: ParameterGrid, u, per: int, dt: float, record, seeds):
    """Cotangent of the control ``u`` (n_intervals, p) of a forward run of
    :func:`_simulate_segments_batch` at ``per`` steps of ``dt`` per segment,
    from the cotangents ``seeds`` of its boundary states (n_intervals + 1, n).
    The linear family's pullback is the transposed segment transfer: the
    drive of segment s gets S times the cotangent of boundary s + 1, which
    then passes back through Rp.  Kuramoto's is :func:`_rk4_adjoint`, which
    reads ``record`` (see :func:`_adjoint_record`) as that run filled it, so
    it must run before the record's next forward run."""
    if isinstance(model, LinearScalar):
        Rp, S = _linear_transfer(grid, per, dt)
        xbar = seeds[-1]
        dbar = np.empty((u.shape[0], grid.size))
        for seg in range(u.shape[0] - 1, -1, -1):
            dbar[seg] = S * xbar
            xbar = Rp * xbar + seeds[seg]
        return dbar @ _profile(model, grid).T
    # Kuramoto's drive is u_1, its one control column
    return _rk4_adjoint(model, grid, record, u[:, 0], per, dt, seeds)[:, None]
