"""Control synthesis for moment tracking: pointwise minimum-norm feedback,
fixed-endpoint LQ tracking via a boundary value problem solved by
superposition, and direct shooting for nonlinear ensembles: L-BFGS with the
Moré–Thuente line search (:mod:`momentsteer.lbfgs`; Byrd, Lu, Nocedal & Zhu
1995, Moré & Thuente 1994) on an RK4 objective whose gradient is its exact
discrete adjoint (one forward run and one reverse sweep per evaluation).

The fixed-endpoint solution is checked by its defect against the exact
(matrix-exponential) solution of its ODE, the moment and costate blocks each
on its own scale, and by its optimality gap: the largest directional
derivative of the cost over endpoint-preserving variations, taken in closed
form as the norm of the projected cost gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lbfgs
from .ensembles import (
    ControlSignal,
    LinearScalar,
    ParameterGrid,
    _adjoint_record,
    _segments_pullback,
    _simulate_segments_batch,
    _steps_per_interval,
)
from .errors import ConfigError, SolverError, SolverWarning
from .moment_systems import LinearMomentSystem, MomentTrace, _rk4_affine
from .moments import (MONOMIAL_PARAM, _member_moments_vjp, _metric_vjp, member_moments,
                      moment_metric_values)
from .transport import MomentReference, _path_coefficients

__all__ = [
    "TrackingResult",
    "LQSetup",
    "exact_tracking_feedback",
    "lq_tracking_tpbvp",
    "direct_shooting",
    "tracking_cost",
    "terminal_profile_guess",
    "tpbvp_ode_residual",
    "tpbvp_optimality_gap",
]


@dataclass
class TrackingResult:
    """Synthesized control with its moment trace and per-instant residuals.

    ``cost`` is the trapezoid quadrature of the squared residual trace (plus
    quadratic control energy where the method includes one), so it can be
    recomputed from the stored traces.  Solver diagnostics live in ``info``.
    """

    control: ControlSignal
    times: np.ndarray
    moments: np.ndarray
    residuals: np.ndarray
    cost: float
    converged: bool = True
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LQSetup:
    """Fixed-endpoint LQ tracking data: control weight and boundary moments."""

    R: np.ndarray
    m_start: np.ndarray
    m_end: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "m_start", np.asarray(self.m_start, dtype=float))
        object.__setattr__(self, "m_end", np.asarray(self.m_end, dtype=float))
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        if np.any(np.abs(R - R.T) > 1e-12):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ValueError("R must be positive definite")


def _check_labeled_reference(sys: LinearMomentSystem, ref: MomentReference) -> None:
    """The moment system is written in labeled density moments of order q, so
    an LQ reference must be too; otherwise raise :class:`ConfigError`."""
    if ref.basis != MONOMIAL_PARAM or ref.order != sys.q:
        raise ConfigError(f"the moment system needs a {MONOMIAL_PARAM} reference of order "
                          f"{sys.q}; this one is {ref.basis} of order {ref.order}")


def exact_tracking_feedback(
    sys: LinearMomentSystem, ref: MomentReference, m0, dt: float
) -> TrackingResult:
    """Closed-loop integration of the pointwise least-norm tracking law
    u(t) = H^+ (dm*/dt - L m).

    With as many independent input channels as tracked moment components the
    feedback reproduces the reference up to integrator noise; otherwise the
    component of the required drive outside the range of H persists as a
    structural residual, which is reported rather than hidden.
    """
    _check_labeled_reference(sys, ref)
    m = np.asarray(m0, dtype=float)
    if m.shape != (sys.q + 1,):
        raise ValueError(f"initial moments must have length {sys.q + 1}")
    n_steps = _steps_per_interval(ref.span, dt)
    cond_hht = sys.h_cond**2 if sys.p >= sys.q + 1 else np.inf
    if cond_hht > 1e14:
        warnings.warn(
            f"H H' condition {cond_hht:.3g} exceeds 1e14; using pseudo-inverse feedback",
            SolverWarning,
            stacklevel=2,
        )
    Hp = np.linalg.pinv(sys.H, rcond=1e-12)

    # the closed loop is LTI: dm/dt = (L - H H^+ L) m + H H^+ dm*/dt
    t0 = float(ref.time_grid[0])
    dm_half = ref.derivative(t0 + np.arange(2 * n_steps + 1) * dt / 2)
    times = t0 + dt * np.arange(n_steps + 1)
    m_ref = ref.value(times).real
    P = sys.H @ Hp
    moments = _rk4_affine(sys.L - P @ sys.L, m, dm_half @ P.T, dt)
    bad = ~np.all(np.isfinite(moments), axis=1)
    if bad.any():
        raise SolverError(f"non-finite moments at t={times[np.argmax(bad)]:.6g}")
    controls = (dm_half[:-1:2] - moments[:-1] @ sys.L.T) @ Hp.T
    residuals = np.linalg.norm(moments - m_ref, axis=1)
    cost = float(np.trapezoid(residuals**2, times))
    control = ControlSignal(times, controls)
    return TrackingResult(
        control,
        times,
        moments,
        residuals,
        cost,
        info={"hht_condition": cond_hht},
    )


def _hamiltonian_matrix(sys: LinearMomentSystem, R: np.ndarray) -> np.ndarray:
    n = sys.q + 1
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = sys.L
    A[:n, n:] = -0.5 * sys.H @ np.linalg.solve(R, sys.H.T)
    A[n:, :n] = -2.0 * np.eye(n)
    A[n:, n:] = -sys.L.T
    return A


def _tpbvp_forcing(ref: MomentReference, n_steps, dt, dtype=np.float64):
    """Costate forcing 2 m*(t) on the half-step grid, evaluated in ``dtype``."""
    n = ref.order + 1
    times = ref.time_grid[0] + np.arange(2 * n_steps + 1, dtype=dtype) * dtype(dt) / 2
    out = np.zeros((2 * n_steps + 1, 2 * n), dtype=dtype)
    out[:, n:] = 2 * ref.value(times)
    return out


# longdouble refinement passes of the TPBVP initial costate; the best is kept
REFINEMENT_PASSES = 8


def lq_tracking_tpbvp(
    sys: LinearMomentSystem,
    ref: MomentReference,
    setup: LQSetup,
    dt: float,
) -> TrackingResult:
    """Fixed-endpoint LQ moment tracking solved by superposition.

    The state-costate system is linear, and so is its RK4 run in the initial
    costate: the trajectory from (m_start, lambda0) is the particular run
    from (m_start, 0) plus sum_k lambda0_k times the homogeneous run of the
    k-th unit costate.  Both runs are made once, in extended precision; the
    unit runs' endpoint moments form the boundary-matching matrix.  Because
    that matrix is ill conditioned when inputs are few, lambda0 is found by
    ``REFINEMENT_PASSES`` rounds of iterative refinement from zero, each an
    extended-precision endpoint residual and a float64 least-squares
    correction, and the best iterate is kept.
    """
    _check_labeled_reference(sys, ref)
    if setup.R.shape[0] != sys.p:
        raise ValueError("R must be p x p")
    n = sys.q + 1
    if setup.m_start.shape != (n,) or setup.m_end.shape != (n,):
        raise ValueError(f"boundary moments must have length {n}")
    n_steps = _steps_per_interval(ref.span, dt)

    # the costate is large, and float64 rounding of the runs alone moves the
    # endpoint by ~1e-9, so both runs and the superposition are longdouble
    A = _hamiltonian_matrix(sys, setup.R)
    fld = _tpbvp_forcing(ref, n_steps, dt, dtype=np.longdouble)
    times = float(ref.time_grid[0]) + dt * np.arange(n_steps + 1)
    # the matching solve reads the float64 image of the runs' last rows; an
    # overflow there, in longdouble or in the cast, is reported with its instant
    with np.errstate(over="ignore", invalid="ignore"):
        part = _rk4_affine(A, np.concatenate([setup.m_start, np.zeros(n)]), fld, dt,
                           np.longdouble)
        unit = _rk4_affine(A, np.hstack([np.zeros((n, n)), np.eye(n)]), np.zeros_like(fld), dt,
                           np.longdouble)  # (n, n_steps+1, 2n)
        for name, run in (("particular", part), ("unit-costate", unit)):
            if not np.isfinite(run[..., -1, :].astype(np.float64)).all():
                ok = np.isfinite(run.astype(np.float64)).reshape(-1, n_steps + 1, 2 * n)
                raise SolverError(f"non-finite {name} state/costate run at "
                                  f"t={times[np.argmin(ok.all(axis=(0, 2)))]:.6g}")
    match_ld = unit[:, -1, :n].T
    match = match_ld.astype(np.float64)
    sv = np.linalg.svd(match, compute_uv=False)
    # ill conditioning up to ~1/eps is handled by the refinement passes below;
    # only a machine-rank deficiency marks a genuinely unreachable endpoint
    rank = int(np.sum(sv > 2 * n * np.finfo(float).eps * sv[0]))
    if rank < n:
        raise SolverError(
            f"boundary matching matrix is singular (rank {rank} of {n}); "
            "the requested endpoint is unreachable within this truncation"
        )
    cond_match = float(sv[0] / sv[-1])

    lam0 = np.zeros(n, dtype=np.longdouble)
    best = (np.inf, lam0)
    for _ in range(REFINEMENT_PASSES):
        resid = (setup.m_end - part[-1, :n] - match_ld @ lam0).astype(np.float64)
        rnorm = float(np.linalg.norm(resid))
        if rnorm < best[0]:
            best = (rnorm, lam0)
        lam0 = lam0 + np.linalg.lstsq(match, resid, rcond=None)[0]
    boundary_end, lam0 = best

    traj = (part + np.einsum("k,kij->ij", lam0, unit)).astype(np.float64)
    moments = traj[:, :n]
    lam = traj[:, n:]
    u = -0.5 * np.linalg.solve(setup.R, sys.H.T @ lam.T).T
    m_ref = (fld[::2, n:] / 2).astype(np.float64)
    residuals = np.linalg.norm(moments - m_ref, axis=1)
    energy = np.einsum("ij,jk,ik->i", u, setup.R, u)
    cost = float(np.trapezoid(residuals**2 + energy, times))
    control = ControlSignal(times, u[:-1])
    return TrackingResult(
        control,
        times,
        moments,
        residuals,
        cost,
        info={
            "lambda_trace": lam,
            "boundary_residual_start": 0.0,
            "boundary_residual_end": boundary_end,
            "matching_condition": cond_match,
        },
    )


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) in X's dtype by scaling and squaring (Moler & Van Loan 2003):
    X / 2^s has 1-norm at most 1/2, where the degree-18 Taylor polynomial is
    within 2e-23 of the exponential, and s squarings undo the scaling.  A
    Pade form (Higham 2005) would need a linear solve, which NumPy does not
    offer in longdouble."""
    norm = float(np.abs(X).sum(axis=0).max())
    s = max(0, int(np.ceil(np.log2(2 * norm)))) if norm > 0 else 0
    X = X / X.dtype.type(2) ** s
    term = E = np.eye(X.shape[0], dtype=X.dtype)
    for j in range(1, 19):
        term = term @ X / j
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def tpbvp_ode_residual(sys: LinearMomentSystem, ref: MomentReference, setup: LQSetup,
                       result: TrackingResult) -> float:
    """Scale-normalized defect of the returned trajectory against the exact
    solution of the same state/costate ODE from its initial point.

    The reference moments of a transport plan are polynomials of degree q in
    the stage s, m(s) = C [s^0 .. s^q] (:func:`transport._path_coefficients`),
    so appending the monomials, with d(s^j)/dt = j s^(j-1) / span, makes the
    forced system homogeneous: dw/dt = A_hat w (Van Loan 1978).  One step
    exponential of A_hat then carries w from instant to instant, in
    longdouble.  The costate components are orders of magnitude larger than
    the moment components, so each block is measured on its own scale: the
    defect is the larger of the moment block's sup-norm defect over max|m|
    and the costate block's over max|lambda| (each scale at least 1).  A
    reference without a plan has no polynomial path and raises
    :class:`ConfigError`.
    """
    _check_labeled_reference(sys, ref)
    if ref.plan is None:
        raise ConfigError("the ODE defect needs a plan-backed reference; this one is a table")
    n = sys.q + 1
    ld = np.longdouble
    A_hat = np.zeros((3 * n, 3 * n), dtype=ld)
    A_hat[: 2 * n, : 2 * n] = _hamiltonian_matrix(sys, setup.R)
    A_hat[n : 2 * n, 2 * n :] = 2 * _path_coefficients(ref.plan, sys.q, ld)
    j = np.arange(1, n)
    A_hat[2 * n + j, 2 * n + j - 1] = j / ld(ref.span)
    dt = ld(result.times[1] - result.times[0])
    phi = _expm(A_hat * dt)

    z = np.hstack([result.moments, result.info["lambda_trace"]])
    w = np.concatenate([z[0], np.eye(n)[0]]).astype(ld)  # the first instant is stage 0
    exact = np.empty((z.shape[0], 2 * n), dtype=ld)
    for k in range(z.shape[0]):
        exact[k] = w[: 2 * n]
        w = phi @ w
    defect = np.abs(exact - z)
    return max(float(defect[:, blk].max()) / max(1.0, float(np.abs(z[:, blk]).max()))
               for blk in (slice(0, n), slice(n, 2 * n)))


# control segments of the optimality-gap variations, and the passes of the
# projection onto the kernel of the endpoint map (repeated against roundoff)
VARIATION_INTERVALS = 25
PROJECTION_PASSES = 3
# ridge weight of the terminal-profile fit, which keeps the guessed control's energy moderate
GUESS_RIDGE = 1e-4


def _gap_grid(horizon: float, dt: float) -> tuple:
    """The optimality gap's grid for a solve at step ``dt``: the step dt/2
    and its number of steps per variation segment."""
    try:
        return dt / 2, _steps_per_interval(horizon / VARIATION_INTERVALS, dt / 2)
    except ConfigError:
        raise ConfigError(f"the optimality gap needs dt/2 to divide its {VARIATION_INTERVALS} "
                          f"variation segments; dt={dt:g} does not") from None


def tpbvp_optimality_gap(
    sys: LinearMomentSystem,
    ref: MomentReference,
    setup: LQSetup,
    result: TrackingResult,
) -> float:
    """Largest relative directional derivative of the cost over every
    endpoint-preserving control variation, in closed form.

    The cost is quadratic in a variation held on ``VARIATION_INTERVALS``
    segments, so each directional derivative is exactly an inner product with
    the cost gradient.  The moment system is linear and time invariant: a unit
    hold H e_i on segment s has the zero-state response Y_i of that hold on
    the first segment, delayed by s segments.  So p runs give the endpoint map
    E and the gradient's tracking part 2 trapezoid(e . Y_i delayed), with e the
    nominal tracking error.  The largest |v . grad| / ||v||_L2 over v in the
    kernel of E is the norm of the gradient projected onto that kernel, over
    the L2 weight sqrt(segment length); it is normalized by the cost scale.
    Verification runs at half the solver step to keep discretization bias
    below the threshold.
    """
    _check_labeled_reference(sys, ref)
    n = sys.q + 1
    horizon = float(result.times[-1] - result.times[0])
    dt_v, per = _gap_grid(horizon, float(result.times[1] - result.times[0]))
    n_steps = VARIATION_INTERVALS * per
    starts = per * np.arange(VARIATION_INTERVALS)

    # nominal control on the quarter grid of the solver (= half grid of dt_v)
    f_q = _tpbvp_forcing(ref, 2 * n_steps, dt_v / 2)
    z0 = np.concatenate([setup.m_start, result.info["lambda_trace"][0]])
    z_fine = _rk4_affine(_hamiltonian_matrix(sys, setup.R), z0, f_q, dt_v / 2)
    u_nom = -0.5 * np.linalg.solve(setup.R, sys.H.T @ z_fine[:, n:].T).T  # (2*n_steps+1, p)
    m_ref = f_q[::4, n:] / 2  # m* at k dt_v, row 4k of the forcing: 4k (dt_v / 4) = k dt_v
    e = _rk4_affine(sys.L, setup.m_start, u_nom @ sys.H.T, dt_v) - m_ref

    # every stage of a step uses the step's owning segment (zero-order hold)
    first = np.zeros((sys.p, VARIATION_INTERVALS, n))
    first[:, 0] = sys.H.T
    Y = _rk4_affine(sys.L, np.zeros(n), np.zeros((2 * n_steps + 1, n)), dt_v,
                    hold=first, per=per)  # (p, n_steps+1, n)
    E = Y[:, n_steps - starts].transpose(1, 0, 2).reshape(-1, n).T  # column s*p + i

    # the energy integrand jumps where the variation switches, so it is
    # integrated segment by segment; the tracking integrand integrates globally
    useg = u_nom[::2][starts[:, None] + np.arange(per + 1)]  # (segments, per+1, p)
    J0 = (np.trapezoid(np.sum(e * e, axis=1), dx=dt_v)
          + np.trapezoid(np.einsum("sij,jk,sik->si", useg, setup.R, useg), dx=dt_v).sum())
    track = [np.trapezoid(np.einsum("kj,ikj->ik", e[k:], Y[:, : n_steps + 1 - k]), dx=dt_v)
             for k in starts]
    grad = 2 * (np.array(track) + np.trapezoid(useg @ setup.R, dx=dt_v, axis=1)).ravel()

    g = grad
    for _ in range(PROJECTION_PASSES):
        g = g - E.T @ np.linalg.lstsq(E @ E.T, E @ g, rcond=None)[0]
    return float(np.linalg.norm(g) / np.sqrt(horizon / VARIATION_INTERVALS) / max(1.0, abs(J0)))


def _shooting_objective(model, grid, x0, basis, q, m_ref, u, horizon, dt, energy_weight,
                        record=None):
    """The discrete shooting objective at the control ``u`` (n_intervals, p)
    and its exact gradient: one forward RK4 run of
    :func:`_simulate_segments_batch` (for Kuramoto it fills ``record``, from
    :func:`_adjoint_record`, allocated here when none is passed, with every
    stage's cos x, sin x and mean-field sums), the cotangents of the boundary
    moments through d_M and the trapezoid weights, then one reverse sweep
    through the same segments (:func:`_segments_pullback`), which reads the
    record before this call returns.  Returns ``(J, g, mom)`` with the
    boundary moments ``mom`` of that run; a non-finite forward run, cost or
    gradient raises :class:`SolverError`."""
    n_int = u.shape[0]
    h = horizon / n_int
    per = _steps_per_interval(h, dt)
    if record is None:
        record = _adjoint_record(model, grid, n_int, per)
    bounds = _simulate_segments_batch(model, x0, grid, u[None], horizon, dt, record=record)[0]
    trap = np.full(n_int + 1, h)
    trap[[0, -1]] = h / 2
    mom = member_moments(bounds, grid, basis, q)
    with np.errstate(over="ignore"):  # an overflow is caught as a non-finite J
        J = float(trap @ moment_metric_values(mom, m_ref)) \
            + energy_weight * h * float((u**2).sum())
    if not np.isfinite(J):
        raise SolverError("non-finite shooting cost")
    mbar = trap[:, None] * _metric_vjp(mom, m_ref)
    seeds = _member_moments_vjp(bounds, grid, basis, q, mbar)
    with np.errstate(over="ignore", invalid="ignore"):  # caught as a non-finite g
        g = _segments_pullback(model, grid, u, per, dt, record, seeds) + 2 * energy_weight * h * u
    if not np.all(np.isfinite(g)):
        raise SolverError("non-finite shooting gradient")
    return J, g, mom


def direct_shooting(
    model,
    grid: ParameterGrid,
    x0,
    ref: MomentReference,
    n_intervals: int = 50,
    energy_weight: float = 1e-3,
    iterations: int = 300,
    dt: float | None = None,
    initial_guess=None,
) -> TrackingResult:
    """Moment tracking by L-BFGS on a piecewise-constant control.

    The objective is the trapezoid quadrature of the moment-metric gap to the
    reference at the control-interval boundaries plus a quadratic energy
    term; the moments are those of the reference's basis and order, so any
    of the three bases can be tracked.  Each evaluation returns the
    objective and its exact gradient (:func:`_shooting_objective`).
    :func:`momentsteer.lbfgs.minimize` takes at most ``iterations`` steps:
    the iteration of L-BFGS-B without bounds (Byrd, Lu, Nocedal & Zhu 1995,
    SIAM J. Sci. Comput. 16(5)), with the Moré–Thuente line search (1994,
    ACM TOMS 20(3)).  No accepted step
    raises the cost, so the cost trace is monotone nonincreasing.  A trial
    control whose forward run overflows counts as cost ``inf``, and the line
    search steps back from it; a start that overflows raises
    :class:`SolverError`.  ``iterations = 0`` reports the start.

    ``info`` holds ``cost_history`` and ``grad_norm_history`` (one entry per
    accepted iterate, the start included), ``evaluations`` (objective
    evaluations), ``iterations`` (accepted steps) and ``stop_reason``:
    ``"gradient_zero"`` (the gradient is exactly zero; the only reason that
    counts as converged), ``"budget"`` (iterations used up) or
    ``"line_search"`` (no step lowered the cost, even after a restart along
    the gradient, as happens at the kinks of d_M).
    """
    horizon = float(ref.time_grid[-1] - ref.time_grid[0])
    if dt is None:
        dt = horizon / n_intervals / 10
    p = model.n_inputs
    x0 = np.asarray(x0, dtype=float)
    nodes_t = np.linspace(0.0, horizon, n_intervals + 1) + float(ref.time_grid[0])
    m_ref = ref.value(nodes_t)

    if initial_guess is None:
        u = np.zeros((n_intervals, p))
    else:
        u = np.array(initial_guess, dtype=float).reshape(n_intervals, p)

    evaluations = []  # (J, |g|, control, boundary moments) of every objective evaluation
    # one record for every evaluation of this run, dropped on return, before
    # the caller replays the control: reused blocks are not faulted in anew
    record = _adjoint_record(model, grid, n_intervals,
                             _steps_per_interval(horizon / n_intervals, dt))

    def objective(v):
        try:
            J, g, mom = _shooting_objective(model, grid, x0, ref.basis, ref.order, m_ref,
                                            v.reshape(n_intervals, p), horizon, dt,
                                            energy_weight, record)
        except SolverError as exc:
            if not evaluations:
                raise SolverError(f"initial control: {exc}") from None
            J, g, mom = np.inf, np.zeros((n_intervals, p)), None
        scale = float(np.abs(g).max())  # the norm of g / max|g| cannot overflow
        norm = scale * float(np.linalg.norm(g / scale)) if scale > 0 else 0.0
        evaluations.append((J, norm, v.reshape(n_intervals, p).copy(), mom))
        return J, g.ravel()

    accepted, stop_reason = lbfgs.minimize(objective, u.ravel(), iterations)
    history = [evaluations[i] for i in accepted]

    # the accepted iterate's own forward run gives the reported moments
    J, _, u, mom = history[-1]
    return TrackingResult(
        ControlSignal(nodes_t, u),
        nodes_t,
        mom,
        moment_metric_values(mom, m_ref),
        J,
        converged=stop_reason == "gradient_zero",
        info={
            "cost_history": np.array([e[0] for e in history]),
            "grad_norm_history": np.array([e[1] for e in history]),
            "evaluations": len(evaluations),
            "iterations": len(accepted) - 1,
            "stop_reason": stop_reason,
        },
    )


def tracking_cost(
    trace: MomentTrace,
    ref: MomentReference,
    control: ControlSignal | None = None,
    energy_weight: float = 0.0,
) -> float:
    """Trapezoid quadrature of the moment metric d_M between trace and
    reference, plus an optional quadratic control-energy term for
    piecewise-constant controls."""
    times = trace.times
    if times.size != ref.time_grid.size or np.max(np.abs(times - ref.time_grid)) > 1e-9:
        raise ValueError("trace and reference time grids must coincide")
    if trace.basis != ref.basis:
        raise ValueError(f"trace basis {trace.basis} differs from reference basis {ref.basis}")
    total = float(np.trapezoid(moment_metric_values(trace.values, ref.m_star), times))
    if control is not None and energy_weight != 0.0:
        seg = control.horizon / control.values.shape[0]
        total += energy_weight * float(np.sum(control.values**2) * seg)
    return total


def terminal_profile_guess(
    model: LinearScalar,
    grid: ParameterGrid,
    x0,
    target_profile,
    horizon: float,
    n_intervals: int,
) -> np.ndarray:
    """Initial control for shooting on the linear family: ridge fit of the
    closed-form terminal response to the desired final member profile.

    The final state is affine in the piecewise-constant control, with
    channel responses beta^(i-1) (e^{(T-a) beta} - e^{(T-b) beta}) / beta per
    interval [a, b]; fitting those responses to ``target - e^{T beta} x0``
    gives a moderate-energy control whose endpoint is already close.
    """
    beta = grid.nodes
    x0 = np.asarray(x0, dtype=float)
    target = np.asarray(target_profile, dtype=float)
    edges = np.linspace(0.0, horizon, n_intervals + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = (np.exp((horizon - edges[:-1]) * beta) - np.exp((horizon - edges[1:]) * beta)) / beta
    seg[:, np.abs(beta) < 1e-12] = np.diff(edges, axis=0)
    cols = seg.T[:, :, None] * beta[:, None, None] ** np.arange(model.n_inputs)
    cols = cols.reshape(beta.size, -1)  # column s*p + i: beta^i * seg over interval s
    resid = target - np.exp(horizon * beta) * x0
    gram = cols.T @ cols + GUESS_RIDGE * np.eye(cols.shape[1])
    return np.linalg.solve(gram, cols.T @ resid).reshape(n_intervals, model.n_inputs)
