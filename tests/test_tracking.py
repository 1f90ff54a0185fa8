import warnings

import numpy as np
import pytest

from momentsteer import (
    ConfigError,
    ControlSignal,
    EmpiricalMeasure,
    Kuramoto,
    LinearScalar,
    LQSetup,
    MONOMIAL_OUTPUT,
    MONOMIAL_PARAM,
    FOURIER,
    MomentReference,
    SolverError,
    SolverWarning,
    TrackingResult,
    build_linear_moment_system,
    circular_plan,
    direct_shooting,
    exact_tracking_feedback,
    lq_tracking_tpbvp,
    make_uniform_grid,
    mccann_plan,
    moment_trajectory,
    ot_moment_reference,
    simulate,
    terminal_profile_guess,
    tpbvp_ode_residual,
    tpbvp_optimality_gap,
    tracking_cost,
    truncated_gaussian,
    truncated_gaussian_mixture,
)
from momentsteer.ensembles import Trajectory
from momentsteer.moment_systems import MomentTrace


def _case_one_reference(q, n_steps, horizon=1.0):
    plan = mccann_plan(
        truncated_gaussian(0.5, 1 / np.sqrt(50)),
        truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2, [0.5, 0.5]),
    )
    tgrid = np.linspace(0.0, horizon, n_steps + 1)
    return ot_moment_reference(plan, MONOMIAL_PARAM, q, tgrid)


# -------------------------------------------------------- min-norm feedback

def test_exact_feedback_full_row_rank_tracks_to_noise():
    q, p, dt = 4, 5, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
    assert res.residuals.max() <= 1e-8
    assert res.info["hht_condition"] < 1e14  # square case still solvable directly


def test_exact_feedback_rank_defect_reports_residual():
    # one fewer input channel than tracked components: the drive required by
    # the reference has a component outside range(H), which shows up as a
    # structural residual instead of being silently absorbed
    q, p, dt = 4, 4, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    with pytest.warns(SolverWarning):
        res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
    assert res.residuals.max() > 1e-6  # honest gap, not integrator noise
    assert res.cost == pytest.approx(np.trapezoid(res.residuals**2, res.times))


def test_exact_feedback_constant_reachable_reference():
    q, p, dt = 4, 5, 1e-3
    sys_ = build_linear_moment_system(q, p)
    m_eq = 1.0 / (np.arange(q + 1) + 1)
    tgrid = np.arange(0, 501) * (dt / 2)
    table = np.tile(m_eq, (tgrid.size, 1))
    ref = MomentReference(tgrid, table, np.zeros_like(table), MONOMIAL_PARAM)
    res = exact_tracking_feedback(sys_, ref, m_eq.copy(), dt)
    assert res.residuals.max() <= 1e-9
    u_expect = np.linalg.pinv(sys_.H, rcond=1e-12) @ (-sys_.L @ m_eq)
    np.testing.assert_allclose(
        res.control.values, np.tile(u_expect, (res.control.values.shape[0], 1)), atol=1e-8)


def test_exact_feedback_free_reference_needs_no_control():
    # reference = free flow of the moment system itself (u = 0); the
    # minimum-norm preimage of zero is zero
    q, p, dt = 4, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    m0 = 1.0 / (np.arange(q + 1) + 1)
    tgrid = np.arange(0, 1001) * (dt / 2)
    # closed form through the nilpotent exponential
    from math import factorial

    powers = [np.linalg.matrix_power(sys_.L, j) / factorial(j) for j in range(q + 1)]
    table = np.array([sum(t**j * (P @ m0) for j, P in enumerate(powers)) for t in tgrid])
    rate = np.array([table[i] @ sys_.L.T for i in range(tgrid.size)])
    ref = MomentReference(tgrid, table, rate, MONOMIAL_PARAM)
    with pytest.warns(SolverWarning):  # p < q+1: pseudo-inverse fallback engages
        res = exact_tracking_feedback(sys_, ref, m0.copy(), dt)
    assert np.abs(res.control.values).max() <= 1e-8
    assert res.residuals.max() <= 1e-9


# ------------------------------------------------------------------- TPBVP

def test_tpbvp_zero_problem():
    q, p, dt = 3, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    tgrid = np.arange(0, 1001) * (dt / 2)
    zeros = np.zeros((tgrid.size, q + 1))
    ref = MomentReference(tgrid, zeros, zeros.copy(), MONOMIAL_PARAM)
    setup = LQSetup(np.eye(p), np.zeros(q + 1), np.zeros(q + 1))
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    assert np.abs(res.control.values).max() <= 1e-12
    assert np.abs(res.info["lambda_trace"]).max() <= 1e-12
    assert res.cost <= 1e-15


def test_tpbvp_small_case_boundaries_and_residual():
    q, p, dt = 3, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    assert np.linalg.norm(res.moments[0] - setup.m_start) == 0.0
    assert np.linalg.norm(res.moments[-1] - setup.m_end) <= 1e-8
    assert res.info["boundary_residual_end"] <= 1e-8
    assert tpbvp_ode_residual(sys_, ref, setup, res) <= 1e-8
    u_full = -0.5 * (res.info["lambda_trace"] @ sys_.H) @ np.linalg.inv(setup.R)
    energy = np.einsum("ij,jk,ik->i", u_full, setup.R, u_full)
    assert res.cost == pytest.approx(
        np.trapezoid(res.residuals**2 + energy, res.times), rel=1e-9)


@pytest.mark.parametrize("means, weights", [
    ([0.25087991312720764, 0.7503049050141396], [0.4975272886737998, 0.5024727113262002]),
    ([0.24962315658447962, 0.7508427657437207], [0.49913254821888914, 0.5008674517811109]),
    ([0.25080833058992275, 0.7490938187021705], [0.5024309919794502, 0.4975690080205498]),
])
def test_tpbvp_refinement_meets_boundary_bound_near_shipped_target(means, weights):
    # targets a hair away from the shipped fixed-endpoint scenario, on which
    # refining a float64 initial costate stopped above the shipped 1e-8 bound
    q, p, dt = 8, 4, 1e-3
    sys_ = build_linear_moment_system(q, p)
    sigma = 1 / np.sqrt(50)
    plan = mccann_plan(truncated_gaussian(0.5, sigma),
                       truncated_gaussian_mixture(means, [sigma, sigma], weights))
    ref = ot_moment_reference(plan, MONOMIAL_PARAM, q, np.linspace(0.0, 1.0, 1001))
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    assert res.info["boundary_residual_end"] <= 1e-8
    assert np.linalg.norm(res.moments[-1] - setup.m_end) <= 1e-8


def test_tpbvp_superposition_equals_direct_run():
    # the returned trajectory is the particular run plus the unit-costate runs
    # weighted by lambda0; a direct longdouble run from (m_start, lambda0)
    # must give the same trajectory.  lambda0 is returned rounded to float64
    # (the first row of the costate trace) and reaches ~4e8 here, so compare
    # trajectories, not endpoints
    from momentsteer.moment_systems import _rk4_affine
    from momentsteer.tracking import _hamiltonian_matrix, _tpbvp_forcing

    q, p, dt = 8, 4, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    fld = _tpbvp_forcing(ref, res.times.size - 1, dt, dtype=np.longdouble)
    z0 = np.concatenate([setup.m_start, res.info["lambda_trace"][0]])
    direct = _rk4_affine(_hamiltonian_matrix(sys_, setup.R), z0, fld, dt, np.longdouble)
    superposed = np.hstack([res.moments, res.info["lambda_trace"]])
    scale = float(np.abs(superposed).max())
    assert float(np.abs(direct - superposed).max()) <= 1e-14 * scale


def _ode_residual_oracle(sys_, setup, ref, result):
    # the slow path the exact defect replaced: DOP853 on the forced
    # state/costate ODE, evaluating the reference at every stage.  Its former
    # atol of 1e-10 left an own error of 1.9e-13 on the q = 3 case, so the
    # oracle runs at atol 1e-13
    from scipy.integrate import solve_ivp

    from momentsteer.tracking import _hamiltonian_matrix

    n = sys_.q + 1
    A = _hamiltonian_matrix(sys_, setup.R)
    z = np.hstack([result.moments, result.info["lambda_trace"]])

    def rhs(t, zz):
        f = np.zeros(2 * n)
        f[n:] = 2 * ref.value(t).real
        return A @ zz + f

    sol = solve_ivp(rhs, (result.times[0], result.times[-1]), z[0], method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=result.times)
    assert sol.success
    defect = np.abs(sol.y.T - z)
    return max(defect[:, blk].max() / max(1.0, np.abs(z[:, blk]).max())
               for blk in (slice(0, n), slice(n, 2 * n)))


@pytest.fixture(scope="module", params=[(3, 2), (8, 4)], ids=["q3", "q8"])
def tpbvp_case(request):
    # q = 8, p = 4 on this reference is criterion 2's problem
    q, p = request.param
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    return sys_, ref, setup, lq_tracking_tpbvp(sys_, ref, setup, 1e-3)


def test_ode_residual_matches_dop853_oracle(tpbvp_case):
    # each block on its own scale: the moment block carries RK4's error of
    # the solve (2.3e-9 on q = 8), which the costate's scale, up to 7e8,
    # would hide.  The oracle's own error in the moment block, driven by the
    # costate at DOP853's rtol of 1e-13, is 6.7e-11 of max|m| on q = 8
    sys_, ref, setup, res = tpbvp_case
    exact = tpbvp_ode_residual(sys_, ref, setup, res)
    assert exact <= 1e-8
    assert abs(exact - _ode_residual_oracle(sys_, setup, ref, res)) <= 1e-10


@pytest.mark.parametrize("corruption", ["moments+1e-6", "moments+1e-3", "costate*1.5"])
def test_ode_residual_fails_corrupted_trajectory(tpbvp_case, corruption):
    # a wrong moment trajectory on 200 of the 1001 instants, or a wrong
    # costate, must fail the bound of 1e-8
    sys_, ref, setup, res = tpbvp_case
    moments, lam = res.moments.copy(), res.info["lambda_trace"]
    if corruption == "costate*1.5":
        lam = 1.5 * lam
    else:
        moments[400:600] += float(corruption.split("+")[1])
    bent = TrackingResult(res.control, res.times, moments, res.residuals, res.cost,
                          info={**res.info, "lambda_trace": lam})
    assert tpbvp_ode_residual(sys_, ref, setup, bent) > 1e-8


def test_ode_residual_detects_perturbed_costate(tpbvp_case):
    sys_, ref, setup, res = tpbvp_case
    lam = res.info["lambda_trace"].copy()
    lam[500:] *= 1 + 1e-6
    bent = TrackingResult(res.control, res.times, res.moments, res.residuals, res.cost,
                          info={**res.info, "lambda_trace": lam})
    exact = tpbvp_ode_residual(sys_, ref, setup, bent)
    oracle = _ode_residual_oracle(sys_, setup, ref, bent)
    assert exact > 1e-8 and oracle > 1e-8
    assert exact == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_expm_scaling_and_squaring(dtype):
    from scipy.linalg import expm

    from momentsteer.tracking import _expm

    # a rotation generator of norm 20 takes five squarings; its exponential
    # is known in closed form
    theta = 10.0
    got = _expm(np.array([[0.0, -theta], [theta, 0.0]], dtype=dtype))
    assert got.dtype == np.dtype(dtype)
    want = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    np.testing.assert_allclose(got.astype(float), want, rtol=0, atol=1e-14)
    X = np.random.default_rng(5).standard_normal((7, 7))
    np.testing.assert_allclose(_expm(X.astype(dtype)).astype(float), expm(X), rtol=1e-12)
    assert np.array_equal(_expm(np.zeros((3, 3), dtype=dtype)), np.eye(3))


def test_ode_residual_needs_polynomial_reference():
    q, p, dt = 3, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    table = MomentReference(ref.time_grid, ref.m_star, ref.dm_star, MONOMIAL_PARAM)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, table, setup, dt)
    with pytest.raises(ConfigError, match="plan-backed"):
        tpbvp_ode_residual(sys_, table, setup, res)
    phases = EmpiricalMeasure(np.array([0.3, 1.2, 2.0]), np.full(3, 1 / 3))
    fourier = ot_moment_reference(circular_plan(phases, 1.0), FOURIER, q, ref.time_grid)
    with pytest.raises(ConfigError, match="this one is fourier of order 3"):
        tpbvp_ode_residual(sys_, fourier, setup, res)


def _output_reference(q, n_steps):
    """The plan of :func:`_case_one_reference` in the monomial_output basis."""
    labeled = _case_one_reference(q, n_steps)
    return ot_moment_reference(labeled.plan, MONOMIAL_OUTPUT, q, labeled.time_grid)


_LQ_CALLS = {
    "exact": lambda sys_, ref, setup, res: exact_tracking_feedback(sys_, ref, setup.m_start, 1e-3),
    "tpbvp": lambda sys_, ref, setup, res: lq_tracking_tpbvp(sys_, ref, setup, 1e-3),
    "ode_residual": tpbvp_ode_residual,
    "optimality_gap": tpbvp_optimality_gap,
}


@pytest.mark.parametrize("call", _LQ_CALLS)
def test_lq_functions_reject_output_reference(call):
    # the moment system is written in labeled density moments; power moments
    # of the output measure are another coordinate system, not a wrong value
    q, p = 3, 2
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, 1e-3)
    with pytest.raises(ConfigError, match="needs a monomial_param reference of order 3; "
                                          "this one is monomial_output of order 3"):
        _LQ_CALLS[call](sys_, _output_reference(q, 1000), setup, res)


@pytest.mark.parametrize("call", ["exact", "tpbvp"])
def test_lq_solvers_reject_reference_of_another_order(call):
    q, p = 3, 2
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q + 1, 1000)
    setup = LQSetup(np.eye(p), np.zeros(q + 1), np.zeros(q + 1))
    with pytest.raises(ConfigError, match="of order 3; this one is monomial_param of order 4"):
        _LQ_CALLS[call](sys_, ref, setup, None)


def test_tpbvp_first_order_optimality_small_case():
    q, p, dt = 3, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    gap = tpbvp_optimality_gap(sys_, ref, setup, res)
    assert gap <= 1e-6


def test_tpbvp_optimality_gap_names_the_solver_step():
    # dt = 0.0125 divides the horizon, but the gap runs at dt/2, which does
    # not divide its 25 variation segments of 0.04; the error names the dt
    # of the solve, not the half step
    q, p, dt = 3, 2, 0.0125
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 80)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    with pytest.raises(ConfigError, match=r"the optimality gap needs dt/2 to divide its 25 "
                                          r"variation segments; dt=0\.0125 does not$"):
        tpbvp_optimality_gap(sys_, ref, setup, res)


def _optimality_gap_oracle(sys_, ref, setup, result, n_variations=10, seed=0):
    """The gap by brute force, as ``(worst, sampled)``.  The endpoint map
    comes from one run per unit hold (segment, channel), and every cost from
    one batch of runs.  ``worst`` takes the cost gradient as the central
    differences (J(u + e_j) - J(u - e_j)) / 2 on every unit hold, exact for a
    quadratic cost, projects it onto the kernel of the endpoint map and
    normalizes its L2 norm.  ``sampled`` is the largest central difference
    over ``n_variations`` seeded random directions in that kernel, which
    bounds ``worst`` from below."""
    from momentsteer.ensembles import _steps_per_interval
    from momentsteer.moment_systems import _rk4_affine
    from momentsteer.tracking import (PROJECTION_PASSES, VARIATION_INTERVALS,
                                      _hamiltonian_matrix, _tpbvp_forcing)

    n, p = sys_.q + 1, sys_.p
    dt_v = float(result.times[1] - result.times[0]) / 2
    horizon = float(result.times[-1] - result.times[0])
    n_steps = _steps_per_interval(horizon, dt_v)
    per = _steps_per_interval(horizon / VARIATION_INTERVALS, dt_v)
    f_q = _tpbvp_forcing(ref, 2 * n_steps, dt_v / 2)
    z_fine = _rk4_affine(_hamiltonian_matrix(sys_, setup.R),
                         np.concatenate([setup.m_start, result.info["lambda_trace"][0]]), f_q,
                         dt_v / 2)
    u_nom = -0.5 * np.linalg.solve(setup.R, sys_.H.T @ z_fine[:, n:].T).T
    drive = u_nom @ sys_.H.T
    m_ref = ref.value(result.times[0] + dt_v * np.arange(n_steps + 1)).real

    nv = VARIATION_INTERVALS * p
    basis = np.eye(nv).reshape(nv, VARIATION_INTERVALS, p)
    E = _rk4_affine(sys_.L, np.zeros(n), np.zeros_like(drive), dt_v,
                    hold=basis @ sys_.H.T, per=per)[:, -1].T
    v = np.random.default_rng(seed).standard_normal((n_variations, nv))
    for _ in range(PROJECTION_PASSES):
        v = v - np.linalg.lstsq(E @ E.T, E @ v.T, rcond=None)[0].T @ E
    du = v.reshape(n_variations, VARIATION_INTERVALS, p)
    batch = np.concatenate([np.zeros((1, VARIATION_INTERVALS, p)), basis, -basis, du, -du])

    m = _rk4_affine(sys_.L, setup.m_start, drive, dt_v, hold=batch @ sys_.H.T, per=per)
    e = m - m_ref
    track = np.trapezoid(np.einsum("bij,bij->bi", e, e), dx=dt_v, axis=1)
    nodes = per * np.arange(VARIATION_INTERVALS)[:, None] + np.arange(per + 1)
    useg = u_nom[::2][nodes] + batch[:, :, None, :]
    integrand = np.einsum("bsij,jk,bsik->bsi", useg, setup.R, useg)
    J = track + np.trapezoid(integrand, dx=dt_v, axis=-1).sum(axis=1)
    scale = max(1.0, abs(J[0]))
    J_unit, J_var = J[1 : 2 * nv + 1], J[2 * nv + 1 :]

    g = (J_unit[:nv] - J_unit[nv:]) / 2.0
    for _ in range(PROJECTION_PASSES):
        g = g - E.T @ np.linalg.lstsq(E @ E.T, E @ g, rcond=None)[0]
    worst = float(np.linalg.norm(g) / np.sqrt(horizon / VARIATION_INTERVALS) / scale)

    norm_du = np.sqrt(np.sum(du**2, axis=(1, 2)) * horizon / VARIATION_INTERVALS)
    gaps = np.abs(J_var[:n_variations] - J_var[n_variations:]) / 2.0 / (norm_du * scale)
    return worst, float(np.max(gaps))


def test_tpbvp_optimality_gap_matches_central_difference_oracle(monkeypatch):
    from momentsteer import tracking

    q, p, dt = 3, 2, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _case_one_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    gap = tpbvp_optimality_gap(sys_, ref, setup, res)
    worst, sampled = _optimality_gap_oracle(sys_, ref, setup, res)
    assert gap <= 1e-6 and worst <= 1e-6
    # the worst case over the kernel bounds every sampled direction
    assert gap >= sampled
    # checked against a doubled control weight, the R = I solution is far
    # from optimal.  The ODE defect, whose Hamiltonian comes from the weight
    # it is given, sees that directly.  The gap reruns its nominal through
    # that Hamiltonian, which makes any nominal stationary, so the R = I one
    # is patched in: the gap must see the doubled weight, and agree with
    # the oracle on a nominal whose gradient is far from zero
    doubled = LQSetup(2 * np.eye(p), setup.m_start, setup.m_end)
    assert tpbvp_ode_residual(sys_, ref, doubled, res) > 1e-8
    solved = tracking._hamiltonian_matrix(sys_, setup.R)
    monkeypatch.setattr(tracking, "_hamiltonian_matrix", lambda sys, R: solved)
    gap = tpbvp_optimality_gap(sys_, ref, doubled, res)
    worst, sampled = _optimality_gap_oracle(sys_, ref, doubled, res)
    assert gap > 1e-6
    assert gap == pytest.approx(worst, rel=1e-8)
    assert gap >= sampled


def test_tpbvp_unreachable_endpoint_raises():
    from momentsteer.moment_systems import LinearMomentSystem

    q = 2
    L = np.diag(np.ones(q), 1)
    dead = LinearMomentSystem(q, 1, L, np.zeros((q + 1, 1)), 0, np.inf)
    tgrid = np.arange(0, 101) * 5e-3
    zeros = np.zeros((tgrid.size, q + 1))
    ref = MomentReference(tgrid, zeros, zeros.copy(), MONOMIAL_PARAM)
    setup = LQSetup(np.eye(1), np.zeros(q + 1), np.ones(q + 1))
    with pytest.raises(SolverError, match="unreachable"):
        lq_tracking_tpbvp(dead, ref, setup, 1e-2)


def test_tpbvp_overflowing_unit_costate_run_raises():
    # a zero reference from m_start = 0 keeps the particular run at zero; the
    # unit costates, driven through R^-1 = 1e300, overflow in longdouble
    q, p = 3, 2
    tgrid = np.arange(0, 101) * 1e-2
    zeros = np.zeros((tgrid.size, q + 1))
    ref = MomentReference(tgrid, zeros, zeros.copy(), MONOMIAL_PARAM)
    setup = LQSetup(1e-300 * np.eye(p), np.zeros(q + 1), np.zeros(q + 1))
    with pytest.raises(SolverError, match=r"^non-finite unit-costate state/costate run at t="):
        lq_tracking_tpbvp(build_linear_moment_system(q, p), ref, setup, 1e-2)


def test_lqsetup_requires_spd_weight():
    with pytest.raises(ValueError):
        LQSetup(np.array([[1.0, 0.0], [0.0, -2.0]]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        LQSetup(np.array([[1.0, 0.7], [0.2, 1.0]]), np.zeros(3), np.zeros(3))


# ---------------------------------------------------------- direct shooting

def test_shooting_stays_at_zero_for_free_reference():
    n, q, n_int = 100, 4, 5
    g = make_uniform_grid(n, 0.0, 1.0)
    x0 = 0.5 + 0.3 * g.nodes
    model = LinearScalar(2)
    dt = 1.0 / n_int / 10
    free = simulate(model, x0, g, ControlSignal.zeros(2, 1.0, n_int), dt)
    idx = np.linspace(0, free.times.size - 1, n_int + 1).astype(int)
    table = moment_trajectory(free, MONOMIAL_OUTPUT, q).values[idx]
    tgrid = free.times[idx]
    ref = MomentReference(tgrid, table, np.zeros_like(table), MONOMIAL_OUTPUT)
    res = direct_shooting(model, g, x0, ref,
                          n_intervals=n_int, energy_weight=0.0, iterations=10)
    assert np.abs(res.control.values).max() == 0.0
    assert res.cost <= 1e-12


def test_shooting_forward_gradient_matches_central():
    # independent re-evaluation of the shooting objective, differentiated two
    # ways at a random control point
    n, q, n_int = 60, 4, 4
    g = make_uniform_grid(n, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(n) + 0.5) / n
    model = Kuramoto(coupling=1.0)
    from momentsteer import circular_plan, pushforward

    ref = ot_moment_reference(circular_plan(pushforward(g, th0), np.pi), FOURIER, q,
                              np.linspace(0, 1, n_int + 1))
    dt = 1.0 / n_int / 10
    wk = 2.0 ** (-np.arange(q + 1).astype(float))

    def objective(u):
        traj = simulate(model, th0, g, ControlSignal(ref.time_grid, u[:, None]), dt)
        idx = np.linspace(0, traj.times.size - 1, n_int + 1).astype(int)
        mom = moment_trajectory(traj, FOURIER, q).values[idx]
        gap = (wk[None, :] * np.abs(mom - ref.m_star)).sum(axis=1)
        return np.trapezoid(gap, ref.time_grid) + 1e-3 * (u**2).sum() / n_int

    rng = np.random.default_rng(0)
    u = rng.uniform(-0.5, 0.5, n_int)
    h = 1e-6
    for i in range(n_int):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        forward = (objective(up) - objective(u)) / h
        central = (objective(up) - objective(um)) / (2 * h)
        assert abs(forward - central) <= 1e-3 * max(abs(central), 1e-6)


def _shooting_case(kind):
    """A small shooting problem: (model, grid, x0, basis, q, reference)."""
    n, q, n_int = 32, 4, 4
    tgrid = np.linspace(0.0, 1.0, n_int + 1)
    if kind == "kuramoto":
        from momentsteer import circular_plan, pushforward

        g = make_uniform_grid(n, -1.0, 1.0)
        th0 = 2 * np.pi * (np.arange(n) + 0.5) / n
        ref = ot_moment_reference(circular_plan(pushforward(g, th0), np.pi), FOURIER, q, tgrid)
        return Kuramoto(coupling=1.0), g, th0, FOURIER, q, ref
    g = make_uniform_grid(n, 0.0, 1.0)
    plan = mccann_plan(
        truncated_gaussian(0.5, 1 / np.sqrt(50)),
        truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2, [0.5, 0.5]),
    )
    if kind == "output":
        x0 = 0.3 + 0.4 * (np.cumsum(g.weights) - g.weights / 2)
        return LinearScalar(), g, x0, MONOMIAL_OUTPUT, q, \
            ot_moment_reference(plan, MONOMIAL_OUTPUT, q, tgrid)
    dens = truncated_gaussian(0.5, 1 / np.sqrt(50))
    x0 = np.interp(g.nodes, dens.xs, dens.values)
    return LinearScalar(2), g, x0, MONOMIAL_PARAM, q, \
        ot_moment_reference(plan, MONOMIAL_PARAM, q, tgrid)


def _scipy_run(fun, x0, maxiter):
    """(costs of the start and each accepted iterate, evaluations, stop) of L-BFGS-B."""
    from scipy.optimize import minimize

    costs = []

    def counted(x):
        costs.append(fun(x))
        return costs[-1]

    accepted = [0]
    res = minimize(counted, x0, jac=True, method="L-BFGS-B",
                   callback=lambda _: accepted.append(len(costs) - 1),
                   options={"maxiter": maxiter, "gtol": 0.0, "ftol": 0.0})
    if res.status == 1:
        stop = "budget"
    elif res.status == 0 and not costs[accepted[-1]][1].any():
        stop = "gradient_zero"
    else:  # ended abnormally, or by a step that lowered nothing
        stop = "line_search"
    return np.array([costs[i][0] for i in accepted]), len(costs), stop


def _scipy_shooting(model, g, x0, basis, q, ref, iterations):
    """The SciPy L-BFGS-B run that ``direct_shooting`` made before: the same
    objective, with cost inf where the forward run fails."""
    from momentsteer.tracking import _shooting_objective

    n_int = ref.time_grid.size - 1
    m_ref = ref.value(ref.time_grid)

    def fun(v):
        u = v.reshape(n_int, model.n_inputs)
        try:
            J, grad, _ = _shooting_objective(model, g, x0, basis, q, m_ref, u, 1.0,
                                             1.0 / n_int / 10, 1e-3)
        except SolverError:
            return np.inf, np.zeros(v.size)
        return J, grad.ravel()

    return _scipy_run(fun, np.zeros(n_int * model.n_inputs), iterations)


@pytest.mark.parametrize("kind", ["output", "param", "kuramoto"])
def test_shooting_adjoint_gradient_matches_central_differences(kind):
    # the objective is re-evaluated independently through simulate and
    # moment_trajectory, then differentiated by central differences
    from momentsteer.tracking import _shooting_objective

    model, g, x0, basis, q, ref = _shooting_case(kind)
    n_int = ref.time_grid.size - 1
    dt, ew = 1.0 / n_int / 10, 1e-3
    wk = 2.0 ** (-np.arange(q + 1).astype(float))

    def objective(u):
        traj = simulate(model, x0, g, ControlSignal(ref.time_grid, u), dt)
        idx = np.linspace(0, traj.times.size - 1, n_int + 1).astype(int)
        mom = moment_trajectory(traj, basis, q).values[idx]
        gap = (wk[None, :] * np.abs(mom - ref.m_star)).sum(axis=1)
        return np.trapezoid(gap, ref.time_grid) + ew * (u**2).sum() / n_int

    u = np.random.default_rng(1).uniform(-0.5, 0.5, (n_int, model.n_inputs))
    J, adjoint, _ = _shooting_objective(model, g, x0, basis, q, ref.value(ref.time_grid), u,
                                     1.0, dt, ew)
    assert J == pytest.approx(objective(u), rel=1e-12)
    h = 1e-5
    central = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        central[idx] = (objective(up) - objective(um)) / (2 * h)
    np.testing.assert_allclose(adjoint, central, rtol=0, atol=1e-6 * np.abs(central).max())


def test_shooting_objective_through_one_record_equals_fresh_records():
    # u_a, u_b, u_a through one record: each forward run overwrites what the
    # previous pullback read, so nothing of one evaluation leaks into the next
    from momentsteer.ensembles import _adjoint_record
    from momentsteer.tracking import _shooting_objective

    model, g, x0, basis, q, ref = _shooting_case("kuramoto")
    n_int = ref.time_grid.size - 1
    m_ref = ref.value(ref.time_grid)
    u_a, u_b = np.random.default_rng(5).uniform(-1.0, 1.0, (2, n_int, 1))
    record = _adjoint_record(model, g, n_int, 10)
    for u in (u_a, u_b, u_a):
        J, grad, mom = _shooting_objective(model, g, x0, basis, q, m_ref, u, 1.0,
                                           1.0 / n_int / 10, 1e-3, record)
        J0, grad0, mom0 = _shooting_objective(model, g, x0, basis, q, m_ref, u, 1.0,
                                              1.0 / n_int / 10, 1e-3)
        assert J == J0
        assert grad.tobytes() == grad0.tobytes()
        assert mom.tobytes() == mom0.tobytes()


def test_direct_shooting_allocates_one_record_and_drops_it(monkeypatch):
    # one record serves every evaluation of a run, and no reference to it
    # survives the return, so the caller's replay does not hold it resident
    import weakref

    from momentsteer import ensembles, tracking

    blocks = []
    allocate = ensembles._adjoint_record

    def tracked(*args):
        record = allocate(*args)
        blocks.extend(weakref.ref(block) for block in record)
        return record

    monkeypatch.setattr(tracking, "_adjoint_record", tracked)
    model, g, x0, basis, q, ref = _shooting_case("kuramoto")
    res = direct_shooting(model, g, x0, ref, n_intervals=ref.time_grid.size - 1,
                          iterations=3)
    assert res.info["evaluations"] > 1
    assert len(blocks) == 3
    assert all(block() is None for block in blocks)


def test_shooting_objective_makes_one_forward_call_per_evaluation(monkeypatch):
    # the objective runs its forward pass itself, through tracking's binding
    # of the one forward function, once per evaluation
    from momentsteer import tracking

    calls = []
    forward = tracking._simulate_segments_batch

    def counted(*args, **kwargs):
        calls.append(args[3].shape)
        return forward(*args, **kwargs)

    monkeypatch.setattr(tracking, "_simulate_segments_batch", counted)
    model, g, x0, basis, q, ref = _shooting_case("kuramoto")
    n_int = ref.time_grid.size - 1
    res = direct_shooting(model, g, x0, ref, n_intervals=n_int, iterations=3)
    assert res.info["evaluations"] > 1
    assert calls == [(1, n_int, 1)] * res.info["evaluations"]


def test_shooting_gradient_finite_with_members_and_gaps_at_zero():
    # members exactly at 0 (no x^-1 term) and a d_M component exactly at zero
    # (the subgradient 0 is taken there): the gradient stays finite
    from momentsteer.tracking import _shooting_objective

    model, g, x0, basis, q, ref = _shooting_case("output")
    x0 = np.where(np.arange(g.size) % 3 == 0, 0.0, x0)
    m_ref = ref.value(ref.time_grid).copy()
    m_ref[:, 0] = 1.0  # 32 weights of 2^-5: the zeroth gap is exactly zero
    u = np.zeros((ref.time_grid.size - 1, 1))
    _, grad, _ = _shooting_objective(model, g, x0, basis, q, m_ref, u, 1.0, 0.025, 1e-3)
    assert np.all(np.isfinite(grad)) and np.abs(grad).max() > 0


def test_shooting_gradient_non_finite_forward_raises():
    from momentsteer.tracking import _shooting_objective

    model, g, _, basis, q, ref = _shooting_case("output")
    u = np.full((ref.time_grid.size - 1, 1), 1e308)
    # the exact RK4 state under this control alone stays finite (about
    # 1.7e308 at t = 1); started at 1e308 it overflows by t = 0.5
    x0 = np.full(g.size, 1e308)
    with pytest.raises(SolverError, match="forward run"):
        _shooting_objective(model, g, x0, basis, q, ref.value(ref.time_grid), u,
                            1.0, 0.025, 1e-3)


def test_shooting_cost_overflow_raises_without_numpy_warning():
    from momentsteer.tracking import _shooting_objective

    model, g, x0, basis, q, ref = _shooting_case("output")
    u = np.full((ref.time_grid.size - 1, 1), 1e160)  # finite states, overflowing cost
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="non-finite shooting cost"):
            _shooting_objective(model, g, x0, basis, q, ref.value(ref.time_grid), u,
                                1.0, 0.025, 1e-3)


def test_kuramoto_shooting_gradient_overflow_raises_without_numpy_warning():
    # with this coupling the forward run stays finite (phases wrap), but the
    # reverse sweep overflows: the run ends in the SolverError alone
    from momentsteer import circular_plan, pushforward

    n = 8
    g = make_uniform_grid(n, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(n) + 0.5) / n
    ref = ot_moment_reference(circular_plan(pushforward(g, th0), np.pi), FOURIER, 3,
                              np.linspace(0.0, 1.0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="initial control: non-finite shooting gradient"):
            direct_shooting(Kuramoto(coupling=1e300), g, th0, ref, n_intervals=2, dt=0.1)


def _check_history(res, iterations):
    """The info contract: one history entry per accepted iterate, start included."""
    info = res.info
    assert info["iterations"] == iterations
    assert info["cost_history"].shape == info["grad_norm_history"].shape == (iterations + 1,)
    assert info["evaluations"] >= iterations + 1
    assert np.all(np.isfinite(info["cost_history"]))
    assert np.all(np.diff(info["cost_history"]) <= 0)
    assert res.cost == pytest.approx(info["cost_history"].min(), rel=1e-12)
    assert res.converged == (info["stop_reason"] == "gradient_zero")
    assert "step_history" not in info


def test_shooting_stop_reasons():
    from momentsteer import member_moments
    from momentsteer.ensembles import _simulate_segments_batch

    # a reference the uncontrolled ensemble meets exactly: zero gradient
    n, q, n_int = 50, 3, 4
    g = make_uniform_grid(n, 0.0, 1.0)
    x0 = 0.5 + 0.3 * g.nodes
    states = _simulate_segments_batch(LinearScalar(), x0, g, np.zeros((1, n_int, 1)), 1.0,
                                      1.0 / n_int / 10)[0]
    table = member_moments(states, g, MONOMIAL_OUTPUT, q)
    ref = MomentReference(np.linspace(0.0, 1.0, n_int + 1), table, np.zeros_like(table),
                          MONOMIAL_OUTPUT)
    res = direct_shooting(LinearScalar(), g, x0, ref,
                          n_intervals=n_int, energy_weight=0.0, iterations=5)
    assert res.info["stop_reason"] == "gradient_zero" and res.converged
    assert res.info["grad_norm_history"].tolist() == [0.0]
    assert res.info["evaluations"] == 1
    _check_history(res, 0)

    # a zero budget reports the start without a step
    model, g, x0, basis, q, ref = _shooting_case("kuramoto")
    res = direct_shooting(model, g, x0, ref, n_intervals=4, iterations=0)
    assert res.info["stop_reason"] == "budget" and res.info["evaluations"] == 1
    assert np.abs(res.control.values).max() == 0.0
    _check_history(res, 0)

    # iterations used up while descent still succeeds
    res = direct_shooting(model, g, x0, ref, n_intervals=4, iterations=2)
    assert res.info["stop_reason"] == "budget" and not res.converged
    _check_history(res, 2)

    # the objective is a sum of absolute gaps; L-BFGS ends at its kinks,
    # where no step passes the line search even after a memory reset.
    # SciPy's L-BFGS-B ends there too.  Which kink depends on rounding that
    # grows along the run: this run stopped after 49 iterations, L-BFGS-B
    # after 92 (NumPy 2.4, SciPy 1.17)
    res = direct_shooting(model, g, x0, ref, n_intervals=4, iterations=400)
    assert res.info["stop_reason"] == "line_search" and not res.converged
    _check_history(res, res.info["iterations"])
    assert 0 < res.info["iterations"] < 400
    assert _scipy_shooting(model, g, x0, basis, q, ref, 400)[2] == "line_search"


def test_shooting_survives_overflowing_trial(monkeypatch):
    # fast members (rates up to 60) from rest: the start is finite, but the
    # first trial step moves the members so far that x^16 overflows; that
    # trial counts as cost inf and the run ends cleanly
    from momentsteer import tracking

    failures = []

    def spy(*args):
        try:
            return objective(*args)
        except SolverError:
            failures.append(args[6].copy())
            raise

    objective = tracking._shooting_objective
    monkeypatch.setattr(tracking, "_shooting_objective", spy)
    q, n_int = 16, 4
    g = make_uniform_grid(8, 0.0, 60.0)
    table = np.tile(2.0 ** np.arange(q + 1), (n_int + 1, 1))
    ref = MomentReference(np.linspace(0.0, 1.0, n_int + 1), table, np.zeros_like(table),
                          MONOMIAL_OUTPUT)
    res = direct_shooting(LinearScalar(1), g, np.zeros(8), ref,
                          n_intervals=n_int, iterations=30)
    assert failures and all(np.all(np.isfinite(u)) for u in failures)
    assert res.info["stop_reason"] in ("line_search", "budget")
    _check_history(res, res.info["iterations"])
    assert np.all(np.isfinite(res.control.values))


def test_shooting_continues_after_failed_trial(monkeypatch):
    # controls with an entry beyond 0.6 stand for forward runs that overflow:
    # the first unit-length trial is one, and the line search steps back
    # inside instead of ending the run
    from momentsteer import tracking

    objective = tracking._shooting_objective
    costs = []

    def bounded(*args):
        if np.abs(args[6]).max() > 0.6:
            costs.append(np.inf)
            raise SolverError("non-finite shooting cost")
        result = objective(*args)
        costs.append(result[0])
        return result

    monkeypatch.setattr(tracking, "_shooting_objective", bounded)
    model, g, x0, basis, q, ref = _shooting_case("output")
    res = direct_shooting(model, g, x0, ref, n_intervals=4, iterations=10)
    first_failure = costs.index(np.inf)
    assert first_failure == 1
    _check_history(res, 10)
    assert res.info["stop_reason"] == "budget"
    # every accepted step came after the failed trial and stayed inside
    assert all(costs.index(c) > first_failure for c in res.info["cost_history"][1:])
    assert np.abs(res.control.values).max() <= 0.6
    assert res.cost < 0.1 * res.info["cost_history"][0]


def test_shooting_grad_norm_history_finite_for_huge_gradients():
    # fast members (rates up to 30) at 0.5 and q = 16: the gradient at the
    # start is about 6.7e183, whose squared entries overflow a plain norm
    import warnings

    q, n_int = 16, 4
    g = make_uniform_grid(8, 0.0, 30.0)
    table = np.tile(2.0 ** np.arange(q + 1), (n_int + 1, 1))
    ref = MomentReference(np.linspace(0.0, 1.0, n_int + 1), table, np.zeros_like(table),
                          MONOMIAL_OUTPUT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = direct_shooting(LinearScalar(1), g, np.full(8, 0.5), ref,
                              n_intervals=n_int, iterations=10)
    norms = res.info["grad_norm_history"]
    assert np.all(np.isfinite(norms)) and norms[0] > 1e154


def test_shooting_descends_kuramoto_smoke():
    n, q, n_int = 48, 6, 8
    g = make_uniform_grid(n, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(n) + 0.5) / n
    from momentsteer import circular_plan, mean_field, pushforward

    ref = ot_moment_reference(circular_plan(pushforward(g, th0), np.pi), FOURIER, q,
                              np.linspace(0, 1, n_int + 1))
    model = Kuramoto(coupling=2.0)
    res = direct_shooting(model, g, th0, ref,
                          n_intervals=n_int, iterations=40)
    hist = res.info["cost_history"]
    assert np.all(np.diff(hist) <= 0)
    assert hist[-1] < hist[0]
    # cost is recomputable from the stored traces
    recomputed = np.trapezoid(res.residuals, res.times) \
        + 1e-3 * (res.control.values**2).sum() * (1.0 / n_int)
    assert res.cost == pytest.approx(recomputed, rel=1e-12)
    final = simulate(model, th0, g, res.control, 1.0 / n_int / 10).states[-1]
    r_final, _ = mean_field(final, g)
    r_start, _ = mean_field(th0, g)
    assert r_final > r_start + 0.3


def test_shooting_tracks_labeled_moments():
    # with basis monomial_param the objective sees the density moments
    # sum_j w_j beta_j^k x_j, the same coordinates as moment_trajectory
    n, q, n_int = 50, 4, 4
    g = make_uniform_grid(n, 0.0, 1.0)
    dens = truncated_gaussian(0.5, 1 / np.sqrt(50))
    x0 = np.interp(g.nodes, dens.xs, dens.values)
    ref = _case_one_reference(q, n_int)
    res = direct_shooting(LinearScalar(2), g, x0, ref,
                          n_intervals=n_int, iterations=2)
    labeled = moment_trajectory(Trajectory(np.zeros(1), x0[None, :], g), MONOMIAL_PARAM, q)
    np.testing.assert_allclose(res.moments[0], labeled.values[0], rtol=0, atol=1e-12)


def test_shooting_rejects_non_finite_start():
    # the squares of the members' outputs overflow at the start
    g = make_uniform_grid(8, 0.0, 1.0)
    table = np.tile([1.0, 0.5, 1 / 3], (5, 1))
    ref = MomentReference(np.linspace(0.0, 1.0, 5), table, np.zeros_like(table), MONOMIAL_OUTPUT)
    with pytest.raises(SolverError):
        direct_shooting(LinearScalar(1), g, np.full(8, 1e300), ref, n_intervals=4, iterations=2)


# ------------------------------------------------------------ tracking cost

def test_tracking_cost_zero_and_offset():
    q = 5
    tgrid = np.linspace(0, 1, 101)
    table = np.tile(1.0 / (np.arange(q + 1) + 1), (101, 1))
    ref = MomentReference(tgrid, table, np.zeros_like(table), MONOMIAL_PARAM)
    trace = MomentTrace(tgrid, table.copy(), MONOMIAL_PARAM)
    assert tracking_cost(trace, ref) == 0.0
    for k, delta in ((2, 0.3), (4, 0.01)):
        bumped = table.copy()
        bumped[:, k] += delta
        trace_k = MomentTrace(tgrid, bumped, MONOMIAL_PARAM)
        assert tracking_cost(trace_k, ref) == pytest.approx(2.0**-k * delta, rel=1e-12)


def test_tracking_cost_grid_mismatch():
    q = 2
    tgrid = np.linspace(0, 1, 11)
    table = np.tile(np.array([1.0, 0.5, 0.33]), (11, 1))
    ref = MomentReference(tgrid, table, np.zeros_like(table), MONOMIAL_PARAM)
    trace = MomentTrace(np.linspace(0, 1, 21), np.tile(table[0], (21, 1)), MONOMIAL_PARAM)
    with pytest.raises(ValueError):
        tracking_cost(trace, ref)


@pytest.mark.parametrize("trace_basis, ref_basis", [(MONOMIAL_OUTPUT, MONOMIAL_PARAM),
                                                     (MONOMIAL_PARAM, MONOMIAL_OUTPUT)])
def test_tracking_cost_basis_mismatch(trace_basis, ref_basis):
    tgrid = np.linspace(0, 1, 11)
    table = np.tile(np.array([1.0, 0.5, 0.33]), (11, 1))
    ref = MomentReference(tgrid, table, np.zeros_like(table), ref_basis)
    trace = MomentTrace(tgrid, table.copy(), trace_basis)
    with pytest.raises(ValueError, match=f"trace basis {trace_basis} differs"):
        tracking_cost(trace, ref)


def test_tracking_cost_energy_term():
    q = 2
    tgrid = np.linspace(0, 1, 11)
    table = np.tile(np.array([1.0, 0.5, 0.33]), (11, 1))
    ref = MomentReference(tgrid, table, np.zeros_like(table), MONOMIAL_PARAM)
    trace = MomentTrace(tgrid, table.copy(), MONOMIAL_PARAM)
    ctrl = ControlSignal(np.linspace(0, 1, 6), np.full((5, 2), 2.0))
    got = tracking_cost(trace, ref, control=ctrl, energy_weight=0.5)
    assert got == pytest.approx(0.5 * (2 * 2.0**2) * 1.0)


# ----------------------------------------------------- terminal profile fit

def test_terminal_profile_guess_hits_target():
    n, p, n_int = 200, 4, 10
    g = make_uniform_grid(n, 0.0, 1.0)
    model = LinearScalar(p)
    x0 = np.full(n, 0.5)
    target = 0.2 + 0.6 * g.nodes**2
    u = terminal_profile_guess(model, g, x0, target, 1.0, n_int)
    traj = simulate(model, x0, g, ControlSignal(np.linspace(0, 1, n_int + 1), u), 1e-2)
    gap = np.sqrt(np.mean((traj.states[-1] - target) ** 2))
    assert gap <= 0.02
