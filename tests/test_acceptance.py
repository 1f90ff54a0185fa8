"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured quantity at the stated tolerance.

Criterion 1 is asserted exactly as stated.  Note that with nine tracked
moment components (orders 0..8) and eight input channels, the pointwise
least-norm feedback has a rank-one defect: the required drive has a
component outside the range of the 9x8 input matrix, so the tracking error
carries a structural floor far above the stated bound.  The companion test
directly after it shows the same machinery meeting the bound once the
channel count matches the component count.
"""

import time
import warnings

import numpy as np

from momentsteer import (
    ControlSignal,
    FOURIER,
    Kuramoto,
    LinearScalar,
    LQSetup,
    MONOMIAL_OUTPUT,
    MONOMIAL_PARAM,
    SolverWarning,
    build_linear_moment_system,
    cdf,
    circular_plan,
    direct_shooting,
    exact_tracking_feedback,
    lq_tracking_tpbvp,
    make_uniform_grid,
    mccann_plan,
    mean_field,
    moment_metric_values,
    ot_moment_reference,
    point_source_pde_residual,
    pushforward,
    sample_empirical,
    simulate,
    terminal_profile_guess,
    tpbvp_ode_residual,
    tpbvp_optimality_gap,
    tracking_cost,
    truncated_gaussian,
    truncated_gaussian_mixture,
    verify_moment_consistency,
    wasserstein,
)
from momentsteer.moment_systems import MomentTrace, _rk4_linear_moments
from momentsteer.transport import interpolate

SIGMA = 1 / np.sqrt(50)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    from conftest import record_acceptance

    record_acceptance(line)


def _benchmark_densities():
    f0 = truncated_gaussian(0.5, SIGMA)
    f1 = truncated_gaussian_mixture([0.25, 0.75], [SIGMA, SIGMA], [0.5, 0.5])
    return f0, f1


def _benchmark_reference(q, n_steps):
    f0, f1 = _benchmark_densities()
    return ot_moment_reference(mccann_plan(f0, f1), MONOMIAL_PARAM, q,
                               np.linspace(0.0, 1.0, n_steps + 1))


def test_criterion_1_exact_tracking_regime():
    """Minimum-norm feedback, p = q = 8, max_t ||mhat - P8 m*|| <= 1e-6."""
    q = p = 8
    dt = 1e-3
    t0 = time.monotonic()
    sys_ = build_linear_moment_system(q, p)
    ref = _benchmark_reference(q, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverWarning)
        res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
    elapsed = time.monotonic() - t0
    worst = float(res.residuals.max())
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "exact tracking regime (p=q=8)",
            ok, f"max residual {worst:.3e} (bound 1e-6), runtime {elapsed:.2f}s")
    assert elapsed < 5.0
    assert worst <= 1e-6, (
        f"max_t ||mhat - P8 m*|| = {worst:.3e} > 1e-6: with nine tracked "
        "components and eight inputs the feedback has a rank-one defect of "
        "size ~ the ninth reference moment; see the companion test for the "
        "matched-channel regime"
    )


def test_exact_regime_requires_one_input_per_component():
    """Companion evidence: the same scenario meets the stated bound when the
    input count matches the number of tracked components (p = q + 1), or when
    the truncation is lowered so the 8 inputs cover all 8 components."""
    dt = 1e-3
    results = {}
    for q, p in ((8, 9), (7, 8)):
        sys_ = build_linear_moment_system(q, p)
        ref = _benchmark_reference(q, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SolverWarning)
            res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
        results[(q, p)] = float(res.residuals.max())
    _report("1b", "matched-channel exact regime", True,
            ", ".join(f"q={q} p={p}: {v:.2e}" for (q, p), v in results.items()))
    assert results[(8, 9)] <= 1e-6
    assert results[(7, 8)] <= 1e-7


def test_criterion_2_fixed_endpoint_regime():
    """Shooting TPBVP, p=4, q=8, R=I: boundaries and dynamics to 1e-8,
    first-order optimality over 10 random endpoint-preserving variations."""
    q, p, dt = 8, 4, 1e-3
    sys_ = build_linear_moment_system(q, p)
    ref = _benchmark_reference(q, 1000)
    setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
    res = lq_tracking_tpbvp(sys_, ref, setup, dt)
    b0 = float(np.linalg.norm(res.moments[0] - setup.m_start))
    b1 = float(res.info["boundary_residual_end"])
    ode = tpbvp_ode_residual(sys_, ref, setup, res)
    gap = tpbvp_optimality_gap(sys_, ref, setup, res)
    ok = b0 <= 1e-8 and b1 <= 1e-8 and ode <= 1e-8 and gap <= 1e-6
    _report(2, "fixed-endpoint regime (p=4, q=8)", ok,
            f"boundaries {b0:.2e}/{b1:.2e}, dynamics defect {ode:.2e}, "
            f"optimality gap {gap:.2e}")
    assert b0 <= 1e-8 and b1 <= 1e-8
    assert ode <= 1e-8
    assert gap <= 1e-6


def test_criterion_3_distributional_endpoint_quality():
    """Unlabeled tracking with p = q = 8: the seeded 1000-member empirical
    final measure lands within W2 = 0.05 of the target mixture."""
    q = p = 8
    n_opt, n_eval = 300, 4000
    intervals = 50
    f0, f1 = _benchmark_densities()
    F0 = cdf(f0)
    ref = ot_moment_reference(mccann_plan(f0, f1), MONOMIAL_OUTPUT, q,
                              np.linspace(0.0, 1.0, intervals + 1))
    model = LinearScalar(p)

    grid = make_uniform_grid(n_opt, 0.0, 1.0)
    levels = np.cumsum(grid.weights) - grid.weights / 2
    x0 = np.interp(levels, F0.F, F0.abscissae)
    target_profile = np.interp(levels, cdf(f1).F, cdf(f1).abscissae)
    guess = terminal_profile_guess(model, grid, x0, target_profile, 1.0, intervals)
    res = direct_shooting(model, grid, x0, ref,
                          n_intervals=intervals, energy_weight=1e-4,
                          iterations=120, dt=2e-3, initial_guess=guess)
    assert np.all(np.diff(res.info["cost_history"]) <= 0)

    # replay at evaluation fidelity and sample the reported empirical measure
    grid_f = make_uniform_grid(n_eval, 0.0, 1.0)
    lev_f = np.cumsum(grid_f.weights) - grid_f.weights / 2
    x0_f = np.interp(lev_f, F0.F, F0.abscissae)
    traj = simulate(model, x0_f, grid_f, res.control, 1e-3)
    sampled = sample_empirical(pushforward(grid_f, traj.states[-1]), 1000,
                               np.random.default_rng(20260808))
    w2 = wasserstein(sampled, f1, p=2)
    ok = w2 <= 0.05
    _report(3, "distributional endpoint quality (unlabeled, p=q=8)", ok,
            f"W2(sampled final, target) = {w2:.4f} (bound 0.05), "
            f"tracking cost {res.cost:.2e}")
    assert w2 <= 0.05


def test_criterion_4_kuramoto_synchronization():
    """Direct shooting with order-10 trigonometric moments drives a uniform
    200-member Kuramoto ensemble to order parameter >= 0.9 in unit time."""
    t0 = time.monotonic()
    n, q, intervals = 200, 10, 50
    grid = make_uniform_grid(n, -1.0, 1.0)
    theta0 = 2 * np.pi * (np.cumsum(grid.weights) - grid.weights / 2)
    r_start, _ = mean_field(theta0, grid)
    model = Kuramoto(coupling=2.0)
    plan = circular_plan(pushforward(grid, theta0), np.pi)
    ref = ot_moment_reference(plan, FOURIER, q, np.linspace(0.0, 1.0, intervals + 1))
    res = direct_shooting(model, grid, theta0, ref,
                          n_intervals=intervals, energy_weight=1e-3,
                          iterations=80, dt=2e-3)
    traj = simulate(model, theta0, grid, res.control, 1e-3)
    r_final, _ = mean_field(traj.states[-1], grid)
    elapsed = time.monotonic() - t0
    ok = r_start <= 0.05 and r_final >= 0.9 and elapsed < 300.0
    _report(4, "Kuramoto synchronization (q=10)", ok,
            f"r(0) = {r_start:.2e}, r(1) = {r_final:.4f} (bound 0.9), "
            f"runtime {elapsed:.0f}s (bound 300s)")
    assert r_start <= 0.05
    assert r_final >= 0.9
    assert elapsed < 300.0


def test_criterion_5_truncation_convergence():
    """Gap between order-q and order-12 moment trajectories under a fixed
    control is nonincreasing over q in {2,4,6,8} and <= 1e-3 at q = 8."""
    f0, _ = _benchmark_densities()
    xs, vals = f0.xs, f0.values
    m0_full = np.array([np.trapezoid(xs**k * vals, xs) for k in range(13)])
    ctrl = ControlSignal(np.array([0.0, 1.0]), np.array([[0.25, -0.15]]))
    big = build_linear_moment_system(12, 2)
    ref_path = _rk4_linear_moments(big.L, big.H, m0_full, ctrl, 1e-3)
    sups = []
    for q in (2, 4, 6, 8):
        sys_ = build_linear_moment_system(q, 2)
        small = _rk4_linear_moments(sys_.L, sys_.H, m0_full[: q + 1], ctrl, 1e-3)
        padded = np.zeros_like(ref_path)
        padded[:, : q + 1] = small
        sup = max(moment_metric_values(padded[i], ref_path[i])
                  for i in range(ref_path.shape[0]))
        sups.append(sup)
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    ok = nonincreasing and sups[-1] <= 1e-3
    _report(5, "truncation convergence surrogate", ok,
            "sup-gaps " + ", ".join(f"q={q}: {s:.2e}" for q, s in zip((2, 4, 6, 8), sups)))
    assert nonincreasing
    assert sups[-1] <= 1e-3


def test_criterion_6_tracking_cost_convergence():
    """Optimal tracking cost J_q of the order-q problem (one input per order,
    minimum-norm feedback) is nonincreasing over q in {2,4,6,8}."""
    dt = 1e-3
    costs = []
    for q in (2, 4, 6, 8):
        sys_ = build_linear_moment_system(q, q)
        ref = _benchmark_reference(q, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SolverWarning)
            res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
        trace = MomentTrace(res.times, res.moments, MONOMIAL_PARAM)
        costs.append(tracking_cost(trace, ref))
    nonincreasing = all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))
    _report(6, "tracking-cost convergence surrogate", nonincreasing,
            "J_q " + ", ".join(f"q={q}: {c:.3e}" for q, c in zip((2, 4, 6, 8), costs)))
    assert nonincreasing


def test_criterion_7_moment_system_consistency():
    """Ensemble-side and moment-side trajectories agree to d_M <= 1e-5 at q=6."""
    g = make_uniform_grid(2000, 0.0, 1.0)
    dev = verify_moment_consistency(
        LinearScalar(1), np.ones(2000), g, ControlSignal.zeros(1, 1.0), q=6, dt=1e-3)
    ok = dev <= 1e-5
    _report(7, "moment-system consistency (q=6)", ok, f"max d_M deviation {dev:.2e}")
    assert dev <= 1e-5


def test_criterion_8_closed_form_flows():
    """Binary-output mass recovery within 1/n, and the distribution-function
    flow of a spreading point mass satisfies its conservation law to 1e-4."""
    n, a = 200, 0.37
    g = make_uniform_grid(n, 0.0, 1.0)
    traj = simulate(LinearScalar(1), g.nodes - a, g, ControlSignal.zeros(1, 1.0), 1e-2)
    mu = pushforward(g, (traj.states[-1] >= 0).astype(float))
    mass_zero = float(mu.weights[mu.points == 0.0].sum())
    bern_ok = abs(mass_zero - a) <= 1.0 / n

    resid = point_source_pde_residual(1.0, 0.5, step=1e-3)
    pde_ok = resid <= 1e-4
    _report(8, "closed-form output flows", bern_ok and pde_ok,
            f"threshold mass |{mass_zero:.4f} - {a}| <= 1/{n}, flow residual {resid:.2e}")
    assert bern_ok
    assert pde_ok


def test_criterion_9_infrastructure_properties():
    """Transport-distance axioms, interpolation endpoints, conserved zeroth
    reference rate, and transport-to-moment convergence."""
    rng = np.random.default_rng(31)

    worst_tri, worst_sym = 0.0, 0.0
    for _ in range(20):
        mus = []
        for _ in range(3):
            pts = rng.uniform(-2, 2, int(rng.integers(4, 16)))
            w = rng.uniform(0.1, 1, pts.size)
            from momentsteer import EmpiricalMeasure

            mus.append(EmpiricalMeasure(pts, w / w.sum()))
        a, b, c = mus
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dab - wasserstein(a, c) - wasserstein(c, b))
    axioms_ok = worst_sym <= 1e-8 and worst_tri <= 1e-8

    f0, f1 = _benchmark_densities()
    plan = mccann_plan(f0, f1)
    endpoint_gap = wasserstein(interpolate(plan, 1.0), f1, p=2)
    endpoint_ok = endpoint_gap <= 2e-3  # quantile-grid resolution

    refs = [
        ot_moment_reference(plan, MONOMIAL_OUTPUT, 8),
        ot_moment_reference(circular_plan(
            pushforward(make_uniform_grid(64, -1, 1),
                        2 * np.pi * (np.arange(64) + 0.5) / 64), np.pi), FOURIER, 6),
    ]
    mass_rate_ok = all(np.abs(r.dm_star[:, 0]).max() == 0.0 for r in refs)

    base = np.sort(rng.uniform(0, 1, 400))
    from momentsteer import EmpiricalMeasure, moments_output

    mu = EmpiricalMeasure.from_samples(base)
    m_ref = moments_output(mu, 8).values
    conv_ok = True
    prev_gap = np.inf
    for scale in (0.2, 0.05, 0.01, 0.002):
        nu = EmpiricalMeasure.from_samples(np.clip(base + scale * rng.standard_normal(400), 0, 1))
        w2 = wasserstein(mu, nu, p=2)
        gap = float(np.abs(moments_output(nu, 8).values - m_ref).max())
        conv_ok &= gap <= 8 * w2 + 1e-12 and gap <= prev_gap + 1e-12
        prev_gap = gap

    ok = axioms_ok and endpoint_ok and mass_rate_ok and conv_ok
    _report(9, "measure/moment infrastructure", ok,
            f"symmetry {worst_sym:.1e}, triangle slack {worst_tri:.1e}, "
            f"endpoint gap {endpoint_gap:.1e}, conserved rate exact, "
            f"moment gap tracks transport: {conv_ok}")
    assert axioms_ok
    assert endpoint_ok
    assert mass_rate_ok
    assert conv_ok
