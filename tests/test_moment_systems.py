import numpy as np
import pytest

from momentsteer import (
    ControlSignal,
    FOURIER,
    Kuramoto,
    LinearScalar,
    MONOMIAL_OUTPUT,
    build_linear_moment_system,
    hausdorff_check,
    make_uniform_grid,
    moment_metric_values,
    moment_rhs,
    moment_trajectory,
    simulate,
    verify_moment_consistency,
)


def test_hankel_entries_match_display():
    sys_ = build_linear_moment_system(2, 2)
    np.testing.assert_allclose(sys_.H, [[1.0, 0.5], [0.5, 1 / 3], [1 / 3, 0.25]])
    assert sys_.H.shape == (3, 2)


def test_shift_action():
    sys_ = build_linear_moment_system(2, 1)
    m = np.array([3.0, 5.0, 7.0])
    np.testing.assert_array_equal(sys_.L @ m, [5.0, 7.0, 0.0])


def test_hankel_rank_numerical():
    sys_ = build_linear_moment_system(7, 8)
    assert sys_.h_rank == 8


def test_shift_nilpotency_exact():
    for q in (2, 5, 8):
        sys_ = build_linear_moment_system(q, 1)
        power = np.linalg.matrix_power(sys_.L, q + 1)
        assert np.all(power == 0.0)


def test_hankel_columns_are_realizable_moment_sequences():
    sys_ = build_linear_moment_system(8, 4)
    for i in range(4):
        res = hausdorff_check(sys_.H[:, i], depth=6)
        assert res.passed


def test_moment_rhs_cases():
    sys_ = build_linear_moment_system(4, 2)
    e0 = np.zeros(5)
    e0[0] = 1.0
    np.testing.assert_array_equal(moment_rhs(sys_, e0, np.zeros(2)), np.zeros(5))
    out = moment_rhs(sys_, np.zeros(5), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, 1.0 / (np.arange(5) + 1))
    # linearity
    rng = np.random.default_rng(0)
    m1, m2 = rng.standard_normal((2, 5))
    u1, u2 = rng.standard_normal((2, 2))
    lhs = moment_rhs(sys_, 2.0 * m1 + m2, 2.0 * u1 + u2)
    rhs_ = 2.0 * moment_rhs(sys_, m1, u1) + moment_rhs(sys_, m2, u2)
    np.testing.assert_allclose(lhs, rhs_, atol=1e-12)
    with pytest.raises(ValueError):
        moment_rhs(sys_, np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        moment_rhs(sys_, np.zeros(5), np.zeros(3))


def test_two_path_consistency_uncontrolled():
    g = make_uniform_grid(2000, 0.0, 1.0)
    dev = verify_moment_consistency(
        LinearScalar(1), np.ones(2000), g, ControlSignal.zeros(1, 1.0), q=6, dt=1e-3)
    assert dev <= 1e-5


def test_two_path_consistency_zero_horizon():
    g = make_uniform_grid(100, 0.0, 1.0)
    dev = verify_moment_consistency(
        LinearScalar(1), np.ones(100), g, ControlSignal.zeros(1, 0.0), q=4, dt=1e-3)
    assert dev == 0.0


def test_forced_moments_match_nilpotent_closed_form():
    # x0 = 0, constant u = e_1: m(t) = int_0^t e^{L (t-s)} H e_1 ds, and the
    # nilpotent exponential truncates, giving
    # m_k(t) = sum_{j=0}^{q-k} t^{j+1}/(j+1)! * 1/(k+j+1)
    q, dt, T = 6, 1e-3, 1.0
    sys_ = build_linear_moment_system(q, 1)
    from momentsteer.moment_systems import _rk4_linear_moments

    ctrl = ControlSignal(np.array([0.0, T]), np.array([[1.0]]))
    traj = _rk4_linear_moments(sys_.L, sys_.H, np.zeros(q + 1), ctrl, dt)
    from math import factorial

    expect = np.array([
        sum(T ** (j + 1) / factorial(j + 1) / (k + j + 1) for j in range(q - k + 1))
        for k in range(q + 1)
    ])
    assert np.abs(traj[-1] - expect).max() <= 1e-8


def test_moment_trajectory_output_closed_form():
    # uncontrolled linear flow from constant a: m_k(t) = a^k (e^{kt} - 1)/(kt)
    n, a, T = 2000, 0.8, 1.0
    g = make_uniform_grid(n, 0.0, 1.0)
    traj = simulate(LinearScalar(1), np.full(n, a), g, ControlSignal.zeros(1, T), 1e-3)
    trace = moment_trajectory(traj, MONOMIAL_OUTPUT, 5)
    ks = np.arange(1, 6)
    final = a**ks * (np.exp(ks * T) - 1) / (ks * T)
    assert np.abs(trace.values[-1, 1:] - final).max() <= 1e-5
    assert np.abs(trace.values[:, 0] - 1.0).max() <= 1e-12


def test_moment_trajectory_kuramoto_mass_and_constants():
    n = 64
    g = make_uniform_grid(n, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(n) + 0.5) / n
    traj = simulate(Kuramoto(coupling=1.0), th0, g,
                    ControlSignal(np.linspace(0, 1, 3), np.full((2, 1), 0.5)), 1e-2)
    trace = moment_trajectory(traj, FOURIER, 4)
    np.testing.assert_allclose(trace.values[:, 0], np.ones(traj.times.size), atol=1e-14)
    # constant ensemble keeps constant moments
    frozen = simulate(LinearScalar(1), np.zeros(8), make_uniform_grid(8, 0.0, 1.0),
                      ControlSignal.zeros(1, 1.0), 1e-2)
    trace2 = moment_trajectory(frozen, MONOMIAL_OUTPUT, 3)
    assert np.abs(trace2.values - trace2.values[0]).max() == 0.0


def test_truncation_gap_nonincreasing_in_order():
    # fixed control, fixed initial density; the gap to the order-12 system
    # shrinks as the truncation order grows
    from momentsteer import truncated_gaussian
    from momentsteer.moment_systems import _rk4_linear_moments

    dens = truncated_gaussian(0.5, 1 / np.sqrt(50))
    xs, vals = dens.xs, dens.values
    m0_full = np.array([np.trapezoid(xs**k * vals, xs) for k in range(13)])
    ctrl = ControlSignal(np.array([0.0, 1.0]), np.array([[0.25, -0.15]]))
    big = build_linear_moment_system(12, 2)
    ref = _rk4_linear_moments(big.L, big.H, m0_full, ctrl, 1e-3)
    sups = []
    for q in (2, 4, 6, 8):
        sys_ = build_linear_moment_system(q, 2)
        small = _rk4_linear_moments(sys_.L, sys_.H, m0_full[: q + 1], ctrl, 1e-3)
        padded = np.zeros_like(ref)
        padded[:, : q + 1] = small
        gaps = [moment_metric_values(padded[i], ref[i]) for i in range(ref.shape[0])]
        sups.append(max(gaps))
    assert sups[0] > sups[1] > sups[2] > sups[3]
    assert sups[-1] <= 1e-3
