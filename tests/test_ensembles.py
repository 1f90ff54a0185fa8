import numpy as np
import pytest

from momentsteer import (
    ConfigError,
    ControlSignal,
    Kuramoto,
    LinearScalar,
    ParameterGrid,
    SolverError,
    make_uniform_grid,
    mean_field,
    rhs,
    simulate,
)


def test_uniform_grid_two_members():
    g = make_uniform_grid(2, 0.0, 1.0)
    np.testing.assert_allclose(g.nodes, [0.25, 0.75])
    np.testing.assert_allclose(g.weights, [0.5, 0.5])


def test_uniform_grid_four_members():
    g = make_uniform_grid(4, 0.0, 1.0)
    np.testing.assert_allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])


def test_uniform_grid_symmetric_interval():
    g = make_uniform_grid(3, -1.0, 1.0)
    np.testing.assert_allclose(g.nodes, [-2 / 3, 0.0, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(g.weights, [1 / 3, 1 / 3, 1 / 3])


def test_uniform_grid_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        make_uniform_grid(1, 0.0, 1.0)
    with pytest.raises(ConfigError):
        make_uniform_grid(10, 1.0, 1.0)


def test_parameter_grid_invariants():
    with pytest.raises(ConfigError):
        ParameterGrid(np.array([0.2, 0.1]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        ParameterGrid(np.array([0.1, 0.2]), np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        ParameterGrid(np.array([0.1, 0.2]), np.array([1.2, -0.2]))


def test_linear_rhs_matches_hand_substitution():
    # beta = 0.5, x = 1, u = (1, 1): 0.5*1 + 1 + 0.5 = 2.0
    g = ParameterGrid(np.array([0.5]), np.array([1.0]))
    model = LinearScalar(2)
    dx = rhs(model, np.array([1.0]), g, np.array([1.0, 1.0]))
    np.testing.assert_allclose(dx, [2.0])


def test_linear_rhs_uncontrolled_growth_rate():
    g = make_uniform_grid(8, 0.0, 1.0)
    a = 2.5
    dx = rhs(LinearScalar(1), np.full(8, a), g, np.zeros(1))
    np.testing.assert_allclose(dx, g.nodes * a)


def test_rhs_dimension_mismatch():
    g = make_uniform_grid(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        rhs(LinearScalar(2), np.zeros(4), g, np.zeros(3))
    with pytest.raises(ValueError):
        rhs(LinearScalar(1), np.zeros(3), g, np.zeros(1))


def test_kuramoto_rhs_coupling_vanishes_when_synchronized():
    g = make_uniform_grid(6, -1.0, 1.0)
    th = np.full(6, 1.3)
    dth = rhs(Kuramoto(coupling=5.0), th, g, np.zeros(1))
    np.testing.assert_allclose(dth, g.nodes, atol=1e-12)


def test_mean_field_synchronized_and_uniform():
    g = make_uniform_grid(64, -1.0, 1.0)
    r, psi = mean_field(np.full(64, 0.7), g)
    assert abs(r - 1.0) < 1e-12 and abs(psi - 0.7) < 1e-12
    uniform = 2 * np.pi * (np.arange(64) + 0.5) / 64
    r, _ = mean_field(uniform, g)
    assert r <= 1e-10


def test_mean_field_two_phases():
    g = make_uniform_grid(2, 0.0, 1.0)
    r, psi = mean_field(np.array([0.0, np.pi / 2]), g)
    np.testing.assert_allclose(r, np.sqrt(2) / 2, atol=1e-14)
    np.testing.assert_allclose(psi, np.pi / 4, atol=1e-14)


def test_simulate_matches_exponential_closed_form():
    g = make_uniform_grid(16, 0.0, 1.0)
    a = 0.8
    traj = simulate(LinearScalar(1), np.full(16, a), g,
                    ControlSignal.zeros(1, 1.0), 1e-3)
    assert np.abs(traj.states[-1] - a * np.exp(g.nodes)).max() <= 1e-8


def test_simulate_zero_dynamics_constant():
    nodes = np.array([-1e-18, 1e-18])
    g = ParameterGrid(nodes, np.array([0.5, 0.5]))
    x0 = np.array([1.0, 2.0])
    traj = simulate(Kuramoto(coupling=0.0), x0, g, ControlSignal.zeros(1, 1.0), 1e-2)
    assert np.abs(traj.states - x0).max() <= 1e-12


def test_simulate_zero_horizon_returns_initial_row():
    g = make_uniform_grid(3, 0.0, 1.0)
    traj = simulate(LinearScalar(1), np.ones(3), g, ControlSignal.zeros(1, 0.0), 1e-3)
    assert traj.states.shape == (1, 3)
    np.testing.assert_array_equal(traj.states[0], np.ones(3))


def test_rk4_order_at_least_3_8():
    g = make_uniform_grid(8, 0.0, 3.0)
    exact = np.exp(g.nodes)

    def max_err(dt):
        traj = simulate(LinearScalar(1), np.ones(8), g, ControlSignal.zeros(1, 1.0), dt)
        return np.abs(traj.states[-1] - exact).max()

    e1, e2 = max_err(0.05), max_err(0.025)
    order = np.log2(e1 / e2)
    assert order >= 3.8


def test_simulate_deterministic_bit_identical():
    g = make_uniform_grid(32, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(32) + 0.5) / 32
    ctrl = ControlSignal(np.linspace(0, 1, 11), np.full((10, 1), 0.7))
    a = simulate(Kuramoto(coupling=1.5), th0, g, ctrl, 1e-2)
    b = simulate(Kuramoto(coupling=1.5), th0, g, ctrl, 1e-2)
    np.testing.assert_array_equal(a.states, b.states)


def test_kuramoto_order_parameter_stays_in_unit_interval_and_wrapped():
    g = make_uniform_grid(40, -1.0, 1.0)
    th0 = 2 * np.pi * (np.arange(40) + 0.5) / 40
    ctrl = ControlSignal(np.linspace(0, 1, 6), np.full((5, 1), 3.0))
    traj = simulate(Kuramoto(coupling=2.0), th0, g, ctrl, 1e-2)
    for row in traj.states:
        r, _ = mean_field(row, g)
        assert 0.0 <= r <= 1.0
        assert np.all(row >= 0) and np.all(row < 2 * np.pi)


@pytest.mark.parametrize("model, lo", [(LinearScalar(4), 0.0), (Kuramoto(coupling=2.0), -1.0)])
def test_segment_batch_rows_match_simulate(model, lo):
    from momentsteer.ensembles import _simulate_segments_batch

    rng = np.random.default_rng(5)
    g = make_uniform_grid(37, lo, 1.0)
    x0 = rng.uniform(0.0, 2.0, 37)
    U = rng.standard_normal((3, 6, model.n_inputs))
    per, dt = 10, 1.0 / 60
    batch = _simulate_segments_batch(model, x0, g, U, 1.0, dt)
    for b in range(3):
        traj = simulate(model, x0, g, ControlSignal(np.linspace(0, 1, 7), U[b]), dt)
        np.testing.assert_allclose(batch[b], traj.states[::per], rtol=1e-13, atol=1e-15)


def test_linear_transfer_sums_in_blocks_in_bounded_memory():
    # the transfer sums R^0 .. R^(per-1) a block of rows at a time; the
    # one-array formula it replaced is the oracle, bit for bit.  Rates up to
    # 3 at dt 0.01 make R ** 2 (a square) round unlike the array power
    import tracemalloc

    from momentsteer.ensembles import _linear_transfer

    g = make_uniform_grid(64, -3.0, 3.0)
    for per in (1, 2, 3, 10, 1000):
        z = 0.01 * g.nodes
        R = 1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24)))
        P = 1 + z * (1 / 2 + z * (1 / 6 + z / 24))
        powers = R ** np.arange(per + 1)[:, None]
        Rp, S = _linear_transfer(g, per, 0.01)
        assert Rp.tobytes() == powers[-1].tobytes()
        assert S.tobytes() == (0.01 * P * powers[:-1].sum(axis=0)).tobytes()
    # one array of the powers would take 200001 x 64 x 8 B = 102 MB
    per = 200_000
    tracemalloc.start()
    try:
        _linear_transfer(make_uniform_grid(64, 0.0, 1.0), per, 1.0 / per)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_simulate_reports_blowup_time():
    g = make_uniform_grid(4, 150.0, 250.0)
    with pytest.raises(SolverError, match="t="):
        simulate(LinearScalar(1), np.ones(4), g, ControlSignal.zeros(1, 8.0), 0.05)


def test_simulate_requires_dt_dividing_interval():
    g = make_uniform_grid(4, 0.0, 1.0)
    ctrl = ControlSignal(np.linspace(0, 1, 4), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        simulate(LinearScalar(1), np.ones(4), g, ctrl, 0.1)


def test_control_signal_validation():
    with pytest.raises(ConfigError):
        ControlSignal(np.array([0.0, 0.5, 1.5]), np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        ControlSignal(np.array([0.0, 1.0]), np.array([[np.inf]]))
    with pytest.raises(ConfigError):
        Kuramoto(coupling=-1.0)
