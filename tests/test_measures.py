import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from momentsteer import (
    CDFTable,
    ConfigError,
    ControlSignal,
    EmpiricalMeasure,
    GridDensity,
    LinearScalar,
    cdf,
    make_uniform_grid,
    point_source_cdf,
    point_source_pde_residual,
    pushforward,
    quantile,
    sample_empirical,
    simulate,
    truncated_gaussian,
    truncated_gaussian_mixture,
    wasserstein,
    wasserstein_to_point_circular,
)


def _random_measure(rng, n=12, lo=-2.0, hi=2.0):
    pts = rng.uniform(lo, hi, n)
    w = rng.uniform(0.2, 1.0, n)
    return EmpiricalMeasure(pts, w / w.sum())


# ---------------------------------------------------------------- pushforward

def test_pushforward_indicator_recovers_threshold_mass():
    # binary output of the uncontrolled linear ensemble started at beta - a:
    # the sign pattern is frozen, so mass below the threshold stays a
    n, a = 200, 0.37
    g = make_uniform_grid(n, 0.0, 1.0)
    traj = simulate(LinearScalar(1), g.nodes - a, g, ControlSignal.zeros(1, 1.0), 1e-2)
    y = (traj.states[-1] >= 0.0).astype(float)
    mu = pushforward(g, y)
    mass_zero = mu.weights[mu.points == 0.0].sum()
    assert abs(mass_zero - a) <= 1.0 / n
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_pushforward_constant_is_point_mass():
    g = make_uniform_grid(10, 0.0, 1.0)
    mu = pushforward(g, np.full(10, 3.3))
    assert np.all(mu.points == 3.3)
    F = cdf(mu)
    assert F.abscissae.size == 1 and F.F[0] == 1.0


def test_pushforward_identity_on_uniform_grid():
    n = 100
    g = make_uniform_grid(n, 0.0, 1.0)
    mu = pushforward(g, g.nodes)
    mean = float(mu.points @ mu.weights)
    assert abs(mean - 0.5) <= 1 / (2 * n)


def test_pushforward_rejects_bad_outputs():
    g = make_uniform_grid(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        pushforward(g, np.array([1.0, 2.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        pushforward(g, np.zeros(5))


# ------------------------------------------------------------------------ cdf

def test_cdf_point_mass_jump():
    mu = EmpiricalMeasure(np.array([1.7]), np.array([1.0]))
    F = cdf(mu)
    assert quantile(F, 0.2) == 1.7 and quantile(F, 0.9) == 1.7


def test_cdf_uniform_density_is_identity():
    f = GridDensity((0.0, 1.0), np.ones(401))
    F = cdf(f)
    np.testing.assert_allclose(F.F, F.abscissae, atol=1e-12)


def test_cdf_of_simulated_point_source_matches_closed_form():
    # point mass at a spread by the exponential parameter flow: the member at
    # quantile level s sits at a * exp(t s)
    n, a, t = 400, 1.0, 0.5
    g = make_uniform_grid(n, 0.0, 1.0)
    traj = simulate(LinearScalar(1), np.full(n, a), g, ControlSignal.zeros(1, t), 1e-3)
    F = cdf(pushforward(g, traj.states[-1]))
    for s in (0.1, 0.35, 0.5, 0.82):
        y = quantile(F, s)
        assert abs(np.log(y / a) / t - s) <= 2.0 / n


def test_point_source_table_quantiles():
    table = point_source_cdf(1.0, 0.5)
    for s in (0.25, 0.5, 0.75):
        y = quantile(table, s)
        assert abs(y - np.exp(0.5 * s)) < 2e-3


# ------------------------------------------------------------------- quantile

def test_quantile_uniform_level():
    f = GridDensity((0.0, 1.0), np.ones(2001))
    F = cdf(f)
    assert abs(quantile(F, 0.3) - 0.3) <= 1e-3


def test_quantile_returns_support_points():
    rng = np.random.default_rng(7)
    mu = _random_measure(rng)
    F = cdf(mu)
    support = set(np.unique(mu.points))
    for s in rng.uniform(0, 1, 50):
        assert quantile(F, s) in support


def test_quantile_monotone_and_galois_round_trip():
    rng = np.random.default_rng(11)
    mu = _random_measure(rng, n=9)
    F = cdf(mu)
    s = np.sort(rng.uniform(0, 1, 64))
    qs = quantile(F, s)
    assert np.all(np.diff(qs) >= 0)
    # quantile(F, F(quantile(F, s))) == quantile(F, s)
    levels = F.F[np.searchsorted(F.abscissae, qs)]
    np.testing.assert_array_equal(quantile(F, levels), qs)


def test_quantile_rejects_bad_levels():
    F = cdf(EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        quantile(F, 1.2)


# ---------------------------------------------------------------- wasserstein

def test_wasserstein_identity_and_point_masses():
    rng = np.random.default_rng(3)
    mu = _random_measure(rng)
    assert wasserstein(mu, mu, p=2) == 0.0
    d1 = EmpiricalMeasure(np.array([0.3]), np.array([1.0]))
    d2 = EmpiricalMeasure(np.array([-1.1]), np.array([1.0]))
    assert abs(wasserstein(d1, d2, p=1) - 1.4) < 1e-14


@pytest.mark.parametrize("p", [1, 2, 3])
def test_wasserstein_matches_assignment_oracle(p):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = np.sort(rng.uniform(-1, 1, 8))
        y = np.sort(rng.uniform(-1, 1, 8))
        mu = EmpiricalMeasure.from_samples(x)
        nu = EmpiricalMeasure.from_samples(y)
        cost = np.abs(x[:, None] - y[None, :]) ** p
        rows, cols = linear_sum_assignment(cost)
        oracle = cost[rows, cols].mean() ** (1 / p)
        assert abs(wasserstein(mu, nu, p=p) - oracle) <= 1e-6


@pytest.mark.parametrize("p", [1, 2, 3])
def test_wasserstein_metric_axioms_on_random_triples(p):
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu, nu, rho = (_random_measure(rng, n=int(rng.integers(3, 15))) for _ in range(3))
        dab = wasserstein(mu, nu, p=p)
        dba = wasserstein(nu, mu, p=p)
        assert abs(dab - dba) <= 1e-8
        assert dab <= wasserstein(mu, rho, p=p) + wasserstein(rho, nu, p=p) + 1e-8


def test_wasserstein_quadrature_path_consistency():
    # density versus its own fine atomization should be near zero
    f = truncated_gaussian(0.5, 0.2)
    F = cdf(f)
    s = (np.arange(4096) + 0.5) / 4096
    atoms = EmpiricalMeasure.from_samples(np.asarray(quantile(F, s)))
    assert wasserstein(f, atoms, p=2) < 2e-3


def test_wasserstein_circular_point_target():
    mu = EmpiricalMeasure(np.array([0.1, 2 * np.pi - 0.1]), np.array([0.5, 0.5]))
    d = wasserstein_to_point_circular(mu, 0.0, p=2)
    assert abs(d - 0.1) < 1e-12


# ------------------------------------------------------------------ densities

def test_truncated_gaussian_symmetry_and_mass():
    f = truncated_gaussian(0.5, 1 / np.sqrt(50))
    np.testing.assert_allclose(f.values, f.values[::-1], rtol=1e-12)
    assert abs(f.mass() - 1.0) <= 1e-9


def test_truncated_gaussian_mixture_bimodal_symmetric():
    f = truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2, [0.5, 0.5])
    np.testing.assert_allclose(f.values, f.values[::-1], rtol=1e-10)
    xs = f.xs
    mid = f.values[np.argmin(np.abs(xs - 0.5))]
    peak = f.values.max()
    assert peak > 2 * mid  # two separated humps


def test_truncated_gaussian_flat_limit():
    f = truncated_gaussian(0.5, 100.0)
    assert np.abs(f.values - 1.0).max() <= 1e-2


def test_normal_distribution_function_matches_scipy_ndtr():
    from scipy.special import ndtr

    from momentsteer.measures import _ndtr

    xs = np.linspace(-8.0, 8.0, 3201)
    np.testing.assert_allclose([_ndtr(x) for x in xs], ndtr(xs), rtol=1e-13, atol=0)


def test_truncated_gaussian_rejects_degenerate():
    with pytest.raises(ConfigError):
        truncated_gaussian(0.5, -1.0)
    with pytest.raises(ConfigError):
        truncated_gaussian(50.0, 0.01)
    with pytest.raises(ConfigError):
        truncated_gaussian_mixture([0.2, 0.8], [0.1, 0.1], [0.7, 0.7])


def test_grid_density_invariants():
    with pytest.raises(ConfigError):
        GridDensity((0.0, 1.0), np.array([1.0, -0.1, 1.0]))
    with pytest.raises(ConfigError, match=r"within 1e-6 \(it integrates to 3\)$"):
        GridDensity((0.0, 1.0), np.full(11, 3.0))
    f = GridDensity.normalized((0.0, 1.0), np.full(11, 3.0))
    assert abs(f.mass() - 1.0) < 1e-12


def test_cdf_table_invariants():
    with pytest.raises(ConfigError):
        CDFTable(np.array([0.0, 1.0]), np.array([0.5, 0.9]))
    with pytest.raises(ConfigError):
        CDFTable(np.array([0.0, 1.0]), np.array([0.6, 0.4]))


# ------------------------------------------------- distribution-function flow

def test_point_source_pde_residual_small():
    assert point_source_pde_residual(1.0, 0.5, step=1e-3) <= 1e-4


def test_point_source_flow_flat_outside_support():
    from momentsteer.measures import _point_source_F

    a, t = 1.0, 0.5
    inside_low = _point_source_F(np.array([0.5 * a, 0.9 * a]), a, t)
    np.testing.assert_array_equal(inside_low, [0.0, 0.0])
    above = _point_source_F(np.array([a * np.exp(t) * 1.01, 5.0]), a, t)
    np.testing.assert_array_equal(above, [1.0, 1.0])
    # both sides of the flow equation vanish off the support
    h = 1e-4
    for y in (0.5 * a, a * np.exp(t) * 1.5):
        dFdt = (_point_source_F(np.array([y]), a, t + h) -
                _point_source_F(np.array([y]), a, t - h)) / (2 * h)
        dF2dy = (_point_source_F(np.array([y + h]), a, t) ** 2 -
                 _point_source_F(np.array([y - h]), a, t) ** 2) / (2 * h)
        assert abs(dFdt[0]) == 0.0 and abs(-0.5 * y * dF2dy[0]) == 0.0


def test_sample_empirical_seeded_and_weighted():
    rng = np.random.default_rng(42)
    mu = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    s1 = sample_empirical(mu, 4000, np.random.default_rng(9))
    s2 = sample_empirical(mu, 4000, np.random.default_rng(9))
    np.testing.assert_array_equal(s1.points, s2.points)
    frac_one = s1.points.mean()
    assert abs(frac_one - 0.75) < 0.03
    assert rng is not None
