import numpy as np
import pytest

from momentsteer import (
    DisplacementPlan,
    EmpiricalMeasure,
    FOURIER,
    MONOMIAL_OUTPUT,
    circular_plan,
    interpolate,
    make_uniform_grid,
    mccann_plan,
    moment_metric_values,
    moments_output,
    ot_moment_reference,
    pushforward,
    truncated_gaussian,
    truncated_gaussian_mixture,
    wasserstein,
)


def _uniform_atoms(n, lo=0.0, hi=1.0):
    return EmpiricalMeasure.from_samples(lo + (np.arange(n) + 0.5) * (hi - lo) / n)


# ----------------------------------------------------------------- the plan

def test_plan_between_identical_measures_is_identity():
    rng = np.random.default_rng(1)
    mu = EmpiricalMeasure.from_samples(np.sort(rng.uniform(-1, 1, 32)))
    plan = mccann_plan(mu, mu)
    np.testing.assert_array_equal(plan.targets, np.sort(mu.points))


def test_plan_to_point_mass_is_constant():
    mu = _uniform_atoms(64)
    target = EmpiricalMeasure(np.array([2.5]), np.array([1.0]))
    plan = mccann_plan(mu, target)
    np.testing.assert_array_equal(plan.targets, np.full(64, 2.5))


def test_plan_uniform_to_stretched_uniform_doubles():
    n = 256
    plan = mccann_plan(_uniform_atoms(n), _uniform_atoms(n, 0.0, 2.0))
    np.testing.assert_allclose(plan.targets, 2 * plan.points, atol=1e-12)


def test_plan_monotone_along_sorted_sources():
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure.from_samples(rng.uniform(-2, 2, 40))
    nu = EmpiricalMeasure.from_samples(rng.standard_normal(25))
    plan = mccann_plan(mu, nu)
    order = np.argsort(plan.points)
    assert np.all(np.diff(plan.targets[order]) >= -1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_plan_pairing_cost_matches_assignment_oracle(p):
    # on the line the monotone pairing is optimal for every convex cost
    # |x - y|^p, so its cost equals the assignment optimum
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        x, y = rng.uniform(-2, 2, n), rng.standard_normal(n)
        plan = mccann_plan(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(y))
        pairing = plan.weights @ np.abs(plan.targets - plan.points) ** p
        cost = np.abs(x[:, None] - y[None, :]) ** p
        rows, cols = linear_sum_assignment(cost)
        assert pairing == pytest.approx(cost[rows, cols].mean(), rel=1e-12, abs=1e-14)


# -------------------------------------------------------------- interpolation

def test_interpolate_endpoints():
    mu0 = _uniform_atoms(512)
    mu1 = truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2, [0.5, 0.5])
    plan = mccann_plan(mu0, mu1)
    start = interpolate(plan, 0.0)
    np.testing.assert_array_equal(np.sort(start.points), np.sort(mu0.points))
    end = interpolate(plan, 1.0)
    assert wasserstein(end, mu1, p=2) <= 2e-3  # quantile-grid error at 512 atoms


def test_interpolate_constant_speed_geodesic():
    mu0 = _uniform_atoms(512)
    mu1 = EmpiricalMeasure.from_samples(np.sort(0.3 + 0.2 * _uniform_atoms(512).points))
    plan = mccann_plan(mu0, mu1)
    total = wasserstein(mu0, mu1, p=2)
    for t in (0.25, 0.5, 0.8):
        d = wasserstein(mu0, interpolate(plan, t), p=2)
        assert abs(d - t * total) <= 1e-3


def test_interpolate_preserves_mass_and_range():
    mu0 = _uniform_atoms(50)
    plan = mccann_plan(mu0, _uniform_atoms(30, 1.0, 2.0))
    for t in np.linspace(0, 1, 7):
        rho = interpolate(plan, t)
        assert abs(rho.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        interpolate(plan, 1.2)


# ----------------------------------------------------------- moment reference

def test_reference_zeroth_rate_vanishes():
    plan = mccann_plan(truncated_gaussian(0.5, 1 / np.sqrt(50)),
                       truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2,
                                                  [0.5, 0.5]))
    ref = ot_moment_reference(plan, MONOMIAL_OUTPUT, 8)
    np.testing.assert_array_equal(ref.dm_star[:, 0], np.zeros(201))
    assert np.abs(ref.m_star[:, 0] - 1.0).max() <= 1e-9


def test_reference_uniform_to_point_matches_closed_form():
    # m*_k(t) = int_0^1 ((1-t) b + t c)^k db
    #         = (((1-t) + t c)^{k+1} - (t c)^{k+1}) / ((k+1)(1-t))
    c = 0.3
    n = 4096
    plan = mccann_plan(_uniform_atoms(n), EmpiricalMeasure(np.array([c]), np.array([1.0])))
    ref = ot_moment_reference(plan, MONOMIAL_OUTPUT, 8, np.linspace(0, 1, 11))
    ks = np.arange(9)
    for it, t in enumerate(ref.time_grid[:-1]):
        hi = (1 - t) + t * c
        lo = t * c
        exact = (hi ** (ks + 1) - lo ** (ks + 1)) / ((ks + 1) * (1 - t))
        np.testing.assert_allclose(ref.m_star[it], exact, atol=1e-6)


def test_reference_constant_when_endpoints_match():
    mu = truncated_gaussian(0.4, 0.1)
    ref = ot_moment_reference(mccann_plan(mu, mu), MONOMIAL_OUTPUT, 6)
    assert np.abs(ref.m_star - ref.m_star[0]).max() <= 1e-12
    assert np.abs(ref.dm_star).max() <= 1e-12


def test_reference_endpoint_consistency():
    mu0 = truncated_gaussian(0.5, 1 / np.sqrt(50))
    mu1 = truncated_gaussian_mixture([0.25, 0.75], [1 / np.sqrt(50)] * 2, [0.5, 0.5])
    plan = mccann_plan(mu0, mu1)
    ref = ot_moment_reference(plan, MONOMIAL_OUTPUT, 8)
    start_atoms = moments_output(interpolate(plan, 0.0), 8).values
    assert moment_metric_values(ref.m_star[0], start_atoms) <= 1e-9
    end = moments_output(interpolate(plan, 1.0), 8).values
    assert moment_metric_values(ref.m_star[-1], end) <= 1e-9


def test_reference_rate_matches_central_differences():
    cases = [
        (mccann_plan(truncated_gaussian(0.5, 0.15), truncated_gaussian(0.3, 0.1)),
         MONOMIAL_OUTPUT, 5.0),
        # k = 6 modes moved by up to pi: third derivatives near 1e3
        (circular_plan(_uniform_atoms(200, 0.0, 2 * np.pi), np.pi), FOURIER, 200.0),
    ]
    for plan, basis, c in cases:
        ref = ot_moment_reference(plan, basis, 6)
        for h in (1e-3, 5e-4):
            worst = 0.0
            for t in (0.2, 0.5, 0.8):
                fd = (ref.value(t + h) - ref.value(t - h)) / (2 * h)
                worst = max(worst, np.abs(fd - ref.derivative(t)).max())
            # second-order finite differences: error shrinks like h^2
            assert worst <= c * h**2
        # array instants give the same rows as scalar ones, up to roundoff
        ts = np.array([0.2, 0.5, 0.8])
        np.testing.assert_allclose(ref.derivative(ts)[1], ref.derivative(0.5),
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(ref.value(ts)[2], ref.value(0.8), rtol=1e-13, atol=1e-14)


def test_reference_closed_form_matches_atom_sums():
    # Bernstein form of the power moments against direct sums over the
    # interpolant's atoms, on plans whose support straddles zero
    rng = np.random.default_rng(11)
    q = 12
    ks = np.arange(q + 1)
    for _ in range(10):
        n = int(rng.integers(5, 300))
        w = rng.uniform(0.1, 1.0, n)
        plan = DisplacementPlan(np.sort(rng.uniform(-1.5, 1.0, n)), w / w.sum(),
                                np.sort(rng.uniform(-0.5, 2.0, n)))
        ref = ot_moment_reference(plan, MONOMIAL_OUTPUT, q, np.linspace(0.0, 1.0, 5))
        reach = np.maximum(np.abs(plan.points), np.abs(plan.targets))
        scale = (reach[None, :] ** ks[:, None]) @ plan.weights
        stages = np.linspace(0.0, 1.0, 9)
        closed = ref.value(stages)
        for s, row in zip(stages, closed):
            atoms = moments_output(interpolate(plan, s), q).values
            assert np.all(np.abs(row - atoms) <= 1e-12 * scale)
        # the extended-precision table and evaluation agree with float64
        M64, Mld = plan.mixed_moments(q), plan.mixed_moments(q, np.longdouble)
        assert Mld.dtype == np.longdouble
        assert np.abs(Mld - M64).max() <= 1e-13 * np.abs(M64).max()
        in_ld = ref.value(stages.astype(np.longdouble))
        assert in_ld.dtype == np.longdouble
        assert np.all(np.abs(in_ld - closed) <= 1e-13 * scale)


def test_reference_spans_physical_horizon():
    plan = mccann_plan(_uniform_atoms(256), _uniform_atoms(256, 0.0, 2.0))
    ref = ot_moment_reference(plan, MONOMIAL_OUTPUT, 4, np.linspace(0.0, 2.0, 21))
    np.testing.assert_allclose(ref.value(2.0), ref.m_star[-1], atol=1e-12)
    mid_direct = moments_output(interpolate(plan, 0.5), 4).values
    np.testing.assert_allclose(ref.value(1.0), mid_direct, atol=1e-12)
    # chain rule: rates halve when the stage runs over twice the time
    unit = ot_moment_reference(plan, MONOMIAL_OUTPUT, 4)
    np.testing.assert_allclose(ref.derivative(1.0), unit.derivative(0.5) / 2.0, atol=1e-12)


# -------------------------------------------------------------------- circle

def test_circular_plan_from_target_is_identity():
    th = 1.9
    mu = EmpiricalMeasure(np.array([th]), np.array([1.0]))
    plan = circular_plan(mu, th)
    assert plan.period == 2 * np.pi
    np.testing.assert_allclose(interpolate(plan, 0.5).points, [th])


def test_circular_plan_moves_along_short_arcs():
    n = 256
    g = make_uniform_grid(n, -1.0, 1.0)
    mu = pushforward(g, 2 * np.pi * (np.arange(n) + 0.5) / n)
    plan = circular_plan(mu, 0.0)
    disp = np.abs(plan.targets - plan.points)
    assert disp.max() <= np.pi + 1e-12
    final = interpolate(plan, 1.0)
    np.testing.assert_allclose(final.points, np.zeros(n), atol=1e-9)


def test_circular_reference_first_mode_grows_to_one():
    n = 200
    mu = EmpiricalMeasure.from_samples(2 * np.pi * (np.arange(n) + 0.5) / n)
    ref = ot_moment_reference(circular_plan(mu, np.pi), FOURIER, 10)
    mods = np.abs(ref.m_star[:, 1])
    assert mods[0] <= 1e-10
    assert abs(mods[-1] - 1.0) <= 1e-12
    assert np.all(np.diff(mods) >= -1e-9)
