import numpy as np
import pytest

from momentsteer import (
    EmpiricalMeasure,
    FOURIER,
    GridDensity,
    MONOMIAL_OUTPUT,
    MONOMIAL_PARAM,
    MomentSequence,
    hausdorff_check,
    make_uniform_grid,
    mean_field,
    member_moments,
    moment_metric,
    moment_metric_values,
    moments_density,
    moments_fourier,
    moments_output,
    pushforward,
    reconstruct_fourier,
    truncated_gaussian,
    wasserstein,
)


def _uniform_circle(n):
    return EmpiricalMeasure.from_samples(2 * np.pi * (np.arange(n) + 0.5) / n)


# -------------------------------------------------------------- density case

def test_density_moments_of_uniform():
    f = GridDensity((0.0, 1.0), np.ones(4001))
    m = moments_density(f, 8)
    np.testing.assert_allclose(m.values, 1.0 / (np.arange(9) + 1), atol=1e-7)
    assert m.basis == MONOMIAL_PARAM


def test_density_moments_narrow_peak_limit():
    f = truncated_gaussian(0.5, 0.004, n_points=20001)
    m = moments_density(f, 6)
    np.testing.assert_allclose(m.values, 0.5 ** np.arange(7), atol=2e-4)


def test_density_moments_gaussian_symmetry():
    f = truncated_gaussian(0.5, 1 / np.sqrt(50))
    m = moments_density(f, 3)
    assert abs(m.values[1] - 0.5) <= 1e-6


# --------------------------------------------------------------- output case

def test_output_moments_point_mass():
    mu = EmpiricalMeasure(np.array([0.7]), np.array([1.0]))
    m = moments_output(mu, 5)
    np.testing.assert_allclose(m.values, 0.7 ** np.arange(6))
    assert m.values[0] == 1.0


def test_output_moments_uniform_law():
    n = 4000
    g = make_uniform_grid(n, 0.0, 1.0)
    m = moments_output(pushforward(g, g.nodes), 8)
    np.testing.assert_allclose(m.values, 1.0 / (np.arange(9) + 1), atol=1e-4)


def test_output_moments_overflow_reported():
    mu = EmpiricalMeasure(np.array([1e200, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="overflow"):
        moments_output(mu, 12)


def test_output_moments_match_raw_member_path():
    # pushforward then moments == direct weighted powers of raw outputs
    rng = np.random.default_rng(2)
    g = make_uniform_grid(64, 0.0, 1.0)
    y = rng.uniform(0, 1, 64)
    via_measure = moments_output(pushforward(g, y), 6).values
    direct = np.array([(y**k) @ g.weights for k in range(7)])
    np.testing.assert_allclose(via_measure, direct, rtol=1e-14)
    # the batched member map against the slow per-order formulas, on a
    # (B, S, n) batch with negative values; errors are relative to the
    # absolute sums, since signed sums may cancel
    q = 7
    g = make_uniform_grid(40, -1.0, 2.0)
    x = rng.uniform(-1.5, 1.5, (3, 5, 40))
    ks = np.arange(q + 1)
    slow = {
        MONOMIAL_OUTPUT: np.stack([(x**k) @ g.weights for k in ks], axis=-1),
        FOURIER: np.stack([np.exp(-1j * k * x) @ g.weights for k in ks], axis=-1),
        MONOMIAL_PARAM: np.stack([x @ (g.nodes**k * g.weights) for k in ks], axis=-1),
    }
    scale = {
        MONOMIAL_OUTPUT: np.stack([np.abs(x) ** k @ g.weights for k in ks], axis=-1),
        FOURIER: np.ones(q + 1),
        MONOMIAL_PARAM: np.stack([np.abs(x) @ (np.abs(g.nodes) ** k * g.weights) for k in ks],
                                 axis=-1),
    }
    for basis, expect in slow.items():
        got = member_moments(x, g, basis, q)
        assert got.shape == (3, 5, q + 1)
        assert np.all(np.abs(got - expect) <= 1e-13 * scale[basis])


# -------------------------------------------------------------- fourier case

def test_fourier_moments_point_mass():
    th = 2.2
    mu = EmpiricalMeasure(np.array([th]), np.array([1.0]))
    m = moments_fourier(mu, 4)
    np.testing.assert_allclose(m.values, np.exp(-1j * th * np.arange(5)), atol=1e-14)


def test_fourier_moments_uniform_vanish():
    n = 256
    m = moments_fourier(_uniform_circle(n), 10)
    assert m.values[0] == 1.0
    assert np.abs(m.values[1:]).max() <= 1.0 / n


def test_first_fourier_modulus_is_order_parameter():
    rng = np.random.default_rng(8)
    n = 50
    g = make_uniform_grid(n, -1.0, 1.0)
    th = rng.uniform(0, 2 * np.pi, n)
    r, _ = mean_field(th, g)
    m = moments_fourier(EmpiricalMeasure(th, g.weights), 2)
    assert abs(np.abs(m.values[1]) - r) <= 1e-13


# -------------------------------------------------------------- reconstruction

def test_reconstruct_uniform_is_flat():
    m = moments_fourier(_uniform_circle(512), 10)
    f = reconstruct_fourier(m)
    np.testing.assert_allclose(f.values, 1 / (2 * np.pi), atol=1e-3)


def test_reconstruct_point_mass_peaks_at_atom():
    th = 4.0
    m = moments_fourier(EmpiricalMeasure(np.array([th]), np.array([1.0])), 10)
    f = reconstruct_fourier(m, n_points=720)
    xs = f.xs
    peak = xs[np.argmax(f.values)]
    assert abs(peak - th) <= 2 * np.pi / 720 + 1e-12
    # truncated series of a point mass must dip negative somewhere
    assert f.has_negative and f.signed
    # and match the closed-form kernel sum at a probe angle
    probe = 1.0
    kernel = (1 + 2 * sum(np.cos(k * (probe - th)) for k in range(1, 11))) / (2 * np.pi)
    val = f.values[np.argmin(np.abs(xs - probe))]
    assert abs(val - kernel) < 1e-2


def test_reconstruct_integral_equals_zeroth_moment():
    rng = np.random.default_rng(21)
    mu = EmpiricalMeasure.from_samples(rng.uniform(0, 2 * np.pi, 40))
    m = moments_fourier(mu, 10)
    f = reconstruct_fourier(m, n_points=2048)
    assert abs(f.mass() - 1.0) <= 1e-8


def test_reconstruct_l1_error_decreases_with_order():
    f0 = truncated_gaussian(0.5, 0.12)
    th = 2 * np.pi * f0.xs  # same shape wrapped on the circle
    dens = f0.values / (2 * np.pi)
    errs = []
    for q in (2, 4, 8, 16):
        ks = np.arange(q + 1)
        m = MomentSequence(FOURIER, np.trapezoid(
            np.exp(-1j * np.outer(ks, th)) * dens[None, :], th, axis=1))
        rec = reconstruct_fourier(m, n_points=2000)
        target = np.interp(rec.xs, th, dens)
        errs.append(np.trapezoid(np.abs(rec.values - target), rec.xs))
    assert errs[0] > errs[1] > errs[2] > errs[3]


# ---------------------------------------------------------------- the metric

def test_metric_zero_and_single_component():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0, 1, 7)
    vals[0] = 1.0
    a = MomentSequence(MONOMIAL_OUTPUT, vals)
    assert moment_metric(a, a) == 0.0
    for k in (1, 3, 6):
        delta = 0.17
        shifted = vals.copy()
        shifted[k] += delta
        b = MomentSequence(MONOMIAL_OUTPUT, shifted)
        assert abs(moment_metric(a, b) - 2.0**-k * delta) < 1e-15


def test_metric_triangle_inequality():
    rng = np.random.default_rng(12)
    rows = []
    for _ in range(25):
        a, b, c = (rng.standard_normal(9) for _ in range(3))
        dab = moment_metric_values(a, b)
        assert dab <= moment_metric_values(a, c) + moment_metric_values(c, b) + 1e-12
        rows.append((a, b, dab))
    # batched over the last axis: the same numbers as row by row
    a, b, d = (np.array(col) for col in zip(*rows))
    assert np.array_equal(moment_metric_values(a.reshape(5, 5, 9), b.reshape(5, 5, 9)),
                          d.reshape(5, 5))


def test_metric_rejects_mismatch():
    a = MomentSequence(MONOMIAL_PARAM, np.array([1.0, 0.5]))
    b = MomentSequence(MONOMIAL_OUTPUT, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        moment_metric(a, b)
    c = MomentSequence(MONOMIAL_PARAM, np.array([1.0, 0.5, 0.3]))
    with pytest.raises(ValueError):
        moment_metric(a, c)


# ------------------------------------------------------------ realizability

def test_hausdorff_accepts_uniform_and_point_mass():
    res = hausdorff_check(1.0 / (np.arange(9) + 1), depth=8)
    assert res.passed
    res = hausdorff_check(0.5 ** np.arange(9), depth=8)
    assert res.passed


def test_hausdorff_rejects_impossible_variance():
    # E[x]=0.9 with E[x^2]=0.7 would need negative variance
    res = hausdorff_check(np.array([1.0, 0.9, 0.7]), depth=2)
    assert not res.passed
    assert res.worst < -1e-9 and res.where == (0, 2)


def test_hausdorff_boundary_sequence_is_realizable():
    # (1, 0.9, 0.9) is the Bernoulli(0.9) sequence: on the boundary, passes
    res = hausdorff_check(np.array([1.0, 0.9, 0.9]), depth=2)
    assert res.passed and res.worst >= 0.0


# ------------------------------------- weak convergence <-> moment convergence

def test_transport_convergence_implies_moment_convergence():
    rng = np.random.default_rng(99)
    base = np.sort(rng.uniform(0, 1, 400))
    mu = EmpiricalMeasure.from_samples(base)
    m_ref = moments_output(mu, 8).values
    prev_w2 = np.inf
    for scale in (0.3, 0.1, 0.03, 0.01, 0.003):
        jitter = np.clip(base + scale * rng.standard_normal(400), 0, 1)
        nu = EmpiricalMeasure.from_samples(jitter)
        w2 = wasserstein(mu, nu, p=2)
        gap = np.abs(moments_output(nu, 8).values - m_ref).max()
        # on [0, 1], |m_k(mu) - m_k(nu)| <= k * W_1 <= k * W_2
        assert gap <= 8 * w2 + 1e-12
        assert w2 <= prev_w2 + 1e-12
        prev_w2 = w2
    assert gap < 0.03  # converged together


def test_moment_convergence_tracks_transport_on_fixed_support():
    # narrowing perturbations: metric gap and transport distance fall together
    rng = np.random.default_rng(5)
    base = np.sort(rng.uniform(0, 1, 300))
    mu = EmpiricalMeasure.from_samples(base)
    m_ref = moments_output(mu, 8)
    pairs = []
    for scale in (0.2, 0.05, 0.01):
        nu = EmpiricalMeasure.from_samples(np.clip(base + scale * (rng.random(300) - 0.5), 0, 1))
        pairs.append((moment_metric(moments_output(nu, 8), m_ref), wasserstein(mu, nu)))
    dm, w2 = zip(*pairs)
    assert dm[0] > dm[1] > dm[2]
    assert w2[0] > w2[1] > w2[2]


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence(MONOMIAL_OUTPUT, np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        MomentSequence(FOURIER, np.array([1.0, 1.5 + 0j]))
    with pytest.raises(ValueError):
        MomentSequence("legendre", np.array([1.0]))
