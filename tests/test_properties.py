"""Property tests of the ensemble forward loop, the Kuramoto field, the
shooting adjoint, the moment-space RK4 kernel and the transport path's power
moments on random small problems.  Hypothesis draws the problem
sizes and a seed; the seed draws the continuous data, so no example sits on
a degenerate value unless the test asks for one."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from momentsteer import (  # noqa: E402
    FOURIER,
    MONOMIAL_OUTPUT,
    MONOMIAL_PARAM,
    ControlSignal,
    DisplacementPlan,
    Kuramoto,
    LinearScalar,
    ParameterGrid,
    make_uniform_grid,
    member_moments,
    simulate,
)
from momentsteer.ensembles import (  # noqa: E402
    _adjoint_record, _field, _segments_pullback, _simulate_segments_batch)
from momentsteer.moment_systems import _rk4_affine  # noqa: E402
from momentsteer.tracking import _shooting_objective  # noqa: E402
from momentsteer.transport import _path_coefficients, _path_moments  # noqa: E402

PROPERTY = settings(deadline=None, max_examples=60, derandomize=True)


def _problem(kind, members, inputs, seed):
    rng = np.random.default_rng(seed)
    if kind == "kuramoto":
        model = Kuramoto(coupling=rng.uniform(0.0, 3.0))
        return rng, model, make_uniform_grid(members, -1.0, 1.0), \
            rng.uniform(0.0, 2 * np.pi, members)
    return rng, LinearScalar(inputs), make_uniform_grid(members, 0.0, 1.0), \
        rng.uniform(-1.0, 1.0, members)


@PROPERTY
@given(kind=st.sampled_from(["output", "param", "kuramoto"]), members=st.integers(4, 12),
       n_int=st.integers(1, 4), per=st.integers(1, 3), inputs=st.integers(1, 3),
       q=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_adjoint_gradient_matches_central_differences(kind, members, n_int, per, inputs, q,
                                                      seed):
    rng, model, g, x0 = _problem(kind, members, inputs, seed)
    basis = {"output": MONOMIAL_OUTPUT, "param": MONOMIAL_PARAM, "kuramoto": FOURIER}[kind]
    dt, ew = 1.0 / n_int / per, 1e-3
    u = rng.uniform(-1.0, 1.0, (n_int, model.n_inputs))
    # a reference at distance 0.5-1.5 from the moments at u in every
    # component, so no central difference straddles a kink of d_M
    mom = member_moments(_simulate_segments_batch(model, x0, g, u[None], 1.0, dt)[0], g, basis, q)
    offset = rng.choice([-1.0, 1.0], mom.shape) * rng.uniform(0.5, 1.5, mom.shape)
    m_ref = mom + (offset * (1 + 1j) / np.sqrt(2) if basis == FOURIER else offset)

    def J(v):
        return _shooting_objective(model, g, x0, basis, q, m_ref, v, 1.0, dt, ew)[0]

    _, adjoint, _ = _shooting_objective(model, g, x0, basis, q, m_ref, u, 1.0, dt, ew)
    h = 1e-5
    central = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        central[idx] = (J(up) - J(um)) / (2 * h)
    np.testing.assert_allclose(adjoint, central, rtol=0, atol=1e-6 * np.abs(central).max())


@PROPERTY
@given(kind=st.sampled_from(["linear", "kuramoto"]), members=st.integers(4, 40),
       batch=st.integers(1, 3), n_int=st.integers(1, 6), per=st.integers(1, 5),
       inputs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_segment_batch_boundaries_match_simulate(kind, members, batch, n_int, per, inputs,
                                                 seed):
    rng, model, g, x0 = _problem(kind, members, inputs, seed)
    if kind == "linear":
        # growing members away from zero: relative rounding stays at 1e-16
        x0, U = x0 + 2.0, rng.uniform(0.0, 1.0, (batch, n_int, inputs))
    else:
        U = rng.standard_normal((batch, n_int, 1))
    dt = 1.0 / n_int / per
    rows = _simulate_segments_batch(model, x0, g, U, 1.0, dt)
    for b in range(batch):
        traj = simulate(model, x0, g, ControlSignal(np.linspace(0, 1, n_int + 1), U[b]), dt)
        np.testing.assert_allclose(rows[b], traj.states[::per], rtol=1e-13, atol=1e-15)
        # each row is integrated on its own: equal to a batch of one, bit for bit
        np.testing.assert_array_equal(rows[b], _simulate_segments_batch(model, x0, g, U[b:b + 1],
                                                                        1.0, dt)[0])


def _stage_rk4_linear(beta, x0, drives, per, dt):
    """Four-stage RK4 of dx/dt = beta x + d, one step at a time, with each
    segment's drive d held; returns the segment boundaries."""
    x, out = x0, [x0]
    for d in drives:
        for _ in range(per):
            k1 = beta * x + d
            k2 = beta * (x + dt / 2 * k1) + d
            k3 = beta * (x + dt / 2 * k2) + d
            k4 = beta * (x + dt * k3) + d
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    return np.stack(out)


@PROPERTY
@given(members=st.integers(1, 30), batch=st.integers(1, 3), n_int=st.integers(1, 6),
       per=st.integers(1, 10), inputs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_linear_closed_form_transfer_matches_stage_by_stage(members, batch, n_int, per, inputs,
                                                           seed):
    rng = np.random.default_rng(seed)
    # rates in [-3, 3], always with beta = 0 among them
    beta = np.unique(np.concatenate([[0.0], rng.uniform(-3.0, 3.0, members)]))
    g = ParameterGrid(beta, np.full(beta.size, 1.0 / beta.size))
    horizon = rng.uniform(0.1, 2.0)
    dt = horizon / n_int / per
    x0 = rng.standard_normal(beta.size)
    U = rng.standard_normal((batch, n_int, inputs))
    rows = _simulate_segments_batch(LinearScalar(inputs), x0, g, U, horizon, dt)
    for b in range(batch):
        drives = U[b] @ beta[None, :] ** np.arange(inputs)[:, None]
        want = _stage_rk4_linear(beta, x0, drives, per, dt)
        np.testing.assert_allclose(rows[b], want, rtol=0, atol=1e-13 * np.abs(want).max())


@PROPERTY
@given(members=st.integers(1, 30), n_int=st.integers(1, 6), per=st.integers(1, 10),
       inputs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_linear_member_peaks_on_interval_boundaries(members, n_int, per, inputs, seed):
    # one RK4 step with a held drive is x -> R x + dt P d, and R > 0 for every
    # real z = dt beta, so a member moves monotonically within a control
    # interval: the largest |x| over its steps is at one of its two ends
    rng = np.random.default_rng(seed)
    horizon = rng.uniform(0.1, 2.0)
    dt = horizon / n_int / per
    # rates of both signs with |dt beta| up to 2, always with beta = 0 among them
    beta = np.unique(np.concatenate([[0.0], rng.uniform(-2.0, 2.0, members) / dt]))
    g = ParameterGrid(beta, np.full(beta.size, 1.0 / beta.size))
    control = ControlSignal(np.linspace(0.0, horizon, n_int + 1),
                            rng.standard_normal((n_int, inputs)))
    x = np.abs(simulate(LinearScalar(inputs), rng.standard_normal(beta.size), g, control,
                        dt).states)
    for seg in range(n_int):
        steps = x[seg * per:(seg + 1) * per + 1]
        np.testing.assert_allclose(steps.max(axis=0), np.maximum(steps[0], steps[-1]),
                                   rtol=1e-12, atol=0)


def _complex_field(K, g, x, drive):
    """The Kuramoto right-hand side in its complex-exponential form."""
    z = np.sum(g.weights * np.exp(1j * x))
    r, psi = min(np.abs(z), 1.0), np.angle(z)
    return g.nodes + K * r * np.sin(psi - x) + drive * np.sin(x)


def _complex_field_vjp(K, g, x, drive, b):
    """VJP of the unclipped complex form: b (drive cos x - K Re(z e^{-ix}))
    + K w Re(e^{ix} sum_j b_j e^{-i x_j}), and sum_j b_j sin x_j."""
    e = np.exp(1j * x)
    z = np.sum(g.weights * e)
    xbar = b * (drive * e.real - K * (z * e.conj()).real) \
        + K * g.weights * (e * np.sum(b * e.conj())).real
    return xbar, np.sum(b * e.imag)


def _stage_by_stage_sweep(K, g, x0, drives, per, dt, seeds):
    """Kuramoto's RK4 forward in complex form, keeping every stage input,
    then its reverse sweep with each stage's VJP recomputed from that input
    (:func:`_complex_field_vjp`); returns the cotangent of each drive."""
    steps, x = [], x0
    for d in drives:
        for _ in range(per):
            k1 = _complex_field(K, g, x, d)
            y2 = x + dt / 2 * k1
            k2 = _complex_field(K, g, y2, d)
            y3 = x + dt / 2 * k2
            k3 = _complex_field(K, g, y3, d)
            y4 = x + dt * k3
            k4 = _complex_field(K, g, y4, d)
            steps.append((x, y2, y3, y4))
            x = np.mod(x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), 2 * np.pi)
    xbar, dbar = seeds[-1], np.zeros(len(drives))
    for seg in range(len(drives) - 1, -1, -1):
        d = drives[seg]
        for y1, y2, y3, y4 in reversed(steps[seg * per:(seg + 1) * per]):
            b4, g4 = _complex_field_vjp(K, g, y4, d, dt / 6 * xbar)
            b3, g3 = _complex_field_vjp(K, g, y3, d, dt / 3 * xbar + dt * b4)
            b2, g2 = _complex_field_vjp(K, g, y2, d, dt / 3 * xbar + dt / 2 * b3)
            b1, g1 = _complex_field_vjp(K, g, y1, d, dt / 6 * xbar + dt / 2 * b2)
            xbar = xbar + b1 + b2 + b3 + b4
            dbar[seg] += g1 + g2 + g3 + g4
        xbar = xbar + seeds[seg]
    return dbar


@PROPERTY
@given(phases=st.sampled_from(["random", "synchronized", "antipodal"]),
       half=st.integers(1, 20), n_int=st.integers(1, 4), per=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_kuramoto_field_and_vjp_match_complex_form(phases, half, n_int, per, seed):
    rng = np.random.default_rng(seed)
    members = 2 * half
    g = make_uniform_grid(members, -1.0, 1.0)
    K, drive, a = rng.uniform(0.0, 3.0), rng.standard_normal(), rng.uniform(0.0, 2 * np.pi)
    if phases == "random":
        x = rng.uniform(0.0, 2 * np.pi, members)
    elif phases == "synchronized":  # |z| may round above 1, where r is clipped
        x = np.full(members, a)
    else:  # half the members opposite the other half: |z| = 0 up to rounding
        x = np.concatenate([np.full(half, a), np.full(half, np.mod(a + np.pi, 2 * np.pi))])
    model = Kuramoto(coupling=K)
    np.testing.assert_allclose(_field(model, g)(x, drive, np.empty(members)),
                               _complex_field(K, g, x, drive),
                               rtol=0, atol=1e-13)
    # the sweep from the forward's record against the stage-by-stage sweep
    # from stage inputs, with the run starting at x
    dt = 1.0 / n_int / per
    u = rng.standard_normal((n_int, 1))
    record = _adjoint_record(model, g, n_int, per)
    bounds = _simulate_segments_batch(model, x, g, u[None], 1.0, dt, record=record)[0]
    seeds = rng.standard_normal(bounds.shape)
    want = _stage_by_stage_sweep(K, g, x, u[:, 0], per, dt, seeds)
    np.testing.assert_allclose(_segments_pullback(model, g, u, per, dt, record, seeds)[:, 0],
                               want, rtol=0, atol=1e-12 * np.abs(want).max())


@PROPERTY
@given(members=st.integers(2, 12), inputs=st.integers(1, 3), n_int=st.integers(1, 5),
       per=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_linear_pullback_is_the_adjoint_of_the_forward_map(members, inputs, n_int, per, seed):
    # from x0 = 0 the linear family's boundary states F(u) are linear in u,
    # so the pullback must satisfy <s, F(du)> = <pullback(s), du>
    rng = np.random.default_rng(seed)
    model, g = LinearScalar(inputs), make_uniform_grid(members, -1.0, 1.0)
    dt = 1.0 / n_int / per
    du = rng.standard_normal((n_int, inputs))
    seeds = rng.standard_normal((n_int + 1, members))
    forward = _simulate_segments_batch(model, np.zeros(members), g, du[None], 1.0, dt)[0]
    pulled = _segments_pullback(model, g, du, per, dt, None, seeds)
    lhs, rhs = np.sum(seeds * forward), np.sum(pulled * du)
    # relative to the terms' magnitude, as the sums may cancel
    assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(seeds * forward))


def _stage_rk4(A, z0, forcing_half, dt, dtype, hold, per):
    """The LTI RK4 kernel stage by stage: k1..k4 from the step's forcing
    samples at t, t + h/2 and t + h, each plus the step's hold."""
    At = np.asarray(A, dtype=dtype).T
    f = np.asarray(forcing_half, dtype=dtype)
    n_steps = (f.shape[-2] - 1) // 2
    lead = [np.shape(z0)[:-1], f.shape[:-2]] + ([] if hold is None else [np.shape(hold)[:-2]])
    z = np.broadcast_to(np.asarray(z0, dtype=dtype), np.broadcast_shapes(*lead) + At.shape[:1])
    out = [z]
    h = dtype(dt)
    for i in range(n_steps):
        f0, fm, f1 = f[..., 2 * i, :], f[..., 2 * i + 1, :], f[..., 2 * i + 2, :]
        if hold is not None:
            g = np.asarray(hold, dtype=dtype)[..., i // per, :]
            f0, fm, f1 = f0 + g, fm + g, f1 + g
        k1 = z @ At + f0
        k2 = (z + h / 2 * k1) @ At + fm
        k3 = (z + h / 2 * k2) @ At + fm
        k4 = (z + h * k3) @ At + f1
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(z)
    return np.stack(out, axis=-2)


LEADS = [(), (3,), (2, 1), (2, 3)]


@PROPERTY
@given(n=st.integers(2, 8), n_seg=st.integers(1, 4), per=st.integers(1, 5),
       z_lead=st.sampled_from(LEADS), f_lead=st.sampled_from(LEADS),
       hold_lead=st.sampled_from([None] + LEADS),
       dtype=st.sampled_from([np.float64, np.longdouble]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_affine_kernel_matches_stage_by_stage(n, n_seg, per, z_lead, f_lead,
                                                          hold_lead, dtype, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    dt = rng.uniform(1e-3, 0.5)
    z0 = rng.standard_normal(z_lead + (n,))
    forcing = rng.standard_normal(f_lead + (2 * per * n_seg + 1, n))
    hold = None if hold_lead is None else rng.standard_normal(hold_lead + (n_seg, n))
    got = _rk4_affine(A, z0, forcing, dt, dtype, hold, per)
    want = _stage_rk4(A, z0, forcing, dt, dtype, hold, per)
    assert got.dtype == np.dtype(dtype) and got.shape == want.shape
    # the two forms differ by rounding only; 1e3 ulps of the largest state
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e3 * np.finfo(dtype).eps * np.abs(want).max())


@PROPERTY
@given(atoms=st.integers(1, 40), q=st.integers(1, 10),
       dtype=st.sampled_from([np.float64, np.longdouble]), seed=st.integers(0, 2**32 - 1))
def test_path_moment_forms_match_atom_sum(atoms, q, dtype, seed):
    # three forms of the displacement path's power moments on a random
    # monotone plan: monomial coefficients, Bernstein form and the atom sum
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, atoms)
    plan = DisplacementPlan(np.sort(rng.uniform(0.0, 1.0, atoms)), w / w.sum(),
                            np.sort(rng.uniform(0.0, 1.0, atoms)))
    s = np.linspace(0.0, 1.0, 11).astype(dtype)
    ks = np.arange(q + 1)
    pos = np.multiply.outer(1 - s, plan.points.astype(dtype)) \
        + np.multiply.outer(s, plan.targets.astype(dtype))
    atom_sum = (pos[..., None] ** ks * plan.weights.astype(dtype)[:, None]).sum(axis=1)
    monomial = (s[:, None] ** ks) @ _path_coefficients(plan, q, dtype).T
    bernstein = _path_moments(plan, MONOMIAL_PARAM, q, s)
    assert monomial.dtype == bernstein.dtype == np.dtype(dtype)
    tol = 1e-12 * np.abs(atom_sum).max()
    np.testing.assert_allclose(monomial, atom_sum, rtol=0, atol=tol)
    np.testing.assert_allclose(bernstein, atom_sum, rtol=0, atol=tol)
