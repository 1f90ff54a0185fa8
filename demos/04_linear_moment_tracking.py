"""Steering the labeled linear ensemble between two densities by tracking
transport-path moments: the pointwise least-norm feedback and the
fixed-endpoint LQ problem solved by shooting.

Run:  python demos/04_linear_moment_tracking.py   (about half a minute)
"""
import warnings

import numpy as np

from momentsteer import (
    LQSetup,
    MONOMIAL_PARAM,
    SolverWarning,
    build_linear_moment_system,
    exact_tracking_feedback,
    lq_tracking_tpbvp,
    mccann_plan,
    ot_moment_reference,
    tpbvp_ode_residual,
    tpbvp_optimality_gap,
    truncated_gaussian,
    truncated_gaussian_mixture,
)

sigma = 1 / np.sqrt(50)
plan = mccann_plan(
    truncated_gaussian(0.5, sigma),
    truncated_gaussian_mixture([0.25, 0.75], [sigma, sigma], [0.5, 0.5]),
)
dt = 1e-3
tgrid = np.linspace(0.0, 1.0, 1001)

print("== pointwise least-norm tracking ==")
print("tracked components are moment orders 0..q, so q+1 of them;")
print("exact tracking needs one independent input channel per component:")
for q, p in ((8, 9), (7, 8), (8, 8)):
    sys_ = build_linear_moment_system(q, p)
    ref = ot_moment_reference(plan, MONOMIAL_PARAM, q, tgrid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverWarning)
        res = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, dt)
    tag = "matched" if p == q + 1 else ("lowered order" if q == 7 else "one short")
    print(f"  q={q}, p={p} ({tag}):  max residual {res.residuals.max():.2e}, "
          f"rank(H) = {sys_.h_rank}")

print()
print("== fixed-endpoint LQ tracking, p = 4 < q = 8 ==")
q, p = 8, 4
sys_ = build_linear_moment_system(q, p)
ref = ot_moment_reference(plan, MONOMIAL_PARAM, q, tgrid)
setup = LQSetup(np.eye(p), ref.m_star[0].real, ref.m_star[-1].real)
res = lq_tracking_tpbvp(sys_, ref, setup, dt)
print(f"boundary residuals: start {np.linalg.norm(res.moments[0] - setup.m_start):.1e},"
      f" end {res.info['boundary_residual_end']:.2e}")
print(f"matching-system condition: {res.info['matching_condition']:.2e}"
      f"   (initial costate norm {np.linalg.norm(res.info['lambda_trace'][0]):.2e})")
print(f"peak input amplitude: {np.abs(res.control.values).max():.1f}")
print(f"ODE defect against the exact solution (scaled): "
      f"{tpbvp_ode_residual(sys_, ref, setup, res):.1e}")
gap = tpbvp_optimality_gap(sys_, ref, setup, res)
print(f"first-order optimality gap over endpoint-preserving variations: {gap:.1e}")
