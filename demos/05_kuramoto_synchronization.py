"""Synchronizing a Kuramoto ensemble by steering its phase distribution
toward a point mass: trigonometric-moment tracking with direct shooting.

Run:  python demos/05_kuramoto_synchronization.py   (about a minute)
"""
import numpy as np

from momentsteer import (
    FOURIER,
    Kuramoto,
    circular_plan,
    direct_shooting,
    make_uniform_grid,
    mean_field,
    ot_moment_reference,
    pushforward,
    simulate,
)

n, q, intervals = 100, 10, 25
grid = make_uniform_grid(n, -1.0, 1.0)           # natural frequencies
theta0 = 2 * np.pi * (np.cumsum(grid.weights) - grid.weights / 2)  # uniform phases
model = Kuramoto(coupling=2.0)

r0, _ = mean_field(theta0, grid)
print(f"initial order parameter r(0) = {r0:.2e} (uniform phases)")

# Reference: move every phase along its shorter arc toward the target angle;
# the trigonometric moments of that path are the tracking reference.
plan = circular_plan(pushforward(grid, theta0), np.pi)
ref = ot_moment_reference(plan, FOURIER, q, np.linspace(0.0, 1.0, intervals + 1))
print(f"reference |m_1|: {np.abs(ref.m_star[0, 1]):.2e} -> {np.abs(ref.m_star[-1, 1]):.2f}")

res = direct_shooting(model, grid, theta0, ref,
                      n_intervals=intervals, iterations=50, dt=2e-3)
hist = res.info["cost_history"]
print(f"shooting cost: {hist[0]:.4f} -> {hist[-1]:.4f} over {len(hist) - 1} accepted steps")

traj = simulate(model, theta0, grid, res.control, 1e-3)
marks = np.linspace(0, traj.times.size - 1, 6).astype(int)
print("order parameter along the run:")
for i in marks:
    r, psi = mean_field(traj.states[i], grid)
    print(f"  t={traj.times[i]:.1f}:  r={r:.3f}  mean phase={psi:+.2f}")
print(f"peak input amplitude: {np.abs(res.control.values).max():.2f}")
