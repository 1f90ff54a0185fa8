"""The in-package L-BFGS against SciPy's L-BFGS-B, the optimizer it replaced.

With no bounds, ``gtol = ftol = 0`` and the default memory, L-BFGS-B runs the
same iteration, so the oracle must take the same steps: the same iteration
and evaluation counts, the same stop reason and the same costs up to
rounding.  Rounding differences grow along a run (the compact and the
two-loop form of the same matrix round differently), so each run is kept
short enough for 1e-12.
"""

import warnings

import numpy as np
import pytest

from momentsteer import direct_shooting, lbfgs
from test_tracking import _scipy_run, _scipy_shooting, _shooting_case


def _rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    return float(np.sum(100.0 * r**2 + (1.0 - x[:-1]) ** 2)), g


def test_lbfgs_matches_scipy_on_rosenbrock():
    x0 = np.tile([-1.2, 1.0], 25)
    values = []

    def fun(x):
        values.append(_rosenbrock(x))
        return values[-1]

    accepted, stop = lbfgs.minimize(fun, x0, 25)
    costs, evaluations, scipy_stop = _scipy_run(_rosenbrock, x0, 25)
    assert (len(accepted) - 1, len(values), stop) == (costs.size - 1, evaluations, scipy_stop)
    assert stop == "budget"
    np.testing.assert_allclose([values[i][0] for i in accepted], costs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["output", "param", "kuramoto"])
def test_shooting_matches_scipy_lbfgsb(kind):
    model, g, x0, basis, q, ref = _shooting_case(kind)
    res = direct_shooting(model, g, x0, ref, n_intervals=4, iterations=10)
    costs, evaluations, stop = _scipy_shooting(model, g, x0, basis, q, ref, 10)
    info = res.info
    assert (info["iterations"], info["evaluations"], info["stop_reason"]) == \
        (costs.size - 1, evaluations, stop)
    np.testing.assert_allclose(info["cost_history"], costs, rtol=1e-12, atol=0)


def test_lbfgs_steps_back_from_undefined_trial():
    # f is a quadratic whose minimum lies outside the region where f is
    # defined; every first trial leaves it, and each run still descends
    # toward the boundary with accepted iterates inside
    target = np.array([3.0, -4.0])
    values = []

    def fun(x):
        inside = np.hypot(*x) < 1.0
        values.append(float(0.5 * np.sum((x - target) ** 2)) if inside else np.inf)
        return values[-1], x - target

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        accepted, stop = lbfgs.minimize(fun, np.zeros(2), 8)
    path = [values[i] for i in accepted]
    assert values[1] == np.inf
    assert len(path) > 2 and np.all(np.isfinite(path)) and np.all(np.diff(path) < 0)
    assert path[-1] < 0.5 * (5.0 - 1.0) ** 2 + 0.01  # within 0.01 of the boundary optimum


def test_lbfgs_gradient_below_float_range_of_its_square():
    # |g|^2 underflows to zero: the first step is capped instead of dividing
    # by a zero norm, and the slope gᵀd, zero in float64, ends the run
    accepted, stop = lbfgs.minimize(lambda x: (1e-200 * float(x @ x), 2e-200 * x),
                                    np.ones(2), 5)
    assert (accepted, stop) == ([0], "line_search")
