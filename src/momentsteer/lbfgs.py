"""Unbounded L-BFGS with the Moré–Thuente line search, in NumPy.

This is the iteration that L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, SIAM J.
Sci. Comput. 16(5)) runs when no variable is bounded: ``MEMORY`` correction
pairs applied by the two-loop recursion with H₀ = (sᵀy / yᵀy)·I, a first
trial step of 1/‖g‖ and unit steps after it, and the MINPACK-2 line search
``dcsrch`` with its safeguarded step ``dcstep`` (Moré & Thuente 1994, ACM
TOMS 20(3)).  A pair whose curvature sᵀy is not safely positive is skipped.
A failed search clears the memory and restarts along -g; with the memory
already empty the run ends.

It departs from L-BFGS-B in one place.  A trial at which ``f`` or its slope
is not finite (a forward run that overflows) marks the end of the domain of
``f``: the search retries halfway back to its best step so far and never
steps past that point again, where L-BFGS-B would end the run.  Dot
products are taken on operands scaled by powers of two, which changes no
bit of a finite result but keeps a huge gradient from overflowing in the
terms of a product that is itself finite.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

__all__ = ["minimize"]

MEMORY = 10                        # correction pairs kept
FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1  # sufficient decrease, curvature, bracket width
MAX_TRIALS = 20                    # function evaluations per line search
STPMAX = 1e10                      # largest step
XTRAPL, XTRAPU = 1.1, 4.0          # bounds of an extrapolated step
EPS = float(np.finfo(float).eps)


def _pow2(a) -> float:
    """A power of two just above max|a| (1 if ``a`` is zero or not finite)."""
    top = float(np.abs(a).max())
    return math.ldexp(1.0, math.frexp(top)[1]) if 0.0 < top < math.inf else 1.0


def _dot(a, b) -> float:
    """aᵀb from operands scaled by powers of two.  The scaling is exact, so
    this equals ``a @ b`` wherever that is finite; it gives ±inf, without a
    NumPy warning, only where the product itself overflows."""
    sa, sb = _pow2(a), _pow2(b)
    return float((a / sa) @ (b / sb)) * (sa * sb)


def _direction(g, memory, gamma):
    """-H·g for the L-BFGS inverse Hessian H of the stored pairs
    ``(s, y, 1/sᵀy)`` with H₀ = gamma·I (two-loop recursion)."""
    q = -g
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q = q - alphas[-1] * y
    q = gamma * q
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q = q + (alpha - rho * (y @ q)) * s
    return q


def _cubic(sta, fa, da, stp, fp, dp):
    """theta and gamma of the cubic through (sta, fa, da) and (stp, fp, dp),
    gamma signed negative when stp > sta, as ``dcstep`` forms them."""
    theta = 3.0 * (fa - fp) / (stp - sta) + da + dp
    s = max(abs(theta), abs(da), abs(dp))
    gamma = s * np.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (dp / s)))
    return theta, -gamma if stp > sta else gamma


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: the next trial step from the best step ``stx``,
    the other bracket end ``sty`` and the trial ``stp`` (values ``f``,
    slopes ``d``), with the updated bracket.  Returns
    ``(stx, fx, dx, sty, fy, dy, stp, brackt)``."""
    stx, fx, dx, sty, fy, dy, stp, fp, dp = map(np.float64, (stx, fx, dx, sty, fy, dy,
                                                             stp, fp, dp))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sgnd = dp * np.sign(dx)
        if fp > fx:  # a higher value: the minimum is bracketed
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
            gamma = -gamma
            stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
            brackt = True
        elif sgnd < 0.0:  # the slope changed sign: bracketed
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
            stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):  # the same sign, a smaller slope
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
            r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
            if r < 0.0 and gamma != 0.0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                edge = stp + 0.66 * (sty - stp)
                stpf = min(edge, stpf) if stp > stx else max(edge, stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = max(stpmin, min(stpmax, stpf))
        elif brackt:  # a slope no smaller: the cubic toward sty
            theta, gamma = _cubic(sty, fy, dy, stp, fp, dp)
            stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return (float(stx), float(fx), float(dx), float(sty), float(fy), float(dy),
            float(stpf), brackt)


def _search(evaluate, x, f0, ginit, d, stp):
    """MINPACK-2 ``dcsrch`` along ``d`` from ``x``, started at step ``stp``:
    a step with f ≤ f0 + FTOL·stp·ginit and |gᵀd| ≤ GTOL·|ginit|, where
    ``ginit`` is the slope at ``x``.  Returns ``(stp, x, f, g, gᵀd)`` of the
    accepted trial (one that meets both conditions, or at which dcsrch stops
    with a warning), or ``None`` if ``d`` is no descent direction or
    ``MAX_TRIALS`` trials pass without acceptance."""
    if not -math.inf < ginit < 0.0:
        return None
    gtest = FTOL * ginit
    stpmax, brackt, stage = STPMAX, False, 1
    width, width1 = STPMAX, 2.0 * STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = ginit
    stmin, stmax = 0.0, stp + XTRAPU * stp
    for _ in range(MAX_TRIALS):
        with np.errstate(over="ignore", invalid="ignore"):
            xt = x + stp * d
        f = gd = math.inf
        if np.isfinite(xt).all():
            f, g = evaluate(xt)
            with np.errstate(over="ignore", invalid="ignore"):
                gd = _dot(g, d)
        if not (math.isfinite(f) and math.isfinite(gd)):
            # f ends before stp: retry halfway back, and never step past that
            stp = stx + (stp - stx) / 2.0
            if stp > stx:
                stpmax = stp
            continue
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and gd >= 0.0:
            stage = 2
        if (f <= ftest and abs(gd) <= GTOL * -ginit
                or brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax)
                or stp == stpmax and f <= ftest and gd <= gtest
                or stp == 0.0 and (f > ftest or gd >= gtest)):
            return stp, xt, f, g, gd
        # in stage 1 a value between the sufficient-decrease line and fx is
        # interpolated on the modified function f(stp) - stp·gtest
        shift = gtest if stage == 1 and ftest < f <= fx else 0.0
        stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
            stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
            stp, f - stp * shift, gd - shift, brackt, stmin, stmax)
        fx, fy, gx, gy = fx + stx * shift, fy + sty * shift, gx + shift, gy + shift
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:  # too slow a shrink: bisect
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + XTRAPL * (stp - stx), stp + XTRAPU * (stp - stx)
        stp = min(max(stp, 0.0), stpmax)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
            stp = stx
    return None


def minimize(fun, x0, maxiter: int):
    """Minimize f by L-BFGS from ``x0``, taking at most ``maxiter`` steps.

    ``fun(x)`` returns ``(f, g)``: the value, which may be ``inf`` where f
    is not defined but must be finite at ``x0``, and the gradient.  Returns
    ``(accepted, stop)``.  ``accepted`` holds the number of the evaluation
    that gave the start (0) and of each accepted iterate, each of which is
    the last evaluation of its line search.  ``stop`` is ``"budget"``
    (``maxiter`` steps taken), ``"gradient_zero"`` (g is exactly zero) or
    ``"line_search"`` (a search failed with the memory empty, or the last
    accepted step did not lower f).
    """
    count, last = 0, (None, None)

    def evaluate(v):  # a point evaluated just before is not evaluated again
        nonlocal count, last
        if not np.array_equal(v, last[0]):
            count += 1
            last = v, fun(v)
        return last[1]

    x = np.array(x0, dtype=float)
    f, g = evaluate(x)
    accepted, memory, gamma = [0], deque(maxlen=MEMORY), 1.0
    while True:
        if len(accepted) > maxiter:
            return accepted, "budget"
        if not g.any():
            return accepted, "gradient_zero"
        if len(accepted) > 1 and f_prev - f <= 0.0:
            return accepted, "line_search"
        with np.errstate(over="ignore", invalid="ignore"):
            d = _direction(g, memory, gamma)
        gd = _dot(g, d) if np.isfinite(d).all() else math.nan
        stp = 1.0
        if len(accepted) == 1:  # the first trial step has unit length
            norm = math.sqrt(_dot(d, d))
            stp = 1.0 / norm if norm * STPMAX > 1.0 else STPMAX
        found = _search(evaluate, x, f, gd, d, stp)
        if found is None and memory:  # forget the pairs and restart along -g
            memory.clear()
            gamma = 1.0
            continue
        if found is None:
            return accepted, "line_search"
        stp, x_new, f_new, g_new, gd_new = found
        with np.errstate(over="ignore", invalid="ignore"):
            y = g_new - g
        sy = (gd_new - gd) * stp
        if sy > EPS * (-gd * stp):  # otherwise skip the update
            memory.append((stp * d, y, 1.0 / sy))
            gamma = sy / _dot(y, y)
        f_prev, x, f, g = f, x_new, f_new, g_new
        accepted.append(count - 1)
