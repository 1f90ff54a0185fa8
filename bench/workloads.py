"""Workload scenarios, generated from a workload seed.

The base scenarios are copies of the files shipped in ``scenarios/`` when
the benchmark was defined.  They live here, not in ``scenarios/``, so that a
change to a shipped file cannot change what the benchmark measures.  Seed 0
reproduces the shipped targets; any other seed moves the target a little:
the mixture means and weights for the linear family, the target angle for
Kuramoto.  Validate's sampling seed is the scenario's own fixed seed: with a
seed-dependent draw of 1000 samples, W2 alone spreads by about 30 % between
seeds, which would hide any quality change the bounds are there to catch.

Iteration budgets are cut from the shipped 120 (linear) and 80 (Kuramoto),
which cost about 150 s and 130 s per run, to 4 and 3.  Each threshold is one
that the scenario meets at its budget, so a loss of quality fails the op.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

SIGMA = 0.1414213562373095

_LINEAR_COMMON = {
    "initial": {"kind": "truncated_gaussian", "mean": 0.5, "sigma": SIGMA},
    "target": {"kind": "gaussian_mixture", "means": [0.25, 0.75],
               "sigmas": [SIGMA, SIGMA], "weights": [0.5, 0.5]},
    "q": 8,
    "horizon": 1.0,
}

LABELED_EXACT = {
    "model": {"kind": "linear", "inputs": 9},
    "grid": {"members": 200, "lo": 0.0, "hi": 1.0},
    **copy.deepcopy(_LINEAR_COMMON),
    "basis": "monomial_param",
    "dt": 0.001,
    "solver": {"method": "exact"},
    "thresholds": {"max_residual": 1e-06},
}

LABELED_FIXED_ENDPOINT = {
    "model": {"kind": "linear", "inputs": 4},
    "grid": {"members": 200, "lo": 0.0, "hi": 1.0},
    **copy.deepcopy(_LINEAR_COMMON),
    "basis": "monomial_param",
    "dt": 0.001,
    "solver": {"method": "tpbvp", "verify": True},
    "thresholds": {"boundary_residual": 1e-07},
}

UNLABELED_SHOOTING = {
    "model": {"kind": "linear", "inputs": 8},
    "grid": {"members": 2000, "lo": 0.0, "hi": 1.0},
    **copy.deepcopy(_LINEAR_COMMON),
    "basis": "monomial_output",
    "dt": 0.002,
    "solver": {"method": "shooting", "intervals": 50, "iterations": 4,
               "energy_weight": 0.0001, "initial_guess": "terminal_profile",
               "optimize_dt": 0.002, "optimize_members": 300},
    # W2 is 0.061 after 4 iterations.  A 5th iteration meets the shipped 0.05,
    # but its first line-search trial sits on the Armijo boundary for the
    # shipped target: about a third of nearby targets halve once more, which
    # moves W2 from 0.035 to 0.047 and the cost by 16 %.
    "thresholds": {"w2": 0.07},
    "seed": 20260808,
    "samples": 1000,
}

KURAMOTO_SYNC = {
    "model": {"kind": "kuramoto", "coupling": 2.0},
    "grid": {"members": 200, "lo": -1.0, "hi": 1.0},
    "initial": {"kind": "uniform_circle"},
    "target": {"kind": "point_mass", "value": 3.141592653589793},
    "basis": "fourier",
    "q": 10,
    "horizon": 1.0,
    "dt": 0.002,
    "solver": {"method": "shooting", "intervals": 50, "iterations": 3,
               "energy_weight": 0.001},
    # r(1) is 0.33 after 3 iterations; the shipped 0.9 needs about 20
    "thresholds": {"final_order_parameter": 0.3},
    "seed": 7,
    "samples": 1000,
}

# Reduced sizes for the benchmark's own test: same code paths, seconds per op.
_TINY = {
    "labeled_exact": {"dt": 0.005},
    "labeled_fixed_endpoint": {"dt": 0.005},
    "unlabeled_shooting": {"grid": {"members": 400, "lo": 0.0, "hi": 1.0},
                           "solver": {"intervals": 10, "iterations": 1,
                                      "optimize_members": 40},
                           "thresholds": {"w2": 0.2}},
    "kuramoto_sync": {"grid": {"members": 40, "lo": -1.0, "hi": 1.0},
                      "solver": {"intervals": 10, "iterations": 1},
                      "thresholds": {"final_order_parameter": 0.05}},
}

# Target moves per seed; small enough that W2 and the tracking cost stay
# within a few percent of the seed-0 values.
MEAN_SHIFT = 0.001
WEIGHT_SHIFT = 0.0025
ANGLE_SHIFT = 0.02

WORKLOADS = {
    "labeled": [("labeled_exact", LABELED_EXACT),
                ("labeled_fixed_endpoint", LABELED_FIXED_ENDPOINT)],
    "unlabeled-shooting": [("unlabeled_shooting", UNLABELED_SHOOTING)],
    "kuramoto-shooting": [("kuramoto_sync", KURAMOTO_SYNC)],
}


def _perturb_target(target: dict, rng: random.Random) -> None:
    if target["kind"] == "gaussian_mixture":
        target["means"] = [m + rng.uniform(-MEAN_SHIFT, MEAN_SHIFT) for m in target["means"]]
        w0 = target["weights"][0] + rng.uniform(-WEIGHT_SHIFT, WEIGHT_SHIFT)
        target["weights"] = [w0, 1.0 - w0]
    else:
        target["value"] += rng.uniform(-ANGLE_SHIFT, ANGLE_SHIFT)


def scenarios(workload: str, seed: int, tiny: bool = False) -> list:
    """(name, scenario dict) pairs that one op of ``workload`` runs, in order."""
    out = []
    for name, base in WORKLOADS[workload]:
        scn = copy.deepcopy(base)
        if tiny:
            for key, value in _TINY[name].items():
                if key in ("solver", "thresholds"):
                    scn[key].update(value)
                else:
                    scn[key] = value
        if seed != 0:
            _perturb_target(scn["target"], random.Random(f"{workload}/{seed}"))
        out.append((name, scn))
    return out


def scenario_hash(scn: dict) -> str:
    text = json.dumps(scn, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
