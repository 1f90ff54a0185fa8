"""Scenario files: strict parsing, and resolution into models, grids,
measures, initial states and transport references.

A scenario is a single JSON document with nested sections.  Unknown keys are
rejected so that typos fail fast; missing required fields are reported by
name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ensembles import Kuramoto, LinearScalar, ParameterGrid, make_uniform_grid
from .measures import (
    EmpiricalMeasure,
    GridDensity,
    cdf,
    quantile,
    truncated_gaussian,
    truncated_gaussian_mixture,
)
from .moments import FOURIER, MONOMIAL_OUTPUT, MONOMIAL_PARAM
from .transport import circular_plan, mccann_plan, ot_moment_reference

__all__ = ["Scenario", "load_scenario"]

_MODEL_KEYS = {"kind", "inputs", "coupling"}
_GRID_KEYS = {"members", "lo", "hi"}
_MEASURE_KEYS = {"kind", "value", "mean", "sigma", "means", "sigmas", "weights"}
_SOLVER_KEYS = {
    "method",
    "r_scale",
    "verify",
    "intervals",
    "iterations",
    "energy_weight",
    "initial_guess",
    "optimize_dt",
    "optimize_members",
}
# optional numeric fields: (section, key, lowest value, integer, bound strict)
_NUMBERS = [("model", "inputs", 1, True, False), ("model", "coupling", 0, False, False),
            ("solver", "intervals", 1, True, False), ("solver", "iterations", 0, True, False),
            ("solver", "r_scale", 0, False, True), ("solver", "energy_weight", 0, False, False),
            ("solver", "optimize_dt", 0, False, True),
            ("solver", "optimize_members", 2, True, False)]
# number fields of a measure spec, and those that hold one number per component
_MEASURE_NUMBERS = ("value", "mean", "sigma")
_MEASURE_LISTS = ("means", "sigmas", "weights")
_THRESHOLD_KEYS = {"max_residual", "boundary_residual", "final_order_parameter", "w2", "cost"}
_TOP_KEYS = {
    "model",
    "grid",
    "initial",
    "target",
    "basis",
    "q",
    "horizon",
    "dt",
    "solver",
    "thresholds",
    "seed",
    "samples",
    "reference_points",
}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return section[key]


def _check_measure(spec: dict, where: str):
    """Reject a measure spec with an unknown key or a number field that is
    not a finite number; a list field is checked element by element."""
    _check_keys(spec, _MEASURE_KEYS, where)
    for key in _MEASURE_NUMBERS + _MEASURE_LISTS:
        value = spec.get(key)
        if key in _MEASURE_LISTS and isinstance(value, list):
            for i, v in enumerate(value):
                _number(v, f"{where}.{key}[{i}]")
        elif key in spec:
            _number(value, f"{where}.{key}")


def _number(value, name: str, low: float = -math.inf, integer: bool = False,
            strict: bool = False):
    """``value`` if it is a finite number (an integer if ``integer``) of at
    least ``low`` (above it if ``strict``); else a ConfigError naming ``name``."""
    ok = not isinstance(value, bool) and isinstance(value, int if integer else (int, float))
    if not (ok and (integer or math.isfinite(value)) and (value > low if strict else value >= low)):
        kind = "an integer" if integer else "a finite number"
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
    return value


@dataclass
class Scenario:
    """Validated scenario: everything a pipeline run needs, nothing implicit."""

    model: dict
    grid: dict
    initial: dict
    basis: str
    q: int
    horizon: float
    dt: float
    solver: dict
    target: dict | None = None
    thresholds: dict = field(default_factory=dict)
    seed: int = 0
    samples: int = 1000
    reference_points: int = 201

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        _check_keys(raw, _TOP_KEYS, "scenario")
        model = dict(_need(raw, "model", "scenario"))
        _check_keys(model, _MODEL_KEYS, "model")
        kind = _need(model, "kind", "model")
        if kind not in ("linear", "kuramoto"):
            raise ConfigError(f"unknown model kind '{kind}'")
        grid = dict(_need(raw, "grid", "scenario"))
        _check_keys(grid, _GRID_KEYS, "grid")
        _number(_need(grid, "members", "grid"), "grid.members", 2, integer=True)
        for k in ("lo", "hi"):
            _number(_need(grid, k, "grid"), f"grid.{k}")
        initial = dict(_need(raw, "initial", "scenario"))
        _check_measure(initial, "initial")
        target = raw.get("target")
        if target is not None:
            target = dict(target)
            _check_measure(target, "target")
        basis = _need(raw, "basis", "scenario")
        if basis not in (MONOMIAL_PARAM, MONOMIAL_OUTPUT, FOURIER):
            raise ConfigError(f"unknown basis '{basis}'")
        q = _number(_need(raw, "q", "scenario"), "q", 1, integer=True)
        if q > 16:
            raise ConfigError("q must lie in [1, 16]")
        horizon = float(_number(_need(raw, "horizon", "scenario"), "horizon", 0))
        dt = float(_number(_need(raw, "dt", "scenario"), "dt", 0, strict=True))
        solver = dict(_need(raw, "solver", "scenario"))
        _check_keys(solver, _SOLVER_KEYS, "solver")
        method = _need(solver, "method", "solver")
        if method not in ("exact", "tpbvp", "shooting"):
            raise ConfigError(f"unknown solver method '{method}'")
        sections = {"model": model, "solver": solver}
        for where, key, low, integer, strict in _NUMBERS:
            if key in sections[where]:
                _number(sections[where][key], f"{where}.{key}", low, integer, strict)
        thresholds = dict(raw.get("thresholds", {}))
        _check_keys(thresholds, _THRESHOLD_KEYS, "thresholds")
        return cls(
            model=model,
            grid=grid,
            initial=initial,
            basis=basis,
            q=q,
            horizon=horizon,
            dt=dt,
            solver=solver,
            target=target,
            thresholds=thresholds,
            seed=_number(raw.get("seed", 0), "seed", 0, integer=True),
            samples=_number(raw.get("samples", 1000), "samples", 1, integer=True),
            reference_points=_number(raw.get("reference_points", 201), "reference_points", 2,
                                     integer=True),
        )

    def to_dict(self) -> dict:
        """The scenario as a JSON object; an absent target or empty thresholds are left out."""
        return {k: v for k, v in vars(self).items() if v is not None and v != {}}

    def build_model(self):
        if self.model["kind"] == "linear":
            return LinearScalar(int(self.model.get("inputs", 1)))
        return Kuramoto(float(self.model.get("coupling", 0.0)))

    def build_grid(self, members: int | None = None) -> ParameterGrid:
        """The scenario's parameter grid, optionally with another member count."""
        g = self.grid
        n = int(g["members"] if members is None else members)
        return make_uniform_grid(n, float(g["lo"]), float(g["hi"]))

    def resolve_measure(self, spec: dict, where: str):
        kind = _need(spec, "kind", where)
        if kind == "uniform":
            return GridDensity((0.0, 1.0), np.ones(2001))
        if kind == "truncated_gaussian":
            return truncated_gaussian(float(_need(spec, "mean", where)),
                                      float(_need(spec, "sigma", where)))
        if kind == "gaussian_mixture":
            return truncated_gaussian_mixture(
                _need(spec, "means", where), _need(spec, "sigmas", where),
                _need(spec, "weights", where))
        if kind == "point_mass":
            return EmpiricalMeasure(np.array([float(_need(spec, "value", where))]),
                                    np.array([1.0]))
        if kind == "uniform_circle":
            raise ConfigError(f"'uniform_circle' is only valid as an initial condition ({where})")
        if kind == "constant":
            raise ConfigError(f"'constant' is only valid as an initial condition ({where})")
        raise ConfigError(f"unknown measure kind '{kind}' in {where}")

    def member_levels(self, grid: ParameterGrid) -> np.ndarray:
        return np.cumsum(grid.weights) - grid.weights / 2

    def initial_state(self, grid: ParameterGrid) -> np.ndarray:
        """Member values realizing the initial spec for the chosen basis."""
        kind = _need(self.initial, "kind", "initial")
        if self.basis == MONOMIAL_PARAM:
            if kind == "constant":
                return np.full(grid.size, float(_need(self.initial, "value", "initial")))
            dens = self.resolve_measure(self.initial, "initial")
            if not isinstance(dens, GridDensity):
                raise ConfigError("labeled runs need a density-valued initial condition")
            return np.interp(grid.nodes, dens.xs, dens.values)
        if self.basis == MONOMIAL_OUTPUT:
            if kind == "constant":
                return np.full(grid.size, float(_need(self.initial, "value", "initial")))
            mu0 = self.resolve_measure(self.initial, "initial")
            return np.asarray(quantile(cdf(mu0), self.member_levels(grid)), dtype=float)
        # fourier: phases on the circle
        if kind == "uniform_circle":
            return 2 * np.pi * self.member_levels(grid)
        if kind == "point_mass":
            return np.full(grid.size, float(_need(self.initial, "value", "initial")) % (2 * np.pi))
        raise ConfigError(f"initial kind '{kind}' is not valid for phase ensembles")

    def initial_output_measure(self, grid: ParameterGrid):
        """The initial condition as a measure, for transport planning."""
        if self.basis == MONOMIAL_PARAM:
            kind = _need(self.initial, "kind", "initial")
            if kind == "constant":
                value = float(_need(self.initial, "value", "initial"))
                half = (grid.nodes[1] - grid.nodes[0]) / 2  # midpoint-rule margin
                support = (grid.nodes[0] - half, grid.nodes[-1] + half)
                return GridDensity.normalized(support, np.full(64, value))
            return self.resolve_measure(self.initial, "initial")
        if self.basis == MONOMIAL_OUTPUT:
            kind = _need(self.initial, "kind", "initial")
            if kind == "constant":
                return EmpiricalMeasure(
                    np.array([float(_need(self.initial, "value", "initial"))]), np.array([1.0]))
            return self.resolve_measure(self.initial, "initial")
        return EmpiricalMeasure(self.initial_state(grid), grid.weights.copy())

    def build_reference(self, grid: ParameterGrid, time_grid=None):
        """Transport plan and moment reference from initial to target.

        The unit transport stage is traversed over the scenario horizon.
        """
        if self.target is None:
            raise ConfigError("missing required field 'target' in scenario")
        if self.horizon <= 0:
            raise ConfigError("reference construction needs a positive horizon")
        if time_grid is None:
            time_grid = np.linspace(0.0, self.horizon, self.reference_points)
        if self.basis == FOURIER:
            tkind = _need(self.target, "kind", "target")
            if tkind != "point_mass":
                raise ConfigError("phase ensembles support point-mass targets only")
            theta_star = float(_need(self.target, "value", "target"))
            plan = circular_plan(self.initial_output_measure(grid), theta_star)
        else:
            mu0 = self.initial_output_measure(grid)
            mu1 = self.resolve_measure(self.target, "target")
            plan = mccann_plan(mu0, mu1)
        return plan, ot_moment_reference(plan, self.basis, self.q, time_grid)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    return Scenario.from_dict(raw)
