"""Scenario files: strict parsing, and resolution into models, grids,
measures, initial states and transport references.

A scenario is a single JSON object with nested sections.  Its format is the
field table ``_SCENARIO`` below: every field's rule and default.  Loading
checks every field against it, so unknown keys, missing fields and values of
the wrong kind or range fail fast with a ConfigError naming the field.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
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
from .transport import MomentReference, circular_plan, mccann_plan, ot_moment_reference

__all__ = ["Scenario", "load_scenario"]


@dataclass(frozen=True)
class _Num:
    """Rule: a finite number (an integer if ``integer``) in [low, high], or
    above ``low`` if ``strict``.  A number that need not be an integer is
    loaded as a float."""

    low: float = -math.inf
    high: float = math.inf
    integer: bool = False
    strict: bool = False

    def check(self, value, name: str):
        ok = not isinstance(value, bool) and isinstance(value, int if self.integer else (int, float))
        # abs(value) <= float max: finite, and also false for nan and for an
        # integer too large to convert
        if not (ok and (self.integer or abs(value) <= sys.float_info.max) and value <= self.high
                and (value > self.low if self.strict else value >= self.low)):
            text = "an integer" if self.integer else "a finite number"
            if self.low > -math.inf:
                text += f" {'>' if self.strict else '>='} {self.low:g}"
            if self.high < math.inf:
                text += f" and <= {self.high:g}"
            raise ConfigError(f"{name} must be {text}, got {value!r}")
        return value if self.integer else float(value)


@dataclass(frozen=True)
class _Variants:
    """Rule: an object whose other keys depend on the value of ``key``;
    ``tables`` maps each allowed value to the field table of the other keys."""

    key: str
    tables: dict


# The field table: key -> (rule, default).  A rule is a _Num, a tuple of the
# allowed values, ``bool``, ``[rule]`` for a list, a nested field table or a
# _Variants.  _REQUIRED marks a field without a default; a default of None
# means "not set", and such a field also accepts null.
_REQUIRED = object()
_NUMBER = _Num()
_MEASURES = {
    "uniform": {},
    "truncated_gaussian": {"mean": (_NUMBER, _REQUIRED), "sigma": (_NUMBER, _REQUIRED)},
    "gaussian_mixture": {key: ([_NUMBER], _REQUIRED) for key in ("means", "sigmas", "weights")},
    "point_mass": {"value": (_NUMBER, _REQUIRED)},
}
_SCENARIO = {
    "model": (_Variants("kind", {
        "linear": {"inputs": (_Num(1, integer=True), 1)},
        "kuramoto": {"coupling": (_Num(0), 0.0)},
    }), _REQUIRED),
    "grid": ({"members": (_Num(2, integer=True), _REQUIRED), "lo": (_NUMBER, _REQUIRED),
              "hi": (_NUMBER, _REQUIRED)}, _REQUIRED),
    # initial conditions only: constant member values, phases spread over the circle
    "initial": (_Variants("kind", {**_MEASURES, "constant": {"value": (_NUMBER, _REQUIRED)},
                                   "uniform_circle": {}}), _REQUIRED),
    "target": (_Variants("kind", _MEASURES), None),
    "basis": ((MONOMIAL_PARAM, MONOMIAL_OUTPUT, FOURIER), _REQUIRED),
    "q": (_Num(1, 16, integer=True), _REQUIRED),
    "horizon": (_Num(0), _REQUIRED),
    "dt": (_Num(0, strict=True), _REQUIRED),
    "solver": (_Variants("method", {
        "exact": {},
        "tpbvp": {"r_scale": (_Num(0, strict=True), 1.0), "verify": (bool, False)},
        "shooting": {
            "intervals": (_Num(1, integer=True), 50),
            "iterations": (_Num(0, integer=True), 300),
            "energy_weight": (_Num(0), 1e-3),
            "initial_guess": (("zero", "terminal_profile"), "zero"),
            "optimize_dt": (_Num(0, strict=True), None),
            "optimize_members": (_Num(2, integer=True), None),
        },
    }), _REQUIRED),
    "thresholds": ({key: (_NUMBER, None) for key in (
        "max_residual", "boundary_residual", "final_order_parameter", "w2", "cost")}, {}),
    "seed": (_Num(0, integer=True), 0),
    "samples": (_Num(1, integer=True), 1000),
    "reference_points": (_Num(2, integer=True), 201),
}


def _check(rule, value, name: str):
    """``value`` checked against ``rule``, with every default filled in; a
    ConfigError names the first field that breaks the rule.  ``name`` is the
    field's dotted path, empty for the whole scenario."""
    if isinstance(rule, _Num):
        return rule.check(value, name)
    if rule is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"{name} must be one of {list(rule)}, got {value!r}")
        return value
    if isinstance(rule, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_check(rule[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
    where = name or "scenario"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    if isinstance(rule, _Variants):
        tag = _field(value, rule.key, tuple(rule.tables), _REQUIRED, name)
        where = f"{where} with {rule.key} {tag!r}"
        rule = {rule.key: (tuple(rule.tables), _REQUIRED), **rule.tables[tag]}
    unknown = set(value) - set(rule)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return {key: _field(value, key, sub, default, name) for key, (sub, default) in rule.items()}


def _field(section: dict, key: str, rule, default, name: str):
    path = f"{name}.{key}" if name else key
    value = section.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing required field '{path}'")
    return None if value is None and default is None else _check(rule, value, path)


@dataclass
class Scenario:
    """Validated scenario: every field of ``_SCENARIO``, defaults filled in."""

    model: dict
    grid: dict
    initial: dict
    target: dict | None
    basis: str
    q: int
    horizon: float
    dt: float
    solver: dict
    thresholds: dict
    seed: int
    samples: int
    reference_points: int

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        return cls(**_check(_SCENARIO, raw, ""))

    def to_dict(self) -> dict:
        """The scenario as a JSON object, with its defaults filled in."""
        return asdict(self)

    def build_model(self):
        if self.model["kind"] == "linear":
            return LinearScalar(self.model["inputs"])
        return Kuramoto(self.model["coupling"])

    def build_grid(self, members: int | None = None) -> ParameterGrid:
        """The scenario's parameter grid, optionally with another member count."""
        g = self.grid
        return make_uniform_grid(g["members"] if members is None else members, g["lo"], g["hi"])

    def resolve_measure(self, spec: dict, where: str):
        """The measure of the section ``spec`` at the field path ``where``; a
        ConfigError of the measure's own checks is prefixed with that path.
        A labeled ``constant`` initial is the constant density on the grid's
        interval, so it must have unit mass."""
        kind = spec["kind"]
        if kind == "uniform":
            return GridDensity((0.0, 1.0), np.ones(2001))
        try:
            if kind == "truncated_gaussian":
                return truncated_gaussian(spec["mean"], spec["sigma"])
            if kind == "gaussian_mixture":
                return truncated_gaussian_mixture(spec["means"], spec["sigmas"], spec["weights"])
            if kind == "constant" and self.basis == MONOMIAL_PARAM:
                return GridDensity((self.grid["lo"], self.grid["hi"]), np.full(64, spec["value"]))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if kind in ("point_mass", "constant"):  # every member at one value
            return EmpiricalMeasure(np.array([spec["value"]]), np.array([1.0]))
        raise ConfigError(f"{where} kind '{kind}' is not valid for the {self.basis} basis")

    def resolve_target(self):
        """The target: its angle for a phase ensemble, else its measure."""
        if self.target is None:
            raise ConfigError("missing required field 'target'")
        if self.basis != FOURIER:
            return self.resolve_measure(self.target, "target")
        if self.target["kind"] != "point_mass":
            raise ConfigError("phase ensembles support point-mass targets only")
        return self.target["value"]

    def member_levels(self, grid: ParameterGrid) -> np.ndarray:
        return np.cumsum(grid.weights) - grid.weights / 2

    def member_values(self, measure, grid: ParameterGrid, where: str) -> np.ndarray:
        """Member values that realize ``measure``, the section at ``where``,
        in the scenario's basis: density samples at the nodes for labeled
        runs, else quantiles at the members' midpoint levels."""
        if self.basis != MONOMIAL_PARAM:
            return np.asarray(quantile(cdf(measure), self.member_levels(grid)), dtype=float)
        if not isinstance(measure, GridDensity):
            raise ConfigError(f"{where}: labeled runs need a density, not point masses")
        return np.interp(grid.nodes, measure.xs, measure.values)

    def initial_state(self, grid: ParameterGrid) -> np.ndarray:
        """Member values realizing the initial spec for the chosen basis."""
        kind = self.initial["kind"]
        if self.basis == FOURIER:  # phases on the circle
            if kind == "uniform_circle":
                return 2 * np.pi * self.member_levels(grid)
            if kind == "point_mass":
                return np.full(grid.size, self.initial["value"] % (2 * np.pi))
            raise ConfigError(f"initial kind '{kind}' is not valid for phase ensembles")
        if kind == "constant":  # any value: only a reference needs a unit-mass density
            return np.full(grid.size, self.initial["value"])
        return self.member_values(self.resolve_measure(self.initial, "initial"), grid, "initial")

    def build_reference(self, grid: ParameterGrid, time_grid=None) -> MomentReference:
        """Moment reference from initial to target, with its transport plan
        attached as ``ref.plan``.

        The unit transport stage is traversed over the scenario horizon.
        """
        target = self.resolve_target()
        if self.horizon <= 0:
            raise ConfigError("reference construction needs a positive horizon")
        if time_grid is None:
            time_grid = np.linspace(0.0, self.horizon, self.reference_points)
        if self.basis == FOURIER:  # the initial phases as atoms on the circle
            plan = circular_plan(EmpiricalMeasure(self.initial_state(grid), grid.weights), target)
        else:
            plan = mccann_plan(self.resolve_measure(self.initial, "initial"), target)
        return ot_moment_reference(plan, self.basis, self.q, time_grid)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario.from_dict(raw)
