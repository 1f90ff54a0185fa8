"""A one-field-at-a-time fault sweep of the CLI, driven by the scenario field
table ``scenario._SCENARIO``.

Each shipped scenario is shrunk to 40 members at ``dt`` 0.01 (shooting: 10
intervals, 2 iterations, no ``optimize_*``).  Every numeric field of it,
defaults filled in, is set in turn to +-1e300, 1e-300, +-1e8, 1e-8, the
bounds of its rule and, for an integer, 10**30.  Each case runs ``track``
through ``cli.main``, then ``validate`` when ``track`` exits 0, and must end
in a documented exit code (0, 2, 3 or 4) with no exception escaping
``main``, no ``RuntimeWarning`` and strict JSON; on exit 0 every number
written is finite.

Cases that change ``horizon`` or ``dt`` (up to 1e10 steps) or set a count
to its upper bound run in a subprocess under a 3 GiB address-space limit, so
an allocation beyond memory fails at once instead of being paged in.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from momentsteer.cli import main
from momentsteer.ensembles import MAX_COUNT
from momentsteer.scenario import _SCENARIO, Scenario, _Num, _Variants

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("labeled_exact", "labeled_fixed_endpoint", "unlabeled_shooting", "kuramoto_sync")
# Kuramoto's replay takes its 1e8 steps of 1e-8 one by one: a valid run of
# hours, not a fault.  dt 1e-300 stays in: the step-count rule rejects it
LONG_RUNS = {("kuramoto_sync", "dt=1e-08")}


def _numeric_fields(rule, value, path=()):
    """(path, rule) of every numeric field set in ``value``, a loaded
    scenario section checked against ``rule``."""
    if isinstance(rule, _Num):
        yield path, rule
    elif isinstance(rule, list):
        for i, item in enumerate(value):
            yield from _numeric_fields(rule[0], item, path + (i,))
    elif isinstance(rule, (dict, _Variants)):
        table = rule.tables[value[rule.key]] if isinstance(rule, _Variants) else rule
        for key, (sub, _) in table.items():
            if value.get(key) is not None:
                yield from _numeric_fields(sub, value[key], path + (key,))


def _cases(name):
    """(tag, scenario dict, heavy) of every sweep case of a shipped scenario."""
    spec = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    spec["grid"]["members"], spec["dt"] = 40, 0.01
    if spec["solver"]["method"] == "shooting":
        spec["solver"].update(intervals=10, iterations=2)
        for key in ("optimize_dt", "optimize_members"):
            spec["solver"].pop(key, None)
    base = Scenario.from_dict(spec).to_dict()
    for path, rule in _numeric_fields(_SCENARIO, base):
        values = [1e300, -1e300, 1e-300, 1e8, -1e8, 1e-8]
        values += [b for b in (rule.low, rule.high) if math.isfinite(b)]
        if rule.integer:
            values.append(10**30)
        for value in dict.fromkeys(values):
            tag = ".".join(map(str, path)) + f"={value!r}"
            if (name, tag) in LONG_RUNS:
                continue
            case = json.loads(json.dumps(base))
            section = case
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            yield tag, case, path[0] in ("horizon", "dt") or value == MAX_COUNT


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _problems(spec, work: Path) -> list:
    """What is wrong with one case's run in ``work``; empty when nothing is."""
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(spec))
    out = work / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            codes = [main(["track", "--scenario", str(scenario), "--out", str(out)])]
            if codes == [0]:
                codes.append(main(["validate", "--scenario", str(scenario), "--out", str(out)]))
        except Exception as exc:
            return [f"{type(exc).__name__} escaped main: {exc}"]
    problems = [f"RuntimeWarning: {w.message}" for w in caught
                if issubclass(w.category, RuntimeWarning)]
    problems += [f"exit {code}" for code in codes if code not in (0, 2, 3, 4)]
    for path in sorted(out.glob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    if codes[-1] == 0:
        for path in sorted(out.glob("*.csv")):
            if not np.all(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1))):
                problems.append(f"{path.name}: non-finite numbers on exit 0")
    return problems


def _sweep(name, work: Path, heavy: bool) -> dict:
    """Problems of the light or the heavy cases of ``name``, by case tag."""
    found = {}
    for i, (tag, spec, is_heavy) in enumerate(_cases(name)):
        if is_heavy == heavy:
            problems = _problems(spec, work / str(i))
            if problems:
                found[tag] = problems
    return found


@pytest.mark.parametrize("name", SCENARIOS)
def test_fault_sweep_ends_in_documented_exits(tmp_path, name):
    assert len(list(_cases(name))) > 100
    found = _sweep(name, tmp_path / "light", heavy=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                      env.get("PYTHONPATH")]))
    code = (
        "import json, resource, sys\n"
        "from pathlib import Path\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from test_fault_sweep import _sweep\n"
        "print(json.dumps(_sweep(sys.argv[1], Path(sys.argv[2]), heavy=True)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, name, str(tmp_path / "heavy")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    found.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert found == {}
