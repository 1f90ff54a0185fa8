"""The benchmark's own test: ``python3 -m pytest bench/test_bench.py``.

Runs every workload once at the reduced ``--tiny`` size, untraced and traced,
and checks the printed metrics against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = [m["name"] for m in SPEC["per_layer"]
                if m["name"].endswith((".calls", ".member_steps", "csv_bytes"))
                or m["name"] in ("tracking.iterations", "tracking.cost_evals")]


def run(workload: str, trace: int, root: Path = ROOT) -> tuple:
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    return provenance, json.loads(lines[-1])


def check_metrics(result: dict, specs: list) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_repeats_counts(workload):
    _, untraced = run(workload, 0)
    check_metrics(untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    provenance, first = run(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    assert provenance["absent_layers"] == []
    _, second = run(workload, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_deleted_private_boundary_is_reported_absent(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cli = tmp_path / "src" / "momentsteer" / "cli.py"
    cli.write_text(cli.read_text().replace("_final_states_from_csv", "_read_final_states"))

    provenance, result = run("labeled", 1, root=tmp_path)
    check_metrics(result, SPEC["per_layer"])
    assert provenance["absent_layers"] == ["cli:_final_states_from_csv"]
    assert result["metrics"]["cli.read_csv_s"]["value"] == 0.0
