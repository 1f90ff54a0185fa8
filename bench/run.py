"""momentsteer benchmark: the plan -> track -> validate pipeline, end to end.

    python3 bench/run.py --workload labeled --seed 1 --seconds 40 --trace 0

One op runs ``track`` then ``validate`` (through ``momentsteer.cli.main``)
on each scenario of the workload, generated from ``--seed``, in a fresh
interpreter with a fresh output directory.  Ops run back to back, one client
in a closed loop, until the next op would overrun ``--seconds`` by more than
a quarter of an op.  An op fails when a command exits non-zero or an
expected output file is missing; the run is incorrect when an op fails or when two ops, in this run or in an
earlier run of the same source tree and seed, disagree in any number of
``summary.json`` or ``validation.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics: self time per op
of each wrapped layer, exact work counts, the tracing overhead (traced minus
untraced pipeline time) and the quality numbers specific to one solver.
Each run writes its provenance, per-op records and spans under
``.bench_build/results/``.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, scenario_hash, scenarios  # noqa: E402

SETUP_ONLY_SPAWNS = 2
# every worker is stopped before the run as a whole reaches this age
RUN_LIMIT_S = 170

TIMED_LAYERS = list(dict.fromkeys(layer for layer, _ in LAYERS))
COUNTS = ["transport.value.calls", "transport.derivative.calls", "tracking.iterations",
          "tracking.cost_evals", "ensembles.batch.member_steps",
          "ensembles.batch.bytes_computed", "ensembles.simulate.member_steps",
          "cli.csv_bytes"]
QUALITY = ["quality.max_residual", "quality.boundary_residual", "quality.optimality_gap",
           "quality.final_order_parameter"]


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "momentsteer").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def spawn(work: Path, index: int, items: list, run_op: bool, trace: bool,
          limit: float) -> dict:
    """Run one worker; return its result dict, or one with ``error`` set."""
    job = work / f"job{index}.json"
    result_path = work / f"result{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    job.write_text(json.dumps({"root": str(ROOT), "op": index, "scenarios": items,
                               "run_op": run_op, "trace": trace,
                               "result": str(result_path), "spawned": spawned}))
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job)],
                              env=env, stdout=sys.stderr, timeout=max(1.0, limit - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "worker stopped at the run's time limit"}
    wall = time.monotonic() - spawned
    if done.returncode != 0 or not result_path.exists():
        return {"error": f"worker exited with code {done.returncode}", "wall_s": wall}
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall
    return result


def op_failure(result: dict):
    if "error" in result:
        return result["error"]
    if any(code != 0 for code in result["codes"]):
        return f"exit codes {result['codes']}"
    if result["missing"]:
        return f"missing outputs {result['missing']}"
    return None


def end_to_end(untraced: list, setups: list) -> dict:
    numbers = untraced[0]["numbers"]
    return {
        "pipeline_s": statistics.median(r["pipeline_s"] for r in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "w2": max(n["validation"]["w2"] for n in numbers.values()),
        "tracking_cost": sum(n["summary"]["cost"] for n in numbers.values()),
    }


def quality(numbers: dict) -> dict:
    out = dict.fromkeys(QUALITY, 0.0)
    for n in numbers.values():
        s = n["summary"]
        if "boundary_residual_end" in s:
            out["quality.boundary_residual"] = max(s["boundary_residual_start"],
                                                   s["boundary_residual_end"])
            out["quality.optimality_gap"] = s.get("optimality_gap", 0.0)
        elif "final_order_parameter" in s:
            out["quality.final_order_parameter"] = s["final_order_parameter"]
        elif "iterations" not in s:
            out["quality.max_residual"] = s["max_residual"]
    return out


def per_layer(untraced: list, traced: list) -> tuple:
    """Per-layer metrics and a list of count mismatches between traced ops."""
    counts = traced[0]["counts"]
    mismatches = [name for r in traced[1:] for name in set(counts) | set(r["counts"])
                  if counts.get(name, 0) != r["counts"].get(name, 0)]
    out = {f"{layer}_s": statistics.median(r["self_times"].get(layer, 0.0) for r in traced)
           for layer in TIMED_LAYERS}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    # the optimizer evaluates single controls once before and once after its
    # loop; every other single evaluation is a line-search trial
    trials = counts.get("tracking.single_cost_calls", 0) - 2
    out["tracking.linesearch_accept_ratio"] = (
        counts.get("tracking.iterations", 0) / trials if trials > 0 else 0.0)
    batch_s = out["ensembles.batch_s"]
    out["ensembles.batch.member_steps_per_s"] = (
        counts.get("ensembles.batch.member_steps", 0) / batch_s if batch_s > 0 else 0.0)
    traced_s = statistics.median(r["pipeline_s"] for r in traced)
    out["trace.overhead_s"] = traced_s - statistics.median(r["pipeline_s"] for r in untraced)
    out["trace.coverage"] = statistics.median(
        1.0 - r["self_times"]["op"] / sum(r["self_times"].values()) for r in traced)
    out.update(quality(traced[0]["numbers"]))
    return out, mismatches


def check_history(key: str, numbers: dict) -> bool:
    """Compare with the numbers an earlier run of the same key recorded."""
    path = ROOT / ".bench_build" / "determinism.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    if key in history:
        return history[key] == numbers
    history[key] = numbers
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced problem sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentsteer" / "cli.py").is_file():
        print(f"error: no momentsteer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    build = ROOT / ".bench_build"
    work = build / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        generated = scenarios(args.workload, args.seed, args.tiny)
        items = []
        for name, scn in generated:
            path = work / f"{name}.json"
            path.write_text(json.dumps(scn, indent=1))
            items.append({"name": name, "path": str(path)})
        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
            "source_hash": source_hash(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "scenarios": {name: {"hash": scenario_hash(scn),
                                 "iterations": scn["solver"].get("iterations")}
                          for name, scn in generated},
        }

        setups = []
        for i in range(SETUP_ONLY_SPAWNS):
            result = spawn(work, i, items, run_op=False, trace=False, limit=limit)
            if "error" in result:
                print(f"error: set-up worker failed: {result['error']}", file=sys.stderr)
                return 1
            setups.append(result["setup_s"])

        ops, failures, walls = [], [], []
        deadline = start + args.seconds
        min_ops = 2 if args.trace else 1
        while True:
            k = len(ops)
            op_items = [dict(item, out=str(work / f"op{k}" / item["name"])) for item in items]
            traced = bool(args.trace) and k % 2 == 1
            result = spawn(work, SETUP_ONLY_SPAWNS + k, op_items, run_op=True, trace=traced,
                           limit=limit)
            result["traced"] = traced
            shutil.rmtree(work / f"op{k}", ignore_errors=True)
            ops.append(result)
            walls.append(result.get("wall_s", 0.0))
            reason = op_failure(result)
            if reason:
                failures.append(f"op {k}: {reason}")
            else:
                setups.append(result["setup_s"])
            # start another op only if it should end within a quarter op of the deadline
            if (len(ops) >= min_ops
                    and time.monotonic() + 0.75 * statistics.median(walls) > deadline):
                break

        good = [r for r in ops if op_failure(r) is None]
        untraced = [r for r in good if not r["traced"]]
        traced_ops = [r for r in good if r["traced"]]
        if not untraced or (args.trace and not traced_ops):
            for line in failures:
                print(f"error: {line}", file=sys.stderr)
            return 1

        numbers = good[0]["numbers"]
        deterministic = all(r["numbers"] == numbers for r in good)
        key = "|".join([args.workload, str(args.seed), "tiny" if args.tiny else "full",
                        provenance["source_hash"],
                        ",".join(s["hash"] for s in provenance["scenarios"].values())])
        repeatable = check_history(key, numbers)
        problems = list(failures)
        if not deterministic:
            problems.append("ops of this run disagree in summary/validation numbers")
        if not repeatable:
            problems.append("numbers differ from an earlier run of the same sources and seed")

        provenance["versions"] = good[0]["versions"]
        if args.trace:
            metrics, mismatches = per_layer(untraced, traced_ops)
            provenance["absent_layers"] = traced_ops[0]["absent"]
            if mismatches:
                problems.append(f"work counts differ between traced ops: {sorted(mismatches)}")
        else:
            metrics = end_to_end(untraced, setups)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(units) != set(metrics):
            print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both measured "
                  "and listed in BENCHMARK.json", file=sys.stderr)
            return 1

        results = build / "results"
        results.mkdir(exist_ok=True)
        record = {"provenance": provenance, "problems": problems, "setup_samples": setups,
                  "ops": ops}
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record))
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        print(json.dumps({"provenance": provenance}))
        for name, value in metrics.items():
            print(f"{name:40s} {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
