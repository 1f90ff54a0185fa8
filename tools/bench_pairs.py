"""Alternating-pair benchmark driver: parent versus change, one JSON record.

    python3 tools/bench_pairs.py --parent REV --change REV --work DIR \\
        --label NAME --what "..." --out BENCH_NAME.json \\
        [--workloads labeled,unlabeled-shooting,kuramoto-shooting] \\
        [--pairs 10] [--seed 4] [--seconds 40] [--traced] [--single-thread] \\
        [--note "measurement caveats"]

Each side runs ``bench/run.py`` from its own ``git archive`` copy of REV under
DIR (``DIR/parent`` and ``DIR/change``: paths of equal length, each with its
own ``.bench_build``).  Runs go one at a time.  For every workload the driver
runs PAIRS pairs at --trace 0, the parent first in odd-numbered pairs and the
change first in even-numbered ones.  ``--traced`` adds one pair per workload at
--trace 1, the parent first.  ``--single-thread`` adds one pair per workload
with OPENBLAS_NUM_THREADS=1 set on both sides, run from two further copies
(``DIR/parent1t``, ``DIR/change1t``) so that their determinism records hold
only single-thread numbers.

Each entry is the last output line of one run (its JSON result), or an
``error`` record when the run fails.  The record is rewritten after every run,
so a cut series keeps what it measured.  The summary gives, per workload and
end-to-end metric, both sides' medians and interquartile ranges (quartiles by
``statistics.quantiles(method="inclusive")``) and the pairs in which the change
read better in the metric's direction, and two verdicts: ``gain`` (the change
won at least 9/10 of the pairs and its median beats the parent's by more than
the parent's IQR) and ``within_bound`` (the change median is no worse than the
parent's by more than the metric's relative ``bound`` in ``BENCHMARK.json``).
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ["labeled", "unlabeled-shooting", "kuramoto-shooting"]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(sha: str, dest: Path) -> None:
    """Unpack the tree of ``sha`` into an empty ``dest``."""
    if dest.exists():
        raise SystemExit(f"{dest} exists; give an empty --work directory")
    archive = subprocess.run(["git", "-C", str(REPO), "archive", sha], check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _version(name: str):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int,
         env_extra: dict) -> dict:
    """One bench/run.py run in ``root``; its last output line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(env_extra)
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"error": f"exit code {done.returncode}", "stderr": done.stderr[-2000:]}
    return result


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: dict, metrics: list) -> dict:
    """Medians, IQRs, change wins and the verdicts of one workload's pairs.

    ``metrics`` holds (name, better, bound) triples.  ``gain``: the change
    won at least nine tenths of the pairs (ties count for neither side) and
    its median is better than the parent's by more than the parent's IQR.
    ``within_bound``: the change median is worse than the parent's by at most
    ``bound`` times the parent median's magnitude; None where no bound is
    declared."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if "error" not in p and "error" not in c]
    out = {}

    def value(result, name):
        if name == "setup_plus_pipeline_s":
            return value(result, "setup_s") + value(result, "pipeline_s")
        return result["metrics"][name]["value"]

    for name, better, bound in metrics + [("setup_plus_pipeline_s", "lower", None)]:
        par = [value(p, name) for p, _ in pairs]
        chg = [value(c, name) for _, c in pairs]
        sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change better
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        med_p = statistics.median(par) if par else None
        med_c = statistics.median(chg) if chg else None
        out[name] = {
            "parent_median": med_p,
            "change_median": med_c,
            "parent_iqr": _iqr(par),
            "change_iqr": _iqr(chg),
            "change_wins": f"{wins}/{len(pairs)}",
            "gain": bool(pairs) and 10 * wins >= 9 * len(pairs)
                    and sign * (med_p - med_c) > _iqr(par),
            "within_bound": (None if bound is None or not pairs
                             else sign * (med_c - med_p) <= bound * abs(med_p)),
        }
    for side in SIDES:
        good = [r for r in runs[side] if "error" not in r]
        out.setdefault("failed_ops", {})[side] = sum(r["failed"] for r in good)
        out.setdefault("attempted_ops", {})[side] = sum(r["attempted"] for r in good)
        out.setdefault("correct", {})[side] = all(r["correct"] for r in good)
        out.setdefault("failed_runs", {})[side] = len(runs[side]) - len(good)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="change revision")
    parser.add_argument("--work", required=True, type=Path,
                        help="empty directory for the two source copies")
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True, help="one paragraph: what the change does")
    parser.add_argument("--note", default="",
                        help="measurement caveats, appended to the protocol")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced pair per workload")
    parser.add_argument("--single-thread", action="store_true",
                        help="add one pair per workload with OPENBLAS_NUM_THREADS=1")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    roots = {side: args.work / side for side in SIDES}
    for side in SIDES:
        _extract(shas[side], roots[side])
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m.get("bound")) for m in spec["end_to_end"]]
    command = "python3 bench/run.py --workload W --seed {} --seconds {:g} --trace {}"

    record = {
        "label": args.label,
        "command": command.format(args.seed, args.seconds, 0),
        "what": args.what,
        "parent": shas["parent"],
        "change": shas["change"],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "protocol": (
            "each side runs bench/run.py from its own git archive copy of its commit, in "
            "directories of equal path length, one run at a time; "
            f"{args.pairs} pairs per workload at seed {args.seed}, workloads in the order "
            f"{', '.join(workloads)}; the parent runs first in odd-numbered pairs and the "
            "change first in even-numbered ones; each entry is the last output line of one "
            "run; summary gives medians, interquartile ranges (inclusive quartiles), the pairs "
            "in which the change read better in the metric's direction, the verdicts gain "
            "(change wins >= 9/10 of the pairs, ties counting for neither, and the medians "
            "differ by more than the parent's IQR in the better direction) and within_bound "
            "(change median no worse than the parent's by more than the metric's relative "
            "bound in BENCHMARK.json), and setup_s + pipeline_s per op" + (f"; {args.note}" if args.note else "")),
        "workloads": {},
        "summary": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in workloads:
        runs = record["workloads"][workload] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(_run(roots[side], workload, args.seed, args.seconds, 0, {}))
                print(f"{workload} pair {i + 1} {side}: "
                      f"{json.dumps(runs[side][-1].get('metrics', runs[side][-1]))[:300]}",
                      file=sys.stderr, flush=True)
                save()
            record["summary"][workload] = summarize(runs, metrics)
            save()

    if args.traced:
        record["traced"] = {"command": command.format(args.seed, args.seconds, 1),
                            "note": "one pair per workload, parent first"}
        for workload in workloads:
            for side in SIDES:
                record["traced"].setdefault(workload, {})[side] = _run(
                    roots[side], workload, args.seed, args.seconds, 1, {})
                save()

    if args.single_thread:
        roots_1t = {side: args.work / f"{side}1t" for side in SIDES}
        for side in SIDES:
            _extract(shas[side], roots_1t[side])
        series = {"note": ("one pair per workload with OPENBLAS_NUM_THREADS=1 set on both "
                           "sides, parent first, each side from a fresh copy of its commit"),
                  "command": "OPENBLAS_NUM_THREADS=1 " + command.format(args.seed, args.seconds, 0),
                  "workloads": {}, "summary": {}}
        record.setdefault("extra_series", []).append(series)
        for workload in workloads:
            runs = series["workloads"][workload] = {"parent": [], "change": []}
            for side in SIDES:
                runs[side].append(_run(roots_1t[side], workload, args.seed, args.seconds, 0,
                                       {"OPENBLAS_NUM_THREADS": "1"}))
                save()
            series["summary"][workload] = summarize(runs, metrics)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
