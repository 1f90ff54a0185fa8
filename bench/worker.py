"""One benchmark op in a fresh interpreter: ``python3 bench/worker.py JOB``.

JOB is a JSON file written by run.py.  The worker measures set-up (from the
parent's spawn instant to a built model, grid and initial state), then runs
``track`` and ``validate`` through ``momentsteer.cli.main`` for each of the
op's scenarios, optionally under the tracer, and writes its result to the
path the job names.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

TRACK_OUTPUTS = ("control.csv", "moments.csv", "residual.csv", "trajectory.csv", "summary.json")


def _blas() -> dict:
    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = int(getattr(lib, fn)())
                return info
    return info


def _numbers(path: Path) -> dict:
    payload = json.loads(path.read_text())
    return {k: v for k, v in payload.items()
            if k != "runtime_s" and isinstance(v, (int, float)) and not isinstance(v, bool)}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import momentsteer
    import momentsteer.cli as cli

    src = (Path(job["root"]) / "src").resolve()
    if src not in Path(momentsteer.__file__).resolve().parents:
        raise SystemExit(f"momentsteer imported from {momentsteer.__file__}, not from {src}")
    first = job["scenarios"][0]["path"]
    scn = momentsteer.load_scenario(first)
    scn.build_model()
    scn.initial_state(scn.build_grid())
    result = {"setup_s": time.monotonic() - job["spawned"]}

    if job["run_op"]:
        tracer = None
        if job["trace"]:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer()
            tracer.op = job["op"]
            tracer.install()
            root = tracer.open("op")
        codes, missing, numbers = [], [], {}
        t0 = time.perf_counter()
        for item in job["scenarios"]:
            out = Path(item["out"])
            code = cli.main(["track", "--scenario", item["path"], "--out", str(out)])
            codes.append(code)
            if code == 0:
                codes.append(cli.main(["validate", "--scenario", item["path"], "--out", str(out)]))
        result["pipeline_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            result.update(self_times=tracer.self_times(job["op"]),
                          counts=dict(tracer.counts), absent=tracer.absent,
                          spans=tracer.spans)
        for item in job["scenarios"]:
            out = Path(item["out"])
            absent = [str(out / f) for f in TRACK_OUTPUTS + ("validation.json",)
                      if not (out / f).exists()]
            missing += absent
            if not absent:
                numbers[item["name"]] = {"summary": _numbers(out / "summary.json"),
                                         "validation": _numbers(out / "validation.json")}
        result.update(codes=codes, missing=missing, numbers=numbers,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "blas": _blas()}
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
