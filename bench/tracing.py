"""Spans and work counts recorded around calls into momentsteer's layers.

The wrappers are installed from outside the library: every module-level
binding of a wrapped function in ``momentsteer.*`` (its definition and each
``from .x import f`` alias) is replaced by one wrapper, so a call is traced
wherever it is made from.  A wrapped name that no longer exists is recorded
as an absent layer with zero calls, so private boundaries can be deleted
without editing the benchmark.

Spans stay in memory as ``[name, start, end, parent, op]`` rows until the
run ends.  A layer's self time is the duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# (layer, "module:attribute"); methods are written Class.method
LAYERS = [
    ("transport.reference", "transport:mccann_plan"),
    ("transport.reference", "transport:circular_plan"),
    ("transport.reference", "transport:ot_moment_reference"),
    ("transport.value", "transport:MomentReference.value"),
    ("transport.derivative", "transport:MomentReference.derivative"),
    ("tracking.exact_feedback", "tracking:exact_tracking_feedback"),
    ("tracking.tpbvp", "tracking:lq_tracking_tpbvp"),
    ("tracking.tpbvp_longdouble", "tracking:_rk4_affine"),
    ("tracking.ode_residual", "tracking:tpbvp_ode_residual"),
    ("tracking.optimality_gap", "tracking:tpbvp_optimality_gap"),
    ("tracking.shooting", "tracking:direct_shooting"),
    ("tracking.guess", "tracking:terminal_profile_guess"),
    ("ensembles.batch", "tracking:_simulate_segments_batch"),
    ("ensembles.simulate", "ensembles:simulate"),
    ("cli.write_csv", "cli:_write_csv"),
    ("cli.read_csv", "cli:_final_states_from_csv"),
    ("scenario.load", "scenario:load_scenario"),
    ("measures.wasserstein", "measures:wasserstein"),
    ("measures.wasserstein", "measures:wasserstein_to_point_circular"),
    ("moments.transform", "moments:moments_output"),
    ("moments.transform", "moments:moments_fourier"),
    ("moments.transform", "moments:moments_density"),
]

# bytes written per member step, counted from array sizes: the four RK4
# stage derivatives and the new state, one float64 each
BYTES_PER_MEMBER_STEP = 5 * 8


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = 0
        self.absent = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def install(self) -> None:
        """Wrap every site in LAYERS; call after importing momentsteer.cli."""
        for layer, site in LAYERS:
            module_name, attr = site.split(":")
            owner = sys.modules[f"momentsteer.{module_name}"]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(site)
                continue
            wrapper = self._wrap(layer, fn)
            if path:
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("momentsteer") and getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapper)

    def _wrap(self, layer: str, fn):
        count = _COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spanned = layer != "tracking.tpbvp_longdouble" or _longdouble_call(args, kwargs)
            if spanned:
                tracer.counts[f"{layer}.calls"] += 1
                idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                if spanned:
                    tracer.close(idx)
            if spanned and count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def self_times(self, op: int) -> dict:
        """Self time per span name over the spans of one op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, span_op in self.spans:
            if parent >= 0 and span_op == op:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op == op:
                out[name] += (end - start) - child[i]
        return out


def _longdouble_call(args, kwargs) -> bool:
    dtype = kwargs.get("dtype", args[4] if len(args) > 4 else np.float64)
    return np.dtype(dtype) == np.dtype(np.longdouble)


def _count_batch(tracer: Tracer, args, result) -> None:
    _, _, grid, U, horizon, dt = args[:6]
    B, n_int = U.shape[0], U.shape[1]
    per = int(round(horizon / n_int / dt))
    steps = B * grid.size * n_int * per
    tracer.counts["ensembles.batch.member_steps"] += steps
    tracer.counts["ensembles.batch.bytes_computed"] += steps * BYTES_PER_MEMBER_STEP
    if tracer.inside("tracking.shooting"):
        tracer.counts["tracking.cost_evals"] += B
        tracer.counts["tracking.single_cost_calls"] += B == 1


def _count_simulate(tracer: Tracer, args, result) -> None:
    rows, members = result.states.shape
    tracer.counts["ensembles.simulate.member_steps"] += (rows - 1) * members


def _count_shooting(tracer: Tracer, args, result) -> None:
    tracer.counts["tracking.iterations"] += int(result.info["iterations"])


def _count_csv(tracer: Tracer, args, result) -> None:
    tracer.counts["cli.csv_bytes"] += os.path.getsize(args[0])


_COUNTERS = {
    "ensembles.batch": _count_batch,
    "ensembles.simulate": _count_simulate,
    "tracking.shooting": _count_shooting,
    "cli.write_csv": _count_csv,
}
