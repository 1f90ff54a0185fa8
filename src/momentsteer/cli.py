"""Command-line front end: scenario-driven simulate / plan / track / validate
pipelines emitting plot-ready CSV files and JSON summaries.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 threshold
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError, SolverWarning
from .ensembles import (ControlSignal, Kuramoto, _simulate_segments_batch, _steps_per_interval,
                        mean_field, simulate)
from .measures import (
    CDFTable,
    EmpiricalMeasure,
    _cumulative_trapezoid,
    pushforward,
    sample_empirical,
    wasserstein,
    wasserstein_to_point_circular,
)
from .moments import (
    FOURIER,
    MONOMIAL_PARAM,
    _power_sums,
    member_moments,
    moment_metric_values,
    moments_density,
    moments_output,
)
from .moment_systems import build_linear_moment_system
from .scenario import Scenario, load_scenario
from .tracking import (
    LQSetup,
    _gap_grid,
    direct_shooting,
    exact_tracking_feedback,
    lq_tracking_tpbvp,
    terminal_profile_guess,
    tpbvp_ode_residual,
    tpbvp_optimality_gap,
)

__all__ = ["main"]


class ThresholdViolation(Exception):
    pass


def _write_csv(path: Path, header: list, rows) -> None:
    """Write the 2-d array ``rows`` under ``header``, every value as %.17g.

    Seventeen significant digits always round-trip a float64, but they are
    not the shortest such text: ``repr`` writes fewer digits where it can."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _moment_header(q: int, prefix: str) -> list:
    cols = []
    for k in range(q + 1):
        cols += [f"{prefix}{k}_re", f"{prefix}{k}_im"]
    return cols


def _re_im(m) -> np.ndarray:
    """Moment rows as interleaved real and imaginary columns."""
    return np.ascontiguousarray(m, dtype=complex).view(float)


def cmd_simulate(scn: Scenario, out: Path) -> int:
    model = scn.build_model()
    grid = scn.build_grid()
    x0 = scn.initial_state(grid)
    control = ControlSignal.zeros(model.n_inputs, scn.horizon)
    traj = simulate(model, x0, grid, control, scn.dt)
    header = ["t"] + [f"member_{j}" for j in range(grid.size)]
    _write_csv(out / "trajectory.csv", header, np.column_stack([traj.times, traj.states]))
    return 0


def cmd_plan(scn: Scenario, out: Path) -> int:
    grid = scn.build_grid()
    ref = scn.build_reference(grid)
    header = ["t"] + _moment_header(scn.q, "m") + _moment_header(scn.q, "dm")
    rows = np.column_stack([ref.time_grid, _re_im(ref.m_star), _re_im(ref.dm_star)])
    _write_csv(out / "reference.csv", header, rows)
    return 0


def _check_thresholds(scn: Scenario, summary: dict) -> list:
    failures = []
    th = scn.thresholds
    if th["max_residual"] is not None and summary["max_residual"] > th["max_residual"]:
        failures.append("max_residual")
    if th["boundary_residual"] is not None and max(
        summary["boundary_residual_start"], summary["boundary_residual_end"]
    ) > th["boundary_residual"]:
        failures.append("boundary_residual")
    if th["final_order_parameter"] is not None and (
        summary["final_order_parameter"] < th["final_order_parameter"]
    ):
        failures.append("final_order_parameter")
    if th["cost"] is not None and summary["cost"] > th["cost"]:
        failures.append("cost")
    return failures


# a replay whose members grow past this multiple of the initial magnitude
# (at least 1) is reported as a SolverWarning
REPLAY_BLOWUP = 1e3


def _replay(model, x0, grid, control: ControlSignal, dt: float):
    """Replay ``control`` on the full ensemble at ``dt`` through the
    optimizer's forward run, on the control's own intervals.  Returns the
    times and member rows of trajectory.csv, one per control-interval
    boundary (the instants of the control plus T), and the largest member
    magnitude over those rows.  For the linear family that is the largest
    over every step: one RK4 step with a held drive is x -> R x + dt P d
    with R = 1 + z + z^2/2 + z^3/6 + z^4/24 > 0 for every real z, so a member
    moves monotonically within an interval.  Kuramoto phases are wrapped to
    [0, 2 pi) after every step, so they cannot blow up."""
    rows = _simulate_segments_batch(model, x0, grid, control.values[None], control.horizon,
                                    dt)[0]
    return control.time_grid, rows, float(abs(max(rows.max(), -rows.min())))  # no |rows| copy


def cmd_track(scn: Scenario, out: Path) -> int:
    t_start = time.monotonic()
    model = scn.build_model()
    grid = scn.build_grid()
    x0 = scn.initial_state(grid)
    method = scn.solver["method"]
    if scn.thresholds["boundary_residual"] is not None and method != "tpbvp":
        raise ConfigError("thresholds.boundary_residual is reported only by the tpbvp solver")
    if scn.thresholds["final_order_parameter"] is not None and not isinstance(model, Kuramoto):
        raise ConfigError("thresholds.final_order_parameter is reported only by Kuramoto runs")
    checks = {}  # the fixed-endpoint solve's verification, reported in the summary

    if method in ("exact", "tpbvp"):
        if scn.basis != MONOMIAL_PARAM:
            raise ConfigError(f"solver '{method}' tracks labeled density moments "
                              "(basis must be monomial_param)")
        if isinstance(model, Kuramoto):
            raise ConfigError(f"solver '{method}' needs the linear model")
        n_steps = _steps_per_interval(scn.horizon, scn.dt)
        if method == "tpbvp" and scn.solver["verify"]:
            try:  # the optimality gap's grid, checked before the solve
                _gap_grid(scn.horizon, scn.dt)
            except ConfigError as exc:
                raise ConfigError(f"solver.verify: {exc}") from None
        tgrid = np.linspace(0.0, scn.horizon, n_steps + 1)
        ref = scn.build_reference(grid, tgrid)
        sys_ = build_linear_moment_system(scn.q, model.n_inputs)
        if method == "exact":
            result = exact_tracking_feedback(sys_, ref, ref.m_star[0].real, scn.dt)
        else:
            setup = LQSetup(
                scn.solver["r_scale"] * np.eye(model.n_inputs),
                ref.m_star[0].real,
                ref.m_star[-1].real,
            )
            result = lq_tracking_tpbvp(sys_, ref, setup, scn.dt)
            if scn.solver["verify"]:
                checks["ode_residual"] = tpbvp_ode_residual(sys_, ref, setup, result)
                checks["optimality_gap"] = tpbvp_optimality_gap(sys_, ref, setup, result)
    else:
        intervals = scn.solver["intervals"]
        _steps_per_interval(scn.horizon / intervals, scn.dt)  # replay grid, checked early
        tgrid = np.linspace(0.0, scn.horizon, intervals + 1)
        # the optimizer may run on a coarser member grid; for the linear
        # family the control generalizes exactly (members are uncoupled),
        # for the mean-field model it is a quadrature refinement
        opt_grid = scn.build_grid(scn.solver["optimize_members"])
        opt_x0 = scn.initial_state(opt_grid)
        ref = scn.build_reference(opt_grid, tgrid)
        guess = None
        if scn.solver["initial_guess"] == "terminal_profile":
            if isinstance(model, Kuramoto):
                raise ConfigError("terminal_profile guesses apply to the linear model")
            target_profile = scn.member_values(scn.resolve_target(), opt_grid, "target")
            guess = terminal_profile_guess(
                model, opt_grid, opt_x0, target_profile, scn.horizon, intervals)
        result = direct_shooting(
            model,
            opt_grid,
            opt_x0,
            ref,
            n_intervals=intervals,
            energy_weight=scn.solver["energy_weight"],
            iterations=scn.solver["iterations"],
            dt=scn.solver["optimize_dt"],
            initial_guess=guess,
        )

    times, rows, replay_max = _replay(model, x0, grid, result.control, scn.dt)

    _write_csv(
        out / "control.csv",
        ["t"] + [f"u_{i}" for i in range(1, result.control.n_inputs + 1)],
        np.column_stack([result.control.time_grid[:-1], result.control.values]),
    )
    _write_csv(out / "moments.csv", ["t"] + _moment_header(scn.q, "m"),
               np.column_stack([result.times, _re_im(result.moments)]))
    _write_csv(out / "residual.csv", ["t", "residual"],
               np.column_stack([result.times, result.residuals]))
    header = ["t"] + [f"member_{j}" for j in range(grid.size)]
    _write_csv(out / "trajectory.csv", header, np.column_stack([times, rows]))

    # the moment-space residuals cannot see members that blow up in the replay
    start_max = max(1.0, float(np.max(np.abs(x0))))
    if replay_max > REPLAY_BLOWUP * start_max:
        warnings.warn(
            f"replayed members reach |x| = {replay_max:.3g}, more than {REPLAY_BLOWUP:g} "
            f"times the initial {start_max:.3g}",
            SolverWarning,
            stacklevel=2,
        )

    summary = {
        "method": method,
        "cost": result.cost,
        "max_residual": float(np.max(result.residuals)),
        "final_residual": float(result.residuals[-1]),
        "converged": bool(result.converged),
        "max_abs_control": float(np.max(np.abs(result.control.values))),
        "replay_max_abs_state": replay_max,
        "runtime_s": time.monotonic() - t_start,
    }
    if method == "shooting":
        # d_M of the replay's trajectory.csv rows, against the reference the
        # optimizer tracked; the residuals above are the optimizer's ensemble
        replay = moment_metric_values(member_moments(rows, grid, scn.basis, scn.q),
                                      ref.value(result.times))
        summary["replay_max_residual"] = float(np.max(replay))
        summary["replay_final_residual"] = float(replay[-1])
    for key in ("boundary_residual_start", "boundary_residual_end", "matching_condition",
                "hht_condition", "iterations"):
        if key in result.info:
            summary[key] = float(result.info[key])
    summary.update(checks)
    if "stop_reason" in result.info:
        summary["stop_reason"] = result.info["stop_reason"]
    if isinstance(model, Kuramoto):
        r_final, _ = mean_field(rows[-1], grid)
        summary["final_order_parameter"] = float(r_final)
    failures = _check_thresholds(scn, summary)
    summary["threshold_failures"] = failures
    _write_json(out / "summary.json", summary)
    if failures:
        raise ThresholdViolation(", ".join(failures))
    return 0


def _target_moments(basis: str, target, q: int) -> np.ndarray:
    """Moments m_0..m_q of the scenario target in ``basis``: a phase
    ensemble's angle as a point mass on the circle, atoms by their power
    sums, a density by quadrature (over the parameter for labeled runs, over
    the output otherwise: the same integral).  The angle is wrapped with no
    range check: ``target % (2 pi)`` rounds to 2 pi itself for a target just
    below 0."""
    if basis == FOURIER:
        return _power_sums(np.array([target % (2 * np.pi)]), np.ones(1), q, trig=True)
    if isinstance(target, EmpiricalMeasure):
        return moments_output(target, q).values
    return moments_density(target, q).values


def _final_states_from_csv(path: Path) -> np.ndarray:
    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("t,"):
                raise ConfigError(f"{path} is not a trajectory file")
            last = None
            for line in fh:
                if line.strip():
                    last = line
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if last is None:
        raise ConfigError(f"{path} contains no data rows")
    try:
        final = np.array([float(v) for v in last.strip().split(",")])[1:]
    except ValueError as exc:
        raise ConfigError(f"{path}, last row: {exc}") from None
    if not np.all(np.isfinite(final)):
        raise ConfigError(f"{path}, last row: member values must be finite")
    return final


def cmd_validate(scn: Scenario, out: Path, results: Path, seed: int | None) -> int:
    grid = scn.build_grid()
    path = results / "trajectory.csv"
    final = _final_states_from_csv(path)
    if final.size != grid.size:
        raise ConfigError("trajectory members do not match the scenario grid")
    target = scn.resolve_target()
    payload: dict = {"basis": scn.basis}
    x = np.mod(final, 2 * np.pi) if scn.basis == FOURIER else final  # phases on the circle
    m_final = member_moments(x, grid, scn.basis, scn.q)
    if not np.all(np.isfinite(m_final)):
        raise SolverError(f"order-{scn.q} moments of the final states in {path} overflow")

    if scn.basis == MONOMIAL_PARAM:
        clipped = np.clip(final, 0.0, None)
        # on the scale of m_0 = sum_j w_j x_j, independent of the member count
        payload["clipped_negative_mass"] = float((clipped - final) @ grid.weights)
        with np.errstate(over="ignore"):  # an overflow is caught as a non-finite mass
            inc = _cumulative_trapezoid(clipped, grid.nodes)
        total = inc[-1]
        if not np.isfinite(total):
            raise SolverError(f"the mass of the final labeled profile in {path} overflows")
        if total <= 0:
            raise SolverError("final labeled profile has no mass")
        payload["w2"] = wasserstein(CDFTable(grid.nodes, np.minimum(inc / total, 1.0)), target)
    else:
        rng = np.random.default_rng(scn.seed if seed is None else seed)  # labeled runs never sample
        sampled = sample_empirical(pushforward(grid, x), scn.samples, rng)
        payload["w2"] = (wasserstein_to_point_circular(sampled, target) if scn.basis == FOURIER
                         else wasserstein(sampled, target))
    payload["d_m"] = moment_metric_values(m_final, _target_moments(scn.basis, target, scn.q))
    if scn.basis == FOURIER:
        payload["final_order_parameter"] = float(mean_field(final, grid)[0])
    for key in ("w2", "d_m"):
        if not np.isfinite(payload[key]):
            raise SolverError(f"{key} of the final states in {path} is not finite")

    threshold = scn.thresholds["w2"]
    payload["threshold_w2"] = threshold
    payload["passed"] = bool(threshold is None or payload["w2"] <= threshold)
    _write_json(out / "validation.json", payload)
    if not payload["passed"]:
        raise ThresholdViolation(f"w2 {payload['w2']:.6g} above {threshold:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentsteer",
        description="Distributional control pipelines for parameterized ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "plan", "track", "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", required=True, help="output directory")
        if name == "validate":
            sp.add_argument("--seed", type=int, default=None, help="sampling seed override")
            sp.add_argument("--results", default=None,
                            help="directory holding trajectory.csv (default: --out)")
    args = parser.parse_args(argv)

    try:
        scn = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(scn, out)
        if args.command == "plan":
            return cmd_plan(scn, out)
        if args.command == "track":
            return cmd_track(scn, out)
        results = Path(args.results) if args.results else out
        return cmd_validate(scn, out, results, args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ThresholdViolation as exc:
        print(f"threshold violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
