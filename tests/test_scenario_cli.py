import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentsteer import ConfigError, Scenario, load_scenario
from momentsteer.cli import main


def _write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def _linear_sim_scenario(**over):
    base = {
        "model": {"kind": "linear", "inputs": 1},
        "grid": {"members": 16, "lo": 0.0, "hi": 1.0},
        "initial": {"kind": "constant", "value": 0.8},
        "target": {"kind": "uniform"},
        "basis": "monomial_output",
        "q": 4,
        "horizon": 1.0,
        "dt": 1e-3,
        "solver": {"method": "shooting"},
    }
    base.update(over)
    return base


def test_scenario_round_trip_identical_runs(tmp_path):
    path = _write(tmp_path, _linear_sim_scenario())
    scn = load_scenario(path)
    path2 = _write(tmp_path, scn.to_dict(), "scenario2.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(path2), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_scenario_rejects_unknown_and_missing_fields(tmp_path):
    bad = _linear_sim_scenario()
    bad["grdi"] = {}
    with pytest.raises(ConfigError, match="grdi"):
        Scenario.from_dict(bad)
    missing = _linear_sim_scenario()
    del missing["q"]
    path = _write(tmp_path, missing)
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_scenario_range_guards():
    with pytest.raises(ConfigError):
        Scenario.from_dict(_linear_sim_scenario(q=17))
    with pytest.raises(ConfigError):
        Scenario.from_dict(_linear_sim_scenario(dt=0.0))
    with pytest.raises(ConfigError):
        Scenario.from_dict(_linear_sim_scenario(solver={"method": "magic"}))


def test_simulate_closed_form_final_row(tmp_path):
    path = _write(tmp_path, _linear_sim_scenario())
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    beta = (np.arange(16) + 0.5) / 16
    np.testing.assert_allclose(rows[-1, 1:], 0.8 * np.exp(beta), atol=1e-6)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "member_0"]


def test_simulate_zero_horizon_single_row(tmp_path):
    path = _write(tmp_path, _linear_sim_scenario(horizon=0.0))
    out = tmp_path / "zero"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    vals = np.array([float(v) for v in lines[1].split(",")])
    np.testing.assert_array_equal(vals[1:], np.full(16, 0.8))


def test_plan_identical_measures_zero_rate(tmp_path):
    spec = _linear_sim_scenario(
        initial={"kind": "truncated_gaussian", "mean": 0.5, "sigma": 0.2},
        target={"kind": "truncated_gaussian", "mean": 0.5, "sigma": 0.2},
        reference_points=21,
    )
    out = tmp_path / "plan"
    assert main(["plan", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=1)
    q = spec["q"]
    dm_block = rows[:, 1 + 2 * (q + 1):]
    assert np.abs(dm_block).max() <= 1e-9


def test_plan_mass_column_constant_for_gaussian_to_mixture(tmp_path):
    spec = _linear_sim_scenario(
        basis="monomial_param",
        q=8,
        initial={"kind": "truncated_gaussian", "mean": 0.5, "sigma": 0.1414213562373095},
        target={"kind": "gaussian_mixture", "means": [0.25, 0.75],
                "sigmas": [0.1414213562373095, 0.1414213562373095], "weights": [0.5, 0.5]},
        reference_points=41,
    )
    out = tmp_path / "plan2"
    assert main(["plan", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=1)
    m0 = rows[:, 1]
    assert np.abs(m0 - m0[0]).max() <= 1e-9
    dm0 = rows[:, 1 + 2 * 9]
    assert np.abs(dm0).max() == 0.0


def test_plan_uniform_to_point_matches_integral_oracle(tmp_path):
    c = 0.3
    spec = _linear_sim_scenario(
        q=6,
        initial={"kind": "uniform"},
        target={"kind": "point_mass", "value": c},
        reference_points=11,
    )
    out = tmp_path / "plan3"
    assert main(["plan", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=1)
    ks = np.arange(7)
    for row in rows[:-1]:
        t = row[0]
        hi = (1 - t) + t * c
        lo = t * c
        exact = (hi ** (ks + 1) - lo ** (ks + 1)) / ((ks + 1) * (1 - t))
        np.testing.assert_allclose(row[1:1 + 14:2], exact, atol=1e-6)


def _case_one_track_scenario(p, q, **over):
    base = {
        "model": {"kind": "linear", "inputs": p},
        "grid": {"members": 64, "lo": 0.0, "hi": 1.0},
        "initial": {"kind": "truncated_gaussian", "mean": 0.5, "sigma": 0.1414213562373095},
        "target": {"kind": "gaussian_mixture", "means": [0.25, 0.75],
                   "sigmas": [0.1414213562373095, 0.1414213562373095], "weights": [0.5, 0.5]},
        "basis": "monomial_param",
        "q": q,
        "horizon": 1.0,
        "dt": 1e-3,
        "solver": {"method": "exact"},
    }
    base.update(over)
    return base


def test_track_exact_full_row_rank_meets_tolerance(tmp_path):
    # one input per tracked component: the working exact regime
    spec = _case_one_track_scenario(p=5, q=4)
    out = tmp_path / "exact"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_residual"] <= 1e-6
    for name in ("control.csv", "moments.csv", "residual.csv", "trajectory.csv"):
        assert (out / name).exists()


def _replay_from_control_csv(path, out):
    """The every-step replay of the control that ``track`` wrote to ``out``,
    rebuilt from control.csv alone with ``simulate``, and that control."""
    from momentsteer import ControlSignal, simulate

    scn = load_scenario(path)
    grid = scn.build_grid()
    rows = np.loadtxt(out / "control.csv", delimiter=",", skiprows=1, ndmin=2)
    control = ControlSignal(np.append(rows[:, 0], scn.horizon), rows[:, 1:])
    replay = simulate(scn.build_model(), scn.initial_state(grid), grid, control, scn.dt)
    return replay, control


def test_trajectory_csv_round_trip_is_exact(tmp_path):
    # validate reads the replayed final members back from trajectory.csv; the
    # %.17g text must give them back bit for bit, and control.csv the control
    from momentsteer.cli import _final_states_from_csv

    path = _write(tmp_path, _case_one_track_scenario(p=5, q=4))
    out = tmp_path / "round_trip"
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    replay, _ = _replay_from_control_csv(path, out)
    final = _final_states_from_csv(out / "trajectory.csv")
    assert final.tobytes() == replay.states[-1].tobytes()
    assert np.ptp(np.log10(np.abs(final))) > 1  # values over more than a decade
    # the exact solver's control grid is the dt grid: one row per RK4 step
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 1000 + 1
    assert rows.tobytes() == np.column_stack([replay.times, replay.states]).tobytes()


def _small_shooting_scenario():
    # 4 intervals of 25 RK4 steps each
    return _linear_sim_scenario(dt=0.01, solver={"method": "shooting", "intervals": 4,
                                                 "iterations": 3})


def test_shooting_trajectory_csv_on_control_grid(tmp_path):
    # track writes one row per control-interval boundary, from the forward
    # run the optimizer uses, on the control's own intervals: the t column is
    # the instants of control.csv plus T, and the linear family's rows, taken
    # by the exact segment transfer, are simulate's every per-th state up to
    # rounding
    from momentsteer.ensembles import _simulate_segments_batch

    path = _write(tmp_path, _small_shooting_scenario())
    out = tmp_path / "grid"
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    replay, control = _replay_from_control_csv(path, out)
    scn = load_scenario(path)
    grid = scn.build_grid()
    forward = _simulate_segments_batch(scn.build_model(), scn.initial_state(grid), grid,
                                       control.values[None], scn.horizon, scn.dt)[0]
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape == (4 + 1, 1 + 16)
    assert rows[:, 0].tobytes() == control.time_grid.tobytes()
    assert rows[:, 1:].tobytes() == forward.tobytes()
    per = 25
    assert replay.states.shape[0] == 4 * per + 1
    np.testing.assert_allclose(rows[:, 1:], replay.states[::per], rtol=1e-10, atol=0)


@pytest.mark.parametrize("kind", ["linear", "kuramoto"])
def test_replay_max_abs_state_is_the_row_maximum(tmp_path, kind):
    # replay_max_abs_state is the largest |x| over the rows of trajectory.csv.
    # A linear member moves monotonically within an interval (one RK4 step is
    # x -> R x + dt P d with R > 0), so that is also the every-step maximum of
    # the dt replay; Kuramoto phases are wrapped below 2 pi after every step
    from momentsteer.ensembles import mean_field

    spec = (_small_shooting_scenario() if kind == "linear" else
            _kuramoto_scenario(solver={"method": "shooting", "intervals": 8, "iterations": 3}))
    path = _write(tmp_path, spec)
    out = tmp_path / kind
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert summary["replay_max_abs_state"] == float(np.max(np.abs(rows[:, 1:])))
    replay, _ = _replay_from_control_csv(path, out)
    if kind == "linear":
        assert summary["replay_max_abs_state"] == pytest.approx(
            float(np.max(np.abs(replay.states))), rel=1e-10, abs=0)
    else:
        assert summary["replay_max_abs_state"] < 2 * np.pi
        r_final, _ = mean_field(replay.states[-1], replay.grid)
        assert summary["final_order_parameter"] == float(r_final)


@pytest.mark.parametrize("kind", ["kuramoto", "linear", "linear_same_grid"])
def test_replay_residuals_describe_the_replay(tmp_path, kind):
    # when the optimizer runs on the replay's grid and dt, the replay is its
    # forward run, one arithmetic for both families (Kuramoto's recorded,
    # buffered run and the record-less replay; the linear family's segment
    # transfer at the default optimize_dt, a tenth of the control interval);
    # with fewer optimizer members the replay keys are d_M of the written rows
    from momentsteer import member_moments, moment_metric_values

    if kind == "kuramoto":
        spec = _kuramoto_scenario(solver={"method": "shooting", "intervals": 8,
                                          "iterations": 3, "optimize_dt": 2.5e-3})
    elif kind == "linear_same_grid":
        spec = _small_shooting_scenario()
        spec["dt"] = 0.025
    else:
        spec = _small_shooting_scenario()
        spec["solver"]["optimize_members"] = 6
    path = _write(tmp_path, spec)
    out = tmp_path / kind
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    if kind != "linear":
        assert summary["replay_max_residual"] == summary["max_residual"]
        assert summary["replay_final_residual"] == summary["final_residual"]
        return
    assert np.isfinite(summary["replay_max_residual"])
    assert np.isfinite(summary["replay_final_residual"])
    scn = load_scenario(path)
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    ref = scn.build_reference(scn.build_grid(6), rows[:, 0])
    d = moment_metric_values(member_moments(rows[:, 1:], scn.build_grid(), scn.basis, scn.q),
                             ref.value(rows[:, 0]))
    assert summary["replay_max_residual"] == float(np.max(d))
    assert summary["replay_final_residual"] == float(d[-1])
    assert summary["replay_final_residual"] != summary["final_residual"]


@pytest.mark.parametrize("name", ["max_residual", "boundary_residual", "final_order_parameter",
                                  "cost"])
def test_track_exact_threshold_violation_exits_4(tmp_path, name):
    # each threshold that a run reports, set out of its reach: exit 4, and
    # summary.json names the one that failed
    spec = {
        "max_residual": lambda: _case_one_track_scenario(p=5, q=4),
        "boundary_residual": lambda: _case_one_track_scenario(
            p=4, q=8, solver={"method": "tpbvp"}),
        "final_order_parameter": lambda: _kuramoto_scenario(
            grid={"members": 8, "lo": -1.0, "hi": 1.0},
            solver={"method": "shooting", "intervals": 2, "iterations": 1}),
        "cost": _small_shooting_scenario,
    }[name]()
    spec["thresholds"] = {name: 1.0 if name == "final_order_parameter" else 1e-300}
    out = tmp_path / "threshold_fail"
    code = main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threshold_failures"] == [name]


@pytest.mark.parametrize("command, name, key, value, message", [
    pytest.param("track", "labeled_exact.json", "dt", 0.003, "dt=0.003", id="labeled_exact.json"),
    pytest.param("track", "kuramoto_sync.json", "dt", 0.003, "dt=0.003", id="kuramoto_sync.json"),
    *[pytest.param("track", "kuramoto_sync.json", "solver.intervals", v, "solver.intervals",
                   id=f"intervals={v}") for v in (0, -2, "ten", 2.5, True)],
    *[pytest.param("track", "kuramoto_sync.json", "solver.iterations", v, "solver.iterations",
                   id=f"iterations={v}") for v in (-3, "many", 2.5, None)],
    *[pytest.param("track", "labeled_fixed_endpoint.json", key, v, key, id=f"{key}={v}")
      for key, v in (("q", "eight"), ("q", 2.5), ("horizon", "long"), ("horizon", -1.0),
                     ("dt", "fine"), ("seed", -1), ("samples", 0), ("reference_points", 1.5),
                     ("grid.members", "many"), ("grid.members", 1), ("grid.lo", None),
                     ("grid.hi", "one"), ("model.inputs", "four"),
                     ("solver.r_scale", -1), ("solver.r_scale", "big"))],
    *[pytest.param("track", "unlabeled_shooting.json", f"solver.{key}", v, f"solver.{key}",
                   id=f"{key}={v}")
      for key, v in (("energy_weight", "small"), ("energy_weight", -1e-3),
                     ("optimize_dt", "fine"), ("optimize_dt", 0.0),
                     ("optimize_members", "few"), ("optimize_members", 1))],
    *[pytest.param("track", name, key, v, key, id=f"{key}={v}")
      for name, key, v in (("labeled_fixed_endpoint.json", "initial.mean", "abc"),
                           ("labeled_fixed_endpoint.json", "initial.sigma", float("inf")),
                           ("labeled_fixed_endpoint.json", "target.means", [0.25, "x"]),
                           ("labeled_fixed_endpoint.json", "target.sigmas", [0.1, None]),
                           ("labeled_fixed_endpoint.json", "target.weights", "half"),
                           ("kuramoto_sync.json", "target.value", "pi"),
                           ("kuramoto_sync.json", "target.value", float("nan")))],
    # the measures' own checks name the section they were given
    *[pytest.param("track", "labeled_fixed_endpoint.json", key, v, message, id=f"{key}={v}")
      for key, v, message in (
          ("initial.sigma", 0, "initial: sigma must be positive"),
          ("target.weights", [0.5, 0.6], "target: mixture weights must be positive and sum to 1"),
          ("target.sigmas", [0.1], "target: means, sigmas and weights must have equal length"))],
    pytest.param("track", "unlabeled_shooting.json", "initial",
                 {"kind": "constant", "value": float("nan")}, "initial.value",
                 id="initial.value=nan"),
    pytest.param("track", "labeled_fixed_endpoint.json", "horizon", 10**400, "horizon",
                 id="horizon=10**400"),
    # every field is checked at load, including those only a later stage reads
    pytest.param("track", "labeled_exact.json", "thresholds.max_residual", "big",
                 "thresholds.max_residual", id="max_residual=big"),
    pytest.param("validate", "labeled_exact.json", "thresholds.w2", "x", "thresholds.w2",
                 id="w2=x"),
    pytest.param("track", "labeled_fixed_endpoint.json", "solver.verify", "no",
                 "solver.verify must be true or false", id="verify=no"),
    pytest.param("track", "unlabeled_shooting.json", "solver.initial_guess", "warm",
                 "solver.initial_guess", id="initial_guess=warm"),
    pytest.param("track", "labeled_exact.json", "grid", 5, "grid must be a JSON object",
                 id="grid=5"),
    # a section's keys depend on its method or kind
    pytest.param("track", "labeled_exact.json", "solver.iterations", 5,
                 "unknown key(s) ['iterations'] in solver with method 'exact'",
                 id="exact.iterations=5"),
    pytest.param("track", "labeled_exact.json", "model.coupling", 1.0,
                 "unknown key(s) ['coupling'] in model with kind 'linear'",
                 id="linear.coupling=1.0"),
    pytest.param("track", "labeled_exact.json", "initial", {"kind": "uniform", "mean": 0.5},
                 "unknown key(s) ['mean'] in initial with kind 'uniform'",
                 id="uniform.mean=0.5"),
    pytest.param("track", "kuramoto_sync.json", "target", {"kind": "point_mass"},
                 "missing required field 'target.value'", id="point_mass.value=missing"),
    *[pytest.param("track", "labeled_exact.json", "target.kind", kind, "target.kind must be one of",
                   id=f"target.kind={kind}") for kind in ("blob", "constant")],
    pytest.param("validate", "kuramoto_sync.json", "target", {"kind": "uniform"},
                 "phase ensembles support point-mass targets only",
                 id="fourier.target=uniform"),
])
def test_track_dt_not_dividing_interval_exits_2(tmp_path, capsys, command, name, key, value,
                                                message):
    # also every scenario field: a bad value exits 2 naming the field,
    # before any work is done
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / name).read_text())
    *path, field = key.split(".")
    section = spec
    for part in path:
        section = section.setdefault(part, {})
    section[field] = value
    out = tmp_path / "bad_dt"
    scenario = str(_write(tmp_path, spec))
    if command == "validate":  # a trajectory for validate to read
        main(["simulate", "--scenario", scenario, "--out", str(out)])
    code = main([command, "--scenario", scenario, "--out", str(out)])
    assert code == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_track_warns_when_replay_blows_up(tmp_path):
    # the shipped exact scenario tracks its moments to 2e-7 in moment space,
    # while its control and the replayed members grow by orders of magnitude
    import warnings
    from pathlib import Path

    from momentsteer import SolverWarning

    spec = Path(__file__).resolve().parents[1] / "scenarios" / "labeled_exact.json"
    out = tmp_path / "blowup"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SolverWarning)
        assert main(["track", "--scenario", str(spec), "--out", str(out)]) == 0
    assert any("replayed members" in str(w.message) for w in caught)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_abs_control"] > 1e6
    assert summary["replay_max_abs_state"] > 1e3
    assert "stop_reason" not in summary


def test_track_exact_square_regime_reports_structural_gap(tmp_path):
    # as many inputs as the truncation order (one fewer than tracked
    # components): the recorded residual reflects the rank defect honestly
    import warnings

    from momentsteer import SolverWarning

    spec = _case_one_track_scenario(p=4, q=4)
    out = tmp_path / "exact_sq"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SolverWarning)
        code = main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_residual"] > 1e-6


def test_track_tpbvp_boundaries(tmp_path):
    spec = _case_one_track_scenario(p=4, q=8, solver={"method": "tpbvp", "verify": True})
    out = tmp_path / "tpbvp"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["boundary_residual_end"] <= 1e-8
    assert summary["ode_residual"] <= 1e-8
    assert summary["optimality_gap"] <= 1e-6


def test_track_tpbvp_verify_grid_checked_before_solve(tmp_path, capsys, monkeypatch):
    # dt = 0.0125 divides the horizon, but the optimality gap runs at dt/2,
    # which does not divide its 25 variation segments of 0.04
    from pathlib import Path

    import momentsteer.cli as cli

    def no_solve(*args):
        raise AssertionError("solved before the verification grid was checked")

    monkeypatch.setattr(cli, "lq_tracking_tpbvp", no_solve)
    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "labeled_fixed_endpoint.json").read_text())
    spec["dt"] = 0.0125
    out = tmp_path / "verify_grid"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: solver.verify" in err
    assert "25 variation segments" in err and "dt=0.0125" in err


@pytest.mark.parametrize("name, over, message", [
    pytest.param("labeled_exact.json", {"basis": "monomial_output"},
                 "solver 'exact' tracks labeled density moments", id="exact-basis"),
    pytest.param("labeled_fixed_endpoint.json", {"basis": "monomial_output"},
                 "solver 'tpbvp' tracks labeled density moments", id="tpbvp-basis"),
    pytest.param("labeled_exact.json", {"model": {"kind": "kuramoto", "coupling": 2.0}},
                 "solver 'exact' needs the linear model", id="exact-kuramoto"),
    pytest.param("kuramoto_sync.json",
                 {"solver": {"method": "shooting", "initial_guess": "terminal_profile"}},
                 "terminal_profile guesses apply to the linear model",
                 id="terminal_profile-kuramoto"),
    pytest.param("unlabeled_shooting.json",
                 {"basis": "monomial_param", "target": {"kind": "point_mass", "value": 0.5}},
                 "target: labeled runs need a density", id="terminal_profile-labeled-point"),
    pytest.param("labeled_exact.json", {"thresholds": {"boundary_residual": 1e-8}},
                 "thresholds.boundary_residual is reported only by the tpbvp solver",
                 id="exact-boundary_residual"),
    pytest.param("unlabeled_shooting.json", {"thresholds": {"final_order_parameter": 0.5}},
                 "thresholds.final_order_parameter is reported only by Kuramoto runs",
                 id="linear-final_order_parameter"),
])
def test_track_run_checks_precede_solve(tmp_path, capsys, monkeypatch, name, over, message):
    # a scenario that loads but that its solver or model cannot run, or that
    # sets a threshold the run does not report, exits 2 before any solve
    import momentsteer.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the scenario was checked against the run")

    for solver in ("exact_tracking_feedback", "lq_tracking_tpbvp", "direct_shooting"):
        monkeypatch.setattr(cli, solver, no_solve)
    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / name).read_text())
    spec.update(over)
    out = tmp_path / "run_check"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_track_labeled_terminal_profile_fits_density_samples(tmp_path):
    # the shipped unlabeled shooting run on labeled density moments, at 300
    # members and with no optimizer step, reports its start: the guess fits
    # the target's density samples, its member values in that basis (fitting
    # its quantiles missed the guess's own endpoint by d_M 0.61)
    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "unlabeled_shooting.json").read_text())
    spec["basis"] = "monomial_param"
    spec["grid"]["members"] = 300
    spec["solver"]["iterations"] = 0
    spec["thresholds"] = {}
    out = tmp_path / "guess"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 0.0
    assert summary["final_residual"] <= 1e-2


@pytest.mark.parametrize("command", ["plan", "track"])
def test_labeled_constant_initial_needs_unit_mass(tmp_path, capsys, command):
    # a labeled constant initial is the constant density on [lo, hi]; the
    # reference transports a unit mass, so value * (hi - lo) must be 1
    spec = _case_one_track_scenario(p=5, q=4, initial={"kind": "constant", "value": 2.0})
    path = _write(tmp_path, spec)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "two")]) == 2
    assert "configuration error: initial: density must integrate to 1" in capsys.readouterr().err
    # simulate builds no reference and takes any constant
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim")]) == 0


def test_labeled_unit_constant_initial_moments_match_members(tmp_path):
    from momentsteer import make_uniform_grid, member_moments

    spec = _case_one_track_scenario(p=5, q=4, initial={"kind": "constant", "value": 1.0})
    out = tmp_path / "one"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 0
    m0 = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1, max_rows=1)[1]
    start = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, max_rows=1)[1:]
    members_m0 = member_moments(start, make_uniform_grid(64, 0.0, 1.0), "monomial_param", 4)[0]
    np.testing.assert_array_equal(start, 1.0)
    assert abs(m0 - members_m0) <= 1e-12


@pytest.mark.parametrize("command", ["simulate", "plan", "track"])
def test_seed_is_a_validate_option_only(tmp_path, command):
    path = _write(tmp_path, _linear_sim_scenario())
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(path), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2


def test_track_tpbvp_unreachable_endpoint_exits_3(tmp_path, capsys):
    # one input cannot steer 17 moments: the matching matrix of the unit
    # costate responses is rank deficient at machine precision
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "labeled_fixed_endpoint.json").read_text())
    spec["q"], spec["model"]["inputs"] = 16, 1
    out = tmp_path / "unreachable"
    assert main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)]) == 3
    assert "boundary matching matrix is singular" in capsys.readouterr().err


@pytest.mark.parametrize("r_scale", [1e-300, 1e-6])
def test_track_tpbvp_overflow_exits_3_naming_the_run(tmp_path, r_scale):
    # tiny weights are valid, but R^-1 makes the state/costate runs overflow:
    # longdouble itself at 1e-300, the float64 image the matching solve reads
    # at 1e-6.  The failure names the run and the instant, with no NumPy
    # warning and no LAPACK message from an SVD of non-finite entries.
    # A subprocess, because LAPACK writes to the C-level stdout
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "scenarios" / "labeled_fixed_endpoint.json").read_text())
    spec["solver"]["r_scale"] = r_scale
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "momentsteer.cli", "track", "--scenario",
                           str(_write(tmp_path, spec)), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 3
    assert "solver failure: non-finite particular state/costate run at t=" in proc.stderr
    output = proc.stdout + proc.stderr
    assert "illegal value" not in output and "RuntimeWarning" not in output


def test_track_reference_moment_overflow_exits_3(tmp_path, capsys):
    # order-16 powers of atoms at 1e30 overflow while the transport reference
    # is built: the failure names the order, and no RuntimeWarning reports it
    import warnings

    spec = _linear_sim_scenario(q=16, initial={"kind": "constant", "value": 1e30})
    out = tmp_path / "overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["track", "--scenario", str(_write(tmp_path, spec)), "--out", str(out)])
    assert code == 3
    assert "order-16 moments of the transport reference overflow" in capsys.readouterr().err


def _kuramoto_scenario(**over):
    base = {
        "model": {"kind": "kuramoto", "coupling": 2.0},
        "grid": {"members": 48, "lo": -1.0, "hi": 1.0},
        "initial": {"kind": "uniform_circle"},
        "target": {"kind": "point_mass", "value": np.pi},
        "basis": "fourier",
        "q": 6,
        "horizon": 1.0,
        "dt": 2.5e-3,
        "solver": {"method": "shooting", "intervals": 8, "iterations": 25},
    }
    base.update(over)
    return base


def test_track_kuramoto_smoke_then_validate(tmp_path):
    spec = _kuramoto_scenario(thresholds={"final_order_parameter": 0.15, "w2": 3.0})
    path = _write(tmp_path, spec)
    out = tmp_path / "kuramoto"
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_order_parameter"] >= 0.15
    assert "cost" in summary and summary["converged"] in (True, False)
    assert summary["stop_reason"] in ("gradient_zero", "line_search", "budget")
    assert summary["converged"] == (summary["stop_reason"] == "gradient_zero")
    assert 0.0 < summary["replay_max_abs_state"] < 2 * np.pi
    assert summary["max_abs_control"] > 0.0
    # circular validation against the point target off the written trajectory
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["basis"] == "fourier"
    assert 0.0 <= payload["w2"] <= np.pi
    assert payload["final_order_parameter"] == pytest.approx(
        summary["final_order_parameter"], abs=1e-12)
    # d_M from member_moments on the wrapped phases: the same bits as the
    # trigonometric moments of their pushforward against the target's
    from momentsteer import (EmpiricalMeasure, make_uniform_grid, moment_metric_values,
                             moments_fourier, pushforward)

    final = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[-1, 1:]
    mu = pushforward(make_uniform_grid(48, -1.0, 1.0), np.mod(final, 2 * np.pi))
    point = EmpiricalMeasure(np.array([np.pi]), np.ones(1))
    assert payload["d_m"] == moment_metric_values(moments_fourier(mu, 6).values,
                                                  moments_fourier(point, 6).values)


def test_kuramoto_target_just_below_zero_validates(tmp_path):
    # -1e-17 mod 2 pi rounds to 2 pi itself, outside [0, 2 pi); the target's
    # moments are still those of the angle, and equal 0's up to rounding
    spec = _kuramoto_scenario(grid={"members": 8, "lo": -1.0, "hi": 1.0},
                              target={"kind": "point_mass", "value": -1e-17},
                              solver={"method": "shooting", "intervals": 8, "iterations": 3})
    path = _write(tmp_path, spec)
    out = tmp_path / "below_zero"
    assert main(["track", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
    d_m = json.loads((out / "validation.json").read_text())["d_m"]
    at_zero = _write(tmp_path, {**spec, "target": {"kind": "point_mass", "value": 0.0}},
                     "at_zero.json")
    assert main(["validate", "--scenario", str(at_zero), "--out", str(out)]) == 0
    assert d_m == pytest.approx(json.loads((out / "validation.json").read_text())["d_m"],
                                rel=0, abs=1e-14)


def test_validate_exact_final_equals_target(tmp_path):
    spec = _linear_sim_scenario(
        horizon=0.0,
        initial={"kind": "constant", "value": 0.4},
        target={"kind": "point_mass", "value": 0.4},
        thresholds={"w2": 1e-9},
    )
    path = _write(tmp_path, spec)
    out = tmp_path / "val"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["w2"] == 0.0 and payload["passed"]


def test_validate_labeled_point_mass_target(tmp_path):
    # every basis takes d_M the same way: the final members' moments against
    # the target's, here the power moments c^k of a point mass at c (as
    # running products, the way the moment sums build powers)
    from momentsteer import make_uniform_grid, member_moments, moment_metric_values

    c = 0.3
    spec = _case_one_track_scenario(p=1, q=4, target={"kind": "point_mass", "value": c})
    path = _write(tmp_path, spec)
    out = tmp_path / "labeled_point"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    final = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[-1, 1:]
    m_final = member_moments(final, make_uniform_grid(64, 0.0, 1.0), "monomial_param", 4)
    assert payload["d_m"] == moment_metric_values(m_final, np.cumprod([1.0, c, c, c, c]))
    assert list(payload) == ["basis", "clipped_negative_mass", "w2", "d_m", "threshold_w2",
                             "passed"]


def test_validate_untracked_run_fails_threshold(tmp_path):
    # free flow toward a bimodal target: nowhere close, must exit 4
    spec = _case_one_track_scenario(p=1, q=4, thresholds={"w2": 0.05})
    spec["basis"] = "monomial_output"
    path = _write(tmp_path, spec)
    out = tmp_path / "neg"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    code = main(["validate", "--scenario", str(path), "--out", str(out)])
    assert code == 4
    payload = json.loads((out / "validation.json").read_text())
    assert payload["w2"] > 0.05 and not payload["passed"]


def test_shipped_scenarios_parse_and_plan(tmp_path):
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(root.glob("*.json"))
    assert len(files) >= 4
    for f in files:
        scn = load_scenario(f)
        assert scn.q <= 16
    # the circular pipeline also feeds the plan command
    out = tmp_path / "plan_kuramoto"
    code = main(["plan", "--scenario", str(root / "kuramoto_sync.json"),
                 "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 1 + 4 * 11  # t + (re, im) x 11 moments + rates
    np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-12)   # m0 real part
    assert np.abs(rows[:, 1 + 2 * 11]).max() == 0.0           # dm0 exactly zero


def test_shipped_and_bench_scenarios_round_trip():
    # the benchmark's generated scenarios must load under the scenario format
    # as well as the shipped ones; each comes back equal through to_dict and
    # JSON, defaults filled in
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    raws = [json.loads(f.read_text()) for f in sorted((root / "scenarios").glob("*.json"))]
    raws += [scn for workload in workloads.WORKLOADS for seed in (0, 4) for tiny in (False, True)
             for _, scn in workloads.scenarios(workload, seed, tiny)]
    assert len(raws) == 4 + 4 * 2 * 2
    for raw in raws:
        scn = Scenario.from_dict(raw)
        assert Scenario.from_dict(json.loads(json.dumps(scn.to_dict()))) == scn


def test_bench_tracer_sites_resolve():
    # bench/tracing.py wraps its layers by name and reads positional
    # arguments of two of them; a renamed site would read as an absent
    # layer, a reordered signature as wrong counts
    import importlib.util
    import inspect

    import momentsteer.cli  # noqa: F401  the tracer installs after this import

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = {}
    for _, site in tracing.LAYERS:  # the lookup of Tracer.install
        module_name, attr = site.split(":")
        owner = sys.modules[f"momentsteer.{module_name}"]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert owner is not None, f"{site} does not resolve"
        found[site] = owner
    batch = inspect.signature(found["tracking:_simulate_segments_batch"]).parameters
    assert list(batch)[:6] == ["model", "x0", "grid", "U", "horizon", "dt"]
    assert list(inspect.signature(found["tracking:_rk4_affine"]).parameters)[4] == "dtype"


def test_validate_clipped_mass_independent_of_member_count(tmp_path):
    # the same labeled profile, negative on half the interval, sampled on
    # 200 and 400 members: the clipped mass is an integral, 1/pi here
    masses = []
    for members in (200, 400):
        spec = _case_one_track_scenario(p=1, q=4)
        spec["grid"]["members"] = members
        path = _write(tmp_path, spec, f"clip{members}.json")
        out = tmp_path / f"clip{members}"
        out.mkdir()
        beta = (np.arange(members) + 0.5) / members
        row = ",".join(f"{v:.17g}" for v in np.concatenate([[1.0], np.sin(2 * np.pi * beta)]))
        header = ",".join(["t"] + [f"member_{j}" for j in range(members)])
        (out / "trajectory.csv").write_text(header + "\n" + row + "\n")
        assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
        masses.append(json.loads((out / "validation.json").read_text())["clipped_negative_mass"])
    assert abs(masses[0] - masses[1]) <= 1e-3
    assert abs(masses[1] - 1 / np.pi) <= 1e-3


def test_validate_labeled_run_draws_no_samples(tmp_path, monkeypatch):
    # a labeled run's W2 is a quadrature: validate creates no random generator
    def no_rng(*args, **kwargs):
        raise AssertionError("validate created a random generator")

    path = _write(tmp_path, _case_one_track_scenario(p=1, q=4))
    out = tmp_path / "labeled"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
    assert "w2" in json.loads((out / "validation.json").read_text())


def test_validate_seeded_sampling_reproducible(tmp_path):
    spec = _case_one_track_scenario(p=1, q=4)
    spec["basis"] = "monomial_output"
    path = _write(tmp_path, spec)
    out = tmp_path / "seeded"
    main(["simulate", "--scenario", str(path), "--out", str(out)])
    main(["validate", "--scenario", str(path), "--out", str(out), "--seed", "5"])
    first = (out / "validation.json").read_bytes()
    main(["validate", "--scenario", str(path), "--out", str(out), "--seed", "5"])
    assert (out / "validation.json").read_bytes() == first


@pytest.mark.parametrize("case", ["cell_abc", "cell_nan", "no_trajectory", "moment_overflow",
                                  "member_count", "no_mass", "mass_overflow"])
def test_validate_input_faults_exit_with_documented_code(tmp_path, capsys, case):
    # faults in validate's inputs exit 2 (configuration) or 3 (moment
    # overflow, a labeled profile without mass or whose mass overflows)
    # with a message naming the file or cause, never a traceback; a missing
    # scenario file is covered for every subcommand below
    spec = _linear_sim_scenario(q=8, grid={"members": 4, "lo": 0.0, "hi": 1.0})
    if case in ("no_mass", "mass_overflow"):
        spec["basis"] = "monomial_param"
    path = _write(tmp_path, spec)
    out = tmp_path / "val"
    out.mkdir()
    row = {"cell_abc": "0.5,abc,0.5,0.5", "cell_nan": "0.5,nan,0.5,0.5",
           "moment_overflow": "0.5,1e300,0.5,0.5", "member_count": "0.5,0.5,0.5",
           "no_mass": "0,-0.5,0,-1",
           # finite moments, but the trapezoid mass overflows
           "mass_overflow": "1e308,1.7e308,1.7e308,1e308"}.get(case, "0.5,0.5,0.5,0.5")
    if case != "no_trajectory":
        (out / "trajectory.csv").write_text(
            "t,member_0,member_1,member_2,member_3\n" + f"1.0,{row}\n")
    code = main(["validate", "--scenario", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    expected = {
        "cell_abc": (2, "trajectory.csv, last row: could not convert string to float: 'abc'"),
        "cell_nan": (2, "trajectory.csv, last row: member values must be finite"),
        "no_trajectory": (2, "cannot read " + str(out / "trajectory.csv")),
        "moment_overflow": (3, "order-8 moments of the final states in"),
        "member_count": (2, "trajectory members do not match the scenario grid"),
        "no_mass": (3, "final labeled profile has no mass"),
        "mass_overflow": (3, "the mass of the final labeled profile in"),
    }[case]
    assert code == expected[0]
    assert expected[1] in err and "Traceback" not in err
    if code == 3:
        assert not (out / "validation.json").exists()


@pytest.mark.parametrize("command", ["simulate", "plan", "track", "validate"])
def test_missing_scenario_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "nope.json"
    assert main([command, "--scenario", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert f"configuration error: cannot read scenario {missing}" in capsys.readouterr().err


def test_huge_integer_literal_exits_2(tmp_path, capsys):
    # Python refuses to convert an integer literal of more than 4300 digits;
    # json.dumps refuses to write one, so the file is written as text
    root = Path(__file__).resolve().parents[1]
    text = (root / "scenarios" / "labeled_exact.json").read_text()
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"q": 8', '"q": ' + "9" * 5000, 1))
    assert path.read_text() != text
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: scenario is not valid JSON" in err and "Traceback" not in err


def test_cli_loads_no_scipy(tmp_path):
    # the package needs no SciPy: not at import, and not to track and
    # validate any shipped scenario, shooting included
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, json, momentsteer.cli as cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "loaded = {'import': scipy()}\n"
        "for i, path in enumerate(sys.argv[2:]):\n"
        "    out = f'{sys.argv[1]}/{i}'\n"
        "    codes = [cli.main([cmd, '--scenario', path, '--out', out]) for cmd in ('track', 'validate')]\n"
        "    loaded[path] = codes + scipy()\n"
        "print(json.dumps(loaded))\n"
    )
    scenarios = sorted(str(p) for p in (root / "scenarios").glob("*.json"))
    assert len(scenarios) == 4
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *scenarios], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], **{path: [0, 0] for path in scenarios}}


def test_labeled_runs_load_no_numpy_random(tmp_path):
    # a labeled track + validate, the optimality gap included, needs no
    # random numbers; importing numpy.random alone adds about 5 MB resident.
    # A subprocess, because patching np.random in this one imports it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, json, momentsteer.cli as cli\n"
        "codes = [cli.main([cmd, '--scenario', path, '--out', f'{sys.argv[1]}/{i}'])\n"
        "         for i, path in enumerate(sys.argv[2:]) for cmd in ('track', 'validate')]\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
    )
    scenarios = [str(root / "scenarios" / f"labeled_{name}.json")
                 for name in ("fixed_endpoint", "exact")]
    assert json.loads((root / "scenarios" / "labeled_fixed_endpoint.json").read_text()
                      )["solver"]["verify"] is True
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *scenarios], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, 0, 0, 0], False]
