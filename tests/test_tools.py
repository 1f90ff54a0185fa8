"""Tests of the standard-library tools under ``tools/``: the verdicts of the
alternating-pair benchmark driver and the code-line counter.  Each tool is
loaded by its file path, as it is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
code_lines = _load("code_lines")


def _result(pipeline_s, setup_s=0.25):
    return {"metrics": {"pipeline_s": {"value": pipeline_s}, "setup_s": {"value": setup_s}},
            "failed": 0, "attempted": 1, "correct": True}


def _summary(parent, change, better="lower", bound=0.25):
    runs = {"parent": [p if isinstance(p, dict) else _result(p) for p in parent],
            "change": [c if isinstance(c, dict) else _result(c) for c in change]}
    return bench_pairs.summarize(runs, [("pipeline_s", better, bound)])


def test_bench_pairs_ties_count_for_neither_side():
    out = _summary([1.0] * 10, [1.0] * 10)["pipeline_s"]
    assert out["change_wins"] == "0/10"
    assert out["gain"] is False
    assert out["within_bound"] is True


@pytest.mark.parametrize("wins, gain", [(10, True), (9, True), (8, False)])
def test_bench_pairs_gain_needs_nine_of_ten_wins(wins, gain):
    # the parent spreads over 1.00-1.09, so its IQR is small beside the move
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p - 0.5 if i < wins else p + 0.01 for i, p in enumerate(parent)]
    out = _summary(parent, change)["pipeline_s"]
    assert out["change_wins"] == f"{wins}/10"
    assert out["gain"] is gain


def test_bench_pairs_gain_needs_a_move_beyond_the_parent_iqr():
    # the change wins every pair by 0.05, but the parent's IQR is 0.45
    parent = [1.0 + 0.1 * i for i in range(10)]
    out = _summary(parent, [p - 0.05 for p in parent])["pipeline_s"]
    assert out["change_wins"] == "10/10"
    assert out["parent_iqr"] == pytest.approx(0.45)
    assert out["gain"] is False
    out = _summary(parent, [p - 0.5 for p in parent])["pipeline_s"]
    assert out["gain"] is True


@pytest.mark.parametrize("better, change, within", [
    ("lower", 2.19, True), ("lower", 2.21, False),
    ("higher", 1.81, True), ("higher", 1.79, False)])
def test_bench_pairs_bound_is_relative_to_the_parent_median(better, change, within):
    out = _summary([2.0] * 4, [change] * 4, better=better, bound=0.1)["pipeline_s"]
    assert out["within_bound"] is within
    assert _summary([2.0] * 4, [change] * 4, bound=None)["pipeline_s"]["within_bound"] is None


def test_bench_pairs_leaves_errored_runs_out():
    error = {"error": "exit code 1", "stderr": ""}
    out = _summary([1.0, error, 1.0, 1.0], [0.5, 0.5, error, 0.5])
    assert out["pipeline_s"]["change_wins"] == "2/2"
    assert out["pipeline_s"]["parent_median"] == 1.0
    assert out["setup_plus_pipeline_s"]["change_median"] == 0.75
    assert out["failed_runs"] == {"parent": 1, "change": 1}
    assert out["attempted_ops"] == {"parent": 3, "change": 3}


def test_bench_pairs_without_pairs_gives_no_verdict():
    error = {"error": "exit code 1", "stderr": ""}
    out = _summary([error, 1.0], [1.0, error])["pipeline_s"]
    assert out["change_wins"] == "0/0"
    assert out["parent_median"] is None and out["change_median"] is None
    assert out["gain"] is False
    assert out["within_bound"] is None


def test_code_lines_skips_docstrings_and_comments(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Box:
    """Class docstring."""

    def area(self):
        """Function
        docstring."""
        return math.pi


TABLE = """not a
docstring"""
''')
    # import, class, def, return and the two lines of TABLE
    assert code_lines.code_lines(path) == 6


def test_code_lines_without_files_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted((ROOT / "src" / "momentsteer").glob("*.py"))
    assert len(lines) == len(modules) + 1 and lines[-1].endswith("total")
    assert int(lines[-1].split()[0]) == sum(code_lines.code_lines(m) for m in modules)
