"""Tests for ``tools/sweep.py``, the seed-sweep harness."""

import argparse
import csv
import dataclasses
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from singlab import cli
from singlab.util import Check

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("sweep_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(out, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(out), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_one_row_at_one_seed_writes_the_schema(tmp_path):
    out = tmp_path / "out"
    proc = run_tool(out, "--seeds", "0", "--rows", "conicality")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep.json"]
    (record,) = json.loads((out / "sweep.json").read_text())
    assert set(record) == {"row", "seed", "verdict", "expected", "passed", "unmet", "margins"}
    assert (record["row"], record["seed"], record["expected"]) == ("conicality", 0, "passed")
    assert record["passed"] == (record["verdict"] == "passed")
    # The margins are the slacks of the records the conicality verdict reads.
    args = argparse.Namespace(config=None, seed=0, threads=1, out=tmp_path / "run")
    checks = cli.run_experiment(cli.build_config("conicality", args)).results["checks"]
    names = [c["name"] for c in checks]
    assert list(record["margins"]) == names
    assert record["margins"] == {c["name"]: c["slack"] for c in checks}
    assert record["unmet"] == [c["name"] for c in checks if not c["holds"]]
    assert all(isinstance(v, float) for v in record["margins"].values())
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "seed", "verdict", "passed", *names]
    assert rows[1][:4] == ["conicality", "0", record["verdict"], str(int(record["passed"]))]
    assert [float(v) for v in rows[1][4:]] == [record["margins"][n] for n in names]
    assert len(rows) == 2
    assert proc.stdout.startswith(f"conicality: {int(record['passed'])}/1 pass")
    # The row's wall seconds are in the summary only; the files above hold none.
    assert re.match(r"conicality: [01]/1 pass in \d+\.\d\d s[;\n]", proc.stdout)


def test_refuses_a_used_output_directory(tmp_path):
    (tmp_path / "old.csv").write_text("left by an earlier run\n")
    proc = run_tool(tmp_path, "--seeds", "0", "--rows", "conicality")
    assert proc.returncode == 2
    assert "is not an empty directory" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


def test_seed_ranges_and_the_summary():
    tool = load_tool()
    assert tool._seeds(["0-3", "7"]) == [0, 1, 2, 3, 7]
    records = [
        {"row": "bs1", "seed": 0, "passed": True, "unmet": [],
         "margins": {"cone": 0.2, "side_b": 0.5}},
        {"row": "bs1", "seed": 9, "passed": False, "unmet": ["side_b"],
         "margins": {"cone": 0.3, "side_b": -0.1}},
        {"row": "bs1", "seed": 10, "passed": False, "unmet": ["cone", "side_b"],
         "margins": {"cone": None, "side_b": None}},
        {"row": "b245", "seed": 0, "passed": True, "unmet": [], "margins": {"cone": 0.25}},
        {"row": "b245", "seed": 1, "passed": True, "unmet": [], "margins": {"cone": 0.25}},
    ]
    # The mean is over the seeds where a margin is a number.
    assert tool.summary(records) == (
        "bs1: 1/3 pass; failing seeds 9 (side_b), 10 (cone, side_b); "
        "closest cone 0.2 (seed 0, mean 0.25), side_b -0.1 (seed 9, mean 0.2)\n"
        "b245: 2/2 pass; closest cone 0.25 (seed 0, mean 0.25)\n"
    )


def test_the_summary_gives_each_rows_wall_seconds_when_timed():
    tool = load_tool()
    records = [
        {"row": "bs1", "seed": 13, "passed": False, "unmet": ["side_b"],
         "margins": {"side_b": -0.03}},
        {"row": "b245", "seed": 13, "passed": True, "unmet": [], "margins": {"cone": 0.2}},
    ]
    assert tool.summary(records, {"bs1": 14.2049, "b245": 2.0}) == (
        "bs1: 0/1 pass in 14.20 s; failing seeds 13 (side_b); "
        "closest side_b -0.03 (seed 13, mean -0.03)\n"
        "b245: 1/1 pass in 2.00 s; closest cone 0.2 (seed 13, mean 0.2)\n"
    )


def test_every_row_names_a_known_experiment():
    tool = load_tool()
    from singlab import cli

    assert set(tool.ROWS) == {
        "bs1", "b245", "thin-wedge", "lipschitz", "density-anchors", "conicality", "collapse"
    }
    for experiment, _, threads, _ in tool.ROWS.values():
        assert experiment in cli.EXPERIMENTS
        assert threads in (1, 2)


def test_a_nan_record_fails_and_reads_as_a_missing_margin(tmp_path, monkeypatch):
    tool = load_tool()
    nan = Check.at_most("max inner/outer ratio", math.nan, 2.0)
    assert not nan.holds and math.isnan(nan.slack)
    checks = [dataclasses.asdict(Check.at_most("flagged rungs", 0, 0)), dataclasses.asdict(nan)]
    outcome = cli.Outcome("conicality", "failed", {"checks": checks}, [], {})
    monkeypatch.setattr(tool.cli, "run_experiment", lambda cfg: outcome)
    record = tool.run_row("conicality", 0, tmp_path)
    assert record["unmet"] == ["max inner/outer ratio"]
    assert record["margins"] == {"flagged rungs": 0.0, "max inner/outer ratio": None}
    tool.write(tmp_path, [record])
    (saved,) = json.loads((tmp_path / "sweep.json").read_text())
    assert saved["margins"]["max inner/outer ratio"] is None
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][4:] == ["flagged rungs", "max inner/outer ratio"]
    assert rows[1][4:] == ["0.0", ""]
    assert "failing seeds 0 (max inner/outer ratio)" in tool.summary([record])


def test_compare_prints_one_line_for_identical_records():
    tool = load_tool()
    records = [
        {"row": "bs1", "seed": 0, "verdict": "separating-evidence", "expected": "separating-evidence",
         "passed": True, "unmet": [], "margins": {"cone": 0.2, "side_b": None}},
    ]
    assert tool.compare(records, json.loads(json.dumps(records))) == "identical: 1 records\n"


def test_compare_reports_verdicts_margins_and_moves():
    tool = load_tool()

    def record(row, seed, verdict, **margins):
        return {"row": row, "seed": seed, "verdict": verdict, "passed": verdict == "ok",
                "unmet": [], "margins": margins}

    before = [
        record("bs1", 0, "ok", cone=0.2, side_b=0.5),
        record("bs1", 1, "inconclusive", cone=0.3, side_b=-0.1),
        record("bs1", 2, "ok", cone=0.4, side_b=None),
        record("b245", 0, "ok", cone=0.25),
        record("b245", 1, "ok", cone=0.3),
    ]
    after = [
        record("bs1", 0, "ok", cone=0.19, side_b=0.5),
        record("bs1", 1, "ok", cone=0.3, side_b=0.05),
        record("bs1", 2, "failed", cone=0.7, side_b=None),
        record("b245", 0, "ok", cone=0.25),
        record("b245", 2, "ok", cone=None),
    ]
    # The closest value and the mean are over each side's own seeds; a move
    # needs a number on both sides, and the largest is by size, with its sign.
    assert tool.compare(before, after) == (
        "5 of 5 records differ\n"
        "bs1: verdict changed at seeds 1 (inconclusive -> ok), 2 (ok -> failed)\n"
        "  cone: closest 0.2 (seed 0) -> 0.19 (seed 0), mean 0.3 -> 0.3967, "
        "largest move +0.3 (seed 2)\n"
        "  side_b: closest -0.1 (seed 1) -> 0.05 (seed 1), mean 0.2 -> 0.275, "
        "largest move +0.15 (seed 1)\n"
        "b245: no verdict changed; seeds only before 1; seeds only after 2\n"
        "  cone: closest 0.25 (seed 0) -> 0.25 (seed 0), mean 0.275 -> 0.25, "
        "largest move +0 (seed 0)\n"
    )
    only_nan = [record("bs1", 0, "ok", cone=None)]
    assert tool.compare(only_nan, [record("bs1", 0, "failed", cone=None)]) == (
        "1 of 1 records differ\n"
        "bs1: verdict changed at seeds 0 (ok -> failed)\n"
        "  cone: closest none -> none, mean none -> none, largest move none\n"
    )


def fake_conicality(tool, monkeypatch, slack):
    checks = [dataclasses.asdict(Check.at_most("max inner/outer ratio", 2.0 - slack, 2.0))]
    outcome = cli.Outcome("conicality", "passed", {"checks": checks}, [], {})
    calls = []

    def run(cfg):
        calls.append(cfg)
        return outcome

    monkeypatch.setattr(tool.cli, "run_experiment", run)
    return calls


def test_against_compares_the_run_with_an_earlier_sweep(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    args = ["--seeds", "0", "1", "--rows", "conicality"]
    fake_conicality(tool, monkeypatch, 0.25)
    assert tool.main([str(tmp_path / "parent"), *args]) == 0
    assert tool.main([str(tmp_path / "same"), *args, "--against", str(tmp_path / "parent")]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"against {tmp_path / 'parent' / 'sweep.json'}: identical: 2 records\n")
    fake_conicality(tool, monkeypatch, 0.125)
    assert tool.main([str(tmp_path / "moved"), *args, "--against", str(tmp_path / "parent")]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        f"against {tmp_path / 'parent' / 'sweep.json'}: 2 of 2 records differ\n"
        "conicality: no verdict changed\n"
        "  max inner/outer ratio: closest 0.25 (seed 0) -> 0.125 (seed 0), "
        "mean 0.25 -> 0.125, largest move -0.125 (seed 0)\n"
    )


def test_against_needs_an_earlier_sweep_before_running(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    calls = fake_conicality(tool, monkeypatch, 0.25)
    with pytest.raises(SystemExit) as exc:
        tool.main([str(tmp_path / "out"), "--rows", "conicality", "--against", str(tmp_path)])
    assert exc.value.code == 2
    assert "holds no sweep.json" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()
