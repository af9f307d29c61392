"""Tests for ``tools/sweep.py``, the seed-sweep harness."""

import csv
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert set(record) == {"row", "seed", "verdict", "expected", "passed", "margins"}
    assert (record["row"], record["seed"], record["expected"]) == ("conicality", 0, "passed")
    assert record["passed"] == (record["verdict"] == "passed")
    assert set(record["margins"]) == {"max_ratio", "slope"}
    assert all(isinstance(v, float) for v in record["margins"].values())
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "seed", "verdict", "passed", "max_ratio", "slope"]
    assert rows[1][:4] == ["conicality", "0", record["verdict"], str(int(record["passed"]))]
    margins = record["margins"]
    assert [float(v) for v in rows[1][4:]] == [margins["max_ratio"], margins["slope"]]
    assert len(rows) == 2
    assert proc.stdout.startswith(f"conicality: {int(record['passed'])}/1 pass")


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
        {"row": "bs1", "seed": 0, "passed": True, "margins": {"cone": 0.2, "side_b": 0.5}},
        {"row": "bs1", "seed": 9, "passed": False, "margins": {"cone": 0.3, "side_b": -0.1}},
        {"row": "bs1", "seed": 10, "passed": False, "margins": {"cone": None, "side_b": None}},
    ]
    assert tool.summary(records) == (
        "bs1: 1/3 pass; failing seeds [9, 10]; closest cone 0.2 (seed 0), side_b -0.1 (seed 9)\n"
    )


def test_every_row_names_a_known_experiment():
    tool = load_tool()
    from singlab import cli

    assert set(tool.ROWS) == {
        "bs1", "b245", "thin-wedge", "lipschitz", "density-anchors", "conicality"
    }
    for experiment, _, threads, _, _ in tool.ROWS.values():
        assert experiment in cli.EXPERIMENTS
        assert threads in (1, 2)


def test_a_zero_standard_error_reads_as_a_missing_margin():
    tool = load_tool()
    assert tool._slack(0.5, 1.5) == pytest.approx(2.0 / 3.0)
    assert math.isnan(tool._slack(0.0, 0.0))
    assert tool._finite(tool._slack(0.1, 0.0)) is None
