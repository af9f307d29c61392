"""Tests for ``tools/parity.py``, the byte-identity output writer."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
CONFIGS = ("slice-t0.ini", "slice-t1.ini")


def run_tool(out):
    return subprocess.run(
        [sys.executable, str(TOOL), str(out), "--seeds", "0", "1", "--configs", *CONFIGS],
        capture_output=True, text=True, timeout=300,
    )


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_two_slice_configs_write_every_output_but_metadata(tmp_path):
    runs = [run_tool(tmp_path / name) for name in ("a", "b")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    files = {"report.json", "summary.txt", "components.csv", "stdout.txt", "exit_status.txt"}
    assert set(a) == {
        f"{Path(config).stem}/seed{seed}{suffix}/{name}"
        for config in CONFIGS for seed in (0, 1) for suffix in ("", "-threads2")
        for name in files
    }
    # The thread count changes no output.
    for key, value in a.items():
        if "-threads2/" in key:
            assert value == a[key.replace("-threads2/", "/")]
    for run in ("slice-t0/seed0", "slice-t1/seed1"):
        assert a[f"{run}/exit_status.txt"] == b"0\n"
        assert a[f"{run}/stdout.txt"] == a[f"{run}/summary.txt"]
    assert b"verdict: 3\n" in a["slice-t1/seed1/summary.txt"]
    assert b"seed: 1\n" in a["slice-t1/seed1/summary.txt"]
    # What ``diff -r`` compares between two checkouts: here one checkout twice.
    assert a == b


def test_refuses_a_used_output_directory(tmp_path):
    stray = tmp_path / "slice-t0" / "seed0" / "old.csv"
    stray.parent.mkdir(parents=True)
    stray.write_text("left by an earlier run\n")
    proc = run_tool(tmp_path)
    assert proc.returncode == 2
    assert "is not an empty directory" in proc.stderr
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()] == [
        "slice-t0/seed0/old.csv"
    ]
    assert stray.read_text() == "left by an earlier run\n"
