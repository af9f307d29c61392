"""Tests for ``tools/parity.py``, the byte-identity output writer."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
CONFIGS = ("slice-t0.ini", "slice-t1.ini")


def load_tool():
    spec = importlib.util.spec_from_file_location("parity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_a_thread_dependent_output_is_named_and_fails_the_run(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    written = {
        "slice-t0/seed0/report.json": "{}\n",
        "slice-t0/seed0-threads2/report.json": "{}\n",
        "slice-t0/seed1/report.json": "{\"n\": 1}\n",
        "slice-t0/seed1-threads2/report.json": "{\"n\": 2}\n",
        "slice-t0/seed1/components.csv": "a\n",
        "slice-t1/seed0/summary.txt": "same\n",
        "slice-t1/seed0-threads2/summary.txt": "same\n",
        "slice-t1/seed0-threads2/extra.csv": "only here\n",
    }
    monkeypatch.setattr(tool, "run", lambda out, seeds, names=None: write_tree(out, written))
    assert tool.main([str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"differs from the --threads 1 output: {name}" for name in (
            "slice-t0/seed1-threads2/components.csv",
            "slice-t0/seed1-threads2/report.json",
            "slice-t1/seed0-threads2/extra.csv",
        )
    ]
    same = {k: v for k, v in written.items() if "seed0" in k and "extra" not in k}
    write_tree(tmp_path / "same", same)
    assert tool.thread_mismatches(tmp_path / "same") == []
