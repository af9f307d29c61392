"""singlab benchmark: the README acceptance experiments, end to end and per layer.

Run from the root of a checkout (no install needed; the sources are read
from ./src)::

    python3 perfbench/run.py --workload certificate --seed 0 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  Each run:

* times set-up (a fresh interpreter importing numpy, scipy and singlab and
  building the workload's configs and surfaces) in several interpreters and
  reports the median as ``setup_s``;
* starts one worker interpreter that runs passes at threads 1 for about
  ``--seconds`` (at least two passes), each under a host-speed probe
  (``probe.py``), and reports the median pass time at nominal host speed as
  ``norm_wall_s`` and the worker's peak RSS as ``peak_rss_mb``;
* checks every outcome against the README acceptance thresholds and that
  results are identical across passes.

With ``--trace 1`` the worker also runs one pass at threads 2 (checked for
results identical to threads 1), then wraps the library's public functions
(see ``spans.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when there are no
singlab sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 2  # set-up-only interpreters, besides the measuring one
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
OUT_DIR = ".perfbench-out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_worker(cmd, env, timeout):
    """(seconds until the worker printed 'ready', output lines, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        reader.join()
    ready = next((t - start for t, line in lines if line == "ready"), None)
    return ready, [line for _, line in lines], proc.returncode


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "singlab" / "__init__.py").is_file():
        print("perfbench: no ./src/singlab here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same string hashing, so set orders, in every run
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]

    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        ready, _lines, code = _run_worker(base + ["--setup-only"], env, 60.0)
        if code != 0 or ready is None:
            print("perfbench: set-up failed", file=sys.stderr)
            return 1
        setup.append(ready)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(spans_out)]
    try:
        ready, lines, code = _run_worker(cmd, env, deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        print("perfbench: worker ran out of time", file=sys.stderr)
        return 1
    if code != 0 or ready is None or not lines:
        print(f"perfbench: worker failed with exit code {code}", file=sys.stderr)
        return 1
    setup.append(ready)
    summary = json.loads(lines[-1])

    print("provenance: " + json.dumps(summary["provenance"], sort_keys=True))
    checks = summary["checks"]
    failed = sum(1 for _, ok, _ in checks if not ok)
    worst = {}
    for name, ok, margin in checks:
        if name not in worst or margin < worst[name][1]:
            worst[name] = (ok, margin)
    for name, (ok, margin) in worst.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}: margin {margin:.6g}")
    print(f"error_rate: {workloads.error_rate(checks):.6g} "
          f"({failed} of {len(checks)} checks failed)")
    print(f"setup_s samples: {[round(s, 4) for s in setup]}")

    if args.trace:
        print(f"untraced pass: {summary['base_wall_s']:.4f} s wall, "
              f"{summary['base_norm_s']:.4f} s normalized; threads 2: "
              f"{summary['t2_wall_s']:.4f} s wall; traced passes: "
              f"{[round(w, 4) for w in summary['traced_walls_s']]} s wall, "
              f"{[round(w, 4) for w in summary['traced_norms_s']]} s normalized; "
              f"tracing overhead: {summary['layers']['trace.overhead_s']:.4f} s")
        print(f"spans written to {spans_out.relative_to(root)}")
        metrics = {
            name: _metric(value, spans.unit_of(name))
            for name, value in summary["layers"].items()
        }
    else:
        print(f"pass walls (s): {[round(w, 4) for w in summary['walls_s']]}; "
              f"at nominal host speed: {[round(w, 4) for w in summary['norm_walls_s']]}")
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "norm_wall_s": _metric(statistics.median(summary["norm_walls_s"]), "s"),
            "peak_rss_mb": _metric(summary["maxrss_kb"] / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
