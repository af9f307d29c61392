"""Self-tests of the benchmark: span arithmetic, wrapper hygiene, failure
counting, the host-speed probe.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import singlab
from singlab import cli

import probe
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent


def _span(id, start, end, parent=None):
    return spans.Span(id, f"s{id}", start, end, parent, 1, {})


def test_self_times_subtract_children_once():
    nested = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(nested) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert spans.self_time_balance(nested) == (10.0, 10.0)
    # Overlapping children (spans from worker threads) are covered once.
    overlapping = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 5.0, 0)]
    assert spans.self_times(overlapping)[0] == 6.0


def test_traced_pass_restores_every_wrapper():
    workload = wl.Workload(
        "probe", (wl.Entry("mu", "mu-constancy", "continuation-mu.ini", "constant"),)
    )
    configs = wl.build_configs(cli, workload, 0, 1)
    plan = [(module, attr) for module, attr, _ in spans.wrap_plan(singlab)]
    originals = [getattr(module, attr) for module, attr in plan]
    recorder = spans.Recorder()
    with spans.traced(recorder, singlab):
        assert all(getattr(m, a) is not o for (m, a), o in zip(plan, originals))
        _, outcomes = wl.run_pass(cli, workload, configs, time.perf_counter)
    assert all(getattr(m, a) is o for (m, a), o in zip(plan, originals))
    assert wl.error_rate(wl.check_pass(workload, outcomes)) == 0.0
    names = {s.name for s in recorder.spans}
    assert "cli.run_experiment.mu-constancy" in names
    assert "surfaces.milnor_number" in names
    self_sum, root_sum = spans.self_time_balance(recorder.spans)
    assert abs(self_sum - root_sum) <= 1e-9 * root_sum


def test_wrong_expectation_raises_error_rate():
    workload = wl.Workload(
        "forced",
        (wl.Entry("bs0", "separating", "certificate-bs0.ini", "separating-evidence"),),
    )
    configs = wl.build_configs(cli, workload, 0, 1)
    _, outcomes = wl.run_pass(cli, workload, configs, time.perf_counter)
    checks = wl.check_pass(workload, outcomes)
    assert outcomes[0].verdict == "no-evidence"
    assert wl.error_rate(checks) > 0.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geodesic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_samples_during_a_pass_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.Probe(interval=0.01) as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Alarms during the region, plus the one probe after it.
    assert len(host.samples) >= 3
    assert 0.0 < host.paused < 0.2
    slowdown = sum(host.samples) / len(host.samples) / probe.NOMINAL_PROBE_S
    assert math.isclose(host.slowdown(), slowdown)
    assert math.isclose(
        host.normalize(0.2), (0.2 - host.paused) / slowdown ** probe.HOST_SENSITIVITY
    )
