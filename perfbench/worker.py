"""One benchmark process: set a workload up, then time its passes.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  It
prints ``ready`` when set-up (imports, configs, surfaces) is done and, unless
``--setup-only`` is given, a JSON summary as its last output line.

Every threads-1 pass runs under a host-speed probe (``probe.py``) and is
reported both as wall seconds and as seconds at nominal host speed.  Untraced
(``--trace 0``): passes at threads 1, at least two.  Traced (``--trace 1``):
one untraced pass at threads 1 and one at threads 2, then traced passes at
threads 1, at least one; the difference between traced and untraced pass
time is the tracing overhead.  Another pass starts while three quarters of
the last one still fit in ``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (set-up covers the numerical stack's import time)
import scipy  # noqa: F401

import singlab
from singlab import cli

import probe
import provenance
import spans as sp
import workloads as wl

clock = time.perf_counter


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the traced run's spans")
    return parser.parse_args(argv)


class Session:
    """Passes of one workload with their checks and result fingerprints."""

    def __init__(self, workload, configs):
        self.workload = workload
        self.configs = configs
        self.checks = []
        self.reference = None

    def run(self, threads):
        """(wall seconds, seconds at nominal host speed) of one pass.

        Only a threads-1 pass is probed and normalized (None otherwise): at
        threads 2 the probe would compete with the pass's own second thread.
        """
        gc.collect()
        host = probe.Probe() if threads == 1 else contextlib.nullcontext()
        with host:
            wall, outcomes = wl.run_pass(cli, self.workload, self.configs[threads], clock)
        self.checks.extend(wl.check_pass(self.workload, outcomes))
        prints = wl.fingerprints(outcomes)
        if self.reference is None:
            self.reference = prints
        else:
            # Reports must be byte-identical across passes and thread counts.
            for entry, ref, got in zip(self.workload.entries, self.reference, prints):
                self.checks.append(wl.flag(
                    f"{self.workload.name}.{entry.label}.results_identical_t{threads}",
                    ref is not None and ref == got,
                ))
        return wall, host.normalize(wall) if threads == 1 else None


def _another_pass(done, least, start, deadline) -> bool:
    """Whether to start another pass after ``done`` passes, the last from ``start``."""
    now = clock()
    return done < least or now + 0.75 * (now - start) <= deadline


def _untraced(session, seconds):
    walls, norms = [], []
    deadline = clock() + seconds
    while True:
        start = clock()
        wall, norm = session.run(1)
        walls.append(wall)
        norms.append(norm)
        if not _another_pass(len(walls), 2, start, deadline):
            return {"walls_s": walls, "norm_walls_s": norms}


def _traced(session, seconds, spans_out):
    deadline = clock() + seconds
    base_wall, base_norm = session.run(1)
    # Threads 2 is checked for identical results and timed here, in wall seconds.
    t2_wall, _ = session.run(2)
    recorder = sp.Recorder()
    plan = [(m, a) for m, a, _ in sp.wrap_plan(singlab)]
    originals = [getattr(m, a) for m, a in plan]
    rows, walls, norms = [], [], []
    while True:
        start = clock()
        recorder.pass_id += 1
        with sp.traced(recorder, singlab):
            wall, norm = session.run(1)
        walls.append(wall)
        norms.append(norm)
        pass_spans = [s for s in recorder.spans if s.pass_id == recorder.pass_id]
        rows.append(sp.layer_metrics(pass_spans))
        self_sum, root_sum = sp.self_time_balance(pass_spans)
        roots = [s for s in pass_spans if s.parent is None]
        balanced = (
            len(roots) == len(session.workload.entries)
            and all(s.name.startswith("cli.run_experiment.") for s in roots)
            and abs(self_sum - root_sum) <= 1e-9 * root_sum
        )
        session.checks.append(wl.flag("trace.self_times_sum_to_run_experiment", balanced))
        if not _another_pass(len(walls), 1, start, deadline):
            break
    restored = all(getattr(m, a) is o for (m, a), o in zip(plan, originals))
    session.checks.append(wl.flag("trace.wrappers_restored", restored))
    if spans_out:
        with open(spans_out, "w") as handle:
            json.dump(sp.spans_json(recorder.spans), handle)
    layers = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    layers["trace.overhead_s"] = statistics.median(norms) - base_norm
    layers["cli.pass_threads2.wall_s"] = t2_wall
    return {"base_wall_s": base_wall, "base_norm_s": base_norm, "t2_wall_s": t2_wall,
            "traced_walls_s": walls, "traced_norms_s": norms, "layers": layers}


def main(argv=None) -> int:
    args = _parse(argv)
    workload = wl.WORKLOADS[args.workload]
    configs = {t: wl.build_configs(cli, workload, args.seed, t) for t in (1, 2)}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    session = Session(workload, configs)
    summary = {}
    if args.trace:
        summary.update(_traced(session, args.seconds, args.spans_out))
    else:
        summary.update(_untraced(session, args.seconds))
    summary["checks"] = session.checks
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["provenance"] = provenance.collect(Path.cwd())
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
