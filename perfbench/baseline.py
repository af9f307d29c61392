"""Traced runs of the ROADMAP baseline configurations, at acceptance size.

    PYTHONPATH=src python3 perfbench/baseline.py

Runs, with the benchmark's span wrappers installed:

* the BS(1) separating certificate (n_conflict 8000, n_side 3000, threads 1);
* the thin-wedge acceptance table on BS(0) (15 cells of 20,000 draws);
* ``sample_ball`` with 60,000 draws and ``sample_link`` with 8,000 draws on
  BS(1) at radius 0.1, untraced, at threads 1 and 2.

and prints the wall time and the stage self times that the ROADMAP baseline
table lists, as JSON.  The run takes about two minutes on 2 cores.  It is a
one-off comparison, not part of the benchmark runs.
"""

from __future__ import annotations

import json
import sys
import time

import singlab
from singlab import sampling, separating, surfaces

import spans


def _stages(recorder) -> dict:
    own = spans.self_times(recorder.spans)
    out = {}
    for span in recorder.spans:
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[span.id]
    keep = (
        "surfaces.all_roots", "separating.cone_density_report",
        "separating.bisector_gap", "util.bootstrap_sum_se",
        "surfaces.slice_structure", "surfaces.track_root_system",
    )
    return {name: out[name] for name in keep if name in out}


def _traced(fn):
    recorder = spans.Recorder()
    with spans.traced(recorder, singlab):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    return result, {"wall_s": wall, "stages": _stages(recorder)}


def main() -> int:
    bs0, bs1 = surfaces.briancon_speder(0.0), surfaces.briancon_speder(1.0)
    report = {}
    cert, report["bs1_certificate"] = _traced(lambda: separating.separating_certificate(
        bs1, separating.CertificateParams(n_conflict=8000, n_side=3000, threads=1)
    ))
    report["bs1_certificate"]["verdict"] = cert.verdict
    table, report["thin_wedge"] = _traced(lambda: separating.thin_wedge_volume(
        bs0, (0.05, 0.1, 0.2), (0.05, 0.035, 0.025, 0.018, 0.0125), 20000, seed=0,
        threads=1,
    ))
    report["thin_wedge"]["passed"] = table.passed
    for name, fn, n in (
        ("sample_ball_60k", sampling.sample_ball, 60000),
        ("sample_link_8k", sampling.sample_link, 8000),
    ):
        for threads in (1, 2):
            start = time.perf_counter()
            fn(bs1, 0.1, n, None, 0, threads=threads)
            report[f"{name}_t{threads}_s"] = time.perf_counter() - start
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
