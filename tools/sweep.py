"""Run the acceptance guarantees over many seeds and record every margin.

    python3 tools/sweep.py OUT [--seeds 0 1 ... | --seeds 0-19] [--rows NAME ...]

Each row is one README guarantee at its acceptance size, built with
``cli.build_config`` and run with ``cli.run_experiment``:

    bs1              separating on BS(1), n_conflict 8000, n_side 3000
    b245             separating on brieskorn(2,4,5), n_conflict 6000, n_side 2500
    thin-wedge       thin-wedge on BS(0), n 20000, threads 2
    lipschitz        lipschitz-bounds on BS(0), n 200000
    density-anchors  density-anchors, default settings
    conicality       conicality on BS(0), default settings
    collapse         tangent-cone on BS(1), default settings, threads 2

It writes ``OUT/sweep.json`` and ``OUT/sweep.csv``: one record per (row,
seed) with the verdict, whether it is the expected one, the names of the
checks that did not hold, and each margin.  The margins are the slacks of
the check records the run's verdict reads (``results.checks`` of its
report), keyed by record name: positive when the check holds.  The tool
holds no threshold of its own.

A slack that is not a finite number (a NaN value, which never holds) is
empty in the CSV and null in the JSON.  The summary printed at the end
gives, per row, the passes, each failing seed with its unmet checks, and
for each margin its closest value over the seeds, with that seed and the
margin's mean over the seeds where it is a number, and each row's total
wall seconds over its seeds; the files hold no timing, so they stay
comparable byte for byte between checkouts.  Seeds run at the thread
count of the row; no output depends on it.  The config of a row that sets parameters is
kept as ``OUT/<row>.ini``.  Nothing is written outside OUT, and OUT must be
new or empty.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from singlab import cli  # noqa: E402


# name -> (experiment, INI text or None for the defaults, threads, expected verdict)
ROWS = {
    "bs1": (
        "separating",
        "[surface]\nfamily = briancon-speder\nt = 1\n"
        "[separating]\nn_conflict = 8000\nn_side = 3000\n",
        1, "separating-evidence",
    ),
    "b245": (
        "separating",
        "[surface]\nfamily = brieskorn\nexponents = 2, 4, 5\n"
        "[separating]\nn_conflict = 6000\nn_side = 2500\n",
        1, "separating-evidence",
    ),
    "thin-wedge": ("thin-wedge", None, 2, "passed"),
    "lipschitz": ("lipschitz-bounds", None, 1, "passed"),
    "density-anchors": ("density-anchors", None, 1, "passed"),
    "conicality": ("conicality", None, 1, "passed"),
    "collapse": ("tangent-cone", None, 2, "collapsed"),
}


def _finite(value):
    return value if math.isfinite(value) else None


def run_row(name: str, seed: int, out: Path) -> dict:
    """One (row, seed) record: verdict, expected verdict, pass flag, unmet
    checks, margins."""
    experiment, ini, threads, expected = ROWS[name]
    config = None
    if ini is not None:
        config = out / f"{name}.ini"
        config.write_text(ini)
    args = argparse.Namespace(config=config, seed=seed, threads=threads, out=out)
    cfg = cli.build_config(experiment, args)
    outcome = cli.run_experiment(cfg)
    checks = outcome.results["checks"]
    return {
        "row": name,
        "seed": seed,
        "verdict": outcome.verdict,
        "expected": expected,
        "passed": outcome.verdict == expected,
        "unmet": [c["name"] for c in checks if not c["holds"]],
        "margins": {c["name"]: _finite(c["slack"]) for c in checks},
    }


def write(out: Path, records: list[dict]) -> None:
    (out / "sweep.json").write_text(json.dumps(records, indent=1) + "\n")
    names = list(dict.fromkeys(k for r in records for k in r["margins"]))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "seed", "verdict", "passed", *names])
        for r in records:
            cells = [r["margins"].get(k) for k in names]
            writer.writerow([
                r["row"], r["seed"], r["verdict"], int(r["passed"]),
                *("" if v is None else repr(v) for v in cells),
            ])


def summary(records: list[dict], wall: dict | None = None) -> str:
    """Per row: passes over seeds, the row's total wall seconds when ``wall``
    (row -> seconds) is given, failing seeds with their unmet checks, and
    each margin's closest value with its seed and its mean over the seeds."""
    lines = []
    for name in dict.fromkeys(r["row"] for r in records):
        mine = [r for r in records if r["row"] == name]
        failing = [
            f"{r['seed']} ({', '.join(r['unmet'])})" if r["unmet"] else str(r["seed"])
            for r in mine if not r["passed"]
        ]
        margins = {}  # name -> [(slack, seed)] over the seeds where it is finite
        for r in mine:
            for key, value in r["margins"].items():
                if value is not None:
                    margins.setdefault(key, []).append((value, r["seed"]))
        parts = []
        for key, seen in margins.items():
            value, seed = min(seen)
            mean = sum(v for v, _ in seen) / len(seen)
            parts.append(f"{key} {value:.4g} (seed {seed}, mean {mean:.4g})")
        fails = f"; failing seeds {', '.join(failing)}" if failing else ""
        took = f" in {wall[name]:.2f} s" if wall else ""
        lines.append(
            f"{name}: {len(mine) - len(failing)}/{len(mine)} pass{took}{fails}; "
            f"closest {', '.join(parts)}"
        )
    return "\n".join(lines) + "\n"


def _seeds(values) -> list[int]:
    seeds = []
    for value in values:
        low, _, high = value.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if high else [int(low)])
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--seeds", nargs="+", default=["0-19"], help="seeds or ranges A-B")
    parser.add_argument("--rows", nargs="+", choices=list(ROWS), help="rows (default: all)")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        parser.error(f"{args.out} exists and is not an empty directory")
    try:
        seeds = _seeds(args.seeds)
    except ValueError:
        parser.error(f"seeds must be integers or ranges A-B, got {args.seeds}")
    args.out.mkdir(parents=True, exist_ok=True)
    records, wall = [], {}
    for name in args.rows or ROWS:
        start = time.perf_counter()
        records.extend(run_row(name, seed, args.out) for seed in seeds)
        wall[name] = time.perf_counter() - start
    write(args.out, records)
    sys.stdout.write(summary(records, wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
