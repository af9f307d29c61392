"""Run the acceptance guarantees over many seeds and record every margin.

    python3 tools/sweep.py OUT [--seeds 0 1 ... | --seeds 0-19] [--rows NAME ...]
                           [--against PARENT_OUT]

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
checks that did not hold, and each margin.  From the same records it writes
``OUT/table.md``, README's sweep table: per row its guarantee, the passes,
each failing seed with its unmet checks and their slacks, and the smallest
slack on a passing seed.  The margins are the slacks of
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

With ``--against PARENT_OUT`` the run then compares its records with
``PARENT_OUT/sweep.json``, an earlier sweep (say, of the parent commit).
Identical records print one line that says so.  Otherwise it prints, per
row, the seeds whose verdict changed and, per margin, the closest value and
the mean before and after, with the largest move at one seed.  It reports
moves and judges none.
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

# name -> the README guarantee the row checks, as table.md names it
GUARANTEES = {
    "bs1": "5, X₁ certificate (8,000 / 3,000)",
    "b245": "5, brieskorn(2,4,5) certificate (6,000 / 2,500)",
    "thin-wedge": "6, thin-wedge volume law",
    "lipschitz": "7, Lipschitz bounds",
    "density-anchors": "8, density anchors",
    "conicality": "conicality of X₀ (default probe)",
    "collapse": "4, tangent-cone collapse of X₁ (n 5,000, threads 2)",
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
    (out / "table.md").write_text(table(records))


def _closest(records: list[dict], key: str) -> tuple | None:
    """(closest value, its seed, mean) of one margin over the records where
    it is a number, or None where it is a number at none."""
    seen = [(r["margins"][key], r["seed"]) for r in records
            if r["margins"].get(key) is not None]
    if not seen:
        return None
    value, seed = min(seen)
    return value, seed, sum(v for v, _ in seen) / len(seen)


def _margin_keys(records: list[dict]) -> list[str]:
    return list(dict.fromkeys(k for r in records for k in r["margins"]))


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
        parts = []
        for key in _margin_keys(mine):
            if (closest := _closest(mine, key)) is not None:
                value, seed, mean = closest
                parts.append(f"{key} {value:.4g} (seed {seed}, mean {mean:.4g})")
        fails = f"; failing seeds {', '.join(failing)}" if failing else ""
        took = f" in {wall[name]:.2f} s" if wall else ""
        lines.append(
            f"{name}: {len(mine) - len(failing)}/{len(mine)} pass{took}{fails}; "
            f"closest {', '.join(parts)}"
        )
    return "\n".join(lines) + "\n"


def _code(key: str) -> str:
    return "`" + key.replace("|", "\\|") + "`"  # a bare pipe would end the table cell


def _unmet_text(record: dict) -> str:
    """A failing seed, with each unmet check's slack (NaN where it is no number)."""
    if not record["unmet"]:
        return str(record["seed"])
    slacks = [(key, record["margins"].get(key)) for key in record["unmet"]]
    cells = [f"{_code(key)} {'NaN' if v is None else format(v, '.4g')}" for key, v in slacks]
    return f"{record['seed']} ({', '.join(cells)})"


def table(records: list[dict]) -> str:
    """README's sweep table in Markdown: per row its guarantee, passes over
    seeds, each failing seed with its unmet checks and their slacks, and the
    smallest slack on a passing seed, with every margin that ties it there.
    Margins that take one value on every passing seed (count checks, and the
    plane anchor's exact checks) do not depend on the seed and are left out
    of the last column."""
    lines = [
        "| guarantee | passes | failing seeds (unmet check, slack) "
        "| smallest slack on a passing seed |",
        "| --- | --- | --- | --- |",
    ]
    for name in dict.fromkeys(r["row"] for r in records):
        mine = [r for r in records if r["row"] == name]
        passing = [r for r in mine if r["passed"]]
        failing = ", ".join(_unmet_text(r) for r in mine if not r["passed"])
        seen = [
            (r["margins"][key], r["seed"], key)
            for key in _margin_keys(passing)
            if len({r["margins"].get(key) for r in passing}) > 1
            for r in passing if r["margins"].get(key) is not None
        ]
        smallest = ""
        if seen:
            value, seed, _ = min(seen)
            names = " and ".join(_code(k) for v, s, k in seen if (v, s) == (value, seed))
            smallest = f"{names} {value:.4g} (seed {seed})"
        lines.append(
            f"| {GUARANTEES[name]} | {len(passing)} / {len(mine)} | {failing} | {smallest} |"
        )
    return "\n".join(lines) + "\n"


def _closest_text(records: list[dict], key: str) -> tuple[str, str]:
    found = _closest(records, key)
    if found is None:
        return "none", "none"
    value, seed, mean = found
    return f"{value:.4g} (seed {seed})", f"{mean:.4g}"


def compare(before: list[dict], after: list[dict]) -> str:
    """How the records moved from ``before`` to ``after``: one line when they
    are identical; else per row the seeds whose verdict changed and the seeds
    only one side ran, and per margin the closest value and the mean before
    and after, with the largest move at a seed both sides hold a number for."""
    if before == after:
        return f"identical: {len(after)} records\n"
    keyed = [{(r["row"], r["seed"]): r for r in side} for side in (before, after)]
    differ = sum(keyed[0].get(k) != keyed[1].get(k) for k in {*keyed[0], *keyed[1]})
    lines = [f"{differ} of {len(after)} records differ"]
    for name in dict.fromkeys(r["row"] for r in before + after):
        old = {r["seed"]: r for r in before if r["row"] == name}
        new = {r["seed"]: r for r in after if r["row"] == name}
        both = [seed for seed in new if seed in old]
        changed = [
            f"{seed} ({old[seed]['verdict']} -> {new[seed]['verdict']})"
            for seed in both if old[seed]["verdict"] != new[seed]["verdict"]
        ]
        parts = [f"verdict changed at seeds {', '.join(changed)}" if changed
                 else "no verdict changed"]
        for label, mine, other in (("before", old, new), ("after", new, old)):
            alone = [str(seed) for seed in mine if seed not in other]
            if alone:
                parts.append(f"seeds only {label} {', '.join(alone)}")
        lines.append(f"{name}: {'; '.join(parts)}")
        for key in _margin_keys([*old.values(), *new.values()]):
            (b_close, b_mean), (a_close, a_mean) = (
                _closest_text(list(side.values()), key) for side in (old, new)
            )
            moves = [
                (new[seed]["margins"][key] - old[seed]["margins"][key], seed)
                for seed in both
                if old[seed]["margins"].get(key) is not None
                and new[seed]["margins"].get(key) is not None
            ]
            move = "none"
            if moves:
                delta, seed = max(moves, key=lambda m: abs(m[0]))
                move = f"{delta:+.4g} (seed {seed})"
            lines.append(
                f"  {key}: closest {b_close} -> {a_close}, mean {b_mean} -> {a_mean}, "
                f"largest move {move}"
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
    parser.add_argument("--against", type=Path, metavar="PARENT_OUT",
                        help="compare with the sweep.json of an earlier run")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        parser.error(f"{args.out} exists and is not an empty directory")
    if args.against is not None and not (args.against / "sweep.json").is_file():
        parser.error(f"{args.against} holds no sweep.json")
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
    if args.against is not None:
        before = json.loads((args.against / "sweep.json").read_text())
        sys.stdout.write(f"against {args.against / 'sweep.json'}: ")
        sys.stdout.write(compare(before, json.loads((args.out / "sweep.json").read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
