"""Write every output of the benchmark configs, for a byte-identity check.

    python3 tools/parity.py OUT [--seeds 0 1] [--configs NAME ...]

Runs each ``perfbench/configs/*.ini`` (or only the named ones) through
``cli.main`` once per seed at ``--threads 1``, into ``OUT/<config stem>/seed<N>/``,
and again at ``--threads 2``, into ``OUT/<config stem>/seed<N>-threads2/``: the
run's ``report.json``, ``summary.txt`` and CSV tables, plus ``stdout.txt`` and
``exit_status.txt``.  No output depends on the thread count, so the two
directories of a seed must be equal as well: the tool names on stderr each
file that differs between them, or is in only one of them, by its path under
``seed<N>-threads2/``, and then exits 1.  ``metadata.json``
(timestamps and elapsed time) is removed.  The experiment of each config is
the one ``perfbench/workloads.py`` runs it as; nothing under ``perfbench/`` is
written.  The package is imported from this checkout's ``src/``, so running
the tool in two checkouts and comparing with ``diff -r OUT_A OUT_B`` checks
that a change leaves every output byte-identical.  OUT must be new or empty,
so a file left by an earlier run cannot stand in for one this run did not
write; the tool exits 2 without writing anything otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "perfbench" / "configs"
sys.path.insert(0, str(ROOT / "src"))

from singlab import cli  # noqa: E402


def experiment_of() -> dict:
    """Config file name -> the experiment id the benchmark runs it as."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return {
        entry.config: entry.experiment
        for workload in workloads.WORKLOADS.values() for entry in workload.entries
    }


def run(out: Path, seeds, names=None) -> None:
    experiments = experiment_of()
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    if names:
        unknown = sorted(set(names) - {p.name for p in paths})
        if unknown:
            raise SystemExit(f"no such config under {CONFIG_DIR}: {', '.join(unknown)}")
        paths = [p for p in paths if p.name in names]
    for path in paths:
        for seed in seeds:
            for threads, suffix in ((1, ""), (2, "-threads2")):
                target = out / path.stem / f"seed{seed}{suffix}"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    status = cli.main([
                        experiments[path.name], "--config", str(path), "--seed", str(seed),
                        "--threads", str(threads), "--out", str(target),
                    ])
                target.mkdir(parents=True, exist_ok=True)
                (target / "metadata.json").unlink(missing_ok=True)
                (target / "stdout.txt").write_text(stdout.getvalue())
                (target / "exit_status.txt").write_text(f"{status}\n")


def thread_mismatches(out: Path) -> list[str]:
    """Paths under ``out`` of each ``seed<N>-threads2/`` file that is not
    byte-equal to its ``seed<N>/`` twin, either side missing included."""
    bad = []
    for twin in sorted(out.glob("*/seed*-threads2")):
        one = twin.with_name(twin.name.removesuffix("-threads2"))
        names = {p.relative_to(d) for d in (one, twin) for p in d.rglob("*") if p.is_file()}
        for name in sorted(names):
            a, b = one / name, twin / name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                bad.append((twin / name).relative_to(out).as_posix())
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--configs", nargs="+", help="config file names (default: all)")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        parser.error(f"{args.out} exists and is not an empty directory")
    run(args.out, args.seeds, args.configs)
    bad = thread_mismatches(args.out)
    for name in bad:
        print(f"differs from the --threads 1 output: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
