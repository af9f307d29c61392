"""Where benchmark numbers were taken: machine, interpreter, BLAS, code size.

``python3 perfbench/provenance.py`` prints the record as JSON; the worker
adds the same record to every run's output.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "configuration": info.get("openblas configuration"),
        "threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if key in os.environ
        } or "unset (OpenBLAS default)",
    }


def collect(root: Path) -> dict:
    src = root / "src"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(src.rglob("*.py"))
        ),
    }


if __name__ == "__main__":
    print(json.dumps(collect(Path.cwd()), indent=2, sort_keys=True))
