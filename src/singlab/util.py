"""Shared numerical plumbing: seeded RNG streams, deterministic parallel maps,
log-log regression, the exact bootstrap standard error of a sum,
radius-ladder checks, union-find, small geometry helpers, and the one CSV
writer every report table goes through.

Everything here is deterministic given its inputs; RNG streams are derived from
a base seed and a tag path so that the same request always sees the same draws
no matter how the work is sharded or threaded.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "derive_seed",
    "derive_rng",
    "parallel_map",
    "shard_counts",
    "loglog_fit",
    "unit_ball_volume",
    "real6",
    "complex3",
    "bootstrap_sum_se",
    "fmt17",
    "csv_table",
    "records_csv",
    "check_ladder",
    "readonly",
    "component_labels",
]


def _tag_key(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed for the stream named by ``tags``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_tag_key(t) for t in tags))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Generator on an independent stream derived from ``seed`` and ``tags``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_tag_key(t) for t in tags))
    return np.random.Generator(np.random.PCG64(ss))


def shard_counts(n: int, n_shards: int) -> list[int]:
    """Split ``n`` draws into a fixed number of shards, independent of threads."""
    base, extra = divmod(int(n), n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving order; thread count never changes the result."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))


def loglog_fit(x, y):
    """Least-squares fit of log y against log x.

    Returns (slope, intercept, slope_se, intercept_se).  Standard errors come
    from the residual variance; with fewer than three points they are 0.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a log-log fit")
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    m = lx.size
    if m <= 2:
        return slope, intercept, 0.0, 0.0
    resid = ly - A @ coef
    s2 = float(resid @ resid) / (m - 2)
    cov = s2 * np.linalg.inv(A.T @ A)
    return slope, intercept, math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))


def unit_ball_volume(k: int) -> float:
    """Lebesgue volume of the unit k-ball (the density normalizer eta_k)."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def real6(points) -> np.ndarray:
    """(n,3) complex -> (n,6) float view-copy, coordinate order (Re,Im) per axis."""
    p = np.atleast_2d(np.asarray(points, dtype=complex))
    out = np.empty((p.shape[0], 6), dtype=float)
    out[:, 0::2] = p.real
    out[:, 1::2] = p.imag
    return out


def complex3(points6) -> np.ndarray:
    """Inverse of :func:`real6`."""
    q = np.atleast_2d(np.asarray(points6, dtype=float))
    return q[:, 0::2] + 1j * q[:, 1::2]


def bootstrap_sum_se(values) -> float:
    """Exact bootstrap standard error of ``values.sum()``: sqrt(n) * std(values).

    Resampling the n entries i.i.d. draws Multinomial(n, 1/n) counts c, and
    Var(sum c_i v_i) = n * var_pop(v) (population variance, ddof 0).  This is
    the limit the resampled estimate converges to as the number of resamples
    grows (Efron 1979), so no resamples are drawn.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    return math.sqrt(v.size) * float(v.std())


def fmt17(x: float) -> str:
    """Shortest decimal string that round-trips a float64 exactly."""
    return repr(float(x))


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def csv_table(header, rows) -> str:
    """CSV text: floats round-trip via :func:`fmt17`, booleans are 0/1, else ``str``."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def records_csv(records) -> str:
    """One row per dataclass record, one column per field in declaration order.

    ``records`` must be nonempty and all of one dataclass type.
    """
    names = [f.name for f in dataclasses.fields(records[0])]
    return csv_table(names, ([getattr(r, n) for n in names] for r in records))


def check_ladder(values, name: str = "ladder") -> list[float]:
    """``values`` as floats; raises unless nonempty, positive and strictly decreasing."""
    ladder = [float(v) for v in values]
    if not ladder:
        raise ValueError(f"{name} must be nonempty, with positive radii")
    if any(v <= 0 for v in ladder):
        raise ValueError(f"{name} radii must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return ladder


def readonly(arr) -> np.ndarray:
    """``arr`` as a contiguous array with writing disabled (copied only if needed)."""
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def component_labels(n: int, pairs) -> list[int]:
    """Union-find over 0..n-1 joined by ``pairs``: one root label per element.

    Elements share a label exactly when the pairs connect them.  Pure Python,
    because callers run it on a handful of elements many thousands of times.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    return [find(i) for i in range(n)]
