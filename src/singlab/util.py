"""Shared numerical plumbing: seeded RNG streams, deterministic parallel maps,
the one log-log line fit (closed-form weights give the slope, the intercept
and their standard errors, residual or propagated from the data's relative
errors), the exact bootstrap standard error of a sum, ladder checks,
the one params-field rule, the Check record every verdict reads, union-find,
geometry helpers, closed-form 3x3 determinants, and the one report CSV writer.

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
    "det3",
    "bootstrap_sum_se",
    "fmt17",
    "csv_table",
    "records_csv",
    "check_ladder",
    "check_value",
    "check_fields",
    "Check",
    "Unit",
    "Ladder",
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


def loglog_fit(x, y, rel_se=None):
    """Least-squares line through (log x, log y), from its closed-form weights.

    With d = log x - mean(log x), the line's weights are c_slope = d / (d . d)
    and c_inter = 1/m - mean(log x) * c_slope: the slope is c_slope . log y
    and the intercept c_inter . log y.  Returns (slope, intercept, slope_se,
    intercept_se).  Each SE is sqrt(s^2 * sum c^2), s^2 the residual variance
    (0 with two points); given ``rel_se``, the relative errors of the y
    values, it is the larger of that and sqrt(sum c^2 * rel_se^2), the
    errors propagated through the line.  Fewer than two points give NaN
    throughout, which never holds in a Check.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    m = lx.size
    if m < 2:
        return (math.nan,) * 4
    d = lx - lx.mean()
    c_slope = d / (d @ d)
    c_inter = 1.0 / m - lx.mean() * c_slope
    slope, intercept = float(c_slope @ ly), float(c_inter @ ly)
    resid = ly - (slope * lx + intercept)
    s2 = float(resid @ resid) / (m - 2) if m > 2 else 0.0
    weights = (c_slope, c_inter)
    ses = [math.sqrt(s2 * float(c @ c)) for c in weights]
    if rel_se is not None:
        rel2 = np.asarray(rel_se, dtype=float) ** 2
        ses = [max(se, math.sqrt(float(c**2 @ rel2))) for se, c in zip(ses, weights)]
    return slope, intercept, ses[0], ses[1]


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


def det3(m) -> np.ndarray:
    """Determinants of a stack (..., 3, 3) by cofactor expansion along row 0."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(np.asarray(m, dtype=float), (-2, -1), (0, 1))
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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


# Params annotations that ``check_value`` range-checks: a real in (0, 1], and
# radii that are positive and strictly decreasing (``check_ladder``).
Unit = float
Ladder = tuple[float, ...]


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


def check_value(field: dataclasses.Field, value) -> list:
    """Diagnostics for ``value`` against its params field's annotation: the one
    field rule of configs and params classes (the ``cli`` docstring lists kinds)."""
    key, kind = field.name, field.type.removesuffix(" | None")
    floor = field.metadata.get("min", 1)
    if value is None or (value == () and field.default == ()):
        return []  # an empty list where that is the default stands for a derived one
    if kind == "Ladder":
        try:
            check_ladder(value, key)
        except ValueError as exc:
            return [str(exc)]
        if len(value) < floor:
            return [f"{key} needs at least {floor} rungs, got {len(value)}"]
    elif kind.startswith("tuple[") and not value:
        return [f"{key} must be nonempty"]
    elif kind == "tuple[Unit, ...]":
        diags = []
        if any(not 0 < e <= 1 for e in value):
            diags.append(f"{key} values must lie in (0, 1]")
        if len(set(value)) != len(value):
            diags.append(f"{key} values must be distinct")
        return diags
    elif kind == "int":
        if value < floor:
            return [f"{key} must be at least {floor}, got {value}"]
    elif kind == "Unit":
        if not 0 < value <= 1:
            return [f"{key} must lie in (0, 1], got {value!r}"]
    elif kind == "float":
        if not value > 0:
            return [f"{key} must be positive, got {value!r}"]
    return []


def check_fields(params) -> None:
    """Raise ValueError with the first ``check_value`` diagnostic of ``params``."""
    for field in dataclasses.fields(params):
        diags = check_value(field, getattr(params, field.name))
        if diags:
            raise ValueError(diags[0])


@dataclasses.dataclass(frozen=True)
class Check:
    """One threshold test of a verdict, built where the verdict is decided:
    ``slack`` is positive when it holds (bound - value for an "at most" test,
    value - bound for "at least"), and a NaN value never holds."""

    name: str
    value: float
    bound: float
    slack: float
    holds: bool

    @classmethod
    def at_most(cls, name: str, value, bound, *, strict: bool = False) -> "Check":
        value, bound = float(value), float(bound)
        return cls(name, value, bound, bound - value, value < bound if strict else value <= bound)

    @classmethod
    def at_least(cls, name: str, value, bound, *, strict: bool = False) -> "Check":
        value, bound = float(value), float(bound)
        return cls(name, value, bound, value - bound, value > bound if strict else value >= bound)

    def named(self, prefix: str) -> "Check":
        return dataclasses.replace(self, name=f"{prefix} {self.name}")


def readonly(arr) -> np.ndarray:
    """``arr`` as a contiguous array with writing disabled (copied only if needed)."""
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def component_labels(n: int, pairs) -> list[int]:
    """Union-find over 0..n-1 joined by ``pairs``: one root label per element.

    Elements share a label exactly when the pairs connect them.  Pure Python:
    callers run it a few times per run, on a handful of elements (roots of
    one slice polynomial, sheets of one cover).
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
