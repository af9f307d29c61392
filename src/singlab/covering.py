"""Branched-covering monodromy and Lipschitz/conicality probes.

The projection (x, y, z) -> (y, z) restricted to a surface X is a branched
covering away from the locus where the x-fiber has multiple roots.  This
module lifts closed loops in the (y, z) base through that covering by root
continuation (nearest-neighbor matching with ambiguity rejection and
adaptive step halving), reports the induced sheet permutation and winding
phase, and decides connectivity of the restricted cover from a generating
set of loops.

Two probes quantify the metric behavior of the wedge
C^eps = {eps |y| <= |z| <= |y| / eps}:

* ``lipschitz_bound_probe`` samples the wedge-and-disk region, evaluates the
  implicit-graph derivatives dx/dy, dx/dz on every sheet, exhibits a
  concrete constant lam_hat for the three wedge inequalities
  |15 z^14 + y^7| <= lam |z|^4, |y^7| <= lam |z^14 + y^7|,
  |15 z^14 + y^7| <= lam |z^14 + y^7|, and checks the closed-form
  derivative bounds they imply.  The closed forms are specific to the
  surface x^5 + z^15 + y^7 z = 0.
* ``conicality_probe`` samples wedge annuli at a ladder of radii and
  compares graph (inner) to chord (outer) distances; bounded, radius-stable
  distortion is the numerical signature of a metric cone.

Each reads every setting from its params dataclass, ``LipschitzParams`` or
``ConicalityParams``, whose fields are the keys of its CLI config section.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import metric as mt
from . import sampling as sp
from . import surfaces as sf
from .util import (
    Check,
    Ladder,
    Unit,
    check_fields,
    check_ladder,
    component_labels,
    derive_rng,
    derive_seed,
    loglog_fit,
    readonly,
    real6,
)

__all__ = [
    "LoopSpec",
    "MonodromyResult",
    "MAX_RATIO_BOUND",
    "SLOPE_TOL",
    "ConicalityParams",
    "ConicalityRung",
    "ConicalityTable",
    "LipschitzParams",
    "LipschitzProbe",
    "standard_loop",
    "reverse_loop",
    "branch_locus_distance",
    "lift_loop",
    "sheet_shift",
    "cover_connectivity",
    "monodromy_dict",
    "derivative_bounds",
    "lipschitz_bound_probe",
    "lipschitz_dict",
    "graph_distortion",
    "conicality_probe",
    "conicality_dict",
]

# Safety factor applied on top of the empirical maxima when exhibiting a
# wedge constant lam_hat.
LAMBDA_SAFETY = 1.2

_LOOP_KINDS = ("circle-y", "points")


@dataclass(frozen=True)
class LoopSpec:
    """A closed parameter-sampled curve in the (y, z) base plane.

    ``points`` holds n_steps + 1 samples with the last equal to the first.
    The formula kind circle-y (t -> (c e^{2 pi i t}, c)) can be resampled at
    any parameter, so step refinement follows the exact curve; for kind
    "points" refinement uses chord midpoints.  ``margin`` declares the least
    distance to the branch locus the loop claims to keep; lifts verify it
    before tracking.
    """

    kind: str
    points: np.ndarray
    c: float = 0.0
    margin: float = 1e-7

    def __post_init__(self):
        if self.kind not in _LOOP_KINDS:
            raise ValueError(f"unknown loop kind {self.kind!r}")
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an (n_steps + 1, 2) complex array")
        if pts[0, 0] != pts[-1, 0] or pts[0, 1] != pts[-1, 1]:
            raise ValueError("loop must close: first and last samples must be equal")
        if not self.margin > 0:
            raise ValueError("branch-locus margin must be positive")
        object.__setattr__(self, "points", readonly(pts))

    @property
    def n_steps(self) -> int:
        return self.points.shape[0] - 1

    def at(self, t: float) -> tuple[complex, complex]:
        """Exact curve point at parameter t in [0, 1]."""
        if self.kind == "circle-y":
            return self.c * np.exp(2j * np.pi * t), complex(self.c)
        grid = t * self.n_steps
        k = min(int(grid), self.n_steps - 1)
        frac = grid - k
        a, b = self.points[k], self.points[k + 1]
        p = a + frac * (b - a)
        return complex(p[0]), complex(p[1])


def standard_loop(c: float = 0.01, n_steps: int = 2048) -> LoopSpec:
    """The y-circle loop t -> (c e^{2 pi i t}, c) at constant z = c.

    Its distance to the branch locus is declared as the margin c / 2.
    """
    if not c > 0:
        raise ValueError("loop radius c must be positive")
    if n_steps < 8:
        raise ValueError("need at least 8 parameter steps")
    t = np.arange(n_steps + 1) / n_steps
    pts = np.empty((n_steps + 1, 2), dtype=complex)
    pts[:, 0] = c * np.exp(2j * np.pi * t)
    pts[-1, 0] = pts[0, 0]
    pts[:, 1] = c
    return LoopSpec("circle-y", pts, c=c, margin=c / 2)


def reverse_loop(loop: LoopSpec) -> LoopSpec:
    """The same curve traversed backwards."""
    return LoopSpec("points", loop.points[::-1].copy(), margin=loop.margin)


# ---------------------------------------------------------------------------
# Branch locus distance.


_BS0_TERMS = {(5, 0, 0): 1.0 + 0.0j, (0, 0, 15): 1.0 + 0.0j, (0, 7, 1): 1.0 + 0.0j}


def _is_bs0(s: sf.WeightedSurface) -> bool:
    return dict(s.terms) == _BS0_TERMS


_ROOTS14 = np.exp(2j * np.pi * np.arange(14) / 14)


def branch_locus_distance(s: sf.WeightedSurface, y, z):
    """Distance proxy from (y, z) to the branch locus of the x-projection.

    For x^5 + z^15 + y^7 z the locus components are known exactly: the
    y-axis {z = 0} and the curves y = zeta z^2 over the 14th roots of unity
    (a superset of the exact seven-curve family, so the proxy never
    overstates the distance), and the proxy is min(|z|, min |y - zeta z^2|).
    Other surfaces fall back to the minimum pairwise separation of the fiber
    roots, which vanishes exactly on the locus but is a root-space (not
    base-space) scale; an unsolved fiber counts as distance 0.  Returns a
    float for scalar y, z and an array for arrays.
    """
    y = np.asarray(y, dtype=complex)
    z = np.asarray(z, dtype=complex)
    scalar = y.ndim == 0
    y, z = np.atleast_1d(y), np.atleast_1d(z)
    if _is_bs0(s):
        curve = np.abs(y[:, None] - _ROOTS14[None, :] * z[:, None] ** 2).min(axis=1)
        dist = np.minimum(np.abs(z), curve)
    else:
        sheets, ok = sf.fiber_sheets(s, y, z)
        dist = np.where(ok, sf._root_gaps(sheets[..., 0]).min(axis=1), 0.0)
    return float(dist[0]) if scalar else dist


# ---------------------------------------------------------------------------
# Loop lifting.


@dataclass(frozen=True)
class MonodromyResult:
    """Sheet permutation and winding data for one lifted loop.

    ``permutation[i]`` is the base-fiber index where sheet i ends; the
    tracked sheet is ``start_index`` and its accumulated argument is
    ``phase`` (radians).  ``normalized_end`` is the end value rotated by
    minus the start value's argument, which removes the base-fiber gauge.
    ``n_solves`` counts fiber solves, each once: 1 for each of the
    n_steps + 1 loop nodes and n_steps step midpoints solved in one batch,
    the first node being the base fiber, and 1 for each further bisection
    point (4097 for the 2048-step standard loop), so
    n_solves - (2 * n_steps + 1) counts the bisections beyond the
    midpoints.  ``trajectories[k]`` is the tracked fiber at loop parameter
    ``parameter_values[k]``, one row per accepted continuation step,
    bisection substeps included; a midpoint that only confirmed a step is
    not recorded.
    """

    surface_label: str
    permutation: tuple
    start_index: int
    end_index: int
    phase: float
    start_value: complex
    end_value: complex
    normalized_end: complex
    n_solves: int
    parameter_values: tuple = ()
    trajectories: np.ndarray | None = None

    def __post_init__(self):
        perm = tuple(int(v) for v in self.permutation)
        object.__setattr__(self, "permutation", perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("sheet permutation must be a bijection on 0..n-1")
        if not 0 <= self.start_index < len(perm):
            raise ValueError("start index out of range")
        if perm[self.start_index] != self.end_index:
            raise ValueError("end index must match the tracked sheet's image")

    @property
    def n_sheets(self) -> int:
        return len(self.permutation)


def sheet_shift(result: MonodromyResult) -> int:
    """Cyclic sheet shift implied by the tracked winding phase.

    The phase advances by 2 pi / n per cyclic sheet step, so the shift is
    the rounded phase in those units, mod the sheet count.
    """
    n = result.n_sheets
    return int(round(result.phase * n / (2.0 * math.pi))) % n


def lift_loop(s: sf.WeightedSurface, loop: LoopSpec, start_index: int = 0) -> MonodromyResult:
    """Lift a closed base loop through the x-fiber covering by continuation.

    The fibers at every loop node and every step midpoint are solved in one
    batch and continued from the first node by surfaces._continue_roots,
    which requires simple roots: the base fiber's roots must lie more than
    1e-6 * (1 + max |root|) apart (BranchPointError), and a fiber on the way
    with two coincident roots raises ContinuationError.  A step is accepted
    when its nearest-root match and both half-steps through the midpoint are
    unambiguous and agree, and is otherwise bisected (up to 12 times,
    following the exact curve for formula loops and chords otherwise);
    bisection substeps are checked by their nearest-root match alone.  A
    loop node or bisection point that fails to solve raises FiberSolveError
    naming its loop parameter; a midpoint that fails leaves its step to the
    nearest-root match.  The loop closes, so its last node is the base
    fiber bit for bit, and the end permutation of the base-fiber indices
    (the first node's roots in (Re, Im) order) is the one the continuation
    returns.  Returns it with the tracked sheet's accumulated winding phase
    and the tracked fiber at every accepted step.
    """
    if not 0 <= start_index < s.x_degree:
        raise ValueError(f"start index must lie in 0..{s.x_degree - 1}")
    ys, zs = loop.points[:, 0], loop.points[:, 1]
    clearance = float(branch_locus_distance(s, ys, zs).min())
    if clearance < loop.margin:
        raise sf.ContinuationError(
            f"loop passes within {clearance:.3e} of the branch locus "
            f"(declared margin {loop.margin:.3e})"
        )

    def coeff_rows(ts):
        yz = np.array([loop.at(t) for t in ts])
        return sf.fiber_coefficients(s, yz[:, 0], yz[:, 1])

    t, steps, perm, dphase, n_solves = sf._continue_roots(
        coeff_rows,
        np.arange(loop.n_steps + 1) / loop.n_steps,
        sf.fiber_coefficients(s, ys, zs),
    )
    start, arrangement = steps[0], steps[-1]
    if not np.array_equal(arrangement, start[perm]):
        raise sf.ContinuationError("end fiber does not match the base fiber cleanly")
    perm = tuple(int(v) for v in perm)
    start_value = complex(start[start_index])
    end_value = complex(arrangement[start_index])
    normalized = end_value * np.exp(-1j * np.angle(start_value))
    return MonodromyResult(
        s.label, perm, int(start_index), perm[start_index],
        float(dphase[start_index]), start_value, end_value, complex(normalized),
        n_solves, parameter_values=tuple(t.tolist()), trajectories=steps,
    )


# ---------------------------------------------------------------------------
# Cover connectivity.


def _require_in_wedge_disk(loop: LoopSpec, eps_w: float) -> None:
    ys, zs = loop.points[:, 0], loop.points[:, 1]
    ay, az = np.abs(ys), np.abs(zs)
    slack = 1e-12
    if np.any(eps_w * ay > az * (1 + slack)) or np.any(eps_w * az > ay * (1 + slack)):
        raise ValueError("loop leaves the wedge region")
    norms = np.sqrt(ay**2 + az**2)
    if np.any(norms > eps_w / 2 * (1 + slack)):
        raise ValueError("loop leaves the base disk")
    if loop.kind == "circle-y" and loop.c > eps_w / 4:
        raise ValueError(
            f"loop radius c={loop.c:g} exceeds eps_w/4={eps_w / 4:g}"
        )


def cover_connectivity(
    s: sf.WeightedSurface,
    eps_w: float,
    loops,
    *,
    start_index: int = 0,
):
    """Transitivity of the sheet permutations generated by a loop set.

    All loops must stay inside the wedge-and-disk base region (disk radius
    eps_w / 2; formula loops must satisfy c <= eps_w / 4).
    Returns (transitive, results), one lift result per loop.  An empty loop
    set generates the trivial group, so the cover is transitive only when
    there is a single sheet.
    """
    if not 0 < eps_w <= 1:
        raise ValueError(f"eps_w must lie in (0, 1], got {eps_w}")
    loops = list(loops)
    for loop in loops:
        _require_in_wedge_disk(loop, eps_w)
    results = [lift_loop(s, loop, start_index) for loop in loops]
    n = s.x_degree
    labels = component_labels(
        n, ((i, j) for res in results for i, j in enumerate(res.permutation))
    )
    return len(set(labels)) == 1, results


# ---------------------------------------------------------------------------
# Serialization.


def monodromy_dict(result: MonodromyResult) -> dict:
    """JSON-ready dictionary (schema monodromy/v1); phases in radians."""
    def c2(v):
        return [float(v.real), float(v.imag)]

    return {
        "schema": "monodromy/v1",
        "surface": result.surface_label,
        "permutation": list(result.permutation),
        "start_index": result.start_index,
        "end_index": result.end_index,
        "phase": result.phase,
        "sheet_shift": sheet_shift(result),
        "start_value": c2(result.start_value),
        "end_value": c2(result.end_value),
        "normalized_end": c2(result.normalized_end),
        "n_solves": result.n_solves,
    }


# ---------------------------------------------------------------------------
# Lipschitz bound probe.


@dataclass(frozen=True)
class LipschitzProbe:
    """Empirical derivative suprema and wedge-constant checks.

    ``lam_hat`` is the safety-scaled empirical maximum of the three wedge
    ratios; the derivative bounds it implies are ``bound_dy`` and
    ``bound_dz`` and the probe passes when its ``checks`` hold: both suprema below them.
    """

    surface_label: str
    eps_w: float
    disk_radius: float
    sup_dy: float
    sup_dz: float
    lam_hat: float
    bound_dy: float
    bound_dz: float
    ratio_dy: float
    ratio_dz: float
    passed: bool
    n_requested: int
    n_region: int
    n_sheets: int
    seed: int
    checks: tuple


def derivative_bounds(lam: float, eps_w: float) -> tuple[float, float]:
    """Closed-form bounds on |dx/dy| and |dx/dz| from a wedge constant.

    |dx/dy|^5 <= 7^5 lam^4 eps^3 / (5^5 2^3) and |dx/dz|^5 <= lam^5 / 5^5;
    returned unraised (as bounds on the derivatives themselves), so halving
    eps_w scales the first bound by exactly 2^(-3/5).
    """
    bound_dy = (7.0**5 * lam**4 * eps_w**3 / (5.0**5 * 2.0**3)) ** 0.2
    bound_dz = lam / 5.0
    return bound_dy, bound_dz


def _wedge_disk_samples(rng, n: int, disk_radius: float, eps_w: float):
    """Shared-stream draws: a fixed ball sample filtered by the wedge.

    The master draws depend only on the RNG state and disk radius, so the
    accepted sets for two eps_w values at one seed are nested and the
    resulting suprema are exactly monotone under wedge widening.
    """
    pts = sp.uniform_ball(rng, n, 4, disk_radius)
    y = pts[:, 0] + 1j * pts[:, 1]
    z = pts[:, 2] + 1j * pts[:, 3]
    keep = sp.in_wedge("wedge", eps_w, np.abs(y), np.abs(z))
    return y[keep], z[keep]


@dataclass(frozen=True)
class LipschitzParams:
    """``lipschitz_bound_probe``'s settings, checked by ``util.check_value``:
    ``n`` master draws in the disk of ``disk_radius`` (None: eps_w / 2)."""

    eps_w: Unit = 0.1
    disk_radius: float | None = None
    n: int = dataclasses.field(default=200000, metadata={"min": 1000})

    def __post_init__(self):
        check_fields(self)


def lipschitz_bound_probe(
    s: sf.WeightedSurface, params: LipschitzParams, seed: int = 0
) -> LipschitzProbe:
    """Sample the wedge-and-disk region and check the derivative bounds.

    Evaluates dx/dy and dx/dz on every fiber sheet over the sampled base
    points, exhibits lam_hat as the safety-scaled maximum of the three
    wedge ratios, and compares the suprema against the bounds lam_hat
    implies.  Only defined for x^5 + z^15 + y^7 z = 0, whose closed forms
    the ratios encode; raises for any other surface, and propagates
    implicit_derivatives' BranchPointError if a sampled sheet point is
    near-ramified (the region construction should exclude the branch locus).
    """
    if not _is_bs0(s):
        raise ValueError(
            "closed-form probe is defined for the surface x^5 + z^15 + y^7 z only"
        )
    eps_w, n = params.eps_w, params.n
    disk_radius = eps_w / 2 if params.disk_radius is None else params.disk_radius
    rng = derive_rng(seed, "lipschitz-draws")
    y, z = _wedge_disk_samples(rng, n, disk_radius, eps_w)
    m = y.size
    if m == 0:
        raise ValueError("no draws landed in the wedge region")

    sheets, ok = sf.fiber_sheets(s, y, z)
    if not ok.all():
        raise sf.FiberSolveError(
            f"fiber solve failed at {int((~ok).sum())} region sample(s)"
        )
    deg = sheets.shape[1]
    dxdy, dxdz = sf.implicit_derivatives(s, sheets.reshape(-1, 3))
    sup_dy = float(np.abs(dxdy).max())
    sup_dz = float(np.abs(dxdz).max())

    num = np.abs(15.0 * z**14 + y**7)
    den = np.abs(z**14 + y**7)
    r1 = num / np.abs(z) ** 4
    r2 = np.abs(y) ** 7 / den
    r3 = num / den
    lam_hat = LAMBDA_SAFETY * float(max(r1.max(), r2.max(), r3.max()))
    bound_dy, bound_dz = derivative_bounds(lam_hat, eps_w)
    ratio_dy = sup_dy / bound_dy
    ratio_dz = sup_dz / bound_dz
    checks = (
        Check.at_most("|dx/dy| ratio", ratio_dy, 1.0),
        Check.at_most("|dx/dz| ratio", ratio_dz, 1.0),
    )
    return LipschitzProbe(
        s.label, float(eps_w), float(disk_radius), sup_dy, sup_dz, lam_hat,
        bound_dy, bound_dz, ratio_dy, ratio_dz, all(c.holds for c in checks),
        int(n), int(m), int(deg), int(seed), checks,
    )


def lipschitz_dict(probe: LipschitzProbe) -> dict:
    """JSON-ready dictionary (schema lipschitz-probe/v1)."""
    return {"schema": "lipschitz-probe/v1", **dataclasses.asdict(probe)}


# ---------------------------------------------------------------------------
# Conicality probe.

# Pass bounds on the largest inner/outer ratio and on |trend slope| of the maxima.
MAX_RATIO_BOUND = 2.0
SLOPE_TOL = 0.2


def graph_distortion(
    points,
    n_pairs: int = 1500,
    seed: int = 0,
    *,
    k_nn: int = 12,
    connection_factor: float = 2.0,
    pairs=None,
) -> np.ndarray:
    """Inner/outer distance ratios for sampled (or given) vertex pairs.

    Inner distances run through the hybrid neighbor graph, one Dijkstra
    pass over the distinct sources; outer distances are chords.  A pair with
    a zero chord (one vertex, or two coincident points) has ratio 1 by
    convention and a pair split across graph components reports inf.

    Drawn pairs share ``min(32, vertices)`` sources, each with the same number
    of targets, so their count rounds ``n_pairs`` down to a multiple of the
    source count, and is at least that count: 32 * max(1, n_pairs // 32) on
    clouds of 32 or more points.
    """
    graph = mt.build_graph(points, k_nn, connection_factor=connection_factor)
    m = graph.n_vertices
    if pairs is None:
        rng = derive_rng(seed, "distortion-pairs")
        n_src = min(32, m)
        a = np.repeat(rng.choice(m, size=n_src, replace=False), max(1, n_pairs // n_src))
        b = rng.integers(0, m, size=a.size)
    else:
        a, b = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    sources, row = np.unique(a, return_inverse=True)
    inner = mt.distances_from(graph, sources)[row, b]
    chord = graph.points6[a] - graph.points6[b]
    # sqrt(d . d) has the bits of the 1-D np.linalg.norm; norm(axis=1) does not.
    outer = np.sqrt(np.vecdot(chord, chord))
    return np.divide(inner, outer, out=np.ones(a.size), where=outer > 0)


@dataclass(frozen=True)
class ConicalityRung:
    r: float
    n_points: int
    n_pairs: int
    max_ratio: float
    median_ratio: float
    flagged: bool


@dataclass(frozen=True)
class ConicalityTable:
    """Per-radius inner/outer distortion of the wedge and its trend.

    A metric cone keeps the distortion bounded and radius-stable, so the
    table passes when every record in ``checks`` holds: no rung is starved,
    every max ratio stays within ``MAX_RATIO_BOUND`` (2), and the log-log trend
    slope of the max ratios within ``SLOPE_TOL`` (0.2) of flat: the values the
    ``max_ratio_bound`` and ``slope_tol`` fields echo.
    """

    surface_label: str
    eps_w: float
    rungs: tuple
    slope: float
    max_ratio: float
    passed: bool
    max_ratio_bound: float
    slope_tol: float
    seed: int
    n_per_rung: int
    k_nn: int
    checks: tuple = ()

    def __post_init__(self):
        check_ladder([rung.r for rung in self.rungs], "rung ladder")


@dataclass(frozen=True)
class ConicalityParams:
    """``conicality_probe``'s settings, checked by ``util.check_value``: ``n``
    draws and ``n_pairs`` pairs per rung."""

    eps_w: Unit = 0.1
    r_ladder: Ladder = dataclasses.field(default=(0.1, 0.05, 0.025, 0.0125), metadata={"min": 2})
    n: int = 4000
    k_nn: int = dataclasses.field(default=12, metadata={"min": 2})
    n_pairs: int = dataclasses.field(default=1500, metadata={"min": 32})
    connection_factor: float = 2.0
    min_rung_points: int = 200

    def __post_init__(self):
        check_fields(self)


def conicality_probe(
    s: sf.WeightedSurface, params: ConicalityParams, seed: int = 0, *, threads: int = 1
) -> ConicalityTable:
    """Distortion table over wedge annuli r..2r along ``params.r_ladder``."""
    p = params
    rungs = []
    for idx, r in enumerate(map(float, p.r_ladder)):
        cloud = sp.sample_ball(
            s, 2 * r, p.n, sp.RegionSpec("wedge", p.eps_w), derive_seed(seed, "rung", idx),
            threads=threads,
        )
        norms = np.linalg.norm(real6(cloud.points), axis=1)
        pts = cloud.points[norms >= r]
        if pts.shape[0] < max(p.min_rung_points, p.k_nn + 1):
            rungs.append(ConicalityRung(r, pts.shape[0], 0, math.nan, math.nan, True))
            continue
        ratios = graph_distortion(
            pts, p.n_pairs, derive_seed(seed, "pairs", idx),
            k_nn=p.k_nn, connection_factor=p.connection_factor,
        )
        finite = ratios[np.isfinite(ratios)]
        flagged = finite.size < ratios.size // 2
        rungs.append(
            ConicalityRung(
                r, pts.shape[0], int(finite.size),
                float(finite.max()) if finite.size else math.nan,
                float(np.median(finite)) if finite.size else math.nan,
                flagged,
            )
        )
    good = [rung for rung in rungs if not rung.flagged]
    slope = loglog_fit([rung.r for rung in good], [rung.max_ratio for rung in good])[0]
    overall = max((rung.max_ratio for rung in good), default=math.nan)
    # Fewer than two unflagged rungs leave the slope NaN, which fails its check.
    checks = (
        Check.at_most("flagged rungs", len(rungs) - len(good), 0),
        Check.at_most("max inner/outer ratio", overall, MAX_RATIO_BOUND),
        Check.at_most("ratio trend slope", abs(slope), SLOPE_TOL),
    )
    return ConicalityTable(
        s.label, float(p.eps_w), tuple(rungs), float(slope), float(overall),
        all(c.holds for c in checks), MAX_RATIO_BOUND, SLOPE_TOL,
        int(seed), int(p.n), int(p.k_nn), checks,
    )


def conicality_dict(table: ConicalityTable) -> dict:
    """JSON-ready dictionary (schema conicality/v1)."""
    out = dataclasses.asdict(table)
    return {"schema": "conicality/v1", "surface": out.pop("surface_label"), **out}
