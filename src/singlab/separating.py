"""Conflict sets, scaling-flow cones, and separating-set certificates.

Given two disjoint unions of slice branches, their *conflict set* on the
link sphere is the locus where the distances to the two branch sets agree.
Sampling realizes it as the band |d(p, A) - d(p, B)| <= tau over weighted
link samples, with exact branch distances.  Each band point carries two
weights: the 3-volume weight of the link sampler and a coarea 2-volume weight

    w2 = w3 * |grad_tangential (dA - dB)| / (2 tau),

so that summing w2 estimates the 2-dimensional area of the exact bisector.

Flowing the band down the weighted-scaling orbits sweeps out a cone.  Its
3-volume inside a small ball is computed by an exact pushforward: for each band
point the tangent 2-frame of the bisector is completed with the orbit velocity,
the diagonal scaling maps the frame forward, and the 3-volume element
integrates along the orbit with Gauss-Legendre quadrature, as a sum of powers
of the orbit parameter whose coefficients are squared 3x3 minors (Cauchy-Binet).
No Gram matrix is formed: the node powers are formed once, and each rung is
one (band x powers) @ (powers x nodes) product.  The transverse collapse of
the same cone is measured by the per-rung maximum of sqrt(|x|^2 + |y|^2)/|p|
over the band points flowed to each rung.  Both measurements take their rungs
from one orbit flow (_orbit_flow), which projects the band onto each rung
sphere without storing the flowed copies.

The side decomposition draws one ball sample per side rung and classifies it
once, by flowing it up to the link and asking which branch set is nearer;
each side measures its own points, and those within tau of the bisector are
discarded.  A separating certificate bundles the slice component count, the
cone's 3-density report, and the two sides' 4-density reports into a single
verdict.  Thin-wedge volume tables estimate
the 4-volume of the surface inside shrinking neighborhoods of the axes and
check that measure / (eps_w * r^4) stays bounded and stable.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import metric as mt
from . import sampling as sp
from . import surfaces as sf
from .util import bootstrap_sum_se  # noqa: F401  (perfbench wraps it by this name)
from .util import Check, Ladder, Unit, check_fields
from .util import check_ladder, derive_seed, det3, loglog_fit, parallel_map, readonly, real6

__all__ = [
    "ConstructionNotApplicable",
    "FlowError",
    "TAU_FACTOR",
    "ConflictCloud",
    "bisector_gap",
    "conflict_set",
    "check_flow_ladder",
    "transverse_ratio",
    "CollapseResult",
    "collapse_table",
    "tangent_cone_collapse",
    "cone_density_report",
    "classify_sides",
    "default_flow_ladder",
    "CertificateParams",
    "SeparatingCertificate",
    "separating_certificate",
    "certificate_dict",
    "certificate_text",
    "K_STABILITY_BOUND",
    "ThinWedgeCell",
    "ThinWedgeTable",
    "thin_wedge_volume",
    "thin_wedge_dict",
]

TAU_FACTOR = 0.02


class ConstructionNotApplicable(Exception):
    """The conflict-set construction needs at least two slice components."""


class FlowError(Exception):
    """A scaling-orbit solve failed to reach the requested radius."""


@dataclass(frozen=True)
class ConflictCloud:
    """Weighted samples of the bisector band between two branch sets.

    ``weights`` are link 3-volume masses, ``band_weights`` the coarea
    2-volume masses of the bisector surface and ``frames`` its orthonormal
    tangent 2-frames at the points.  The circle orbit of link point
    ``a_seeds[i]`` is branch ``a_labels[i]`` (likewise for B).
    """

    surface: sf.WeightedSurface
    link_radius: float
    tau: float
    points: np.ndarray
    weights: np.ndarray
    band_weights: np.ndarray
    u_values: np.ndarray
    residuals: np.ndarray
    frames: np.ndarray
    a_labels: tuple
    b_labels: tuple
    a_seeds: np.ndarray
    b_seeds: np.ndarray
    delta_hat: float
    seed: int
    n_draws: int
    n_rejected: int

    def __post_init__(self):
        for name in ("points", "a_seeds", "b_seeds"):
            object.__setattr__(
                self, name, readonly(np.asarray(getattr(self, name), dtype=complex))
            )
        for name in ("weights", "band_weights", "u_values", "residuals", "frames"):
            object.__setattr__(
                self, name, readonly(np.asarray(getattr(self, name), dtype=float))
            )
        object.__setattr__(self, "a_labels", tuple(int(v) for v in self.a_labels))
        object.__setattr__(self, "b_labels", tuple(int(v) for v in self.b_labels))
        m = self.points.shape[0]
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be an (m, 3) complex array")
        for name in ("weights", "band_weights", "u_values", "residuals"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must align with points")
        if self.frames.shape != (m, 2, 6):
            raise ValueError("frames must be an (m, 2, 6) array aligned with points")
        if self.link_radius <= 0:
            raise ValueError("link radius must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if not self.a_labels or not self.b_labels:
            raise ValueError("both branch-label sets must be nonempty")
        if set(self.a_labels) & set(self.b_labels):
            raise ValueError("branch-label sets must be disjoint")
        bound = sf._residual_bound(self.surface, self.link_radius)
        for labels, seeds in ((self.a_labels, self.a_seeds), (self.b_labels, self.b_seeds)):
            if seeds.shape != (len(labels), 3):
                raise ValueError("need one (3,) branch seed per label")
            if np.abs(np.linalg.norm(real6(seeds), axis=1) / self.link_radius - 1).max() > 1e-8:
                raise ValueError("branch seeds must lie on the link sphere")
            if np.any(seeds[:, 2] != 0):
                raise ValueError("branch seeds must lie in the z = 0 slice")
            if np.abs(sf.evaluate(self.surface, seeds)).max() > bound:
                raise ValueError("branch seeds violate the surface residual bound")
        if m:
            norms = np.linalg.norm(real6(self.points), axis=1)
            if np.abs(norms - self.link_radius).max() > 1e-8 * self.link_radius:
                raise ValueError("conflict points must lie on the link sphere")
            if self.residuals.max() > bound:
                raise ValueError("conflict points violate the surface residual bound")
            if np.abs(self.u_values).max() > self.tau + 1e-12:
                raise ValueError("points outside the bisector tolerance band")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _orbit_steps(surface) -> tuple[int, int]:
    """Phase speeds (a, b) on x and y of the circle action fixing the z = 0 slice."""
    return tuple(w // math.gcd(*surface.weights[:2]) for w in surface.weights[:2])


def _branch_seeds(surface, structure, radius, labels) -> np.ndarray:
    """One link point per branch label: (0, R, 0) for {x = 0}, (R, 0, 0) for
    {y = 0}, else (xi, 1, 0) for the label's first root xi of h(x, 1), scaled
    onto the link."""
    axes = [(0, radius, 0)] * structure.has_x_branch + [(radius, 0, 0)] * structure.has_y_branch
    orbit, first = np.unique(structure.orbit_of_trajectory, return_index=True)
    roots = dict(zip(orbit.tolist(), structure.roots[first]))
    pts = [axes[k] if k < len(axes) else (roots[k], 1, 0) for k in labels]
    return sf.sphere_project(surface, np.array(pts, dtype=complex), radius)[0]


def _nearest_on_orbits(surface, points, seeds):
    """Distance from each point to the nearest seed orbit, and the nearest point.

    The orbit of q is q(w) = (q_x w^a, q_y w^b, q_z), |w| = 1; |p - q(w)| is
    least where g = Re(A w^a + B w^b), A = conj(p_x) q_x, B = conj(p_y) q_y,
    is largest.  On n = 8 max(a, b) angles, every node within the grid-error
    bound (pi/n)^2 / 2 * (a^2 |A| + b^2 |B|) of the best node (maxima can be
    closer than the grid resolves) starts four Newton steps in theta, each
    the Cayley rotation (1 - i s/2) / (1 + i s/2) ~ e^(-i s), keeping |w| = 1.
    """
    if points.shape[0] > 4096:  # blocks bound the (node, point, seed) grids
        d, near = zip(*(_nearest_on_orbits(surface, points[lo:lo + 4096], seeds)
                        for lo in range(0, points.shape[0], 4096)))
        return np.concatenate(d), np.concatenate(near)
    a, b = _orbit_steps(surface)
    A, B = (np.conj(points[:, None, c]) * seeds[:, c] for c in (0, 1))

    def g(w, A, B):
        wa, wb = w**a, w**b
        return wa.real * A.real - wa.imag * A.imag + wb.real * B.real - wb.imag * B.imag

    n = 8 * max(a, b)
    nodes = np.exp(2j * math.pi / n * np.arange(n))
    vals = g(nodes[:, None, None], A, B)
    slack = 0.5 * (math.pi / n) ** 2 * (a * a * np.abs(A) + b * b * np.abs(B))
    start = np.flatnonzero(vals >= vals.max(axis=0) - slack)
    node, pair = np.divmod(start, slack.size)
    g0, w0, w = vals.ravel()[start], nodes[node], nodes[node]
    A, B = A.ravel()[pair], B.ravel()[pair]
    for _ in range(4):
        ta, tb = A * w**a, B * w**b
        slope = a * ta.imag + b * tb.imag  # -g'(theta)
        curv = a * a * ta.real + b * b * tb.real  # -g''(theta)
        half = 0.5j * np.divide(slope, curv, out=np.zeros_like(slope), where=curv > 0)
        w = w * (1.0 - half) / (1.0 + half)
    g1 = g(w, A, B)
    w, g1 = np.where(g1 > g0, w, w0), np.maximum(g1, g0)
    # Every pair has a start (its best node); keep its first start with the top g.
    top = np.full(slack.size, -np.inf)
    np.maximum.at(top, pair, g1)
    best = np.full(top.size, pair.size)
    np.minimum.at(best, pair, np.where(g1 == top[pair], np.arange(pair.size), pair.size))
    w, top = w[best].reshape(slack.shape), top.reshape(slack.shape)
    # |p - q(w)|^2 - |p|^2 picks the nearest orbit per point.
    z_dot = (np.conj(points[:, None, 2]) * seeds[:, 2]).real
    k = ((np.abs(seeds) ** 2).sum(axis=1) - 2.0 * (top + z_dot)).argmin(axis=1)
    wk = w[np.arange(k.size), k]
    nearest = seeds[k] * np.stack([wk**a, wk**b, np.ones_like(wk)], axis=1)
    return np.linalg.norm(real6(points - nearest), axis=1), nearest


def bisector_gap(surface, points, a_seeds, b_seeds):
    """d(p, A) - d(p, B) and the nearest points of A and B, the seeds' circle orbits."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    d_a, near_a = _nearest_on_orbits(surface, pts, np.asarray(a_seeds, dtype=complex))
    d_b, near_b = _nearest_on_orbits(surface, pts, np.asarray(b_seeds, dtype=complex))
    return d_a - d_b, near_a, near_b


def _link_normal_frames(surface, points):
    """Orthonormal (m, 3, 6) bases of the normal space of the link at each point.

    Rows span the differentials of Re f and Im f (orthogonal of equal length
    for holomorphic f) plus the radial direction, so their complement is the
    tangent space of X intersected with the sphere.
    """
    g = sf.gradient(surface, points)
    m = g.shape[0]
    d_re = np.empty((m, 6))
    d_re[:, 0::2] = g.real
    d_re[:, 1::2] = -g.imag
    d_im = np.empty((m, 6))
    d_im[:, 0::2] = g.imag
    d_im[:, 1::2] = g.real
    scale = np.linalg.norm(d_re, axis=1, keepdims=True)
    if np.any(scale == 0):
        raise FlowError("vanishing gradient on the link (singular point hit)")
    v1 = d_re / scale
    v2 = d_im / scale
    rad = real6(points)
    v3 = rad - (v1 * rad).sum(axis=1, keepdims=True) * v1
    v3 -= (v2 * v3).sum(axis=1, keepdims=True) * v2
    v3_norm = np.linalg.norm(v3, axis=1, keepdims=True)
    if np.any(v3_norm < 1e-12 * np.linalg.norm(rad, axis=1, keepdims=True)):
        raise FlowError("sphere degenerately tangent to the surface")
    v3 /= v3_norm
    return np.stack([v1, v2, v3], axis=1)


def _band_geometry(surface, points, a_near, b_near):
    """Tangential bisector gradients and bisector tangent 2-frames.

    Returns (|grad_tan u|, frames (m, 2, 6)) where u = dA - dB; the frames
    span the tangent of the exact bisector surface inside the link: the last
    two complete-QR columns of the [normals, grad_tan u] stack, a basis of its
    complement (only squared minors use them, so any basis serves).
    """
    normals = _link_normal_frames(surface, points)
    p6 = real6(points)
    chord_a = p6 - real6(a_near)
    chord_b = p6 - real6(b_near)
    grad_u = chord_a / np.linalg.norm(chord_a, axis=1, keepdims=True)
    grad_u -= chord_b / np.linalg.norm(chord_b, axis=1, keepdims=True)
    coeffs = np.einsum("mkd,md->mk", normals, grad_u)
    g_tan = grad_u - np.einsum("mk,mkd->md", coeffs, normals)
    g_norm = np.linalg.norm(g_tan, axis=1)
    safe = np.where(g_norm > 0, g_norm, 1.0)[:, None]
    stack = np.concatenate([normals, (g_tan / safe)[:, None, :]], axis=1)
    frames = np.linalg.qr(stack.transpose(0, 2, 1), mode="complete")[0][:, :, 4:6]
    return g_norm, frames.transpose(0, 2, 1)


def conflict_set(
    surface: sf.WeightedSurface,
    link_radius: float,
    a_labels,
    b_labels,
    n: int,
    tau: float | None = None,
    seed: int = 0,
    *,
    threads: int = 1,
) -> ConflictCloud:
    """Sample the bisector band between two disjoint branch-set selections.

    ``n`` counts link draws; the returned cloud keeps the draws landing
    within ``tau`` (default 0.02 * link radius) of the bisector.
    ``b_labels=None`` selects every slice component not in ``a_labels``.
    Records delta_hat, the minimum |z| over kept points (their distance to
    the z = 0 hyperplane).  Raises ConstructionNotApplicable when the z = 0
    slice has fewer than two components.
    """
    structure = sf.slice_structure(surface)
    labels = set(structure.labels)
    if structure.n_components < 2:
        raise ConstructionNotApplicable(
            f"slice of {surface.label} has {structure.n_components} component(s); "
            "need at least 2"
        )
    a_labels = tuple(sorted({int(v) for v in a_labels}))
    if b_labels is None:
        b_labels = [label for label in structure.labels if label not in a_labels]
    b_labels = tuple(sorted({int(v) for v in b_labels}))
    if not a_labels or not b_labels:
        raise ValueError("both branch-label sets must be nonempty")
    if set(a_labels) & set(b_labels):
        raise ValueError("branch-label sets must be disjoint")
    if not (set(a_labels) | set(b_labels)) <= labels:
        raise ValueError(f"labels must come from {sorted(labels)}")
    if tau is None:
        tau = TAU_FACTOR * link_radius
    if tau < 0:
        raise ValueError("tau must be nonnegative")

    link = sp.sample_link(surface, link_radius, n, None, seed, threads=threads)
    a_seeds = _branch_seeds(surface, structure, link_radius, a_labels)
    b_seeds = _branch_seeds(surface, structure, link_radius, b_labels)
    u, near_a, near_b = bisector_gap(surface, link.points, a_seeds, b_seeds)
    keep = np.abs(u) <= tau
    pts = link.points[keep]
    g_norm, frames = _band_geometry(surface, pts, near_a[keep], near_b[keep])
    band_w = link.weights[keep] * g_norm / (2.0 * tau) if tau > 0 else np.zeros_like(g_norm)
    delta_hat = float(np.abs(pts[:, 2]).min()) if keep.any() else math.inf
    return ConflictCloud(
        surface, link_radius, tau, pts, link.weights[keep], band_w,
        u[keep], link.residuals[keep], frames, a_labels, b_labels, a_seeds,
        b_seeds, delta_hat, seed, link.n_draws, link.n_rejected,
    )


def check_flow_ladder(values, link_radius: float, name: str = "rung ladder") -> list[float]:
    """check_ladder for rungs flowed down from the link: the first rung may
    not exceed ``link_radius`` (up to rounding)."""
    ladder = check_ladder(values, name)
    if ladder[0] > link_radius * (1.0 + 1e-12):
        raise ValueError(f"{name} cannot exceed the link radius {link_radius:g}, got {ladder[0]:g}")
    return ladder


def _orbit_flow(cloud: ConflictCloud, r_ladder):
    """(rung, sphere_project of the band points at that rung) along ``r_ladder``.

    The one orbit flow of the cone: the cloud and the ladder are checked
    here, before any solve, and each rung is projected only when the caller
    asks for it, so no flowed copy of the band outlives its rung.
    """
    if cloud.n_points == 0:
        raise ValueError("cannot flow an empty cloud")
    rungs = check_flow_ladder(r_ladder, cloud.link_radius)

    def project(r):
        try:
            return sf.sphere_project(cloud.surface, cloud.points, r)
        except RuntimeError as exc:
            raise FlowError(f"orbit solve failed at rung {r:g}: {exc}") from exc

    return ((r, project(r)) for r in rungs)


def transverse_ratio(points) -> np.ndarray:
    """sqrt(|x|^2 + |y|^2) / |p| per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    trans = np.sqrt(np.abs(pts[:, 0]) ** 2 + np.abs(pts[:, 1]) ** 2)
    return trans / np.linalg.norm(real6(pts), axis=1)


@dataclass(frozen=True)
class CollapseResult:
    """Transverse-ratio maxima along a radius ladder, their trend and its ``checks``."""

    rungs: tuple
    max_ratios: tuple
    slope: float
    final_ratio: float
    collapsed: bool
    checks: tuple


def collapse_table(rungs, max_ratios) -> CollapseResult:
    """Collapse statistics from per-rung transverse-ratio maxima.

    The cone collapses onto the z-axis when the ratio maxima decay with
    radius: declared when the log-log slope is at least 0.5 and the ratio at
    the smallest rung is below 0.1.
    """
    rungs = tuple(float(r) for r in rungs)
    ratios = tuple(float(v) for v in max_ratios)
    if len(rungs) != len(ratios):
        raise ValueError("need one ratio per rung")
    if len(rungs) < 2:
        raise ValueError("need at least two rungs to fit a trend")
    slope, _, _, _ = loglog_fit(rungs, ratios)
    checks = (
        Check.at_least("transverse-ratio slope", slope, 0.5),
        Check.at_most("final transverse ratio", ratios[-1], 0.1, strict=True),
    )
    return CollapseResult(rungs, ratios, slope, ratios[-1], all(c.holds for c in checks), checks)


def default_flow_ladder(link_radius: float) -> tuple:
    """Seven flow rungs from the link radius down to 1e-3 of it, half a decade apart."""
    return tuple(link_radius * 10 ** (-0.5 * i) for i in range(7))


def tangent_cone_collapse(cloud: ConflictCloud, r_ladder) -> CollapseResult:
    """Collapse statistics of the band flowed down its orbits to each rung of ``r_ladder``."""
    flow = [(r, transverse_ratio(pts).max()) for r, (pts, _) in _orbit_flow(cloud, r_ladder)]
    return collapse_table(*zip(*flow))


def cone_density_report(
    cloud: ConflictCloud,
    r_ladder,
    *,
    n_quad: int = 64,
    min_points: int = 50,
) -> mt.DensityReport:
    """3-density report of the scaling cone over the bisector band.

    The cone is parametrized by (band point, orbit parameter); the measure
    inside radius r is the band-weighted integral of the pushed-forward
    3-volume element along each orbit up to its exit from the r-ball, with
    fixed-order Gauss-Legendre quadrature in the orbit parameter.

    By Cauchy-Binet the pushed frame D(u) [f1, f2, (e*p)/u], D(u) = diag(u^e),
    has Gram determinant sum_I u^(2 E_I - 2) M_I^2 over the 20 column triples
    I, with E_I the exponent sum over I and M_I the 3x3 minor of [f1, f2, e*p]
    on I, by ``det3``.  As u^p = t_exit^p * node^p (u = t_exit * node), the node
    powers are formed once and each rung is one (band x powers) @ (powers x
    nodes) product.  Nothing here draws, so the report carries the cloud's seed.
    """
    flow = _orbit_flow(cloud, r_ladder)
    surface = cloud.surface
    e6 = np.repeat(np.array(surface.scaling_exponents), 2)
    unscaled = np.concatenate([cloud.frames, (e6 * real6(cloud.points))[:, None, :]], axis=1)
    triples = np.array(list(itertools.combinations(range(6), 3)))
    minors = det3(unscaled[:, :, triples].transpose(0, 2, 1, 3))
    powers, group = np.unique(2.0 * e6[triples].sum(axis=1) - 2.0, return_inverse=True)
    coeffs = minors**2 @ np.eye(powers.size)[group]
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_quad)
    gl_weights = 0.5 * gl_weights
    node_powers = (0.5 * (nodes + 1.0)) ** powers[:, None]

    rungs = []
    for r, (_, t_exit) in flow:
        gram_det = (coeffs * t_exit[:, None] ** powers) @ node_powers
        values = cloud.band_weights * (t_exit * (np.sqrt(gram_det) @ gl_weights))
        rungs.append(mt.density_rung(r, values, cloud.n_points, 3, min_points))
    return mt.fit_density_report(rungs, 3, cloud.seed, label=f"cone({surface.label})")


def classify_sides(cloud: ConflictCloud, points) -> np.ndarray:
    """+1 for nearer to the A set, -1 for B, 0 within tau of the bisector.

    Points are first flowed up their orbits onto the link sphere, so the
    classification is constant along scaling orbits by construction.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=np.int8)
    flowed, _ = sf.sphere_project(cloud.surface, pts, cloud.link_radius)
    u, _, _ = bisector_gap(cloud.surface, flowed, cloud.a_seeds, cloud.b_seeds)
    out = np.zeros(pts.shape[0], dtype=np.int8)
    out[u < -cloud.tau] = 1
    out[u > cloud.tau] = -1
    return out


def _side_reports(cloud: ConflictCloud, p: CertificateParams) -> tuple:
    """Side A's and side B's 4-density reports, from one classified ball draw
    per rung (see :class:`CertificateParams`); both carry side A's seed."""
    ladder = p.resolved_side_ladder()
    seed = derive_seed(p.seed, "side", "A")

    def run(i):
        ball = sp.sample_ball(
            cloud.surface, ladder[i], p.n_side, None, derive_seed(seed, "rung", i), threads=1,
        )
        sides = classify_sides(cloud, ball.points)
        return [
            mt.density_rung(ladder[i], w, w.size, 4, p.min_rung_points)
            for w in (ball.weights[sides == 1], ball.weights[sides == -1])
        ]

    rungs = parallel_map(run, range(len(ladder)), p.threads)
    return tuple(
        mt.fit_density_report(side_rungs, 4, seed, label=f"side-{side}({cloud.surface.label})")
        for side, side_rungs in zip("AB", zip(*rungs))
    )


@dataclass(frozen=True)
class CertificateParams:
    """Everything a separating certificate run depends on (besides the surface).

    Empty ladders are resolved at run time relative to the link radius:
    five cone-density rungs from 0.5 to 0.06 of the link and four side
    rungs from 1.0 to 0.35 of it.
    ``b_labels=None`` selects every slice component not in ``a_labels``.

    Each side rung is one ball draw of ``n_side`` from side A's seed stream,
    ``derive_seed(seed, "side", "A")``, classified once: side A measures the
    points nearer to its branch set, side B those nearer to its own, and the
    band within tau of the bisector is discarded.  ``tau=None`` resolves to
    0.002 of the link radius — sharper than the standalone conflict_set
    default.  The band must be thin in measure, or its radius-dependent
    share distorts the side exponents: branch sets of these surfaces are
    separated by much less than the link radius, so the bisector gap lives
    on a compressed scale.

    Construction checks every field by the config rule, ``util.check_value``,
    and that the cone ladder starts inside the link.
    """

    link_radius: Unit = 0.1
    tau: float | None = None
    a_labels: tuple[int, ...] = (0,)
    b_labels: tuple[int, ...] | None = None
    n_conflict: int = 40000
    m_ladder: Ladder = ()
    side_ladder: Ladder = ()
    n_side: int = 4000
    min_rung_points: int = 50
    seed: int = dataclasses.field(default=0, metadata={"min": 0})
    threads: int = 1

    def __post_init__(self):
        check_fields(self)
        # Cone rungs are flowed down from the link; side rungs are ball radii.
        if self.m_ladder:
            check_flow_ladder(self.m_ladder, self.link_radius, "m_ladder")

    def resolved_tau(self) -> float:
        return 0.002 * self.link_radius if self.tau is None else self.tau

    def resolved_m_ladder(self) -> tuple:
        if self.m_ladder:
            return tuple(float(r) for r in self.m_ladder)
        return tuple(self.link_radius * f for f in (0.5, 0.3, 0.18, 0.1, 0.06))

    def resolved_side_ladder(self) -> tuple:
        if self.side_ladder:
            return tuple(float(r) for r in self.side_ladder)
        return tuple(self.link_radius * f for f in (1.0, 0.7, 0.5, 0.35))


@dataclass(frozen=True)
class SeparatingCertificate:
    """Numerical evidence bundle for a separating set at the origin.

    The verdict is ``separating-evidence`` exactly when every record in
    ``checks`` holds: two or more slice components, enough band points, the
    cone's zero-density and both sides' positive-density records; else
    ``no-evidence`` when the construction does not apply, ``inconclusive``
    otherwise.  Evidence at finitely many scales — never a proof.
    """

    surface_label: str
    n_slice_components: int
    delta_hat: float
    m_report: mt.DensityReport | None
    a_report: mt.DensityReport | None
    b_report: mt.DensityReport | None
    verdict: str
    reason: str
    params: CertificateParams
    checks: tuple = ()

    def __post_init__(self):
        if self.verdict not in ("separating-evidence", "no-evidence", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        ok = bool(self.checks) and all(c.holds for c in self.checks)
        if ok != (self.verdict == "separating-evidence"):
            raise ValueError("verdict contradicts the certificate's checks")


def separating_certificate(
    surface: sf.WeightedSurface, params: CertificateParams = CertificateParams()
) -> SeparatingCertificate:
    """Run the full construction and assemble the evidence verdict."""
    p = params
    try:
        n_comp = sf.slice_structure(surface).n_components
    except sf.DegenerateSliceError as exc:
        n_comp, verdict, reason = 0, "inconclusive", f"slice analysis failed: {exc}"
    else:
        verdict = "no-evidence"
        reason = f"construction not applicable: slice has {n_comp} component(s)"
    checks = [Check.at_least("slice components", n_comp, 2)]
    if n_comp < 2:
        return SeparatingCertificate(
            surface.label, n_comp, math.nan, None, None, None,
            verdict, reason, p, tuple(checks),
        )
    try:
        cloud = conflict_set(
            surface, p.link_radius, p.a_labels, p.b_labels, p.n_conflict,
            p.resolved_tau(), p.seed, threads=p.threads,
        )
        checks.append(Check.at_least("band points", cloud.n_points, p.min_rung_points))
        if cloud.n_points < p.min_rung_points:
            return SeparatingCertificate(
                surface.label, n_comp, cloud.delta_hat, None, None, None,
                "inconclusive",
                f"bisector band starved ({cloud.n_points} points)", p, tuple(checks),
            )
        m_report = cone_density_report(cloud, p.resolved_m_ladder(), min_points=p.min_rung_points)
        a_report, b_report = _side_reports(cloud, p)
    except (sf.FiberSolveError, sf.BranchPointError, FlowError, RuntimeError) as exc:
        return SeparatingCertificate(
            surface.label, n_comp, math.nan, None, None, None,
            "inconclusive", f"construction failed: {exc}", p,
            (*checks, Check.at_least("construction completed", 0, 1)),
        )
    for name, report, group in (
        ("cone", m_report, "zero-density"),
        ("side A", a_report, "positive-density"),
        ("side B", b_report, "positive-density"),
    ):
        checks.extend(c.named(name) for c in report.checks[group])
    failures = [c.name for c in checks if not c.holds]
    if failures:
        verdict, reason = "inconclusive", "unmet: " + ", ".join(failures)
    else:
        verdict, reason = "separating-evidence", "all sub-verdicts met"
    return SeparatingCertificate(
        surface.label, n_comp, cloud.delta_hat,
        m_report, a_report, b_report, verdict, reason, p, tuple(checks),
    )


def certificate_dict(cert: SeparatingCertificate) -> dict:
    """JSON-ready dictionary (schema separating-certificate/v1)."""
    def report(r):
        return None if r is None else mt.density_report_dict(r)

    return {
        "schema": "separating-certificate/v1",
        "surface": cert.surface_label,
        "n_slice_components": cert.n_slice_components,
        "delta_hat": cert.delta_hat,
        "cone_report": report(cert.m_report),
        "side_a_report": report(cert.a_report),
        "side_b_report": report(cert.b_report),
        "verdict": cert.verdict,
        "reason": cert.reason,
        "params": dataclasses.asdict(cert.params),
        "checks": [dataclasses.asdict(c) for c in cert.checks],
    }


def certificate_text(cert: SeparatingCertificate) -> str:
    """Human-readable one-page summary."""
    lines = [
        f"separating-set certificate: {cert.surface_label}",
        f"  slice components: {cert.n_slice_components}",
        f"  verdict: {cert.verdict} ({cert.reason})",
    ]
    if math.isfinite(cert.delta_hat):
        lines.append(f"  min |z| on bisector band: {cert.delta_hat:.6g}")
    for name, rep in (
        ("cone k=3", cert.m_report),
        ("side A k=4", cert.a_report),
        ("side B k=4", cert.b_report),
    ):
        if rep is None:
            lines.append(f"  {name}: not computed")
        else:
            lines.append(
                f"  {name}: {rep.verdict} (alpha {rep.alpha:.3f} +- "
                f"{rep.alpha_se:.3f}, theta* {rep.theta_star:.4g})"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Thin-wedge volume tables.

# Largest max/min ratio of the unflagged cells' K values that passes.
K_STABILITY_BOUND = 5.0


@dataclass(frozen=True)
class ThinWedgeCell:
    eps_w: float
    r: float
    measure: float
    se: float
    n_points: int
    k_value: float
    flagged: bool


@dataclass(frozen=True)
class ThinWedgeTable:
    """Per-cell 4-volumes of X inside axis neighborhoods and their K values.

    ``k_hat`` is the largest measure / (eps_w * r^4) over unflagged cells.
    ``r_slopes`` are (eps_w, log-log slope of measure in r over the row's
    unflagged cells) and ``eps_w_exponents`` (r, slope in eps_w, NaN if a
    cell of the column is flagged); a slope over fewer than two cells is NaN.
    It passes when its ``checks`` hold: no cell starved, K stable within a
    factor ``K_STABILITY_BOUND`` (5), every r-exponent within 4 +- 0.3 and
    every eps_w-exponent >= 1.
    """

    surface_label: str
    eps_w_ladder: tuple
    r_ladder: tuple
    cells: tuple
    k_hat: float
    stability: float
    r_slopes: tuple
    eps_w_exponents: tuple
    passed: bool
    seed: int
    n_per_cell: int
    checks: tuple


def thin_wedge_volume(
    surface: sf.WeightedSurface,
    eps_w_ladder,
    r_ladder,
    n: int,
    seed: int = 0,
    *,
    threads: int = 1,
    min_cell_points: int = 50,
) -> ThinWedgeTable:
    """Tabulate H^4(X within the eps_w axis-neighborhood and the r-ball).

    Each cell is a :func:`metric.density_rung`.  The bound measure <= K eps_w
    r^4 is consistent with any eps_w-exponent >= 1.
    """
    rs = check_ladder(r_ladder, "radius ladder")
    eps_ws = [float(e) for e in eps_w_ladder]
    if not eps_ws or any(e <= 0 for e in eps_ws):
        raise ValueError("eps_w ladder must be nonempty, with positive values")
    if len(set(eps_ws)) != len(eps_ws):
        raise ValueError("eps_w ladder values must be distinct")

    jobs = [(i, j) for i in range(len(eps_ws)) for j in range(len(rs))]

    def run(ij):
        i, j = ij
        eps_w, r = eps_ws[i], rs[j]
        cloud = sp.sample_ball(
            surface, r, n, sp.RegionSpec("thin-wedge", eps_w),
            derive_seed(seed, "cell", i, j), threads=1,
        )
        rung = mt.density_rung(r, cloud.weights, cloud.n_points, 4, min_cell_points)
        return ThinWedgeCell(
            eps_w, r, rung.measure, rung.se, rung.n_points,
            rung.measure / (eps_w * r**4), rung.flagged,
        )

    cells = tuple(parallel_map(run, jobs, threads))
    good = [c.k_value for c in cells if not c.flagged]
    k_hat = max(good) if good else math.nan
    stability = (max(good) / min(good)) if good else math.nan

    def slope(fit, coordinate):  # log-log slope of measure; NaN below two cells
        if len(fit) < 2:
            return math.nan
        return loglog_fit([getattr(c, coordinate) for c in fit], [c.measure for c in fit])[0]

    rows = [cells[i * len(rs):(i + 1) * len(rs)] for i in range(len(eps_ws))]
    r_slopes = [(e, slope([c for c in row if not c.flagged], "r")) for e, row in zip(eps_ws, rows)]
    eps_w_exponents = [
        (r, slope(() if any(c.flagged for c in col) else col, "eps_w"))
        for r, col in zip(rs, zip(*rows))
    ]
    r_miss = np.max([abs(s - 4.0) for _, s in r_slopes])  # np.max and np.min keep a NaN
    checks = (
        Check.at_most("flagged cells", sum(c.flagged for c in cells), 0),
        Check.at_most("K stability", stability, K_STABILITY_BOUND),
        Check.at_most("r-exponent distance from 4", r_miss, 0.3),
        Check.at_least("smallest eps_w-exponent", np.min([b for _, b in eps_w_exponents]), 1.0),
    )
    return ThinWedgeTable(
        surface.label, tuple(eps_ws), tuple(rs), cells, k_hat, stability,
        tuple(r_slopes), tuple(eps_w_exponents), all(c.holds for c in checks), seed, n,
        checks,
    )


def thin_wedge_dict(table: ThinWedgeTable) -> dict:
    """JSON-ready dictionary (schema thin-wedge/v1)."""
    out = dataclasses.asdict(table)
    return {"schema": "thin-wedge/v1", "surface": out.pop("surface_label"), **out}
