"""Conflict sets, scaling-flow cones, and separating-set certificates.

Given two disjoint unions of slice branches, their *conflict set* on the
link sphere is the locus where the distances to the two branch sets agree.
Sampling realizes it as the band |d(p, A) - d(p, B)| <= tau over weighted
link samples.  Each band point carries two weights: the 3-volume weight of
the link sampler and a coarea 2-volume weight

    w2 = w3 * |grad_tangential (dA - dB)| / (2 tau),

so that summing w2 estimates the 2-dimensional area of the exact bisector.

Flowing the band down the weighted-scaling orbits sweeps out a cone.  Its
3-volume inside a small ball is computed by an exact pushforward: for each
band point the tangent 2-frame of the bisector is completed with the orbit
velocity, the diagonal scaling maps the frame forward, and the 3-volume
element integrates along the orbit with Gauss-Legendre quadrature, as a sum
of powers of the orbit parameter whose coefficients are squared 3x3 minors
(Cauchy-Binet), so no Gram matrix is formed.  The transverse collapse of the
same cone is measured by the per-rung maximum of sqrt(|x|^2 + |y|^2)/|p| over
flowed points.

Side decompositions classify ambient samples by flowing them up to the link
and asking which branch set is nearer; points landing within tau of the
bisector are discarded and counted.  A separating certificate bundles the
slice component count, the cone's 3-density report, and the two sides'
4-density reports into a single verdict.  Thin-wedge volume tables estimate
the 4-volume of the surface inside shrinking neighborhoods of the axes and
check that measure / (eps_w * r^4) stays bounded and stable.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import metric as mt
from . import sampling as sp
from . import surfaces as sf
from .util import bootstrap_sum_se  # noqa: F401  (perfbench wraps it by this name)
from .util import check_ladder, derive_seed, loglog_fit, parallel_map, readonly, real6

__all__ = [
    "ConstructionNotApplicable",
    "FlowError",
    "TAU_FACTOR",
    "ConflictCloud",
    "bisector_gap",
    "conflict_set",
    "flow_cone",
    "transverse_ratio",
    "CollapseResult",
    "collapse_table",
    "tangent_cone_collapse",
    "cone_density_report",
    "classify_sides",
    "SideCarrier",
    "CertificateParams",
    "SeparatingCertificate",
    "separating_certificate",
    "certificate_dict",
    "certificate_text",
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
    2-volume masses of the underlying bisector surface.  ``flowed[i]`` holds
    the points scaled down their orbits to radius ``flow_rungs[i]``.
    """

    surface: sf.WeightedSurface
    link_radius: float
    tau: float
    points: np.ndarray
    weights: np.ndarray
    band_weights: np.ndarray
    u_values: np.ndarray
    residuals: np.ndarray
    a_labels: tuple
    b_labels: tuple
    a_samples: np.ndarray
    b_samples: np.ndarray
    delta_hat: float
    seed: int
    n_draws: int
    n_rejected: int
    flow_rungs: tuple = ()
    flowed: tuple = ()

    def __post_init__(self):
        for name in ("points", "a_samples", "b_samples"):
            object.__setattr__(
                self, name, readonly(np.asarray(getattr(self, name), dtype=complex))
            )
        for name in ("weights", "band_weights", "u_values", "residuals"):
            object.__setattr__(
                self, name, readonly(np.asarray(getattr(self, name), dtype=float))
            )
        object.__setattr__(self, "a_labels", tuple(int(v) for v in self.a_labels))
        object.__setattr__(self, "b_labels", tuple(int(v) for v in self.b_labels))
        object.__setattr__(self, "flow_rungs", tuple(float(r) for r in self.flow_rungs))
        object.__setattr__(
            self, "flowed", tuple(readonly(np.asarray(f, dtype=complex)) for f in self.flowed)
        )
        m = self.points.shape[0]
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be an (m, 3) complex array")
        for name in ("weights", "band_weights", "u_values", "residuals"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must align with points")
        if self.link_radius <= 0:
            raise ValueError("link radius must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if not self.a_labels or not self.b_labels:
            raise ValueError("both branch-label sets must be nonempty")
        if set(self.a_labels) & set(self.b_labels):
            raise ValueError("branch-label sets must be disjoint")
        if m:
            norms = np.linalg.norm(real6(self.points), axis=1)
            if np.abs(norms - self.link_radius).max() > 1e-8 * self.link_radius:
                raise ValueError("conflict points must lie on the link sphere")
            bound = sf._residual_bound(self.surface, self.link_radius)
            if self.residuals.max() > bound:
                raise ValueError("conflict points violate the surface residual bound")
            if np.abs(self.u_values).max() > self.tau + 1e-12:
                raise ValueError("points outside the bisector tolerance band")
        if len(self.flow_rungs) != len(self.flowed):
            raise ValueError("flow rungs and flowed stages must align")
        for r, pts in zip(self.flow_rungs, self.flowed):
            if pts.shape != self.points.shape:
                raise ValueError("each flowed stage must match the base points")
            if m:
                norms = np.linalg.norm(real6(pts), axis=1)
                if np.abs(norms - r).max() > 1e-8 * r:
                    raise ValueError("flowed points must sit at their rung radius")
                live = np.abs(sf.evaluate(self.surface, pts))
                if live.max() > sf._residual_bound(self.surface, self.link_radius):
                    raise ValueError("flowed points drifted off the surface")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def surface_label(self) -> str:
        return self.surface.label


def bisector_gap(points, a_samples, b_samples):
    """d(p, A) - d(p, B) plus the nearest-sample indices, per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    d_a, i_a = cKDTree(real6(np.asarray(a_samples, dtype=complex))).query(real6(pts))
    d_b, i_b = cKDTree(real6(np.asarray(b_samples, dtype=complex))).query(real6(pts))
    return d_a - d_b, i_a, i_b


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
    span the tangent of the exact bisector surface inside the link.
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
    _, _, vh = np.linalg.svd(stack, full_matrices=True)
    frames = vh[:, 4:6, :]
    return g_norm, frames


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
    n_per_branch: int = 2000,
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
    a_pts, _ = sp.branch_link_samples(surface, link_radius, a_labels, n_per_branch)
    b_pts, _ = sp.branch_link_samples(surface, link_radius, b_labels, n_per_branch)
    u, i_a, i_b = bisector_gap(link.points, a_pts, b_pts)
    keep = np.abs(u) <= tau
    pts = link.points[keep]
    if tau > 0 and keep.any():
        g_norm, _ = _band_geometry(surface, pts, a_pts[i_a[keep]], b_pts[i_b[keep]])
        band_w = link.weights[keep] * g_norm / (2.0 * tau)
    else:
        band_w = np.zeros(int(keep.sum()))
    delta_hat = float(np.abs(pts[:, 2]).min()) if keep.any() else math.inf
    return ConflictCloud(
        surface, link_radius, tau, pts, link.weights[keep], band_w,
        u[keep], link.residuals[keep], a_labels, b_labels, a_pts, b_pts,
        delta_hat, seed, link.n_draws, link.n_rejected,
    )


def flow_cone(cloud: ConflictCloud, r_ladder) -> ConflictCloud:
    """Flow every band point down its scaling orbit to each rung radius."""
    rungs = check_ladder(r_ladder, "rung ladder")
    if rungs[0] > cloud.link_radius * (1.0 + 1e-12):
        raise ValueError("rungs cannot exceed the link radius")
    stages = []
    for r in rungs:
        if cloud.n_points == 0:
            stages.append(np.zeros((0, 3), dtype=complex))
            continue
        try:
            out, _ = sf.sphere_project(cloud.surface, cloud.points, r)
        except RuntimeError as exc:
            raise FlowError(f"orbit solve failed at rung {r:g}: {exc}") from exc
        stages.append(out)
    return dataclasses.replace(cloud, flow_rungs=tuple(rungs), flowed=tuple(stages))


def transverse_ratio(points) -> np.ndarray:
    """sqrt(|x|^2 + |y|^2) / |p| per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    trans = np.sqrt(np.abs(pts[:, 0]) ** 2 + np.abs(pts[:, 1]) ** 2)
    return trans / np.linalg.norm(real6(pts), axis=1)


@dataclass(frozen=True)
class CollapseResult:
    """Transverse-ratio maxima along a radius ladder and their trend."""

    rungs: tuple
    max_ratios: tuple
    slope: float
    final_ratio: float
    collapsed: bool


def collapse_table(rungs, point_sets) -> CollapseResult:
    """Collapse statistics from raw per-rung point arrays.

    The cone collapses onto the z-axis when the ratio maxima decay with
    radius: declared when the log-log slope is at least 0.5 and the ratio at
    the smallest rung is below 0.1.
    """
    rungs = tuple(float(r) for r in rungs)
    point_sets = [np.atleast_2d(np.asarray(p, dtype=complex)) for p in point_sets]
    if len(rungs) != len(point_sets):
        raise ValueError("need one point set per rung")
    if len(rungs) < 2:
        raise ValueError("need at least two rungs to fit a trend")
    if any(p.shape[0] == 0 for p in point_sets):
        raise ValueError("empty point set at some rung")
    ratios = tuple(float(transverse_ratio(p).max()) for p in point_sets)
    slope, _, _, _ = loglog_fit(rungs, ratios)
    final = ratios[-1]
    return CollapseResult(rungs, ratios, slope, final, slope >= 0.5 and final < 0.1)


def tangent_cone_collapse(cloud: ConflictCloud) -> CollapseResult:
    """Collapse statistics of a flowed conflict cloud."""
    if not cloud.flow_rungs:
        raise ValueError("flow the cloud first (flow_cone)")
    if cloud.n_points == 0:
        raise ValueError("cannot measure collapse of an empty cloud")
    return collapse_table(cloud.flow_rungs, cloud.flowed)


def cone_density_report(
    cloud: ConflictCloud,
    r_ladder,
    *,
    n_quad: int = 64,
    sigmas: float = 3.0,
    min_points: int = 50,
    label: str = "",
) -> mt.DensityReport:
    """3-density report of the scaling cone over the bisector band.

    The cone is parametrized by (band point, orbit parameter); the measure
    inside radius r is the band-weighted integral of the pushed-forward
    3-volume element along each orbit up to its exit from the r-ball, with
    fixed-order Gauss-Legendre quadrature in the orbit parameter.

    By Cauchy-Binet the pushed frame D(u) [f1, f2, (e*p)/u], D(u) = diag(u^e),
    has Gram determinant sum_I u^(2 E_I - 2) M_I^2 over the 20 column triples
    I, with E_I the exponent sum over I and M_I the 3x3 minor of [f1, f2, e*p]
    on I; the squared minors are summed once per band point by distinct power.
    Nothing here draws, so the report carries the cloud's seed.
    """
    if cloud.n_points == 0:
        raise ValueError("cannot build a density report from an empty cloud")
    rungs_in = check_ladder(r_ladder, "rung ladder")
    if rungs_in[0] > cloud.link_radius * (1.0 + 1e-12):
        raise ValueError("rungs cannot exceed the link radius")

    surface = cloud.surface
    i_a = cKDTree(real6(cloud.a_samples)).query(real6(cloud.points))[1]
    i_b = cKDTree(real6(cloud.b_samples)).query(real6(cloud.points))[1]
    _, frames = _band_geometry(
        surface, cloud.points, cloud.a_samples[i_a], cloud.b_samples[i_b]
    )
    e6 = np.repeat(np.array(surface.scaling_exponents), 2)
    unscaled = np.concatenate([frames, (e6 * real6(cloud.points))[:, None, :]], axis=1)
    triples = np.array(list(itertools.combinations(range(6), 3)))
    minors = np.linalg.det(unscaled[:, :, triples].transpose(0, 2, 1, 3))
    powers, group = np.unique(2.0 * e6[triples].sum(axis=1) - 2.0, return_inverse=True)
    coeffs = minors**2 @ np.eye(powers.size)[group]
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_quad)
    nodes = 0.5 * (nodes + 1.0)
    gl_weights = 0.5 * gl_weights

    rungs = []
    for r in rungs_in:
        _, t_exit = sf.sphere_project(surface, cloud.points, r)
        u = t_exit[:, None] * nodes
        gram_det = sum(coeffs[:, k, None] * u**pk for k, pk in enumerate(powers))
        values = cloud.band_weights * (t_exit * (np.sqrt(gram_det) @ gl_weights))
        rungs.append(mt.density_rung(r, values, cloud.n_points, 3, min_points))
    return mt.fit_density_report(
        rungs, 3, "outer", cloud.seed,
        label=label or f"cone({surface.label})", sigmas=sigmas,
    )


def classify_sides(cloud: ConflictCloud, points) -> np.ndarray:
    """+1 for nearer to the A set, -1 for B, 0 within tau of the bisector.

    Points are first flowed up their orbits onto the link sphere, so the
    classification is constant along scaling orbits by construction.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=np.int8)
    flowed, _ = sf.sphere_project(cloud.surface, pts, cloud.link_radius)
    u, _, _ = bisector_gap(flowed, cloud.a_samples, cloud.b_samples)
    out = np.zeros(pts.shape[0], dtype=np.int8)
    out[u < -cloud.tau] = 1
    out[u > cloud.tau] = -1
    return out


@dataclass(frozen=True)
class SideCarrier:
    """Density carrier for one side of the bisector decomposition.

    ``sample`` keeps the ball draws nearer to this side's branch set; draws
    within tau of the bisector are discarded and added to the rejection count.
    """

    cloud: ConflictCloud
    side: str

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")

    @property
    def dimension(self) -> int:
        return 4

    @property
    def label(self) -> str:
        return f"side-{self.side}({self.cloud.surface.label})"

    def sample(self, radius: float, n: int, seed: int = 0, threads: int = 1) -> sp.PointCloud:
        ball = sp.sample_ball(self.cloud.surface, radius, n, None, seed, threads=threads)
        sides = classify_sides(self.cloud, ball.points)
        keep = sides == (1 if self.side == "A" else -1)
        return sp.PointCloud(
            ball.points[keep], ball.weights[keep], ball.residuals[keep],
            ball.dimension, ball.region, ball.seed, n_draws=ball.n_draws,
            n_rejected=ball.n_rejected + int((sides == 0).sum()),
            surface_label=ball.surface_label,
        )


@dataclass(frozen=True)
class CertificateParams:
    """Everything a separating certificate run depends on (besides the surface).

    Empty ladders are resolved at run time relative to the link radius:
    seven flow rungs down to 1e-3 of the link, five cone-density rungs from
    0.5 to 0.06 of the link, and four side rungs from 1.0 to 0.35 of it.
    ``b_labels=None`` selects every slice component not in ``a_labels``.

    ``tau=None`` resolves to 0.002 of the link radius — sharper than the
    standalone conflict_set default.  The side classification discards a
    band of width tau, and that discard must be thin in measure, or its
    radius-dependent share distorts the side exponents: branch sets of these
    surfaces are separated by much less than the link radius, so the
    bisector gap lives on a compressed scale.
    """

    link_radius: float = 0.1
    tau: float | None = None
    a_labels: tuple = (0,)
    b_labels: tuple | None = None
    n_conflict: int = 40000
    n_per_branch: int = 2000
    flow_ladder: tuple = ()
    m_ladder: tuple = ()
    side_ladder: tuple = ()
    n_side: int = 4000
    min_rung_points: int = 50
    sigmas: float = 3.0
    seed: int = 0
    threads: int = 1

    def resolved_tau(self) -> float:
        return 0.002 * self.link_radius if self.tau is None else self.tau

    def resolved_flow_ladder(self) -> tuple:
        if self.flow_ladder:
            return tuple(float(r) for r in self.flow_ladder)
        return tuple(self.link_radius * 10 ** (-0.5 * i) for i in range(7))

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

    The verdict is ``separating-evidence`` exactly when the cone report says
    zero-density, both side reports say positive-density, and the slice has
    at least two components; ``no-evidence`` when the construction does not
    apply; ``inconclusive`` otherwise.  Evidence at finitely many scales —
    never a proof.
    """

    surface_label: str
    n_slice_components: int
    delta_hat: float
    collapse: CollapseResult | None
    m_report: mt.DensityReport | None
    a_report: mt.DensityReport | None
    b_report: mt.DensityReport | None
    verdict: str
    reason: str
    params: CertificateParams

    def __post_init__(self):
        if self.verdict not in ("separating-evidence", "no-evidence", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        ok = (
            self.n_slice_components >= 2
            and self.m_report is not None
            and self.m_report.verdict == "zero-density"
            and self.a_report is not None
            and self.a_report.verdict == "positive-density"
            and self.b_report is not None
            and self.b_report.verdict == "positive-density"
        )
        if ok != (self.verdict == "separating-evidence"):
            raise ValueError("verdict contradicts the sub-report evidence")


def separating_certificate(
    surface: sf.WeightedSurface, params: CertificateParams = CertificateParams()
) -> SeparatingCertificate:
    """Run the full construction and assemble the evidence verdict."""
    p = params
    try:
        n_comp = sf.slice_structure(surface).n_components
    except sf.DegenerateSliceError as exc:
        return SeparatingCertificate(
            surface.label, 0, math.nan, None, None, None, None,
            "inconclusive", f"slice analysis failed: {exc}", p,
        )
    if n_comp < 2:
        return SeparatingCertificate(
            surface.label, n_comp, math.nan, None, None, None, None,
            "no-evidence",
            f"construction not applicable: slice has {n_comp} component(s)", p,
        )
    try:
        cloud = conflict_set(
            surface, p.link_radius, p.a_labels, p.b_labels, p.n_conflict,
            p.resolved_tau(), p.seed, threads=p.threads,
            n_per_branch=p.n_per_branch,
        )
        if cloud.n_points < p.min_rung_points:
            return SeparatingCertificate(
                surface.label, n_comp, cloud.delta_hat, None, None, None, None,
                "inconclusive",
                f"bisector band starved ({cloud.n_points} points)", p,
            )
        cloud = flow_cone(cloud, p.resolved_flow_ladder())
        collapse = tangent_cone_collapse(cloud)
        m_report = cone_density_report(
            cloud, p.resolved_m_ladder(), sigmas=p.sigmas, min_points=p.min_rung_points,
        )
        side_reports = {}
        for side in ("A", "B"):
            side_reports[side] = mt.density_ladder(
                SideCarrier(cloud, side), None, 4, p.resolved_side_ladder(),
                p.n_side, derive_seed(p.seed, "side", side), "outer",
                threads=p.threads, min_rung_points=p.min_rung_points, sigmas=p.sigmas,
            )
    except (sf.FiberSolveError, sf.BranchPointError, FlowError, RuntimeError) as exc:
        return SeparatingCertificate(
            surface.label, n_comp, math.nan, None, None, None, None,
            "inconclusive", f"construction failed: {exc}", p,
        )
    a_report = side_reports["A"]
    b_report = side_reports["B"]
    checks = [
        ("cone zero-density", m_report.verdict == "zero-density"),
        ("side A positive-density", a_report.verdict == "positive-density"),
        ("side B positive-density", b_report.verdict == "positive-density"),
    ]
    failures = [name for name, good in checks if not good]
    if failures:
        verdict, reason = "inconclusive", "unmet: " + ", ".join(failures)
    else:
        verdict, reason = "separating-evidence", "all sub-verdicts met"
    return SeparatingCertificate(
        surface.label, n_comp, cloud.delta_hat, collapse,
        m_report, a_report, b_report, verdict, reason, p,
    )


def certificate_dict(cert: SeparatingCertificate) -> dict:
    """JSON-ready dictionary (schema separating-certificate/v1)."""
    def report(r):
        return None if r is None else mt.density_report_dict(r)

    collapse = None if cert.collapse is None else dataclasses.asdict(cert.collapse)
    return {
        "schema": "separating-certificate/v1",
        "surface": cert.surface_label,
        "n_slice_components": cert.n_slice_components,
        "delta_hat": cert.delta_hat,
        "collapse": collapse,
        "cone_report": report(cert.m_report),
        "side_a_report": report(cert.a_report),
        "side_b_report": report(cert.b_report),
        "verdict": cert.verdict,
        "reason": cert.reason,
        "params": dataclasses.asdict(cert.params),
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
    if cert.collapse is not None:
        c = cert.collapse
        lines.append(
            f"  transverse collapse: slope {c.slope:.3f}, final ratio "
            f"{c.final_ratio:.3e}, collapsed={c.collapsed}"
        )
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

    ``k_hat`` is the largest measure / (eps_w * r^4) over unflagged cells;
    the table passes when no cell is starved and the K values stay within
    the stability bound of each other.
    """

    surface_label: str
    eps_w_ladder: tuple
    r_ladder: tuple
    cells: tuple
    k_hat: float
    stability: float
    r_slopes: tuple
    passed: bool
    seed: int
    n_per_cell: int


def thin_wedge_volume(
    surface: sf.WeightedSurface,
    eps_w_ladder,
    r_ladder,
    n: int,
    seed: int = 0,
    *,
    threads: int = 1,
    min_cell_points: int = 50,
    stability_bound: float = 5.0,
) -> ThinWedgeTable:
    """Tabulate H^4(X within the eps_w axis-neighborhood and the r-ball)."""
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
            surface, r, n, sp.RegionSpec("thin-wedge", r, eps_w=eps_w),
            derive_seed(seed, "cell", i, j), threads=1,
        )
        measure, se = mt.measure_estimate(cloud)
        flagged = cloud.n_points < min_cell_points or measure <= 0.0
        return ThinWedgeCell(
            eps_w, r, measure, se, cloud.n_points,
            measure / (eps_w * r**4), flagged,
        )

    cells = tuple(parallel_map(run, jobs, threads))
    good = [c.k_value for c in cells if not c.flagged]
    k_hat = max(good) if good else math.nan
    stability = (max(good) / min(good)) if good else math.nan
    slopes = []
    for i, eps_w in enumerate(eps_ws):
        row = [c for c in cells[i * len(rs):(i + 1) * len(rs)] if not c.flagged]
        if len(row) >= 2:
            slope, _, _, _ = loglog_fit([c.r for c in row], [c.measure for c in row])
        else:
            slope = math.nan
        slopes.append((eps_w, slope))
    passed = all(not c.flagged for c in cells) and stability <= stability_bound
    return ThinWedgeTable(
        surface.label, tuple(eps_ws), tuple(rs), cells, k_hat, stability,
        tuple(slopes), bool(passed), seed, n,
    )


def thin_wedge_dict(table: ThinWedgeTable) -> dict:
    """JSON-ready dictionary (schema thin-wedge/v1)."""
    out = dataclasses.asdict(table)
    return {"schema": "thin-wedge/v1", "surface": out.pop("surface_label"), **out}
