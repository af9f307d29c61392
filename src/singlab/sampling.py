"""Weighted point clouds on regions of a weighted-homogeneous surface.

Each sampler draws from an explicit parametrization with a known law and
attaches an importance weight to every emitted point, so that the weight sum
over any measurable subregion is an unbiased Monte Carlo estimate of its
k-dimensional Hausdorff measure:

* ``sample_link`` (k=3) parametrizes the link X ∩ rS⁵ by a uniform direction
  on the unit 3-sphere of a coordinate 2-plane times the fiber sheets over it,
  pushed onto the sphere along the weighted scaling orbit.  Every link point
  off a measure-zero exceptional set lies on exactly one orbit, and that orbit
  crosses both the direction sphere and rS⁵ exactly once, so the
  parametrization is bijective almost everywhere and the change-of-variables
  Jacobian (estimated by central finite differences along a tangent triad)
  converts uniform direction draws into surface measure.
* ``sample_ball`` (k=4) parametrizes X ∩ rB⁶ as fiber-sheet graphs over the
  (y,z)-polydisk.  The 4-area factor of a holomorphic graph is
  1 + |∂x/∂y|² + |∂x/∂z|², available in closed form from the gradient.  The
  |z| law is a half-uniform, half-concentrated mixture: near tangencies of X
  to the {z=0} hyperplane the area factor can grow like a negative power of
  |z| that leaves the estimate finite but gives a uniform law infinite
  variance, and the concentrated component caps the weights.
* ``sample_slice_z0`` (k=2) samples the slice curve X ∩ {z=0} branch by
  branch, labeling points with the component labels of ``slice_structure``.

Draws that fail numerically (unconverged fibers, near-collisions of sheets,
residuals over bound) are dropped but kept in the divisor, so they bias the
weight sum toward zero by at most the measure of the dropped set; their count
is reported on the cloud.

Draws come from N_SHARDS = 64 fixed RNG substreams derived from the seed, so
they never depend on the thread count.  The ball and link samplers
concatenate the draws of all 64 streams in stream order and solve them as
one batch, split into one contiguous chunk per thread.  Every per-row kernel
they call (fiber roots, sphere projection, finite differences) gives a row
the same bits whatever else is in its batch, so the cloud is bitwise
reproducible for a given seed at any thread count.  The slice sampler runs
each stream as its own task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surfaces as sf
from .util import derive_rng, parallel_map, real6, shard_counts

__all__ = [
    "N_SHARDS",
    "REGION_KINDS",
    "RegionSpec",
    "PointCloud",
    "in_region",
    "sample_link",
    "sample_ball",
    "sample_slice_z0",
    "branch_link_samples",
]

# Fixed shard count: per-shard RNG streams are derived from (seed, tag, shard)
# so the merged cloud is identical for any number of worker threads.
N_SHARDS = 64

REGION_KINDS = ("link-sphere", "wedge", "thin-wedge", "ball", "slice-z0")

# Relative sheet-separation threshold below which a fiber root is treated as
# too close to the branch locus for stable weights.
SEPARATION_REL = 1e-6


@dataclass(frozen=True)
class RegionSpec:
    """A named region of C³ used to filter sampled points.

    ``kind`` is one of REGION_KINDS.  ``radius`` scopes the link-sphere,
    ball and slice-z0 kinds; the wedge kinds are radius-free cones described
    by ``eps_w``: the wedge is {ε|y| ≤ |z| ≤ |y|/ε} and the thin wedge its
    complement {|z| ≤ ε|y| or |y| ≤ ε|z|}.
    """

    kind: str
    radius: float
    eps_w: float = 1.0

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0 < self.eps_w <= 1:
            raise ValueError(f"eps_w must lie in (0, 1], got {self.eps_w}")


def in_region(points, region: RegionSpec):
    """Exact membership test; points is one (3,) point or an (n,3) batch."""
    pts = np.asarray(points, dtype=complex)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    ay = np.abs(pts[:, 1])
    az = np.abs(pts[:, 2])
    norm = np.linalg.norm(pts, axis=1)
    k = region.kind
    if k == "link-sphere":
        mask = np.abs(norm - region.radius) <= 1e-8 * region.radius
    elif k == "ball":
        mask = norm <= region.radius
    elif k == "wedge":
        mask = (region.eps_w * ay <= az) & (az * region.eps_w <= ay)
    elif k == "thin-wedge":
        mask = (az <= region.eps_w * ay) | (ay <= region.eps_w * az)
    elif k == "slice-z0":
        mask = (pts[:, 2] == 0) & (norm <= region.radius)
    else:  # pragma: no cover - guarded by RegionSpec
        raise ValueError(f"unknown region kind {k!r}")
    return bool(mask[0]) if scalar else mask


@dataclass(frozen=True)
class PointCloud:
    """Weighted samples on a surface region.

    ``weights`` are the Monte Carlo masses: the sum of weights over samples in
    any subregion estimates its ``dimension``-dimensional Hausdorff measure.
    ``residuals`` record |f| at each point.  ``labels`` carries per-point
    branch labels for slice clouds (None elsewhere).
    ``n_draws`` is the requested draw count (the estimator divisor) and
    ``n_rejected`` the number of sheet evaluations dropped for numerical
    reasons.
    """

    points: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    dimension: int
    region: RegionSpec | None
    seed: int
    labels: np.ndarray | None = None
    n_draws: int = 0
    n_rejected: int = 0
    surface_label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        res = np.asarray(self.residuals, dtype=float).reshape(-1)
        if not (pts.shape[0] == w.shape[0] == res.shape[0]):
            raise ValueError("points, weights and residuals must share a length")
        if w.size and not (w > 0).all():
            raise ValueError("weights must be positive")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int32).reshape(-1)
            if labels.shape[0] != pts.shape[0]:
                raise ValueError("labels must match points in length")
        for name, value in (
            ("points", pts), ("weights", w), ("residuals", res), ("labels", labels)
        ):
            object.__setattr__(self, name, value)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def validate(self, surface: sf.WeightedSurface) -> None:
        """Raise if any stored invariant fails against the surface."""
        r = self.region.radius if self.region is not None else 1.0
        bound = sf._residual_bound(surface, r)
        if self.n_points == 0:
            return
        if not (self.residuals <= bound).all():
            raise ValueError(f"residuals exceed bound {bound:g}")
        live = np.abs(sf.evaluate(surface, self.points))
        if not (live <= bound).all():
            raise ValueError("points drifted off the surface")
        if self.region is not None and not in_region(self.points, self.region).all():
            raise ValueError("points violate the region predicate")


def _concat_parts(parts):
    pts = np.concatenate([p for p, *_ in parts]) if parts else np.zeros((0, 3), complex)
    ws = np.concatenate([w for _, w, *_ in parts])
    res = np.concatenate([r for _, _, r, *_ in parts])
    labels = [p[3] for p in parts]
    lab = np.concatenate(labels) if labels and labels[0] is not None else None
    n_rej = sum(p[4] for p in parts)
    return pts, ws, res, lab, n_rej


def _empty_part(labeled=False):
    lab = np.zeros(0, dtype=np.int32) if labeled else None
    return (np.zeros((0, 3), complex), np.zeros(0), np.zeros(0), lab, 0)


def _shard_draws(n: int, draw, seed: int, *tags) -> np.ndarray:
    """``draw(rng, m)`` on each of the N_SHARDS streams, concatenated in shard order."""
    counts = shard_counts(n, N_SHARDS)
    return np.concatenate(
        [draw(derive_rng(seed, *tags, i), m) for i, m in enumerate(counts)]
    )


def _map_rows(body, rows: np.ndarray, threads: int):
    """``body`` over one contiguous chunk of ``rows`` per thread, merged in row order."""
    chunks = np.array_split(rows, max(int(threads), 1))
    return _concat_parts(parallel_map(body, chunks, threads))


def _fiber_axis(surface: sf.WeightedSurface, axis: int):
    """Degree, free coordinate indices, and builders for the fiber along one axis."""
    free = tuple(i for i in range(3) if i != axis)
    degree = max(e[axis] for e, _ in surface.terms)
    if degree == 0:
        raise ValueError(f"surface has no dependence on coordinate {axis}")

    def coefficients(u, v):
        out = np.zeros((u.shape[0], degree + 1), dtype=complex)
        for e, coeff in surface.terms:
            out[:, e[axis]] += coeff * u ** e[free[0]] * v ** e[free[1]]
        return out

    def assemble(roots, u, v):
        pts = np.empty(roots.shape + (3,), dtype=complex)
        pts[..., axis] = roots
        pts[..., free[0]] = np.broadcast_to(u[:, None], roots.shape)
        pts[..., free[1]] = np.broadcast_to(v[:, None], roots.shape)
        return pts

    return degree, free, coefficients, assemble


def _match_roots(base: np.ndarray, pert: np.ndarray, base_gap: np.ndarray):
    """Continue each base root to the nearest perturbed root.

    Returns (matched roots, ok) where ok is False when the assignment is
    ambiguous: the root moved at least 45% of the way to its nearest sibling,
    or the second-closest candidate is within a factor 2 of the closest.
    """
    m, deg = base.shape
    dist = np.abs(base[:, :, None] - pert[:, None, :])
    idx = dist.argmin(axis=2)
    d1 = np.take_along_axis(dist, idx[:, :, None], axis=2)[:, :, 0]
    matched = np.take_along_axis(pert, idx, axis=1)
    ok = d1 < 0.45 * base_gap
    if deg >= 2:
        d2 = np.partition(dist, 1, axis=2)[:, :, 1]
        ok &= d2 >= 2.0 * d1
    return matched, ok


def _link_rows(surface, radius, n_total, u4, axis, fd_step, region, bound):
    """Link points over unit direction draws ``u4`` (m, 4), one row per draw."""
    m = u4.shape[0]
    if m == 0:
        return _empty_part()
    degree, free, coefficients, assemble = _fiber_axis(surface, axis)

    def solve_at(u4pts):
        uc = u4pts[:, 0] + 1j * u4pts[:, 1]
        vc = u4pts[:, 2] + 1j * u4pts[:, 3]
        roots, ok = sf.all_roots(coefficients(uc, vc))
        return uc, vc, roots, ok

    uc, vc, roots, ok_row = solve_at(u4)
    finite = np.isfinite(roots)
    roots = np.where(finite, roots, 1.0)
    gap = sf._root_gaps(roots)
    scale = np.maximum(np.abs(roots).max(axis=1), 1e-300)
    keep = ok_row[:, None] & finite & (gap >= SEPARATION_REL * scale[:, None])

    base_pts = assemble(roots, uc, vc)
    proj, _ = sf.sphere_project(surface, base_pts.reshape(-1, 3), radius)
    proj = proj.reshape(m, degree, 3)

    # Orthonormal tangent triad of the direction 3-sphere at each draw: the
    # last three right-singular vectors of the 1x4 row u.
    tau = np.linalg.svd(u4[:, None, :])[2][:, 1:, :]
    h = fd_step
    divisor = 2.0 * math.atan(h)
    fd = np.empty((m, degree, 3, 6))
    for j in range(3):
        sides = []
        for sign in (1.0, -1.0):
            up = u4 + sign * h * tau[:, j, :]
            up /= np.linalg.norm(up, axis=1, keepdims=True)
            upc, vpc, proots, pok = solve_at(up)
            proots = np.where(np.isfinite(proots), proots, 1.0)
            matched, mok = _match_roots(roots, proots, gap)
            keep &= pok[:, None] & mok
            ppts = assemble(matched, upc, vpc)
            pproj, _ = sf.sphere_project(surface, ppts.reshape(-1, 3), radius)
            sides.append(real6(pproj).reshape(m, degree, 6))
        fd[:, :, j, :] = (sides[0] - sides[1]) / divisor

    gram = np.einsum("mdjk,mdlk->mdjl", fd, fd)
    jac = np.sqrt(np.clip(np.linalg.det(gram), 0.0, None))
    keep &= jac > 0

    residual = np.abs(sf.evaluate(surface, proj.reshape(-1, 3))).reshape(m, degree)
    keep &= residual <= bound
    n_rejected = int((~keep).sum())

    weights = (2.0 * math.pi**2 / n_total) * jac
    flat = keep.reshape(-1)
    pts = proj.reshape(-1, 3)[flat]
    w = weights.reshape(-1)[flat]
    res = residual.reshape(-1)[flat]
    if region is not None:
        mask = in_region(pts, region)
        pts, w, res = pts[mask], w[mask], res[mask]
    return pts, w, res, None, n_rejected


def sample_link(
    surface: sf.WeightedSurface,
    radius: float,
    n: int,
    region: RegionSpec | None = None,
    seed: int = 0,
    *,
    threads: int = 1,
    fiber_axis: str = "x",
    fd_step: float = 1e-6,
) -> PointCloud:
    """Weighted samples on X ∩ (radius·S⁵), k=3.

    ``n`` counts direction draws; each draw contributes up to one point per
    fiber sheet.  ``fiber_axis`` selects which coordinate is solved for over
    the direction sphere of the other two ("x" or "z"); both parametrize the
    same link, which makes the two routes a cross-check of the weights.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    axis = {"x": 0, "z": 2}[fiber_axis]
    store_region = region if region is not None else RegionSpec("link-sphere", radius)
    bound = sf._residual_bound(surface, radius)
    u4 = _shard_draws(n, lambda rng, m: rng.normal(size=(m, 4)), seed, "link", axis)
    u4 /= np.linalg.norm(u4, axis=1, keepdims=True)
    pts, w, res, _, n_rej = _map_rows(
        lambda rows: _link_rows(
            surface, radius, n, rows, axis, fd_step, region, bound
        ),
        u4, threads,
    )
    return PointCloud(
        pts, w, res, 3, store_region, seed,
        n_draws=n, n_rejected=n_rej, surface_label=surface.label,
    )


def _ball_rows(surface, radius, n_total, draws, region, bound):
    """Ball points over uniform variates ``draws`` (m, 5), one row per (y,z) draw."""
    m = draws.shape[0]
    if m == 0:
        return _empty_part()
    R = radius
    y = R * np.sqrt(draws[:, 0]) * np.exp(2j * math.pi * draws[:, 1])
    heavy = draws[:, 2] < 0.5
    u = draws[:, 3]
    rho = np.where(heavy, R * u ** 2.5, R * np.sqrt(u))
    z = rho * np.exp(2j * math.pi * draws[:, 4])
    # Per-area densities of the two independent factors of the (y,z) law.
    pdf_y = 1.0 / (math.pi * R**2)
    with np.errstate(divide="ignore"):
        heavy_pdf = rho ** (-1.6) / (5.0 * math.pi * R**0.4)
    pdf_z = 0.5 / (math.pi * R**2) + 0.5 * heavy_pdf

    roots, ok_row = sf.all_roots(sf.fiber_coefficients(surface, y, z))
    degree = roots.shape[1]
    gap = sf._root_gaps(roots)
    scale = np.maximum(np.abs(roots).max(axis=1), 1e-300)
    keep = ok_row[:, None] & (gap >= SEPARATION_REL * scale[:, None])

    pts = np.empty((m, degree, 3), dtype=complex)
    pts[:, :, 0] = roots
    pts[:, :, 1] = y[:, None]
    pts[:, :, 2] = z[:, None]
    flat_pts = pts.reshape(-1, 3)
    grad = sf.gradient(surface, flat_pts).reshape(m, degree, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = 1.0 + (np.abs(grad[:, :, 1]) ** 2 + np.abs(grad[:, :, 2]) ** 2) / (
            np.abs(grad[:, :, 0]) ** 2
        )
    keep &= np.isfinite(jac)

    residual = np.abs(sf.evaluate(surface, flat_pts)).reshape(m, degree)
    keep &= residual <= bound
    weights = jac / (n_total * pdf_y * pdf_z[:, None])
    keep &= np.isfinite(weights) & (weights > 0)
    n_rejected = int((~keep).sum())

    # Geometric filters: inside the ball, then the caller's region.  These are
    # not failures; the polydisk law deliberately covers more than the ball.
    norms = np.linalg.norm(flat_pts, axis=1).reshape(m, degree)
    keep &= norms <= R
    flat = keep.reshape(-1)
    out_pts = flat_pts[flat]
    out_w = weights.reshape(-1)[flat]
    out_res = residual.reshape(-1)[flat]
    if region is not None:
        mask = in_region(out_pts, region)
        out_pts, out_w, out_res = out_pts[mask], out_w[mask], out_res[mask]
    return out_pts, out_w, out_res, None, n_rejected


def sample_ball(
    surface: sf.WeightedSurface,
    radius: float,
    n: int,
    region: RegionSpec | None = None,
    seed: int = 0,
    *,
    threads: int = 1,
) -> PointCloud:
    """Weighted samples on X ∩ (radius·B⁶), k=4.

    ``n`` counts (y,z) draws over the polydisk of the ball radius; each draw
    contributes up to one point per fiber sheet, filtered to the ball and the
    optional region.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    store_region = region if region is not None else RegionSpec("ball", radius)
    bound = sf._residual_bound(surface, radius)
    # Five uniforms per draw, in the order |y|, arg y, mixture pick, |z|, arg z.
    draws = _shard_draws(n, lambda rng, m: rng.random((5, m)).T, seed, "ball")
    pts, w, res, _, n_rej = _map_rows(
        lambda rows: _ball_rows(surface, radius, n, rows, region, bound),
        draws, threads,
    )
    return PointCloud(
        pts, w, res, 4, store_region, seed,
        n_draws=n, n_rejected=n_rej, surface_label=surface.label,
    )


def _h_partial_y(struct: sf.SliceStructure, x, y):
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for a, b, coeff in struct.h_terms:
        if b:
            out += b * coeff * x**a * y ** (b - 1)
    return out


def _h_roots_at(struct: sf.SliceStructure, surface: sf.WeightedSurface, y):
    """Roots of h(., y) for each y, one column per tracked trajectory.

    Seeds come from the stored base-circle trajectories at the nearest grid
    phase, rescaled radially by quasi-homogeneity (a positive real scaling
    that cannot change trajectory identity), then Newton-polished at the
    exact y.  Returns (x (m, T), ok (m, T)).
    """
    y = np.asarray(y, dtype=complex)
    m = y.shape[0]
    T = struct.multiplicity.size
    if T == 0:
        return np.zeros((m, 0), complex), np.zeros((m, 0), bool)
    w1, w2 = surface.weights[0], surface.weights[1]
    rho = np.abs(y)
    phase = np.mod(np.angle(y) / (2.0 * math.pi), 1.0)
    grid_idx = np.minimum(
        np.round(phase * struct.n_steps).astype(int), struct.n_steps
    )
    seeds = struct.trajectories[grid_idx, :]  # (m, T) at base radius
    radial = (rho / struct.base_radius) ** (w1 / w2)
    seeds = seeds * radial[:, None]

    coeffs = struct.h_coefficients(y)
    dcoeffs = sf._polyder(coeffs)
    x = seeds.copy()
    for _ in range(60):
        p = sf._polyval(coeffs, x)
        dp = sf._polyval(dcoeffs, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        x = x - step
        if np.abs(step).max(initial=0.0) < 1e-16 * max(np.abs(x).max(initial=0.0), 1e-300):
            break
    # The polish must stay within the seed's basin: closer to its own seed
    # than 45% of the distance to any sibling seed.
    seed_gap = sf._root_gaps(seeds)
    moved = np.abs(x - seeds)
    ok = np.isfinite(x) & (moved < 0.45 * np.maximum(seed_gap, 1e-300))
    return x, ok


def _slice_disk_shard(surface, struct, radius, n_total, m, rng, bound, mode):
    """One shard of slice samples; mode is 'x', 'y' (axis branches) or 'h'."""
    if m == 0:
        return _empty_part(labeled=True)
    R = radius
    disk = R * np.sqrt(rng.random(m)) * np.exp(2j * math.pi * rng.random(m))
    area = math.pi * R**2
    if mode in ("x", "y"):
        pts = np.zeros((m, 3), dtype=complex)
        pts[:, 1 if mode == "x" else 0] = disk
        label = 0 if mode == "x" else (1 if struct.has_x_branch else 0)
        labels = np.full(m, label, dtype=np.int32)
        weights = np.full(m, area / n_total)
        residuals = np.abs(sf.evaluate(surface, pts))
        keep = residuals <= bound
        n_rej = int((~keep).sum())
        return pts[keep], weights[keep], residuals[keep], labels[keep], n_rej

    x, ok = _h_roots_at(struct, surface, disk)
    T = x.shape[1]
    pts = np.empty((m, T, 3), dtype=complex)
    pts[:, :, 0] = x
    pts[:, :, 1] = disk[:, None]
    pts[:, :, 2] = 0.0
    flat_pts = pts.reshape(-1, 3)

    hx = sf._polyval(sf._polyder(struct.h_coefficients(disk)), x)
    hy = _h_partial_y(struct, x, disk[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        dxdy = -hy / hx
    jac = 1.0 + np.abs(dxdy) ** 2
    ok &= np.isfinite(jac)

    residual = np.abs(sf.evaluate(surface, flat_pts)).reshape(m, T)
    ok &= residual <= bound
    n_rej = int((~ok).sum())
    norms = np.linalg.norm(flat_pts, axis=1).reshape(m, T)
    ok &= norms <= R

    weights = area * jac / n_total
    labels = np.broadcast_to(
        struct.orbit_of_trajectory.astype(np.int32)[None, :], (m, T)
    )
    flat = ok.reshape(-1)
    return (
        flat_pts[flat],
        weights.reshape(-1)[flat],
        residual.reshape(-1)[flat],
        labels.reshape(-1)[flat],
        n_rej,
    )


def sample_slice_z0(
    surface: sf.WeightedSurface,
    radius: float,
    n: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> PointCloud:
    """Weighted, branch-labeled samples on X ∩ {z=0} ∩ (radius·B⁶), k=2.

    ``n`` counts parameter draws per parametrizing disk: one disk for each
    coordinate-axis branch and one shared disk for all root branches of the
    reduced factor h.  Labels match ``slice_structure`` component labels.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    struct = sf.slice_structure(surface)
    bound = sf._residual_bound(surface, radius)
    counts = shard_counts(n, N_SHARDS)
    modes = []
    if struct.has_x_branch:
        modes.append("x")
    if struct.has_y_branch:
        modes.append("y")
    if struct.multiplicity.size:
        modes.append("h")

    def shard(task):
        mode, i = task
        rng = derive_rng(seed, "slice", mode, i)
        return _slice_disk_shard(
            surface, struct, radius, n, counts[i], rng, bound, mode
        )

    tasks = [(mode, i) for mode in modes for i in range(N_SHARDS)]
    parts = parallel_map(shard, tasks, threads)
    pts, w, res, lab, n_rej = _concat_parts(parts)
    region = RegionSpec("slice-z0", radius)
    return PointCloud(
        pts, w, res, 2, region, seed, labels=lab,
        n_draws=n, n_rejected=n_rej, surface_label=surface.label,
    )


def branch_link_samples(
    surface: sf.WeightedSurface,
    radius: float,
    labels=None,
    n_per_branch: int = 2000,
):
    """Deterministic dense samples of slice branches on the link sphere.

    Each branch of X ∩ {z=0} meets the sphere |p| = radius in circles; this
    returns uniform-phase grids on them, labeled consistently with
    ``slice_structure``.  Intended as reference sets for distance queries, so
    points carry no weights.  Returns (points (M,3), labels (M,)).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_per_branch <= 0:
        raise ValueError("n_per_branch must be positive")
    struct = sf.slice_structure(surface)
    wanted = set(struct.labels if labels is None else labels)
    unknown = wanted - set(struct.labels)
    if unknown:
        raise ValueError(f"unknown branch labels {sorted(unknown)}")
    out_pts, out_lab = [], []

    def add_axis_circle(coord, label):
        phi = 2.0 * math.pi * np.arange(n_per_branch) / n_per_branch
        pts = np.zeros((n_per_branch, 3), dtype=complex)
        pts[:, coord] = radius * np.exp(1j * phi)
        out_pts.append(pts)
        out_lab.append(np.full(n_per_branch, label, dtype=np.int32))

    next_label = 0
    if struct.has_x_branch:
        if next_label in wanted:
            add_axis_circle(1, next_label)  # branch {x=0}: circle in y
        next_label += 1
    if struct.has_y_branch:
        if next_label in wanted:
            add_axis_circle(0, next_label)  # branch {y=0}: circle in x
        next_label += 1

    orbit_labels = sorted(set(struct.orbit_of_trajectory.tolist()) & wanted)
    if orbit_labels:
        w1, w2 = surface.weights[0], surface.weights[1]
        alpha = w1 / w2
        for label in orbit_labels:
            traj = np.flatnonzero(struct.orbit_of_trajectory == label)
            n_t = -(-n_per_branch // traj.size)
            phi = 2.0 * math.pi * np.arange(n_t) / n_t
            y_circle = struct.base_radius * np.exp(1j * phi)
            xs, ok = _h_roots_at(struct, surface, y_circle)
            if not ok[:, traj].all():
                raise sf.ContinuationError(
                    f"branch {label}: root polish failed on the base circle"
                )
            for t in traj:
                xhat = xs[:, t]
                # Solve rho^(2a)|x̂|²/b^(2a) + rho² = radius² for rho by
                # bisection in log rho (left side strictly increasing).
                c = (np.abs(xhat) / struct.base_radius**alpha) ** 2
                lo = np.full(n_t, math.log(radius) - 60.0)
                hi = np.full(n_t, math.log(radius))
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    val = c * np.exp(2 * alpha * mid) + np.exp(2 * mid)
                    high = val > radius**2
                    hi = np.where(high, mid, hi)
                    lo = np.where(high, lo, mid)
                rho = np.exp(0.5 * (lo + hi))
                pts = np.empty((n_t, 3), dtype=complex)
                pts[:, 0] = xhat * (rho / struct.base_radius) ** alpha
                pts[:, 1] = rho * np.exp(1j * phi)
                pts[:, 2] = 0.0
                out_pts.append(pts)
                out_lab.append(np.full(n_t, label, dtype=np.int32))

    if not out_pts:
        return np.zeros((0, 3), complex), np.zeros(0, dtype=np.int32)
    return np.concatenate(out_pts), np.concatenate(out_lab)
