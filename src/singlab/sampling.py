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
  Jacobian converts uniform direction draws into surface measure.  It is the
  differential of the explicit map, in closed form: the implicit function
  theorem moves the solved coordinate along each tangent of the direction
  sphere, and the orbit time moves so that the image stays on rS⁵.
* ``sample_ball`` (k=4) parametrizes X ∩ rB⁶ as fiber-sheet graphs over the
  (y,z)-polydisk.  The 4-area factor of a holomorphic graph is
  1 + |∂x/∂y|² + |∂x/∂z|², available in closed form from the gradient.  The
  |z| law is a half-uniform, half-concentrated mixture: near tangencies of X
  to the {z=0} hyperplane the area factor can grow like a negative power of
  |z| that leaves the estimate finite but gives a uniform law infinite
  variance, and the concentrated component caps the weights.

Both samplers take the sheets over a batch of draws from
``surfaces.fiber_sheets`` and weight a sheet only if it passes one acceptance
rule, ``_separated``: its fiber solve converged and its root keeps clear of its
siblings.  Sheets that fail the rule, or whose weight is not finite or whose
residual is over bound, are dropped but kept in the divisor, so they bias the
weight sum toward zero by at most the measure of the dropped set; their count
is reported on the cloud.  The ball sampler solves only the draws whose (y,z)
base can reach the ball and the region, so it counts failures among those.

Draws come from N_SHARDS = 64 fixed RNG substreams derived from the seed, so
they never depend on the thread count.  The ball and link samplers
concatenate the draws of all 64 streams in stream order and solve them as
one batch, split into one contiguous chunk per thread.  Every per-row kernel
they call (fiber roots, sphere projection) gives a row the same bits
whatever else is in its batch, so the cloud is bitwise reproducible for a
given seed at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surfaces as sf
from .util import derive_rng, parallel_map, shard_counts

__all__ = [
    "N_SHARDS",
    "REGION_KINDS",
    "RegionSpec",
    "PointCloud",
    "in_wedge",
    "in_region",
    "sample_link",
    "sample_ball",
]

# Fixed shard count: per-shard RNG streams are derived from (seed, tag, shard)
# so the merged cloud is identical for any number of worker threads.
N_SHARDS = 64

REGION_KINDS = ("link-sphere", "wedge", "thin-wedge", "ball")

# Relative sheet-separation threshold below which a fiber root is treated as
# too close to the branch locus for stable weights.
SEPARATION_REL = 1e-6


@dataclass(frozen=True)
class RegionSpec:
    """A named region of C³ used to filter sampled points.

    ``kind`` is one of REGION_KINDS.  ``radius`` scopes the link-sphere and
    ball kinds; the wedge kinds are radius-free cones described
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


def in_wedge(kind: str, eps_w: float, ay, az):
    """The (y,z) test of the wedge kinds, from |y| and |z| alone."""
    if kind == "thin-wedge":
        return (az <= eps_w * ay) | (ay <= eps_w * az)
    return (eps_w * ay <= az) & (az * eps_w <= ay)


def in_region(points, region: RegionSpec):
    """Exact membership test; points is one (3,) point or an (n,3) batch."""
    pts = np.asarray(points, dtype=complex)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    k = region.kind
    if k in ("wedge", "thin-wedge"):
        mask = in_wedge(k, region.eps_w, np.abs(pts[:, 1]), np.abs(pts[:, 2]))
    elif k == "link-sphere":
        mask = np.abs(np.linalg.norm(pts, axis=1) - region.radius) <= 1e-8 * region.radius
    else:
        mask = np.linalg.norm(pts, axis=1) <= region.radius
    return bool(mask[0]) if scalar else mask


@dataclass(frozen=True)
class PointCloud:
    """Weighted samples on a surface region.

    ``weights`` are the Monte Carlo masses: the sum of weights over samples in
    any subregion estimates its ``dimension``-dimensional Hausdorff measure.
    ``residuals`` record |f| at each point.
    ``n_draws`` is the requested draw count (the estimator divisor) and
    ``n_rejected`` the number of sheets of solved draws dropped for numerical
    reasons (``sample_ball`` solves only draws that can reach its region).
    """

    points: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    dimension: int
    region: RegionSpec | None
    seed: int
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
        for name, value in (("points", pts), ("weights", w), ("residuals", res)):
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
    pts, ws, res, n_rej = zip(*parts)
    return np.concatenate(pts), np.concatenate(ws), np.concatenate(res), sum(n_rej)


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


def _separated(pts: np.ndarray, ok: np.ndarray, axis: int) -> np.ndarray:
    """(m, deg) mask of the sheets fit to weight: the row converged, and the
    sheet's root lies at least SEPARATION_REL times the row's largest root
    from its siblings."""
    roots = pts[..., axis]
    scale = np.maximum(np.abs(roots).max(axis=1), 1e-300)
    return ok[:, None] & (sf._root_gaps(roots) >= SEPARATION_REL * scale[:, None])


def _emit(points, weights, residuals, keep, region):
    """The kept sheets in (row, sheet) order, then those in ``region``."""
    flat = keep.reshape(-1)
    pts = points.reshape(-1, 3)[flat]
    w = weights.reshape(-1)[flat]
    res = residuals.reshape(-1)[flat]
    if region is not None:
        mask = in_region(pts, region)
        pts, w, res = pts[mask], w[mask], res[mask]
    return pts, w, res


def _link_rows(surface, radius, n_total, u4, axis, region, bound):
    """Link points over unit direction draws ``u4`` (m, 4), one row per draw."""
    # Sheet points p(u), one row per (draw, sheet), and q = D(s)p on rS⁵
    # with D(s) = diag(s^e).
    uc, vc = u4[:, 0] + 1j * u4[:, 1], u4[:, 2] + 1j * u4[:, 3]
    sheets, ok = sf.fiber_sheets(surface, uc, vc, axis)
    keep = _separated(sheets, ok, axis)
    m, degree = keep.shape
    free = [i for i in range(3) if i != axis]
    p = sheets.reshape(-1, 3)
    q, s = sf.sphere_project(surface, p, radius)
    e = np.array(surface.scaling_exponents)
    stretch = s[:, None] ** e
    grad = sf.gradient(surface, p)

    # Orthonormal tangent triad of the direction 3-sphere at each draw: the
    # last three right-singular vectors of the 1x4 row u, as (du_a, du_b).
    tau = np.linalg.svd(u4[:, None, :])[2][:, 1:, :]
    du = np.repeat(tau[:, :, 0::2] + 1j * tau[:, :, 1::2], degree, axis=0)
    dp = np.empty(du.shape[:2] + (3,), dtype=complex)
    dp[:, :, free[0]] = du[:, :, 0]
    dp[:, :, free[1]] = du[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Implicit function theorem: f(p(u)) = 0 along the sheet.
        dp[:, :, axis] = -(
            grad[:, None, free[0]] * du[:, :, 0] + grad[:, None, free[1]] * du[:, :, 1]
        ) / grad[:, None, axis]
        ddp = stretch[:, None, :] * dp
        # d|q|² = 0 fixes the orbit time: ds/s = -Re<q, D dp> / sum_i e_i |q_i|².
        dlog_s = -np.einsum("ni,nji->nj", q.conj(), ddp).real / (
            (e * np.abs(q) ** 2).sum(axis=1)[:, None]
        )
        dq = ddp + dlog_s[:, :, None] * (e * q)[:, None, :]
        gram = np.einsum("nji,nki->njk", dq.conj(), dq).real
        jac = np.sqrt(np.clip(np.linalg.det(gram), 0.0, None)).reshape(m, degree)
    keep &= np.isfinite(jac) & (jac > 0)

    residual = np.abs(sf.evaluate(surface, q)).reshape(m, degree)
    keep &= residual <= bound
    n_rejected = int((~keep).sum())
    weights = (2.0 * math.pi**2 / n_total) * jac
    return (*_emit(q, weights, residual, keep, region), n_rejected)


def sample_link(
    surface: sf.WeightedSurface,
    radius: float,
    n: int,
    region: RegionSpec | None = None,
    seed: int = 0,
    *,
    threads: int = 1,
    fiber_axis: str = "x",
) -> PointCloud:
    """Weighted samples on X ∩ (radius·S⁵), k=3.

    ``n`` counts direction draws; each draw contributes up to one point per
    fiber sheet.  ``fiber_axis`` selects which coordinate is solved for over
    the direction sphere of the other two ("x" or "z"); both parametrize the
    same link, which makes the two routes a cross-check of the weights.
    Each weight is the area of S³ over ``n`` times the closed-form
    3-Jacobian of direction ↦ link point (see the module docstring).
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
    pts, w, res, n_rej = _map_rows(
        lambda rows: _link_rows(surface, radius, n, rows, axis, region, bound),
        u4, threads,
    )
    return PointCloud(
        pts, w, res, 3, store_region, seed,
        n_draws=n, n_rejected=n_rej, surface_label=surface.label,
    )


def _ball_rows(surface, radius, n_total, draws, region, bound):
    """Ball points over uniform variates ``draws`` (m, 5), one row per (y,z) draw."""
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

    # Solve only rows whose base can reach the ball and the region: a sheet
    # point's norm is at least |(y,z)|, and the wedge kinds read only |y| and
    # |z|.  The slack is far above rounding, so the exact filters below decide.
    ay, az = np.abs(y), np.abs(z)
    row = ay**2 + az**2 <= R**2 * (1 + 1e-12)
    if region is not None and region.kind in ("wedge", "thin-wedge"):
        row &= in_wedge(region.kind, region.eps_w, ay, az)
    y, z, pdf_z = y[row], z[row], pdf_z[row]
    sheets, ok = sf.fiber_sheets(surface, y, z)
    keep = _separated(sheets, ok, 0)
    grad = sf.gradient(surface, sheets.reshape(-1, 3)).reshape(sheets.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = 1.0 + (np.abs(grad[:, :, 1]) ** 2 + np.abs(grad[:, :, 2]) ** 2) / (
            np.abs(grad[:, :, 0]) ** 2
        )
    keep &= np.isfinite(jac)

    residual = np.abs(sf.evaluate(surface, sheets.reshape(-1, 3))).reshape(keep.shape)
    keep &= residual <= bound
    weights = jac / (n_total * pdf_y * pdf_z[:, None])
    keep &= np.isfinite(weights) & (weights > 0)
    n_rejected = int((~keep).sum())

    # Geometric filter: inside the ball, then the caller's region.  These are
    # not failures; the polydisk law deliberately covers more than the ball.
    keep &= np.linalg.norm(sheets, axis=2) <= R
    return (*_emit(sheets, weights, residual, keep, region), n_rejected)


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

    ``n`` counts (y,z) draws over the polydisk of the ball radius and is the
    divisor.  Only draws with |(y,z)| ≤ radius, and with a base in the wedge
    for the wedge kinds, are solved; each contributes up to one point per fiber
    sheet, filtered to the ball and the optional region.  ``n_rejected`` counts
    numerical failures among the sheets of solved draws.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    store_region = region if region is not None else RegionSpec("ball", radius)
    bound = sf._residual_bound(surface, radius)
    # Five uniforms per draw, in the order |y|, arg y, mixture pick, |z|, arg z.
    draws = _shard_draws(n, lambda rng, m: rng.random((5, m)).T, seed, "ball")
    pts, w, res, n_rej = _map_rows(
        lambda rows: _ball_rows(surface, radius, n, rows, region, bound),
        draws, threads,
    )
    return PointCloud(
        pts, w, res, 4, store_region, seed,
        n_draws=n, n_rejected=n_rej, surface_label=surface.label,
    )
