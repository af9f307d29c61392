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

Both samplers run one pipeline, ``_sample``.  It derives the draws from
N_SHARDS = 64 fixed RNG substreams of the seed, concatenated in stream order,
so they never depend on the thread count, and splits them into one contiguous
chunk per thread.  A row function maps a chunk to the fiber sheets over its
draws (``surfaces.fiber_sheets``) with their weights, and the pipeline accepts
a sheet by one rule: it passes ``_separated`` (its fiber solve converged and
its root keeps clear of its siblings), its residual is within
``surfaces._residual_bound`` and its weight is finite and positive.  Rejected
sheets are dropped but kept in the divisor, so they bias the weight sum toward
zero by at most the measure of the dropped set; their count is reported on
the cloud.  The ball sampler solves only the draws whose (y,z) base can reach
the ball and the region, so it counts failures among those.  Accepted sheets
are emitted in (row, sheet) order when they lie inside the sampled set (the
ball sampler's law covers more than the ball) and in the region, a wedge or
thin wedge about the x-axis.  Every per-row kernel on the way (fiber roots,
sphere projection) gives a row the same bits whatever else is in its batch,
so the cloud is bitwise reproducible for a given seed at any thread count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import surfaces as sf
from .util import derive_rng, det3, parallel_map, shard_counts

__all__ = [
    "N_SHARDS",
    "REGION_KINDS",
    "RegionSpec",
    "PointCloud",
    "in_wedge",
    "uniform_ball",
    "sample_link",
    "sample_ball",
]

# Fixed shard count: per-shard RNG streams are derived from (seed, tag, shard)
# so the merged cloud is identical for any number of worker threads.
N_SHARDS = 64

REGION_KINDS = ("wedge", "thin-wedge")

# Relative sheet-separation threshold below which a fiber root is treated as
# too close to the branch locus for stable weights.
SEPARATION_REL = 1e-6


@dataclass(frozen=True)
class RegionSpec:
    """A radius-free cone of C³ that samplers filter their points to.

    ``kind`` is one of REGION_KINDS: the wedge is {ε|y| ≤ |z| ≤ |y|/ε} and
    the thin wedge its complement {|z| ≤ ε|y| or |y| ≤ ε|z|}, with ε = ``eps_w``.
    """

    kind: str
    eps_w: float

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not 0 < self.eps_w <= 1:
            raise ValueError(f"eps_w must lie in (0, 1], got {self.eps_w}")


def in_wedge(kind: str, eps_w: float, ay, az):
    """The (y,z) test of the wedge kinds, from |y| and |z| alone."""
    if kind == "thin-wedge":
        return (az <= eps_w * ay) | (ay <= eps_w * az)
    return (eps_w * ay <= az) & (az * eps_w <= ay)


@dataclass(frozen=True)
class PointCloud:
    """Weighted samples on a surface region.

    ``weights`` are the Monte Carlo masses: the sum of weights over samples in
    any subregion estimates its k-dimensional Hausdorff measure (k=3 for
    ``sample_link``, 4 for ``sample_ball``).
    ``residuals`` record |f| at each point.
    ``n_draws`` is the requested draw count (the estimator divisor) and
    ``n_rejected`` the number of sheets of solved draws dropped for numerical
    reasons (``sample_ball`` solves only draws that can reach its region).
    """

    points: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    n_draws: int = 0
    n_rejected: int = 0

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


def _separated(pts: np.ndarray, ok: np.ndarray, axis: int) -> np.ndarray:
    """(m, deg) mask of the sheets fit to weight: the row converged, and the
    sheet's root lies at least SEPARATION_REL times the row's largest root
    from its siblings."""
    roots = pts[..., axis]
    scale = np.maximum(np.abs(roots).max(axis=1), 1e-300)
    return ok[:, None] & (sf._root_gaps(roots) >= SEPARATION_REL * scale[:, None])


def _sample(surface, radius, n, region, seed, draw, rows, threads, *tags) -> PointCloud:
    """The pipeline of both samplers.

    ``draw(rng, m)`` gives m draws, one per array row, on each of the N_SHARDS
    streams of ``(seed, *tags)``; their concatenation in stream order is split
    into one contiguous chunk per thread.  ``rows(chunk)`` returns the sheets
    over a chunk's draws: their points, (m·deg, 3) or (m, deg, 3); their
    weights and their ``_separated`` mask ``fit``, both (m, deg); and
    ``inside``, the (m, deg) mask of the sampled set, or True.  A sheet is
    accepted when it is fit, its residual is within ``sf._residual_bound`` and
    its weight is finite and positive; every other sheet counts in
    ``n_rejected``.  Accepted sheets that are inside and in ``region`` are
    emitted in (row, sheet) order.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if operator.index(n) < 1:
        raise ValueError(f"n must be positive, got {n}")
    bound = sf._residual_bound(surface, radius)
    draws = np.concatenate(
        [draw(derive_rng(seed, *tags, i), m) for i, m in enumerate(shard_counts(n, N_SHARDS))]
    )

    def accept(chunk):
        points, weights, fit, inside = rows(chunk)
        points = points.reshape(-1, 3)
        residuals = np.abs(sf.evaluate(surface, points)).reshape(fit.shape)
        keep = fit & (residuals <= bound) & np.isfinite(weights) & (weights > 0)
        emit = (keep & inside).reshape(-1)
        pts, w, res = points[emit], weights.reshape(-1)[emit], residuals.reshape(-1)[emit]
        if region is not None:
            mask = in_wedge(region.kind, region.eps_w, np.abs(pts[:, 1]), np.abs(pts[:, 2]))
            pts, w, res = pts[mask], w[mask], res[mask]
        return pts, w, res, int((~keep).sum())

    chunks = np.array_split(draws, max(int(threads), 1))
    pts, w, res, n_rejected = zip(*parallel_map(accept, chunks, threads))
    return PointCloud(
        np.concatenate(pts), np.concatenate(w), np.concatenate(res),
        n_draws=n, n_rejected=sum(n_rejected),
    )


def uniform_ball(rng, n: int, k: int, radius: float | None = None) -> np.ndarray:
    """n uniform draws in R^k as (n, k) rows: on the unit sphere, or in the
    ball of ``radius`` when one is given.

    Normal rows are normalized onto the sphere and then scaled by
    radius * U^(1/k), one ``rng.normal`` call and then one ``rng.random``.
    """
    rows = rng.normal(size=(n, k))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if radius is None:
        return rows
    return rows * (radius * rng.random(n) ** (1.0 / k))[:, None]


def _tangent_triad(u4):
    """Orthonormal triads (m, 3, 4) tangent to S³ at unit rows u = (a, b, c, d):
    the quaternion products u·i, u·j and u·k."""
    a, b, c, d = u4.T
    return np.array([[-b, a, -d, c], [-c, d, a, -b], [-d, -c, b, a]]).transpose(2, 0, 1)


def _link_rows(surface, radius, n_total, u4, axis):
    """Link sheets over unit direction draws ``u4`` (m, 4), one row per draw."""
    # Sheet points p(u), one row per (draw, sheet), and q = D(s)p on rS⁵
    # with D(s) = diag(s^e).
    uc, vc = u4[:, 0] + 1j * u4[:, 1], u4[:, 2] + 1j * u4[:, 3]
    sheets, ok = sf.fiber_sheets(surface, uc, vc, axis)
    fit = _separated(sheets, ok, axis)
    m, degree = fit.shape
    free = [i for i in range(3) if i != axis]
    p = sheets.reshape(-1, 3)
    q, s = sf.sphere_project(surface, p, radius)
    e = np.array(surface.scaling_exponents)
    stretch = s[:, None] ** e
    grad = sf.gradient(surface, p)

    # Tangent triad of the direction 3-sphere at each draw, as (du_a, du_b); the
    # Jacobian is a Gram determinant, so any orthonormal triad gives it.
    tau = _tangent_triad(u4)
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
        jac = np.sqrt(np.clip(det3(gram), 0.0, None)).reshape(m, degree)
    # Every point lies on rS⁵, so the geometric filter keeps all of them.
    return q, (2.0 * math.pi**2 / n_total) * jac, fit, True


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
    if fiber_axis not in ("x", "z"):
        raise ValueError(f'fiber_axis must be "x" or "z", got {fiber_axis!r}')
    axis = "xyz".index(fiber_axis)
    return _sample(
        surface, radius, n, region, seed, lambda rng, m: uniform_ball(rng, m, 4),
        lambda u4: _link_rows(surface, radius, n, u4, axis), threads, "link", axis,
    )


def _ball_rows(surface, radius, n_total, draws, region):
    """Ball sheets over uniform variates ``draws`` (m, 5), one row per solved (y,z) draw."""
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
    # |z|.  The slack is far above rounding, so the exact filters decide.
    ay, az = np.abs(y), np.abs(z)
    row = ay**2 + az**2 <= R**2 * (1 + 1e-12)
    if region is not None:
        row &= in_wedge(region.kind, region.eps_w, ay, az)
    y, z, pdf_z = y[row], z[row], pdf_z[row]
    sheets, ok = sf.fiber_sheets(surface, y, z)
    grad = sf.gradient(surface, sheets.reshape(-1, 3)).reshape(sheets.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = 1.0 + (np.abs(grad[:, :, 1]) ** 2 + np.abs(grad[:, :, 2]) ** 2) / (
            np.abs(grad[:, :, 0]) ** 2
        )
    weights = jac / (n_total * pdf_y * pdf_z[:, None])
    # The polydisk law deliberately covers more than the ball: sheets outside
    # it are filtered, not rejected.
    inside = np.linalg.norm(sheets, axis=2) <= R
    return sheets, weights, _separated(sheets, ok, 0), inside


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
    # Five uniforms per draw, in the order |y|, arg y, mixture pick, |z|, arg z.
    return _sample(
        surface, radius, n, region, seed, lambda rng, m: rng.random((5, m)).T,
        lambda draws: _ball_rows(surface, radius, n, draws, region), threads, "ball",
    )
