"""Distance, measure, and density estimation on weighted point clouds.

The inner metric of a sampled set is estimated by shortest paths on a
symmetric k-nearest-neighbor graph whose edges are ambient Euclidean chords;
graph geodesics overestimate ambient distance and approach the true inner
distance as sampling densifies.  Measures are weight sums with the exact
bootstrap standard error sqrt(n) * std(values), the limit of resampling the
points i.i.d., so no resample count or RNG stream enters.  Densities come
from a ladder of shrinking radii: the measure inside each radius is
normalized by the volume of the comparison ball, and a log-log regression
across the ladder yields the scaling exponent and the density limit.

Carriers abstract "something that can produce weighted samples of a set at a
given radius": a weighted surface (via its ball sampler), a linear subspace
of R⁶, or any object with ``dimension`` and ``sample(radius, n, seed,
threads)``.  Density verdicts:

* ``zero-density`` when the fitted exponent exceeds the comparison dimension
  by more than ``sigmas`` standard errors, or when every rung is exactly
  empty (the sampled carrier never meets the set);
* ``positive-density`` when the exponent matches the dimension within
  ``sigmas`` standard errors and the limit is positive by the same margin;
* ``inconclusive`` otherwise.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from . import sampling as sp
from . import surfaces as sf
from .util import (
    bootstrap_sum_se,
    check_ladder,
    complex3,
    derive_rng,
    derive_seed,
    loglog_fit,
    parallel_map,
    real6,
    unit_ball_volume,
)

__all__ = [
    "NeighborGraph",
    "build_graph",
    "distances_from",
    "measure_estimate",
    "PlaneCarrier",
    "SurfaceBallCarrier",
    "as_carrier",
    "DensityRung",
    "DensityReport",
    "density_rung",
    "density_ladder",
    "fit_density_report",
    "density_comparability",
    "density_report_dict",
]

@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric k-nearest-neighbor graph over points embedded in R⁶."""

    points6: np.ndarray
    matrix: csr_matrix
    k_nn: int
    component_of: np.ndarray
    n_components: int

    @property
    def n_vertices(self) -> int:
        return self.points6.shape[0]


def _points6(cloud_or_points) -> np.ndarray:
    if isinstance(cloud_or_points, sp.PointCloud):
        return real6(cloud_or_points.points)
    arr = np.asarray(cloud_or_points)
    if arr.ndim != 2 or arr.shape[1] not in (3, 6):
        raise ValueError("expected a PointCloud or an (n,3)/(n,6) array")
    if arr.shape[1] == 3:
        return real6(arr.astype(complex))
    return arr.astype(float)


def build_graph(cloud_or_points, k_nn: int, *, connection_factor: float = 0.0) -> NeighborGraph:
    """k-NN graph (symmetrized by union) with Euclidean edge lengths.

    A positive ``connection_factor`` also joins every pair closer than that
    multiple of the median k-NN distance.  Pure k-NN geodesics carry a
    scale-free detour that grows with dimension (about 18% mean overshoot at
    k=12 in four dimensions); the extra radius edges cut it to a few percent
    while the k-NN edges keep sparse regions connected.
    """
    pts6 = _points6(cloud_or_points)
    n = pts6.shape[0]
    if n == 0:
        raise ValueError("cannot build a graph on an empty cloud")
    if k_nn < 1:
        raise ValueError("k_nn must be at least 1")
    tree = cKDTree(pts6)
    k_query = min(k_nn + 1, n)
    dist, idx = tree.query(pts6, k=k_query, workers=1)
    if k_query == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    rows = np.repeat(np.arange(n), k_query - 1)
    cols = idx[:, 1:].reshape(-1)
    vals = dist[:, 1:].reshape(-1)
    mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
    if connection_factor > 0.0 and n > 1:
        reach = connection_factor * float(np.median(dist[:, -1]))
        pairs = tree.query_pairs(reach, output_type="ndarray")
        if len(pairs):
            lengths = np.linalg.norm(pts6[pairs[:, 0]] - pts6[pairs[:, 1]], axis=1)
            extra = csr_matrix(
                (lengths, (pairs[:, 0], pairs[:, 1])), shape=(n, n)
            )
            mat = mat.maximum(extra)
    mat = mat.maximum(mat.T)
    n_comp, labels = connected_components(mat, directed=False)
    return NeighborGraph(pts6, mat, k_nn, labels, n_comp)


def distances_from(g: NeighborGraph, a: int) -> np.ndarray:
    """Shortest-path lengths from one vertex to every vertex (inf allowed)."""
    return dijkstra(g.matrix, directed=False, indices=a)


def measure_estimate(cloud: sp.PointCloud, predicate=None):
    """(weight sum over points passing the predicate, exact bootstrap SE).

    ``predicate`` is a vectorized points -> mask callable, a RegionSpec, or
    None for the whole cloud.  The error is that of resampling points
    (:func:`bootstrap_sum_se`), so weight sums over disjoint predicates add
    exactly while their errors do not.
    """
    vals = cloud.weights * _predicate_mask(cloud.points, predicate)
    return float(vals.sum()), bootstrap_sum_se(vals)


def _predicate_mask(points, predicate):
    n = points.shape[0]
    if predicate is None:
        return np.ones(n, dtype=bool)
    if isinstance(predicate, sp.RegionSpec):
        return sp.in_region(points, predicate) if n else np.ones(0, dtype=bool)
    mask = np.asarray(predicate(points), dtype=bool)
    if mask.shape != (n,):
        raise ValueError("predicate must return one boolean per point")
    return mask


# ---------------------------------------------------------------------------
# Carriers: weighted-sample factories for sets at a given radius.


@dataclass(frozen=True)
class PlaneCarrier:
    """A k-dimensional linear subspace of R⁶ through the origin.

    Samples are uniform on the radius ball of the subspace with exact equal
    weights, so measure estimates have no Jacobian error at all.
    """

    basis: np.ndarray  # (k, 6), orthonormalized on construction
    label: str = "plane"

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.shape[1] != 6:
            raise ValueError("basis rows must live in R^6")
        q, r = np.linalg.qr(basis.T)
        if np.abs(np.diag(r)).min() < 1e-12:
            raise ValueError("basis rows are linearly dependent")
        object.__setattr__(self, "basis", np.ascontiguousarray(q.T * np.sign(np.diag(r))[:, None]))

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def sample(self, radius: float, n: int, seed: int = 0, threads: int = 1) -> sp.PointCloud:
        k = self.dimension
        rng = derive_rng(seed, "plane", k)
        dirs = rng.normal(size=(n, k))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * rng.random(n) ** (1.0 / k)
        coords = (dirs * radii[:, None]) @ self.basis
        weight = unit_ball_volume(k) * radius**k / n
        cloud = sp.PointCloud(
            complex3(coords), np.full(n, weight), np.zeros(n), k,
            sp.RegionSpec("ball", radius), seed,
            n_draws=n, surface_label=self.label,
        )
        return cloud


@dataclass(frozen=True)
class SurfaceBallCarrier:
    """Ball samples of a weighted-homogeneous surface (dimension 4)."""

    surface: sf.WeightedSurface
    region: sp.RegionSpec | None = None

    @property
    def dimension(self) -> int:
        return 4

    @property
    def label(self) -> str:
        return self.surface.label

    def sample(self, radius: float, n: int, seed: int = 0, threads: int = 1) -> sp.PointCloud:
        return sp.sample_ball(
            self.surface, radius, n, self.region, seed, threads=threads
        )


def as_carrier(obj):
    if isinstance(obj, sf.WeightedSurface):
        return SurfaceBallCarrier(obj)
    if hasattr(obj, "dimension") and hasattr(obj, "sample"):
        return obj
    raise TypeError(f"cannot interpret {obj!r} as a sample carrier")


# ---------------------------------------------------------------------------
# Density ladders.


@dataclass(frozen=True)
class DensityRung:
    eps: float
    measure: float
    se: float
    theta: float
    theta_se: float
    n_points: int
    flagged: bool


@dataclass(frozen=True)
class DensityReport:
    """Normalized measures across a radius ladder with a fitted exponent.

    ``theta`` per rung is measure / (eta * eps^k) with eta the k-dimensional
    unit-ball volume; ``alpha`` the log-log slope of measure against eps and
    ``theta_star`` the regression value of theta in the small-radius limit.
    """

    dimension: int
    metric: str
    rungs: tuple[DensityRung, ...]
    alpha: float
    alpha_se: float
    theta_star: float
    theta_star_se: float
    verdict: str
    n_fit: int
    seed: int
    label: str = ""

    def __post_init__(self):
        check_ladder([r.eps for r in self.rungs])
        if self.verdict not in ("positive-density", "zero-density", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def inner_distances_from_origin(
    cloud: sp.PointCloud, k_nn: int = 12, connection_factor: float = 2.0
) -> np.ndarray:
    """Graph-geodesic distance from the origin to each cloud point.

    The origin joins the cloud as an extra vertex, so paths may pass through
    it; points disconnected from the origin report inf.  The default
    connection factor keeps the geodesic overestimate to a few percent.
    """
    if cloud.n_points == 0:
        return np.zeros(0)
    pts6 = np.vstack([np.zeros(6), real6(cloud.points)])
    g = build_graph(pts6, k_nn, connection_factor=connection_factor)
    return distances_from(g, 0)[1:]


def density_rung(eps: float, values, n_points: int, k: int, min_points: int) -> DensityRung:
    """The rung at radius ``eps`` from per-point measure contributions.

    The measure is ``values.sum()`` with its bootstrap standard error, and
    theta = measure / (eta_k eps^k).  The rung is flagged (left out of the
    fit) when fewer than ``min_points`` points support it or it is empty.
    """
    measure = float(values.sum())
    se = bootstrap_sum_se(values)
    eta_eps = unit_ball_volume(k) * eps**k
    flagged = n_points < min_points or measure <= 0.0
    return DensityRung(
        eps, measure, se, measure / eta_eps, se / eta_eps, n_points, flagged
    )


def density_ladder(
    carrier,
    predicate,
    k: int,
    ladder,
    n_per_rung: int,
    seed: int = 0,
    metric: str = "outer",
    *,
    k_nn: int = 12,
    threads: int = 1,
    min_rung_points: int = 50,
    sigmas: float = 3.0,
    label: str = "",
) -> DensityReport:
    """Estimate the k-density of a carrier-sampled set along a radius ladder.

    ``predicate`` restricts the carrier's samples to the set of interest
    (None keeps everything).  ``metric`` chooses the comparison ball: "outer"
    uses the ambient radius, "inner" keeps only points within graph-geodesic
    distance eps of the origin.  Rungs with fewer than ``min_rung_points``
    surviving samples (or zero measure) are flagged and left out of the fit.
    """
    carrier = as_carrier(carrier)
    ladder = check_ladder(ladder)
    if metric not in ("outer", "inner"):
        raise ValueError(f"metric must be 'outer' or 'inner', got {metric!r}")
    if n_per_rung <= 0:
        raise ValueError("n_per_rung must be positive")

    def run(i):
        eps = ladder[i]
        cloud = carrier.sample(eps, n_per_rung, derive_seed(seed, "rung", i), threads=1)
        mask = _predicate_mask(cloud.points, predicate)
        if metric == "inner":
            mask = mask & (inner_distances_from_origin(cloud, k_nn) <= eps)
        return density_rung(eps, cloud.weights * mask, int(mask.sum()), k, min_rung_points)

    rungs = tuple(parallel_map(run, range(len(ladder)), threads))
    return fit_density_report(
        rungs, k, metric, seed,
        label=label or getattr(carrier, "label", ""), sigmas=sigmas,
    )


def fit_density_report(
    rungs, k: int, metric: str, seed: int, *, label: str = "", sigmas: float = 3.0
) -> DensityReport:
    """Fit exponent and density limit over pre-computed rungs and judge them."""
    rungs = tuple(rungs)
    if not rungs:
        raise ValueError("cannot fit a density report without rungs")
    fit_rungs = [r for r in rungs if not r.flagged]

    if len(fit_rungs) >= 2:
        alpha, intercept, alpha_se, intercept_se = loglog_fit(
            [r.eps for r in fit_rungs], [r.measure for r in fit_rungs]
        )
        # Residual-based errors understate uncertainty when few rungs sit
        # nearly on a line; propagate the per-rung bootstrap errors through
        # the regression and keep whichever is larger.
        x = np.log([r.eps for r in fit_rungs])
        sig = np.array([r.se / r.measure for r in fit_rungs])
        sxx = float(((x - x.mean()) ** 2).sum())
        if sxx > 0:
            c_slope = (x - x.mean()) / sxx
            c_inter = 1.0 / len(x) - x.mean() * c_slope
            alpha_se = max(alpha_se, math.sqrt(float((c_slope**2 * sig**2).sum())))
            intercept_se = max(
                intercept_se, math.sqrt(float((c_inter**2 * sig**2).sum()))
            )
        eta = unit_ball_volume(k)
        theta_star = math.exp(intercept) / eta
        theta_star_se = theta_star * intercept_se
        if alpha > k + sigmas * alpha_se:
            verdict = "zero-density"
        elif abs(alpha - k) <= sigmas * alpha_se + 1e-9 and theta_star > sigmas * theta_star_se:
            verdict = "positive-density"
        else:
            verdict = "inconclusive"
    else:
        alpha = alpha_se = theta_star = theta_star_se = math.nan
        if all(r.measure == 0.0 for r in rungs):
            # The carrier never met the set at any radius: the sampled
            # measure vanishes identically.
            verdict = "zero-density"
        else:
            verdict = "inconclusive"

    return DensityReport(
        k, metric, rungs, alpha, alpha_se, theta_star, theta_star_se,
        verdict, len(fit_rungs), seed, label,
    )


def density_comparability(
    carrier,
    predicate,
    k: int,
    ladder,
    seed: int = 0,
    n_per_rung: int = 4000,
    metrics: tuple[str, str] = ("outer", "inner"),
    *,
    k_nn: int = 12,
    threads: int = 1,
) -> tuple[float, float]:
    """Empirical (min, max) over the ladder of theta ratios between metrics.

    Both ladders reuse the same per-rung seeds, so comparing a metric with
    itself gives exactly (1, 1).  Rungs flagged in either report are skipped;
    if none survive, a ValueError is raised.
    """
    reports = [
        density_ladder(
            carrier, predicate, k, ladder, n_per_rung, seed, metric,
            k_nn=k_nn, threads=threads,
        )
        for metric in metrics
    ]
    ratios = [
        a.theta / b.theta
        for a, b in zip(reports[0].rungs, reports[1].rungs)
        if not (a.flagged or b.flagged)
    ]
    if not ratios:
        raise ValueError("no unflagged rungs shared by both metrics")
    return min(ratios), max(ratios)


def density_report_dict(report: DensityReport) -> dict:
    """JSON-ready dictionary form (schema density-report/v1)."""
    return {"schema": "density-report/v1", **dataclasses.asdict(report)}
