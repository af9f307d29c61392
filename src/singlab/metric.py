"""Distance, measure, and density estimation on weighted point clouds.

The inner metric of a sampled set is estimated by shortest paths on a
symmetric graph of k-nearest-neighbor plus radius edges whose lengths are
ambient Euclidean chords; graph geodesics overestimate ambient distance and
approach the true inner distance as sampling densifies.  The graph's matrix
is exactly symmetric with no stored zeros, so Dijkstra runs directed and
relaxes each edge once; its rows are not index-sorted, which no shortest
path depends on.
Every weighted measure (density rungs, the cone report, thin-wedge cells) is
a :func:`density_rung`: a weight sum with the exact bootstrap standard error
sqrt(n) * std(values), the limit of resampling the points i.i.d., so no
resample count or RNG stream enters.  Densities come from a ladder of
shrinking radii: the measure inside each radius is normalized by the volume
of the comparison ball, and a log-log regression across the ladder yields
the scaling exponent and the density limit.  SciPy's sparse-graph and KD-tree
modules load on the first graph call, so only ``conicality`` and
:func:`density_comparability` pay for them.

A carrier is any object with a ``label`` and ``sample(radius, n, seed)``
returning a weighted :class:`~singlab.sampling.PointCloud` of a set at that
radius, such as a linear subspace of R⁶ (:class:`PlaneCarrier`).
Density verdicts, with ``SIGMAS`` = 3 standard errors fixed here:

* ``zero-density`` when the fitted exponent exceeds the comparison dimension
  by more than ``SIGMAS`` standard errors plus 1e-9, or when every rung is
  exactly empty (the sampled carrier never meets the set);
* ``positive-density`` when the exponent matches the dimension within
  ``SIGMAS`` standard errors and 1e-9 either way, and the limit is positive
  by ``SIGMAS`` standard errors;
* ``inconclusive`` otherwise; the report keeps each verdict's checks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import sampling as sp
from .util import (
    Check,
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

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "SIGMAS",
    "NeighborGraph",
    "build_graph",
    "distances_from",
    "inner_distances_from_origin",
    "PlaneCarrier",
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
    """k-NN plus radius graph over points embedded in R⁶.

    ``matrix`` holds each edge's chord length in both directions: exactly
    symmetric, no stored zeros, rows not index-sorted.
    """

    points6: np.ndarray
    matrix: csr_matrix

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


# Radius pairs whose edge lengths are taken at once: bounds the per-column
# temporaries at about 0.5 MB each however many pairs the radius joins.  Each
# length is computed on its own, so slicing changes no bit.
_PAIR_CHUNK = 1 << 16


def build_graph(cloud_or_points, k_nn: int, *, connection_factor: float = 0.0) -> NeighborGraph:
    """k-NN plus radius graph (symmetrized by union) with Euclidean edge lengths.

    The matrix is exactly symmetric with no stored zeros (the zero chords of
    doubled points drop out); its rows are not index-sorted.

    A positive ``connection_factor`` also joins every pair closer than that
    multiple of the median k-NN distance.  Pure k-NN geodesics carry a
    scale-free detour that grows with dimension (about 18% mean overshoot at
    k=12 in four dimensions); the extra radius edges cut it to a few percent
    while the k-NN edges keep sparse regions connected.
    """
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree

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
    # Each row holds its k_query - 1 neighbors, so the rows are already grouped.
    knn = csr_matrix(
        (dist[:, 1:].reshape(-1), idx[:, 1:].reshape(-1), np.arange(n + 1) * (k_query - 1)),
        shape=(n, n),
    )
    # maximum() drops the zero entries of doubled points and, with unsorted
    # inputs, merges rows without sorting them.
    mat = knn.maximum(knn.T)
    if connection_factor > 0.0 and n > 1:
        reach = connection_factor * float(np.median(dist[:, -1]))
        pairs = tree.query_pairs(reach, output_type="ndarray")
        if len(pairs):
            mat = mat.maximum(_radius_block(pts6, pairs))
    return NeighborGraph(pts6, mat)


def _radius_block(pts6: np.ndarray, pairs: np.ndarray) -> csr_matrix:
    """Symmetric CSR matrix of the pair lengths, from distinct i < j pairs.

    Each pair is stored as (i, j) and (j, i), so no entry repeats and no
    duplicates are summed.  The rows are grouped as a counting sort groups
    them: ``indptr`` from the row counts, the entry order from an argsort of
    the row ids, which NumPy radix-sorts when it is stable and the ids have
    the smallest integer type.
    """
    from scipy.sparse import csr_matrix

    n = pts6.shape[0]
    ends = pairs.T.astype(np.min_scalar_type(n - 1))
    rows = ends.reshape(-1)  # rows of the (i, j) entries, then of the (j, i)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # Entry e >= len(pairs) is the reverse of pair e - len(pairs).
    data = np.take(_pair_lengths(pts6, pairs), order, mode="wrap")
    return csr_matrix((data, ends[::-1].reshape(-1)[order], indptr), shape=(n, n))


def _pair_lengths(pts6: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Chord lengths of index pairs, bitwise equal to ``np.linalg.norm(d, axis=1)``.

    The squares are summed in coordinate order, the order NumPy's row-wise
    norm sums them in, but from one contiguous coordinate array at a time.
    """
    lengths = np.zeros(len(pairs))
    coords = pts6.T.copy()
    for lo in range(0, len(pairs), _PAIR_CHUNK):
        i, j = pairs[lo:lo + _PAIR_CHUNK].T
        acc = lengths[lo:lo + len(i)]
        for x in coords:
            d = x[i] - x[j]
            d *= d
            acc += d
    return np.sqrt(lengths, out=lengths)


def distances_from(g: NeighborGraph, a: int | np.ndarray) -> np.ndarray:
    """Shortest-path lengths from vertex ``a`` to every vertex (inf allowed).

    An array of sources gives one row per source, bitwise equal to the
    single-source rows.  The matrix is symmetric (:func:`build_graph`), so
    the directed search gives the undirected distances.
    """
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(g.matrix, directed=True, indices=a)


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

    def sample(self, radius: float, n: int, seed: int = 0) -> sp.PointCloud:
        k = self.dimension
        rng = derive_rng(seed, "plane", k)
        coords = sp.uniform_ball(rng, n, k, radius) @ self.basis
        weight = unit_ball_volume(k) * radius**k / n
        return sp.PointCloud(complex3(coords), np.full(n, weight), np.zeros(n), n_draws=n)


# ---------------------------------------------------------------------------
# Density ladders.

# Fewest kept points a rung needs to enter a fit.
_MIN_RUNG_POINTS = 50
# Standard errors every density check allows (see the module docstring).
SIGMAS = 3.0


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
    ``checks`` maps each verdict to its records; the first that all hold wins.
    """

    dimension: int
    metric: str  # "outer": every rung measures the ambient ball
    rungs: tuple[DensityRung, ...]
    alpha: float
    alpha_se: float
    theta_star: float
    theta_star_se: float
    verdict: str
    n_fit: int
    seed: int
    label: str = ""
    checks: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        check_ladder([r.eps for r in self.rungs])
        if self.verdict not in ("positive-density", "zero-density", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def inner_distances_from_origin(cloud: sp.PointCloud) -> np.ndarray:
    """Graph-geodesic distance from the origin to each cloud point.

    The origin joins the cloud as an extra vertex, so paths may pass through
    it; points disconnected from the origin report inf.  Twelve neighbors and
    radius edges at twice the median neighbor distance keep the geodesic
    overestimate to a few percent.
    """
    if cloud.n_points == 0:
        return np.zeros(0)
    pts6 = np.vstack([np.zeros(6), real6(cloud.points)])
    g = build_graph(pts6, 12, connection_factor=2.0)
    return distances_from(g, 0)[1:]


def density_rung(eps: float, values, n_points: int, k: int, min_points: int) -> DensityRung:
    """The rung at radius ``eps`` from per-point measure contributions.

    The one measure rule: the measure is ``values.sum()`` with its bootstrap
    standard error, and theta = measure / (eta_k eps^k).  The rung is flagged
    (left out of every fit) when fewer than ``min_points`` points support it
    or its measure is not positive.
    """
    measure = float(values.sum())
    se = bootstrap_sum_se(values)
    eta_eps = unit_ball_volume(k) * eps**k
    flagged = n_points < min_points or measure <= 0.0
    return DensityRung(
        eps, measure, se, measure / eta_eps, se / eta_eps, n_points, flagged
    )


def _draw_rung(carrier, predicate, eps: float, n: int, seed: int, i: int):
    """Rung ``i``'s draw at radius ``eps`` and the mask the predicate keeps."""
    cloud = carrier.sample(eps, n, derive_seed(seed, "rung", i))
    if predicate is None:
        return cloud, np.ones(cloud.n_points, dtype=bool)
    mask = np.asarray(predicate(cloud.points), dtype=bool)
    if mask.shape != (cloud.n_points,):
        raise ValueError("predicate must return one boolean per point")
    return cloud, mask


def density_ladder(
    carrier,
    predicate,
    k: int,
    ladder,
    n_per_rung: int,
    seed: int = 0,
    *,
    threads: int = 1,
    min_rung_points: int = _MIN_RUNG_POINTS,
    label: str = "",
) -> DensityReport:
    """Estimate the k-density of a carrier-sampled set along a radius ladder.

    ``predicate`` restricts the carrier's samples to the set of interest
    (None keeps everything); each rung measures the kept weight inside the
    ambient radius.  Rungs with fewer than ``min_rung_points`` surviving
    samples (or zero measure) are flagged and left out of the fit.
    """
    ladder = check_ladder(ladder)
    if n_per_rung <= 0:
        raise ValueError("n_per_rung must be positive")

    def run(i):
        cloud, mask = _draw_rung(carrier, predicate, ladder[i], n_per_rung, seed, i)
        return density_rung(ladder[i], cloud.weights * mask, int(mask.sum()), k, min_rung_points)

    rungs = tuple(parallel_map(run, range(len(ladder)), threads))
    return fit_density_report(rungs, k, seed, label=label or carrier.label)


def fit_density_report(rungs, k: int, seed: int, *, label: str = "") -> DensityReport:
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
        # Both bounds on alpha allow 1e-9 of rounding; "not above" is the
        # exact complement of "above".
        top = k + SIGMAS * alpha_se + 1e-9
        zero = (Check.at_least("alpha above k", alpha, top, strict=True),)
        positive = (
            Check.at_most("alpha not above k", alpha, top),
            Check.at_least("alpha not below k", alpha, k - SIGMAS * alpha_se - 1e-9),
            Check.at_least("theta* positive", theta_star, SIGMAS * theta_star_se, strict=True),
        )
    else:
        alpha = alpha_se = theta_star = theta_star_se = math.nan
        # Without a fit, zero density means the carrier never met the set.
        zero = (Check.at_most("nonempty rungs", sum(r.measure != 0.0 for r in rungs), 0),)
        positive = (Check.at_least("fitted rungs", len(fit_rungs), 2),)
    checks = {"zero-density": zero, "positive-density": positive}
    held = [v for v, group in checks.items() if all(c.holds for c in group)]
    verdict = held[0] if held else "inconclusive"
    return DensityReport(
        k, "outer", rungs, alpha, alpha_se, theta_star, theta_star_se,
        verdict, len(fit_rungs), seed, label, checks,
    )


def density_comparability(
    carrier,
    predicate,
    k: int,
    ladder,
    seed: int = 0,
    n_per_rung: int = 4000,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Empirical (min, max) over the ladder of outer/inner theta ratios.

    Each rung is drawn once, from the seed :func:`density_ladder` draws it
    from, and measured twice: in the ambient ball, and over the points within
    graph-geodesic distance eps of the origin.  Rungs where either measure is
    flagged are skipped; if none survive, a ValueError is raised.
    """
    ladder = check_ladder(ladder)
    if n_per_rung <= 0:
        raise ValueError("n_per_rung must be positive")

    def run(i):
        eps = ladder[i]
        cloud, mask = _draw_rung(carrier, predicate, eps, n_per_rung, seed, i)
        outer, inner = (
            density_rung(eps, cloud.weights * m, int(m.sum()), k, _MIN_RUNG_POINTS)
            for m in (mask, mask & (inner_distances_from_origin(cloud) <= eps))
        )
        return None if outer.flagged or inner.flagged else outer.theta / inner.theta

    ratios = [r for r in parallel_map(run, range(len(ladder)), threads) if r is not None]
    if not ratios:
        raise ValueError("no unflagged rungs shared by both metrics")
    return min(ratios), max(ratios)


def density_report_dict(report: DensityReport) -> dict:
    """JSON-ready dictionary form (schema density-report/v1)."""
    return {"schema": "density-report/v1", **dataclasses.asdict(report)}
