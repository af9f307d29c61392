"""Tests for neighbor graphs, density rungs, and density ladders.

Anchor values are exact by construction: a k-plane carrier keeps every draw
at equal weight, so its ball measure is eta_k * eps^k to rounding error and
half/quarter restrictions scale it by 1/2 and 1/4 in expectation.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

import singlab
from singlab import metric as mt
from singlab import sampling as sp
from singlab import surfaces as sf
from singlab.util import derive_seed, real6, records_csv, unit_ball_volume

PLANE_SURFACE = sf.WeightedSurface((2, 2, 1), 2, (((1, 0, 0), 1.0),), "plane-x0")

E6 = np.eye(6)
BASIS_3 = E6[[0, 2, 4]]        # (Re x, Re y, Re z)
BASIS_2 = E6[[0, 2]]
BASIS_5 = E6[:5]
BASIS_YZ = E6[2:6]             # the x = 0 coordinate 4-plane


@dataclass(frozen=True)
class SurfaceBall:
    """Carrier of a surface's ball samples, in ``region`` when one is given."""

    surface: sf.WeightedSurface
    region: sp.RegionSpec | None = None

    @property
    def label(self):
        return self.surface.label

    def sample(self, radius, n, seed=0):
        return sp.sample_ball(self.surface, radius, n, self.region, seed)


BS0_WEDGE = SurfaceBall(sf.briancon_speder(0.0), sp.RegionSpec("wedge", 0.1))


class CountingCarrier:
    """Records the radius of every ``sample`` call made to the wrapped carrier."""

    def __init__(self, carrier):
        self.carrier = carrier
        self.label = carrier.label
        self.radii = []

    def sample(self, radius, n, seed=0):
        self.radii.append(radius)
        return self.carrier.sample(radius, n, seed)


def previous_comparability(carrier, predicate, k, ladder, seed, n_per_rung):
    """The computation ``density_comparability`` replaced: an outer and an
    inner ladder, each drawing every rung from ``derive_seed(seed, "rung", i)``;
    the inner one keeps the points within graph distance eps of the origin on
    a 12-neighbor graph with radius edges at twice the median neighbor
    distance."""
    ladders = []
    for inner in (False, True):
        rungs = []
        for i, eps in enumerate(ladder):
            cloud = carrier.sample(eps, n_per_rung, derive_seed(seed, "rung", i))
            mask = np.ones(cloud.n_points, dtype=bool)
            if predicate is not None:
                mask = np.asarray(predicate(cloud.points), dtype=bool)
            if inner and cloud.n_points:
                pts6 = np.vstack([np.zeros(6), real6(cloud.points)])
                graph = mt.build_graph(pts6, 12, connection_factor=2.0)
                mask = mask & (mt.distances_from(graph, 0)[1:] <= eps)
            rungs.append(mt.density_rung(eps, cloud.weights * mask, int(mask.sum()), k, 50))
        ladders.append(rungs)
    ratios = [
        a.theta / b.theta for a, b in zip(*ladders) if not (a.flagged or b.flagged)
    ]
    return min(ratios), max(ratios)


def circle_points(n):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.zeros((n, 3), dtype=complex)
    pts[:, 0] = np.exp(1j * theta)
    return pts


def n_components(g):
    return connected_components(g.matrix, directed=False)[0]


class TestNeighborGraph:
    def test_two_points_single_edge(self):
        pts = np.array([[0, 0, 0], [3.0 + 4.0j, 0, 0]], dtype=complex)
        g = mt.build_graph(pts, k_nn=1)
        assert g.matrix.nnz == 2  # one edge, stored in both directions
        assert g.matrix[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert n_components(g) == 1

    def test_edges_symmetric_and_euclidean(self):
        rng = np.random.default_rng(7)
        pts6 = rng.normal(size=(200, 6))
        g = mt.build_graph(pts6, k_nn=5)
        asym = (g.matrix - g.matrix.T)
        assert abs(asym).max() == 0.0
        coo = g.matrix.tocoo()
        for i, j, length in zip(coo.row, coo.col, coo.data):
            want = np.linalg.norm(pts6[int(i)] - pts6[int(j)])
            assert length == pytest.approx(want, rel=1e-12)

    def test_circle_is_connected(self):
        g = mt.build_graph(circle_points(1000), k_nn=8)
        assert n_components(g) == 1

    def test_two_clusters_split(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=0.01, size=(30, 6))
        b = rng.normal(scale=0.01, size=(30, 6)) + 10.0
        g = mt.build_graph(np.vstack([a, b]), k_nn=3)
        assert n_components(g) == 2
        assert mt.distances_from(g, 0)[45] == math.inf

    def test_directed_search_matches_undirected_with_radius_edges(self):
        """Doubled points (zero chords) and a far cluster, with radius edges:
        the matrix is exactly symmetric with no stored zero, so the directed
        rows equal the undirected search bit for bit, inf entries included."""
        rng = np.random.default_rng(5)
        ball = rng.normal(size=(400, 6))
        far = rng.normal(scale=0.01, size=(40, 6)) + 10.0
        g = mt.build_graph(np.vstack([ball, ball[:20], far]), k_nn=12,
                           connection_factor=2.0)
        assert (g.matrix != g.matrix.T).nnz == 0
        assert (g.matrix.data != 0).all()
        sources = np.array([0, 7, 405, 419, 430, 459])
        got = mt.distances_from(g, sources)
        want = dijkstra(g.matrix, directed=False, indices=sources)
        assert np.isinf(got).any()
        assert got.tobytes() == want.tobytes()

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((0, 6)), k_nn=3)
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((4, 6)), k_nn=0)
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((4, 5)), k_nn=2)

    def test_chunked_pair_lengths_are_bitwise(self, monkeypatch):
        """Radius-pair lengths taken in odd-sized slices give the matrix of
        one norm over all pairs, bit for bit."""
        monkeypatch.setattr(mt, "_PAIR_CHUNK", 997)
        pts6 = np.random.default_rng(11).normal(size=(1500, 6))
        k_nn, factor = 12, 2.0
        g = mt.build_graph(pts6, k_nn, connection_factor=factor)
        tree = cKDTree(pts6)
        reach = factor * float(np.median(tree.query(pts6, k=k_nn + 1, workers=1)[0][:, -1]))
        assert len(tree.query_pairs(reach, output_type="ndarray")) > 5 * 997
        assert_same_entries(g.matrix, reference_graph(pts6, k_nn, factor))

    @pytest.mark.parametrize(
        "cloud, k_nn, factor",
        [
            ("doubled", 12, 2.0),
            ("far-cluster", 12, 2.0),
            ("far-cluster", 3, 0.0),
            ("outliers", 12, 2.0),
            ("doubled", 12, 0.0),
            ("single", 3, 2.0),
            ("few", 12, 2.0),
            ("few", 9, 2.0),
        ],
    )
    def test_matches_reference_assembly(self, cloud, k_nn, factor):
        """The unsorted assembly stores the reference's entries, and every
        Dijkstra row is bitwise the reference's, inf entries included."""
        rng = np.random.default_rng(17)
        ball = rng.normal(size=(300, 6))
        pts6 = {
            "doubled": np.vstack([ball, ball[:20]]),  # zero chords must drop out
            "far-cluster": np.vstack([ball, rng.normal(scale=0.01, size=(40, 6)) + 10.0]),
            # k-NN edges of the outliers are far longer than the reach
            "outliers": np.vstack([0.05 * ball, rng.normal(scale=3.0, size=(10, 6))]),
            "single": ball[:1],
            "few": ball[:10],  # k_nn >= n - 1: every row links every other vertex
        }[cloud]
        g = mt.build_graph(pts6, k_nn, connection_factor=factor)
        want = reference_graph(pts6, k_nn, factor)
        assert_same_entries(g.matrix, want)
        sources = np.arange(len(pts6))
        rows = mt.distances_from(g, sources)
        assert rows.tobytes() == dijkstra(want, directed=True, indices=sources).tobytes()
        if cloud == "far-cluster":
            assert np.isinf(rows).any()
        if cloud == "outliers":
            dist = cKDTree(pts6).query(pts6, k=k_nn + 1, workers=1)[0]
            assert dist[-10:, 1].min() > factor * float(np.median(dist[:, -1]))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_pair_lengths_match_rowwise_norm(self, scale):
        rng = np.random.default_rng(23)
        pts6 = rng.normal(scale=scale, size=(500, 6)) * rng.uniform(0.1, 10.0, size=6)
        pairs = rng.integers(0, 500, size=(20000, 2))
        want = np.linalg.norm(pts6[pairs[:, 0]] - pts6[pairs[:, 1]], axis=1)
        assert mt._pair_lengths(pts6, pairs).tobytes() == want.tobytes()


def reference_graph(pts6, k_nn, factor):
    """The four-step assembly :func:`metric.build_graph` replaced: a sorted
    k-NN matrix, its maximum with the one-way radius block, then with its own
    transpose; lengths from one row-wise norm over all pairs."""
    n = len(pts6)
    tree = cKDTree(pts6)
    k_query = min(k_nn + 1, n)
    dist, idx = (a.reshape(n, k_query) for a in tree.query(pts6, k=k_query, workers=1))
    rows = np.repeat(np.arange(n), k_query - 1)
    mat = csr_matrix((dist[:, 1:].reshape(-1), (rows, idx[:, 1:].reshape(-1))), shape=(n, n))
    if factor > 0.0 and n > 1:
        pairs = tree.query_pairs(factor * float(np.median(dist[:, -1])), output_type="ndarray")
        if len(pairs):
            lengths = np.linalg.norm(pts6[pairs[:, 0]] - pts6[pairs[:, 1]], axis=1)
            mat = mat.maximum(csr_matrix((lengths, (pairs[:, 0], pairs[:, 1])), shape=(n, n)))
    return mat.maximum(mat.T)


def assert_same_entries(got, want):
    """Same stored (i, j, w) entries, bit for bit, whatever the row order."""
    got, want = got.sorted_indices(), want.sorted_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_scipy_graph_stack_loads_on_first_graph():
    """Runs that build no graph never import SciPy's sparse-graph and KD-tree
    modules; the first graph calls do.  A fresh interpreter, because this
    test module imports them itself."""
    configs = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
    runs = [
        ("slice-components", str(configs / "slice-t0.ini")),
        ("mu-constancy", str(configs / "continuation-mu.ini")),
    ]
    script = f"""
import argparse, json, sys
import numpy as np
from singlab import cli, metric
for experiment, config in {runs!r}:
    args = argparse.Namespace(config=config, seed=0, threads=1, out=None)
    cli.run_experiment(cli.build_config(experiment, args))
graph = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.spatial")
loaded = [[m in sys.modules for m in graph]]
g = metric.build_graph(np.eye(6), k_nn=2)
loaded.append([m in sys.modules for m in graph])
metric.distances_from(g, 0)
loaded.append([m in sys.modules for m in graph])
print(json.dumps(loaded))
"""
    src = str(Path(singlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # (sparse, csgraph, spatial) before any graph, after build_graph, after distances_from
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [False, False, False], [True, False, True], [True, True, True]
    ]


class TestInnerDistance:
    def test_same_vertex_is_zero(self):
        g = mt.build_graph(circle_points(64), k_nn=4)
        assert mt.distances_from(g, 17)[17] == 0.0

    def test_triangle_inequality_and_euclidean_lower_bound(self):
        pts = circle_points(300)
        g = mt.build_graph(pts, k_nn=6)
        dist = dijkstra(g.matrix, directed=False)
        euclid = np.linalg.norm(
            real6(pts)[:, None, :] - real6(pts)[None, :, :], axis=2
        )
        assert (dist >= euclid - 1e-12).all()
        rng = np.random.default_rng(11)
        abc = rng.integers(0, 300, size=(1000, 3))
        lhs = dist[abc[:, 0], abc[:, 2]]
        rhs = dist[abc[:, 0], abc[:, 1]] + dist[abc[:, 1], abc[:, 2]]
        assert (lhs <= rhs + 1e-12).all()

    def test_circle_antipodal_distance_near_pi(self):
        g = mt.build_graph(circle_points(1000), k_nn=8)
        d = mt.distances_from(g, 0)[500]
        assert d == pytest.approx(math.pi, abs=1e-3)
        assert d <= math.pi + 1e-12

    def test_plane_geodesics_track_euclidean(self):
        cloud = mt.PlaneCarrier(BASIS_2).sample(1.0, 10_000, seed=5)
        pts6 = real6(cloud.points)
        g = mt.build_graph(cloud, k_nn=12)
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 10_000, size=(200, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        sources = np.unique(pairs[:, 0])
        rows = dijkstra(g.matrix, directed=False, indices=sources)
        row_of = {int(s): i for i, s in enumerate(sources)}
        ratios = []
        for a, b in pairs:
            euclid = np.linalg.norm(pts6[a] - pts6[b])
            if euclid < 0.05:
                continue
            ratios.append(rows[row_of[int(a)], b] / euclid)
        ratios = np.array(ratios)
        assert (ratios >= 1.0 - 1e-12).all()
        assert (ratios <= 1.05).mean() >= 0.95


class TestDensityRung:
    """The one rule every weighted measure goes through."""

    def rung(self, values, n_points=None, eps=1.0, k=3, min_points=1):
        n_points = np.count_nonzero(values) if n_points is None else n_points
        return mt.density_rung(eps, values, n_points, k, min_points)

    def test_full_cloud_matches_total_weight(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 2000, seed=1)
        rung = self.rung(cloud.weights)
        assert rung.measure == cloud.total_weight()
        assert rung.se >= 0.0

    @pytest.mark.parametrize("eps, k", [(1.0, 3), (0.35, 3), (0.05, 4)])
    def test_fields_follow_the_sum_and_its_bootstrap_error(self, eps, k):
        cloud = sp.sample_ball(sf.briancon_speder(1.0), 0.1, 2000, seed=9)
        values = cloud.weights * (cloud.points[:, 0].real >= 0)
        rung = mt.density_rung(eps, values, 123, k, 50)
        assert rung.measure == float(values.sum())  # bitwise
        assert rung.se == mt.bootstrap_sum_se(values)  # bitwise
        eta_eps = unit_ball_volume(k) * eps**k
        assert rung.theta == rung.measure / eta_eps
        assert rung.theta_se == rung.se / eta_eps
        assert (rung.eps, rung.n_points, rung.flagged) == (eps, 123, False)

    def test_empty_predicate_is_zero(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 500, seed=2)
        rung = self.rung(cloud.weights * np.zeros(cloud.n_points, bool), n_points=0)
        assert rung.measure == 0.0
        assert rung.flagged

    def test_halfspace_on_plane_is_half(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 20_000, seed=3)
        rung = self.rung(cloud.weights * (cloud.points[:, 0].real >= 0))
        assert abs(rung.measure - 0.5 * unit_ball_volume(3)) <= 3.0 * rung.se
        assert abs(rung.theta - 0.5) <= 3.0 * rung.theta_se

    def test_disjoint_predicates_add_exactly(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 5000, seed=4)
        left = cloud.points[:, 0].real >= 0
        full = self.rung(cloud.weights).measure
        a = self.rung(cloud.weights * left).measure
        b = self.rung(cloud.weights * ~left).measure
        assert abs((a + b) - full) < 1e-12

    def test_flags_starved_empty_and_zero_measure(self):
        values = np.full(40, 0.25)
        assert not mt.density_rung(0.5, values, 40, 3, 40).flagged
        assert mt.density_rung(0.5, values, 39, 3, 40).flagged  # starved
        zero = mt.density_rung(0.5, np.zeros(40), 40, 3, 1)  # zero measure
        assert zero.flagged and zero.measure == 0.0 and zero.se == 0.0
        empty = mt.density_rung(0.5, np.zeros(0), 0, 3, 1)
        assert empty.flagged
        assert (empty.measure, empty.se, empty.theta, empty.n_points) == (0.0, 0.0, 0.0, 0)
        negative = mt.density_rung(0.5, np.array([0.5, -1.0]), 2, 3, 1)
        assert negative.flagged


def resampled_sum_se(values, n_blocks, seed):
    """Multinomial bootstrap SE of values.sum() from n_blocks * 1000 resamples."""
    v = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    pvals = np.full(v.size, 1.0 / v.size)
    sums = np.concatenate(
        [rng.multinomial(v.size, pvals, size=1000) @ v for _ in range(n_blocks)]
    )
    return float(sums.std(ddof=1))


class TestBootstrapSumSE:
    def test_empty_and_constant_give_zero(self):
        assert mt.bootstrap_sum_se(np.zeros(0)) == 0.0
        assert mt.bootstrap_sum_se(np.full(17, 0.25)) == 0.0

    def test_two_values_closed_form(self):
        for a, b in ((1.0, 3.0), (-2.5, 0.5), (1e-3, 7.0)):
            want = abs(a - b) / math.sqrt(2.0)
            assert mt.bootstrap_sum_se([a, b]) == pytest.approx(want, rel=1e-15)

    def test_matches_resampled_bootstrap_on_surface_weights(self):
        cloud = sp.sample_ball(sf.briancon_speder(1.0), 0.1, 3000, seed=8)
        exact = mt.bootstrap_sum_se(cloud.weights)
        resampled = resampled_sum_se(cloud.weights, 20, seed=0)
        assert exact == pytest.approx(resampled, rel=0.03)


class TestCarriers:
    def test_plane_carrier_orthonormalizes(self):
        basis = np.array([E6[0] * 2.0, E6[0] + E6[2]])
        carrier = mt.PlaneCarrier(basis)
        gram = carrier.basis @ carrier.basis.T
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_plane_carrier_rejects_dependent_rows(self):
        with pytest.raises(ValueError):
            mt.PlaneCarrier(np.array([E6[0], 2.0 * E6[0]]))

    def test_plane_sample_in_ball_with_exact_mass(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(0.5, 3000, seed=7)
        norms = np.linalg.norm(real6(cloud.points), axis=1)
        assert (norms <= 0.5 + 1e-12).all()
        want = unit_ball_volume(3) * 0.5**3
        assert cloud.total_weight() == pytest.approx(want, rel=1e-12)


class TestDensityLadder:
    LADDER = (1.0, 0.7, 0.5, 0.35)

    def test_full_plane_density_is_one_exactly(self):
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, self.LADDER, 2000, seed=0
        )
        assert report.verdict == "positive-density"
        assert report.alpha == pytest.approx(3.0, abs=1e-9)
        assert report.theta_star == pytest.approx(1.0, abs=1e-9)
        for rung in report.rungs:
            assert rung.theta == pytest.approx(1.0, abs=1e-12)
            assert not rung.flagged

    def test_half_plane_density_is_half(self):
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), lambda pts: pts[:, 0].real >= 0,
            3, self.LADDER, 8000, seed=1,
        )
        assert report.verdict == "positive-density"
        assert abs(report.alpha - 3.0) < 0.2
        assert abs(report.theta_star - 0.5) < 0.05

    def test_quarter_plane_density_is_quarter(self):
        predicate = lambda pts: (pts[:, 0].real >= 0) & (pts[:, 1].real >= 0)
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), predicate, 3, self.LADDER, 8000, seed=2,
        )
        assert report.verdict == "positive-density"
        assert abs(report.theta_star - 0.25) < 0.04

    def test_axis_inside_plane_has_zero_density(self):
        # A 2-real-dimensional line never meets a positive-measure sample of
        # the surrounding 4-plane, so every rung is exactly empty.
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_YZ), lambda pts: np.abs(pts[:, 1]) == 0,
            3, self.LADDER, 500, seed=3,
        )
        assert report.verdict == "zero-density"
        assert report.n_fit == 0
        assert all(r.measure == 0.0 for r in report.rungs)

    def test_excess_exponent_gives_zero_density(self):
        # A 5-plane has ball measure ~ eps^5; compared at dimension 3 the
        # fitted exponent exceeds 3 decisively.
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_5), None, 3, self.LADDER, 2000, seed=4
        )
        assert report.verdict == "zero-density"
        assert report.alpha == pytest.approx(5.0, abs=1e-9)

    def test_doubling_samples_keeps_verdicts(self):
        for carrier, predicate, want in [
            (mt.PlaneCarrier(BASIS_3), None, "positive-density"),
            (mt.PlaneCarrier(BASIS_3), lambda pts: pts[:, 0].real >= 0, "positive-density"),
            (mt.PlaneCarrier(BASIS_YZ), lambda pts: np.abs(pts[:, 1]) == 0, "zero-density"),
        ]:
            for n in (2000, 4000):
                report = mt.density_ladder(carrier, predicate, 3, self.LADDER, n, seed=5)
                assert report.verdict == want

    def test_starved_rungs_are_flagged_and_inconclusive(self):
        report = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.5), 20, seed=6,
            min_rung_points=100,
        )
        assert all(r.flagged for r in report.rungs)
        assert report.n_fit == 0
        assert report.verdict == "inconclusive"
        assert math.isnan(report.alpha)

    def test_each_verdict_is_decided_by_its_own_checks(self):
        def names(group):
            return [c.name for c in group]

        empty = lambda pts: np.abs(pts[:, 1]) == 0
        cases = [  # carrier, predicate, n, min_rung_points, verdict
            (mt.PlaneCarrier(BASIS_3), None, 500, 50, "positive-density"),
            (mt.PlaneCarrier(BASIS_5), None, 500, 50, "zero-density"),
            (mt.PlaneCarrier(BASIS_YZ), empty, 200, 50, "zero-density"),
            (mt.PlaneCarrier(BASIS_3), None, 20, 100, "inconclusive"),
        ]
        for carrier, predicate, n, floor, want in cases:
            report = mt.density_ladder(
                carrier, predicate, 3, self.LADDER, n, seed=9, min_rung_points=floor
            )
            assert report.verdict == want
            checks = report.checks
            assert list(checks) == ["zero-density", "positive-density"]
            held = [v for v, group in checks.items() if all(c.holds for c in group)]
            assert report.verdict == (held[0] if held else "inconclusive")
            if report.n_fit >= 2:
                (above,) = checks["zero-density"]
                assert names(checks["positive-density"]) == [
                    "alpha not above k", "alpha not below k", "theta* positive"
                ]
                # "not above" is the exact complement of "above": the same bound.
                assert checks["positive-density"][0].bound == above.bound
                assert above.holds != checks["positive-density"][0].holds
            else:
                assert names(checks["zero-density"]) == ["nonempty rungs"]
                assert names(checks["positive-density"]) == ["fitted rungs"]

    def test_exact_fit_a_few_ulps_above_k_is_positive(self):
        # Rungs on eps^(3 + 4e-15) with relative SEs of 1e-16, as exact
        # weights give: the fit lands a few ulps above 3 with an SE near
        # 1e-16, and both bounds on alpha allow the same 1e-9 of rounding.
        rungs = [
            mt.DensityRung(e, e ** (3 + 4e-15), 1e-16 * e**3, 1.0, 1e-16, 1000, False)
            for e in self.LADDER
        ]
        report = mt.fit_density_report(rungs, 3, 0)
        assert 0 < report.alpha - 3 < 1e-14
        assert report.alpha_se < 1e-15
        assert report.verdict == "positive-density"
        (above,) = report.checks["zero-density"]
        not_above, not_below, _ = report.checks["positive-density"]
        assert not_above.slack >= 1e-9 - 1e-14
        assert not_below.slack >= 1e-9 - 1e-14
        assert above.slack == -not_above.slack and not above.holds

    def test_threads_do_not_change_report(self):
        a = mt.density_ladder(mt.PlaneCarrier(BASIS_3), None, 3, self.LADDER, 1000, seed=8)
        b = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, self.LADDER, 1000, seed=8, threads=4
        )
        assert a == b

    def test_predicate_shape_checked(self):
        with pytest.raises(ValueError, match="one boolean per point"):
            mt.density_ladder(
                mt.PlaneCarrier(BASIS_3), lambda pts: np.ones(3, bool), 3, self.LADDER, 100
            )

    def test_argument_validation(self):
        carrier = mt.PlaneCarrier(BASIS_3)
        with pytest.raises(ValueError):
            mt.density_ladder(carrier, None, 3, (0.5, 1.0), 100)
        with pytest.raises(ValueError):
            mt.density_ladder(carrier, None, 3, (1.0, -0.5), 100)
        with pytest.raises(ValueError):
            mt.density_ladder(carrier, None, 3, (), 100)
        with pytest.raises(ValueError):
            mt.density_ladder(carrier, None, 3, (1.0, 0.5), 0)
        for ladder in ((0.5, 1.0), (1.0, -0.5), ()):
            with pytest.raises(ValueError):
                mt.density_comparability(carrier, None, 3, ladder, n_per_rung=100)
        with pytest.raises(ValueError, match="n_per_rung must be positive"):
            mt.density_comparability(carrier, None, 3, (1.0, 0.5), n_per_rung=0)


class TestDensityComparability:
    def test_flat_plane_ratios_near_one(self):
        k1, k2 = mt.density_comparability(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.7, 0.5), seed=1,
            n_per_rung=4000,
        )
        assert k1 <= k2
        assert k1 >= 1.0 - 1e-12
        assert 0.8 <= k1 <= k2 <= 1.25

    def test_flat_surface_ratios_near_one(self):
        k1, k2 = mt.density_comparability(
            SurfaceBall(PLANE_SURFACE), None, 4, (1.0, 0.7, 0.5), seed=2, n_per_rung=4000,
        )
        assert 0.8 <= k1 <= k2 <= 1.25

    def test_singular_surface_wedge_ratios_finite(self):
        surface = sf.briancon_speder(0.0)
        carrier = SurfaceBall(surface, sp.RegionSpec("wedge", 0.1))
        k1, k2 = mt.density_comparability(
            carrier, None, 4, (0.5, 0.35, 0.25), seed=3, n_per_rung=2500,
        )
        assert 0.0 < k1 <= k2 < math.inf
        assert k1 >= 1.0 - 1e-12

    def test_no_shared_rungs_raises(self):
        with pytest.raises(ValueError):
            mt.density_comparability(
                mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.5), seed=4,
                n_per_rung=20,
            )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "carrier, predicate, k, ladder, n",
        [
            (mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.7, 0.5), 1500),
            (mt.PlaneCarrier(BASIS_3), lambda pts: pts[:, 0].real >= 0, 3, (1.0, 0.7, 0.5), 1500),
            (BS0_WEDGE, None, 4, (0.5, 0.35, 0.25), 1500),
        ],
        ids=["plane", "half-plane", "bs0-wedge"],
    )
    def test_matches_the_two_ladder_computation(self, carrier, predicate, k, ladder, n, seed):
        got = mt.density_comparability(carrier, predicate, k, ladder, seed, n)
        assert got == previous_comparability(carrier, predicate, k, ladder, seed, n)

    def test_threads_do_not_change_ratios(self):
        args = (mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.7, 0.5, 0.35), 6, 1000)
        assert mt.density_comparability(*args, threads=1) == mt.density_comparability(
            *args, threads=4
        )

    def test_one_draw_per_rung(self):
        ladder = (1.0, 0.7, 0.5)
        carrier = CountingCarrier(mt.PlaneCarrier(BASIS_3))
        mt.density_comparability(carrier, None, 3, ladder, seed=7, n_per_rung=1000)
        assert carrier.radii == list(ladder)


class TestReportSerialization:
    def report(self):
        return mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.5), 500, seed=0
        )

    def test_dict_schema(self):
        doc = mt.density_report_dict(self.report())
        assert doc["schema"] == "density-report/v1"
        assert doc["dimension"] == 3
        assert doc["verdict"] == "positive-density"
        assert len(doc["rungs"]) == 2
        assert set(doc["rungs"][0]) == {
            "eps", "measure", "se", "theta", "theta_se", "n_points", "flagged"
        }

    def test_csv_round_numbers(self):
        report = self.report()
        text = records_csv(report.rungs)
        lines = text.strip().split("\n")
        assert lines[0].startswith("eps,")
        assert len(lines) == 1 + len(report.rungs)
        first = lines[1].split(",")
        assert float(first[0]) == report.rungs[0].eps
        assert float(first[3]) == report.rungs[0].theta

    def test_reports_deterministic(self):
        assert self.report() == self.report()

    def test_report_invariants_enforced(self):
        report = self.report()
        with pytest.raises(ValueError):
            mt.DensityReport(
                3, "outer", tuple(reversed(report.rungs)), 3.0, 0.0, 1.0, 0.0,
                "positive-density", 2, 0,
            )
        with pytest.raises(ValueError):
            mt.DensityReport(
                3, "outer", report.rungs, 3.0, 0.0, 1.0, 0.0, "maybe", 2, 0,
            )
