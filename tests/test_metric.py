"""Tests for neighbor graphs, measure estimates, and density ladders.

Anchor values are exact by construction: a k-plane carrier keeps every draw
at equal weight, so its ball measure is eta_k * eps^k to rounding error and
half/quarter restrictions scale it by 1/2 and 1/4 in expectation.
"""

import math

import numpy as np
import pytest

from singlab import metric as mt
from singlab import sampling as sp
from singlab import surfaces as sf
from singlab.util import real6, records_csv, unit_ball_volume

PLANE_SURFACE = sf.WeightedSurface((2, 2, 1), 2, (((1, 0, 0), 1.0),), "plane-x0")

E6 = np.eye(6)
BASIS_3 = E6[[0, 2, 4]]        # (Re x, Re y, Re z)
BASIS_2 = E6[[0, 2]]
BASIS_5 = E6[:5]
BASIS_YZ = E6[2:6]             # the x = 0 coordinate 4-plane


def circle_points(n):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.zeros((n, 3), dtype=complex)
    pts[:, 0] = np.exp(1j * theta)
    return pts


class TestNeighborGraph:
    def test_two_points_single_edge(self):
        pts = np.array([[0, 0, 0], [3.0 + 4.0j, 0, 0]], dtype=complex)
        g = mt.build_graph(pts, k_nn=1)
        assert g.matrix.nnz == 2  # one edge, stored in both directions
        assert g.matrix[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert g.n_components == 1

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
        assert g.n_components == 1

    def test_two_clusters_split(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=0.01, size=(30, 6))
        b = rng.normal(scale=0.01, size=(30, 6)) + 10.0
        g = mt.build_graph(np.vstack([a, b]), k_nn=3)
        assert g.n_components == 2
        assert mt.distances_from(g, 0)[45] == math.inf

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((0, 6)), k_nn=3)
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((4, 6)), k_nn=0)
        with pytest.raises(ValueError):
            mt.build_graph(np.zeros((4, 5)), k_nn=2)


class TestInnerDistance:
    def test_same_vertex_is_zero(self):
        g = mt.build_graph(circle_points(64), k_nn=4)
        assert mt.distances_from(g, 17)[17] == 0.0

    def test_triangle_inequality_and_euclidean_lower_bound(self):
        pts = circle_points(300)
        g = mt.build_graph(pts, k_nn=6)
        from scipy.sparse.csgraph import dijkstra

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
        from scipy.sparse.csgraph import dijkstra

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


class TestMeasureEstimate:
    def test_full_cloud_matches_total_weight(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 2000, seed=1)
        est, se = mt.measure_estimate(cloud)
        assert est == cloud.total_weight()
        assert se >= 0.0

    def test_empty_predicate_is_zero(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 500, seed=2)
        est, se = mt.measure_estimate(cloud, lambda pts: np.zeros(len(pts), bool))
        assert est == 0.0

    def test_halfspace_on_plane_is_half(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 20_000, seed=3)
        est, se = mt.measure_estimate(cloud, lambda pts: pts[:, 0].real >= 0)
        half = 0.5 * unit_ball_volume(3)
        assert abs(est - half) <= 3.0 * se

    def test_disjoint_predicates_add_exactly(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 5000, seed=4)
        left = lambda pts: pts[:, 0].real >= 0
        right = lambda pts: pts[:, 0].real < 0
        full, _ = mt.measure_estimate(cloud)
        a, _ = mt.measure_estimate(cloud, left)
        b, _ = mt.measure_estimate(cloud, right)
        assert abs((a + b) - full) < 1e-12

    def test_region_spec_predicate(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 1000, seed=5)
        est, _ = mt.measure_estimate(cloud, sp.RegionSpec("ball", 0.5))
        assert 0.0 < est < cloud.total_weight()

    def test_predicate_shape_checked(self):
        cloud = mt.PlaneCarrier(BASIS_3).sample(1.0, 100, seed=6)
        with pytest.raises(ValueError):
            mt.measure_estimate(cloud, lambda pts: np.ones(3, bool))


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

    def test_surface_carrier_dimension_and_label(self):
        carrier = mt.as_carrier(PLANE_SURFACE)
        assert isinstance(carrier, mt.SurfaceBallCarrier)
        assert carrier.dimension == 4
        assert carrier.label == "plane-x0"

    def test_as_carrier_rejects_unknown(self):
        with pytest.raises(TypeError):
            mt.as_carrier(42)


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

    def test_inner_metric_trims_but_stays_positive(self):
        outer = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.7, 0.5), 4000, seed=7,
            metric="outer",
        )
        inner = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.7, 0.5), 4000, seed=7,
            metric="inner",
        )
        assert inner.verdict == "positive-density"
        for r_out, r_in in zip(outer.rungs, inner.rungs):
            assert r_in.measure <= r_out.measure + 1e-15
            assert r_in.theta > 0.7

    def test_threads_do_not_change_report(self):
        kwargs = dict(seed=8, metric="outer")
        a = mt.density_ladder(mt.PlaneCarrier(BASIS_3), None, 3, self.LADDER, 1000, **kwargs)
        b = mt.density_ladder(
            mt.PlaneCarrier(BASIS_3), None, 3, self.LADDER, 1000, threads=4, **kwargs
        )
        assert a == b

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
        with pytest.raises(ValueError):
            mt.density_ladder(carrier, None, 3, (1.0, 0.5), 100, metric="taxicab")


class TestDensityComparability:
    def test_identical_metrics_give_exactly_one(self):
        k1, k2 = mt.density_comparability(
            mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.6), seed=0,
            n_per_rung=1500, metrics=("outer", "outer"),
        )
        assert k1 == 1.0
        assert k2 == 1.0

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
            PLANE_SURFACE, None, 4, (1.0, 0.7, 0.5), seed=2, n_per_rung=4000,
        )
        assert 0.8 <= k1 <= k2 <= 1.25

    def test_singular_surface_wedge_ratios_finite(self):
        surface = sf.briancon_speder(0.0)
        carrier = mt.SurfaceBallCarrier(
            surface, sp.RegionSpec("wedge", 1.0, eps_w=0.1)
        )
        k1, k2 = mt.density_comparability(
            carrier, None, 4, (0.5, 0.35, 0.25), seed=3, n_per_rung=2500,
        )
        assert 0.0 < k1 <= k2 < math.inf
        assert k1 >= 1.0 - 1e-12

    def test_no_shared_rungs_raises(self):
        with pytest.raises(ValueError):
            mt.density_comparability(
                mt.PlaneCarrier(BASIS_3), None, 3, (1.0, 0.5), seed=4,
                n_per_rung=20, k_nn=4, metrics=("outer", "outer"),
            )


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
