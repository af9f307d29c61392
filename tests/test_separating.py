"""Tests for conflict-set construction, cone flows, and separating certificates.

Independent checks used as anchors: cone rung measures are re-derived per
point with a scalar-loop volume element under adaptive quadrature, and per
node from the pushed frame's 3x3 Gram determinant; the
bisector gap under a diagonal linear map is sandwiched exactly by the map's
singular values; a tolerance-1 wedge region reproduces the unrestricted ball
bitwise; and uniform scalings leave transverse ratios exactly unchanged.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree

from singlab import metric as mt
from singlab import sampling as sp
from singlab import separating as se
from singlab import surfaces as sf
from singlab.util import real6, records_csv

BS0 = sf.briancon_speder(0.0)
BS1 = sf.briancon_speder(1.0)
EPS = 0.1


def subcloud(cloud, m):
    """First m band points with the full branch-sample context."""
    return se.ConflictCloud(
        cloud.surface, cloud.link_radius, cloud.tau, cloud.points[:m],
        cloud.weights[:m], cloud.band_weights[:m], cloud.u_values[:m],
        cloud.residuals[:m], cloud.a_labels, cloud.b_labels,
        cloud.a_samples, cloud.b_samples, cloud.delta_hat, cloud.seed,
        cloud.n_draws, cloud.n_rejected,
    )


@pytest.fixture(scope="module")
def cloud():
    return se.conflict_set(BS1, EPS, (0,), (1, 2), 4000, seed=11, threads=2)


@pytest.fixture(scope="module")
def small_cloud(cloud):
    return subcloud(cloud, 40)


@pytest.fixture(scope="module")
def flowed_cloud(cloud):
    ladder = tuple(EPS * 10 ** (-0.5 * i) for i in range(7))
    return se.flow_cone(cloud, ladder)


class TestConflictCloudInvariants:
    def test_points_off_link_rejected(self, small_cloud):
        with pytest.raises(ValueError, match="link sphere"):
            dataclasses.replace(small_cloud, points=small_cloud.points * 1.01)

    def test_residual_bound_enforced(self, small_cloud):
        bad = np.full(small_cloud.n_points, 1.0)
        with pytest.raises(ValueError, match="residual bound"):
            dataclasses.replace(small_cloud, residuals=bad)

    def test_band_tolerance_enforced(self, small_cloud):
        bad = np.full(small_cloud.n_points, 1.0)
        with pytest.raises(ValueError, match="tolerance band"):
            dataclasses.replace(small_cloud, u_values=bad)

    def test_label_sets_disjoint(self, small_cloud):
        with pytest.raises(ValueError, match="disjoint"):
            dataclasses.replace(small_cloud, a_labels=(0,), b_labels=(0, 1))

    def test_label_sets_nonempty(self, small_cloud):
        with pytest.raises(ValueError, match="nonempty"):
            dataclasses.replace(small_cloud, a_labels=())

    def test_array_alignment(self, small_cloud):
        with pytest.raises(ValueError, match="align"):
            dataclasses.replace(small_cloud, weights=small_cloud.weights[:-1])

    def test_negative_tau_rejected(self, small_cloud):
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(small_cloud, tau=-1.0)

    def test_flow_stage_radius_checked(self, small_cloud):
        with pytest.raises(ValueError, match="rung radius"):
            dataclasses.replace(
                small_cloud, flow_rungs=(0.05,), flowed=(small_cloud.points,)
            )

    def test_flow_stage_shape_checked(self, small_cloud):
        with pytest.raises(ValueError, match="match the base"):
            dataclasses.replace(
                small_cloud, flow_rungs=(EPS,), flowed=(small_cloud.points[:-1],)
            )

    def test_flow_rungs_and_stages_align(self, small_cloud):
        with pytest.raises(ValueError, match="align"):
            dataclasses.replace(
                small_cloud, flow_rungs=(EPS, 0.05), flowed=(small_cloud.points,)
            )

    def test_flow_stage_must_stay_on_surface(self, small_cloud):
        staged = se.flow_cone(small_cloud, [0.05])
        drifted = staged.flowed[0][:, [2, 1, 0]]
        assert np.allclose(
            np.linalg.norm(real6(drifted), axis=1),
            np.linalg.norm(real6(staged.flowed[0]), axis=1),
        )
        with pytest.raises(ValueError, match="drifted off"):
            dataclasses.replace(staged, flowed=(drifted,))

    def test_arrays_are_readonly(self, cloud):
        for name in ("points", "weights", "band_weights", "u_values"):
            assert not getattr(cloud, name).flags.writeable

    def test_basic_accessors(self, cloud):
        assert cloud.n_points == cloud.points.shape[0]
        assert cloud.surface_label == BS1.label


class TestBisectorGap:
    def test_antipodal_closed_form(self):
        rng = np.random.default_rng(5)
        p6 = rng.normal(size=(300, 6))
        p6 /= np.linalg.norm(p6, axis=1, keepdims=True)
        pts = p6[:, 0::2] + 1j * p6[:, 1::2]
        a = np.array([[1.0, 0, 0]], dtype=complex)
        u, _, _ = se.bisector_gap(pts, a, -a)
        s = p6[:, 0]
        want = np.sqrt(2.0 - 2.0 * s) - np.sqrt(2.0 + 2.0 * s)
        assert np.allclose(u, want, atol=1e-12)
        assert np.all(np.sign(u[np.abs(s) > 1e-6]) == -np.sign(s[np.abs(s) > 1e-6]))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        l1=st.floats(0.5, 2.0),
        l2=st.floats(0.5, 2.0),
        l3=st.floats(0.5, 2.0),
    )
    def test_diagonal_map_sandwich(self, l1, l2, l3):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        a = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3)) + 3.0
        b = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3)) - 3.0
        diag = np.array([l1, l2, l3])
        d_a = cKDTree(real6(a)).query(real6(pts))[0]
        d_b = cKDTree(real6(b)).query(real6(pts))[0]
        u_l, _, _ = se.bisector_gap(pts * diag, a * diag, b * diag)
        lo, hi = min(l1, l2, l3), max(l1, l2, l3)
        assert np.all(u_l <= hi * d_a - lo * d_b + 1e-9)
        assert np.all(u_l >= lo * d_a - hi * d_b - 1e-9)


class TestConflictSet:
    def test_band_properties(self, cloud):
        assert cloud.n_points > 1000
        assert np.abs(cloud.u_values).max() <= cloud.tau + 1e-12
        norms = np.linalg.norm(real6(cloud.points), axis=1)
        assert np.abs(norms - EPS).max() <= 1e-8 * EPS
        assert np.all(cloud.weights > 0)
        assert np.all(cloud.band_weights >= 0)
        assert cloud.tau == pytest.approx(se.TAU_FACTOR * EPS)

    def test_delta_hat_is_min_z_distance(self, cloud):
        assert cloud.delta_hat == pytest.approx(
            float(np.abs(cloud.points[:, 2]).min()), abs=0.0
        )
        assert cloud.delta_hat > 0

    def test_gap_values_recompute(self, cloud):
        u, _, _ = se.bisector_gap(cloud.points, cloud.a_samples, cloud.b_samples)
        assert np.array_equal(u, cloud.u_values)

    def test_single_component_slice_not_applicable(self):
        with pytest.raises(se.ConstructionNotApplicable, match="1 component"):
            se.conflict_set(BS0, EPS, (0,), (1,), 100)

    def test_brieskorn_two_sided_band(self):
        s = sf.brieskorn(2, 4, 5)
        c = se.conflict_set(s, EPS, (0,), (1,), 1200, seed=2)
        assert c.n_points > 0
        assert c.a_labels == (0,) and c.b_labels == (1,)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            se.conflict_set(BS1, EPS, (), (1,), 100)
        with pytest.raises(ValueError, match="disjoint"):
            se.conflict_set(BS1, EPS, (0, 1), (1, 2), 100)
        with pytest.raises(ValueError, match="labels must come from"):
            se.conflict_set(BS1, EPS, (0,), (7,), 100)

    def test_zero_tau_degenerates_cleanly(self):
        c = se.conflict_set(BS1, EPS, (0,), (1, 2), 400, tau=0.0, seed=1)
        assert c.n_points == 0
        assert math.isinf(c.delta_hat)
        staged = se.flow_cone(c, [EPS, 0.05])
        assert all(stage.shape == (0, 3) for stage in staged.flowed)
        with pytest.raises(ValueError, match="empty"):
            se.tangent_cone_collapse(staged)
        with pytest.raises(ValueError, match="empty"):
            se.cone_density_report(c, [0.05])

    def test_area_estimate_stable_in_tau(self, cloud):
        areas = [float(cloud.band_weights.sum())]
        counts = [cloud.n_points]
        for tau in (5e-4, 2e-4):
            c = se.conflict_set(BS1, EPS, (0,), (1, 2), 4000, tau=tau, seed=11,
                                threads=2)
            areas.append(float(c.band_weights.sum()))
            counts.append(c.n_points)
        assert max(areas) / min(areas) < 1.5
        assert counts[0] > counts[1] > counts[2] > 0

    def test_deterministic_across_threads(self):
        a = se.conflict_set(BS1, EPS, (0,), (1, 2), 800, seed=3, threads=1)
        b = se.conflict_set(BS1, EPS, (0,), (1, 2), 800, seed=3, threads=2)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.band_weights, b.band_weights)
        assert a.delta_hat == b.delta_hat


class TestFlow:
    def test_identity_at_link_radius(self, small_cloud):
        staged = se.flow_cone(small_cloud, [EPS])
        drift = np.abs(staged.flowed[0] - small_cloud.points).max()
        assert drift <= 1e-9

    def test_orbit_power_consistency(self, small_cloud):
        staged = se.flow_cone(small_cloud, [EPS / 2])
        base, moved = small_cloud.points, staged.flowed[0]
        t_z = moved[:, 2] / base[:, 2]
        assert np.abs(t_z.imag).max() <= 1e-10 * np.abs(t_z).max()
        t = t_z.real
        assert np.all((t > 0) & (t < 1))
        for col, power in ((0, 3), (1, 2)):
            mask = np.abs(base[:, col]) > 1e-8
            ratio = moved[mask, col] / base[mask, col]
            assert np.allclose(ratio, t[mask] ** power, rtol=1e-10)

    def test_ladder_validation(self, small_cloud):
        for bad in ([], [0.0], [-0.1], [0.05, 0.05], [0.02, 0.05], [2 * EPS]):
            with pytest.raises(ValueError):
                se.flow_cone(small_cloud, bad)


class TestCollapse:
    def test_flowed_cone_collapses(self, flowed_cloud):
        result = se.tangent_cone_collapse(flowed_cloud)
        assert result.collapsed
        assert 0.7 < result.slope < 1.1
        assert result.final_ratio < 0.01
        assert len(result.max_ratios) == 7

    def test_first_rung_matches_base_points(self, flowed_cloud):
        result = se.tangent_cone_collapse(flowed_cloud)
        base = float(se.transverse_ratio(flowed_cloud.points).max())
        assert result.max_ratios[0] == pytest.approx(base, rel=1e-6)

    def test_ratios_decrease_along_ladder(self, flowed_cloud):
        ratios = se.tangent_cone_collapse(flowed_cloud).max_ratios
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_isotropic_scaling_never_collapses(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        rungs = (1.0, 0.5, 0.25)
        result = se.collapse_table(rungs, [r * pts for r in rungs])
        assert result.slope == pytest.approx(0.0, abs=1e-9)
        assert not result.collapsed

    def test_single_orbit_collapse_rate(self, cloud):
        p0 = cloud.points[:1]
        rungs, sets = [], []
        for k in range(7):
            moved = sf.scale_action(BS1, p0, 10.0 ** (-k))
            rungs.append(float(np.linalg.norm(real6(moved))))
            sets.append(moved)
        result = se.collapse_table(rungs, sets)
        assert 0.8 < result.slope < 1.05
        assert result.collapsed

    def test_transverse_ratio_endpoints(self):
        assert se.transverse_ratio([[0, 0, 1.0]])[0] == pytest.approx(0.0)
        assert se.transverse_ratio([[1.0j, 0, 0]])[0] == pytest.approx(1.0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(lam=st.floats(1e-3, 1e3))
    def test_transverse_ratio_scale_invariant(self, lam):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(15, 3)) + 1j * rng.normal(size=(15, 3))
        assert np.allclose(
            se.transverse_ratio(lam * pts), se.transverse_ratio(pts), rtol=1e-12
        )

    def test_table_validation(self):
        pts = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError, match="one point set per rung"):
            se.collapse_table((1.0, 0.5), [pts])
        with pytest.raises(ValueError, match="at least two"):
            se.collapse_table((1.0,), [pts])
        with pytest.raises(ValueError, match="empty"):
            se.collapse_table((1.0, 0.5), [pts, pts[:0]])
        with pytest.raises(ValueError, match="flow the cloud"):
            se.tangent_cone_collapse(
                se.conflict_set(BS1, EPS, (0,), (1, 2), 300, seed=8)
            )


def scalar_cone_measure(cloud, r):
    """Per-point scalar-loop + adaptive-quadrature route to the rung measure."""
    i_a = cKDTree(real6(cloud.a_samples)).query(real6(cloud.points))[1]
    i_b = cKDTree(real6(cloud.b_samples)).query(real6(cloud.points))[1]
    _, frames = se._band_geometry(
        cloud.surface, cloud.points, cloud.a_samples[i_a], cloud.b_samples[i_b]
    )
    e6 = np.repeat(np.array(cloud.surface.scaling_exponents, dtype=float), 2)
    p6 = real6(cloud.points)
    _, t_exit = sf.sphere_project(cloud.surface, cloud.points, r)

    def vol3(i, u):
        rows = [[u ** e6[d] * frames[i, k, d] for d in range(6)] for k in range(2)]
        rows.append([e6[d] * u ** (e6[d] - 1.0) * p6[i, d] for d in range(6)])
        mat = np.array(rows)
        return math.sqrt(max(np.linalg.det(mat @ mat.T), 0.0))

    total = 0.0
    for i in range(cloud.n_points):
        val, _ = quad(lambda u: vol3(i, u), 0.0, t_exit[i],
                      epsabs=1e-14, epsrel=1e-11, limit=200)
        total += cloud.band_weights[i] * val
    return total


def gram_cone_measures(cloud, ladder, n_quad=64):
    """Rung measures from the per-node 3x3 Gram determinant of the pushed frame.

    The brute-force route: at every Gauss-Legendre node the three pushed-forward
    frame vectors are stacked, their Gram matrix formed and its determinant
    taken, in blocks of band points.
    """
    i_a = cKDTree(real6(cloud.a_samples)).query(real6(cloud.points))[1]
    i_b = cKDTree(real6(cloud.b_samples)).query(real6(cloud.points))[1]
    _, frames = se._band_geometry(
        cloud.surface, cloud.points, cloud.a_samples[i_a], cloud.b_samples[i_b]
    )
    e6 = np.repeat(np.array(cloud.surface.scaling_exponents), 2)
    p6 = real6(cloud.points)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_quad)
    nodes = 0.5 * (nodes + 1.0)
    gl_weights = 0.5 * gl_weights
    measures = []
    block = 8192
    for r in ladder:
        _, t_exit = sf.sphere_project(cloud.surface, cloud.points, r)
        integrals = np.empty(cloud.n_points)
        for lo in range(0, cloud.n_points, block):
            hi = min(lo + block, cloud.n_points)
            u = t_exit[lo:hi, None] * nodes[None, :]
            scale = u[:, :, None] ** e6[None, None, :]
            v1 = scale * frames[lo:hi, 0][:, None, :]
            v2 = scale * frames[lo:hi, 1][:, None, :]
            w6 = (u[:, :, None] ** (e6 - 1.0)[None, None, :]) * e6 * p6[lo:hi, None, :]
            tri = np.stack([v1, v2, w6], axis=2)
            gram = np.einsum("mqad,mqbd->mqab", tri, tri)
            vol = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
            integrals[lo:hi] = t_exit[lo:hi] * (vol * gl_weights[None, :]).sum(axis=1)
        measures.append(float((cloud.band_weights * integrals).sum()))
    return measures


def distinct_cone_powers(surface):
    """Distinct exponents 2 E_I - 2 over the column triples I of a 6-frame."""
    e6 = np.repeat(np.array(surface.scaling_exponents), 2)
    triples = [list(t) for t in itertools.combinations(range(6), 3)]
    return np.unique([2.0 * e6[t].sum() - 2.0 for t in triples])


class TestConeDensity:
    def test_rung_measures_match_scalar_quadrature(self, small_cloud):
        ladder = (0.05, 0.02)
        report = se.cone_density_report(small_cloud, ladder)
        for rung, r in zip(report.rungs, ladder):
            want = scalar_cone_measure(small_cloud, r)
            assert rung.measure == pytest.approx(want, rel=1e-9)

    def test_rung_measures_match_gram_determinant(self, cloud):
        ladder = (0.05, 0.03, 0.018, 0.01)
        b245 = sf.brieskorn(2, 4, 5)
        b245_cloud = se.conflict_set(b245, EPS, (0,), (1,), 1200, seed=2)
        assert distinct_cone_powers(BS1).size == 5
        assert distinct_cone_powers(b245).size == 7
        for c in (cloud, b245_cloud):
            report = se.cone_density_report(c, ladder)
            for rung, want in zip(report.rungs, gram_cone_measures(c, ladder)):
                assert rung.measure == pytest.approx(want, rel=1e-12)

    def test_quadrature_order_converged(self, small_cloud):
        ladder = (0.05, 0.02)
        r64 = se.cone_density_report(small_cloud, ladder, n_quad=64)
        r96 = se.cone_density_report(small_cloud, ladder, n_quad=96)
        for a, b in zip(r64.rungs, r96.rungs):
            assert a.measure == pytest.approx(b.measure, rel=1e-10)

    def test_measures_shrink_with_radius(self, small_cloud):
        report = se.cone_density_report(small_cloud, (0.05, 0.03, 0.015))
        measures = [r.measure for r in report.rungs]
        assert measures[0] > measures[1] > measures[2] > 0

    def test_cone_is_zero_density_for_k3(self, cloud):
        report = se.cone_density_report(cloud, (0.05, 0.03, 0.018, 0.01))
        assert report.verdict == "zero-density"
        assert 3.8 < report.alpha < 4.2
        assert report.alpha_se < 0.1
        assert report.dimension == 3

    def test_report_deterministic(self, small_cloud):
        a = se.cone_density_report(small_cloud, (0.05, 0.02))
        b = se.cone_density_report(small_cloud, (0.05, 0.02))
        assert mt.density_report_dict(a) == mt.density_report_dict(b)

    def test_ladder_validation(self, small_cloud):
        for bad in ([], [-0.1], [0.02, 0.05], [2 * EPS]):
            with pytest.raises(ValueError):
                se.cone_density_report(small_cloud, bad)


class TestSides:
    def test_branch_samples_classify_to_their_side(self, cloud):
        assert np.all(se.classify_sides(cloud, cloud.a_samples[:200]) == 1)
        assert np.all(se.classify_sides(cloud, cloud.b_samples[:200]) == -1)

    def test_decomposition_partitions_the_ball(self, cloud):
        side_a = se.SideCarrier(cloud, "A").sample(EPS, 1500, seed=21)
        side_b = se.SideCarrier(cloud, "B").sample(EPS, 1500, seed=21)
        ball = sp.sample_ball(BS1, EPS, 1500, None, 21)
        sides = se.classify_sides(cloud, ball.points)
        assert np.array_equal(side_a.points, ball.points[sides > 0])
        assert np.array_equal(side_b.points, ball.points[sides < 0])
        discarded = int((sides == 0).sum())
        assert side_a.n_rejected == ball.n_rejected + discarded
        assert side_b.n_rejected == ball.n_rejected + discarded
        assert side_a.dimension == 4
        assert side_a.surface_label == BS1.label

    def test_band_discard_monotone_in_tau(self):
        narrow = se.conflict_set(BS1, EPS, (0,), (1, 2), 4000, tau=2e-4, seed=11,
                                 threads=2)
        wide = dataclasses.replace(narrow, tau=2e-3)
        ball = sp.sample_ball(BS1, EPS, 800, None, 5)
        n0_narrow = int((se.classify_sides(narrow, ball.points) == 0).sum())
        n0_wide = int((se.classify_sides(wide, ball.points) == 0).sum())
        assert 0 < n0_narrow <= n0_wide

    def test_side_carrier_samples_pure_sides(self, cloud):
        carrier = se.SideCarrier(cloud, "A")
        assert carrier.dimension == 4
        assert "side-A" in carrier.label
        got = carrier.sample(0.5 * EPS, 600, seed=4)
        assert got.n_points > 0
        assert np.all(se.classify_sides(cloud, got.points) == 1)
        with pytest.raises(ValueError, match="side"):
            se.SideCarrier(cloud, "C")

    def test_band_nearly_invariant_along_orbits(self, cloud):
        sub = subcloud(cloud, 2000)
        e = np.array(BS1.scaling_exponents)
        bound = _residual_bound_for_tests()
        for theta in np.linspace(0.0, 2 * np.pi, 11)[1:]:
            rotated = sub.points * np.exp(1j * e * theta)[None, :]
            assert np.abs(sf.evaluate(BS1, rotated)).max() <= bound
            norms = np.linalg.norm(real6(rotated), axis=1)
            assert np.abs(norms - EPS).max() <= 1e-12
            u, _, _ = se.bisector_gap(rotated, sub.a_samples, sub.b_samples)
            assert np.abs(u).max() <= 1.5 * sub.tau


def _residual_bound_for_tests():
    return 1e-9 * (1.0 + EPS ** (BS1.quasidegree / BS1.weights[2]))


class TestThinWedge:
    def test_tolerance_one_wedge_is_whole_ball(self):
        plain = sp.sample_ball(BS0, 0.5, 3000, None, 7)
        wedge = sp.sample_ball(
            BS0, 0.5, 3000, sp.RegionSpec("thin-wedge", 0.5, eps_w=1.0), 7
        )
        assert np.array_equal(plain.points, wedge.points)
        assert np.array_equal(plain.weights, wedge.weights)

    def test_measure_monotone_in_wedge_width(self):
        kept = []
        for eps_w in (0.1, 0.2):
            c = sp.sample_ball(
                BS0, 0.4, 4000, sp.RegionSpec("thin-wedge", 0.4, eps_w=eps_w), 3
            )
            kept.append((c.n_points, float(c.weights.sum())))
        assert kept[0][0] < kept[1][0]
        assert kept[0][1] < kept[1][1]

    def test_volume_table(self):
        table = se.thin_wedge_volume(
            BS0, (0.2, 0.1), (0.4, 0.25, 0.16, 0.1), 10000, seed=0, threads=2
        )
        assert table.passed
        assert not any(c.flagged for c in table.cells)
        assert len(table.cells) == 8
        assert table.k_hat > 0
        assert table.stability <= 5.0
        for _, slope in table.r_slopes:
            assert 3.4 < slope < 4.8
        by_r = {}
        for c in table.cells:
            by_r.setdefault(c.r, {})[c.eps_w] = c.measure
        for r, row in by_r.items():
            ratio = row[0.2] / row[0.1]
            assert 1.0 < ratio < 4.0

    def test_serialization(self):
        table = se.thin_wedge_volume(BS0, (0.3,), (0.4, 0.2), 2000, seed=1)
        blob = se.thin_wedge_dict(table)
        assert blob["schema"] == "thin-wedge/v1"
        json.dumps(blob)
        csv = records_csv(table.cells)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("eps_w,r,")
        assert len(lines) == 1 + len(table.cells)

    def test_table_deterministic_across_threads(self):
        a = se.thin_wedge_volume(BS0, (0.3,), (0.4, 0.2), 2000, seed=1, threads=1)
        b = se.thin_wedge_volume(BS0, (0.3,), (0.4, 0.2), 2000, seed=1, threads=2)
        assert se.thin_wedge_dict(a) == se.thin_wedge_dict(b)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            se.thin_wedge_volume(BS0, (), (0.4,), 100)
        with pytest.raises(ValueError, match="decreasing"):
            se.thin_wedge_volume(BS0, (0.2,), (0.1, 0.4), 100)
        with pytest.raises(ValueError, match="distinct"):
            se.thin_wedge_volume(BS0, (0.2, 0.2), (0.4,), 100)
        with pytest.raises(ValueError, match="positive"):
            se.thin_wedge_volume(BS0, (0.2,), (0.4, -0.1), 100)


class TestCertificate:
    def test_params_resolution(self):
        p = se.CertificateParams(link_radius=0.2)
        assert p.resolved_tau() == pytest.approx(0.002 * 0.2)
        assert se.CertificateParams(tau=1e-3).resolved_tau() == pytest.approx(1e-3)
        for ladder in (p.resolved_flow_ladder(), p.resolved_m_ladder(),
                       p.resolved_side_ladder()):
            assert ladder[0] <= 0.2 + 1e-12
            assert all(a > b for a, b in zip(ladder, ladder[1:]))

    def test_single_component_slice_means_no_evidence(self):
        cert = se.separating_certificate(BS0)
        assert cert.verdict == "no-evidence"
        assert "1 component" in cert.reason
        assert cert.m_report is None and cert.collapse is None
        blob = se.certificate_dict(cert)
        assert blob["schema"] == "separating-certificate/v1"
        json.dumps(blob)

    def test_full_run_finds_separating_evidence(self):
        params = se.CertificateParams(
            link_radius=EPS, n_conflict=8000, n_side=3000, threads=2, seed=0
        )
        cert = se.separating_certificate(BS1, params)
        assert cert.verdict == "separating-evidence"
        assert cert.reason == "all sub-verdicts met"
        assert cert.n_slice_components == 3
        assert cert.delta_hat > 0
        assert cert.collapse.collapsed
        assert cert.m_report.verdict == "zero-density"
        assert cert.a_report.verdict == "positive-density"
        assert cert.b_report.verdict == "positive-density"
        text = se.certificate_text(cert)
        assert "separating-evidence" in text
        assert BS1.label in text
        blob = se.certificate_dict(cert)
        json.dumps(blob)
        assert blob["verdict"] == "separating-evidence"
        assert blob["params"]["n_conflict"] == 8000

    def test_verdict_must_match_evidence(self):
        with pytest.raises(ValueError, match="contradicts"):
            se.SeparatingCertificate(
                "x", 3, 1.0, None, None, None, None,
                "separating-evidence", "", se.CertificateParams(),
            )
        with pytest.raises(ValueError, match="unknown verdict"):
            se.SeparatingCertificate(
                "x", 1, 1.0, None, None, None, None,
                "maybe", "", se.CertificateParams(),
            )
