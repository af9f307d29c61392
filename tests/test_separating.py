"""Tests for conflict-set construction, cone flows, and separating certificates.

Independent checks used as anchors: cone rung measures are re-derived per
point with a scalar-loop volume element under adaptive quadrature, and per
node from the pushed frame's 3x3 Gram determinant; branch distances are
checked against closed forms on fixed points and axis circles, against
dense branch points from root solves of the slice polynomial that never use
the circle action, and against a finer grid with more Newton steps; the
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

from singlab import metric as mt
from singlab import sampling as sp
from singlab import separating as se
from singlab import surfaces as sf
from singlab.util import bootstrap_sum_se, derive_seed, loglog_fit, real6, records_csv

BS0 = sf.briancon_speder(0.0)
BS1 = sf.briancon_speder(1.0)
EPS = 0.1


def subcloud(cloud, m):
    """First m band points with the cloud's branch seeds."""
    return se.ConflictCloud(
        cloud.surface, cloud.link_radius, cloud.tau, cloud.points[:m],
        cloud.weights[:m], cloud.band_weights[:m], cloud.u_values[:m],
        cloud.residuals[:m], cloud.frames[:m], cloud.a_labels, cloud.b_labels,
        cloud.a_seeds, cloud.b_seeds, cloud.delta_hat, cloud.seed,
        cloud.n_draws, cloud.n_rejected,
    )


@pytest.fixture(scope="module")
def cloud():
    return se.conflict_set(BS1, EPS, (0,), (1, 2), 4000, seed=11, threads=2)


@pytest.fixture(scope="module")
def small_cloud(cloud):
    return subcloud(cloud, 40)


@pytest.fixture(scope="module")
def collapse(cloud):
    return se.tangent_cone_collapse(cloud, se.default_flow_ladder(EPS))


def flowed(cloud, ladder):
    """The band points flowed to each rung, in ladder order."""
    return [pts for _, (pts, _) in se._orbit_flow(cloud, ladder)]


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

    def test_seeds_validated(self, small_cloud):
        seeds = small_cloud.b_seeds
        with pytest.raises(ValueError, match="seeds must lie on the link sphere"):
            dataclasses.replace(small_cloud, b_seeds=seeds * 1.01)
        with pytest.raises(ValueError, match="z = 0 slice"):
            dataclasses.replace(small_cloud, b_seeds=seeds + [0, 0, 1e-6])
        with pytest.raises(ValueError, match="seeds violate the surface residual"):
            dataclasses.replace(small_cloud, a_seeds=[[EPS, 0, 0]])
        with pytest.raises(ValueError, match="one .* seed per label"):
            dataclasses.replace(small_cloud, a_seeds=seeds)

    def test_frames_validated(self, small_cloud):
        with pytest.raises(ValueError, match=r"\(m, 2, 6\)"):
            dataclasses.replace(small_cloud, frames=small_cloud.frames[:, :1])
        with pytest.raises(ValueError, match=r"\(m, 2, 6\)"):
            dataclasses.replace(small_cloud, frames=small_cloud.frames[:-1])

    def test_negative_tau_rejected(self, small_cloud):
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(small_cloud, tau=-1.0)

    def test_arrays_are_readonly(self, cloud):
        for name in ("points", "weights", "band_weights", "u_values", "frames"):
            assert not getattr(cloud, name).flags.writeable

    def test_basic_accessors(self, cloud):
        assert cloud.n_points == cloud.points.shape[0]


def orbit_points(surface, seeds, n):
    """n evenly spaced points of each seed's circle orbit, shape (k, n, 3)."""
    a, b = se._orbit_steps(surface)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    return np.asarray(seeds)[:, None, :] * np.stack([w**a, w**b, np.ones(n)], axis=1)


def dense_branch_points(surface, labels, radius, n_phase):
    """Link points of the slice branches ``labels``, without the circle action.

    The roots of h(., y) come from ``all_roots`` on n_phase points of the
    unit y-circle; each takes the label of the nearest closed-form root
    e^(2 pi i t w1/w2) * xi, xi a root of h(x, 1) from ``slice_structure``.
    The axis branches are their coordinate circles.  Every point is moved
    onto the link by ``sphere_project``.  Returns the points and the largest
    gap between consecutive points of one branch curve.
    """
    struct = sf.slice_structure(surface)
    phases = np.exp(2j * np.pi * np.arange(n_phase) / n_phase)
    y = phases
    deg = max(i for i, _, _ in struct.h_terms)
    coeffs = np.zeros((n_phase, deg + 1), dtype=complex)
    for i, j, c in struct.h_terms:
        coeffs[:, i] += c * y**j
    roots, ok = sf.all_roots(coeffs)
    assert ok.all()
    w1, w2 = surface.weights[:2]
    turned = np.exp(2j * np.pi * np.arange(n_phase) / n_phase * w1 / w2)[:, None] * struct.roots
    owner = np.abs(roots[:, :, None] - turned[:, None, :]).argmin(axis=2)
    curves = []
    n_axes = int(struct.has_x_branch) + int(struct.has_y_branch)
    for label in labels:
        if label < n_axes:
            axis = 1 if (label == 0 and struct.has_x_branch) else 0
            circle = np.zeros((n_phase, 3), dtype=complex)
            circle[:, axis] = radius * phases
            curves.append(circle[:, None, :])
            continue
        for t in np.flatnonzero(struct.orbit_of_trajectory == label):
            x = roots[owner == t]
            assert x.shape == (n_phase,)  # one root of trajectory t per phase
            pts = np.stack([x, y, np.zeros(n_phase)], axis=1)
            curves.append(sf.sphere_project(surface, pts, radius)[0][:, None, :])
    curves = np.concatenate(curves, axis=1)  # (n_phase, n_curves, 3)

    def chord(p, q):
        return np.sqrt((np.abs(p - q) ** 2).sum(axis=-1))

    # A root trajectory may close up on another one (monodromy), so the last
    # phase joins the nearest curve at the first phase.
    wrap = chord(curves[-1][:, None], curves[0][None, :]).min(axis=1).max()
    spacing = max(float(chord(curves[1:], curves[:-1]).max()), float(wrap))
    return curves.reshape(-1, 3), spacing


def nearest_dense(points, ref):
    """Distance from each point to the nearest reference point, by brute force."""
    p6, r6 = real6(points), real6(ref)
    nearest = ((r6**2).sum(axis=1) - 2.0 * p6 @ r6.T).argmin(axis=1)
    return np.linalg.norm(p6 - r6[nearest], axis=1)


def fine_orbit_distance(surface, points, seeds, n_nodes=256, n_newton=8):
    """Reference orbit distance: on a 256-node grid, eight exact Newton steps
    in theta from every grid peak (at most max(a, b) of them), the best kept."""
    if points.shape[0] > 2048:
        return np.concatenate([
            fine_orbit_distance(surface, points[lo:lo + 2048], seeds, n_nodes, n_newton)
            for lo in range(0, points.shape[0], 2048)
        ])
    a, b = se._orbit_steps(surface)
    grid = 2 * np.pi * np.arange(n_nodes) / n_nodes
    rows = np.arange(points.shape[0])
    best = np.full(points.shape[0], np.inf)
    for q in seeds:
        A, B = np.conj(points[:, 0]) * q[0], np.conj(points[:, 1]) * q[1]
        vals = (A[:, None] * np.exp(1j * a * grid) + B[:, None] * np.exp(1j * b * grid)).real
        peak = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
        vals[~peak] = -np.inf
        for _ in range(max(a, b)):
            node = vals.argmax(axis=1)
            live = np.isfinite(vals[rows, node])
            vals[rows, node] = -np.inf
            theta = grid[node]
            for _ in range(n_newton):
                ta, tb = A * np.exp(1j * a * theta), B * np.exp(1j * b * theta)
                d1 = -(a * ta.imag + b * tb.imag)
                d2 = -(a * a * ta.real + b * b * tb.real)
                theta = np.where(d2 < 0, theta - d1 / np.where(d2 < 0, d2, 1.0), theta)
            w = np.exp(1j * theta)
            near = q * np.stack([w**a, w**b, np.ones_like(w)], axis=1)
            d = np.linalg.norm(real6(points - near), axis=1)
            best = np.where(live, np.minimum(best, d), best)
    return best


BRANCH_CASES = {
    "bs1": (BS1, (0,), (1, 2)),
    "b245": (sf.brieskorn(2, 4, 5), (0,), (1,)),
}


class TestBisectorGap:
    def test_antipodal_closed_form(self):
        # z is fixed by the circle action, so seeds on the z-axis are single
        # points and the gap is the chord difference to two antipodes.
        rng = np.random.default_rng(5)
        p6 = rng.normal(size=(300, 6))
        p6 /= np.linalg.norm(p6, axis=1, keepdims=True)
        pts = p6[:, 0::2] + 1j * p6[:, 1::2]
        a = np.array([[0, 0, 1.0]], dtype=complex)
        u, near_a, near_b = se.bisector_gap(BS1, pts, a, -a)
        s = p6[:, 4]
        want = np.sqrt(2.0 - 2.0 * s) - np.sqrt(2.0 + 2.0 * s)
        assert np.allclose(u, want, atol=1e-12)
        assert np.all(np.sign(u[np.abs(s) > 1e-6]) == -np.sign(s[np.abs(s) > 1e-6]))
        assert np.array_equal(near_a, np.repeat(a, 300, axis=0))
        assert np.array_equal(near_b, np.repeat(-a, 300, axis=0))

    def test_axis_circles_closed_form(self):
        # The orbits of (0, r, 0) and (r, 0, 0) are the axis circles, with
        # d^2 = |p|^2 + r^2 - 2 r |p_y| (and |p_x|) and nearest point r p_y/|p_y|.
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
        r = 0.7
        sq = (np.abs(pts) ** 2).sum(axis=1) + r * r
        for surface in (BS1, sf.brieskorn(2, 4, 5)):
            u, near_a, near_b = se.bisector_gap(surface, pts, [[0, r, 0]], [[r, 0, 0]])
            want = np.sqrt(sq - 2 * r * np.abs(pts[:, 1])) - np.sqrt(sq - 2 * r * np.abs(pts[:, 0]))
            assert np.allclose(u, want, rtol=0, atol=1e-14 * np.sqrt(sq).max())
            assert np.allclose(near_a[:, 1], r * pts[:, 1] / np.abs(pts[:, 1]), atol=1e-12)
            assert np.all(near_a[:, [0, 2]] == 0) and np.all(near_b[:, 1:] == 0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        l1=st.floats(0.5, 2.0),
        l2=st.floats(0.5, 2.0),
        l3=st.floats(0.5, 2.0),
    )
    def test_diagonal_map_sandwich(self, l1, l2, l3):
        # A real diagonal map commutes with the circle action, so it maps each
        # seed orbit onto the orbit of the mapped seed.
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3.0
        b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) - 3.0
        diag = np.array([l1, l2, l3])
        _, near_a, near_b = se.bisector_gap(BS1, pts, a, b)
        d_a = np.linalg.norm(real6(pts - near_a), axis=1)
        d_b = np.linalg.norm(real6(pts - near_b), axis=1)
        u_l, _, _ = se.bisector_gap(BS1, pts * diag, a * diag, b * diag)
        lo, hi = min(l1, l2, l3), max(l1, l2, l3)
        assert np.all(u_l <= hi * d_a - lo * d_b + 1e-9)
        assert np.all(u_l >= lo * d_a - hi * d_b - 1e-9)

    @pytest.mark.parametrize("case", sorted(BRANCH_CASES))
    def test_matches_dense_branch_points(self, case):
        surface, a_labels, b_labels = BRANCH_CASES[case]
        struct = sf.slice_structure(surface)
        link = sp.sample_link(surface, EPS, 200, None, 3)
        a_seeds = se._branch_seeds(surface, struct, EPS, a_labels)
        b_seeds = se._branch_seeds(surface, struct, EPS, b_labels)
        u, near_a, near_b = se.bisector_gap(surface, link.points, a_seeds, b_seeds)
        exact = []
        for labels, near in ((a_labels, near_a), (b_labels, near_b)):
            ref, spacing = dense_branch_points(surface, labels, EPS, 1024)
            assert spacing < 0.02 * EPS
            d = np.linalg.norm(real6(link.points - near), axis=1)
            d_ref = nearest_dense(link.points, ref)
            assert np.all(d <= d_ref + 1e-14 * EPS)
            assert np.all(d_ref - d <= spacing)
            assert np.abs(np.linalg.norm(real6(near), axis=1) - EPS).max() <= 1e-14 * EPS
            assert np.all(near[:, 2] == 0)
            assert np.abs(sf.evaluate(surface, near)).max() <= sf._residual_bound(surface, EPS)
            exact.append(d)
        assert np.array_equal(u, exact[0] - exact[1])

    @pytest.mark.parametrize("case", sorted(BRANCH_CASES))
    def test_grid_newton_matches_fine_reference(self, case):
        surface, a_labels, b_labels = BRANCH_CASES[case]
        struct = sf.slice_structure(surface)
        link = sp.sample_link(surface, EPS, 4000, None, 4)
        for labels in [(label,) for label in a_labels + b_labels] + [b_labels]:
            seeds = se._branch_seeds(surface, struct, EPS, labels)
            d, _ = se._nearest_on_orbits(surface, link.points, seeds)
            want = fine_orbit_distance(surface, link.points, seeds)
            assert np.abs(d - want).max() <= 1e-14 * EPS


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
        u, near_a, near_b = se.bisector_gap(BS1, cloud.points, cloud.a_seeds, cloud.b_seeds)
        assert np.array_equal(u, cloud.u_values)
        d_a = np.linalg.norm(real6(cloud.points - near_a), axis=1)
        d_b = np.linalg.norm(real6(cloud.points - near_b), axis=1)
        assert np.array_equal(u, d_a - d_b)
        assert np.all(near_a[:, 0] == 0)  # label 0 is the branch {x = 0}
        assert np.abs(near_b[:, 0] ** 4 + near_b[:, 1] ** 6).max() <= 1e-12 * EPS**6

    def test_frames_match_band_geometry(self, cloud):
        g_norm, frames = se._band_geometry(
            cloud.surface, cloud.points, *nearest_branch_points(cloud)
        )
        assert np.array_equal(cloud.frames, frames)
        assert np.array_equal(cloud.band_weights, cloud.weights * g_norm / (2.0 * cloud.tau))

    def test_band_frames_are_orthonormal_and_normal_to_the_stack(self, cloud):
        """The QR frames are orthonormal and orthogonal to the three link
        normals and to grad u, also on a row where grad_tan u vanishes."""
        near_a, near_b = nearest_branch_points(cloud)
        near_b = near_b.copy()
        near_b[0] = near_a[0]  # dA = dB along every direction: grad u = 0
        g_norm, frames = se._band_geometry(cloud.surface, cloud.points, near_a, near_b)
        assert g_norm[0] == 0 and np.all(g_norm[1:] > 0)
        assert frames.shape == (cloud.n_points, 2, 6)
        assert np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(2)).max() <= 1e-14
        p6 = real6(cloud.points)
        chord_a, chord_b = p6 - real6(near_a), p6 - real6(near_b)
        grad_u = chord_a / np.linalg.norm(chord_a, axis=1, keepdims=True)
        grad_u -= chord_b / np.linalg.norm(chord_b, axis=1, keepdims=True)
        stack = np.concatenate(
            [se._link_normal_frames(cloud.surface, cloud.points), grad_u[:, None, :]], axis=1
        )
        assert np.abs(frames @ stack.transpose(0, 2, 1)).max() <= 1e-14

    def test_zero_tau_keeps_frames(self, monkeypatch):
        """Points exactly on the bisector are kept at tau = 0 with their
        frames and zero band weight."""
        gap = se.bisector_gap

        def on_bisector(*args):
            u, near_a, near_b = gap(*args)
            return 0.0 * u, near_a, near_b

        monkeypatch.setattr(se, "bisector_gap", on_bisector)
        c = se.conflict_set(BS1, EPS, (0,), (1, 2), 200, tau=0.0, seed=1)
        assert c.n_points > 0
        assert c.frames.shape == (c.n_points, 2, 6)
        assert np.all(c.band_weights == 0)

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
        assert c.frames.shape == (0, 2, 6)
        assert math.isinf(c.delta_hat)
        with pytest.raises(ValueError, match="empty"):
            se.tangent_cone_collapse(c, [EPS, 0.05])
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
        drift = np.abs(flowed(small_cloud, [EPS])[0] - small_cloud.points).max()
        assert drift <= 1e-9

    def test_orbit_power_consistency(self, small_cloud):
        base, moved = small_cloud.points, flowed(small_cloud, [EPS / 2])[0]
        t_z = moved[:, 2] / base[:, 2]
        assert np.abs(t_z.imag).max() <= 1e-10 * np.abs(t_z).max()
        t = t_z.real
        assert np.all((t > 0) & (t < 1))
        for col, power in ((0, 3), (1, 2)):
            mask = np.abs(base[:, col]) > 1e-8
            ratio = moved[mask, col] / base[mask, col]
            assert np.allclose(ratio, t[mask] ** power, rtol=1e-10)

    def test_flowed_points_sit_at_their_rung_radius(self, small_cloud):
        ladder = (EPS, 0.05, 0.01, 1e-3)
        for r, pts in zip(ladder, flowed(small_cloud, ladder)):
            assert pts.shape == small_cloud.points.shape
            norms = np.linalg.norm(real6(pts), axis=1)
            assert np.abs(norms - r).max() <= 1e-8 * r

    def test_flowed_points_stay_on_the_surface(self, small_cloud):
        bound = sf._residual_bound(BS1, EPS)
        for pts in flowed(small_cloud, (0.05, 0.01, 1e-3)):
            assert np.abs(sf.evaluate(BS1, pts)).max() <= bound

    def test_ladder_validation(self, small_cloud):
        for bad in ([], [0.0], [-0.1], [0.05, 0.05], [0.02, 0.05]):
            with pytest.raises(ValueError):
                se._orbit_flow(small_cloud, bad)
        with pytest.raises(ValueError, match="^rung ladder cannot exceed the link radius 0.1, got 0.2$"):
            se._orbit_flow(small_cloud, [2 * EPS])
        assert list(se._orbit_flow(small_cloud, [EPS * (1 + 1e-13)]))

    def test_failed_orbit_solve_is_a_flow_error(self, small_cloud, monkeypatch):
        def refuse(surface, points, radius):
            raise RuntimeError("no orbit root")

        monkeypatch.setattr(sf, "sphere_project", refuse)
        flow = se._orbit_flow(small_cloud, [0.05])  # the ladder is checked, nothing solved yet
        with pytest.raises(se.FlowError, match="^orbit solve failed at rung 0.05: no orbit root$"):
            next(flow)
        with pytest.raises(se.FlowError):
            se.tangent_cone_collapse(small_cloud, [0.05, 0.02])
        with pytest.raises(se.FlowError):
            se.cone_density_report(small_cloud, [0.05, 0.02])


def max_ratio(points):
    return float(se.transverse_ratio(points).max())


class TestCollapse:
    def test_flowed_cone_collapses(self, collapse):
        assert collapse.collapsed
        assert 0.7 < collapse.slope < 1.1
        assert collapse.final_ratio < 0.01
        assert len(collapse.max_ratios) == 7
        assert collapse.rungs == se.default_flow_ladder(EPS)

    def test_first_rung_matches_base_points(self, cloud, collapse):
        assert collapse.max_ratios[0] == pytest.approx(max_ratio(cloud.points), rel=1e-6)

    def test_ratios_decrease_along_ladder(self, collapse):
        ratios = collapse.max_ratios
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_isotropic_scaling_never_collapses(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        rungs = (1.0, 0.5, 0.25)
        result = se.collapse_table(rungs, [max_ratio(r * pts) for r in rungs])
        assert result.slope == pytest.approx(0.0, abs=1e-9)
        assert not result.collapsed

    def test_single_orbit_collapse_rate(self, cloud):
        p0 = cloud.points[:1]
        rungs, ratios = [], []
        for k in range(7):
            moved = p0 * (10.0 ** (-k)) ** np.array(BS1.scaling_exponents)
            rungs.append(float(np.linalg.norm(real6(moved))))
            ratios.append(max_ratio(moved))
        result = se.collapse_table(rungs, ratios)
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

    def test_table_validation(self, small_cloud):
        with pytest.raises(ValueError, match="one ratio per rung"):
            se.collapse_table((1.0, 0.5), [0.3])
        with pytest.raises(ValueError, match="at least two"):
            se.collapse_table((1.0,), [0.3])
        with pytest.raises(ValueError, match="at least two"):
            se.tangent_cone_collapse(small_cloud, [0.05])
        with pytest.raises(ValueError, match="cannot exceed the link radius"):
            se.tangent_cone_collapse(small_cloud, [2 * EPS, 0.05])

    def test_rule_thresholds(self):
        # Collapse needs slope >= 0.5 and a final ratio < 0.1; either one alone is not enough.
        rungs = (1.0, 0.01)
        assert se.collapse_table(rungs, (0.99, 0.09)).collapsed
        steep = se.collapse_table(rungs, (10.0, 0.1))
        assert steep.slope == pytest.approx(1.0) and not steep.collapsed
        shallow = se.collapse_table(rungs, (0.5, 0.09))
        assert shallow.slope < 0.5 and not shallow.collapsed


def nearest_branch_points(cloud):
    _, near_a, near_b = se.bisector_gap(cloud.surface, cloud.points, cloud.a_seeds, cloud.b_seeds)
    return near_a, near_b


def scalar_cone_measure(cloud, r):
    """Per-point scalar-loop + adaptive-quadrature route to the rung measure."""
    _, frames = se._band_geometry(cloud.surface, cloud.points, *nearest_branch_points(cloud))
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
    _, frames = se._band_geometry(cloud.surface, cloud.points, *nearest_branch_points(cloud))
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
        on_a = orbit_points(BS1, cloud.a_seeds, 200).reshape(-1, 3)
        on_b = orbit_points(BS1, cloud.b_seeds, 100).reshape(-1, 3)
        assert np.all(se.classify_sides(cloud, on_a) == 1)
        assert np.all(se.classify_sides(cloud, on_b) == -1)
        assert np.all(se.classify_sides(cloud, 0.3 * on_a) == 1)

    SIDE_PARAMS = dict(side_ladder=(EPS, 0.5 * EPS), n_side=1500, min_rung_points=10, seed=21)

    def _side_draws(self, cloud):
        """Each side rung's one ball draw and its classification."""
        seed = derive_seed(self.SIDE_PARAMS["seed"], "side", "A")
        for i, eps in enumerate(self.SIDE_PARAMS["side_ladder"]):
            ball = sp.sample_ball(BS1, eps, self.SIDE_PARAMS["n_side"], None,
                                  derive_seed(seed, "rung", i))
            yield ball, se.classify_sides(cloud, ball.points)

    def test_decomposition_partitions_the_ball(self, cloud):
        for ball, sides in self._side_draws(cloud):
            u, _, _ = se.bisector_gap(
                BS1, sf.sphere_project(BS1, ball.points, EPS)[0], cloud.a_seeds, cloud.b_seeds,
            )
            on_a, on_b, band = sides == 1, sides == -1, np.abs(u) <= cloud.tau
            # Every draw lies on exactly one side or in the band.
            assert np.array_equal(on_a.astype(int) + on_b + band, np.ones(ball.n_points, int))
            assert on_a.any() and on_b.any() and band.any()

    def test_side_carrier_samples_pure_sides(self, cloud):
        # Each side's rungs measure exactly the draws classified to that side.
        params = se.CertificateParams(**self.SIDE_PARAMS)
        a_report, b_report = se._side_reports(cloud, params)
        seed = derive_seed(21, "side", "A")
        assert a_report.seed == b_report.seed == seed
        assert (a_report.label, b_report.label) == (f"side-A({BS1.label})", f"side-B({BS1.label})")
        for i, (ball, sides) in enumerate(self._side_draws(cloud)):
            for rung, keep in ((a_report.rungs[i], sides == 1), (b_report.rungs[i], sides == -1)):
                assert rung.n_points == int(keep.sum())
                assert rung.measure == float(ball.weights[keep].sum())
                assert rung.se == bootstrap_sum_se(ball.weights[keep])

    def test_band_discard_monotone_in_tau(self):
        narrow = se.conflict_set(BS1, EPS, (0,), (1, 2), 4000, tau=2e-4, seed=11,
                                 threads=2)
        wide = dataclasses.replace(narrow, tau=2e-3)
        ball = sp.sample_ball(BS1, EPS, 800, None, 5)
        n0_narrow = int((se.classify_sides(narrow, ball.points) == 0).sum())
        n0_wide = int((se.classify_sides(wide, ball.points) == 0).sum())
        assert 0 < n0_narrow <= n0_wide

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_brieskorn_sides_mirror_each_other(self, seed):
        # x -> -x maps x^2 + y^4 + z^5 to itself and swaps its two slice
        # branches, and the ball sampler emits both sheets +-x of each draw.
        b245 = sf.brieskorn(2, 4, 5)
        reports = []
        for threads in (1, 2):
            params = se.CertificateParams(n_conflict=1500, n_side=600, seed=seed, threads=threads)
            cert = se.separating_certificate(b245, params)
            a, b = (dataclasses.asdict(r) for r in (cert.a_report, cert.b_report))
            assert a.pop("label") == f"side-A({b245.label})"
            assert b.pop("label") == f"side-B({b245.label})"
            assert a == b
            reports.append(a)
        assert reports[0] == reports[1]
        cloud = se.conflict_set(b245, EPS, (0,), None, 1500, 0.002 * EPS, seed)
        ball = sp.sample_ball(
            b245, EPS, 600, None, derive_seed(derive_seed(seed, "side", "A"), "rung", 0),
        )
        # Both sheets of every draw are inside the ball, one after the other.
        pts, w = ball.points, ball.weights
        assert np.array_equal(pts[0::2, 1:], pts[1::2, 1:])
        # The solver's two roots are negatives of each other to rounding, so
        # their weights agree to an ulp, not bitwise.
        assert pts[0::2, 0] == pytest.approx(-pts[1::2, 0], rel=1e-12)
        assert w[0::2] == pytest.approx(w[1::2], rel=1e-12)
        sides = se.classify_sides(cloud, pts)
        assert np.array_equal(sides[0::2], -sides[1::2])

    def test_band_nearly_invariant_along_orbits(self, cloud):
        # The circle action is an isometry that maps each branch onto itself.
        sub = subcloud(cloud, 2000)
        e = np.array(BS1.scaling_exponents)
        bound = _residual_bound_for_tests()
        for theta in np.linspace(0.0, 2 * np.pi, 11)[1:]:
            rotated = sub.points * np.exp(1j * e * theta)[None, :]
            assert np.abs(sf.evaluate(BS1, rotated)).max() <= bound
            norms = np.linalg.norm(real6(rotated), axis=1)
            assert np.abs(norms - EPS).max() <= 1e-12
            u, _, _ = se.bisector_gap(BS1, rotated, sub.a_seeds, sub.b_seeds)
            assert np.abs(u - sub.u_values).max() <= 1e-14 * EPS


def _residual_bound_for_tests():
    return 1e-9 * (1.0 + EPS ** (BS1.quasidegree / BS1.weights[2]))


def previous_thin_wedge(surface, eps_ws, rs, n, seed, min_cell_points):
    """The table's cells and slopes as assembled before the cells became
    density rungs, and the eps_w-exponents as the CLI runner fitted them."""
    cells = []
    for i, eps_w in enumerate(eps_ws):
        for j, r in enumerate(rs):
            cloud = sp.sample_ball(
                surface, r, n, sp.RegionSpec("thin-wedge", eps_w),
                derive_seed(seed, "cell", i, j), threads=1,
            )
            vals = cloud.weights * np.ones(cloud.n_points, dtype=bool)
            measure, se_ = float(vals.sum()), bootstrap_sum_se(vals)
            flagged = cloud.n_points < min_cell_points or measure <= 0.0
            cells.append(se.ThinWedgeCell(
                eps_w, r, measure, se_, cloud.n_points, measure / (eps_w * r**4), flagged,
            ))
    slopes = []
    for i, eps_w in enumerate(eps_ws):
        row = [c for c in cells[i * len(rs):(i + 1) * len(rs)] if not c.flagged]
        if len(row) >= 2:
            slope, _, _, _ = loglog_fit([c.r for c in row], [c.measure for c in row])
        else:
            slope = math.nan
        slopes.append((eps_w, slope))
    exponents = []
    for j, r in enumerate(rs):
        col = [cells[i * len(rs) + j] for i in range(len(eps_ws))]
        if len(col) >= 2 and all(not c.flagged for c in col):
            slope, _, _, _ = loglog_fit([c.eps_w for c in col], [c.measure for c in col])
        else:
            slope = math.nan
        exponents.append([r, slope])
    return cells, slopes, exponents


class TestThinWedge:
    def test_tolerance_one_wedge_is_whole_ball(self):
        plain = sp.sample_ball(BS0, 0.5, 3000, None, 7)
        wedge = sp.sample_ball(
            BS0, 0.5, 3000, sp.RegionSpec("thin-wedge", 1.0), 7
        )
        assert np.array_equal(plain.points, wedge.points)
        assert np.array_equal(plain.weights, wedge.weights)

    def test_measure_monotone_in_wedge_width(self):
        kept = []
        for eps_w in (0.1, 0.2):
            c = sp.sample_ball(
                BS0, 0.4, 4000, sp.RegionSpec("thin-wedge", eps_w), 3
            )
            kept.append((c.n_points, float(c.weights.sum())))
        assert kept[0][0] < kept[1][0]
        assert kept[0][1] < kept[1][1]

    def test_volume_table(self):
        table = se.thin_wedge_volume(
            BS0, (0.2, 0.1), (0.4, 0.25, 0.16, 0.1), 10000, seed=0, threads=2
        )
        # At radii this far above the guarantee's, the eps_w = 0.1 row's
        # r-exponent (4.41) lies outside 4 +- 0.3; that check alone fails.
        assert [c.name for c in table.checks if not c.holds] == ["r-exponent distance from 4"]
        assert not table.passed
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

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("starve_smallest", [False, True])
    def test_cells_and_fits_match_the_previous_assembly(self, seed, starve_smallest):
        eps_ws, rs = (0.3, 0.2), (0.4, 0.2)
        min_points = 50
        if starve_smallest:  # flag exactly the cell with the fewest points
            table = se.thin_wedge_volume(BS0, eps_ws, rs, 2000, seed)
            min_points = min(c.n_points for c in table.cells) + 1
        table = se.thin_wedge_volume(BS0, eps_ws, rs, 2000, seed, min_cell_points=min_points)
        cells, slopes, exponents = previous_thin_wedge(BS0, eps_ws, rs, 2000, seed, min_points)
        # repr round-trips every float, so equal reprs are equal bits (NaN included).
        assert repr(table.cells) == repr(tuple(cells))
        assert repr(table.r_slopes) == repr(tuple(slopes))
        assert repr(table.eps_w_exponents) == repr(tuple(map(tuple, exponents)))
        assert sum(c.flagged for c in table.cells) == int(starve_smallest)
        finite = [math.isfinite(s) for _, s in table.eps_w_exponents]
        assert finite.count(False) == int(starve_smallest)
        report = se.thin_wedge_dict(table)
        assert repr(report["eps_w_exponents"]) == repr(table.eps_w_exponents)

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
        # repr compares every float bit for bit, NaN included (a single eps_w
        # leaves the eps_w-exponent, and so its check value, NaN).
        assert repr(se.thin_wedge_dict(a)) == repr(se.thin_wedge_dict(b))

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
        for ladder in (p.resolved_m_ladder(), p.resolved_side_ladder()):
            assert ladder[0] <= 0.2 + 1e-12
            assert all(a > b for a, b in zip(ladder, ladder[1:]))

    def test_ladders_above_the_link_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^m_ladder cannot exceed the link radius 0.2, got 0.3$"):
            se.CertificateParams(link_radius=0.2, m_ladder=(0.3, 0.1))
        # Side rungs are ball radii, not rungs flowed down from the link.
        assert se.CertificateParams(side_ladder=(0.5, 0.2)).side_ladder == (0.5, 0.2)
        assert se.CertificateParams(m_ladder=(0.1 * (1 + 1e-13), 0.05)).m_ladder

    def test_malformed_side_ladder_rejected_at_construction(self):
        # Before any sampling, and naming the field rather than the density ladder.
        with pytest.raises(ValueError, match="^side_ladder must be strictly decreasing$"):
            se.CertificateParams(side_ladder=(0.05, 0.1), n_conflict=2000, n_side=200)
        with pytest.raises(ValueError, match="^side_ladder radii must be positive$"):
            se.CertificateParams(side_ladder=(0.1, -0.05))
        assert se.CertificateParams(side_ladder=()).resolved_side_ladder()

    def test_starved_band_is_inconclusive(self):
        params = se.CertificateParams(tau=1e-9, n_conflict=400, n_side=200)
        cert = se.separating_certificate(BS1, params)
        assert cert.verdict == "inconclusive"
        assert cert.reason == "bisector band starved (0 points)"
        assert cert.m_report is None

    def test_failed_orbit_flow_is_inconclusive(self, monkeypatch):
        project = sf.sphere_project

        def refuse_below_link(surface, points, radius):
            if radius < EPS:
                raise RuntimeError("orbit root lost")
            return project(surface, points, radius)

        monkeypatch.setattr(sf, "sphere_project", refuse_below_link)
        cert = se.separating_certificate(BS1, se.CertificateParams(n_conflict=2000, n_side=200))
        assert cert.verdict == "inconclusive"
        assert cert.reason == (
            "construction failed: orbit solve failed at rung 0.05: orbit root lost"
        )

    def test_single_component_slice_means_no_evidence(self):
        cert = se.separating_certificate(BS0)
        assert cert.verdict == "no-evidence"
        assert "1 component" in cert.reason
        assert cert.m_report is None
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
        # The band's collapse is tangent-cone's: the same band, flowed.
        cloud = se.conflict_set(BS1, EPS, (0,), None, 8000, params.resolved_tau(), 0, threads=2)
        assert se.tangent_cone_collapse(cloud, se.default_flow_ladder(EPS)).collapsed
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
                "x", 3, 1.0, None, None, None,
                "separating-evidence", "", se.CertificateParams(),
            )
        with pytest.raises(ValueError, match="unknown verdict"):
            se.SeparatingCertificate(
                "x", 1, 1.0, None, None, None,
                "maybe", "", se.CertificateParams(),
            )
