"""Samplers: measure anchors, Jacobian cross-checks, regions, thread invariance.

Oracles used here and nowhere in the package:
* analytic volumes 2*pi^2*r^3 (3-sphere) and pi^2/2 (unit 4-ball) on the flat
  surface {x=0};
* a closed-form link Jacobian assembled from implicit derivatives at the
  direction-sphere point plus the orbit-projection correction, and, for the
  z-fiber route, the central finite-difference Jacobian with its own root
  matcher;
* deterministic radial quadrature of the area of the curved graph {x = z^2}
  inside the unit ball;
* exact branch equations for slice components (x^4 = -y^6, x = +-i y^2) and
  the closed-form slice orbits of ``slice_structure``: over y = e^(i phi) the
  roots of h are e^(i phi w1/w2) * xi for the roots xi of h(x, 1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from singlab import sampling as sp
from singlab import separating as se
from singlab import surfaces as sf
from singlab.util import bootstrap_sum_se, derive_rng, real6, shard_counts

PLANE = sf.WeightedSurface((2, 2, 1), 2, (((1, 0, 0), 1.0),), "plane-x0")
PARABOLOID = sf.WeightedSurface(
    (2, 2, 1), 2, (((1, 0, 0), 1.0), ((0, 0, 2), -1.0)), "graph-z2"
)
BS0 = sf.briancon_speder(0)
BS1 = sf.briancon_speder(1)


def rel_err(a, b):
    return abs(a - b) / abs(b)


def assert_same_cloud(a, b):
    """Bitwise equal points, weights, residuals and rejection counts."""
    for name in ("points", "weights", "residuals"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.n_rejected == b.n_rejected


def in_region(points, region):
    """``sp.in_wedge`` on the |y| and |z| of one (3,) point or an (n, 3) batch."""
    pts = np.atleast_2d(points)
    return sp.in_wedge(region.kind, region.eps_w, np.abs(pts[:, 1]), np.abs(pts[:, 2]))


def assert_on_surface(cloud, surface, radius, region=None):
    """What a sampler guarantees of each point it emits: the stored and the
    recomputed |f| are within the residual bound, and the point is in the region."""
    bound = sf._residual_bound(surface, radius)
    assert (cloud.residuals <= bound).all()
    assert (np.abs(sf.evaluate(surface, cloud.points)) <= bound).all()
    if region is not None:
        assert in_region(cloud.points, region).all()


class TestRegions:
    def test_wedge_examples(self):
        w = sp.RegionSpec("wedge", 0.1)
        tw = sp.RegionSpec("thin-wedge", 0.1)
        p_in = np.array([0, 1, 1], dtype=complex)
        p_thin = np.array([0, 1, 0.05], dtype=complex)
        assert in_region(p_in, w).all()
        assert in_region(p_thin, tw).all()
        assert not in_region(p_thin, w).any()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        yr=st.floats(-2, 2), yi=st.floats(-2, 2),
        zr=st.floats(-2, 2), zi=st.floats(-2, 2),
        eps=st.floats(0.01, 1.0),
    )
    def test_wedge_thin_wedge_cover_everything(self, yr, yi, zr, zi, eps):
        p = np.array([0.3, complex(yr, yi), complex(zr, zi)])
        w = sp.RegionSpec("wedge", eps)
        tw = sp.RegionSpec("thin-wedge", eps)
        assert (in_region(p, w) | in_region(p, tw)).all()

    def test_region_validation(self):
        for kind in ("blob", "ball", "link-sphere", "custom-predicate"):
            with pytest.raises(ValueError, match="unknown region kind"):
                sp.RegionSpec(kind, 1.0)
        for eps_w in (1.5, 0.0, math.nan):
            with pytest.raises(ValueError, match="eps_w"):
                sp.RegionSpec("wedge", eps_w)


class TestLinkSampler:
    def test_flat_sphere_volume_anchor(self):
        cloud = sp.sample_link(PLANE, 1.0, 100_000, seed=101, threads=4)
        total = cloud.total_weight()
        target = 2.0 * math.pi**2
        se = bootstrap_sum_se(cloud.weights)
        assert rel_err(total, target) < 0.03
        assert abs(total - target) <= max(3.0 * se, 5e-3 * target)

    def test_flat_sphere_volume_scales_with_radius(self):
        cloud = sp.sample_link(PLANE, 0.5, 20_000, seed=102)
        assert rel_err(cloud.total_weight(), 2.0 * math.pi**2 * 0.125) < 0.03

    def test_link_constraints(self):
        cloud = sp.sample_link(BS0, 0.1, 5000, seed=103, threads=4)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.all(np.abs(norms - 0.1) <= 1e-8 * 0.1)
        assert np.all(cloud.residuals <= 1e-9 * (1 + 0.1**15))
        assert_on_surface(cloud, BS0, 0.1)

    def test_wedge_region_monotone(self):
        wide = sp.sample_link(BS0, 0.1, 3000, sp.RegionSpec("wedge", 0.1), seed=7)
        narrow = sp.sample_link(BS0, 0.1, 3000, sp.RegionSpec("wedge", 0.5), seed=7)
        assert wide.total_weight() > narrow.total_weight()
        assert in_region(wide.points, sp.RegionSpec("wedge", 0.1)).all()

    def test_dual_parametrization_totals_agree(self):
        a = sp.sample_link(BS0, 0.1, 6000, seed=5, threads=4)
        b = sp.sample_link(BS0, 0.1, 2500, seed=6, threads=4, fiber_axis="z")
        se_a = bootstrap_sum_se(a.weights)
        se_b = bootstrap_sum_se(b.weights)
        assert abs(a.total_weight() - b.total_weight()) <= 3.0 * (se_a + se_b)

    def test_weights_match_analytic_jacobian(self):
        # Reconstruct (direction, sheet) for every sampled point and recompute
        # the 3-Jacobian from implicit derivatives + the projection correction.
        for surface in (BS0, BS1):
            cloud = sp.sample_link(surface, 0.1, 150, seed=11)
            assert cloud.n_points == 150 * 5
            for p, w in zip(cloud.points, cloud.weights):
                jac_pkg = w * cloud.n_draws / (2.0 * math.pi**2)
                jac_ana = _analytic_link_jacobian(surface, p, 0.1)
                assert rel_err(jac_pkg, jac_ana) < 1e-12

    @pytest.mark.parametrize(
        "surface", [BS0, BS1, sf.brieskorn(2, 4, 5)], ids=["bs0", "bs1", "b245"]
    )
    def test_z_fiber_weights_match_finite_differences(self, surface):
        u4 = np.random.default_rng(12).normal(size=(400, 4))
        u4 /= np.linalg.norm(u4, axis=1, keepdims=True)
        pts, w, fit, _ = sp._link_rows(surface, 0.1, 400, u4, 2)
        keep = (fit & np.isfinite(w) & (w > 0)).reshape(-1)
        pts, w = pts[keep], w.reshape(-1)[keep]
        fd_pts, fd_jac, fd_keep = _fd_link_jacobian(surface, 0.1, u4, 2)
        fd = {p.tobytes(): j for p, j in zip(fd_pts[fd_keep], fd_jac[fd_keep])}
        compared = 0
        for p, weight in zip(pts, w):
            if p.tobytes() in fd:
                jac = weight * 400 / (2.0 * math.pi**2)
                assert rel_err(jac, fd[p.tobytes()]) < 1e-6
                compared += 1
        assert compared >= 0.95 * pts.shape[0] > 0

    def test_determinism_across_threads(self):
        # 2001 draws split into uneven per-thread batches, and 3 draws over
        # more threads than draws, which leaves some per-thread batches empty.
        for surface in (BS0, BS1):
            for n, counts, axes in ((2001, (2, 3, 4), "x"), (3, (4, 8), "xz")):
                for axis in axes:
                    a = sp.sample_link(surface, 0.1, n, seed=42, threads=1, fiber_axis=axis)
                    assert a.n_points > 0
                    for threads in counts:
                        b = sp.sample_link(
                            surface, 0.1, n, seed=42, threads=threads, fiber_axis=axis
                        )
                        assert_same_cloud(a, b)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sp.sample_link(BS0, -1.0, 100)
        with pytest.raises(ValueError):
            sp.sample_link(BS0, 0.1, 0)
        with pytest.raises(ValueError, match='"x" or "z"'):
            sp.sample_link(BS0, 0.1, 100, fiber_axis="y")


def _analytic_link_jacobian(surface, p, radius):
    """Closed-form 3-Jacobian of the direction-sphere parametrization at p."""
    e = np.array(surface.scaling_exponents)

    # Orbit time at which the (y,z)-part reaches norm 1, by bisection.
    sy, sz = abs(p[1]) ** 2, abs(p[2]) ** 2
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = sy * math.exp(2 * e[1] * mid) + sz * math.exp(2 * e[2] * mid)
        lo, hi = (lo, mid) if val > 1.0 else (mid, hi)
    t_star = math.exp(0.5 * (lo + hi))
    q = p * t_star**e
    u4 = real6(q.reshape(1, 3))[0, 2:]
    assert abs(np.linalg.norm(u4) - 1.0) < 1e-12

    tau = np.linalg.svd(u4[None, :])[2][1:, :]
    dxdy, dxdz = sf.implicit_derivatives(surface, q)
    _, t_back = sf.sphere_project(surface, q, radius)
    cols = []
    for j in range(3):
        dy = complex(tau[j, 0], tau[j, 1])
        dz = complex(tau[j, 2], tau[j, 3])
        dx = dxdy * dy + dxdz * dz
        v = np.array([dx, dy, dz])
        av = v * t_back**e
        w_vec = e * t_back ** (e - 1) * q
        proj = p  # == q * t_back**e, the weighted scaling of q
        dt = -float(np.real(np.vdot(proj, av))) / float(np.real(np.vdot(proj, w_vec)))
        dp = av + w_vec * dt
        cols.append(real6(dp.reshape(1, 3))[0])
    gram = np.array([[c1 @ c2 for c2 in cols] for c1 in cols])
    return math.sqrt(np.linalg.det(gram))


def _match_roots(base, pert, base_gap):
    """Continue each base root to the nearest perturbed root.

    Returns (matched roots, ok) where ok is False when the assignment is
    ambiguous: the root moved at least 45% of the way to its nearest sibling,
    or the second-closest candidate is within a factor 2 of the closest.
    """
    dist = np.abs(base[:, :, None] - pert[:, None, :])
    idx = dist.argmin(axis=2)
    d1 = np.take_along_axis(dist, idx[:, :, None], axis=2)[:, :, 0]
    matched = np.take_along_axis(pert, idx, axis=1)
    ok = d1 < 0.45 * base_gap
    if base.shape[1] >= 2:
        d2 = np.partition(dist, 1, axis=2)[:, :, 1]
        ok &= d2 >= 2.0 * d1
    return matched, ok


def _fd_link_jacobian(surface, radius, u4, axis, h=1e-6):
    """Central finite-difference 3-Jacobian of direction -> link point.

    Re-solves the fiber at u ± h·tau along the tangent triad, continues each
    sheet by nearest-root matching, and projects to the sphere.  Returns the
    base link points, the Jacobians and the keep mask, one row per
    (draw, sheet).
    """
    free = [i for i in range(3) if i != axis]

    def solve_at(u):
        uc, vc = u[:, 0] + 1j * u[:, 1], u[:, 2] + 1j * u[:, 3]
        roots, ok = sf.all_roots(sf.fiber_coefficients(surface, uc, vc, axis))
        return uc, vc, np.where(np.isfinite(roots), roots, 1.0), ok

    def project(roots, uc, vc):
        pts = np.empty(roots.shape + (3,), dtype=complex)
        pts[..., axis] = roots
        pts[..., free[0]] = uc[:, None]
        pts[..., free[1]] = vc[:, None]
        return sf.sphere_project(surface, pts.reshape(-1, 3), radius)[0]

    uc, vc, roots, keep = solve_at(u4)
    degree = roots.shape[1]
    gap = sf._root_gaps(roots)
    keep = np.repeat(keep[:, None], degree, axis=1)
    tau = np.linalg.svd(u4[:, None, :])[2][:, 1:, :]
    fd = np.empty((u4.shape[0] * degree, 3, 6))
    for j in range(3):
        sides = []
        for sign in (1.0, -1.0):
            up = u4 + sign * h * tau[:, j, :]
            up /= np.linalg.norm(up, axis=1, keepdims=True)
            upc, vpc, proots, pok = solve_at(up)
            matched, mok = _match_roots(roots, proots, gap)
            keep &= pok[:, None] & mok
            sides.append(real6(project(matched, upc, vpc)))
        fd[:, j, :] = (sides[0] - sides[1]) / (2.0 * math.atan(h))
    jac = np.sqrt(np.linalg.det(fd @ fd.transpose(0, 2, 1)))
    return project(roots, uc, vc), jac, keep.reshape(-1)


def reference_ball(surface, radius, n, region, seed):
    """``sample_ball`` at one thread with every draw solved: all n (y,z) rows
    go through ``sf.all_roots`` in one batch, and the ball and region filters
    run on the sheet points afterwards."""
    R = radius
    draws = np.concatenate([
        derive_rng(seed, "ball", i).random((5, m)).T
        for i, m in enumerate(shard_counts(n, sp.N_SHARDS))
    ])
    y = R * np.sqrt(draws[:, 0]) * np.exp(2j * math.pi * draws[:, 1])
    heavy = draws[:, 2] < 0.5
    u = draws[:, 3]
    rho = np.where(heavy, R * u ** 2.5, R * np.sqrt(u))
    z = rho * np.exp(2j * math.pi * draws[:, 4])
    pdf_y = 1.0 / (math.pi * R**2)
    with np.errstate(divide="ignore"):
        heavy_pdf = rho ** (-1.6) / (5.0 * math.pi * R**0.4)
    pdf_z = 0.5 / (math.pi * R**2) + 0.5 * heavy_pdf

    roots, ok_row = sf.all_roots(sf.fiber_coefficients(surface, y, z))
    degree = roots.shape[1]
    gap = sf._root_gaps(roots)
    scale = np.maximum(np.abs(roots).max(axis=1), 1e-300)
    keep = ok_row[:, None] & (gap >= sp.SEPARATION_REL * scale[:, None])
    pts = np.empty((n, degree, 3), dtype=complex)
    pts[:, :, 0] = roots
    pts[:, :, 1] = y[:, None]
    pts[:, :, 2] = z[:, None]
    flat_pts = pts.reshape(-1, 3)
    grad = sf.gradient(surface, flat_pts).reshape(n, degree, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = 1.0 + (np.abs(grad[:, :, 1]) ** 2 + np.abs(grad[:, :, 2]) ** 2) / (
            np.abs(grad[:, :, 0]) ** 2
        )
    keep &= np.isfinite(jac)
    residual = np.abs(sf.evaluate(surface, flat_pts)).reshape(n, degree)
    keep &= residual <= sf._residual_bound(surface, R)
    weights = jac / (n * pdf_y * pdf_z[:, None])
    keep &= np.isfinite(weights) & (weights > 0)
    n_rejected = int((~keep).sum())

    keep &= np.linalg.norm(flat_pts, axis=1).reshape(n, degree) <= R
    flat = keep.reshape(-1)
    out = flat_pts[flat], weights.reshape(-1)[flat], residual.reshape(-1)[flat]
    if region is not None:
        mask = in_region(out[0], region)
        out = tuple(a[mask] for a in out)
    return sp.PointCloud(*out, n_draws=n, n_rejected=n_rejected)


class TestBallSampler:
    def test_flat_ball_volume_anchor(self):
        cloud = sp.sample_ball(PLANE, 1.0, 100_000, seed=201, threads=4)
        total = cloud.total_weight()
        target = math.pi**2 / 2.0
        se = bootstrap_sum_se(cloud.weights)
        assert rel_err(total, target) < 0.03
        assert abs(total - target) <= max(3.0 * se, 5e-3 * target)

    def test_curved_graph_area_matches_quadrature(self):
        # Area of {x = z^2} in the unit 6-ball: for |z| = rho the y-disk has
        # radius sqrt(1 - rho^2 - rho^4) and the graph area factor is 1+4rho^2.
        rho_max = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)
        target, _ = quad(
            lambda rho: (1 + 4 * rho**2) * math.pi * (1 - rho**2 - rho**4) * 2 * math.pi * rho,
            0.0, rho_max,
        )
        cloud = sp.sample_ball(PARABOLOID, 1.0, 100_000, seed=202, threads=4)
        se = bootstrap_sum_se(cloud.weights)
        assert abs(cloud.total_weight() - target) <= max(3.0 * se, 0.01 * target)
        assert_on_surface(cloud, PARABOLOID, 1.0)

    def test_ball_region_partition_is_exact(self):
        r = 0.1
        full = sp.sample_ball(BS1, r, 20_000, seed=33, threads=4)
        wedge = sp.sample_ball(BS1, r, 20_000, sp.RegionSpec("wedge", 0.2), seed=33, threads=4)
        thin = sp.sample_ball(BS1, r, 20_000, sp.RegionSpec("thin-wedge", 0.2), seed=33, threads=4)
        assert wedge.n_points + thin.n_points == full.n_points
        assert abs(wedge.total_weight() + thin.total_weight() - full.total_weight()) < 1e-12
        everything = sp.sample_ball(
            BS1, r, 20_000, sp.RegionSpec("thin-wedge", 1.0), seed=33, threads=4
        )
        assert everything.total_weight() == full.total_weight()
        # Filtering during sampling keeps exactly the region-free cloud's
        # points in the region, with the same bits, at any thread count.
        for kind in ("wedge", "thin-wedge"):
            region = sp.RegionSpec(kind, 0.2)
            mask = in_region(full.points, region)
            for threads in (1, 3):
                cloud = sp.sample_ball(BS1, r, 20_000, region, seed=33, threads=threads)
                for name in ("points", "weights", "residuals"):
                    expected = getattr(full, name)[mask]
                    assert getattr(cloud, name).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("surface", [BS0, BS1], ids=["BS0", "BS1"])
    @pytest.mark.parametrize("seed, radius", [(0, 0.05), (5, 0.1), (9, 0.3)])
    def test_prefilter_drops_nothing(self, surface, seed, radius):
        for region in (
            None,
            sp.RegionSpec("wedge", 0.2),
            sp.RegionSpec("thin-wedge", 0.1),
        ):
            ref = reference_ball(surface, radius, 3000, region, seed)
            cloud = sp.sample_ball(surface, radius, 3000, region, seed=seed, threads=1)
            assert cloud.n_points > 0
            for name in ("points", "weights", "residuals"):
                assert getattr(cloud, name).tobytes() == getattr(ref, name).tobytes()
            assert cloud.n_rejected <= ref.n_rejected

    def test_prefilter_solves_few_rows(self, monkeypatch):
        rows = []
        all_roots = sf.all_roots

        def counting(coeffs, *args, **kwargs):
            rows.append(coeffs.shape[0])
            return all_roots(coeffs, *args, **kwargs)

        monkeypatch.setattr(sf, "all_roots", counting)
        region = sp.RegionSpec("thin-wedge", 0.1)
        cloud = sp.sample_ball(BS0, 0.05, 6000, region, seed=0, threads=1)
        assert cloud.n_points > 0
        assert 0 < sum(rows) < 0.3 * 6000

    def test_region_soundness_and_residuals(self):
        region = sp.RegionSpec("thin-wedge", 0.1)
        cloud = sp.sample_ball(BS0, 0.1, 20_000, region, seed=34, threads=4)
        assert cloud.n_points > 0
        assert_on_surface(cloud, BS0, 0.1, region)

    def test_determinism_across_threads(self):
        # As for the link sampler, n = 3 leaves some per-thread batches empty
        # (seed 9: two of the three draws land in the ball).
        for n, seed, counts in ((5001, 42, (2, 3)), (3, 9, (4, 8))):
            a = sp.sample_ball(BS1, 0.1, n, seed=seed, threads=1)
            assert a.n_points > 0
            for threads in counts:
                b = sp.sample_ball(BS1, 0.1, n, seed=seed, threads=threads)
                assert_same_cloud(a, b)


def branch_circles(surface, radius, labels, n=64, structure=None):
    """Seeds of the slice branches ``labels`` on the link and n points of each
    seed's circle orbit, shape (len(labels), n, 3)."""
    structure = structure or sf.slice_structure(surface)
    seeds = se._branch_seeds(surface, structure, radius, labels)
    a, b = se._orbit_steps(surface)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    return seeds, seeds[:, None, :] * np.stack([w**a, w**b, np.ones(n)], axis=1)


class TestBranchLinkSamples:
    """The link circles of the z=0 slice branches as the conflict sets store
    them: one seed per branch label and its circle orbit."""

    def test_on_link_and_labeled(self):
        seeds, circles = branch_circles(BS1, 0.1, [0, 1, 2], n=128)
        assert seeds.shape == (3, 3)
        pts = circles.reshape(-1, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 0.1, rtol=1e-10)
        assert np.abs(sf.evaluate(BS1, pts)).max() < 1e-12
        assert np.all(pts[:, 2] == 0)
        cloud = se.conflict_set(BS1, 0.1, (0,), None, 50, seed=1)
        assert (cloud.a_labels, cloud.b_labels) == ((0,), (1, 2))
        assert np.array_equal(cloud.a_seeds, seeds[:1])
        assert np.array_equal(cloud.b_seeds, seeds[1:])

    def test_label_selection(self):
        seeds, circles = branch_circles(BS1, 0.1, [0], n=64)
        assert seeds.shape == (1, 3)
        assert np.abs(circles[..., 0]).max() == 0.0
        with pytest.raises(ValueError):
            se.conflict_set(BS1, 0.1, (0,), (7,), 50)

    def test_brieskorn_branches_satisfy_equations(self):
        _, circles = branch_circles(sf.brieskorn(2, 4, 5), 0.2, [0, 1], n=64)
        for sel in circles:
            res = np.minimum(
                np.abs(sel[:, 0] - 1j * sel[:, 1] ** 2),
                np.abs(sel[:, 0] + 1j * sel[:, 1] ** 2),
            )
            assert res.max() < 1e-10

    def test_briancon_speder_labels(self):
        struct = sf.slice_structure(BS1)
        assert struct.labels == [0, 1, 2]
        _, circles = branch_circles(BS1, 0.5, [0, 1, 2], n=256, structure=struct)
        assert np.abs(circles[0, :, 0]).max() == 0.0
        for sel in circles[1:]:
            resid = np.abs(sel[:, 0] ** 4 + sel[:, 1] ** 6)
            assert resid.max() < 1e-12 * np.abs(sel[:, 1] ** 6).max()
        # The two h-branches are distinct circles.
        assert np.abs(circles[1][:, None, :] - circles[2][None, :, :]).sum(axis=2).min() > 1e-3

        assert sf.slice_structure(BS0).labels == [0]
        _, circles = branch_circles(BS0, 0.5, [0], n=256)
        assert np.abs(circles[..., 0]).max() == 0.0

    def test_brieskorn_245_sign_branches(self):
        _, circles = branch_circles(sf.brieskorn(2, 4, 5), 0.5, [0, 1], n=256)
        signs = []
        for sel in circles:
            plus = np.abs(sel[:, 0] - 1j * sel[:, 1] ** 2).max()
            minus = np.abs(sel[:, 0] + 1j * sel[:, 1] ** 2).max()
            assert min(plus, minus) < 1e-12
            signs.append(plus < minus)
        assert signs[0] != signs[1]

    def test_degenerate_slice_raises(self):
        s = sf.WeightedSurface((3, 2, 1), 4, (((1, 0, 1), 1.0), ((0, 1, 2), 1.0)))
        with pytest.raises(sf.DegenerateSliceError):
            se.conflict_set(s, 0.5, (0,), (1,), 50)

    @pytest.mark.parametrize(
        "surface",
        [BS1, sf.briancon_speder(0.37 + 0.2j), sf.brieskorn(2, 4, 5), sf.brieskorn(2, 2, 3)],
        ids=["bs1", "bs-complex", "b245", "b223"],
    )
    def test_circles_follow_the_tracked_trajectories(self, surface):
        # One seed's circle orbit is its whole branch: flowed back to the unit
        # y-circle at phase phi, it passes through e^(i phi w1/w2) * xi for
        # every root xi of h(x, 1) that slice_structure puts in that label's
        # orbit, at every phase of a 64-step grid.
        n_steps = 64
        struct = sf.slice_structure(surface)
        orbit_labels = sorted(set(struct.orbit_of_trajectory.tolist()))
        assert orbit_labels
        a, b = se._orbit_steps(surface)
        seeds, _ = branch_circles(surface, 0.1, orbit_labels, structure=struct)
        # Orbit angles whose y-phase b*theta is a grid phase, all b sheets of it.
        phase = 2 * np.pi * np.arange(n_steps) / n_steps
        theta = (phase[:, None] + 2 * np.pi * np.arange(b)) / b
        e = np.array(surface.scaling_exponents)
        w1, w2 = surface.weights[:2]
        for label, seed in zip(orbit_labels, seeds):
            pts = seed * np.exp(1j * theta[..., None] * np.array([a, b, 0]))
            back = pts * (1.0 / np.abs(pts[..., 1:2])) ** (e / e[1])
            want_y = np.exp(1j * phase)[:, None]
            assert np.abs(back[..., 1] - want_y).max() <= 1e-14
            traj = np.flatnonzero(struct.orbit_of_trajectory == label)
            assert traj.size == b
            turned = np.exp(1j * phase * w1 / w2)[:, None] * struct.roots[traj]
            gap = np.abs(back[:, :, None, 0] - turned[:, None, :]).min(axis=1)
            assert gap.max() <= 1e-12 * np.abs(turned).max()


class TestPointCloud:
    def test_invariant_enforcement(self):
        pts = np.zeros((2, 3), complex)
        with pytest.raises(ValueError):
            sp.PointCloud(pts, [1.0, -1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            sp.PointCloud(pts, [1.0], [0.0, 0.0])

    def test_draw_bookkeeping(self):
        cloud = sp.sample_link(BS0, 0.1, 500, seed=2)
        assert cloud.n_draws == 500
        assert cloud.n_rejected >= 0


@pytest.mark.parametrize("sampler", [sp.sample_link, sp.sample_ball], ids=["link", "ball"])
class TestPipeline:
    """The argument checks and the acceptance rule both samplers share."""

    def test_bad_arguments(self, sampler):
        for radius in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="radius"):
                sampler(BS0, radius, 100)
        with pytest.raises(ValueError, match="n must be positive"):
            sampler(BS0, 0.1, 0)
        # A fractional count would divide the weights by more than it draws.
        with pytest.raises(TypeError):
            sampler(BS0, 0.1, 4000.7, seed=1)

    def test_integer_like_count(self, sampler):
        a = sampler(BS0, 0.1, np.int64(4000), seed=1)
        b = sampler(BS0, 0.1, 4000, seed=1)
        assert a.n_draws == 4000
        assert_same_cloud(a, b)

    def test_sheets_over_the_residual_bound_are_rejected(self, sampler, monkeypatch):
        # Every solved sheet fails the residual test; the link solves all
        # 500 draws, the ball the 326 whose base can reach the ball, 5 sheets each.
        monkeypatch.setattr(sf, "_residual_bound", lambda surface, radius: -1.0)
        cloud = sampler(BS0, 0.1, 500, seed=1)
        assert cloud.n_points == 0
        assert cloud.n_rejected == {sp.sample_link: 2500, sp.sample_ball: 1630}[sampler]


def test_tangent_triad_is_orthonormal_and_tangent():
    """The quaternion triad u·i, u·j, u·k at unit rows u of R⁴."""
    u4 = sp.uniform_ball(derive_rng(0, "triad"), 5000, 4)
    tau = sp._tangent_triad(u4)
    assert tau.shape == (5000, 3, 4)
    assert np.abs(tau @ tau.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-15
    assert np.abs(np.einsum("njd,nd->nj", tau, u4)).max() <= 1e-15
