"""Surface algebra: constructors, fiber solving, slices, exact invariants.

Expected values are frozen from independent routes: closed-form factorizations
(x^5, x(x^4+t y^6), (x-iy^2)(x+iy^2)), the (p-1)(q-1)(r-1) product for
Brieskorn exponents, linear solves for weights, finite differences for
derivatives, and companion-matrix eigenvalues (numpy.roots) for fiber roots.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from singlab import sampling, surfaces as sf

BS0 = sf.briancon_speder(0)
BS1 = sf.briancon_speder(1)


def reference_points(rng, n, scale=1.0):
    pts = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return scale * pts


class TestConstructors:
    def test_briancon_speder_t0_has_three_terms(self):
        assert len(BS0.terms) == 3
        assert BS0.weights == (3, 2, 1)
        assert BS0.quasidegree == 15

    def test_briancon_speder_t1_has_xy6_term(self):
        assert len(BS1.terms) == 4
        coeffs = dict(BS1.terms)
        assert coeffs[(1, 6, 0)] == 1.0

    def test_weighted_degree_identity(self):
        for s in (BS0, BS1, sf.brieskorn(2, 4, 5)):
            w1, w2, w3 = s.weights
            for (a, b, c), _ in s.terms:
                assert a * w1 + b * w2 + c * w3 == s.quasidegree

    @pytest.mark.parametrize(
        "pqr,weights,d",
        [((2, 4, 5), (10, 5, 4), 20), ((2, 3, 5), (15, 10, 6), 30), ((2, 2, 3), (3, 3, 2), 6)],
    )
    def test_brieskorn_weights(self, pqr, weights, d):
        s = sf.brieskorn(*pqr)
        assert s.weights == weights
        assert s.quasidegree == d
        # oracle: each axis term exponent e must satisfy e * w = d
        p, q, r = pqr
        assert p * s.weights[0] == d
        assert q * s.weights[1] == d
        assert r * s.weights[2] == d

    def test_brieskorn_rejects_bad_exponent_order(self):
        with pytest.raises(ValueError):
            sf.brieskorn(3, 2, 5)
        with pytest.raises(ValueError):
            sf.brieskorn(2, 5, 5)

    def test_surface_rejects_bad_weight_order(self):
        with pytest.raises(ValueError):
            sf.WeightedSurface((1, 2, 3), 6, (((6, 0, 0), 1.0),))

    def test_surface_rejects_weighted_degree_mismatch(self):
        with pytest.raises(ValueError):
            sf.WeightedSurface((3, 2, 1), 15, (((1, 0, 0), 1.0),))

    def test_surface_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            sf.WeightedSurface((3, 2, 1), 15, (((5, 0, 0), 0.0),))


class TestEvaluate:
    def test_point_values(self):
        assert evaluate_scalar(BS0, (0, 0, 0)) == 0
        assert evaluate_scalar(BS0, (0, 0, 1)) == 1
        assert evaluate_scalar(BS1, (1, 1, 0)) == 2

    def test_gradient_values(self):
        g = sf.gradient(BS0, np.array([1.0, 0.0, 0.0], dtype=complex))
        assert np.allclose(g, [5.0, 0.0, 0.0])
        g = sf.gradient(BS0, np.array([0.0, 1.0, 1.0], dtype=complex))
        assert np.allclose(g, [0.0, 7.0, 16.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pts = reference_points(rng, 100, scale=0.8)
        grad = sf.gradient(BS1, pts)
        h = 1e-5
        for axis in range(3):
            shift = np.zeros(3, dtype=complex)
            shift[axis] = h
            fd = (sf.evaluate(BS1, pts + shift) - sf.evaluate(BS1, pts - shift)) / (2 * h)
            denom = np.maximum(np.abs(grad[:, axis]), 1.0)
            assert np.max(np.abs(fd - grad[:, axis]) / denom) < 1e-5


def evaluate_scalar(s, p):
    return complex(sf.evaluate(s, np.asarray(p, dtype=complex)))


def numpy_fiber_roots(s, y, z):
    """Roots of x -> f(x, y, z) by numpy.roots (companion eigenvalues), sorted by (Re, Im)."""
    roots = np.roots(sf.fiber_coefficients(s, complex(y), complex(z))[::-1])
    return roots[np.lexsort((roots.imag, roots.real))]


def sheet_roots(s, y, z):
    """The x-roots of the fiber over (y, z) from fiber_sheets, the samplers' solver."""
    sheets, ok = sf.fiber_sheets(s, y, z)
    assert ok.all()
    return sheets[0, :, 0]


def assert_same_multiset(got, want, tol=1e-8):
    remaining = list(want)
    for g in got:
        dists = [abs(g - w) for w in remaining]
        j = int(np.argmin(dists))
        assert dists[j] < tol, (g, remaining)
        remaining.pop(j)
    assert not remaining


class TestSolveFiber:
    """The x-fiber over one base point, solved by fiber_sheets."""

    def test_fifth_roots_of_minus_one(self):
        roots = sheet_roots(BS0, 0.0, 1.0)
        expected = [cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5)]
        assert len(roots) == 5
        assert_same_multiset(roots, expected)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        scale = 1e-10 * (1.0 + max(abs(c) for _, c in BS1.terms))
        for _ in range(25):
            y = complex(rng.normal(), rng.normal()) * 0.5
            z = complex(rng.normal(), rng.normal()) * 0.5
            for r in sheet_roots(BS1, y, z):
                assert abs(evaluate_scalar(BS1, (r, y, z))) <= scale

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        yr=st.floats(-1, 1), yi=st.floats(-1, 1),
        zr=st.floats(-1, 1), zi=st.floats(-1, 1),
    )
    def test_vieta_sum_and_product(self, yr, yi, zr, zi):
        y, z = complex(yr, yi), complex(zr, zi)
        coeffs = sf.fiber_coefficients(BS1, y, z)
        roots = sheet_roots(BS1, y, z)
        scale = 1.0 + np.abs(roots).max()
        # no x^4 term in the family, so the root sum vanishes
        assert abs(roots.sum() - (-coeffs[4] / coeffs[5])) <= 1e-8 * scale
        prod_scale = 1.0 + abs(coeffs[0])
        assert abs(roots.prod() - (-1) ** 5 * coeffs[0] / coeffs[5]) <= 1e-8 * prod_scale**2

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        batch, ok = sf.all_roots(sf.fiber_coefficients(BS1, y, z))
        assert ok.all()
        for row, yy, zz in zip(batch, y, z):
            expected = numpy_fiber_roots(BS1, yy, zz)
            got = np.sort_complex(row)
            assert np.allclose(np.sort_complex(expected), got, atol=1e-8)


def z_fiber_coefficients(s, x, y):
    """Coefficients [c_0, ..., c_deg] of z -> f(x,y,z); batched over x,y."""
    deg = max(c for (_, _, c), _ in s.terms)
    out = np.zeros((x.shape[0], deg + 1), dtype=complex)
    for (a, b, c), coeff in s.terms:
        out[:, c] += coeff * x**a * y**b
    return out


def assert_roots_match(got, want, rel):
    """Every row of ``got`` equals the multiset ``want`` row up to ``rel``."""
    for g, w in zip(got, want):
        dist = np.abs(g[:, None] - w[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= rel * (1.0 + np.abs(w).max())


def random_fibers(rng, m, scale):
    u = scale * (rng.normal(size=m) + 1j * rng.normal(size=m))
    v = scale * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return u, v


class TestAllRoots:
    def test_companion_matrix_oracle(self):
        rng = np.random.default_rng(17)
        batches = []
        for s in (BS0, BS1, sf.brieskorn(2, 4, 5)):
            for scale in (0.01, 0.3, 2.0):
                y, z = random_fibers(rng, 30, scale)
                batches.append(sf.fiber_coefficients(s, y, z))
                if s is not BS1:  # BS(1) shares BS(0)'s z-fiber up to x y^6
                    x, y = random_fibers(rng, 30, scale)
                    batches.append(z_fiber_coefficients(s, x, y))
        for coeffs in batches:  # 450 fibers in all
            roots, ok = sf.all_roots(coeffs)
            assert ok.all()
            assert_roots_match(roots, [np.roots(row[::-1]) for row in coeffs], 1e-9)

    def test_edge_rows_in_one_batch(self):
        fiber = sf.fiber_coefficients(BS1, 0.3 + 0.1j, 0.2 - 0.4j)
        rows = np.zeros((8, 6), dtype=complex)
        rows[:4, 5] = 1.0                     # rows[0] is x^5: all-zero start, exact
        rows[1, 0] = -1.0                     # x^5 - 1
        rows[2, 0] = 1e-8j                    # x^5 + 1e-8 i
        rows[3, 0] = 1e8                      # x^5 + 1e8
        rows[4] = [1e8, 1e-8, 1.0, 1e8, 1e-8, 1.0]
        rows[5] = fiber
        rows[6] = 1e8 * fiber
        rows[7] = 1e-8 * fiber
        roots, ok = sf.all_roots(rows)
        assert ok.all()
        assert (roots[0] == 0).all()
        resid = np.abs(sf._polyval(rows.T[:, :, None], roots)).max(axis=1)
        assert (resid <= 1e-10 * (1.0 + np.abs(rows).max(axis=1))).all()
        assert_roots_match(roots, [np.roots(row[::-1]) for row in rows], 1e-9)

    def test_row_results_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(23)
        y, z = random_fibers(rng, 400, 0.05)
        fibers = np.concatenate([
            sf.fiber_coefficients(BS0, y[:200], z[:200]),
            sf.fiber_coefficients(BS1, y[200:], z[200:]),
        ])
        # Rows that stop at very different iterations, so the working set
        # compacts at different iterations in each slicing: x^5 (never
        # iterated), an off-axis double root and x^2 (x^2 - 1), both times
        # (x - 2), and x^5 + 1e8 with roots near 40, between ordinary fibers.
        w = cmath.exp(1j * math.pi / 4)
        special = np.array([
            [0, 0, 0, 0, 0, 1],
            np.polymul([1, 0, -2 * w, 0, w * w], [1, -2])[::-1],
            np.polymul([1, 0, -1, 0, 0], [1, -2])[::-1],
            [1e8, 0, 0, 0, 0, 1],
        ], dtype=complex)
        mixed = fibers.copy()
        mixed[::9] = special[np.arange(mixed[::9].shape[0]) % 4]
        z_fibers = z_fiber_coefficients(BS0, *random_fibers(rng, 400, 0.3))
        for coeffs in (fibers, z_fibers, mixed):
            roots, ok = sf.all_roots(coeffs)
            assert ok.all()
            cuts = [0, 1, 8, 150, 151, 333, 400]
            parts = [sf.all_roots(coeffs[a:b]) for a, b in zip(cuts, cuts[1:])]
            parts += [sf.all_roots(row[None]) for row in coeffs[:40]]
            got_roots, got_ok = (np.concatenate(v) for v in zip(*parts))
            assert got_roots.tobytes() == np.concatenate([roots, roots[:40]]).tobytes()
            assert got_ok.tobytes() == np.concatenate([ok, ok[:40]]).tobytes()

    def test_z_route_link_fibers_converge(self, monkeypatch):
        # The degree-15 z-fibers of the link sampler's z route.  Durand-Kerner
        # left the five listed rows unconverged after 200 iterations,
        # although their roots lie at least 0.40 apart.
        solved = []
        solve = sf.all_roots

        def record(coeffs, max_iter=200):
            roots, ok = solve(coeffs, max_iter=max_iter)
            solved.append((np.array(coeffs), roots, ok))
            return roots, ok

        monkeypatch.setattr(sf, "all_roots", record)
        sampling.sample_link(BS0, 0.1, 8000, seed=3, fiber_axis="z")
        coeffs, roots, ok = (np.concatenate(parts) for parts in zip(*solved))
        assert coeffs.shape == (8000, 16)
        assert ok.all()
        stalled = [1459, 2747, 3570, 3630, 7915]
        want = [np.roots(row[::-1]) for row in coeffs[stalled]]
        assert_roots_match(roots[stalled], want, 1e-9)


    def test_large_root_meets_the_scaled_residual_bound(self):
        # x^5 + 1e8 x^4 + x^3 + 1e-8 x^2 + 1e8 x + 1e-8 has a root near -1e8,
        # where |p| is about 5e23 at a backward error near 1e-17.
        row = np.array([[1e-8, 1e8, 1e-8, 1.0, 1e8, 1.0]], dtype=complex)
        roots, ok = sf.all_roots(row)
        assert ok[0]
        assert_roots_match(roots, [np.roots(row[0, ::-1])], 1e-9)
        big = np.argmax(np.abs(roots[0]))
        assert abs(roots[0, big] + 1e8) < 1.0
        assert sf._roots_meet_residual(row, roots)[0]
        bumped = roots.copy()
        bumped[0, big] *= 1 + 1e-6
        assert not sf._roots_meet_residual(row, bumped)[0]

    def test_off_axis_double_root_is_accepted(self):
        # (x^2 - e^{i pi/4})^2: Aberth converges only linearly at its two
        # double roots; the row stops once they reach roundoff backward error.
        w = cmath.exp(1j * math.pi / 4)
        row = np.array([[w * w, 0, -2 * w, 0, 1]], dtype=complex)
        roots, ok = sf.all_roots(row)
        assert ok[0]
        assert sf._roots_meet_residual(row, roots)[0]
        reps, mult = sf._cluster_roots(roots[0])
        assert mult.tolist() == [2, 2]
        expected = np.array([-1, 1]) * cmath.exp(1j * math.pi / 8)
        assert np.abs(reps - expected).max() < 1e-7

    @pytest.mark.parametrize("scale", [0.01, 0.3, 2.0])
    def test_binomial_rows_start_at_their_roots(self, scale):
        # BS(0)'s x-fiber is x^5 + c: the Newton-polygon start is its roots,
        # so a single iteration accepts every row.
        y, z = random_fibers(np.random.default_rng(7), 2000, scale)
        coeffs = sf.fiber_coefficients(BS0, y, z)
        roots, ok = sf.all_roots(coeffs, max_iter=1)
        assert ok.all()
        assert_roots_match(roots[:50], [np.roots(row[::-1]) for row in coeffs[:50]], 1e-9)

    @pytest.mark.parametrize("deg, zero_low, floor", [
        (5, False, 1993), (5, True, 1994), (15, False, 1994), (15, True, 1994),
    ])
    def test_stress_rows_converge_at_least_as_often_as_from_a_circle(self, deg, zero_low, floor):
        # Coefficient sizes e^N(0, 6) with uniform phases, optionally with
        # c_0 = c_1 = 0 (a double zero root).  ``floor`` is the number of
        # ok rows that the start on a circle of twice the Fujiwara bound gave.
        rng = np.random.default_rng(41 + deg)
        size = (2000, deg + 1)
        coeffs = np.exp(rng.normal(0.0, 6.0, size)) * np.exp(2j * np.pi * rng.uniform(size=size))
        if zero_low:
            coeffs[:, :2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, ok = sf.all_roots(coeffs)
        assert ok.sum() >= floor
        assert_roots_match(roots[ok], [np.roots(row[::-1]) for row in coeffs[ok]], 1e-9)

    @pytest.mark.parametrize("deg", [3, 4, 5])
    def test_real_rows_leave_the_real_axis(self, deg):
        # A real row's edge roots are closed under conjugation; untouched,
        # the iteration keeps them so and cannot split a pair onto the real
        # axis, which failed about one real cubic in sixty.
        coeffs = np.random.default_rng(43 + deg).normal(size=(2000, deg + 1)) + 0j
        roots, ok = sf.all_roots(coeffs)
        assert ok.all()
        assert_roots_match(roots[:200], [np.roots(row[::-1]) for row in coeffs[:200]], 1e-9)

    def test_zero_roots_start_apart_without_warnings(self):
        rows = np.zeros((3, 6), dtype=complex)
        rows[:, 5] = 1.0          # x^5: all-zero start, not iterated
        rows[1, 2] = -8.0         # x^2 (x^3 - 8)
        rows[2, 1:3] = [1e-3, 2j]  # x (x^4 + 2i x + 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, ok = sf.all_roots(rows)
        assert ok.all()
        assert (roots[0] == 0).all()
        cube = 2 * np.exp(2j * np.pi * np.arange(3) / 3)
        want = [np.concatenate([[0, 0], cube]), np.append(np.roots(rows[2, :0:-1]), 0)]
        assert_roots_match(roots[1:], want, 1e-7)

    def test_unconverged_rows_stay_refused(self):
        rows = np.array([[1, 2, 3, 4, 1], [1, 2, 3, np.nan, 1]], dtype=complex)
        with np.errstate(invalid="ignore"):
            _, ok = sf.all_roots(rows, max_iter=2)
            _, ok_full = sf.all_roots(rows[1:])
        assert not ok.any()
        assert not ok_full[0]


class TestFiberSheets:
    @pytest.mark.parametrize("surface", [BS0, BS1], ids=["bs0", "bs1"])
    @pytest.mark.parametrize("axis", [0, 2], ids=["x", "z"])
    def test_sheets_are_the_roots_over_the_base(self, surface, axis):
        u, v = random_fibers(np.random.default_rng(31), 300, 0.1)
        sheets, ok = sf.fiber_sheets(surface, u, v, axis)
        roots, want_ok = sf.all_roots(sf.fiber_coefficients(surface, u, v, axis))
        degree = 5 if axis == 0 else 15
        assert sheets.shape == (300, degree, 3)
        assert ok.all() and ok.tobytes() == want_ok.tobytes()
        assert sheets[..., axis].tobytes() == roots.tobytes()
        i, j = (k for k in range(3) if k != axis)
        assert sheets[..., i].tobytes() == np.repeat(u[:, None], degree, 1).tobytes()
        assert sheets[..., j].tobytes() == np.repeat(v[:, None], degree, 1).tobytes()
        pts = sheets.reshape(-1, 3)
        radius = np.linalg.norm(pts, axis=1).max()
        assert np.abs(sf.evaluate(surface, pts)).max() <= sf._residual_bound(surface, radius)

    def test_z_coefficients_match_the_reference(self):
        x, y = random_fibers(np.random.default_rng(37), 50, 0.3)
        for s in (BS0, BS1, sf.brieskorn(2, 4, 5)):
            got = sf.fiber_coefficients(s, x, y, axis=2)
            assert got.tobytes() == z_fiber_coefficients(s, x, y).tobytes()

    def test_failed_row_reads_finite(self, monkeypatch):
        solve = sf.all_roots

        def fail_row_one(coeffs, *args, **kwargs):
            roots, ok = solve(coeffs, *args, **kwargs)
            roots[1, :2] = [np.nan, np.inf]
            ok[1] = False
            return roots, ok

        monkeypatch.setattr(sf, "all_roots", fail_row_one)
        u, v = random_fibers(np.random.default_rng(41), 3, 0.1)
        roots, _ = solve(sf.fiber_coefficients(BS1, u, v))
        sheets, ok = sf.fiber_sheets(BS1, u, v)
        assert ok.tolist() == [True, False, True]
        assert np.isfinite(sheets).all()
        assert (sheets[1, :2, 0] == 1.0).all()
        assert sheets[1, 2:, 0].tobytes() == roots[1, 2:].tobytes()
        assert sheets[[0, 2], :, 0].tobytes() == roots[[0, 2]].tobytes()

    def test_constant_axis_raises(self):
        plane = sf.WeightedSurface((2, 2, 1), 2, (((1, 0, 0), 1.0),))
        with pytest.raises(ValueError, match="degree must be >= 1"):
            sf.fiber_sheets(plane, [0.1], [0.2], axis=2)


def scaled(s, pts, t):
    """The weighted scaling T(p, t) = (t^(w1/w3) x, t^(w2/w3) y, t z)."""
    return pts * t ** np.array(s.scaling_exponents)


class TestScaleAction:
    """The weighted scaling that scaling_exponents defines."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        xr=st.floats(-2, 2), xi=st.floats(-2, 2),
        yr=st.floats(-2, 2), yi=st.floats(-2, 2),
        zr=st.floats(-2, 2), zi=st.floats(-2, 2),
        t=st.floats(0.25, 4.0),
    )
    def test_homogeneity_identity(self, xr, xi, yr, yi, zr, zi, t):
        p = np.array([complex(xr, xi), complex(yr, yi), complex(zr, zi)])
        lhs = evaluate_scalar(BS1, scaled(BS1, p, t))
        rhs = t ** (BS1.quasidegree / BS1.weights[2]) * evaluate_scalar(BS1, p)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))

    def test_surface_invariance_on_fiber_roots(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = complex(rng.normal(), rng.normal()) * 0.4
            z = complex(rng.normal(), rng.normal()) * 0.4
            for t in (0.5, 2.0):
                for r in numpy_fiber_roots(BS0, y, z):
                    q = scaled(BS0, np.array([r, y, z]), t)
                    scale = 1.0 + float(np.abs(q).max()) ** BS0.quasidegree
                    assert abs(evaluate_scalar(BS0, q)) <= 1e-9 * scale


# Exactly-zero coordinates enter the orbit solve as log 0 = -inf:
# (0, y, 0), (x, 0, 0), (0, 0, z) and (0, y, z).
ZERO_COORD_POINTS = np.array(
    [[0, 0.3 - 0.2j, 0], [0.05j, 0, 0], [0, 0, -2e-3], [0, 2.0, 0.7 + 0.1j], [0, 1e-4j, 3e-2]],
    dtype=complex,
)


class TestSphereProject:
    def test_projected_points_land_on_sphere_and_surface(self):
        roots = numpy_fiber_roots(BS0, 0.3 + 0.1j, 0.2)
        P = np.array([[r, 0.3 + 0.1j, 0.2] for r in roots], dtype=complex)
        proj, t = sf.sphere_project(BS0, P, 0.1)
        assert np.allclose(np.linalg.norm(proj, axis=1), 0.1, rtol=1e-12)
        assert np.max(np.abs(sf.evaluate(BS0, proj))) < 1e-12
        assert (t > 0).all()

    def test_outward_projection(self):
        roots = numpy_fiber_roots(BS1, 0.02, 0.01)
        P = np.array([[r, 0.02, 0.01] for r in roots], dtype=complex)
        proj, t = sf.sphere_project(BS1, P, 0.3)
        assert np.allclose(np.linalg.norm(proj, axis=1), 0.3, rtol=1e-12)
        assert (t > 1).all()

    def test_row_results_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(29)
        y, z = random_fibers(rng, 800, 0.3)
        sheets, ok = sf.fiber_sheets(BS1, y, z)
        P = np.concatenate([sheets[ok].reshape(-1, 3), ZERO_COORD_POINTS])
        proj, t = sf.sphere_project(BS1, P, 0.1)
        cuts = [0, 1, 64, 65, 1000, 2711, P.shape[0] - 2, P.shape[0]]
        parts = [sf.sphere_project(BS1, P[a:b], 0.1) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate([q for q, _ in parts]).tobytes() == proj.tobytes()
        assert np.concatenate([u for _, u in parts]).tobytes() == t.tobytes()

    def test_relative_stop_ends_newton_at_roundoff(self, monkeypatch):
        """Far below the sheets, |u| and |2 log r| are large, so roundoff keeps
        |step| above any absolute 1e-15 until the 80-step guard; the relative
        stop ends every point within a few steps and gives up no accuracy."""
        rng = np.random.default_rng(31)
        y, z = random_fibers(rng, 200, 0.3)
        sheets, ok = sf.fiber_sheets(BS1, y, z)
        P = sheets[ok].reshape(-1, 3)
        r = 1e-4
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
        _, t = sf.sphere_project(BS1, P, r)
        monkeypatch.undo()
        # One np.exp per Newton step, and one more for t = exp(u).
        assert 1 <= len(calls) - 1 <= 8
        e = np.array(BS1.scaling_exponents)
        residual = np.log((np.abs(P) ** 2 * t[:, None] ** (2 * e)).sum(axis=1)) - 2 * math.log(r)
        assert np.abs(residual).max() <= 8 * np.finfo(float).eps * abs(2 * math.log(r))

    @pytest.mark.parametrize("s", [BS1, sf.brieskorn(2, 4, 5)], ids=lambda s: s.label)
    def test_zero_coordinates(self, s):
        e = np.array(s.scaling_exponents)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj, t = sf.sphere_project(s, ZERO_COORD_POINTS, 0.1)
        assert np.allclose(np.linalg.norm(proj, axis=1), 0.1, rtol=1e-12)
        assert (proj[ZERO_COORD_POINTS == 0] == 0).all()
        # With one nonzero coordinate p_i, |p_i|^2 t^(2 e_i) = r^2 in closed form.
        single = np.count_nonzero(ZERO_COORD_POINTS, axis=1) == 1
        rows, i = np.nonzero(ZERO_COORD_POINTS[single])
        closed = (0.1 / np.abs(ZERO_COORD_POINTS[single][rows, i])) ** (1 / e[i])
        assert single.sum() == 3
        assert t[single] == pytest.approx(closed, rel=1e-13)


class TestMilnorNumber:
    def test_family_is_mu_constant(self):
        for t in (0, 0.1, 1.0, -2.0, 1j):
            assert sf.milnor_number(sf.briancon_speder(t)) == 364

    def test_brieskorn_oracle(self):
        # independent oracle for x^p + y^q + z^r: (p-1)(q-1)(r-1)
        for pqr in ((2, 3, 5), (2, 2, 3), (2, 4, 5)):
            p, q, r = pqr
            assert sf.milnor_number(sf.brieskorn(*pqr)) == (p - 1) * (q - 1) * (r - 1)

    def test_rejects_degenerate_weight_data(self):
        plane = sf.WeightedSurface((2, 2, 1), 2, (((1, 0, 0), 1.0),))
        with pytest.raises(ValueError):
            sf.milnor_number(plane)


def slice_count(s):
    """Component count of the z=0 slice."""
    return sf.slice_structure(s).n_components


class TestSliceComponents:
    def test_dichotomy_in_t(self):
        assert slice_count(BS0) == 1
        for t in (0.1, 1.0, -2.0, 1j):
            assert slice_count(sf.briancon_speder(t)) == 3

    def test_brieskorn_counts_match_gcd(self):
        assert slice_count(sf.brieskorn(2, 4, 5)) == math.gcd(2, 4)
        assert slice_count(sf.brieskorn(2, 2, 3)) == math.gcd(2, 2)

    def test_degenerate_slice_raises(self):
        s = sf.WeightedSurface((3, 2, 1), 4, (((1, 0, 1), 1.0), ((0, 1, 2), 1.0)))
        with pytest.raises(sf.DegenerateSliceError):
            sf.slice_structure(s)

    def test_one_root_solve_and_no_tracking(self, monkeypatch):
        # The monodromy is in closed form: one row of degree deg h is solved
        # and no root is continued around the y-circle.
        shapes = []
        all_roots = sf.all_roots

        def counting(coeffs, *args, **kwargs):
            shapes.append(np.shape(coeffs))
            return all_roots(coeffs, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("slice_structure continued roots")

        monkeypatch.setattr(sf, "all_roots", counting)
        monkeypatch.setattr(sf, "_continue_roots", refuse)
        st_ = sf.slice_structure(BS1)
        deg_h = max(a for a, _, _ in st_.h_terms)
        assert deg_h == 4
        assert shapes == [(1, deg_h + 1)]

    def test_unequal_multiplicities_refuse_the_loop(self, monkeypatch):
        # The rotation carries each root of h(x, 1) to a root; a multiplicity
        # that changes on an orbit is refused although the match is clean.
        cluster = sf._cluster_roots

        def uneven(roots):
            reps, mult = cluster(roots)
            mult = mult.copy()
            mult[0] += 1
            return reps, mult

        monkeypatch.setattr(sf, "_cluster_roots", uneven)
        with pytest.raises(sf.ContinuationError, match="could not close the slice monodromy loop"):
            sf.slice_structure(BS1)

    def test_structure_orbits_bs1(self):
        st_ = sf.slice_structure(BS1)
        assert st_.has_x_branch and not st_.has_y_branch
        assert st_.n_components == 3
        # the quartic x^4 = -y^6 splits into two square branches
        assert sorted(np.bincount(st_.orbit_of_trajectory - 1).tolist()) == [2, 2]


class TestImplicitDerivatives:
    def test_closed_form_value(self):
        x = -(2.0 ** (1 / 5))
        dxdy, dxdz = sf.implicit_derivatives(BS0, np.array([x, 1.0, 1.0], dtype=complex))
        want_dy = -7.0 / (5.0 * 2.0 ** (4 / 5))
        want_dz = -16.0 / (5.0 * 2.0 ** (4 / 5))
        assert abs(dxdy - want_dy) < 1e-12
        assert abs(dxdz - want_dz) < 1e-12

    def test_zero_partial_on_z0_fiber(self):
        roots = [r for r in numpy_fiber_roots(BS1, 1.0, 0.0) if r != 0]
        dxdy, dxdz = sf.implicit_derivatives(BS1, np.array([roots[0], 1.0, 0.0]))
        # f_y = 6 x y^5 on the slice; dx/dy = -6y^5/(5x^3 + y^6) is nonzero,
        # while f_z = 15 z^14 + y^7 = 1 there.
        assert abs(dxdz + 1.0 / (5 * roots[0] ** 4 + 1.0)) < 1e-12
        assert dxdy != 0

    def test_branch_point_error(self):
        with pytest.raises(sf.BranchPointError):
            sf.implicit_derivatives(BS0, np.array([0.0, 1.0, 0.0], dtype=complex))

    def test_near_ramified_point_raises(self):
        # On X_0 at (0.01, 1, z) with z = -0.01^5, |f| ~ 1e-150 while
        # |f_x| = 5e-8 against |f_z| ~ 1: relative to the gradient f_x vanishes,
        # though it is far above an absolute 1e-12 (dx/dz would read ~ -2e7).
        x = 0.01
        p = np.array([x, 1.0, -(x**5)], dtype=complex)
        assert abs(evaluate_scalar(BS0, p)) <= 1e-9
        grad = sf.gradient(BS0, p[None])[0]
        assert abs(grad[0]) == pytest.approx(5e-8) and abs(grad[2]) == pytest.approx(1.0)
        near = r"1 point\(s\) are near-ramified: df/dx vanishes relative to the gradient"
        with pytest.raises(sf.BranchPointError, match=near):
            sf.implicit_derivatives(BS0, p)
        # The singular origin, where the whole gradient vanishes, is refused too.
        with pytest.raises(sf.BranchPointError, match=near):
            sf.implicit_derivatives(BS0, np.zeros(3, dtype=complex))

    def test_off_surface_error(self):
        with pytest.raises(ValueError):
            sf.implicit_derivatives(BS0, np.array([1.0, 1.0, 1.0], dtype=complex))

    def test_on_surface_means_within_the_residual_bound_at_p(self):
        # |f| = 8.7e-8 at |p| = 1.9: above 1e-9, but within the bound a
        # sample at that radius is accepted at (8.1e-6).
        x = -(2.0 ** (1 / 5)) + 1e-8
        p = np.array([x, 1.0, 1.0], dtype=complex)
        bound = sf._residual_bound(BS0, np.linalg.norm(p))
        assert 1e-9 < abs(evaluate_scalar(BS0, p)) <= bound
        dxdy, _ = sf.implicit_derivatives(BS0, p)
        assert abs(dxdy + 7.0 / (5.0 * 2.0 ** (4 / 5))) < 1e-6
        # The message names the bound at the worst point, (1, 1, 1).
        named = r"\|f\| = 3\.000e\+00 > 3\.789e-06, the residual bound"
        with pytest.raises(ValueError, match=named):
            sf.implicit_derivatives(BS0, np.array([[x, 1.0, 1.0], [1.0, 1.0, 1.0]]))

    def test_matches_finite_differences_on_graph(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            y = complex(rng.normal(), rng.normal()) * 0.5
            z = complex(rng.normal(), rng.normal()) * 0.5
            x = numpy_fiber_roots(BS0, y, z)[2]
            if abs(evaluate_scalar(BS0, (x, y, z))) > 1e-10:
                continue
            dxdy, dxdz = sf.implicit_derivatives(BS0, np.array([x, y, z]))
            x_plus = _newton_x(BS0, x, y + h, z)
            x_minus = _newton_x(BS0, x, y - h, z)
            fd = (x_plus - x_minus) / (2 * h)
            assert abs(fd - dxdy) <= 1e-5 * (1.0 + abs(dxdy))


def _newton_x(s, x0, y, z):
    x = x0
    for _ in range(40):
        coeffs = sf.fiber_coefficients(s, y, z)
        f = np.polyval(coeffs[::-1], x)
        df = np.polyval(np.polyder(coeffs[::-1]), x)
        x = x - f / df
        if abs(f) < 1e-14:
            break
    return x


def reference_match_step(prev, nxt, prev_mult, nxt_mult):
    """Reference matcher: the optimal assignment, refused when some
    trajectory's two nearest candidates are within a factor 2 (d1 > 0),
    when the assignment is not nearest-root, or when multiplicities
    disagree."""
    if prev.size != nxt.size:
        return None
    dist = np.abs(prev[:, None] - nxt[None, :])
    rows, cols = linear_sum_assignment(dist)
    assign = np.empty(prev.size, dtype=int)
    assign[rows] = cols
    if prev.size > 1:
        d_sorted = np.sort(dist, axis=1)
        d1, d2 = d_sorted[:, 0], d_sorted[:, 1]
        chosen = dist[np.arange(prev.size), assign]
        ambiguous = (d2 < 2.0 * d1) & (d1 > 0)
        if np.any(chosen > d1 * (1 + 1e-12)) or bool(ambiguous.any()):
            return None
    if not np.array_equal(np.asarray(prev_mult), np.asarray(nxt_mult)[assign]):
        return None
    return assign


def sequential_track(coeff_fn, t_grid):
    """Reference tracker: one solve per node, matched and bisected step by step.

    Returns (t, steps, multiplicity, dphase, n_bisections) with the columns
    in the first node's (Re, Im) order, as _cluster_roots sorts them.
    """
    t_grid = [float(t) for t in t_grid]

    def solve_at(t):
        roots, ok = sf.all_roots(np.asarray(coeff_fn(t), dtype=complex)[None, :])
        if not ok[0]:
            raise sf.FiberSolveError(f"fiber solve failed at path parameter t={t}")
        return sf._cluster_roots(roots[0])

    current, mult = solve_at(t_grid[0])
    t_out, steps = [t_grid[0]], [current]
    dphase = np.zeros(current.size)
    n_ref = 0
    for j in range(1, len(t_grid)):
        pending = [(t_grid[j - 1], t_grid[j], 0)]
        while pending:
            t0, t1, depth = pending.pop()
            nxt, nxt_mult = solve_at(t1)
            assign = reference_match_step(current, nxt, mult, nxt_mult)
            if assign is None:
                if depth >= 12:
                    raise sf.ContinuationError(f"ambiguous on [{t0}, {t1}]")
                tm = 0.5 * (t0 + t1)
                pending.append((tm, t1, depth + 1))
                pending.append((t0, tm, depth + 1))
                n_ref += 1
                continue
            new = nxt[assign]
            ratio = np.where(current != 0, new / np.where(current == 0, 1, current), 1.0)
            dphase += np.angle(ratio)
            current = new
            t_out.append(t1)
            steps.append(current)
    return np.array(t_out), np.array(steps), mult, dphase, n_ref


def continue_roots(coeff_fn, t_grid):
    """sf._continue_roots on a family given as one coefficient vector per t."""

    def coeff_rows(ts):
        return np.array([coeff_fn(t) for t in ts], dtype=complex)

    return sf._continue_roots(coeff_rows, t_grid, coeff_rows(np.asarray(t_grid).tolist()))


def assert_same_path(got, want):
    """(t, steps, dphase) agree bit for bit."""
    for k in (0, 1, 3):
        assert got[k].tobytes() == want[k].tobytes()


SLICE_SURFACES = [
    sf.briancon_speder(t) for t in (0.0, 0.1, 1.0, -2.0, 1j, 0.01, 1e-6, 3 + 4j)
] + [sf.brieskorn(*pqr) for pqr in (
    (2, 4, 5), (2, 2, 3), (3, 6, 7), (4, 6, 7), (2, 3, 5), (6, 9, 11), (4, 8, 9)
)]


def h_circle_family(structure, radius):
    """Coefficients of h(., y) at y = radius * e^(2 pi i t), one pass over h_terms."""
    deg = max(a for a, _, _ in structure.h_terms)

    def coeff_fn(t):
        y = radius * cmath.exp(2j * math.pi * t)
        out = np.zeros(deg + 1, dtype=complex)
        for a, b, coeff in structure.h_terms:
            out[a] += coeff * y**b
        return out

    return coeff_fn


def cycles(assign, names):
    """The cycles of the permutation ``assign``, as frozensets of ``names``."""
    out, seen = set(), set()
    for i in range(len(assign)):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(int(names[i]))
            i = int(assign[i])
        if cycle:
            out.add(frozenset(cycle))
    return out


def square_root_family(t):
    return np.array([-cmath.exp(2j * math.pi * t), 0.0, 1.0])


def poisoned_at(family, t_bad):
    """``family`` with a NaN coefficient at t_bad, where every solve fails."""

    def coeff_fn(t):
        coeffs = np.array(family(t), dtype=complex)
        if t == t_bad:
            coeffs[0] = np.nan
        return coeffs

    return coeff_fn


def double_zero_family(t):
    """x^2 (x^2 - e^{2 pi i t}): a double root at zero on the whole path."""
    return np.array([0.0, 0.0, -cmath.exp(2j * math.pi * t), 0.0, 1.0])


def meeting_roots_family(t):
    """x^2 - (t - 1/2)^2: two simple roots that meet at t = 1/2."""
    return np.array([-((t - 0.5) ** 2), 0.0, 1.0])


def near_meeting_family(t):
    """x^2 - ((t - 1/2)^2 + 1e-10): two roots that pass 2e-5 apart at t = 1/2."""
    return np.array([-((t - 0.5) ** 2 + 1e-5**2), 0.0, 1.0])


class TestTracking:
    def test_square_root_swap(self):
        # roots of x^2 - e^{2 pi i t} swap after one turn
        _, steps, _, dphase, _ = continue_roots(
            lambda t: np.array([-cmath.exp(2j * math.pi * t), 0.0, 1.0]),
            np.linspace(0, 1, 65),
        )
        start, end = steps[0], steps[-1]
        assert abs(start[0] - end[1]) < 1e-9 and abs(start[1] - end[0]) < 1e-9
        assert np.allclose(dphase, math.pi, atol=1e-9)

    def test_disjoint_sheets_do_not_move(self):
        # x^2 - 1 has constant roots along any path
        _, steps, _, dphase, _ = continue_roots(
            lambda t: np.array([-1.0, 0.0, 1.0]), np.linspace(0, 1, 17)
        )
        assert np.allclose(steps[0], steps[-1])
        assert np.allclose(dphase, 0.0)

    @pytest.mark.parametrize("radius", [1.0, 0.5])
    @pytest.mark.parametrize("s", SLICE_SURFACES, ids=lambda s: s.label)
    def test_slices_match_the_sequential_reference(self, s, radius):
        # The closed-form monodromy of slice_structure against the roots of h
        # tracked node by node once around the y-circle of this radius, whose
        # end roots _match_rows matches back to the start.  The batched
        # continuation must reproduce the reference on the same family.
        got = sf.slice_structure(s)
        if max(a for a, _, _ in got.h_terms) == 0:
            assert got.roots.size == got.orbit_of_trajectory.size == 0
            return
        family = h_circle_family(got, radius)
        grid = np.linspace(0.0, 1.0, 513)
        want = sequential_track(family, grid)
        batched = continue_roots(family, grid)
        assert_same_path(batched, want)
        assert batched[0].size == grid.size and want[4] == 0  # no bisection
        _, steps, mult, _, _ = want
        start, end = steps[0], steps[-1]
        assign, ok = sf._match_rows(end[None], start[None])
        assign = assign[0]
        assert ok[0] and np.array_equal(mult, mult[assign])

        # The roots at this radius are radius^(w1/w2) times those at radius 1.
        w1, w2 = s.weights[:2]
        name = np.abs(start[:, None] / radius ** (w1 / w2) - got.roots[None, :]).argmin(axis=1)
        assert sorted(name.tolist()) == list(range(got.roots.size))
        labels = got.orbit_of_trajectory
        orbits = cycles(assign, name)
        assert orbits == {
            frozenset(np.flatnonzero(labels == k).tolist()) for k in set(labels.tolist())
        }
        assert got.multiplicity[name].tobytes() == mult.tobytes()
        axes = int(got.has_x_branch) + int(got.has_y_branch)
        assert got.n_components == axes + len(orbits)
        if radius == 1.0:
            by_argument = np.lexsort((np.abs(start), np.round(np.angle(start), 12)))
            assert got.roots.tobytes() == start[by_argument].tobytes()

    @pytest.mark.parametrize("family", [square_root_family])
    def test_coarse_grid_bisects_to_the_reference(self, family):
        grid = np.linspace(0, 1, 3)  # a half turn per step leaves every match ambiguous
        path = continue_roots(family, grid)
        want = sequential_track(family, grid)
        assert path[0].size > grid.size and want[4] > 0  # bisection substeps
        assert_same_path(path, want)

    def test_double_root_at_the_start_raises(self):
        # Only simple roots are continued: the double zero of the first node
        # solves as two roots about 1e-13 apart.
        with pytest.raises(sf.BranchPointError, match="root separation"):
            continue_roots(double_zero_family, np.linspace(0, 1, 3))

    def test_halving_cap_raises(self):
        # The roots pass 2e-5 apart at the node t = 1/2, far closer than the
        # 2^-12 of the deepest bisection step, so the matching stays
        # ambiguous there.
        with pytest.raises(
            sf.ContinuationError, match=r"on \[0\.4998779296875, 0\.5\] after 12 halvings"
        ):
            continue_roots(near_meeting_family, np.linspace(0, 1, 3))

    def test_coincident_roots_raise_at_once(self):
        # The roots +-(t - 1/2) meet at the node t = 1/2: no bisection is tried.
        with pytest.raises(sf.ContinuationError, match=r"roots coincide at path parameter t=0\.5$"):
            continue_roots(meeting_roots_family, np.linspace(0, 1, 3))

    # A grid node; the midpoint of a half-turn step, which the bisection needs.
    @pytest.mark.parametrize("t_bad", [0.5, 0.25])
    def test_failed_solve_names_its_parameter(self, t_bad):
        family = poisoned_at(square_root_family, t_bad)
        with np.errstate(invalid="ignore"), pytest.raises(
            sf.FiberSolveError, match=rf"t={t_bad}$"
        ):
            continue_roots(family, np.linspace(0, 1, 3))

    def test_failed_midpoint_leaves_a_clean_step_standing(self):
        # x^2 - 1 on 5 nodes: every direct step is clean, so the unsolvable
        # midpoint t = 0.375 is not needed.
        family = poisoned_at(lambda t: np.array([-1.0, 0.0, 1.0]), 0.375)
        grid = np.linspace(0, 1, 5)
        with np.errstate(invalid="ignore"):
            path = continue_roots(family, grid)
        assert path[0].size == grid.size  # no bisection
        assert_same_path(path, sequential_track(family, grid))

    def test_match_step_agrees_with_the_reference(self):
        rng = np.random.default_rng(29)
        outcomes = set()
        for width in range(1, 7):
            for scale in (0.0, 1e-9, 0.05, 0.3, 1.0):
                for _ in range(40):
                    prev = rng.normal(size=width) + 1j * rng.normal(size=width)
                    if width > 1 and rng.random() < 0.3:
                        prev[1] = prev[0] + 1e-3  # a close pair
                    noise = rng.normal(size=width) + 1j * rng.normal(size=width)
                    nxt = prev[rng.permutation(width)] + scale * noise
                    unit = np.ones(width, dtype=int)
                    got, ok = sf._match_rows(prev[None], nxt[None])
                    want = reference_match_step(prev, nxt, unit, unit)
                    if want is None:
                        assert not ok[0]
                    else:
                        assert ok[0] and np.array_equal(got[0], want)
                    outcomes.add(want is None)
        assert outcomes == {True, False}


class TestSerialization:
    def test_round_trip_exact(self):
        for s in (BS0, BS1, sf.brieskorn(2, 4, 5), sf.briancon_speder(0.5 + 0.25j)):
            text = sf.surface_to_text(s)
            back = sf.surface_from_text(text)
            assert back.weights == s.weights
            assert back.quasidegree == s.quasidegree
            assert back.terms == s.terms
            assert back.label == s.label

    def test_parse_error_reports_line(self):
        text = "weights 3 2 1\nquasidegree 15\nterm 5 0 0 bad 0\n"
        with pytest.raises(sf.SurfaceFormatError, match="line 3"):
            sf.surface_from_text(text)

    def test_missing_weights_rejected(self):
        with pytest.raises(sf.SurfaceFormatError):
            sf.surface_from_text("quasidegree 15\nterm 5 0 0 1 0\n")

    def test_invariants_enforced_on_load(self):
        text = "weights 1 2 3\nquasidegree 6\nterm 6 0 0 1 0\n"
        with pytest.raises(sf.SurfaceFormatError):
            sf.surface_from_text(text)
