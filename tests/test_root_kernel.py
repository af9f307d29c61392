"""Bitwise regression tests for the batched root kernel of ``singlab.surfaces``.

``frozen_all_roots`` below is a test-only copy of the Aberth kernel as it
stood before its working set was compacted ahead of the step, its residual
check was limited to the rows the roundoff test did not stop, and its start
was built degree-major.  Those changes only skip work whose outcome is
known, so ``all_roots`` must return this copy's roots and ``ok`` flags bit
for bit.  ``broadcast_root_gaps`` is the (m, n, n) form of ``_root_gaps``.
"""

import cmath
import math

import numpy as np
import pytest

from singlab import surfaces as sf

BS0 = sf.briancon_speder(0)
BS1 = sf.briancon_speder(1)
B245 = sf.brieskorn(2, 4, 5)


def frozen_polyval(coeffs, x):
    p = np.broadcast_to(coeffs[-1], x.shape).astype(np.result_type(coeffs, x))
    for k in range(coeffs.shape[0] - 2, -1, -1):
        p *= x
        p += coeffs[k]
    return p


def frozen_newton_start(c):
    n = c.shape[1] - 1
    nz = np.abs(c) > 0
    logs = np.log(np.where(nz, np.abs(c), 1.0))
    into, out = np.full(c.shape, np.inf), np.full(c.shape, -np.inf)
    for i in range(n + 1):
        for k in range(i + 1, n + 1):
            slope = np.where(nz[:, i] & nz[:, k], (logs[:, k] - logs[:, i]) / (k - i), np.nan)
            into[:, k] = np.fmin(into[:, k], slope)
            out[:, i] = np.fmax(out[:, i], slope)
    k = np.arange(n + 1)
    vertex = nz & (into > out + 0.1)
    a = np.maximum.accumulate(np.where(vertex, k, -1), axis=1)[:, :-1]
    b = np.minimum.accumulate(np.where(vertex, k, n)[:, ::-1], axis=1)[:, -2::-1]
    zero, a = a < 0, np.maximum(a, 0)
    ratio = -np.take_along_axis(c, a, 1) / np.take_along_axis(c, b, 1)
    e, turn = b - a, 1e-3 * (nz.sum(axis=1, keepdims=True) > 2)
    r = np.abs(ratio) ** (1 / e)
    r = np.where(zero, 0.5 * np.where(zero, np.inf, r).min(axis=1, keepdims=True), r)
    return r * np.exp(1j * ((np.angle(ratio) + 2 * np.pi * (k[:-1] - a)) / e + turn))


def frozen_residual(coeffs, roots):
    cols = coeffs.T[:, :, None]
    resid = np.abs(frozen_polyval(cols, roots))
    terms = frozen_polyval(np.abs(cols), np.abs(roots))
    size = np.maximum(np.abs(coeffs).max(axis=1)[:, None], terms)
    return (resid <= 1e-10 * (1.0 + size)).all(axis=1)


def frozen_all_roots(coeffs, max_iter=200):
    c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n = c.shape[1] - 1
    size = np.abs(c)
    converged = ~(size[:, :-1] > 0).any(axis=1)
    rows = np.flatnonzero(~converged)
    xk = np.ascontiguousarray(frozen_newton_start(c[rows]).T)
    roots = np.zeros((n, c.shape[0]), dtype=complex)
    ck, bk = c[rows].T.copy(), size[rows].T.copy()
    dk = ck[1:] * np.arange(1, n + 1)[:, None]
    live = np.ones(rows.size, dtype=bool)
    tol = 8.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not rows.size:
                break
            p = frozen_polyval(ck, xk)
            ax = np.abs(xk)
            scale = 1.0 + ax.max(axis=0)
            live &= np.isfinite(scale)
            done = live & (np.abs(p) <= tol * frozen_polyval(bk, ax)).all(axis=0)
            live &= ~done
            s = np.zeros_like(xk)
            for i in range(n):
                for j in range(i + 1, n):
                    inv = np.reciprocal(xk[i] - xk[j])
                    s[i] += inv
                    s[j] -= inv
            w = p / (frozen_polyval(dk, xk) - p * s)
            w[:, ~live] = 0.0
            xk -= w
            done |= live & (np.abs(w).max(axis=0) <= 1e-13 * scale)
            converged[rows[done]] = True
            live &= ~done
            if 2 * live.sum() <= live.size:
                roots[:, rows] = xk
                rows, ck, bk, dk, xk = (v[..., live] for v in (rows, ck, bk, dk, xk))
                live = live[live]
        roots[:, rows] = xk
        x = np.ascontiguousarray(roots.T)
        return x, converged & frozen_residual(c, x)


def broadcast_root_gaps(roots):
    m, deg = roots.shape
    if deg < 2:
        return np.full((m, deg), np.inf)
    dist = np.abs(roots[:, :, None] - roots[:, None, :])
    dist[:, np.arange(deg), np.arange(deg)] = np.inf
    return dist.min(axis=2)


def random_rows(rng, m, deg, sigma=3.0):
    size = (m, deg + 1)
    return np.exp(rng.normal(0.0, sigma, size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def base_points(rng, m, scale):
    return (scale * (rng.normal(size=m) + 1j * rng.normal(size=m)) for _ in range(2))


def edge_rows(deg, rng):
    """Binomial, c_0 = 0, x^n, NaN, inf and near-double-root rows of one degree."""
    rows = random_rows(rng, 14, deg)
    rows[0, 1:-1] = 0.0                     # binomial c_0 + c_n x^n
    rows[1, 0] = 0.0                        # a zero root
    if deg > 1:
        rows[2, :2] = 0.0                   # a double zero root
    rows[3, :-1] = 0.0                      # x^n: never iterated
    rows[4, 0] = np.nan                     # NaN among nonzero coefficients
    rows[5, :-1] = 0.0
    rows[5, 0] = np.nan                     # NaN where the row is otherwise x^n
    rows[6, deg // 2] = np.inf
    rows[7, -1] = complex(np.nan, 0.0)      # a NaN leading coefficient
    rows[8, 0] = complex(np.inf, 1.0)
    for r, gap in zip(rows[9:13], (0.0, 1e-12, 1e-9, 1e-6)):
        extra = rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1) if deg > 1 else []
        a = 0.3 + 0.2j
        poly = np.poly([a, a + gap, *extra][:deg])
        r[:] = poly[::-1]
    rows[13, 1:-1] = 0.0
    rows[13, 0] = 1e-300                    # a binomial at the bottom of the range
    return rows


def kernel_cases():
    """Name -> coefficient rows: degrees 1-15, edge rows, and surface fibers."""
    rng = np.random.default_rng(2024)
    cases = {}
    for deg in range(1, 16):
        cases[f"deg{deg}"] = np.concatenate([random_rows(rng, 40, deg), edge_rows(deg, rng)])
    for label, s in (("bs0", BS0), ("bs1", BS1), ("b245", B245)):
        for axis, name in ((0, "x"), (2, "z")):
            parts = [sf.fiber_coefficients(s, *base_points(rng, 60, scale), axis)
                     for scale in (1e-3, 0.05, 1.0)]
            cases[f"{label}-{name}"] = np.concatenate(parts)
    return cases


CASES = kernel_cases()


def assert_same_bits(got, want):
    (roots, ok), (want_roots, want_ok) = got, want
    assert roots.shape == want_roots.shape
    assert roots.view(float).tobytes() == want_roots.view(float).tobytes()
    assert ok.tobytes() == want_ok.tobytes()


class TestAllRootsBits:
    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("max_iter", [1, 3, 200])
    def test_matches_the_frozen_kernel(self, name, max_iter):
        coeffs = CASES[name]
        with np.errstate(all="ignore"):
            got = sf.all_roots(coeffs, max_iter=max_iter)
            want = frozen_all_roots(coeffs, max_iter=max_iter)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("deg", range(1, 16))
    def test_edge_rows_are_solved_or_refused(self, deg):
        # Binomial rows stop at the roundoff test, NaN and inf rows never
        # converge, and x^n rows, with or without a NaN constant, are never
        # iterated: only the residual check refuses the NaN one.
        with np.errstate(all="ignore"):
            roots, ok = sf.all_roots(CASES[f"deg{deg}"][40:])
        assert ok.tolist() == [True] * 4 + [False] * 5 + [True] * 5
        assert (roots[3] == 0).all()

    @pytest.mark.parametrize("deg", [2, 5, 15])
    def test_a_row_alone_matches_its_mixed_batch(self, deg):
        # Binomial rows stop before the first step, x^n rows are never
        # iterated, NaN rows never converge and random rows stop late, so the
        # working set compacts at different iterations in each batch.
        rows = CASES[f"deg{deg}"]
        order = np.random.default_rng(deg).permutation(rows.shape[0])
        mixed = rows[order]
        with np.errstate(all="ignore"):
            whole = sf.all_roots(mixed)
            alone = [sf.all_roots(row[None]) for row in mixed]
            halves = [sf.all_roots(mixed[:7]), sf.all_roots(mixed[7:])]
        for parts in (alone, halves):
            assert_same_bits(tuple(np.concatenate(v) for v in zip(*parts)), whole)

    def test_empty_and_all_never_iterated_batches(self):
        rows = np.zeros((3, 6), dtype=complex)
        rows[:, 5] = [1.0, 2j, -3.0]
        for coeffs in (rows, rows[:0]):
            assert_same_bits(sf.all_roots(coeffs), frozen_all_roots(coeffs))


class TestNewtonStart:
    @pytest.mark.parametrize("name", ["deg1", "deg5", "deg15", "bs1-x", "bs1-z"])
    def test_degree_major_start_matches_the_row_major_one(self, name):
        c = CASES[name]
        c = c[(np.abs(c[:, :-1]) > 0).any(axis=1)]
        with np.errstate(all="ignore"):
            got = sf._newton_start(np.ascontiguousarray(c.T))
            want = frozen_newton_start(c)
        assert got.shape == want.T.shape
        assert got.view(float).tobytes() == np.ascontiguousarray(want.T).view(float).tobytes()


class TestRootGaps:
    def test_matches_the_broadcast_reference(self):
        rng = np.random.default_rng(11)
        for deg in range(1, 16):
            roots = rng.normal(size=(50, deg)) + 1j * rng.normal(size=(50, deg))
            roots[1, :] = roots[1, 0]                # every root coincides
            if deg > 1:
                roots[2, 1] = roots[2, 0]            # one coincident pair
                roots[3, 1] = np.nan                 # a NaN root
                roots[4, 0] = complex(0.0, np.nan)
            roots[5, -1] = np.inf
            got = sf._root_gaps(roots)
            with np.errstate(invalid="ignore"):
                want = broadcast_root_gaps(roots)
            assert got.shape == (50, deg)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_degree_one_and_empty_rows(self):
        roots = np.array([[1 + 1j], [2.0]], dtype=complex)
        assert (sf._root_gaps(roots) == np.inf).all()
        assert sf._root_gaps(np.zeros((0, 5), dtype=complex)).shape == (0, 5)

    def test_fiber_gaps_match_the_reference(self):
        roots, _ = sf.all_roots(CASES["bs1-x"])
        assert sf._root_gaps(roots).tobytes() == broadcast_root_gaps(roots).tobytes()
        w = cmath.exp(1j * math.pi / 4)
        double = np.array([[w * w, 0, -2 * w, 0, 1]], dtype=complex)
        roots, _ = sf.all_roots(double)
        assert sf._root_gaps(roots).tobytes() == broadcast_root_gaps(roots).tobytes()
