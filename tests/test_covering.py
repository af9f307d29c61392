"""Tests for loop lifting, cover connectivity, and the wedge probes.

Exact anchors: the standard loop's tracked phase is 14 pi / 5 to near
machine precision, reversal inverts the permutation exactly, scaling a
point set by a power of two leaves graph distortion ratios bitwise
unchanged, the ratios equal a per-source, per-pair loop bitwise, and the
closed-form implicit derivatives agree with the generic gradient quotient
to 1e-12.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from singlab import covering as cv
from singlab import metric as mt
from singlab import surfaces as sf
from singlab.util import derive_rng, records_csv

BS0 = sf.briancon_speder(0.0)
X5Z15 = sf.WeightedSurface(
    (3, 2, 1), 15, (((5, 0, 0), 1.0), ((0, 0, 15), 1.0)), "x5z15"
)
C = 0.01


def points_loop(rows, margin=1e-7):
    """A "points" loop through the given (y, z) rows."""
    return cv.LoopSpec("points", np.asarray(rows, dtype=complex), margin=margin)


def constant_points(y, z, n_steps=8):
    """The loop that stays at (y, z) for n_steps steps."""
    return points_loop(np.tile(np.array([[y, z]], dtype=complex), (n_steps + 1, 1)))


def repeated(loop, times):
    """The loop's samples traversed ``times`` times in a row."""
    rows = np.concatenate([loop.points[:-1]] * times + [loop.points[-1:]])
    return points_loop(rows, margin=loop.margin)


def z_circle(c, n_steps=2048, margin=1e-7):
    """The z-circle t -> (c, c e^{2 pi i t}) at constant y = c."""
    t = np.arange(n_steps + 1) / n_steps
    rows = np.empty((n_steps + 1, 2), dtype=complex)
    rows[:, 0] = c
    rows[:, 1] = c * np.exp(2j * np.pi * t)
    rows[-1, 1] = rows[0, 1]
    return points_loop(rows, margin=margin)


def base_fiber(s, y, z):
    """all_roots' x-roots over (y, z), sorted by (Re, Im): a lift's start fiber, bitwise."""
    roots, ok = sf.all_roots(sf.fiber_coefficients(s, y, z))
    assert ok.all()
    return roots[0][np.lexsort((roots[0].imag, roots[0].real))]


def match(prev, nxt):
    """_match_rows on one step, which must be accepted."""
    assign, ok = sf._match_rows(prev[None], nxt[None])
    assert ok[0]
    return assign[0]


def sequential_lift(s, loop):
    """Reference lift: nearest-root matching step by step over the loop's
    batch-solved fibers, without halvings.  Returns (trajectories,
    parameter values, phases, permutation)."""
    ys, zs = loop.points[:, 0], loop.points[:, 1]
    base = base_fiber(s, ys[0], zs[0])
    fibers, ok = sf.all_roots(sf.fiber_coefficients(s, ys, zs))
    assert ok.all()
    current, phases, kept = base, np.zeros(base.size), [base]
    for fiber in fibers[1:]:
        moved = fiber[match(current, fiber)]
        phases += np.angle(moved / current)
        current = moved
        kept.append(current)
    perm = tuple(int(v) for v in match(current, base))
    t = tuple(float(v) for v in np.arange(loop.n_steps + 1) / loop.n_steps)
    return np.array(kept), t, phases, perm


@pytest.fixture(scope="module")
def loop():
    return cv.standard_loop(C)


@pytest.fixture(scope="module")
def lifted(loop):
    return cv.lift_loop(BS0, loop, 0)


class TestLoopSpec:
    def test_closure_required(self):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [1.5, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="close"):
            cv.LoopSpec("points", pts)

    def test_margin_positive(self, loop):
        with pytest.raises(ValueError, match="margin"):
            cv.LoopSpec("points", loop.points, margin=0.0)

    def test_unknown_kind(self, loop):
        with pytest.raises(ValueError, match="kind"):
            cv.LoopSpec("spiral", loop.points)

    def test_formula_resampling_exact(self, loop):
        y, z = loop.at(0.25)
        assert y == pytest.approx(C * np.exp(0.5j * np.pi), abs=1e-15)
        assert z == pytest.approx(C, abs=0)
        assert loop.n_steps == 2048
        assert loop.points[0, 0] == loop.points[-1, 0]

    def test_point_loop_chord_midpoints(self):
        pts = np.array([[0.0, 1.0], [2.0, 1.0], [0.0, 1.0]], dtype=complex)
        pl = cv.LoopSpec("points", pts)
        y, z = pl.at(0.25)
        assert y == pytest.approx(1.0)
        assert z == pytest.approx(1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="positive"):
            cv.standard_loop(0.0)
        with pytest.raises(ValueError, match="steps"):
            cv.standard_loop(0.01, n_steps=4)

    def test_reverse_layout(self, loop):
        rev = cv.reverse_loop(loop)
        assert np.array_equal(rev.points, loop.points[::-1])


class TestBranchLocusDistance:
    def test_y_axis_component(self):
        assert cv.branch_locus_distance(BS0, 1.0, 0.0) == 0.0

    def test_curve_component(self):
        assert cv.branch_locus_distance(BS0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        zeta = np.exp(2j * np.pi / 14)
        z = 0.5
        assert cv.branch_locus_distance(BS0, zeta * z * z, z) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_off_locus(self):
        assert cv.branch_locus_distance(BS0, 0.0, 1.0) == pytest.approx(1.0)

    def test_general_fallback_root_separation(self):
        z = 0.3
        got = cv.branch_locus_distance(X5Z15, 1.0, z)
        want = 2.0 * math.sin(math.pi / 5) * z**3
        assert got == pytest.approx(want, rel=1e-9)


class TestLiftLoop:
    def test_winding_phase(self, lifted):
        want = 14.0 * math.pi / 5.0
        assert lifted.phase == pytest.approx(want, rel=1e-6)

    def test_normalized_end_value(self, lifted):
        want = C**1.6 * np.exp(1j * 14.0 * math.pi / 5.0)
        assert abs(lifted.normalized_end - want) <= 1e-6 * abs(want)

    def test_sheet_shift_and_cycle(self, lifted):
        assert cv.sheet_shift(lifted) == 2
        perm = lifted.permutation
        seen, i = set(), 0
        for _ in range(5):
            seen.add(i)
            i = perm[i]
        assert seen == set(range(5))
        assert lifted.end_index == perm[lifted.start_index]

    def test_readme_permutation(self, lifted):
        # The base fiber is real, so conjugate sheets tie in Re and the
        # sheet labels rest on the sort's Im order; README quotes them.
        assert lifted.permutation == (3, 4, 1, 2, 0)

    def test_phase_same_from_every_sheet(self, loop, lifted):
        for start in range(1, 5):
            res = cv.lift_loop(BS0, loop, start)
            assert res.phase == pytest.approx(lifted.phase, abs=1e-9)
            assert res.permutation == lifted.permutation
            assert cv.sheet_shift(res) == 2

    def test_five_times_is_identity(self, loop):
        res = cv.lift_loop(BS0, repeated(loop, 5), 0)
        assert res.permutation == (0, 1, 2, 3, 4)
        assert res.phase == pytest.approx(14.0 * math.pi, rel=1e-9)
        assert cv.sheet_shift(res) == 0

    def test_constant_loop_trivial(self):
        res = cv.lift_loop(BS0, constant_points(0.01, 0.01), 0)
        assert res.permutation == (0, 1, 2, 3, 4)
        assert res.phase == 0.0

    def test_reverse_gives_inverse(self, loop, lifted):
        rev = cv.lift_loop(BS0, cv.reverse_loop(loop), 0)
        inverse = tuple(lifted.permutation.index(i) for i in range(5))
        assert rev.permutation == inverse
        assert rev.phase == pytest.approx(-lifted.phase, abs=1e-9)

    def test_resolution_doubling_stable(self, lifted):
        res = cv.lift_loop(BS0, cv.standard_loop(C, n_steps=4096), 0)
        assert res.permutation == lifted.permutation
        assert abs(res.phase - lifted.phase) < 1e-6

    def test_more_steps_never_read_fewer_solves(self, lifted):
        # n_steps + 1 nodes (the first is the base fiber) + n_steps midpoints,
        # solved in one batch, + one per bisection point beyond the midpoints.
        counts = [
            cv.lift_loop(BS0, cv.standard_loop(C, n_steps=n), 0).n_solves
            for n in (16, 32, 64)
        ] + [lifted.n_solves]
        assert counts == sorted(counts)
        assert counts[0] == 33  # every interval is bisected at its midpoint
        assert lifted.n_solves == 4097

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_the_sequential_reference(self, loop, reverse):
        if reverse:
            loop = cv.reverse_loop(loop)
        res = cv.lift_loop(BS0, loop, 0)
        trajectories, t, phases, perm = sequential_lift(BS0, loop)
        assert res.trajectories.tobytes() == trajectories.tobytes()
        assert res.parameter_values == t
        assert res.phase == phases[0]
        assert res.permutation == perm

    def test_coarse_loop_is_not_aliased(self, lifted):
        # At 8 steps each nearest-root step is unambiguous but aliased: every
        # root steps -9 degrees instead of +63, which reads as sheet shift 4.
        # The midpoint check bisects every step instead.
        res = cv.lift_loop(BS0, cv.standard_loop(C, n_steps=8), 0)
        assert cv.sheet_shift(res) == 2
        assert res.permutation == lifted.permutation
        assert res.n_solves == 9 + 8 + 16  # + 16 further bisection points

    def test_repeat_composes_permutation(self, loop, lifted):
        res2 = cv.lift_loop(BS0, repeated(loop, 2), 0)
        perm = lifted.permutation
        composed = tuple(perm[perm[i]] for i in range(5))
        assert res2.permutation == composed

    def test_branch_margin_gate(self):
        with pytest.raises(sf.ContinuationError, match="branch locus"):
            cv.lift_loop(BS0, constant_points(1.0, 0.0), 0)
        with pytest.raises(sf.ContinuationError, match="branch locus"):
            cv.lift_loop(BS0, dataclasses.replace(cv.standard_loop(C), margin=1.0), 0)

    def test_nearly_ramified_base_rejected(self):
        bad = z_circle(0.005, n_steps=64, margin=1e-12)
        with pytest.raises(sf.BranchPointError, match="separation"):
            cv.lift_loop(X5Z15, bad, 0)

    def test_start_index_validation(self, loop):
        with pytest.raises(ValueError, match="start index"):
            cv.lift_loop(BS0, loop, 5)

    def test_deterministic(self, loop, lifted):
        again = cv.lift_loop(BS0, loop, 0)
        assert cv.monodromy_dict(again) == cv.monodromy_dict(lifted)


class TestMonodromyResult:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            cv.MonodromyResult("s", (0, 0, 1), 0, 0, 0.0, 1 + 0j, 1 + 0j, 1 + 0j, 1)

    def test_end_index_consistency(self):
        with pytest.raises(ValueError, match="end index"):
            cv.MonodromyResult("s", (1, 0), 0, 0, 0.0, 1 + 0j, 1 + 0j, 1 + 0j, 1)

    def test_dict_serializes(self, lifted):
        blob = cv.monodromy_dict(lifted)
        assert blob["schema"] == "monodromy/v1"
        assert blob["permutation"] == list(lifted.permutation)
        assert blob["sheet_shift"] == 2
        json.dumps(blob)

    def test_trajectories_roundtrip(self):
        short = cv.standard_loop(C, n_steps=64)
        res = cv.lift_loop(BS0, short, 0)
        assert res.trajectories.shape[1] == 5
        assert res.trajectories.shape[0] == len(res.parameter_values)
        base = base_fiber(BS0, C, C)
        assert np.array_equal(res.trajectories[0], base)
        assert res.parameter_values[0] == 0.0
        assert res.parameter_values[-1] == 1.0


class TestCoverConnectivity:
    def test_standard_loop_generates_full_cover(self, loop):
        transitive, results = cv.cover_connectivity(BS0, 0.1, [loop])
        assert transitive
        assert results[0].transitive is True
        perm = results[0].permutation
        power = tuple(range(5))
        for _ in range(5):
            power = tuple(perm[i] for i in power)
        assert power == (0, 1, 2, 3, 4)

    def test_global_sheets_never_connect(self):
        zl = z_circle(C, margin=1e-9)
        transitive, results = cv.cover_connectivity(X5Z15, 0.1, [zl])
        assert not transitive
        assert results[0].permutation == (0, 1, 2, 3, 4)
        assert results[0].phase == pytest.approx(6.0 * math.pi, rel=1e-9)

    def test_empty_loop_set_not_transitive(self):
        transitive, results = cv.cover_connectivity(BS0, 0.1, [])
        assert not transitive
        assert results == []

    def test_region_gates(self, loop):
        with pytest.raises(ValueError, match="eps_w/4"):
            cv.cover_connectivity(BS0, 0.1, [cv.standard_loop(0.03)])
        with pytest.raises(ValueError, match="wedge"):
            cv.cover_connectivity(BS0, 0.1, [constant_points(0.03, 0.001)])
        # Inside the wedge, but |(y, z)| = 0.04·√2 exceeds the eps_w/2 = 0.05 disk.
        with pytest.raises(ValueError, match="disk"):
            cv.cover_connectivity(BS0, 0.1, [constant_points(0.04, 0.04)])
        with pytest.raises(ValueError, match="eps_w"):
            cv.cover_connectivity(BS0, 1.5, [loop])


class TestLipschitzProbe:
    def test_bounds_hold_with_margin(self):
        probe = cv.lipschitz_bound_probe(BS0, cv.LipschitzParams(0.1, n=60000), seed=0)
        assert probe.passed
        assert probe.ratio_dy <= 1.0
        assert probe.ratio_dz <= 1.0
        assert 0 < probe.sup_dy < math.inf
        assert 0 < probe.sup_dz < math.inf
        assert probe.lam_hat > 0
        assert probe.n_region >= 50000
        assert probe.n_sheets == 5

    def test_suprema_monotone_under_wedge_widening(self):
        wide = cv.lipschitz_bound_probe(BS0, cv.LipschitzParams(0.05, 0.05, 40000), seed=1)
        narrow = cv.lipschitz_bound_probe(BS0, cv.LipschitzParams(0.1, 0.05, 40000), seed=1)
        assert wide.sup_dy >= narrow.sup_dy
        assert wide.sup_dz >= narrow.sup_dz

    def test_bound_scaling_in_eps_w(self):
        lam = 1.7
        dy_full, dz_full = cv.derivative_bounds(lam, 0.1)
        dy_half, dz_half = cv.derivative_bounds(lam, 0.05)
        assert dy_half / dy_full == pytest.approx(2.0 ** (-0.6), rel=1e-12)
        assert dz_half == dz_full

    def test_closed_forms_match_gradient_quotient(self):
        rng = np.random.default_rng(2)
        y = 0.02 * (rng.random(50) + 0.5) * np.exp(2j * np.pi * rng.random(50))
        z = y * np.exp(2j * np.pi * rng.random(50))
        sheets, ok = sf.fiber_sheets(BS0, y, z)
        assert ok.all()
        pts = sheets.reshape(250, 3)
        dxdy, dxdz = sf.implicit_derivatives(BS0, pts)
        x = pts[:, 0]
        closed_dy = -7.0 * pts[:, 1] ** 6 * pts[:, 2] / (5.0 * x**4)
        closed_dz = -(15.0 * pts[:, 2] ** 14 + pts[:, 1] ** 7) / (5.0 * x**4)
        assert np.allclose(dxdy, closed_dy, rtol=1e-12, atol=0)
        assert np.allclose(dxdz, closed_dz, rtol=1e-12, atol=0)

    def test_requires_the_specific_surface(self):
        with pytest.raises(ValueError, match="x\\^5"):
            cv.lipschitz_bound_probe(sf.briancon_speder(1.0), cv.LipschitzParams(n=2000))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"^eps_w must lie in \(0, 1\], got 1.5$"):
            cv.LipschitzParams(eps_w=1.5)
        with pytest.raises(ValueError, match="^disk_radius must be positive, got 0.0$"):
            cv.LipschitzParams(disk_radius=0.0)
        with pytest.raises(ValueError, match="^n must be at least 1000, got 10$"):
            cv.LipschitzParams(n=10)

    def test_dict_serializes(self):
        probe = cv.lipschitz_bound_probe(BS0, cv.LipschitzParams(n=5000), seed=3)
        blob = cv.lipschitz_dict(probe)
        assert blob["schema"] == "lipschitz-probe/v1"
        json.dumps(blob)


def flat_ball_points(n, radius, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rad = radius * rng.random(n) ** 0.25
    pts6 = np.zeros((n, 6))
    pts6[:, :4] = raw * rad[:, None]
    return pts6


def reference_distortion(points, n_pairs=1500, seed=0, *, pairs=None):
    """graph_distortion as a Python loop: one undirected scipy Dijkstra pass
    per source, one np.linalg.norm chord per pair."""
    graph = mt.build_graph(points, 12, connection_factor=2.0)
    p6 = graph.points6
    m = p6.shape[0]
    if pairs is None:
        rng = derive_rng(seed, "distortion-pairs")
        n_src = min(32, m)
        sources = rng.choice(m, size=n_src, replace=False)
        per = max(1, n_pairs // n_src)
        pairs = [(int(a), int(b)) for a in sources for b in rng.integers(0, m, size=per)]
    dists = {}
    out = []
    for a, b in pairs:
        if a == b:
            out.append(1.0)
            continue
        if a not in dists:
            dists[a] = dijkstra(graph.matrix, directed=False, indices=a)
        outer = float(np.linalg.norm(p6[a] - p6[b]))
        out.append(1.0 if outer == 0.0 else float(dists[a][b]) / outer)
    return np.array(out)


@pytest.fixture(scope="module")
def split_cloud():
    """A flat ball with 20 doubled points plus a far cluster: zero chords
    between distinct vertices and pairs split across components."""
    ball = flat_ball_points(700, 1.0, 3)
    far = np.random.default_rng(6).normal(scale=0.01, size=(40, 6)) + 10.0
    return np.vstack([ball, ball[:20], far])


class TestGraphDistortion:
    @pytest.mark.parametrize("n_pairs, seed", [(1500, 0), (500, 1), (40, 2)])
    def test_drawn_pairs_match_the_per_source_loop(self, split_cloud, n_pairs, seed):
        new = cv.graph_distortion(split_cloud, n_pairs, seed)
        ref = reference_distortion(split_cloud, n_pairs, seed)
        assert new.tobytes() == ref.tobytes()
        assert np.isinf(new).any() and np.isfinite(new).any()

    def test_given_pairs_match_the_per_source_loop(self, split_cloud):
        rng = np.random.default_rng(12)
        m = split_cloud.shape[0]
        pairs = [(0, 0), (700, 0), (0, 700), (19, 719), (5, 745), (745, 5), (3, 3)]
        pairs += [tuple(p) for p in rng.integers(0, m, size=(600, 2))]
        new = cv.graph_distortion(split_cloud, pairs=pairs)
        ref = reference_distortion(split_cloud, pairs=pairs)
        assert new.tobytes() == ref.tobytes()
        assert np.array_equal(new[:4], [1.0, 1.0, 1.0, 1.0])
        assert np.isinf(new[4:6]).all()

    def test_flat_ball_low_distortion(self):
        pts = flat_ball_points(3500, 1.0, 11)
        ratios = cv.graph_distortion(pts, 1500, seed=7, connection_factor=3.0)
        finite = ratios[np.isfinite(ratios)]
        assert finite.size == ratios.size
        assert finite.max() <= 1.1
        assert finite.min() >= 1.0 - 1e-9

    def test_scale_invariance_bitwise(self):
        pts = flat_ball_points(1200, 1.0, 4)
        a = cv.graph_distortion(pts, 600, seed=9, connection_factor=2.0)
        b = cv.graph_distortion(0.5 * pts, 600, seed=9, connection_factor=2.0)
        assert np.array_equal(a, b)

    def test_same_vertex_pair_is_one(self):
        pts = flat_ball_points(200, 1.0, 5)
        ratios = cv.graph_distortion(pts, pairs=[(0, 0), (3, 3)])
        assert np.array_equal(ratios, [1.0, 1.0])

    def test_split_components_report_inf(self):
        rng = np.random.default_rng(8)
        a = rng.normal(scale=0.01, size=(40, 6))
        b = rng.normal(scale=0.01, size=(40, 6)) + 10.0
        pts = np.vstack([a, b])
        ratios = cv.graph_distortion(pts, pairs=[(0, 50), (0, 1)])
        assert math.isinf(ratios[0])
        assert np.isfinite(ratios[1])


class TestConicalityProbe:
    def test_wedge_is_conical_across_radii(self):
        params = cv.ConicalityParams(0.1, (0.1, 0.05, 0.025, 0.0125), n=4000)
        table = cv.conicality_probe(BS0, params, seed=0, threads=2)
        assert table.passed
        assert abs(table.slope) <= 0.2
        assert table.max_ratio <= 2.0
        for rung in table.rungs:
            assert not rung.flagged
            assert rung.n_points >= 200
            assert 1.0 <= rung.median_ratio <= 1.3

    def test_starved_rungs_flagged(self):
        table = cv.conicality_probe(BS0, cv.ConicalityParams(r_ladder=(0.1, 0.05), n=30), seed=1)
        assert all(r.flagged for r in table.rungs)
        assert not table.passed
        assert math.isnan(table.slope)

    @pytest.mark.parametrize("n_finite, flagged", [(20, False), (16, False), (15, True)])
    def test_rung_flag_counts_the_drawn_pairs(self, monkeypatch, n_finite, flagged):
        # n_pairs 63 draws 32 * max(1, 63 // 32) = 32 pairs: a rung is
        # flagged when fewer than 16 of those 32 are finite, not 31 of 63.
        ratios = np.r_[np.linspace(1.0, 1.2, n_finite), np.full(32 - n_finite, np.inf)]
        monkeypatch.setattr(cv, "graph_distortion", lambda *args, **kwargs: ratios.copy())
        params = cv.ConicalityParams(r_ladder=(0.1, 0.05), n=600, n_pairs=63, min_rung_points=20)
        table = cv.conicality_probe(BS0, params, seed=2)
        for rung in table.rungs:
            assert rung.n_points >= 20
            assert rung.n_pairs == n_finite
            assert rung.flagged is flagged

    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="^r_ladder must be strictly decreasing$"):
            cv.ConicalityParams(r_ladder=(0.05, 0.1))
        with pytest.raises(ValueError, match="^r_ladder must be nonempty, with positive radii$"):
            cv.ConicalityParams(r_ladder=())
        with pytest.raises(ValueError, match="^r_ladder needs at least 2 rungs, got 1$"):
            cv.ConicalityParams(r_ladder=(0.1,))

    def test_pair_count_floor(self):
        # The floor validate applies: fewer than 32 pairs used to measure 32.
        with pytest.raises(ValueError, match="^n_pairs must be at least 32, got 10$"):
            cv.ConicalityParams(n_pairs=10)

    def test_table_invariant(self):
        rung = cv.ConicalityRung(0.1, 500, 100, 1.2, 1.1, False)
        rung2 = cv.ConicalityRung(0.2, 500, 100, 1.2, 1.1, False)
        with pytest.raises(ValueError, match="decreasing"):
            cv.ConicalityTable(
                "s", 0.1, (rung, rung2), 0.0, 1.2, True, 2.0, 0.2, 0, 100, 12
            )

    def test_serialization(self):
        table = cv.conicality_probe(BS0, cv.ConicalityParams(r_ladder=(0.1, 0.05), n=600), seed=2)
        blob = cv.conicality_dict(table)
        assert blob["schema"] == "conicality/v1"
        json.dumps(blob)
        csv = records_csv(table.rungs)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("r,n_points")
        assert len(lines) == 1 + len(table.rungs)
