"""End-to-end acceptance suite: the nine headline guarantees.

Each test asserts one guarantee at its stated tolerance and runtime budget
and prints a single pass line with the measured values (visible with
``pytest -rA`` or on failure).  Heavier runs go through the command-line
driver so the suite also exercises the documented interface.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from singlab import cli
from singlab import covering as cv
from singlab import metric as mt
from singlab import separating as se
from singlab import surfaces as sf

BS0 = sf.briancon_speder(0.0)
BS1 = sf.briancon_speder(1.0)


def _pass(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_milnor_number_constant_across_family():
    start = time.monotonic()
    oracle = Fraction(15 - 3, 3) * Fraction(15 - 2, 2) * Fraction(15 - 1, 1)
    assert oracle == 364
    grid = (0.0, 0.1, 1.0, 1j)
    values = [sf.milnor_number(sf.briancon_speder(t)) for t in grid]
    assert values == [364, 364, 364, 364]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(
        "milnor-constancy",
        f"mu = 364 at t in {{0, 0.1, 1, i}} (exact), {elapsed:.3f}s",
    )


def test_slice_component_counts():
    worst = 0.0
    counts = {}
    for label, surface, expected in (
        ("t=0", BS0, 1),
        ("t=0.1", sf.briancon_speder(0.1), 3),
        ("t=1", BS1, 3),
        ("t=-2", sf.briancon_speder(-2.0), 3),
        ("t=i", sf.briancon_speder(1j), 3),
        ("brieskorn(2,4,5)", sf.brieskorn(2, 4, 5), math.gcd(2, 4)),
        ("brieskorn(2,2,3)", sf.brieskorn(2, 2, 3), math.gcd(2, 2)),
    ):
        start = time.monotonic()
        got = sf.slice_structure(surface).n_components
        worst = max(worst, time.monotonic() - start)
        assert got == expected, f"{label}: {got} != {expected}"
        counts[label] = got
    assert worst < 10.0
    _pass(
        "slice-components",
        f"counts {list(counts.values())} as predicted, worst call {worst:.3f}s",
    )


def test_monodromy_winding_anchor():
    start = time.monotonic()
    c = 0.01
    transitive, results = cv.cover_connectivity(BS0, 0.1, [cv.standard_loop(c)])
    res = results[0]
    expected = c ** 1.6 * complex(
        math.cos(14 * math.pi / 5), math.sin(14 * math.pi / 5)
    )
    rel = abs(res.normalized_end - expected) / abs(expected)
    shift = cv.sheet_shift(res)
    elapsed = time.monotonic() - start
    assert rel <= 1e-6
    assert shift % 5 == 2
    assert transitive
    assert elapsed < 30.0
    _pass(
        "monodromy-winding",
        f"end within rel {rel:.2e} of c^(8/5)e^(14pi i/5), shift {shift} == 2 mod 5, "
        f"transitive, {elapsed:.2f}s",
    )


def test_tangent_cone_collapse_on_deformed_member():
    start = time.monotonic()
    eps = 0.1
    cloud = se.conflict_set(BS1, eps, (0,), (1, 2), 5000, None, 0, threads=2)
    ladder = tuple(eps * 10 ** (-0.5 * i) for i in range(7))
    collapse = se.tangent_cone_collapse(cloud, ladder)
    elapsed = time.monotonic() - start
    assert collapse.rungs[-1] == 1e-3 * eps
    assert collapse.slope >= 0.5
    assert collapse.final_ratio < 0.1
    assert collapse.collapsed
    assert elapsed < 300.0
    _pass(
        "tangent-cone-collapse",
        f"slope {collapse.slope:.3f} >= 0.5, ratio {collapse.final_ratio:.2e} < 0.1 "
        f"at r = 1e-3*eps, n=5000, {elapsed:.1f}s",
    )


def test_separating_certificates_three_surfaces(tmp_path, capsys):
    timings = {}

    def run(name, ini, expect):
        path = tmp_path / f"{name}.ini"
        path.write_text(ini)
        out = tmp_path / name
        start = time.monotonic()
        code = cli.main(
            ["separating", "--config", str(path), "--threads", "2",
             "--out", str(out), "--expect", expect]
        )
        timings[name] = time.monotonic() - start
        assert code == 0, (
            f"{name}: exit code {code} (2 means a verdict other than "
            f"{expect}); stderr: {capsys.readouterr().err}"
        )
        assert timings[name] < 900.0
        return json.loads((out / "report.json").read_text())

    report = run(
        "bs1",
        "[surface]\nfamily = briancon-speder\nt = 1\n"
        "[separating]\nn_conflict = 8000\nn_side = 3000\n",
        "separating-evidence",
    )
    fitted = report["results"]["cone_report"]["alpha"]
    fitted_se = report["results"]["cone_report"]["alpha_se"]
    assert fitted > 3.0 + 3.0 * fitted_se
    assert report["results"]["side_a_report"]["verdict"] == "positive-density"
    assert report["results"]["side_b_report"]["verdict"] == "positive-density"

    report = run(
        "bs0",
        "[surface]\nfamily = briancon-speder\nt = 0\n",
        "no-evidence",
    )
    assert "1 component" in report["results"]["reason"]

    run(
        "b245",
        "[experiment]\nseed = 3\n"
        "[surface]\nfamily = brieskorn\nexponents = 2, 4, 5\n"
        "[separating]\nn_conflict = 6000\nn_side = 2500\n",
        "separating-evidence",
    )
    capsys.readouterr()
    _pass(
        "separating-certificates",
        f"BS(1) evidence (cone alpha {fitted:.3f} > 3+3se) in {timings['bs1']:.1f}s, "
        f"BS(0) no-evidence in {timings['bs0']:.1f}s, "
        f"brieskorn(2,4,5) evidence in {timings['b245']:.1f}s",
    )


def test_thin_wedge_volume_law():
    start = time.monotonic()
    eps_ws = (0.05, 0.1, 0.2)
    rs = (0.05, 0.035, 0.025, 0.018, 0.0125)
    table = se.thin_wedge_volume(BS0, eps_ws, rs, 20000, seed=0, threads=2)
    elapsed = time.monotonic() - start
    assert table.passed
    for eps_w, slope in table.r_slopes:
        assert abs(slope - 4.0) <= 0.3, f"r-exponent {slope} at eps_w={eps_w}"
    assert table.stability <= 5.0
    # The measure scales like eps_w^2 at these radii (base-area term), which
    # keeps the upper-bound form measure <= K_hat * eps_w * r^4 valid; any
    # exponent >= 1 is consistent with it, exact proportionality is not seen.
    betas = []
    for j in range(len(rs)):
        col = [table.cells[i * len(rs) + j] for i in range(len(eps_ws))]
        assert not any(c.flagged for c in col)
        beta = np.polyfit(
            np.log([c.eps_w for c in col]), np.log([c.measure for c in col]), 1
        )[0]
        assert beta >= 1.0
        betas.append(beta)
    # The table's own column fits agree with these independent ones.
    assert [r for r, _ in table.eps_w_exponents] == list(rs)
    assert [b for _, b in table.eps_w_exponents] == pytest.approx(betas, rel=1e-9)
    assert elapsed < 600.0
    slopes = [s for _, s in table.r_slopes]
    _pass(
        "thin-wedge-volume",
        f"r-exponents {min(slopes):.2f}-{max(slopes):.2f} in 4+-0.3, "
        f"K stability {table.stability:.2f} <= 5, eps_w-exponents "
        f"{min(betas):.2f}-{max(betas):.2f} >= 1, {elapsed:.1f}s",
    )


def test_lipschitz_derivative_bounds():
    start = time.monotonic()
    probe = cv.lipschitz_bound_probe(BS0, cv.LipschitzParams(0.1, n=200000), seed=0)
    elapsed = time.monotonic() - start
    lam = probe.lam_hat
    want_dy = (7**5 * lam**4 * 0.1**3 / (5**5 * 2**3)) ** 0.2
    want_dz = lam / 5.0
    assert abs(probe.bound_dy - want_dy) <= 1e-12 * want_dy
    assert abs(probe.bound_dz - want_dz) <= 1e-12 * want_dz
    assert probe.sup_dy <= probe.bound_dy
    assert probe.sup_dz <= probe.bound_dz
    assert probe.ratio_dy <= 1.0 and probe.ratio_dz <= 1.0
    assert probe.passed
    assert elapsed < 120.0
    _pass(
        "lipschitz-bounds",
        f"sup ratios {probe.ratio_dy:.3f}/{probe.ratio_dz:.3f} <= 1 with "
        f"lambda_hat {lam:.4f} (1.2-safety estimator), {elapsed:.1f}s",
    )


def test_density_estimator_anchors(tmp_path, capsys):
    start = time.monotonic()
    code = cli.main(["density-anchors", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "passed"
    misses = {}
    checks = report["results"]["checks"]
    assert all(c["holds"] for c in checks)
    for name, target in (
        ("plane", 1.0), ("half-plane", 0.5), ("quarter-plane", 0.25)
    ):
        block = report["results"]["anchors"][name]
        assert sum(c["name"].startswith(f"{name} ") for c in checks) == 4
        theta = block["report"]["theta_star"]
        se_star = block["report"]["theta_star_se"]
        assert abs(theta - target) <= 3.0 * se_star + 1e-9
        misses[name] = abs(theta - target)
    comp = report["results"]["comparability"]
    assert 0.8 <= comp["low"] <= comp["high"] <= 1.25
    assert elapsed < 120.0
    _pass(
        "density-anchors",
        f"theta* misses {misses['plane']:.1e}/{misses['half-plane']:.1e}/"
        f"{misses['quarter-plane']:.1e} all within 3se of 1, 1/2, 1/4; "
        f"comparability [{comp['low']:.3f}, {comp['high']:.3f}] in [0.8, 1.25], "
        f"{elapsed:.1f}s",
    )


def test_reproducibility_and_core_numerics(tmp_path, capsys):
    start = time.monotonic()
    ini = tmp_path / "conicality.ini"
    ini.write_text(
        "[surface]\nfamily = briancon-speder\n"
        "[conicality]\nr_ladder = 0.1, 0.05\nn = 600\nn_pairs = 200\n"
        "min_rung_points = 50\n"
    )
    blobs = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        code = cli.main(
            ["conicality", "--config", str(ini), "--threads", str(threads),
             "--out", str(out)]
        )
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]

    rng = np.random.default_rng(5)
    vieta_worst = 0.0
    for _ in range(25):
        y, z = (complex(*rng.normal(size=2)) for _ in range(2))
        coeffs = sf.fiber_coefficients(BS1, y, z)
        sheets, ok = sf.fiber_sheets(BS1, y, z)
        assert ok.all()
        roots = sheets[0, :, 0]
        scale = 1.0 + np.abs(roots).max()
        sum_err = abs(roots.sum() - (-coeffs[4] / coeffs[5])) / scale
        prod_scale = (1.0 + abs(coeffs[0])) ** 2
        prod_err = abs(roots.prod() + coeffs[0] / coeffs[5]) / prod_scale
        vieta_worst = max(vieta_worst, sum_err, prod_err)
    assert vieta_worst <= 1e-8

    pts = 0.8 * (rng.normal(size=(100, 3)) + 1j * rng.normal(size=(100, 3)))
    grad = sf.gradient(BS1, pts)
    h = 1e-5
    fd_worst = 0.0
    for axis in range(3):
        shift = np.zeros(3, dtype=complex)
        shift[axis] = h
        fd = (sf.evaluate(BS1, pts + shift) - sf.evaluate(BS1, pts - shift)) / (2 * h)
        denom = np.maximum(np.abs(grad[:, axis]), 1.0)
        fd_worst = max(fd_worst, float(np.max(np.abs(fd - grad[:, axis]) / denom)))
    assert fd_worst < 1e-5

    loop = cv.standard_loop(0.01)
    forward = cv.lift_loop(BS0, loop, 0)
    backward = cv.lift_loop(BS0, cv.reverse_loop(loop), 0)
    inverse = tuple(forward.permutation.index(i) for i in range(5))
    assert backward.permutation == inverse

    elapsed = time.monotonic() - start
    _pass(
        "infrastructure",
        f"reports byte-identical across threads, Vieta worst {vieta_worst:.1e} "
        f"<= 1e-8, gradient-FD worst {fd_worst:.1e} < 1e-5, reverse-loop "
        f"permutation inverse exact, {elapsed:.1f}s",
    )
