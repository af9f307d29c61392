"""The benchmark's workloads: which experiments a pass runs and how each is checked.

Every experiment is configured by an INI file under ``configs/`` and runs
through ``cli.build_config`` + ``cli.run_experiment``, the public path the
``singlab`` command takes, minus writing report files.  A pass runs all
experiments of a workload once at one thread count.

Checks use the README acceptance thresholds.  Each check is a
(name, ok, margin) triple.  A threshold check's margin says by how much it
holds (negative when it fails); a yes/no check has margin 0 or -1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclasses.dataclass(frozen=True)
class Entry:
    """One experiment run of a workload pass."""

    label: str
    experiment: str
    config: str
    expect: object = None  # expected verdict (or slice count)
    pinned_seed: int | None = None  # used instead of the benchmark seed

    def seed(self, bench_seed: int) -> int:
        return bench_seed if self.pinned_seed is None else self.pinned_seed


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple


WORKLOADS = {
    "certificate": Workload(
        "certificate",
        (
            # The certificate verdicts are seed-sensitive at this size (seed 14
            # leaves BS(1) inconclusive at 800 / 400 and at 1500 / 800, and
            # seed 17 brieskorn(2,4,5)), so both keep the README acceptance
            # seeds, 0 and 3.
            Entry("bs1", "separating", "certificate-bs1.ini", "separating-evidence",
                  pinned_seed=0),
            Entry("b245", "separating", "certificate-b245.ini", "separating-evidence",
                  pinned_seed=3),
            Entry("bs0", "separating", "certificate-bs0.ini", "no-evidence"),
        ),
    ),
    "volume": Workload(
        "volume",
        (
            # Below the acceptance size the thin-wedge thresholds are
            # seed-sensitive (seed 4 gives K stability 6.91 > 5 at n = 10000;
            # seeds 0, 1 and 4 pass at the acceptance n = 20000, too slow for a
            # run), so the table keeps its acceptance seed and stays a gate.
            Entry("thin_wedge", "thin-wedge", "volume-thin-wedge.ini", "passed",
                  pinned_seed=0),
            Entry("lipschitz", "lipschitz-bounds", "volume-lipschitz.ini", "passed"),
        ),
    ),
    "continuation": Workload(
        "continuation",
        (
            Entry("slice_t0", "slice-components", "slice-t0.ini", 1),
            Entry("slice_t0.1", "slice-components", "slice-t0.1.ini", 3),
            Entry("slice_t1", "slice-components", "slice-t1.ini", 3),
            Entry("slice_t-2", "slice-components", "slice-t-2.ini", 3),
            Entry("slice_ti", "slice-components", "slice-ti.ini", 3),
            Entry("slice_b245", "slice-components", "slice-b245.ini", 2),
            Entry("slice_b223", "slice-components", "slice-b223.ini", 2),
            Entry("monodromy", "monodromy", "continuation-monodromy.ini", "transitive"),
            Entry("mu", "mu-constancy", "continuation-mu.ini", "constant"),
        ),
    ),
    "geodesic": Workload(
        "geodesic",
        (
            # Seed-sensitive below the acceptance size like thin-wedge: seed 5
            # gives a max inner/outer ratio 2.34 > 2 at n = 1500 (1.69 at the
            # acceptance n = 4000).
            Entry("conicality", "conicality", "geodesic-conicality.ini", "passed",
                  pinned_seed=0),
            Entry("anchors", "density-anchors", "geodesic-anchors.ini", "passed"),
        ),
    ),
}


def build_configs(cli, workload: Workload, seed: int, threads: int) -> list:
    """Resolved ExperimentConfig per entry, in entry order."""
    configs = []
    for entry in workload.entries:
        args = argparse.Namespace(
            config=str(CONFIG_DIR / entry.config),
            seed=entry.seed(seed),
            threads=threads,
            out=None,
        )
        configs.append(cli.build_config(entry.experiment, args))
    return configs


def canonical_json(value) -> str:
    """Stable text of an Outcome.results tree; floats keep every digit."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _plain(value.tolist())
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _check(name, ok, margin):
    return (name, bool(ok), float(margin))


def flag(name, ok):
    """A yes/no check."""
    return _check(name, ok, 0.0 if ok else -1.0)


def _verdict(label, entry, outcome):
    return flag(f"{label}.verdict", outcome.verdict == entry.expect)


def _separating_checks(label, entry, outcome):
    checks = [_verdict(label, entry, outcome)]
    cone = outcome.results.get("cone_report")
    if entry.expect == "separating-evidence":
        alpha = cone["alpha"] if cone else math.nan
        alpha_se = cone["alpha_se"] if cone else math.nan
        margin = alpha - (3.0 + 3.0 * alpha_se)
        checks.append(_check(f"{label}.cone_alpha_over_3_plus_3se", margin > 0, margin))
    return checks


def _thin_wedge_checks(label, entry, outcome):
    r = outcome.results
    worst_r = max((abs(s - 4.0) for _, s in r["r_slopes"]), default=math.inf)
    stability = r["stability"]
    betas = [b for _, b in r["eps_w_exponents"]]
    min_beta = min(betas) if betas and all(math.isfinite(b) for b in betas) else math.nan
    return [
        _verdict(label, entry, outcome),
        _check(f"{label}.r_exponent_within_4pm0.3", worst_r <= 0.3, 0.3 - worst_r),
        _check(f"{label}.stability_le_5", stability <= 5.0, 5.0 - stability),
        _check(f"{label}.eps_w_exponent_ge_1", min_beta >= 1.0, min_beta - 1.0),
    ]


def _lipschitz_checks(label, entry, outcome):
    r = outcome.results
    worst = max(r["ratio_dy"], r["ratio_dz"])
    return [
        _verdict(label, entry, outcome),
        _check(f"{label}.sup_ratio_le_1", worst <= 1.0, 1.0 - worst),
    ]


def _slice_checks(label, entry, outcome):
    got = outcome.results["n_components"]
    return [flag(f"{label}.components_eq_{entry.expect}", got == entry.expect)]


def _monodromy_checks(label, entry, outcome):
    anchor = outcome.results["anchor"] or {}
    rel = anchor.get("rel_error", math.inf)
    return [
        _check(f"{label}.end_rel_error_le_1e-6", rel <= 1e-6, 1e-6 - rel),
        flag(f"{label}.sheet_shift_eq_2", anchor.get("sheet_shift") == 2),
        _verdict(label, entry, outcome),
    ]


def _mu_checks(label, entry, outcome):
    values = outcome.results["mu_values"]
    return [_verdict(label, entry, outcome),
            flag(f"{label}.mu_eq_364", all(v == 364 for v in values))]


def _conicality_checks(label, entry, outcome):
    r = outcome.results
    return [
        _verdict(label, entry, outcome),
        _check(f"{label}.max_ratio_within_bound", r["max_ratio"] <= r["max_ratio_bound"],
               r["max_ratio_bound"] - r["max_ratio"]),
        _check(f"{label}.slope_within_tol", abs(r["slope"]) <= r["slope_tol"],
               r["slope_tol"] - abs(r["slope"])),
    ]


def _anchor_checks(label, entry, outcome):
    r = outcome.results
    checks = [_verdict(label, entry, outcome)]
    for name, block in sorted(r["anchors"].items()):
        rep = block["report"]
        margin = 3.0 * rep["theta_star_se"] + 1e-9 - abs(rep["theta_star"] - block["target"])
        checks.append(_check(f"{label}.{name}_within_3se", margin >= 0, margin))
    comp = r["comparability"]
    margin = min(comp["low"] - 0.8, 1.25 - comp["high"])
    checks.append(_check(f"{label}.comparability_in_0.8_1.25", margin >= 0, margin))
    return checks


CHECKS = {
    "separating": _separating_checks,
    "thin-wedge": _thin_wedge_checks,
    "lipschitz-bounds": _lipschitz_checks,
    "slice-components": _slice_checks,
    "monodromy": _monodromy_checks,
    "mu-constancy": _mu_checks,
    "conicality": _conicality_checks,
    "density-anchors": _anchor_checks,
}


def run_pass(cli, workload: Workload, configs, clock) -> tuple[float, list]:
    """Run every entry once; (wall seconds, [Outcome or exception])."""
    outcomes = []
    start = clock()
    for cfg in configs:
        try:
            outcomes.append(cli.run_experiment(cfg))
        except Exception as exc:  # a failed run is a failed check, not a crash
            outcomes.append(exc)
    return clock() - start, outcomes


def check_pass(workload: Workload, outcomes) -> list:
    """Acceptance checks of one pass, in entry order."""
    checks = []
    for entry, outcome in zip(workload.entries, outcomes):
        label = f"{workload.name}.{entry.label}"
        if isinstance(outcome, Exception):
            checks.append(flag(f"{label}.ran", False))
            continue
        checks.extend(CHECKS[entry.experiment](label, entry, outcome))
    return checks


def error_rate(checks) -> float:
    """Failed checks over checks attempted."""
    return sum(1 for _, ok, _ in checks if not ok) / len(checks)


def fingerprints(outcomes) -> list:
    """Canonical JSON of each outcome's results (None for a failed run)."""
    return [
        None if isinstance(o, Exception) else canonical_json(o.results)
        for o in outcomes
    ]
