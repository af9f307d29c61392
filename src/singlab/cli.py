"""Experiment driver: INI configs in, versioned JSON/CSV reports out.

Usage::

    singlab <experiment-id> [--config FILE] [--seed N] [--threads N]
                            [--expect VERDICT] [--out DIR]
    singlab validate --config FILE

Experiment ids: mu-constancy, slice-components, separating, tangent-cone,
thin-wedge, monodromy, lipschitz-bounds, conicality, density-anchors.

Config grammar (INI; ``#``/``;`` start comments)::

    [experiment]
    id = separating          # optional; must match the CLI argument
    seed = 0                 # overridden by SINGLAB_SEED, then by --seed
    threads = 4              # overridden by --threads
    out = runs/separating    # overridden by --out

    [surface]                # required in a config file for experiments
    family = briancon-speder #   that run on a surface, unknown to the
    t = 1                    #   others; configless runs fall back to a
                             #   documented default
    # family = brieskorn
    # exponents = 2, 4, 5
    # family = file
    # path = surface.txt

    [separating]             # numeric parameters of the experiment;
    n_conflict = 8000        #   every key is optional
    n_side = 3000

Each experiment's keys are the fields of its params dataclass (below, or
beside the library call it feeds: ``separating.CertificateParams``,
``covering.ConicalityParams`` and ``covering.LipschitzParams``, which run the
same field rule, ``util.check_value``, when constructed), and the annotations
are the schema: ``int`` is a count >= 1 and ``Ladder`` >= 1 positive, strictly
decreasing radii (metadata ``min`` sets another floor for either), ``float``
is > 0, ``Unit`` lies in (0, 1], ``tuple[X, ...]`` is a comma-separated list
of X (int, complex or Unit), empty only where the default is, ``bool`` is
yes/no, and ``X | None`` reads ``none`` or an empty value as None.  Complex
values accept ``i`` or ``j`` notation (``0.1``, ``i``, ``1+2i``).  Verdict
bounds are not keys: each is fixed where its check is built (``metric.SIGMAS``,
for one); sample-size floors such as ``min_rung_points`` are keys.

Outputs in the chosen directory: ``report.json`` (schema report/v1,
byte-identical for a fixed config and seed regardless of thread count),
``summary.txt`` (stable-ordered, also printed to stdout), one CSV per
table, and ``metadata.json`` (timestamps, elapsed time, thread count —
everything allowed to vary between reruns).  A pass/fail verdict holds when
every ``util.Check`` record that decides it holds; the report lists them in
``results.checks``, and the summary in one ``check`` line each.

Exit codes: 0 on success, 2 when ``--expect`` names a different verdict,
1 on configuration or runtime errors.  ``validate`` prints diagnostics
without running and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import covering as cv
from . import metric as mt
from . import separating as se
from . import surfaces as sf
from .util import Check, Ladder, Unit, check_value, csv_table, derive_seed, records_csv

REPORT_SCHEMA = "report/v1"

# Seed and threads come from the [experiment] section and the flags.
_RUN_FIELDS = ("seed", "threads")
# The run seed's field rule, wherever the seed comes from: an integer >= 0.
_SEED_FIELD = next(f for f in dataclasses.fields(se.CertificateParams) if f.name == "seed")


class ConfigError(ValueError):
    """Invalid configuration file or command-line combination."""


# ---------------------------------------------------------------------------
# Parameters: one frozen dataclass per experiment.  Its fields are the keys of
# the experiment's config section; the module docstring lists the kinds.


@dataclasses.dataclass(frozen=True)
class MuConstancyParams:
    t_grid: tuple[complex, ...] = (0.0, 0.1, 1.0, 1j)


@dataclasses.dataclass(frozen=True)
class SliceComponentsParams:
    """No parameters: the slice structure is computed exactly."""


@dataclasses.dataclass(frozen=True)
class TangentConeParams:
    link_radius: Unit = 0.1
    tau: float | None = None
    a_labels: tuple[int, ...] = (0,)
    b_labels: tuple[int, ...] | None = None
    n: int = 5000
    flow_ladder: Ladder = dataclasses.field(default=(), metadata={"min": 2})

    def __post_init__(self):
        if self.flow_ladder:
            se.check_flow_ladder(self.flow_ladder, self.link_radius, "flow_ladder")


@dataclasses.dataclass(frozen=True)
class ThinWedgeParams:
    eps_w_ladder: tuple[Unit, ...] = (0.05, 0.1, 0.2)
    r_ladder: Ladder = (0.05, 0.035, 0.025, 0.018, 0.0125)
    n: int = 20000
    min_cell_points: int = 50


@dataclasses.dataclass(frozen=True)
class MonodromyParams:
    c: float = 0.01
    n_steps: int = dataclasses.field(default=2048, metadata={"min": 8})
    eps_w: Unit = 0.1
    start_index: int = dataclasses.field(default=0, metadata={"min": 0})
    trajectories: bool = False


@dataclasses.dataclass(frozen=True)
class DensityAnchorsParams:
    ladder: Ladder = (1.0, 0.7, 0.5, 0.35)
    n: int = 20000
    comp_ladder: Ladder = (1.0, 0.7, 0.5)
    comp_n: int = 4000


# Accepted in [separating] and [tangent-cone] and range-checked, then dropped:
# n_per_branch sized the old sampled branch circles.
@dataclasses.dataclass(frozen=True)
class _RetiredParams:
    n_per_branch: int = 1


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    surface: sf.WeightedSurface | None
    surface_echo: dict | None
    params: object  # the experiment's params dataclass
    seed: int
    threads: int
    out_dir: Path


@dataclasses.dataclass(frozen=True)
class Outcome:
    experiment: str
    verdict: str
    results: dict
    summary_lines: list
    tables: dict


# ---------------------------------------------------------------------------
# Value parsing.


def parse_complex(text: str) -> complex:
    """Parse ``0.1``, ``-2``, ``i``, ``1+2i`` (or j notation)."""
    s = text.strip().replace(" ", "").replace("i", "j")
    if s.endswith("j") and (len(s) == 1 or s[-2] in "+-"):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r}") from None


def _split_list(text: str) -> list:
    items = [part.strip() for part in text.split(",")]
    return [part for part in items if part]


_SCALARS = {
    "int": int, "float": float, "Unit": float, "complex": parse_complex,
    "bool": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
}


def _coerce_value(key: str, kind: str, text: str):
    """``text`` read as a value of the params annotation ``kind``."""
    text = text.strip()
    if kind.endswith(" | None"):
        if text.lower() in ("", "none"):
            return None
        kind = kind.removesuffix(" | None")
    item = kind.replace("Ladder", "tuple[float, ...]")
    item = item.removeprefix("tuple[").removesuffix(", ...]")
    parse = _SCALARS[item]  # a KeyError here names an annotation no parser reads
    try:
        if item == kind:
            return parse(text)
        return tuple(parse(part) for part in _split_list(text))
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}") from None


def surface_from_section(section) -> tuple[sf.WeightedSurface, dict]:
    family = section.get("family", "").strip()
    if not family:
        raise ConfigError("missing surface family")
    if family == "briancon-speder":
        t = parse_complex(section.get("t", "0"))
        surface = sf.briancon_speder(t)
        return surface, {"family": family, "t": [t.real, t.imag]}
    if family == "brieskorn":
        raw = section.get("exponents", "")
        exps = [int(part) for part in _split_list(raw)] if raw.strip() else []
        if len(exps) != 3:
            raise ConfigError("brieskorn surfaces need exponents = p, q, r")
        surface = sf.brieskorn(*exps)
        return surface, {"family": family, "exponents": exps}
    if family == "file":
        path = section.get("path", "").strip()
        if not path:
            raise ConfigError("surface family 'file' needs a path")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read surface file {path}: {exc}") from None
        surface = sf.surface_from_text(text)
        return surface, {"family": family, "path": path}
    raise ConfigError(f"unknown surface family {family!r}")


# ---------------------------------------------------------------------------
# Config loading and validation.


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    return parser


def _read_sections(parser: configparser.ConfigParser, experiment=None) -> tuple:
    """Diagnostics, and the values of every section, each section read once.

    The values are ``seed``, ``threads`` and ``out`` from [experiment],
    ``surface`` as (surface, echo), and ``params``: the experiment's params
    dataclass with its section's keys applied.
    """
    diags, values = [], {}
    exp_section = parser["experiment"] if parser.has_section("experiment") else {}
    exp_id = exp_section.get("id", "").strip() or experiment
    if exp_id is None:
        diags.append("missing experiment id ([experiment] section, key 'id')")
        return diags, values
    if exp_id not in _REGISTRY:
        diags.append(f"unknown experiment id {exp_id!r}")
        return diags, values
    _, cls, default_t = _REGISTRY[exp_id]
    if experiment is not None and exp_id != experiment:
        diags.append(
            f"config is for experiment {exp_id!r} but {experiment!r} was requested"
        )

    known = ("id", "seed", "threads", "out")
    diags.extend(f"unknown key {k!r} in [experiment]" for k in exp_section if k not in known)
    for key in ("seed", "threads"):
        raw = exp_section.get(key, "").strip()
        if raw:
            try:
                values[key] = int(raw)
            except ValueError:
                diags.append(f"[experiment] {key} must be an integer, got {raw!r}")
    diags.extend(check_value(_SEED_FIELD, values.get("seed", 0)))
    if values.get("threads", 1) < 1:
        diags.append(f"threads must be positive, got {values['threads']}")
    if exp_section.get("out", "").strip():
        values["out"] = exp_section["out"].strip()

    # An experiment that runs on no surface reads no [surface] section.
    on_surface = default_t is not None
    sections = ("experiment", exp_id, "surface") if on_surface else ("experiment", exp_id)
    for name in parser.sections():
        if name not in sections:
            diags.append(f"unknown section [{name}]")

    if on_surface and parser.has_section("surface"):
        try:
            values["surface"] = surface_from_section(parser["surface"])
        except (ConfigError, ValueError) as exc:
            diags.append(str(exc))
        else:  # the echo names every key the family reads
            echo = values["surface"][1]
            diags.extend(
                f"unknown key {k!r} in [surface]" for k in parser["surface"] if k not in echo
            )
    elif on_surface:
        diags.append(f"missing [surface] section (required for {exp_id})")

    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in _RUN_FIELDS}
    retired = (
        {f.name: f for f in dataclasses.fields(_RetiredParams)}
        if exp_id in ("separating", "tangent-cone") else {}
    )
    given = {}
    for key, raw in parser[exp_id].items() if parser.has_section(exp_id) else ():
        field = fields.get(key) or retired.get(key)
        if field is None:
            diags.append(f"unknown key {key!r} in [{exp_id}]")
            continue
        try:
            value = _coerce_value(key, field.type, raw)
        except ConfigError as exc:
            diags.append(str(exc))
            continue
        diags.extend(check_value(field, value))
        if key in fields:
            given[key] = value
    if exp_id in ("separating", "tangent-cone"):
        # Read from the given values, so that a field error does not hide them.
        a = set(given.get("a_labels", fields["a_labels"].default))
        b = set(given.get("b_labels", fields["b_labels"].default) or ())
        if a & b:
            diags.append(f"a_labels and b_labels must be disjoint, both name {sorted(a & b)}")
        # Labels the slice lacks; label 0 alone needs no slice structure.
        if "surface" in values and (a | b) - {0}:
            try:
                labels = sf.slice_structure(values["surface"][0]).labels
            except ValueError as exc:
                diags.append(str(exc))
            else:
                missing = sorted((a | b) - set(labels))
                if missing:
                    diags.append(f"labels must come from {labels}, got {missing}")
    try:
        params = values["params"] = cls(**given)
    except ValueError as exc:  # a field error reported above, or a check across fields
        if str(exc) not in diags:
            diags.append(str(exc))
        return diags, values
    if exp_id == "monodromy" and params.eps_w and params.c > params.eps_w / 4:
        diags.append(f"loop radius c={params.c!r} exceeds eps_w/4={params.eps_w / 4!r}")
    return diags, values


def validate_config(parser: configparser.ConfigParser, experiment=None) -> list:
    """All invariant violations as human-readable diagnostics, without running."""
    return _read_sections(parser, experiment)[0]


def build_config(experiment: str, args) -> ExperimentConfig:
    values = {}
    if args.config is not None:
        diags, values = _read_sections(read_config(args.config), experiment)
        if diags:
            raise ConfigError("; ".join(diags))
    _, cls, default_t = _REGISTRY[experiment]
    params = values["params"] if "params" in values else cls()
    surface, surface_echo = values.get("surface", (None, None))
    if surface is None and default_t is not None:
        surface = sf.briancon_speder(default_t)
        surface_echo = {"family": "briancon-speder", "t": [float(default_t), 0.0]}

    seed = values.get("seed", 0)
    env_seed = os.environ.get("SINGLAB_SEED", "").strip()
    if env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SINGLAB_SEED must be an integer, got {env_seed!r}")
    if args.seed is not None:
        seed = args.seed
    for diag in check_value(_SEED_FIELD, seed):  # from SINGLAB_SEED or --seed
        raise ConfigError(diag)

    threads = args.threads if args.threads is not None else values.get("threads")
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError(f"threads must be positive, got {threads}")

    out_dir = args.out if args.out is not None else values.get("out")
    if out_dir is None:
        out_dir = os.path.join("runs", experiment)

    return ExperimentConfig(
        experiment, surface, surface_echo, params, seed, threads, Path(out_dir)
    )


# ---------------------------------------------------------------------------
# JSON helpers.


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def _complex_str(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return "i" if z.imag == 1 else f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns an Outcome; params arrive fully resolved.


def _run_mu_constancy(cfg: ExperimentConfig) -> Outcome:
    grid = cfg.params.t_grid
    values = [sf.milnor_number(sf.briancon_speder(t)) for t in grid]
    check = Check.at_most("distinct Milnor numbers", len(set(values)), 1)
    verdict = "constant" if check.holds else "non-constant"
    lines = [f"mu(t={_complex_str(t)}) = {m}" for t, m in zip(grid, values)]
    results = {
        "t_grid": [[t.real, t.imag] for t in map(complex, grid)],
        "mu_values": values,
        "checks": [dataclasses.asdict(check)],
    }
    table = csv_table(
        ["t_re", "t_im", "mu"],
        [(complex(t).real, complex(t).imag, m) for t, m in zip(grid, values)],
    )
    return Outcome(cfg.experiment, verdict, results, lines, {"mu.csv": table})


def _run_slice_components(cfg: ExperimentConfig) -> Outcome:
    structure = sf.slice_structure(cfg.surface)
    n = structure.n_components
    n_orbits = n - int(structure.has_x_branch) - int(structure.has_y_branch)
    results = {
        "n_components": n,
        "x_branch": structure.has_x_branch,
        "y_branch": structure.has_y_branch,
        "n_orbits": n_orbits,
    }
    lines = [
        f"slice components: {n}",
        f"x-axis branch: {'yes' if structure.has_x_branch else 'no'}",
        f"y-axis branch: {'yes' if structure.has_y_branch else 'no'}",
        f"monodromy orbits of h: {n_orbits}",
    ]
    kinds = []
    if structure.has_x_branch:
        kinds.append("x-axis")
    if structure.has_y_branch:
        kinds.append("y-axis")
    kinds.extend(["orbit"] * n_orbits)
    table = csv_table(["label", "kind"], enumerate(kinds))
    return Outcome(cfg.experiment, str(n), results, lines, {"components.csv": table})


def _run_separating(cfg: ExperimentConfig) -> Outcome:
    params = dataclasses.replace(cfg.params, seed=cfg.seed, threads=cfg.threads)
    cert = se.separating_certificate(cfg.surface, params)
    results = se.certificate_dict(cert)
    lines = se.certificate_text(cert).rstrip("\n").split("\n")
    tables = {}
    for name, rep in (
        ("cone_density.csv", cert.m_report),
        ("side_a_density.csv", cert.a_report),
        ("side_b_density.csv", cert.b_report),
    ):
        if rep is not None:
            tables[name] = records_csv(rep.rungs)
    return Outcome(cfg.experiment, cert.verdict, results, lines, tables)


def _run_tangent_cone(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    # The one collapse report.  tau keeps the conflict_set default (0.02 of
    # the link radius); with n = n_conflict and tau = 0.002 of the link
    # radius this is the collapse of a certificate's band, bit for bit.
    ladder = p.flow_ladder or se.default_flow_ladder(p.link_radius)
    cloud = se.conflict_set(
        cfg.surface, p.link_radius, p.a_labels, p.b_labels,
        p.n, p.tau, cfg.seed, threads=cfg.threads,
    )
    collapse = se.tangent_cone_collapse(cloud, ladder)
    verdict = "collapsed" if collapse.collapsed else "not-collapsed"
    results = {
        "r_ladder": list(collapse.rungs),
        "max_ratios": list(collapse.max_ratios),
        "slope": collapse.slope,
        "final_ratio": collapse.final_ratio,
        "n_band_points": cloud.n_points,
        "tau": cloud.tau,
        "delta_hat": cloud.delta_hat,
        "checks": [dataclasses.asdict(c) for c in collapse.checks],
    }
    lines = [f"band points: {cloud.n_points}"]
    table = csv_table(["r", "max_transverse_ratio"], zip(collapse.rungs, collapse.max_ratios))
    return Outcome(cfg.experiment, verdict, results, lines, {"collapse.csv": table})


def _run_thin_wedge(cfg: ExperimentConfig) -> Outcome:
    table = se.thin_wedge_volume(
        cfg.surface, seed=cfg.seed, threads=cfg.threads, **dataclasses.asdict(cfg.params)
    )
    results = se.thin_wedge_dict(table)
    verdict = "passed" if table.passed else "failed"
    lines = [f"k_hat: {table.k_hat:.4f}"]
    for eps_w, slope in table.r_slopes:
        lines.append(f"r-exponent at eps_w={eps_w:g}: {slope:.4f}")
    for r, expo in table.eps_w_exponents:
        lines.append(f"eps_w-exponent at r={r:g}: {expo:.4f}")
    return Outcome(
        cfg.experiment, verdict, results, lines,
        {"thin_wedge.csv": records_csv(table.cells)},
    )


def _run_monodromy(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    loop = cv.standard_loop(p.c, n_steps=p.n_steps)
    transitive, lift_results = cv.cover_connectivity(
        cfg.surface, p.eps_w, [loop], start_index=p.start_index
    )
    res = lift_results[0]
    shift = cv.sheet_shift(res)
    checks = [Check.at_least("transitive", int(transitive), 1)]
    anchor = None
    if cv._is_bs0(cfg.surface):
        # X_0's closed forms: the end point c^(8/5) e^(14 pi i / 5), shift 2.
        expected = p.c ** 1.6 * complex(
            math.cos(14 * math.pi / 5), math.sin(14 * math.pi / 5)
        )
        rel = abs(res.normalized_end - expected) / abs(expected)
        anchor = {"expected_end": [expected.real, expected.imag], "rel_error": rel,
                  "sheet_shift": shift}
        checks += [
            Check.at_most("end anchor relative error", rel, 1e-6),
            Check.at_most("sheet shift distance from 2", abs(shift % res.n_sheets - 2), 0),
        ]
    results = {
        "monodromy": cv.monodromy_dict(res),
        "transitive": transitive,
        "anchor": anchor,
        "checks": [dataclasses.asdict(c) for c in checks],
    }
    verdict = "transitive" if all(c.holds for c in checks) else "not-transitive"
    lines = [
        f"permutation: {list(res.permutation)}",
        f"phase: {res.phase:.12f} rad ({res.phase / math.pi:.6f} pi)",
        f"sheet shift: {shift}",
    ]
    tables = {}
    if p.trajectories:
        # One row per accepted step: t, then Re and Im of every sheet.
        header = ["t"] + [f"{c}_{i}" for i in range(res.n_sheets) for c in ("re", "im")]
        steps = np.ascontiguousarray(res.trajectories, dtype=complex).view(float)
        tables["trajectories.csv"] = csv_table(
            header, ([t, *row] for t, row in zip(res.parameter_values, steps))
        )
    return Outcome(cfg.experiment, verdict, results, lines, tables)


def _run_lipschitz(cfg: ExperimentConfig) -> Outcome:
    probe = cv.lipschitz_bound_probe(cfg.surface, cfg.params, cfg.seed)
    results = cv.lipschitz_dict(probe)
    verdict = "passed" if probe.passed else "failed"
    lines = [
        f"lambda_hat: {probe.lam_hat:.6f}",
        f"sup |dx/dy|: {probe.sup_dy:.6f} (bound {probe.bound_dy:.6f}, "
        f"ratio {probe.ratio_dy:.4f})",
        f"sup |dx/dz|: {probe.sup_dz:.6f} (bound {probe.bound_dz:.6f}, "
        f"ratio {probe.ratio_dz:.4f})",
        f"samples in region: {probe.n_region}",
    ]
    return Outcome(cfg.experiment, verdict, results, lines, {})


def _run_conicality(cfg: ExperimentConfig) -> Outcome:
    table = cv.conicality_probe(cfg.surface, cfg.params, cfg.seed, threads=cfg.threads)
    results = cv.conicality_dict(table)
    verdict = "passed" if table.passed else "failed"
    lines = [f"ratio trend slope: {table.slope:.4f}"]
    return Outcome(
        cfg.experiment, verdict, results, lines,
        {"conicality.csv": records_csv(table.rungs)},
    )


def _run_density_anchors(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    basis = np.eye(6)[[0, 2, 4]]
    carrier = mt.PlaneCarrier(basis)
    anchors = (
        ("plane", None, 1.0),
        ("half-plane", lambda pts: pts[:, 0].real >= 0, 0.5),
        ("quarter-plane",
         lambda pts: (pts[:, 0].real >= 0) & (pts[:, 1].real >= 0), 0.25),
    )
    results = {"anchors": {}}
    tables = {}
    lines = []
    checks = []
    for name, predicate, target in anchors:
        report = mt.density_ladder(
            carrier, predicate, 3, p.ladder, p.n,
            derive_seed(cfg.seed, "anchor", name), threads=cfg.threads, label=name,
        )
        checks.extend(c.named(name) for c in report.checks["positive-density"])
        miss, allowed = abs(report.theta_star - target), mt.SIGMAS * report.theta_star_se + 1e-9
        checks.append(Check.at_most(f"{name} theta* distance from target", miss, allowed))
        results["anchors"][name] = {"target": target, "report": mt.density_report_dict(report)}
        tables[f"density_{name.replace('-', '_')}.csv"] = records_csv(report.rungs)
        lines.append(
            f"{name}: theta* = {report.theta_star:.5f} "
            f"(target {target:g}, se {report.theta_star_se:.5f})"
        )
    low, high = mt.density_comparability(
        carrier, None, 3, p.comp_ladder, derive_seed(cfg.seed, "comp"),
        p.comp_n, threads=cfg.threads,
    )
    checks += [
        Check.at_least("lowest comparability ratio", low, 0.8),
        Check.at_most("highest comparability ratio", high, 1.25),
    ]
    results["comparability"] = {"low": low, "high": high}
    results["checks"] = [dataclasses.asdict(c) for c in checks]
    verdict = "passed" if all(c.holds for c in checks) else "failed"
    return Outcome(cfg.experiment, verdict, results, lines, tables)


# id -> (runner, params class, t of the Briançon–Speder member used when no
# config names a surface, or None for an experiment that runs on no surface).
_REGISTRY = {
    "mu-constancy": (_run_mu_constancy, MuConstancyParams, None),
    "slice-components": (_run_slice_components, SliceComponentsParams, 0.0),
    "separating": (_run_separating, se.CertificateParams, 1.0),
    "tangent-cone": (_run_tangent_cone, TangentConeParams, 1.0),
    "thin-wedge": (_run_thin_wedge, ThinWedgeParams, 0.0),
    "monodromy": (_run_monodromy, MonodromyParams, 0.0),
    "lipschitz-bounds": (_run_lipschitz, cv.LipschitzParams, 0.0),
    "conicality": (_run_conicality, cv.ConicalityParams, 0.0),
    "density-anchors": (_run_density_anchors, DensityAnchorsParams, None),
}
EXPERIMENTS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Reports and entry point.


def run_experiment(cfg: ExperimentConfig) -> Outcome:
    run, _, _ = _REGISTRY[cfg.experiment]
    return run(cfg)


def report_dict(cfg: ExperimentConfig, outcome: Outcome) -> dict:
    params = {
        key: value for key, value in dataclasses.asdict(cfg.params).items()
        if key not in _RUN_FIELDS
    }
    return _jsonable(
        {
            "schema": REPORT_SCHEMA,
            "artifact": {"name": "singlab", "version": __version__},
            "experiment": cfg.experiment,
            "config": {
                "seed": cfg.seed,
                "surface": cfg.surface_echo,
                "params": params,
            },
            "results": outcome.results,
            "verdict": outcome.verdict,
        }
    )


def summary_text(cfg: ExperimentConfig, outcome: Outcome) -> str:
    lines = [f"experiment: {cfg.experiment}"]
    if cfg.surface is not None:
        lines.append(f"surface: {cfg.surface.label}")
    lines.append(f"seed: {cfg.seed}")
    lines.extend(outcome.summary_lines)
    lines.extend(
        f"check {c['name']}: {c['value']:.6g} against {c['bound']:.6g}, "
        f"slack {c['slack']:.4g}, {'holds' if c['holds'] else 'fails'}"
        for c in outcome.results.get("checks", ())
    )
    lines.append(f"verdict: {outcome.verdict}")
    return "\n".join(lines) + "\n"


def write_outputs(cfg: ExperimentConfig, outcome: Outcome, elapsed: float) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    report = json.dumps(report_dict(cfg, outcome), sort_keys=True, indent=2) + "\n"
    (cfg.out_dir / "report.json").write_text(report)
    (cfg.out_dir / "summary.txt").write_text(summary_text(cfg, outcome))
    for name, text in outcome.tables.items():
        (cfg.out_dir / name).write_text(text)
    metadata = {
        "experiment": cfg.experiment,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(elapsed, 3),
        "threads": cfg.threads,
        "out_dir": str(cfg.out_dir),
    }
    (cfg.out_dir / "metadata.json").write_text(
        json.dumps(metadata, sort_keys=True, indent=2) + "\n"
    )


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="singlab",
        description="Numerical certificates for metric phenomena on "
        "weighted-homogeneous surface singularities.",
    )
    parser.add_argument(
        "command",
        choices=EXPERIMENTS + ("validate",),
        help="experiment to run, or 'validate' to check a config file",
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    parser.add_argument(
        "--expect",
        help="expected verdict; exit status 2 if the run disagrees",
    )
    parser.add_argument("--out", help="output directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.command == "validate":
        if args.config is None:
            print("validate needs --config FILE", file=sys.stderr)
            return 1
        try:
            parser = read_config(args.config)
        except ConfigError as exc:
            print(str(exc))
            return 1
        diags = validate_config(parser)
        for diag in diags:
            print(diag)
        if not diags:
            print("ok")
        return 1 if diags else 0

    try:
        cfg = build_config(args.command, args)
        start = time.monotonic()
        outcome = run_experiment(cfg)
        elapsed = time.monotonic() - start
        write_outputs(cfg, outcome, elapsed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(summary_text(cfg, outcome))
    if args.expect is not None and args.expect != outcome.verdict:
        print(
            f"expected verdict {args.expect!r}, got {outcome.verdict!r}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
