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
    family = briancon-speder #   that run on a surface; configless runs
    t = 1                    #   fall back to a documented default
    # family = brieskorn
    # exponents = 2, 4, 5
    # family = file
    # path = surface.txt

    [separating]             # numeric parameters of the experiment;
    n_conflict = 8000        #   every key is optional
    n_side = 3000

Complex values accept ``i`` or ``j`` notation (``0.1``, ``i``, ``1+2i``).
Ladders are comma-separated positive decreasing reals.

Outputs in the chosen directory: ``report.json`` (schema report/v1,
byte-identical for a fixed config and seed regardless of thread count),
``summary.txt`` (stable-ordered, also printed to stdout), one CSV per
table, and ``metadata.json`` (timestamps, elapsed time, thread count —
everything allowed to vary between reruns).

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
from .util import check_ladder, csv_table, derive_seed, loglog_fit, records_csv

EXPERIMENTS = (
    "mu-constancy",
    "slice-components",
    "separating",
    "tangent-cone",
    "thin-wedge",
    "monodromy",
    "lipschitz-bounds",
    "conicality",
    "density-anchors",
)

REPORT_SCHEMA = "report/v1"

# Experiments that run on a surface, with the t parameter of the default
# Briançon–Speder member used when no config file is given.
_SURFACE_DEFAULT_T = {
    "slice-components": 0.0,
    "separating": 1.0,
    "tangent-cone": 1.0,
    "thin-wedge": 0.0,
    "monodromy": 0.0,
    "lipschitz-bounds": 0.0,
    "conicality": 0.0,
}

_DEFAULT_PARAMS = {
    "mu-constancy": {"t_grid": (0.0, 0.1, 1.0, 1j)},
    "slice-components": {},
    # Seed and threads come from the [experiment] section and the flags.
    "separating": {
        f.name: f.default for f in dataclasses.fields(se.CertificateParams)
        if f.name not in ("seed", "threads")
    },
    "tangent-cone": {
        "link_radius": 0.1,
        "tau": None,
        "a_labels": (0,),
        "b_labels": None,
        "n": 5000,
        "n_per_branch": 2000,
        "flow_ladder": (),
    },
    "thin-wedge": {
        "eps_w_ladder": (0.05, 0.1, 0.2),
        "r_ladder": (0.05, 0.035, 0.025, 0.018, 0.0125),
        "n": 20000,
        "min_cell_points": 50,
        "stability_bound": 5.0,
    },
    "monodromy": {
        "c": 0.01,
        "n_steps": 2048,
        "eps_w": 0.1,
        "start_index": 0,
        "trajectories": False,
    },
    "lipschitz-bounds": {"eps_w": 0.1, "disk_radius": None, "n": 200000},
    "conicality": {
        "eps_w": 0.1,
        "r_ladder": (0.1, 0.05, 0.025, 0.0125),
        "n": 4000,
        "k_nn": 12,
        "n_pairs": 1500,
        "connection_factor": 2.0,
        "min_rung_points": 200,
        "max_ratio_bound": 2.0,
        "slope_tol": 0.2,
    },
    "density-anchors": {
        "ladder": (1.0, 0.7, 0.5, 0.35),
        "n": 20000,
        "comp_ladder": (1.0, 0.7, 0.5),
        "comp_n": 4000,
        "sigmas": 3.0,
    },
}

_INT_KEYS = {
    "n", "n_conflict", "n_per_branch", "n_side", "k_nn", "min_rung_points",
    "n_steps", "start_index", "n_pairs", "comp_n", "min_cell_points",
}
_LADDER_KEYS = {
    "flow_ladder", "m_ladder", "side_ladder", "r_ladder", "ladder",
    "comp_ladder",
}
_FLOAT_TUPLE_KEYS = _LADDER_KEYS | {"eps_w_ladder"}
_INT_TUPLE_KEYS = {"a_labels", "b_labels"}
_COMPLEX_TUPLE_KEYS = {"t_grid"}
_OPTIONAL_KEYS = {"tau", "disk_radius", "b_labels"}
_BOOL_KEYS = {"trajectories"}

# Documented lower bounds on counts, checked by validate before running.
_MIN_COUNTS = {
    "n_steps": 8,
    "k_nn": 2,
}
_MIN_COUNTS_PER_EXPERIMENT = {
    ("lipschitz-bounds", "n"): 1000,
}


class ConfigError(ValueError):
    """Invalid configuration file or command-line combination."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    surface: sf.WeightedSurface | None
    surface_echo: dict | None
    params: dict
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


def _coerce_value(key: str, text: str):
    text = text.strip()
    if key in _OPTIONAL_KEYS and text.lower() in ("", "none"):
        return None
    try:
        if key in _BOOL_KEYS:
            states = configparser.ConfigParser.BOOLEAN_STATES
            if text.lower() not in states:
                raise ValueError(text)
            return states[text.lower()]
        if key in _INT_KEYS:
            return int(text)
        if key in _INT_TUPLE_KEYS:
            return tuple(int(part) for part in _split_list(text))
        if key in _FLOAT_TUPLE_KEYS:
            return tuple(float(part) for part in _split_list(text))
        if key in _COMPLEX_TUPLE_KEYS:
            return tuple(parse_complex(part) for part in _split_list(text))
        return float(text)
    except ValueError:
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


def validate_config(parser: configparser.ConfigParser, experiment=None) -> list:
    """All invariant violations as human-readable diagnostics, without running."""
    diags = []
    exp_section = parser["experiment"] if parser.has_section("experiment") else {}
    exp_id = exp_section.get("id", "").strip() or experiment
    if exp_id is None:
        diags.append("missing experiment id ([experiment] section, key 'id')")
        return diags
    if exp_id not in EXPERIMENTS:
        diags.append(f"unknown experiment id {exp_id!r}")
        return diags
    if experiment is not None and exp_id != experiment:
        diags.append(
            f"config is for experiment {exp_id!r} but {experiment!r} was requested"
        )

    for key in ("seed", "threads"):
        raw = exp_section.get(key, "").strip()
        if raw:
            try:
                int(raw)
            except ValueError:
                diags.append(f"[experiment] {key} must be an integer, got {raw!r}")

    known_sections = {"experiment", "surface", exp_id}
    for name in parser.sections():
        if name not in known_sections:
            diags.append(f"unknown section [{name}]")

    surface = None
    if parser.has_section("surface"):
        try:
            surface, _ = surface_from_section(parser["surface"])
        except (ConfigError, ValueError) as exc:
            diags.append(str(exc))
    elif exp_id in _SURFACE_DEFAULT_T:
        diags.append(f"missing [surface] section (required for {exp_id})")

    defaults = _DEFAULT_PARAMS[exp_id]
    params = dict(defaults)
    if parser.has_section(exp_id):
        for key, raw in parser[exp_id].items():
            if key not in defaults:
                diags.append(f"unknown key {key!r} in [{exp_id}]")
                continue
            try:
                params[key] = _coerce_value(key, raw)
            except ConfigError as exc:
                diags.append(str(exc))
    diags.extend(_check_params(exp_id, params, surface))
    return diags


def _check_params(exp_id: str, params: dict, surface) -> list:
    diags = []
    for key, value in params.items():
        if value is None:
            continue
        if key in _LADDER_KEYS:
            # An empty ladder stands for the certificate's derived default.
            try:
                if value:
                    check_ladder(value, key)
            except ValueError as exc:
                diags.append(str(exc))
        elif key == "eps_w_ladder":
            if any(not 0 < e <= 1 for e in value):
                diags.append("eps_w_ladder values must lie in (0, 1]")
            if len(set(value)) != len(value):
                diags.append("eps_w_ladder values must be distinct")
        elif key in _INT_KEYS:
            floor = _MIN_COUNTS_PER_EXPERIMENT.get(
                (exp_id, key), _MIN_COUNTS.get(key, 0 if key == "start_index" else 1)
            )
            if value < floor:
                diags.append(f"{key} must be at least {floor}, got {value}")
        elif key in ("eps_w", "link_radius"):
            if not 0 < value <= 1:
                diags.append(f"{key} must lie in (0, 1], got {value!r}")
        elif key in ("tau", "disk_radius", "c", "sigmas", "stability_bound",
                     "connection_factor", "max_ratio_bound", "slope_tol"):
            if not value > 0:
                diags.append(f"{key} must be positive, got {value!r}")
    if exp_id == "monodromy":
        c, eps_w = params.get("c"), params.get("eps_w")
        if c and eps_w and c > eps_w / 4:
            diags.append(f"loop radius c={c!r} exceeds eps_w/4={eps_w / 4!r}")
    return diags


def build_config(experiment: str, args) -> ExperimentConfig:
    cfg_seed = 0
    cfg_threads = None
    cfg_out = None
    surface = None
    surface_echo = None
    params = dict(_DEFAULT_PARAMS[experiment])

    if args.config is not None:
        parser = read_config(args.config)
        diags = validate_config(parser, experiment)
        if diags:
            raise ConfigError("; ".join(diags))
        exp_section = parser["experiment"] if parser.has_section("experiment") else {}
        if exp_section.get("seed", "").strip():
            cfg_seed = int(exp_section["seed"])
        if exp_section.get("threads", "").strip():
            cfg_threads = int(exp_section["threads"])
        if exp_section.get("out", "").strip():
            cfg_out = exp_section["out"].strip()
        if parser.has_section("surface"):
            surface, surface_echo = surface_from_section(parser["surface"])
        if parser.has_section(experiment):
            for key, raw in parser[experiment].items():
                params[key] = _coerce_value(key, raw)
    if surface is None and experiment in _SURFACE_DEFAULT_T:
        t = _SURFACE_DEFAULT_T[experiment]
        surface = sf.briancon_speder(t)
        surface_echo = {"family": "briancon-speder", "t": [float(t), 0.0]}

    seed = cfg_seed
    env_seed = os.environ.get("SINGLAB_SEED", "").strip()
    if env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SINGLAB_SEED must be an integer, got {env_seed!r}")
    if args.seed is not None:
        seed = args.seed

    threads = args.threads if args.threads is not None else cfg_threads
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError(f"threads must be positive, got {threads}")

    out_dir = args.out if args.out is not None else cfg_out
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
    grid = cfg.params["t_grid"]
    values = [sf.milnor_number(sf.briancon_speder(t)) for t in grid]
    constant = len(set(values)) == 1
    verdict = "constant" if constant else "non-constant"
    lines = [f"mu(t={_complex_str(t)}) = {m}" for t, m in zip(grid, values)]
    results = {
        "t_grid": [[t.real, t.imag] for t in map(complex, grid)],
        "mu_values": values,
        "constant": constant,
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


def _collapse_csv(collapse: se.CollapseResult) -> str:
    return csv_table(
        ["r", "max_transverse_ratio"], zip(collapse.rungs, collapse.max_ratios)
    )


def _run_separating(cfg: ExperimentConfig) -> Outcome:
    params = se.CertificateParams(**cfg.params, seed=cfg.seed, threads=cfg.threads)
    cert = se.separating_certificate(cfg.surface, params)
    results = se.certificate_dict(cert)
    # Thread count changes nothing numeric; keep it out of the report so
    # reruns with different --threads stay byte-identical.
    results["params"].pop("threads")
    lines = se.certificate_text(cert).rstrip("\n").split("\n")
    tables = {}
    if cert.collapse is not None:
        tables["collapse.csv"] = _collapse_csv(cert.collapse)
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
    # The certificate's default flow ladder; tau keeps the conflict_set
    # default (0.02 of the link radius), not the certificate's sharper one.
    ladder = se.CertificateParams(
        link_radius=p["link_radius"], flow_ladder=p["flow_ladder"]
    ).resolved_flow_ladder()
    cloud = se.conflict_set(
        cfg.surface, p["link_radius"], p["a_labels"], p["b_labels"],
        p["n"], p["tau"], cfg.seed, threads=cfg.threads,
        n_per_branch=p["n_per_branch"],
    )
    cloud = se.flow_cone(cloud, ladder)
    collapse = se.tangent_cone_collapse(cloud)
    verdict = "collapsed" if collapse.collapsed else "not-collapsed"
    results = {
        "r_ladder": list(collapse.rungs),
        "max_ratios": list(collapse.max_ratios),
        "slope": collapse.slope,
        "final_ratio": collapse.final_ratio,
        "collapsed": collapse.collapsed,
        "n_band_points": cloud.n_points,
        "tau": cloud.tau,
        "delta_hat": cloud.delta_hat,
    }
    lines = [
        f"band points: {cloud.n_points}",
        f"transverse-ratio slope: {collapse.slope:.4f}",
        f"final ratio at r={collapse.rungs[-1]:g}: {collapse.final_ratio:.3e}",
        f"collapsed: {'yes' if collapse.collapsed else 'no'}",
    ]
    return Outcome(
        cfg.experiment, verdict, results, lines, {"collapse.csv": _collapse_csv(collapse)}
    )


def _run_thin_wedge(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    table = se.thin_wedge_volume(
        cfg.surface, p["eps_w_ladder"], p["r_ladder"], p["n"], cfg.seed,
        threads=cfg.threads, min_cell_points=p["min_cell_points"],
        stability_bound=p["stability_bound"],
    )
    results = se.thin_wedge_dict(table)
    # Scaling of the measure in eps_w at each fixed radius; the upper bound
    # measure <= K eps_w r^4 is consistent with any exponent >= 1.
    n_r = len(table.r_ladder)
    exponents = []
    for j, r in enumerate(table.r_ladder):
        col = [table.cells[i * n_r + j] for i in range(len(table.eps_w_ladder))]
        if len(col) >= 2 and all(not c.flagged for c in col):
            slope, _, _, _ = loglog_fit(
                [c.eps_w for c in col], [c.measure for c in col]
            )
        else:
            slope = math.nan
        exponents.append([r, slope])
    results["eps_w_exponents"] = exponents
    verdict = "passed" if table.passed else "failed"
    lines = [
        f"k_hat: {table.k_hat:.4f}",
        f"K stability (max/min): {table.stability:.4f}",
    ]
    for eps_w, slope in table.r_slopes:
        lines.append(f"r-exponent at eps_w={eps_w:g}: {slope:.4f}")
    for r, expo in exponents:
        lines.append(f"eps_w-exponent at r={r:g}: {expo:.4f}")
    lines.append(f"table passed: {'yes' if table.passed else 'no'}")
    return Outcome(
        cfg.experiment, verdict, results, lines,
        {"thin_wedge.csv": records_csv(table.cells)},
    )


def _run_monodromy(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    loop = cv.standard_loop(p["c"], n_steps=p["n_steps"])
    transitive, lift_results = cv.cover_connectivity(
        cfg.surface, p["eps_w"], [loop], start_index=p["start_index"]
    )
    res = lift_results[0]
    anchor = None
    if cv._is_bs0(cfg.surface):
        expected = p["c"] ** 1.6 * complex(
            math.cos(14 * math.pi / 5), math.sin(14 * math.pi / 5)
        )
        rel = abs(res.normalized_end - expected) / abs(expected)
        shift = cv.sheet_shift(res)
        anchor = {
            "expected_end": [expected.real, expected.imag],
            "rel_error": rel,
            "sheet_shift": shift,
            "end_ok": rel <= 1e-6,
            "shift_ok": shift % res.n_sheets == 2,
        }
    results = {
        "monodromy": cv.monodromy_dict(res),
        "transitive": transitive,
        "anchor": anchor,
    }
    verdict = "transitive" if transitive else "not-transitive"
    lines = [
        f"permutation: {list(res.permutation)}",
        f"phase: {res.phase:.12f} rad ({res.phase / math.pi:.6f} pi)",
        f"sheet shift: {cv.sheet_shift(res)}",
        f"transitive: {'yes' if transitive else 'no'}",
    ]
    if anchor is not None:
        lines.insert(3, f"end anchor relative error: {anchor['rel_error']:.3e}")
    tables = {}
    if p["trajectories"]:
        # One row per accepted step: t, then Re and Im of every sheet.
        header = ["t"] + [f"{c}_{i}" for i in range(res.n_sheets) for c in ("re", "im")]
        steps = np.ascontiguousarray(res.trajectories, dtype=complex).view(float)
        tables["trajectories.csv"] = csv_table(
            header, ([t, *row] for t, row in zip(res.parameter_values, steps))
        )
    return Outcome(cfg.experiment, verdict, results, lines, tables)


def _run_lipschitz(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    probe = cv.lipschitz_bound_probe(
        cfg.surface, p["eps_w"], p["disk_radius"], n=p["n"], seed=cfg.seed
    )
    results = cv.lipschitz_dict(probe)
    verdict = "passed" if probe.passed else "failed"
    lines = [
        f"lambda_hat: {probe.lam_hat:.6f}",
        f"sup |dx/dy|: {probe.sup_dy:.6f} (bound {probe.bound_dy:.6f}, "
        f"ratio {probe.ratio_dy:.4f})",
        f"sup |dx/dz|: {probe.sup_dz:.6f} (bound {probe.bound_dz:.6f}, "
        f"ratio {probe.ratio_dz:.4f})",
        f"samples in region: {probe.n_region}",
        f"bounds hold: {'yes' if probe.passed else 'no'}",
    ]
    return Outcome(cfg.experiment, verdict, results, lines, {})


def _run_conicality(cfg: ExperimentConfig) -> Outcome:
    p = cfg.params
    table = cv.conicality_probe(
        cfg.surface, p["eps_w"], p["r_ladder"], n=p["n"], seed=cfg.seed,
        k_nn=p["k_nn"], connection_factor=p["connection_factor"],
        n_pairs=p["n_pairs"], threads=cfg.threads,
        min_rung_points=p["min_rung_points"],
        max_ratio_bound=p["max_ratio_bound"], slope_tol=p["slope_tol"],
    )
    results = cv.conicality_dict(table)
    verdict = "passed" if table.passed else "failed"
    lines = [
        f"max inner/outer ratio: {table.max_ratio:.4f} "
        f"(bound {table.max_ratio_bound:g})",
        f"ratio trend slope: {table.slope:.4f} (tolerance {table.slope_tol:g})",
        f"rungs: {len(table.rungs)} ({sum(r.flagged for r in table.rungs)} flagged)",
        f"conical: {'yes' if table.passed else 'no'}",
    ]
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
    all_ok = True
    for name, predicate, target in anchors:
        report = mt.density_ladder(
            carrier, predicate, 3, p["ladder"], p["n"],
            derive_seed(cfg.seed, "anchor", name), threads=cfg.threads,
            label=name,
        )
        miss = abs(report.theta_star - target)
        ok = (
            report.verdict == "positive-density"
            and miss <= p["sigmas"] * report.theta_star_se + 1e-9
        )
        all_ok = all_ok and ok
        results["anchors"][name] = {
            "target": target,
            "report": mt.density_report_dict(report),
            "ok": ok,
        }
        tables[f"density_{name.replace('-', '_')}.csv"] = records_csv(report.rungs)
        lines.append(
            f"{name}: theta* = {report.theta_star:.5f} "
            f"(target {target:g}, se {report.theta_star_se:.5f}, "
            f"{'ok' if ok else 'MISS'})"
        )
    low, high = mt.density_comparability(
        carrier, None, 3, p["comp_ladder"], derive_seed(cfg.seed, "comp"),
        p["comp_n"], threads=cfg.threads,
    )
    comp_ok = 0.8 <= low <= high <= 1.25
    all_ok = all_ok and comp_ok
    results["comparability"] = {"low": low, "high": high, "ok": comp_ok}
    lines.append(
        f"inner/outer comparability: [{low:.4f}, {high:.4f}] "
        f"({'ok' if comp_ok else 'MISS'})"
    )
    verdict = "passed" if all_ok else "failed"
    return Outcome(cfg.experiment, verdict, results, lines, tables)


_RUNNERS = {
    "mu-constancy": _run_mu_constancy,
    "slice-components": _run_slice_components,
    "separating": _run_separating,
    "tangent-cone": _run_tangent_cone,
    "thin-wedge": _run_thin_wedge,
    "monodromy": _run_monodromy,
    "lipschitz-bounds": _run_lipschitz,
    "conicality": _run_conicality,
    "density-anchors": _run_density_anchors,
}


# ---------------------------------------------------------------------------
# Reports and entry point.


def run_experiment(cfg: ExperimentConfig) -> Outcome:
    return _RUNNERS[cfg.experiment](cfg)


def report_dict(cfg: ExperimentConfig, outcome: Outcome) -> dict:
    params = {
        key: value for key, value in cfg.params.items()
        if not callable(value)
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
