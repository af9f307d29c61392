"""Tests for the experiment driver CLI.

Cheap experiments run end-to-end through ``main`` with outputs in tmp
directories; config parsing, validation diagnostics, seed precedence, and
exit-code conventions are covered unit-style.
"""

import argparse
import configparser
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singlab
from singlab import cli
from singlab import covering as cv
from singlab import metric as mt
from singlab import sampling as sp
from singlab import separating as se
from singlab import surfaces as sf
from singlab.util import Check, fmt17

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return parser


def write_ini(tmp_path, text: str):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


MONODROMY_INI = """
[experiment]
id = monodromy

[surface]
family = briancon-speder
t = 0

[monodromy]
n_steps = 512
"""


def surface_section(experiment: str) -> str:
    """A [surface] section for an experiment that runs on a surface, else ''."""
    on_surface = cli._REGISTRY[experiment][2] is not None
    return "[surface]\nfamily = briancon-speder\n" if on_surface else ""


def _collapse_records(res: dict) -> list:
    pairs = zip(res["r_ladder"], res["max_ratios"])
    return [{"r": r, "max_transverse_ratio": m} for r, m in pairs]


# Experiment -> (config section body, BS member t, report results -> the
# records each CSV table must repeat cell for cell).
TABLE_RUNS = {
    "thin-wedge": (
        "eps_w_ladder = 0.3, 0.15\nr_ladder = 0.4, 0.2\nn = 2000\n", 0,
        lambda res: {"thin_wedge.csv": res["cells"]},
    ),
    "conicality": (
        "r_ladder = 0.1, 0.05\nn = 600\nn_pairs = 200\nmin_rung_points = 50\n", 0,
        lambda res: {"conicality.csv": res["rungs"]},
    ),
    "separating": (
        "n_conflict = 800\nn_side = 400\n", 1,
        lambda res: {
            "cone_density.csv": res["cone_report"]["rungs"],
            "side_a_density.csv": res["side_a_report"]["rungs"],
            "side_b_density.csv": res["side_b_report"]["rungs"],
        },
    ),
    "tangent-cone": ("n = 800\n", 1, lambda res: {"collapse.csv": _collapse_records(res)}),
}


def _cell_matches(cell: str, value) -> bool:
    """A CSV cell equals its report value exactly (booleans are 0/1)."""
    if isinstance(value, bool):
        return cell == str(int(value))
    if isinstance(value, int):
        return cell == str(value)
    if math.isnan(value):
        return math.isnan(float(cell))
    return float(cell) == value


class TestValueParsing:
    def test_complex_forms(self):
        assert cli.parse_complex("0.1") == 0.1
        assert cli.parse_complex("-2") == -2
        assert cli.parse_complex("i") == 1j
        assert cli.parse_complex("-i") == -1j
        assert cli.parse_complex("1+2i") == 1 + 2j
        assert cli.parse_complex("2j") == 2j
        assert cli.parse_complex(" 0.5 - 0.25i ") == 0.5 - 0.25j

    def test_complex_rejects_garbage(self):
        with pytest.raises(cli.ConfigError, match="complex"):
            cli.parse_complex("five")

    def test_coerce_typed_keys(self):
        assert cli._coerce_value("n", "int", "4000") == 4000
        assert cli._coerce_value("r_ladder", "Ladder", "0.1, 0.05") == (0.1, 0.05)
        assert cli._coerce_value("a_labels", "tuple[int, ...]", "1, 2") == (1, 2)
        assert cli._coerce_value("tau", "float | None", "none") is None
        assert cli._coerce_value("b_labels", "tuple[int, ...] | None", "") is None
        assert cli._coerce_value("trajectories", "bool", "yes") is True
        assert cli._coerce_value("eps_w", "Unit", "0.1") == 0.1
        assert cli._coerce_value("t_grid", "tuple[complex, ...]", "0, i") == (0, 1j)

    def test_coerce_rejects_bad_values(self):
        with pytest.raises(cli.ConfigError, match="'n'"):
            cli._coerce_value("n", "int", "many")
        with pytest.raises(cli.ConfigError, match="trajectories"):
            cli._coerce_value("trajectories", "bool", "maybe")


class TestSurfaceSection:
    def test_family_members(self):
        surface, echo = cli.surface_from_section({"family": "briancon-speder", "t": "i"})
        assert surface.label == "briancon-speder(t=0+1j)"
        assert echo == {"family": "briancon-speder", "t": [0.0, 1.0]}
        surface, echo = cli.surface_from_section(
            {"family": "brieskorn", "exponents": "2, 4, 5"}
        )
        assert surface.label == "brieskorn(2,4,5)"

    def test_file_family_roundtrip(self, tmp_path):
        original = sf.briancon_speder(0.5)
        path = tmp_path / "surface.txt"
        path.write_text(sf.surface_to_text(original))
        surface, echo = cli.surface_from_section(
            {"family": "file", "path": str(path)}
        )
        assert surface == original

    def test_bad_sections(self):
        with pytest.raises(cli.ConfigError, match="family"):
            cli.surface_from_section({})
        with pytest.raises(cli.ConfigError, match="unknown surface family"):
            cli.surface_from_section({"family": "torus"})
        with pytest.raises(cli.ConfigError, match="exponents"):
            cli.surface_from_section({"family": "brieskorn", "exponents": "2, 4"})
        with pytest.raises(cli.ConfigError, match="path"):
            cli.surface_from_section({"family": "file"})


class TestValidate:
    def test_clean_config_has_no_diagnostics(self):
        parser = parse_ini(MONODROMY_INI)
        assert cli.validate_config(parser) == []

    def test_collects_all_violations(self):
        parser = parse_ini(
            """
            [experiment]
            id = conicality
            seed = soon

            [conicality]
            r_ladder = 0.05, 0.1
            n = 0
            bogus = 1

            [extra]
            x = 1
            """
        )
        diags = cli.validate_config(parser)
        text = "\n".join(diags)
        assert "seed must be an integer" in text
        assert "missing [surface] section" in text
        assert "must be strictly decreasing" in text
        assert "unknown key 'bogus'" in text
        assert "unknown section [extra]" in text
        assert "n must be at least 1" in text

    def test_id_mismatch_and_unknown_id(self):
        parser = parse_ini("[experiment]\nid = monodromy\n")
        diags = cli.validate_config(parser, "conicality")
        assert any("was requested" in d for d in diags)
        parser = parse_ini("[experiment]\nid = warp-drive\n")
        assert any("unknown experiment id" in d for d in cli.validate_config(parser))

    def test_id_required_somewhere(self):
        parser = parse_ini("[surface]\nfamily = briancon-speder\n")
        assert any("missing experiment id" in d for d in cli.validate_config(parser))
        assert cli.validate_config(parser, "slice-components") == []

    def test_monodromy_loop_must_fit_wedge(self):
        parser = parse_ini(
            MONODROMY_INI.replace("n_steps = 512", "c = 0.05\nn_steps = 512")
        )
        assert any("eps_w/4" in d for d in cli.validate_config(parser))

    def test_lipschitz_sample_floor(self):
        parser = parse_ini(
            """
            [experiment]
            id = lipschitz-bounds
            [surface]
            family = briancon-speder
            [lipschitz-bounds]
            n = 500
            """
        )
        assert any("at least 1000" in d for d in cli.validate_config(parser))

    def test_conicality_pair_floor(self):
        # graph_distortion draws pairs from 32 sources with equal target
        # counts, so fewer than 32 pairs would silently measure 32.
        ini = (
            "[experiment]\nid = conicality\n[surface]\nfamily = briancon-speder\n"
            "[conicality]\nn_pairs = {}\n"
        )
        assert cli.validate_config(parse_ini(ini.format(10))) == [
            "n_pairs must be at least 32, got 10"
        ]
        assert cli.validate_config(parse_ini(ini.format(32))) == []

    @pytest.mark.parametrize("experiment", ["separating", "tangent-cone"])
    def test_retired_n_per_branch_is_range_checked(self, experiment):
        ini = (
            f"[experiment]\nid = {experiment}\n"
            "[surface]\nfamily = briancon-speder\nt = 1\n"
            f"[{experiment}]\nn_per_branch = {{}}\n"
        )
        assert cli.validate_config(parse_ini(ini.format(1500))) == []
        assert cli.validate_config(parse_ini(ini.format(0))) == [
            "n_per_branch must be at least 1, got 0"
        ]
        other = "[experiment]\nid = thin-wedge\n[surface]\nfamily = briancon-speder\n"
        diags = cli.validate_config(parse_ini(other + "[thin-wedge]\nn_per_branch = 5\n"))
        assert diags == ["unknown key 'n_per_branch' in [thin-wedge]"]

    @pytest.mark.parametrize(
        "experiment, key, diag",
        [
            ("conicality", "r_ladder", "r_ladder must be nonempty, with positive radii"),
            ("thin-wedge", "eps_w_ladder", "eps_w_ladder must be nonempty"),
            ("density-anchors", "ladder", "ladder must be nonempty, with positive radii"),
            ("tangent-cone", "a_labels", "a_labels must be nonempty"),
            ("mu-constancy", "t_grid", "t_grid must be nonempty"),
        ],
    )
    def test_empty_list_rejected_where_default_is_not_empty(self, experiment, key, diag):
        ini = (
            f"[experiment]\nid = {experiment}\n{surface_section(experiment)}"
            f"[{experiment}]\n{key} =\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [diag]

    @pytest.mark.parametrize(
        "experiment, body",
        [
            ("separating", "m_ladder =\nside_ladder =\nb_labels =\n"),
            ("tangent-cone", "flow_ladder =\nb_labels =\ntau = none\n"),
        ],
    )
    def test_empty_list_accepted_where_default_is_empty(self, experiment, body):
        ini = (
            f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\n"
            f"[{experiment}]\n{body}"
        )
        assert cli.validate_config(parse_ini(ini)) == []

    @pytest.mark.parametrize(
        "experiment, key",
        [("conicality", "r_ladder"), ("tangent-cone", "flow_ladder")],
    )
    def test_one_rung_ladder_rejected_where_a_trend_is_fit(self, experiment, key):
        ini = (
            f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\n"
            f"[{experiment}]\n{key} = 0.05\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [f"{key} needs at least 2 rungs, got 1"]
        assert cli.validate_config(parse_ini(ini.replace("0.05", "0.05, 0.02"))) == []

    @pytest.mark.parametrize(
        "experiment, body, diag",
        [
            ("separating", "m_ladder = 0.5, 0.2",
             "m_ladder cannot exceed the link radius 0.1, got 0.5"),
            ("tangent-cone", "flow_ladder = 0.5, 0.05",
             "flow_ladder cannot exceed the link radius 0.1, got 0.5"),
            ("tangent-cone", "link_radius = 0.05\nflow_ladder = 0.1, 0.01",
             "flow_ladder cannot exceed the link radius 0.05, got 0.1"),
        ],
    )
    def test_flowed_ladders_start_inside_the_link(self, experiment, body, diag):
        ini = (
            f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\nt = 1\n"
            f"[{experiment}]\n{body}\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [diag]
        # A malformed ladder is reported once, by the ladder check.
        bad = ini.replace("0.5, ", "0.01, ").replace("0.1, 0.01", "0.01, 0.1")
        assert cli.validate_config(parse_ini(bad)) == [
            f"{diag.split()[0]} must be strictly decreasing"
        ]

    @pytest.mark.parametrize("experiment, key, value", [
        # One bad value per field kind: a count below its floor, a Unit
        # outside (0, 1], an increasing Ladder and a non-positive float.
        ("separating", "n_conflict", 0),
        ("separating", "link_radius", 1.5),
        ("separating", "m_ladder", (0.05, 0.1)),
        ("separating", "tau", 0.0),
        ("conicality", "n_pairs", 31),
        ("conicality", "eps_w", 0.0),
        ("conicality", "r_ladder", (0.05, 0.1)),
        ("conicality", "connection_factor", -1.0),
        ("lipschitz-bounds", "n", 999),
        ("lipschitz-bounds", "eps_w", 1.5),
        ("lipschitz-bounds", "disk_radius", 0.0),
    ])
    def test_params_classes_raise_the_validate_message(self, experiment, key, value):
        # One field rule: a library params class raises what validate prints.
        cls = cli._REGISTRY[experiment][1]
        text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        ini = (
            f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\n"
            f"[{experiment}]\n{key} = {text}\n"
        )
        diags = cli.validate_config(parse_ini(ini))
        assert len(diags) == 1
        with pytest.raises(ValueError) as exc:
            cls(**{key: value})
        assert str(exc.value) == diags[0]

    def test_labels_reported_beside_a_field_error(self):
        ini = (
            "[experiment]\nid = separating\n[surface]\nfamily = briancon-speder\nt = 1\n"
            "[separating]\nn_conflict = 0\na_labels = 7\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [
            "n_conflict must be at least 1, got 0",
            "labels must come from [0, 1, 2], got [7]",
        ]

    def test_side_ladder_may_exceed_the_link(self):
        ini = (
            "[experiment]\nid = separating\n[surface]\nfamily = briancon-speder\nt = 1\n"
            "[separating]\nside_ladder = 0.5, 0.2\n"
        )
        assert cli.validate_config(parse_ini(ini)) == []

    @pytest.mark.parametrize("experiment", ["separating", "tangent-cone"])
    def test_branch_labels_checked(self, experiment, monkeypatch):
        calls = []
        structure = sf.slice_structure
        monkeypatch.setattr(
            sf, "slice_structure", lambda s, *a, **k: calls.append(s) or structure(s, *a, **k)
        )
        ini = (
            f"[experiment]\nid = {experiment}\n"
            "[surface]\nfamily = briancon-speder\nt = 1\n"
            f"[{experiment}]\n{{}}\n"
        )

        def diags(body):
            return cli.validate_config(parse_ini(ini.format(body)))

        assert diags("a_labels = 0") == []
        assert diags("a_labels = 0\nb_labels = 0") == [
            "a_labels and b_labels must be disjoint, both name [0]"
        ]
        assert calls == []  # label 0 alone needs no slice structure
        # BS(1) has slice components 0, 1 and 2.
        assert diags("a_labels = 0\nb_labels = 0, 1") == [
            "a_labels and b_labels must be disjoint, both name [0]"
        ]
        assert diags("a_labels = 7") == ["labels must come from [0, 1, 2], got [7]"]
        assert diags("a_labels = 1\nb_labels = 2, 3") == [
            "labels must come from [0, 1, 2], got [3]"
        ]
        assert diags("a_labels = 1\nb_labels = 0, 2") == []
        assert len(calls) == 4

    def test_branch_labels_on_a_degenerate_slice(self, tmp_path):
        # The slice structure raises; validate reports its message.
        path = tmp_path / "surface.txt"
        path.write_text(sf.surface_to_text(
            sf.WeightedSurface((3, 2, 1), 4, (((1, 0, 1), 1.0), ((0, 1, 2), 1.0)), "flat-slice")
        ))
        ini = (
            f"[experiment]\nid = tangent-cone\n[surface]\nfamily = file\npath = {path}\n"
            "[tangent-cone]\na_labels = 1\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [
            "slice z=0 of flat-slice is identically zero"
        ]

    def test_unknown_experiment_keys_reported(self):
        ini = (
            "[experiment]\nid = slice-components\nsead = 3\nseed = 1\nthreads = 1\n"
            "out = runs/x\n[surface]\nfamily = briancon-speder\n"
        )
        assert cli.validate_config(parse_ini(ini)) == ["unknown key 'sead' in [experiment]"]

    @pytest.mark.parametrize(
        "experiment, key",
        [
            ("separating", "sigmas"),
            ("density-anchors", "sigmas"),
            ("thin-wedge", "stability_bound"),
            ("conicality", "max_ratio_bound"),
            ("conicality", "slope_tol"),
            # Not a bound: the certificate reads no collapse, which is
            # tangent-cone's alone.
            ("separating", "flow_ladder"),
        ],
    )
    def test_verdict_bounds_are_not_keys(self, experiment, key):
        # Each bound is a constant read at its check: metric.SIGMAS,
        # separating.K_STABILITY_BOUND, covering.MAX_RATIO_BOUND and SLOPE_TOL.
        ini = (
            f"[experiment]\nid = {experiment}\n{surface_section(experiment)}"
            f"[{experiment}]\n{key} = 3\n"
        )
        assert cli.validate_config(parse_ini(ini)) == [f"unknown key {key!r} in [{experiment}]"]

    @pytest.mark.parametrize(
        "body, unknown",
        [
            ("family = briancon-speder\ntt = 1\n", ["tt"]),
            ("family = brieskorn\nexponents = 2, 4, 5\nt = 1\n", ["t"]),
            ("family = file\npath = s.txt\nexponents = 2, 4, 5\nt = 1\n", ["exponents", "t"]),
            ("family = briancon-speder\nt = 1\n", []),
        ],
    )
    def test_unknown_surface_keys_reported(self, body, unknown, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("s.txt").write_text(sf.surface_to_text(sf.briancon_speder(0.5)))
        ini = "[experiment]\nid = slice-components\n[surface]\n" + body
        assert cli.validate_config(parse_ini(ini)) == [
            f"unknown key {key!r} in [surface]" for key in unknown
        ]

    @pytest.mark.parametrize("experiment", ["density-anchors", "mu-constancy"])
    def test_surface_refused_where_the_run_uses_none(self, experiment, tmp_path, capsys):
        ini = f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\nt = 1\n"
        assert cli.validate_config(parse_ini(ini)) == ["unknown section [surface]"]
        out = tmp_path / "out"
        assert cli.main([experiment, "--config", write_ini(tmp_path, ini), "--out", str(out)]) == 1
        assert "unknown section [surface]" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_surface_key_does_not_run(self, tmp_path, capsys):
        # A typo would otherwise turn BS(1) into the default t = 0 member.
        path = write_ini(tmp_path, "[surface]\nfamily = briancon-speder\ntt = 1\n")
        out = tmp_path / "out"
        assert cli.main(["slice-components", "--config", path, "--out", str(out)]) == 1
        assert "unknown key 'tt' in [surface]" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_must_be_positive(self, tmp_path):
        ini = MONODROMY_INI.replace("id = monodromy", "id = monodromy\nthreads = 0")
        assert cli.validate_config(parse_ini(ini)) == ["threads must be positive, got 0"]
        args = cli._parse_args(["monodromy", "--config", write_ini(tmp_path, ini)])
        with pytest.raises(cli.ConfigError, match="^threads must be positive, got 0$"):
            cli.build_config("monodromy", args)

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_every_field_round_trips(self, experiment, tmp_path):
        # Each field's default, written back as INI text, reads back equal.
        def render(value):
            if value is None:
                return "none"
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, tuple):
                return ", ".join(render(v) for v in value)
            if isinstance(value, complex):
                return f"{value.real!r}{value.imag:+}i"
            return repr(value)

        params = cli.build_config(experiment, cli._parse_args([experiment])).params
        lines = [
            f"{f.name} = {render(getattr(params, f.name))}"
            for f in dataclasses.fields(params) if f.name not in ("seed", "threads")
        ]
        text = (
            f"[experiment]\nid = {experiment}\n{surface_section(experiment)}"
            f"[{experiment}]\n" + "\n".join(lines) + "\n"
        )
        assert cli.validate_config(parse_ini(text)) == []
        args = cli._parse_args([experiment, "--config", write_ini(tmp_path, text)])
        assert cli.build_config(experiment, args).params == params

    def test_cli_defaults_equal_library_defaults(self):
        # The defaults still declared twice, so a configless run and a direct
        # call default alike: thin_wedge_volume keeps keyword defaults because
        # perfbench/baseline.py calls it positionally, and the monodromy
        # runner combines standard_loop with cover_connectivity.
        def defaults(fn, names):
            sig = inspect.signature(fn).parameters
            return {name: sig[name].default for name in names}

        def fields(cls, names):
            return {name: getattr(cls(), name) for name in names}

        pairs = [
            (se.thin_wedge_volume, cli.ThinWedgeParams, ("min_cell_points",)),
            (cv.standard_loop, cli.MonodromyParams, ("c", "n_steps")),
            (cv.cover_connectivity, cli.MonodromyParams, ("start_index",)),
        ]
        for fn, cls, names in pairs:
            assert defaults(fn, names) == fields(cls, names), fn.__name__

    def test_benchmark_configs_are_valid(self, monkeypatch):
        # The benchmark runs these configs unedited; a schema change that
        # breaks one fails here rather than as a failed benchmark run.
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        experiment_of = {
            entry.config: entry.experiment
            for workload in workloads.WORKLOADS.values() for entry in workload.entries
        }
        paths = sorted((PERFBENCH / "configs").glob("*.ini"))
        assert paths
        for path in paths:
            diags = cli.validate_config(cli.read_config(path), experiment_of[path.name])
            assert diags == [], path.name

    def test_perfbench_baseline_calls_bind(self):
        # perfbench/baseline.py is run by hand, outside the benchmark: each
        # call it makes must still bind, so a signature change fails here.
        bs = sf.briancon_speder(1.0)
        rs = (0.05, 0.035, 0.025, 0.018, 0.0125)
        calls = [
            (se.CertificateParams, (), {"n_conflict": 8000, "n_side": 3000, "threads": 1}),
            (se.separating_certificate, (bs, se.CertificateParams()), {}),
            (se.thin_wedge_volume, (bs, (0.05, 0.1, 0.2), rs, 20000), {"seed": 0, "threads": 1}),
            (sp.sample_ball, (bs, 0.1, 60000, None, 0), {"threads": 2}),
            (sp.sample_link, (bs, 0.1, 8000, None, 0), {"threads": 2}),
        ]
        for fn, args, kwargs in calls:
            inspect.signature(fn).bind(*args, **kwargs)


class TestSeedPrecedence:
    def args(self, *argv):
        return cli._parse_args(["slice-components", *argv])

    def test_default_zero(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SINGLAB_SEED", raising=False)
        cfg = cli.build_config("slice-components", self.args("--out", str(tmp_path)))
        assert cfg.seed == 0
        assert cfg.surface.label == "briancon-speder(t=0)"

    def test_env_beats_config_and_flag_beats_env(self, monkeypatch, tmp_path):
        path = write_ini(tmp_path, "[experiment]\nseed = 5\n[surface]\nfamily = briancon-speder\n")
        monkeypatch.setenv("SINGLAB_SEED", "42")
        cfg = cli.build_config(
            "slice-components", self.args("--config", path, "--out", str(tmp_path))
        )
        assert cfg.seed == 42
        cfg = cli.build_config(
            "slice-components",
            self.args("--config", path, "--seed", "7", "--out", str(tmp_path)),
        )
        assert cfg.seed == 7

    def test_bad_env_seed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SINGLAB_SEED", "pi")
        with pytest.raises(cli.ConfigError, match="SINGLAB_SEED"):
            cli.build_config("slice-components", self.args("--out", str(tmp_path)))

    def test_negative_config_seed_reported_by_validate(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SINGLAB_SEED", raising=False)
        ini = (
            "[experiment]\nid = slice-components\nseed = -1\n"
            "[surface]\nfamily = briancon-speder\n"
        )
        assert cli.validate_config(parse_ini(ini)) == ["seed must be at least 0, got -1"]
        with pytest.raises(cli.ConfigError, match="^seed must be at least 0, got -1$"):
            cli.build_config("slice-components", self.args("--config", write_ini(tmp_path, ini)))

    @pytest.mark.parametrize("source", ["config", "env", "flag"])
    def test_negative_seed_exits_one_before_running(self, source, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("SINGLAB_SEED", raising=False)
        body = "[experiment]\nseed = -1\n" if source == "config" else ""
        path = write_ini(tmp_path, body + "[surface]\nfamily = briancon-speder\n")
        argv = ["lipschitz-bounds", "--config", path, "--out", str(tmp_path / "out")]
        if source == "env":
            monkeypatch.setenv("SINGLAB_SEED", "-1")
        if source == "flag":
            argv += ["--seed", "-1"]
        assert cli.main(argv) == 1  # build_config raises before any sampling
        assert "config error: seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_config_raises(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\nid = slice-components\n")
        with pytest.raises(cli.ConfigError, match="missing \\[surface\\]"):
            cli.build_config("slice-components", self.args("--config", path))


class TestRunExperiments:
    def test_mu_constancy_outputs(self, tmp_path, capsys):
        code = cli.main(["mu-constancy", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("= 364") == 4
        assert out.strip().endswith("verdict: constant")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "report/v1"
        assert report["artifact"] == {
            "name": "singlab", "version": singlab.__version__
        }
        assert report["verdict"] == "constant"
        assert report["results"]["mu_values"] == [364, 364, 364, 364]
        assert (tmp_path / "summary.txt").read_text() == out
        csv = (tmp_path / "mu.csv").read_text().strip().split("\n")
        assert csv[0] == "t_re,t_im,mu"
        assert len(csv) == 5

    def test_slice_components_expectations(self, tmp_path, capsys):
        path = write_ini(tmp_path, "[surface]\nfamily = briancon-speder\nt = 1\n")
        argv = ["slice-components", "--config", path, "--out", str(tmp_path / "a")]
        assert cli.main(argv + ["--expect", "3"]) == 0
        assert cli.main(argv + ["--expect", "1"]) == 2
        err = capsys.readouterr().err
        assert "expected verdict '1', got '3'" in err

    def test_monodromy_report_anchor(self, tmp_path, capsys):
        path = write_ini(tmp_path, MONODROMY_INI)
        code = cli.main(
            ["monodromy", "--config", path, "--out", str(tmp_path / "m"),
             "--expect", "transitive"]
        )
        assert code == 0
        report = json.loads((tmp_path / "m" / "report.json").read_text())
        anchor = report["results"]["anchor"]
        checks = {c["name"]: c for c in report["results"]["checks"]}
        assert list(checks) == [
            "transitive", "end anchor relative error", "sheet shift distance from 2"
        ]
        assert all(c["holds"] for c in checks.values())
        assert checks["end anchor relative error"]["value"] == anchor["rel_error"]
        assert anchor["rel_error"] <= 1e-6
        assert report["results"]["monodromy"]["sheet_shift"] == 2
        assert report["results"]["transitive"] is True
        capsys.readouterr()

    def test_monodromy_trajectories_csv(self, tmp_path, capsys):
        reports = {}
        for flag in ("yes", "no"):
            path = tmp_path / f"{flag}.ini"
            path.write_text(MONODROMY_INI + f"trajectories = {flag}\n")
            out = tmp_path / flag
            assert cli.main(["monodromy", "--config", str(path), "--out", str(out)]) == 0
            reports[flag] = (out / "report.json").read_bytes()
        capsys.readouterr()
        assert not (tmp_path / "no" / "trajectories.csv").exists()
        lines = (tmp_path / "yes" / "trajectories.csv").read_text().split("\n")
        assert lines[0].startswith("t,re_0,im_0")
        roots, _ = sf.all_roots(sf.fiber_coefficients(sf.briancon_speder(0.0), 0.01, 0.01))
        base = sorted(roots[0], key=lambda v: (v.real, v.imag))
        cells = [fmt17(0.0)]
        for v in base:
            cells += [fmt17(v.real), fmt17(v.imag)]
        assert lines[1] == ",".join(cells)
        # The reports differ only in the echoed flag.
        assert b'"trajectories": true' in reports["yes"]
        assert reports["yes"].replace(
            b'"trajectories": true', b'"trajectories": false'
        ) == reports["no"]

    def test_metadata_separated_from_report(self, tmp_path, capsys):
        code = cli.main(["slice-components", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert set(meta) == {
            "experiment", "timestamp_utc", "elapsed_seconds", "threads", "out_dir"
        }
        report_text = (tmp_path / "report.json").read_text()
        assert "timestamp" not in report_text
        assert '"threads"' not in report_text

    def test_reports_byte_identical_across_threads(self, tmp_path, capsys):
        # Conicality runs graphs over ball samples; the thin wedge solves only
        # the ball draws whose base lies in its region.  Both write the same
        # bytes at any thread count.
        runs = {
            "conicality": (
                "r_ladder = 0.1, 0.05\nn = 600\nn_pairs = 200\nmin_rung_points = 50\n",
                ("report.json",),
            ),
            "thin-wedge": (
                "eps_w_ladder = 0.2, 0.1\nr_ladder = 0.05, 0.025\nn = 2000\n",
                ("report.json", "thin_wedge.csv"),
            ),
        }
        for experiment, (body, files) in runs.items():
            path = write_ini(
                tmp_path,
                f"[experiment]\nid = {experiment}\n[surface]\nfamily = briancon-speder\n"
                f"[{experiment}]\n{body}",
            )
            for threads in (1, 3):
                code = cli.main(
                    [experiment, "--config", path, "--threads", str(threads),
                     "--out", str(tmp_path / f"{experiment}-t{threads}")]
                )
                assert code == 0
            capsys.readouterr()
            for name in files:
                a = (tmp_path / f"{experiment}-t1" / name).read_bytes()
                b = (tmp_path / f"{experiment}-t3" / name).read_bytes()
                assert a == b
            report = json.loads((tmp_path / f"{experiment}-t1" / "report.json").read_bytes())
            assert report["experiment"] == experiment

    def test_density_anchors_byte_identical_across_threads(self, tmp_path, capsys):
        # The anchor ladders and the comparability map their rungs over
        # threads; each rung draws from its own seed.
        path = write_ini(
            tmp_path,
            "[experiment]\nid = density-anchors\n[density-anchors]\nn = 2000\ncomp_n = 1500\n",
        )
        for threads in (1, 3):
            code = cli.main(
                ["density-anchors", "--config", path, "--threads", str(threads),
                 "--out", str(tmp_path / f"t{threads}")]
            )
            assert code == 0
        capsys.readouterr()
        a = (tmp_path / "t1" / "report.json").read_bytes()
        assert a == (tmp_path / "t3" / "report.json").read_bytes()
        checks = {c["name"]: c for c in json.loads(a)["results"]["checks"]}
        assert checks["lowest comparability ratio"]["holds"] is True
        assert checks["highest comparability ratio"]["holds"] is True

    @pytest.mark.parametrize(
        "experiment, body",
        [
            ("separating", "n_conflict = 400\nn_side = 200\n"),
            ("tangent-cone", "n = 400\n"),
        ],
    )
    def test_retired_n_per_branch_changes_nothing(self, experiment, body, tmp_path, capsys):
        # Exact orbit distances replaced the sampled branch circles that
        # n_per_branch sized: a config with the key at --threads 1 and one
        # without it at --threads 2 write byte-identical reports.
        reports = []
        for threads, extra in ((1, "n_per_branch = 1500\n"), (2, "")):
            path = tmp_path / f"t{threads}.ini"
            path.write_text(
                f"[surface]\nfamily = briancon-speder\nt = 1\n[{experiment}]\n{body}{extra}"
            )
            out = tmp_path / f"t{threads}"
            code = cli.main(
                [experiment, "--config", str(path), "--threads", str(threads), "--out", str(out)]
            )
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert "n_per_branch" not in reports[0].decode()
        assert json.loads(reports[0])["results"]

    @pytest.mark.parametrize("experiment", sorted(TABLE_RUNS))
    def test_csv_cells_equal_report_values(self, experiment, tmp_path, capsys):
        section, surface, tables_of = TABLE_RUNS[experiment]
        path = write_ini(
            tmp_path, f"[surface]\nfamily = briancon-speder\nt = {surface}\n"
            f"[{experiment}]\n{section}",
        )
        out = tmp_path / "out"
        assert cli.main([experiment, "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        tables = tables_of(json.loads((out / "report.json").read_text())["results"])
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(tables)
        for name, records in tables.items():
            header, *rows = (out / name).read_text().rstrip("\n").split("\n")
            header = header.split(",")
            assert set(header) == set(records[0])
            assert len(rows) == len(records)
            for row, record in zip(rows, records):
                for column, cell in zip(header, row.split(",")):
                    assert _cell_matches(cell, record[column]), (name, column, cell)

    def test_rerun_is_deterministic(self, tmp_path, capsys):
        for sub in ("r1", "r2"):
            assert cli.main(["mu-constancy", "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        path = write_ini(
            tmp_path,
            "[surface]\nfamily = brieskorn\nexponents = 2, 4, 5\n",
        )
        code = cli.main(
            ["lipschitz-bounds", "--config", path, "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_error_exits_one(self, tmp_path, capsys):
        code = cli.main(
            ["separating", "--config", str(tmp_path / "nope.ini"),
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err


# Experiment -> (verdict that means every check holds, [surface] and section
# body of a small run).
CHECKED_RUNS = {
    "mu-constancy": ("constant", ""),
    "tangent-cone": ("collapsed", "t = 1\n[tangent-cone]\nn = 800\n"),
    "thin-wedge": (
        "passed", "t = 0\n[thin-wedge]\neps_w_ladder = 0.2, 0.1\nr_ladder = 0.05, 0.025\n"
        "n = 4000\n",
    ),
    "monodromy": ("transitive", "t = 0\n[monodromy]\nn_steps = 512\n"),
    "lipschitz-bounds": ("passed", "t = 0\n[lipschitz-bounds]\nn = 20000\n"),
    "conicality": (
        "passed", "t = 0\n[conicality]\nr_ladder = 0.1, 0.05\nn = 600\nn_pairs = 200\n"
        "min_rung_points = 50\n",
    ),
    "density-anchors": ("passed", "[density-anchors]\nn = 2000\ncomp_n = 1500\n"),
    "separating": ("separating-evidence", "t = 1\n[separating]\nn_conflict = 800\nn_side = 400\n"),
}


def _checked_run(experiment, tmp_path, extra=""):
    body = CHECKED_RUNS[experiment][1]
    if body.startswith("t ="):
        body = "[surface]\nfamily = briancon-speder\n" + body
    path = write_ini(tmp_path, body + extra)
    args = argparse.Namespace(config=path, seed=0, threads=1, out=str(tmp_path / "out"))
    cfg = cli.build_config(experiment, args)
    return cfg, cli.run_experiment(cfg)


class TestChecks:
    """Every pass/fail verdict reads only its check records."""

    @pytest.mark.parametrize("experiment", sorted(CHECKED_RUNS))
    def test_the_pass_verdict_is_every_check_holding(self, experiment, tmp_path):
        cfg, outcome = _checked_run(experiment, tmp_path)
        checks = outcome.results["checks"]
        fields = {"name", "value", "bound", "slack", "holds"}
        assert checks and all(set(c) == fields for c in checks)
        passed = CHECKED_RUNS[experiment][0]
        assert (outcome.verdict == passed) == all(c["holds"] for c in checks)
        # Plain dicts: serializable without a default hook, as perfbench needs.
        json.dumps(outcome.results)
        summary = cli.summary_text(cfg, outcome).split("\n")
        lines = [ln for ln in summary if ln.startswith("check ")]
        assert [ln.split(":")[0] for ln in lines] == [f"check {c['name']}" for c in checks]
        for line, c in zip(lines, checks):
            assert line.endswith("holds" if c["holds"] else "fails")
            assert c["slack"] in (c["bound"] - c["value"], c["value"] - c["bound"])
            if c["slack"] != 0:
                assert c["holds"] == (c["slack"] > 0)

    @pytest.mark.parametrize(
        "experiment, module, constant, name",
        [
            pytest.param("thin-wedge", se, "K_STABILITY_BOUND", "K stability",
                         id="thin-wedge-stability"),
            pytest.param("conicality", cv, "MAX_RATIO_BOUND", "max inner/outer ratio",
                         id="conicality-max_ratio"),
        ],
    )
    def test_one_forced_failure_flips_one_record_and_the_verdict(
        self, experiment, module, constant, name, tmp_path, monkeypatch
    ):
        _, base = _checked_run(experiment, tmp_path)
        monkeypatch.setattr(module, constant, 1.0)
        cfg, forced = _checked_run(experiment, tmp_path)
        assert base.verdict == "passed" and forced.verdict == "failed"
        before = {c["name"]: c["holds"] for c in base.results["checks"]}
        after = {c["name"]: c["holds"] for c in forced.results["checks"]}
        assert list(before) == list(after)
        assert [n for n in before if before[n] != after[n]] == [name]
        assert after[name] is False
        failing = [ln for ln in cli.summary_text(cfg, forced).split("\n") if ln.endswith("fails")]
        assert len(failing) == 1 and failing[0].startswith(f"check {name}: ")

    def test_density_bounds_are_sigmas_standard_errors(self, tmp_path):
        # Every density check allows metric.SIGMAS = 3 standard errors, with
        # 1e-9 of rounding on the exponent and target-distance checks: each
        # anchor's records and the certificate's cone and side records.
        assert mt.SIGMAS == 3.0

        def bounds(prefix, report, k):
            a, t = report["alpha_se"], report["theta_star_se"]
            return {
                f"{prefix} alpha above k": k + 3 * a + 1e-9,
                f"{prefix} alpha not above k": k + 3 * a + 1e-9,
                f"{prefix} alpha not below k": k - 3 * a - 1e-9,
                f"{prefix} theta* positive": 3 * t,
            }

        expected = {}
        _, anchors = _checked_run("density-anchors", tmp_path)
        for name, anchor in anchors.results["anchors"].items():
            expected.update(bounds(name, anchor["report"], 3))
            expected[f"{name} theta* distance from target"] = (
                3 * anchor["report"]["theta_star_se"] + 1e-9
            )
        _, cert = _checked_run("separating", tmp_path)
        for prefix, key, k in (
            ("cone", "cone_report", 3), ("side A", "side_a_report", 4),
            ("side B", "side_b_report", 4),
        ):
            expected.update(bounds(prefix, cert.results[key], k))
        records = [
            c for outcome in (anchors, cert) for c in outcome.results["checks"]
            if c["name"] in expected
        ]
        # Four per anchor; the cone's zero-density record and three per side.
        assert len(records) == 3 * 4 + 1 + 2 * 3
        for c in records:
            assert c["bound"] == expected[c["name"]], c["name"]

    def test_check_records(self):
        at_most = Check.at_most("m", 2.0, 5.0)
        assert (at_most.slack, at_most.holds) == (3.0, True)
        at_least = Check.at_least("l", 2.0, 5.0)
        assert (at_least.slack, at_least.holds) == (-3.0, False)
        assert Check.at_most("e", 5.0, 5.0).holds
        assert not Check.at_most("e", 5.0, 5.0, strict=True).holds
        assert not Check.at_least("e", 5.0, 5.0, strict=True).holds
        for nan in (Check.at_most("n", math.nan, 1.0), Check.at_least("n", math.nan, 1.0)):
            assert not nan.holds and math.isnan(nan.slack)
        assert at_most.named("side A").name == "side A m"


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path = write_ini(tmp_path, MONODROMY_INI)
        assert cli.main(["validate", "--config", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_diagnostics_listed(self, tmp_path, capsys):
        path = write_ini(
            tmp_path,
            "[experiment]\nid = thin-wedge\n[thin-wedge]\nr_ladder = 0.1, 0.2\n",
        )
        assert cli.main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "must be strictly decreasing" in out
        assert "missing [surface] section" in out

    def test_parse_error_reported_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[experiment\nid = monodromy\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().out.lower()

    def test_requires_config(self, capsys):
        assert cli.main(["validate"]) == 1
        assert "--config" in capsys.readouterr().err


def test_console_script_installed(tmp_path):
    # The subprocess imports the same singlab as this process, wherever
    # pytest runs from and whether or not the package is installed.
    src = str(Path(singlab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "singlab", "mu-constancy", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: constant" in proc.stdout
