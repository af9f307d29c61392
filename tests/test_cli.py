"""Tests for the experiment driver CLI.

Cheap experiments run end-to-end through ``main`` with outputs in tmp
directories; config parsing, validation diagnostics, seed precedence, and
exit-code conventions are covered unit-style.
"""

import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singlab
from singlab import cli
from singlab import surfaces as sf
from singlab.util import fmt17


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


def _collapse_records(collapse: dict) -> list:
    pairs = zip(collapse["rungs"], collapse["max_ratios"])
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
            "collapse.csv": _collapse_records(res["collapse"]),
            "cone_density.csv": res["cone_report"]["rungs"],
            "side_a_density.csv": res["side_a_report"]["rungs"],
            "side_b_density.csv": res["side_b_report"]["rungs"],
        },
    ),
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
        assert cli._coerce_value("n", "4000") == 4000
        assert cli._coerce_value("r_ladder", "0.1, 0.05") == (0.1, 0.05)
        assert cli._coerce_value("a_labels", "1, 2") == (1, 2)
        assert cli._coerce_value("tau", "none") is None
        assert cli._coerce_value("b_labels", "") is None
        assert cli._coerce_value("trajectories", "yes") is True
        assert cli._coerce_value("eps_w", "0.1") == 0.1
        assert cli._coerce_value("t_grid", "0, i") == (0, 1j)

    def test_coerce_rejects_bad_values(self):
        with pytest.raises(cli.ConfigError, match="'n'"):
            cli._coerce_value("n", "many")
        with pytest.raises(cli.ConfigError, match="trajectories"):
            cli._coerce_value("trajectories", "maybe")


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
        assert anchor["end_ok"] and anchor["shift_ok"]
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
        base = sf.solve_fiber(sf.briancon_speder(0.0), 0.01, 0.01)
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
        path = write_ini(
            tmp_path,
            """
            [experiment]
            id = conicality
            [surface]
            family = briancon-speder
            [conicality]
            r_ladder = 0.1, 0.05
            n = 600
            n_pairs = 200
            min_rung_points = 50
            """,
        )
        for threads, sub in ((1, "t1"), (3, "t3")):
            code = cli.main(
                ["conicality", "--config", path, "--threads", str(threads),
                 "--out", str(tmp_path / sub)]
            )
            assert code == 0
        capsys.readouterr()
        a = (tmp_path / "t1" / "report.json").read_bytes()
        b = (tmp_path / "t3" / "report.json").read_bytes()
        assert a == b
        assert json.loads(a)["experiment"] == "conicality"

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
