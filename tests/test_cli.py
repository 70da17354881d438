import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from nlcavity.cli import (
    EXIT_GUARD_ABORT,
    EXIT_INVALID_CONFIG,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    main,
    parse_freq,
    rounded,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden"


def validate(path, schema_name):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(json.loads(Path(path).read_text()), schema)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestNsSearch:
    def test_default_contains_first_row(self, tmp_path):
        rc = main(["ns-search", "--max-tau", "250", "--out", str(tmp_path), "--format", "json"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")
        assert rows[0] == ["tau", "A0", "A1", "A2", "merit"]
        taus = [float(r[0]) for r in rows[1:]]
        a1s = [float(r[2]) for r in rows[1:]]
        assert any(abs(t - 6.5064) < 1e-3 and abs(a - 0.97519) < 1e-4 for t, a in zip(taus, a1s))
        validate(tmp_path / "table1.json", "table1")

    def test_no_solution_exit_code(self, tmp_path):
        rc = main(["ns-search", "--max-tau", "5", "--out", str(tmp_path)])
        assert rc == EXIT_NO_SOLUTION
        rows = read_csv(tmp_path / "table1.csv")
        assert rows == [["tau", "A0", "A1", "A2", "merit"]]

    def test_two_atom_neighborhood(self, tmp_path):
        rc = main(
            [
                "ns-search",
                "--two-atom",
                "--tau1-range",
                "35:40",
                "--tau2-range",
                "195:200",
                "--out",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "two_atom.csv")
        assert rows[0] == ["tau1", "tau2", "B0", "B1", "B2", "merit"]
        assert any(
            abs(float(r[0]) - 37.79300921) < 1e-3 and abs(float(r[1]) - 197.78109842) < 1e-3
            for r in rows[1:]
        )
        validate(tmp_path / "two_atom.json", "two_atom")

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["ns-search", "--max-tau", "250", "--out", str(out)]) == EXIT_OK
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()


class TestQfunc:
    def test_outputs_and_lobes(self, tmp_path):
        rc = main(
            [
                "qfunc",
                "--alpha",
                "6",
                "--theta",
                str(6 * math.pi),
                "--grid",
                "-10:10:41",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        for name in ("qgrid.csv", "qgrid.json", "qgrid.gp", "lobes.json"):
            assert (tmp_path / name).exists()
        validate(tmp_path / "qgrid.json", "qgrid")
        validate(tmp_path / "lobes.json", "lobes")
        lobes = json.loads((tmp_path / "lobes.json").read_text())
        angles = lobes["lobe_angles"]
        assert len(angles) == 2
        assert abs(angles[0] + math.pi / 2) < 0.06 and abs(angles[1] - math.pi / 2) < 0.06
        grid = json.loads((tmp_path / "qgrid.json").read_text())
        assert len(grid["values_row_major"]) == 41 * 41
        rows = read_csv(tmp_path / "qgrid.csv")
        assert rows[0] == ["x", "p", "Q"]
        assert len(rows) == 1 + 41 * 41

    def test_theta_zero_single_lobe(self, tmp_path):
        rc = main(
            ["qfunc", "--alpha", "6", "--theta", "0", "--grid", "-10:10:21", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        lobes = json.loads((tmp_path / "lobes.json").read_text())
        assert lobes["degenerate"]
        assert abs(lobes["single_lobe_angle"]) < 0.01

    def test_cutoff_leakage_abort(self, tmp_path):
        rc = main(
            ["qfunc", "--alpha", "10", "--theta", "1", "--cutoff", "40", "--out", str(tmp_path)]
        )
        assert rc == EXIT_GUARD_ABORT

    def test_invalid_grid(self, tmp_path):
        rc = main(["qfunc", "--alpha", "2", "--grid", "bad", "--out", str(tmp_path)])
        assert rc == EXIT_INVALID_CONFIG

    def test_format_flag_is_rejected(self, tmp_path):
        assert main(["qfunc", "--format", "csv", "--out", str(tmp_path)]) == EXIT_INVALID_CONFIG


class TestUniversality:
    def test_default_summary(self, tmp_path):
        rc = main(["universality", "--alphas", "4,6,8", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        validate(tmp_path / "summary.json", "summary")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["exponent"] is not None
        rows = read_csv(tmp_path / "scaling.csv")
        assert rows[0] == ["alpha", "residual"]
        assert len(rows) == 4

    def test_single_alpha_null_exponent(self, tmp_path):
        rc = main(["universality", "--alphas", "4", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["exponent"] is None
        assert len(summary["residuals"]) == 1

    def test_drop_cubic_exponent_near_minus_two(self, tmp_path):
        rc = main(["universality", "--alphas", "4,6,8,12", "--drop-cubic", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["exponent"] - (-2.0)) < 0.3


@pytest.mark.filterwarnings("ignore:detuning below")
class TestParams:
    def test_quoted_raman_frequencies(self, capsys):
        rc = main(
            [
                "params",
                "--g",
                "2pi*4.5MHz",
                "--omega",
                "2pi*30MHz",
                "--delta",
                "2pi*6MHz",
                "--tau",
                "6.5064",
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        jsonschema.validate(
            out, json.loads((SCHEMA_DIR / "params.schema.json").read_text())
        )
        assert abs(out["kappa_over_2pi_hz"] - 11.25e6) < 1.0
        assert abs(out["interaction_time_s"] - 9.2e-8) < 1e-9

    def test_long_tau(self, capsys):
        rc = main(
            [
                "params",
                "--g",
                "2pi*4.5MHz",
                "--omega",
                "2pi*30MHz",
                "--delta",
                "2pi*6MHz",
                "--tau",
                "219.918",
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["interaction_time_s"] - 3.1e-6) < 5e-8

    def test_zero_delta_is_invalid(self):
        rc = main(["params", "--g", "1e6", "--omega", "1e6", "--delta", "0"])
        assert rc == EXIT_INVALID_CONFIG

    def test_parse_freq_shorthand(self):
        assert abs(parse_freq("2pi*4.5MHz") - 2 * math.pi * 4.5e6) < 1e-3
        assert parse_freq("1kHz") == 1e3
        assert parse_freq("7.07e7") == 7.07e7


class TestQuditTheta:
    def test_qutrit(self, capsys):
        rc = main(["qudit-theta", "--n-max", "2", "--tolerance", "0.01", "--format", "json"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        jsonschema.validate(
            out, json.loads((SCHEMA_DIR / "qudit_theta.schema.json").read_text())
        )
        assert out["worst_error"] <= 0.01
        assert [row["target"] for row in out["table"]] == [1, 1, -1]

    def test_n_max_one_is_trivial(self, capsys):
        rc = main(["qudit-theta", "--n-max", "1", "--format", "json"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["theta"] == 0.0

    def test_flip_table_to_twenty(self, capsys):
        # Matching 21 levels at once needs an astronomically large angle, so
        # the search reports its best effort and signals "no solution"; the
        # target column still shows where the sign flips sit.
        rc = main(["qudit-theta", "--n-max", "20", "--tolerance", "0.2", "--format", "json"])
        assert rc == EXIT_NO_SOLUTION
        out = json.loads(capsys.readouterr().out)
        assert out["worst_error"] > 0.2
        flips = [row["n"] for row in out["table"] if row["target"] == -1]
        assert flips == [2, 18]

    def test_tolerance_is_rounded(self, capsys):
        rc = main(
            ["qudit-theta", "--n-max", "2", "--tolerance", "0.0123456789012345", "--format", "json"]
        )
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance"] == 0.0123456789012


class TestRounded:
    def test_nested_containers(self):
        record = {"a": [0.1234567890123456, (2.0, {"b": 1.0 / 3.0})]}
        assert rounded(record) == {"a": [0.123456789012, [2.0, {"b": 0.333333333333}]]}

    def test_numpy_values(self):
        assert rounded(np.float64(2.0) / 3.0) == 0.666666666667
        assert rounded(np.array([[1.0 / 7.0, 2.0]])) == [[0.142857142857, 2.0]]

    def test_complex_is_pair(self):
        assert rounded(1.0 / 3.0 - 2.0j) == [0.333333333333, -2.0]

    def test_scalars_pass_through(self):
        for value in (3, True, False, None, "text"):
            assert rounded(value) is value


class TestConfigFile:
    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max = 5\ntolerance = 0.2\nformat = json\n")
        rc = main(["--config", str(cfg), "qudit-theta", "--n-max", "2"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["table"]) == 3  # flag wins over config
        assert out["tolerance"] == 0.2  # config wins over default

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        rc = main(["--config", str(cfg), "qudit-theta", "--n-max", "2"])
        assert rc == EXIT_INVALID_CONFIG

    def test_config_converts_like_flags(self, tmp_path):
        # The same values as the golden qfunc_normalized case, from a config.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 3+2j\ngrid = -6:6:41\nconvention = normalized\ncutoff = 60\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "qfunc", "--out", str(out)]) == EXIT_OK
        want = GOLDEN / "qfunc_normalized" / "files"
        names = sorted(path.name for path in want.iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_flags_and_internal_keys_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("two_atom = false\nfunc = x\n")
        rc = main(["--config", str(cfg), "ns-search", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "table1.csv").exists()

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = abc\n")
        rc = main(["--config", str(cfg), "cat-diagnose"])
        assert rc == EXIT_INVALID_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "missing.cfg"), "qudit-theta"])
        assert rc == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("invalid configuration: cannot read ")

    def test_config_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        rc = main(["--config", str(cfg), "qudit-theta"])
        assert rc == EXIT_INVALID_CONFIG
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_choices_checked_in_the_command_run(self, tmp_path, capsys):
        # format = text suits qudit-theta but not ns-search (csv or json).
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = text\n")
        assert main(["--config", str(cfg), "qudit-theta"]) == EXIT_OK
        rc = main(["--config", str(cfg), "ns-search", "--out", str(tmp_path)])
        assert rc == EXIT_INVALID_CONFIG

    def test_unknown_flag_exit_code(self, capsys):
        rc = main(["ns-search", "--definitely-not-a-flag"])
        assert rc == EXIT_INVALID_CONFIG
