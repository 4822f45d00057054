import decimal
import functools
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from retromech import csvtext, lagrangian, verify
from retromech.cli import main, parse_args
from retromech.core import Grid
from retromech.csvtext import _BLOCK_VALUES


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestParseArgs:
    def test_builds_config(self):
        cfg = parse_args(["fracdiff", "--alpha", "0.5", "--fn", "t", "--n", "256"])
        assert cfg.command == "fracdiff"
        assert cfg.options["alpha"] == 0.5
        assert cfg.options["fn"] == "t"
        assert cfg.options["n"] == 256
        assert cfg.options["scheme"] == "gl"

    def test_empty_argv_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args([])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["oscillate", "--bogus", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "error: unknown command 'frobnicate'"),
        (["--config"], "error: argument --config: expected one argument"),
    ], ids=["unknown-command", "bare-config"])
    def test_usage_error_names_its_cause(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"retromech: {message}"

    def test_missing_required_parameter(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["derive-eom"])
        assert err.value.code == 2
        assert "--lagrangian" in capsys.readouterr().err

    def test_malformed_number_names_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["oscillate", "--m", "abc"])
        assert err.value.code == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-2.5e69, -1e-5, -1.0000000000000001e-05,
                                       -5e-324, -1.7976931348623157e308])
    @pytest.mark.parametrize("argv, flag, dest", [
        (["oscillate"], "--q0", "q0"),
        (["fracdiff", "--alpha", "0.5", "--fn", "t"], "--a", "a"),
        (["derive-eom", "--lagrangian", "q[a]"], "--alpha", "alpha"),
        (["dampedwave", "--xi", "1"], "--ener", "energy"),
        (["oscillate"], "--q", "q0"),
        (["fracdiff", "--fn", "t"], "--al", "alpha"),
    ], ids=["oscillate", "fracdiff", "derive-eom", "dampedwave-prefix", "oscillate-prefix",
            "fracdiff-prefix"])
    def test_negative_exponent_notation_in_both_spellings(self, argv, flag, dest, value):
        # argparse read "--q0 -2.5e+69" as two flags and exited 2, and a
        # flag's unique prefix ("--ener") as well after that was mended
        text = repr(value)
        apart = parse_args([*argv, flag, text]).options
        assert apart == parse_args([*argv, f"{flag}={text}"]).options
        assert float(apart[dest]) == value

    @pytest.mark.parametrize("argv, dest, value", [
        (["derive-eom", "--lagrangian", "-1*q[1]"], "lagrangian", "-1*q[1]"),
        (["derive-eom", "--lag", "-1e5*q[1]+2*q[0]"], "lagrangian", "-1e5*q[1]+2*q[0]"),
        (["eigensolve", "--potential", "-x"], "potential", "-x"),
        (["oscillate", "--output", "-x.csv"], "output", "-x.csv"),
    ], ids=["lagrangian", "lagrangian-prefix", "potential", "output"])
    def test_the_token_after_a_value_flag_is_its_value(self, argv, dest, value):
        # argparse read a token starting with '-' as a flag and exited 2
        # with "expected one argument"
        assert parse_args(argv).options[dest] == value

    @pytest.mark.parametrize("argv, text", [
        (["fracdiff", "--alpha", "1", "--fn", "-x"], "argument --fn: invalid choice: '-x'"),
        (["oscillate", "--m", "--help"], "argument --m: invalid float value: '--help'"),
    ], ids=["choice", "float"])
    def test_a_flag_like_value_is_checked_as_the_value(self, capsys, argv, text):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["oscillate", "--out", "--"], "--output"),
        (["oscillate", "--output=--"], "--output"),
        (["dampedwave", "--xi", "1", "--c-light=--"], "--c-light"),
        (["derive-eom", "--lagrangian", "--"], "--lagrangian"),
    ], ids=["apart", "joined", "dest-with-dash", "lagrangian"])
    def test_double_dash_is_no_value(self, capsys, argv, flag):
        # argparse read "--flag=--" as an empty list, which raised a
        # TypeError in the handler
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err

    def test_ambiguous_prefix_keeps_argparse_error(self, capsys):
        # "--c" could be --c-light or --count, so no value is attached to it
        with pytest.raises(SystemExit) as err:
            parse_args(["dampedwave", "--xi", "1", "--c", "-1e-5"])
        assert err.value.code == 2
        assert "ambiguous option: --c could match --c-light, --count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--potential", "free"],
        ["--potential", "harmonic, 1", "--a", "0"],
        ["--potential", "well, 1", "--b", "3"],
    ], ids=["free", "lone-a", "lone-b"])
    def test_domain_needs_both_ends(self, argv):
        # a lone --a or --b was dropped: the default grid replaced it
        with pytest.raises(SystemExit) as err:
            parse_args(["eigensolve", *argv])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, error", [
        (["eigensolve", "--potential", "freedom"], "offset 4: trailing input 'dom'"),
        (["eigensolve", "--potential", "polynomial, 1"],
         "offset 4: unexpected input 'nomial, 1' (expected ',')"),
        (["eigensolve", "--potential", "freedom", "--a", "0", "--b", "1"],
         "offset 4: trailing input 'dom'"),
    ], ids=["free", "poly", "free-with-domain"])
    def test_misspelt_potential_is_a_parse_error(self, capsys, argv, error):
        # without a domain, the text's prefix read as free or poly and gave
        # the usage error that free and polynomial potentials need one
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: lagrangian.parse_potential: {error}\n"

    def test_dampedwave_needs_xi_or_b(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["dampedwave"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            parse_args(["dampedwave", "--xi", "1", "--B", "1"])
        assert err.value.code == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"command": "oscillate", "k": 4.0, "c": 0.3, "n": 101}))
        cfg = parse_args(["--config", str(cfg_path)])
        assert cfg.command == "oscillate"
        assert cfg.options["k"] == 4.0
        assert cfg.options["n"] == 101

    def test_config_flag_with_equals_reads_the_same_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "oscillate", "k": 4.0, "n": 101}))
        assert (parse_args([f"--config={cfg_path}", "--c", "0.3"])
                == parse_args(["--config", str(cfg_path), "--c", "0.3"]))
        assert parse_args([f"--config={cfg_path}"]).options["k"] == 4.0

    @pytest.mark.parametrize("doc, dest, value", [
        ({"command": "oscillate", "k": None}, "k", 1.0),
        ({"command": "dampedwave", "xi": 1, "B": None, "c_light": None}, "c_light", 1.0),
    ], ids=["k", "B-and-c_light"])
    def test_null_config_value_leaves_the_default(self, tmp_path, doc, dest, value):
        # null became the flag's value, and failed later
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        assert parse_args(["--config", str(cfg_path)]).options[dest] == value

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "oscillate", "k": 4.0}))
        cfg = parse_args(["oscillate", "--config", str(cfg_path), "--k", "9.0"])
        assert cfg.options["k"] == 9.0

    @pytest.mark.parametrize("text, message", [
        ('{"command": "oscillate", "bogus": 1}', "unknown config key 'bogus'"),
        ('{"command": "oscillate", "help": true}', "unknown config key 'help'"),
        ('{"command": "oscillate", "direction": "bogus"}', "argument --direction: invalid"),
        ('{"command": "oscillate", "format": "xml"}', "argument --format: invalid choice"),
        ('{"command": "fracdiff", "alpha": 0.5, "fn": "bogus"}', "argument --fn: invalid"),
        ('{"command": "oscillate", "direction": ["causal"]}', "argument --direction: "),
        ('{"command": "oscillate", "n": 5.7}', "argument --n: invalid int value: '5.7'"),
        ('{"command": "oscillate", "n": true}', "argument --n: invalid int value: 'true'"),
        ('{"command": "oscillate", "k": 1' + "0" * 5000 + "}", "malformed config file"),
        ("[1, 2]", "must hold a JSON object"),
        ("[" * 200000 + "]" * 200000, "malformed config file"),
    ], ids=["unknown-key", "help", "bad-choice", "bad-format", "bad-fn", "list-for-choice",
            "float-for-int", "bool-for-int", "over-4300-digits", "list-document",
            "nested-past-the-recursion-limit"])
    def test_config_value_rejected_as_its_flag(self, tmp_path, capsys, text, message):
        # each ran (the choices unchecked, n = 5.7 as 5, true as 1), or
        # ended in a traceback at run time or in the JSON reader
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as err:
            parse_args(["--config", str(cfg_path)])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, code, error", [
        ({"command": "eigensolve", "potential": 5}, 1, "lagrangian.parse_potential"),
        ({"command": "derive-eom", "lagrangian": 5}, 1, "lagrangian.parse_lagrangian"),
        ({"command": "oscillate", "n": 5, "output": 5}, 0, None),
        ({"command": "oscillate", "k": 10**400}, 1, "oscillator.OscillatorParams"),
    ], ids=["potential", "lagrangian", "output", "huge-integer"])
    def test_config_number_for_any_flag_runs_or_names_its_error(
            self, tmp_path, monkeypatch, capsys, doc, code, error):
        # each ended in a TypeError or OverflowError traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["--config", "run.json"]) == code
        captured = capsys.readouterr()
        if error is None:
            assert captured.err == "" and (tmp_path / "5").read_text().startswith("t,q,")
        else:
            assert captured.err.startswith(f"error: {error}: ")
            assert captured.err.count("\n") == 1


class TestFracdiffCommand:
    def test_csv_output_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["fracdiff", "--alpha", "0.5", "--fn", "t",
                "--a", "0", "--b", "1", "--n", "1024"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert read(out1) == read(out2)
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,deriv"
        t, d = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        mask = t >= 0.2
        exact = 2.0 * np.sqrt(t[mask] / math.pi)
        assert np.max(np.abs(d[mask] - exact) / exact) <= 1e-2

    def test_json_format(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["fracdiff", "--alpha", "1", "--fn", "t^2", "--n", "64",
                     "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"] == 1.0
        assert len(doc["deriv"]) == 64

    def test_stdout_when_no_output(self, capsys):
        assert main(["fracdiff", "--alpha", "0", "--fn", "const", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,deriv")

    @pytest.mark.parametrize("argv", [
        ["--fn", "exp(t)", "--b", "800", "--n", "16"],
        ["--fn", "exp(t)", "--b", "800", "--n", "4096"],
        ["--fn", "t^3", "--b", "1e120", "--n", "600"],
        ["--fn", "t^3", "--b", "1e102", "--n", "600", "--scheme", "trapezoid"],
        ["--fn", "exp(t)", "--b", "709", "--n", "100", "--alpha", "1.9",
         "--scheme", "trapezoid"],
    ], ids=["exp-n16", "exp-n4096", "cube-n600", "cube-trapezoid", "exp-trapezoid"])
    def test_non_finite_values_exit_one_without_file(self, tmp_path, capsys, argv):
        # these printed inf or nan rows with exit 0: the first three have
        # overflowing samples, the last two overflow in the derivative
        out = tmp_path / "never.csv"
        assert main(["fracdiff", "--alpha", "0.5", "--a", "0", *argv,
                     "--output", str(out)]) == 1
        assert not out.exists()
        assert "fracops.causal_frac_deriv" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unallocatable_grid_names_its_points(self, capsys, fmt):
        # grid.points() ran outside the error mapping and ended in a
        # ValueError traceback
        assert main(["fracdiff", "--alpha", "0.5", "--fn", "t", "--n=1" + "0" * 30,
                     "--format", fmt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: core.Grid.points: ") and err.count("\n") == 1

    def test_retrocausal_direction_wired(self, tmp_path):
        out = tmp_path / "retro.csv"
        assert main(["fracdiff", "--alpha", "1", "--fn", "t", "--n", "64",
                     "--direction", "retrocausal", "--output", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",")
        assert np.max(np.abs(data[:, 1] + 1.0)) <= 1e-9


class TestDeriveEomCommand:
    def test_prints_both_reduced_odes(self, capsys):
        argv = ["derive-eom", "--lagrangian",
                "1.0*q[1] + 0.3*q[0.5] + 4.0*q[0]", "--alpha", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1·D^2[q] + 0.3·D^1[q] + 4·D^0[q] = 0 (causal)" in out
        assert "= 0 (retrocausal)" in out
        assert "1·q'' + 0.3·q' + 4·q = 0" in out
        assert "1·q'' - 0.3·q' + 4·q = 0" in out

    @pytest.mark.parametrize("placeholder", [
        "q[a]", "q[ a]", "q[a ]", "q[ a ]", "q[\ta]", "q[alpha]", "q[ alpha]",
        "q[alpha ]", "q[ alpha ]", "q[\talpha\t]"])
    def test_alpha_placeholder_substitution(self, capsys, placeholder):
        # the grammar ignores whitespace, so the placeholder does too
        def run(order):
            argv = ["derive-eom", "--lagrangian",
                    f"1.0*q[1] + 0.3*{order} + 4.0*q[0]", "--alpha", "0.5"]
            assert main(argv) == 0
            return capsys.readouterr().out

        out = run(placeholder)
        assert "0.3·D^1[q]" in out
        assert out == run("q[0.5]")

    def test_alpha_placeholder_is_a_whole_token(self, capsys):
        argv = ["derive-eom", "--lagrangian", "1.0*q[1] + 0.3*q[ab]", "--alpha", "0.5"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: lagrangian.parse_lagrangian: ")

    @pytest.mark.parametrize("text, terms, potential, reduced", [
        ("1*q[1] + 0.3*q[0.5] + 4*q[0] - V(harmonic, 2)",
         [{"coeff": 1.0, "order": 2.0}, {"coeff": 0.3, "order": 1.0},
          {"coeff": 4.0, "order": 0.0}],
         {"kind": "harmonic", "k": 2.0},
         {"causal": {"mass": 1.0, "damping": 0.3, "stiffness": 6.0},
          "retrocausal": {"mass": 1.0, "damping": -0.3, "stiffness": 6.0}}),
        ("2*q[0.75] - V(poly, 1, 0, 3)", [{"coeff": 2.0, "order": 1.5}],
         {"kind": "poly", "coeffs": [1.0, 0.0, 3.0]}, None),
    ], ids=["reduced", "fractional"])
    def test_json_export(self, tmp_path, capsys, text, terms, potential, reduced):
        out = tmp_path / "eom.json"
        assert main(["derive-eom", "--lagrangian", text, "--output", str(out)]) == 0
        expected = {direction: {"direction": direction, "terms": terms,
                                "potential": potential}
                    for direction in ("causal", "retrocausal")}
        if reduced:
            expected["reduced"] = reduced
        assert json.loads(out.read_text()) == expected

    @pytest.mark.parametrize("argv, same_as", [
        (["derive-eom", "--lagrangian", "1*q[1] + 1*q[0e99999999999999999999999]"],
         "1*q[1] + 1*q[0]"),
        (["derive-eom", "--lagrangian", "1*q[1] + 0*q[0e99999999999999999999999]"],
         "1*q[1] + 0*q[0]"),
    ], ids=["kept", "dropped"])
    def test_zero_order_with_any_exponent_prints_as_order_zero(self, capsys, argv,
                                                                same_as):
        # Decimal holds no exponent past 999999999999999999: both exited 1
        # with "error: lagrangian.parse_lagrangian: [<class
        # 'decimal.InvalidOperation'>]"
        assert main(argv) == 0
        out = capsys.readouterr()
        assert main(["derive-eom", "--lagrangian", same_as]) == 0
        assert capsys.readouterr() == out

    @pytest.mark.parametrize("token", ["0.50", "1e-400", "1.0000000000000001", "1_0"])
    def test_alpha_is_substituted_as_written(self, capsys, token):
        # the flag substituted repr(float(token)): 1e-400 became order 0.0,
        # 1.0000000000000001 became 1.0 and 1_0 became 10.0
        def run(order, *flags):
            code = main(["derive-eom", "--lagrangian", f"1*q[1] + 2*{order}", *flags])
            return code, capsys.readouterr()

        assert run("q[a]", "--alpha", token) == run(f"q[{token}]")

    @pytest.mark.parametrize("alpha, text, code", [
        (0.5, "1*q[1] + 2*q[a]", 0),
        (1, "2*q[a] + 1*q[", 1),
    ], ids=["float", "integer"])
    def test_alpha_from_a_config_number(self, tmp_path, capsys, alpha, text, code):
        # a JSON integer was substituted as 1.0, which moved the error offset
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "derive-eom", "alpha": alpha,
                                        "lagrangian": text}))
        assert main(["--config", str(cfg_path)]) == code
        from_file = capsys.readouterr()
        assert main(["derive-eom", "--lagrangian", text, "--alpha", str(alpha)]) == code
        assert from_file == capsys.readouterr()

    @pytest.mark.parametrize("text, body", [
        ("1*q[1.5]", "1·D^3[q]"),
        ("1*q[1] - V(poly, 0, 0, 0, 1)", "1·D^2[q] + 3·q^2"),
    ], ids=["order-3", "anharmonic"])
    def test_no_classical_form_prints_the_two_equations(self, tmp_path, capsys, text,
                                                         body):
        # the library raised on what the CLI's own pre-check let through
        out = tmp_path / "eom.json"
        for flags in ((), ("--output", str(out))):
            assert main(["derive-eom", "--lagrangian", text, *flags]) == 0
            assert capsys.readouterr() == (
                f"{body} = 0 (causal)\n{body} = 0 (retrocausal)\n", "")
        assert sorted(json.loads(out.read_text())) == ["causal", "retrocausal"]

    def test_dsl_error_is_computation_failure(self, capsys):
        assert main(["derive-eom", "--lagrangian", "1*q[1] + 1*q[1]"]) == 1
        err = capsys.readouterr().err
        assert "lagrangian.parse_lagrangian" in err
        assert "duplicate order" in err


class TestOscillateCommand:
    def test_json_document(self, capsys):
        assert main(["oscillate", "--c", "0.1", "--n", "101", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["direction", "energy", "params", "q", "qdot", "t"]
        assert doc["params"] == {"m": 1.0, "C": 0.1, "k": 1.0, "q0": 1.0, "v0": 0.0}
        assert doc["direction"] == "causal"
        assert all(len(doc[key]) == 101 for key in ("t", "q", "qdot", "energy"))
        assert doc["t"] == Grid(0.0, 10.0, 101).points().tolist()

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "osc.csv"
        assert main(["oscillate", "--m", "1", "--c", "0", "--k", "1",
                     "--q0", "1", "--v0", "0", "--a", "0", "--b", "6.283185307179586",
                     "--n", "6284", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q,qdot,energy"
        data = np.loadtxt(lines[1:], delimiter=",")
        t, q = data[:, 0], data[:, 1]
        assert np.max(np.abs(q - np.cos(t))) <= 1e-5
        # undamped: energy conserved
        assert np.max(np.abs(data[:, 3] - 0.5)) <= 1e-9

    def test_unstable_run_exits_one_without_partial_file(self, tmp_path, capsys):
        out = tmp_path / "boom.csv"
        code = main(["oscillate", "--k", "1e8", "--n", "101",
                     "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert "oscillator.solve_causal" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["oscillate", "--n", "5", "--output", "missing/x.csv"],
         "'missing/x.csv': No such file or directory"),
        (["oscillate", "--n", "5", "--output", "run.json/x.csv"],
         "'run.json/x.csv': Not a directory"),
        (["oscillate", "--n", "5", "--output", "sub"], "'sub': Is a directory"),
    ], ids=["missing-directory", "file-as-directory", "directory"])
    def test_unwritable_output_names_its_path_and_reason(self, tmp_path, monkeypatch,
                                                         capsys, argv, error):
        # the OSError's own text named the random temporary sibling, as
        # '.retromech-y_xhxy2l.tmp', so each run printed another line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "sub").mkdir()
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: cannot write output to {error}\n"] * 2
        assert sorted(os.listdir()) == ["run.json", "sub"]
        assert os.listdir("sub") == []

    @pytest.mark.parametrize("argv, config", [
        (["oscillate", "--n", "5", "--output", ""], None),
        (["oscillate", "--n", "5", "--output="], None),
        (["derive-eom", "--lagrangian", "1*q[1]", "--output", ""], None),
        (["--config", "run.json"], {"command": "oscillate", "n": 5, "output": ""}),
    ], ids=["flag", "flag-equals", "derive-eom", "config"])
    def test_empty_output_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv,
                                           config):
        # the temporary file went to the parent of the working directory
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        if config is not None:
            (tmp_path / "work" / "run.json").write_text(json.dumps(config))
        before = sorted(os.listdir(tmp_path)), sorted(os.listdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: argument --output: expected a path, got ''")
        assert (sorted(os.listdir(tmp_path)), sorted(os.listdir())) == before

    @pytest.mark.parametrize("argv, h, radius", [
        (["--n", "2"], "10", "399.654"),
        (["--n", "3"], "5", "21.4978"),
        (["--n", "4"], "3.33333", "2.89984"),
        (["--n", "3", "--direction", "retrocausal", "--c", "0.5"], "-5", "17.9093"),
    ], ids=["n2", "n3", "n4", "retrocausal-n3"])
    def test_step_outside_stability_region_exits_1(self, capsys, argv, h, radius):
        # h * omega = 10, 5 and 3.3 lie past RK4's limit 2 sqrt(2) on the
        # imaginary axis: the march grew the energy from 0.5 to 79861,
        # 106793 and 297, short of any float-range trouble
        assert main(["oscillate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: oscillator.solve_")
        assert f"RK4 step h = {h} (n = {argv[1]}) is outside the stability region" \
            in captured.err
        assert f"the step grows the solution by {radius}" in captured.err
        assert "(c1, c0) = (" in captured.err

    def test_overflowing_step_names_h_and_n(self, capsys):
        # k h^2 = 2.5e301: the step matrix itself overflows, which the check
        # read as no growth, so the march failed with the float-range error
        assert main(["oscillate", "--k", "1e300", "--n", "3"]) == 1
        assert capsys.readouterr().err == (
            "error: oscillator.solve_causal: RK4 step h = 5 (n = 3) is outside the "
            "stability region for (c1, c0) = (0.0, 1e+300): the step overflows the "
            "float range where the exact one does not grow\n")

    @pytest.mark.parametrize("argv, expected", [
        (["--n", "5"],
         "t,q,qdot,energy\n0,1,0,0.5\n"
         "2.5,-0.49739583333333326,0.10416666666666667,0.12912665473090273\n"
         "5,0.23655192057291652,-0.10362413194444445,0.033347385923987519\n"
         "7.5,-0.10686575924908692,0.076183036521629041,0.0086120727767698361\n"
         "10,0.045218850405495781,-0.049024974858319276,0.0022240962959267216\n"),
        # k = 0: every step matrix eigenvalue is exactly 1
        (["--k", "0", "--n", "2"], "t,q,qdot,energy\n0,1,0,0\n10,1,0,0\n"),
        (["--k", "0", "--n", "3", "--direction", "retrocausal", "--v0", "0.5"],
         "t,q,qdot,energy\n0,-4,0.5,0.125\n5,-1.5,0.5,0.125\n10,1,0.5,0.125\n"),
    ], ids=["n5", "k0", "k0-retrocausal"])
    def test_stable_coarse_steps_keep_their_output(self, capsys, argv, expected):
        # n = 5 is inside the stability region (h * omega = 2.5); it damps
        # the oscillation, which the exact flow does not, but never grows it
        assert main(["oscillate", *argv]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv, error", [
        (["--q0", "1e300", "--k", "1e20", "--b", "1e-9", "--n", "101"],
         "oscillator.solve_causal: the RK4 march for (c1, c0) = (0.0, 1e+20) leaves "
         "the float range at t = 1e-11 (step 1 of 100)"),
        (["--q0", "1e308", "--v0", "1e308", "--b", "1", "--n", "3"],
         "oscillator.OscillatorTrajectory.energy: energy overflows at t = 0"),
        (["--q0", "1e308", "--v0", "1e308", "--b", "1", "--n", "3", "--format", "json"],
         "oscillator.OscillatorTrajectory.energy: energy overflows at t = 0"),
    ], ids=["qdot", "energy-csv", "energy-json"])
    def test_overflow_exits_1_without_file(self, tmp_path, capsys, argv, error):
        # qdot, then the energy, overflowed to inf (JSON: Infinity) with exit 0
        out = tmp_path / "boom"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["oscillate", *argv, "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("argv, energies", [
        (["--k", "0", "--q0", "1e200", "--v0", "1"], ["0.5"] * 3),
        (["--k", "1e-300", "--q0", "1e200", "--v0", "1"], ["5.0000000000000001e+99"] * 3),
        (["--k", "0", "--m", "1e-300", "--v0", "1e160"], ["5e+19"] * 3),
    ], ids=["k0-huge-q", "tiny-k-huge-q", "tiny-m-huge-v"])
    def test_overflowing_square_keeps_a_finite_energy(self, capsys, argv, energies):
        # q^2 or v^2 overflowed (with k = 0, 0 * inf printed a RuntimeWarning)
        # and the run exited 1 with "energy overflows at t = 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["oscillate", *argv, "--b", "1", "--n", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [row.split(",")[3] for row in captured.out.splitlines()[1:]] == energies


@pytest.mark.parametrize("argv, last_row", [
    (["oscillate", "--k", "0", "--q0", "1", "--v0", "1", "--b", "2e6", "--n", "2001"],
     "2000000,2000001,1,0.5"),
    (["dampedwave", "--xi", "0", "--energy", "1e-30", "--psi0", "0", "--dpsi0", "1",
      "--b", "1e7", "--n", "10001"], "10000000,10000000,0,10000000"),
], ids=["oscillate-k0", "dampedwave-psi-is-x"])
def test_linear_growth_marches_to_the_end(capsys, argv, last_row):
    # RK4 is exact for y = y0 + v0 t; the relative amplitude guard stopped
    # these marches once |y| passed 1e6 times the start
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last_row


class TestEigensolveCommand:
    def test_well_spectrum_json(self, tmp_path):
        out = tmp_path / "well.json"
        assert main(["eigensolve", "--potential", "well, 1.0", "--count", "3",
                     "--n", "2000", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["potential"] == {"kind": "well", "L": 1.0}
        assert abs(doc["energies"][0] - 4.9348) <= 5e-3
        assert doc["units"]["hbar"] == 1.0

    def test_csv_eigenfunctions(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert main(["eigensolve", "--potential", "well, 1.0", "--count", "2",
                     "--n", "500", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,psi_0,psi_1"
        assert len(lines) == 501

    def test_free_with_domain(self, tmp_path):
        out = tmp_path / "box.json"
        assert main(["eigensolve", "--potential", "free", "--a", "0", "--b", "1",
                     "--count", "1", "--n", "500", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["energies"][0] - math.pi**2 / 2.0) <= 0.01

    @pytest.mark.parametrize("potential, flags, expected, grid", [
        ("free", ["--a", "-3", "--b", "3"], {"kind": "free"}, [-3.0, 3.0]),
        ("harmonic, 2", [], {"kind": "harmonic", "k": 2.0}, [-12.0, 12.0]),
        ("poly, 0, 0, 1", ["--a", "-3", "--b", "3"],
         {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, [-3.0, 3.0]),
        ("well, 2", [], {"kind": "well", "L": 2.0}, [0.0, 2.0]),
    ], ids=["free", "harmonic", "poly", "well"])
    def test_document_names_the_potential(self, capsys, potential, flags, expected, grid):
        assert main(["eigensolve", "--potential", potential, *flags, "--n", "64",
                     "--count", "2", "--mass", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc.pop("energies")) == 2
        assert doc == {"potential": expected,
                       "units": {"hbar": 1.0, "mass": 0.5, "c_light": 1.0},
                       "grid": {"a": grid[0], "b": grid[1], "n": 64}}

    def test_double_well_doublets_are_kept(self, capsys):
        # the tunnelling doublets are equal in float64, and a strictly
        # ascending check on the energies exited 1 here
        assert main(["eigensolve", "--potential", "poly, 0, 0, -20, 0, 1", "--a", "-7",
                     "--b", "7", "--n", "2000", "--count", "4"]) == 0
        energies = json.loads(capsys.readouterr().out)["energies"]
        assert len(energies) == 4 and np.all(np.diff(energies) >= 0)
        assert energies[0] == energies[1] and energies[2] == energies[3]


class TestDampedwaveCommand:
    def test_b_zero_is_computation_failure_naming_op(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["dampedwave", "--B", "0", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "dampedwave.xi_from_params" in err
        assert "B must be positive" in err

    def test_free_solution_csv(self, tmp_path):
        out = tmp_path / "wave.csv"
        assert main(["dampedwave", "--xi", "0", "--energy", "0.5",
                     "--n", "1001", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,Re(psi),Im(psi),abs(psi)"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.max(np.abs(data[:, 1] - np.cos(data[:, 0]))) <= 1e-9

    @pytest.mark.parametrize("xi, regime, roots", [
        ("0", "undamped", [[0.0, 1.0], [-0.0, -1.0]]),
        ("0.3", "underdamped", [[-0.3, 0.9539392014169457], [-0.3, -0.9539392014169457]]),
        ("1", "critical", [[-1.0, 0.0], [-1.0, 0.0]]),
        ("2", "overdamped", [[-0.2679491924311227, 0.0], [-3.732050807568877, 0.0]]),
    ], ids=["undamped", "underdamped", "critical", "overdamped"])
    def test_regime_report_json(self, capsys, xi, regime, roots):
        # the regime as its name and each complex root as [real, imag]
        assert main(["dampedwave", "--xi", xi, "--energy", "0.5", "--n", "501",
                     "--b", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("max_discrepancy") <= 1e-9
        assert doc == {"xi": float(xi), "k": 1.0, "regime": regime, "roots": roots}

    def test_small_overdamped_root_does_not_cancel(self, capsys):
        # -xi + sqrt(xi^2 - k^2) cancelled to 0.0; the root is -k^2 / (2 xi)
        assert main(["dampedwave", "--xi", "1e8", "--energy", "0.5", "--b", "1e-8",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["roots"] == [[-5e-09, 0.0],
                                                                 [-2e8, 0.0]]

    def test_b_flag_feeds_xi(self, tmp_path):
        out = tmp_path / "viaB.json"
        assert main(["dampedwave", "--B", "1", "--energy", "0.5",
                     "--n", "501", "--b", "5", "--format", "json",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["xi"] == 0.5
        # m^2 c / (2 hbar B) reads m, c and hbar from the validated units
        assert main(["dampedwave", "--B", "1", "--m", "2", "--hbar", "0.5",
                     "--c-light", "3", "--energy", "0.5", "--n", "11", "--b", "1e-3",
                     "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["xi"] == 12.0

    def test_well_modes_json(self, tmp_path):
        out = tmp_path / "modes.json"
        assert main(["dampedwave", "--xi", "1", "--well", "1", "--count", "2",
                     "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["energies"][0] == pytest.approx((math.pi**2 + 1) / 2)
        assert max(doc["shooting_residuals"]) <= 1e-8

    @pytest.mark.parametrize("argv, count", [
        (["--xi", "0.5", "--well", "1", "--count", "40"], 40),
        (["--xi", "0", "--well", "5", "--count", "30"], 30),
    ], ids=["xi0.5-L1-40", "xi0-L5-30"])
    def test_high_well_modes_pass_shooting(self, tmp_path, argv, count):
        # both exited 1 when every mode was shot on one 3001-point grid
        out = tmp_path / "modes.json"
        assert main(["dampedwave", *argv, "--format", "json",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["shooting_residuals"]) == count
        assert max(doc["shooting_residuals"]) <= 1e-8

    def test_well_modes_csv(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["dampedwave", "--xi", "0", "--well", "1", "--count", "3",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,energy"
        assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["fracdiff", "--alpha", "0.5", "--fn", "t^2", "--n", "9", "--format", "json"],
    ["oscillate", "--c", "0.2", "--n", "9", "--format", "json"],
    ["eigensolve", "--potential", "harmonic, 1", "--n", "64", "--count", "2"],
    ["dampedwave", "--xi", "0.3", "--n", "9", "--format", "json"],
    ["dampedwave", "--xi", "0.3", "--well", "1", "--count", "3", "--format", "json"],
    ["derive-eom", "--lagrangian", "1*q[1] + 0.5*q[0.5] - V(harmonic, 2)"],
], ids=["fracdiff", "oscillate", "eigensolve", "dampedwave-free", "dampedwave-well",
        "derive-eom"])
def test_json_output_is_the_sorted_two_space_layout(tmp_path, capsys, argv):
    # every JSON document is written as json.dumps(doc, indent=2,
    # sort_keys=True) plus a newline, arrays and records included
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_encode_writes_every_library_value():
    # the one conversion of what json cannot write: records under their
    # json_keys names, a potential's kind, enums, complex, Fraction, arrays
    from fractions import Fraction

    from retromech.cli import _encode, _json_value
    from retromech.core import Regime
    from retromech.enums import Direction
    well = lagrangian.InfiniteWellPotential(2.0)
    (chunk,) = _encode({
        "ode": lagrangian.ClassicalOde(1.0, -0.3, 4.0),
        "term": lagrangian.EomTerm(0.5, Fraction(3, 2)),
        "well": well, "free": lagrangian.FreePotential(), "grid": Grid(0.0, 1.0, 3),
        "regime": Regime.CRITICAL, "direction": Direction.RETROCAUSAL,
        "root": complex(-1.0, 0.5), "roots": (complex(0.0, 1.0), np.complex128(2.0)),
        "order": Fraction(1, 4), "samples": np.array([0.5, 1.0]), "count": np.int64(3),
    })
    assert json.loads(chunk) == {
        "ode": {"mass": 1.0, "damping": -0.3, "stiffness": 4.0},
        "term": {"coeff": 0.5, "order": 1.5},
        "well": {"kind": "well", "L": 2.0}, "free": {"kind": "free"},
        "grid": {"a": 0.0, "b": 1.0, "n": 3},
        "regime": "critical", "direction": "retrocausal",
        "root": [-1.0, 0.5], "roots": [[0.0, 1.0], [2.0, 0.0]],
        "order": 0.25, "samples": [0.5, 1.0], "count": 3,
    }
    assert list(_json_value(well)) == ["kind", "L"]
    # json_keys is no field
    assert lagrangian.EomTerm._fields == ("coeff", "total_order")
    with pytest.raises(TypeError):
        _encode({"handle": object()})


def per_value_csv(header, columns):
    """The row-by-row formatter ``csvtext.chunks`` replaced, kept as its oracle."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _neighbours(values, steps=3):
    out = []
    for value in values:
        below = above = value
        for _ in range(steps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
    return out


# the powers of ten bound the fixed notation (1e-4, 1e17) and the 17-digit
# exponent of every value; their neighbours below are the only doubles that
# could round up to the next power at 17 digits
_POWERS = [float(f"1e{j}") for j in range(-7, 19)]
# exactly halfway between two 17-digit decimals: rounded half-even
_TIES = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375, 409600001 / 2**12,
         131073 / 2**17, 131075 / 2**17, 211 / 2**21]
CSV_EDGE_VALUES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1.0 / 3.0, 3.0, -2.0, 1e16, 2.0**53 + 2.0, 1e-300, 123.456,
    np.nan, np.inf, -np.inf,
    2.2250738585072009e-308, 2.2250738585072014e-308, 0.5, 1.5, 2.0**54 + 4.0,
] + _POWERS + _neighbours(_POWERS) + _TIES + _neighbours(_TIES, 1))
CSV_EDGE_VALUES = np.concatenate((CSV_EDGE_VALUES, -CSV_EDGE_VALUES))


def test_ties_are_halfway():
    for tie in _TIES:
        digits = decimal.Decimal(tie).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


#: Rows per CSV block by table width: 16384 values, in whole rows.
CSV_BLOCK_ROWS = {1: 16384, 2: 8192, 4: 4096, 21: 780}


@pytest.mark.parametrize("width", sorted(CSV_BLOCK_ROWS))
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_csv_matches_per_value_formatting(width, offset):
    # no rows, then row counts on both sides of the width's block
    rows = 0 if offset is None else CSV_BLOCK_ROWS[width] + offset
    rng = np.random.default_rng(rows + width)
    columns = [np.resize(np.roll(CSV_EDGE_VALUES, 3 * j), rows) for j in range(width)]
    columns[-1] = columns[-1] * rng.choice([1.0, 1e-7, 0.725], size=rows)
    header = [f"c{j}" for j in range(width)]
    assert b"".join(csvtext.chunks(header, columns)) == per_value_csv(header, columns).encode()


@pytest.mark.parametrize("width, rows", [*CSV_BLOCK_ROWS.items(), (16385, 1)])
def test_csv_streams_blocks_of_rows(width, rows):
    # a row wider than a block is a block of its own
    columns = [np.arange(2 * rows + 1.0)] + [np.full(2 * rows + 1, 0.25)] * (width - 1)
    chunks = list(csvtext.chunks([f"c{j}" for j in range(width)], columns))
    assert [chunk.count(b"\n") for chunk in chunks] == [1, rows, rows, 1]
    assert all(isinstance(chunk, bytes) for chunk in chunks)


def test_csv_holds_one_block_not_the_table():
    # two columns of 400000 rows make a 6.4 MB table; the blocks are
    # stacked from column slices, so the peak is one block's working set
    rows = 400000
    columns = [np.linspace(0.0, 1.0, rows), np.linspace(-3.0, 7.0, rows) ** 3]
    tracemalloc.start()  # the formatting tables were built at import
    try:
        for _ in csvtext.chunks(["a", "b"], columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows * 8


def _shape(x):
    """Exponent of the leading digit and count of significant digits of
    ``format(x, ".17g")``."""
    text = decimal.Decimal(format(x, ".17g"))
    return text.adjusted(), len(text.normalize().as_tuple().digits)


def _printed_as(exponent, count):
    """A positive double whose ``%.17g`` text has ``count`` significant
    digits, the leading one at ``10**exponent``: the first decimal of that
    shape, from a leading digit that varies with the shape, whose nearest
    double is printed as the decimal itself."""
    for j, tail in itertools.product(range(9), range(min(250, 10 ** (count - 1)))):
        n = ((exponent + count + j) % 9 + 1) * 10 ** (count - 1) + tail
        x = float(f"{n}e{exponent - count + 1}")
        if _shape(x) == (exponent, count):
            return x
    raise AssertionError(f"no double prints {count} digits at 1e{exponent}")


#: One double per fixed-notation layout of %.17g: exponent -4..16, 1..17 digits.
FIXED_LAYOUTS = [(e, count) for e in range(-4, 17) for count in range(1, 18)]
#: Exponent notation from 1e+17 to -1.2345678901234567e-300: with a sign,
#: every %-text length from 5 to 24 bytes.
PERCENT_SHAPES = [(e, count) for e in (17, -300) for count in range(1, 18)]


@pytest.mark.parametrize("width", [1, 3])
def test_csv_matches_per_value_formatting_in_every_layout(width):
    # each layout with both signs after both separators, "\n" in the first
    # column and "," in the others, then zeros and the %-texts of 3..24 bytes
    fixed = [_printed_as(*shape) for shape in FIXED_LAYOUTS]
    assert [_shape(x) for x in fixed] == FIXED_LAYOUTS
    percent = [_printed_as(*shape) for shape in PERCENT_SHAPES] + [np.nan, np.inf]
    assert {len(format(sign * x, ".17g")) for x in percent for sign in (1, -1)} == set(
        range(3, 25))
    values = np.array(fixed + [0.0] + percent)
    values = np.concatenate((values, -values))
    columns = [values, -values, values][:width]
    header = [f"c{j}" for j in range(width)]
    assert b"".join(csvtext.chunks(header, columns)) == per_value_csv(header, columns).encode()


@pytest.mark.parametrize("integer_digits", [0, 1, _BLOCK_VALUES])
def test_second_digit_copy_with_none_one_or_all_values_at_or_above_10(integer_digits):
    # values at |x| >= 10 take the second digit copy, which is written over
    # the whole block once any value needs it; the rest of the block lies
    # below 10 and ignores it
    rng = np.random.default_rng(integer_digits)
    column = rng.uniform(-10.0, 10.0, _BLOCK_VALUES) * rng.choice([1.0, 1e-3], _BLOCK_VALUES)
    where = rng.choice(_BLOCK_VALUES, integer_digits, replace=False)
    column[where] = rng.uniform(1.0, 9.99, integer_digits) * 10.0 ** rng.integers(1, 17, integer_digits)
    column[where[::2]] = np.round(-column[where[::2]], 2)  # negative, trailing zeros
    assert np.count_nonzero(np.abs(column) >= 10) == integer_digits
    chunks = list(csvtext.chunks(["x"], [column]))
    assert len(chunks) == 2  # one block
    assert b"".join(chunks) == per_value_csv(["x"], [column]).encode()


class TestJsonDeterminism:
    def test_repeated_json_runs_are_byte_identical(self, tmp_path):
        args = ["eigensolve", "--potential", "harmonic, 1.0", "--count", "3",
                "--n", "800"]
        out1 = tmp_path / "h1.json"
        out2 = tmp_path / "h2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert read(out1) == read(out2)


@pytest.mark.parametrize("direction", ["causal", "retrocausal"])
@pytest.mark.parametrize("scheme", ["gl", "trapezoid"])
@pytest.mark.parametrize("alpha, smallest", [("0.5", 3), ("1.5", 4)])
def test_fracdiff_across_its_size_range(tmp_path, capsys, alpha, smallest, scheme,
                                        direction):
    argv = ["fracdiff", "--alpha", alpha, "--fn", "sin(t)", "--scheme", scheme,
            "--direction", direction]
    out = tmp_path / "deriv.csv"
    for n in (smallest, 65537):
        assert main([*argv, "--n", str(n), "--output", str(out)]) == 0
        data = np.loadtxt(out.read_text().splitlines()[1:], delimiter=",", ndmin=2)
        assert data.shape == (n, 2) and np.all(np.isfinite(data))
    capsys.readouterr()
    assert main([*argv, "--n", str(smallest - 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: fracops.{direction}_frac_deriv: grid too coarse")


def test_eigensolve_across_its_size_range(capsys):
    def run(*argv):
        code = main(["eigensolve", *argv])
        return code, capsys.readouterr()

    def failure(captured, origin, detail):
        assert captured.out == ""
        assert captured.err.startswith(f"error: {origin}: ") and detail in captured.err

    # n = 16 leaves 14 interior nodes: every eigenpair of the matrix
    code, captured = run("--potential", "well,1", "--n", "16", "--count", "14")
    assert code == 0
    energies = np.array(json.loads(captured.out)["energies"])
    assert energies.shape == (14,) and np.all(np.isfinite(energies))
    assert np.all(np.diff(energies) > 0)
    code, captured = run("--potential", "well,1", "--n", "16", "--count", "15")
    assert code == 1
    failure(captured, "eigensolver.solve_spectrum",
            "count = 15 exceeds matrix dimension 14")
    code, captured = run("--potential", "well,1", "--n", "15")
    assert code == 1
    failure(captured, "eigensolver.build_hamiltonian", "grid too coarse: n = 15 < 16")
    code, captured = run("--potential", "harmonic,1", "--n", "16", "--format", "csv")
    assert code == 0
    data = np.loadtxt(captured.out.splitlines()[1:], delimiter=",")
    assert data.shape == (16, 4) and np.all(np.isfinite(data))
    code, captured = run("--potential", "harmonic,1", "--n", "20000", "--count", "20")
    assert code == 0
    energies = np.array(json.loads(captured.out)["energies"])
    exact = np.arange(20) + 0.5
    assert np.max(np.abs(energies - exact) / exact) <= 1e-3
    # an absolute residual bound of 1e-8 failed these, since ||H|| grows like
    # h^-2; the backward-error bound scales with ||H||
    for argv, count in ((("well,1", "--n", "3000", "--count", "5"), 5),
                        (("well,1", "--n", "8000"), 3),
                        (("harmonic,1", "--n", "200000", "--count", "20"), 20)):
        code, captured = run("--potential", *argv)
        assert code == 0 and captured.err == ""
        energies = np.array(json.loads(captured.out)["energies"])
        assert energies.shape == (count,) and np.all(np.diff(energies) > 0)
    for direction, solver in (("causal", "solve_causal"),
                              ("retrocausal", "solve_retrocausal")):
        assert main(["oscillate", "--n", "2", "--direction", direction]) == 1
        failure(capsys.readouterr(), f"oscillator.{solver}", "stability region")


# each first allocation exceeds the 128 TiB of a 47-bit user address space,
# so it fails at once under any overcommit mode and touches no real memory
_HUGE = "100000000000000000"


@pytest.mark.parametrize("argv, origin", [
    (["oscillate", "--n", _HUGE], "oscillator.solve_causal"),
    (["fracdiff", "--alpha", "0.5", "--fn", "t", "--n", _HUGE], "core.Grid.points"),
    (["eigensolve", "--potential", "well,1", "--n", _HUGE],
     "eigensolver.build_hamiltonian"),
    (["dampedwave", "--xi", "0.3", "--n", _HUGE], "dampedwave.solve_damped_free"),
    (["dampedwave", "--xi", "0", "--well", "1", "--count", _HUGE],
     "dampedwave.damped_well_modes"),
], ids=["oscillate", "fracdiff", "eigensolve", "dampedwave", "well-modes"])
def test_size_memory_cannot_hold_is_one_named_line(capsys, argv, origin):
    # each ended in a multi-line _ArrayMemoryError traceback
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {origin}: Unable to allocate ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["oscillate", "--n", "11"],
    ["eigensolve", "--potential", "well,1", "--n", "20", "--format", "csv"],
    ["dampedwave", "--xi", "0.3", "--n", "11"],
], ids=["oscillate", "eigensolve", "dampedwave"])
def test_grid_points_out_of_memory_in_a_handler_is_named(monkeypatch, capsys, argv):
    points = Grid.points

    @functools.wraps(points)
    def points_or_refuse(self):
        # the handler's own call; the library's calls go through
        if sys._getframe(1).f_globals["__name__"] == "retromech.cli":
            raise MemoryError("Unable to allocate the grid")
        return points(self)

    monkeypatch.setattr(Grid, "points", points_or_refuse)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: core.Grid.points: Unable to allocate the grid\n"


def test_formatting_out_of_memory_is_one_line(tmp_path, monkeypatch, capsys):
    def refuse(block):
        raise MemoryError

    monkeypatch.setattr(csvtext, "_format_rows", refuse)
    out = tmp_path / "q.csv"
    assert main(["oscillate", "--n", "11", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: cannot format output: MemoryError\n"
    assert os.listdir(tmp_path) == []


def test_dampedwave_across_its_size_range(capsys):
    def run(*argv):
        code = main(["dampedwave", *argv])
        return code, capsys.readouterr()

    code, captured = run("--xi", "0.3", "--n", "2")
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: dampedwave.solve_damped_free: ")
    assert "stability region" in captured.err
    for n in (5, 200001):
        code, captured = run("--xi", "0", "--n", str(n))
        assert code == 0
        data = np.loadtxt(captured.out.splitlines()[1:], delimiter=",")
        assert data.shape == (n, 4) and np.all(np.isfinite(data))
    code, captured = run("--xi", "0", "--well", "1", "--count", "20000",
                         "--format", "json")
    assert code == 0
    doc = json.loads(captured.out)
    energies = np.array(doc["energies"])
    assert energies.shape == (20000,) and np.all(np.diff(energies) > 0)
    assert max(doc["shooting_residuals"]) <= 1e-8


def test_derive_eom_across_its_size_range(monkeypatch, capsys):
    def run(text):
        code = main(["derive-eom", "--lagrangian", text])
        return code, capsys.readouterr()

    # 300 distinct orders i/4 at the largest coefficients; the half-integer
    # equation-of-motion orders leave nothing to reduce
    code, captured = run(" + ".join(f"1e308*q[{i / 4}]" for i in range(300)))
    assert code == 0 and captured.err == ""
    body = " + ".join(f"1e+308·D^{i // 2 if i % 2 == 0 else i / 2}[q]"
                      for i in reversed(range(300)))
    assert captured.out == f"{body} = 0 (causal)\n{body} = 0 (retrocausal)\n"
    assert len(captured.out.encode()) == 11587
    code, captured = run("1e308*q[1] + 1e308*q[0.5] + 1e308*q[0]")
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines() == [
        "1e+308·D^2[q] + 1e+308·D^1[q] + 1e+308·D^0[q] = 0 (causal)",
        "1e+308·D^2[q] + 1e+308·D^1[q] + 1e+308·D^0[q] = 0 (retrocausal)",
        "reduced causal:      1e+308·q'' + 1e+308·q' + 1e+308·q = 0",
        "reduced retrocausal: 1e+308·q'' - 1e+308·q' + 1e+308·q = 0",
    ]
    # 2*order overflowed in the JSON document, an OverflowError traceback,
    # and the exact order of 1e3000000 took over a second to build, so each
    # is rejected before its Decimal or Fraction is made
    def unbuilt(*args):
        raise AssertionError(f"exact order built from {args!r}")

    monkeypatch.setattr(lagrangian, "Decimal", unbuilt)
    monkeypatch.setattr(lagrangian, "Fraction", unbuilt)
    for order in ("1e308", "1e400", "1e3000000"):
        code, captured = run(f"1*q[{order}]")
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: lagrangian.parse_lagrangian: offset 4: order "
                                f"{order!r} doubles to a non-finite number\n")
    # a nonzero order whose 2*order underflowed printed D^0.0[q], and the
    # exact order of 1e-3000000 took over a second to build
    for order in ("1e-400", "1e-3000000"):
        code, captured = run(f"1*q[{order}]")
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: lagrangian.parse_lagrangian: offset 4: nonzero "
                                f"order {order!r} doubles to zero\n")
    monkeypatch.undo()
    # an overflowing gradient, and an overflowing reduced stiffness, ended in
    # an OverflowError traceback from the rendering
    for text, error in (
            ("1*q[1] - V(poly, 0, 0, 1e308)", "lagrangian.derive_causal_eom: gradient "
             "of the q^2 term overflows: 2 * 1e+308 is not finite"),
            ("1*q[1] + 1e308*q[0] - V(harmonic, 1e308)",
             "lagrangian.reduce_integer_orders: reduced stiffness coefficient overflows")):
        code, captured = run(text)
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("argv, error", [
    # the per-mode power printed numpy's overflow and invalid-value
    # RuntimeWarnings ahead of the error line; at xi^2 = 1.69e308 the RK4
    # stages overflow, which read as a missed residual of nan
    (["dampedwave", "--xi", "1.3e154", "--well", "1", "--count", "1"],
     "dampedwave.damped_well_modes: shooting mode 1 at xi = 1.3e+154 and length 1.0 "
     "leaves the float range"),
    (["dampedwave", "--xi", "1.3e154", "--well", "2.5e79", "--count", "1"],
     "dampedwave.damped_well_modes: shooting mode 1 at xi = 1.3e+154 and length 2.5e+79 "
     "leaves the float range"),
    # c1**2 and k_wave**2 raised "(34, 'Numerical result out of range')", and
    # xi = 1e308 printed numpy's warnings first
    (["dampedwave", "--xi", "1e155"],
     "dampedwave.DampedWaveParams: xi must be >= 0 with a finite square, got 1e+155"),
    (["dampedwave", "--xi", "1e308"],
     "dampedwave.DampedWaveParams: xi must be >= 0 with a finite square, got 1e+308"),
    (["dampedwave", "--xi", "1", "--hbar", "1e-10", "--energy", "1e300"],
     "dampedwave.DampedWaveParams: wavenumber k = sqrt(2 m E) / hbar must have a "
     "finite square, got 1.414213562373095e+160"),
    # the march left the float range: c1 * c1 overflowed, which the guard
    # read as a growing exact solution
    (["dampedwave", "--xi", "1e154", "--format", "json"],
     "dampedwave.solve_damped_free: RK4 step h = 0.005 (n = 2001) is outside the "
     "stability region for (c1, c0) = (2e+154, 1.0): the step overflows the float "
     "range where the exact one does not grow"),
    # the same misreading let these exit 0, the step growing 291-fold
    (["oscillate", "--c", "2e154", "--b", "1e-153", "--n", "3"],
     "oscillator.solve_causal: RK4 step h = 5e-154 (n = 3) is outside the stability "
     "region for (c1, c0) = (2e+154, 1.0): the step grows the solution by 291 per "
     "step where the exact one does not grow"),
    (["oscillate", "--c", "2e154", "--b", "1e-153", "--n", "3", "--direction",
      "retrocausal"],
     "oscillator.solve_retrocausal: RK4 step h = -5e-154 (n = 3) is outside the "
     "stability region for (c1, c0) = (-2e+154, 1.0): the step grows the solution by "
     "291 per step where the exact one does not grow"),
    (["dampedwave", "--xi", "1e154", "--energy", "1e-300", "--b", "1e-153", "--n", "3"],
     "dampedwave.solve_damped_free: RK4 step h = 5e-154 (n = 3) is outside the "
     "stability region for (c1, c0) = (2e+154, 2.0000000000000004e-300): the step "
     "grows the solution by 291 per step where the exact one does not grow"),
    # the closed form overflowed: numpy's warnings came first, or NaN samples
    # and a NaN discrepancy went out with exit 0
    (["dampedwave", "--xi=0", "--energy=1e+205", "--b=1e+206", "--n=2"],
     "dampedwave.solve_damped_free: RK4 step h = 1e+206 (n = 2) is outside the "
     "stability region for (c1, c0) = (0.0, 2e+205): the step overflows the float "
     "range where the exact one does not grow"),
    (["dampedwave", "--xi", "0", "--energy", "2", "--psi0", "1e308", "--n", "11"],
     "dampedwave.solve_damped_free: closed form for (c1, c0) = (0.0, 4.0) is not finite"),
    (["dampedwave", "--xi", "1", "--energy", "0.5", "--psi0", "1e308", "--dpsi0",
      "1e308", "--n", "11", "--format", "json"],
     "dampedwave.solve_damped_free: closed form for (c1, c0) = (2.0, 1.0) is not finite"),
    # hbar^2 underflowed to 0 against an infinite wavenumber^2, and numpy
    # warned of the invalid product first
    (["dampedwave", "--xi=2.4964447344604243e-148", "--well=5.2760977447347973e-278",
      "--count=1", "--m=5.869552978503408e+296", "--hbar=8.340902549359914e-74"],
     "dampedwave.damped_well_modes: mode energies overflow at length "
     "5.2760977447347973e-278 and count 1"),
    # the guard's bound scale * scale overflowed in numpy and printed a
    # RuntimeWarning ahead of the error line
    (["oscillate", "--m=0.09158861472000893", "--c=2.765006294456904e-61",
      "--k=6.121163878455648e+269", "--b=9.497896769040283e-118", "--n", "3"],
     "oscillator.OscillatorTrajectory.energy: energy overflows at t = 4.74895e-118"),
    # squaring x overflowed in the potential, with numpy's two-line warning
    (["eigensolve", "--potential", "harmonic, 0.09", "--n", "17", "--count", "0",
      "--a=-1.4082101870394402e+292", "--b=-0.617"],
     "eigensolver.build_hamiltonian: potential 'harmonic' is not evaluable on the grid"),
], ids=["failed-shot", "failed-shot-long-well", "xi-square", "xi-max", "wavenumber-square",
        "march", "step-causal", "step-retrocausal", "step-dampedwave",
        "closed-form-warnings", "closed-form-undamped", "closed-form-critical",
        "well-energy-invalid", "guard-bound", "overflowing-potential"])
def test_overflow_prints_only_the_error_line(argv, error):
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "retromech", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: {error}\n"


@pytest.mark.parametrize("argv, error", [
    (["oscillate", "--k", "1e400"], "oscillator.OscillatorParams: stiffness must be "
     "finite, got inf"),
    (["oscillate", "--m", "inf"], "oscillator.OscillatorParams: mass must be finite, "
     "got inf"),
    (["oscillate", "--c", "nan"], "oscillator.OscillatorParams: damping must be "
     "finite, got nan"),
    (["dampedwave", "--xi", "1", "--hbar", "inf"], "core.UnitsConfig: hbar must be "
     "finite, got inf"),
    (["dampedwave", "--B", "nan"], "dampedwave.xi_from_params: B must be finite, "
     "got nan"),
    (["dampedwave", "--xi", "1", "--energy", "inf"], "dampedwave.DampedWaveParams: "
     "energy must be finite, got inf"),
    (["dampedwave", "--xi", "1", "--well", "inf"], "dampedwave.damped_well_modes: "
     "length must be finite, got inf"),
], ids=["k", "m", "c", "hbar", "B", "energy", "length"])
def test_non_finite_value_is_named_not_finite(capsys, argv, error):
    # each read "must be positive" or "must be >= 0", which inf is
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("argv, origin", [
    (["fracdiff", "--alpha", "1.5", "--fn", "t", "--a", "0", "--b", "1e-300",
      "--n", "600"], "fracops.causal_frac_deriv"),
    (["eigensolve", "--potential", "well,1e-320", "--n", "100"],
     "eigensolver.build_hamiltonian"),
    (["dampedwave", "--xi", "1e200", "--n", "11"], "dampedwave.DampedWaveParams"),
], ids=["fracdiff-overflow", "eigensolve-zero-division", "dampedwave-overflow"])
def test_arithmetic_errors_name_the_module(capsys, argv, origin):
    # each ended in a Python traceback before ArithmeticError was mapped
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {origin}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, origin", [
    (["oscillate", "--n", "1"], "core.Grid"),
    (["fracdiff", "--alpha", "3", "--fn", "t"], "fracops.FracOrder"),
    (["fracdiff", "--alpha", "0.5", "--fn", "t", "--n=1" + "0" * 30], "core.Grid.points"),
    (["fracdiff", "--alpha", "2", "--fn", "t", "--b", "1e300", "--n", "600"],
     "fracops.causal_frac_deriv"),
    (["fracdiff", "--alpha", "2", "--fn", "t", "--b", "1e300", "--n", "600",
      "--direction", "retrocausal"], "fracops.retrocausal_frac_deriv"),
    (["derive-eom", "--lagrangian", "1*q[1] +"], "lagrangian.parse_lagrangian"),
    (["derive-eom", "--lagrangian", "1*q[1] - V(well, 1)"],
     "lagrangian.derive_causal_eom"),
    (["derive-eom", "--lagrangian", "1*q[1] + 1.7e308*q[0] - V(poly, 0, 0, 8e307)"],
     "lagrangian.reduce_integer_orders"),
    (["oscillate", "--m", "0"], "oscillator.OscillatorParams"),
    (["oscillate", "--c", "2e154", "--b", "1e-153", "--n", "3"], "oscillator.solve_causal"),
    (["oscillate", "--c", "2e154", "--b", "1e-153", "--n", "3", "--direction",
      "retrocausal"], "oscillator.solve_retrocausal"),
    (["oscillate", "--m=0.09158861472000893", "--c=2.765006294456904e-61",
      "--k=6.121163878455648e+269", "--b=9.497896769040283e-118", "--n", "3"],
     "oscillator.OscillatorTrajectory.energy"),
    (["eigensolve", "--potential", "bogus"], "lagrangian.parse_potential"),
    (["eigensolve", "--potential", "well, 1", "--hbar", "0"], "core.UnitsConfig"),
    (["eigensolve", "--potential", "harmonic, 0"], "eigensolver.default_grid"),
    (["eigensolve", "--potential", "well,1e-320", "--n", "100"],
     "eigensolver.build_hamiltonian"),
    (["eigensolve", "--potential", "well,1e-152", "--n", "100"],
     "eigensolver.solve_spectrum"),
    (["dampedwave", "--xi", "1", "--hbar", "0"], "core.UnitsConfig"),
    (["dampedwave", "--B", "0"], "dampedwave.xi_from_params"),
    (["dampedwave", "--xi", "1", "--well", "inf"], "dampedwave.damped_well_modes"),
    (["dampedwave", "--xi", "1e155"], "dampedwave.DampedWaveParams"),
    (["dampedwave", "--xi", "0", "--energy", "2", "--psi0", "1e308", "--n", "11"],
     "dampedwave.solve_damped_free"),
], ids=["grid", "frac-order", "grid-points", "causal-frac-deriv",
        "retrocausal-frac-deriv", "parse-lagrangian", "derive-causal-eom",
        "reduce-integer-orders", "oscillator-params", "solve-causal",
        "solve-retrocausal", "trajectory-energy", "parse-potential",
        "eigensolve-units", "default-grid", "build-hamiltonian", "solve-spectrum",
        "dampedwave-units", "xi-from-params", "damped-well-modes",
        "damped-wave-params", "solve-damped-free"])
def test_every_reachable_call_names_its_origin(capsys, argv, origin):
    # one failing run per wrapped library call; the retrocausal derivation
    # and its reduction fail only after their causal twins have
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {origin}: ")


def test_a_wrapped_call_is_named_as_the_function_it_wraps(capsys, monkeypatch):
    # a wrapper that sets __wrapped__, as a tracing span does, names the
    # library function and not itself
    from retromech import dampedwave
    inner = dampedwave.damped_well_modes

    def wrapper(*args, **kwargs):
        return inner(*args, **kwargs)

    wrapper.__wrapped__ = inner
    monkeypatch.setattr(dampedwave, "damped_well_modes", wrapper)
    assert main(["dampedwave", "--xi", "1", "--well", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: dampedwave.damped_well_modes: ")


@pytest.mark.parametrize("alpha, scheme, direction", [
    ("1.5", "trapezoid", "causal"),
    ("2", "gl", "causal"),
    ("2", "trapezoid", "retrocausal"),
])
def test_step_square_overflow_names_h_and_alpha(capsys, alpha, scheme, direction):
    # h ** 2 overflows on this step; the message named neither h nor alpha
    assert main(["fracdiff", "--alpha", alpha, "--fn", "t", "--a", "0", "--b", "1e300",
                 "--n", "600", "--scheme", scheme, "--direction", direction]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: fracops.{direction}_frac_deriv: step h = ")
    assert f"squared overflows in the order {float(alpha)} derivative" in err


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    code = "import sys, retromech.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


#: modules a run below loads only where a bare interpreter has them, json
#: aside where a config file is read or JSON is written
_START_UP_MODULES = ("numpy", "dataclasses", "inspect", "json")


def _loaded(env, code=""):
    """The stderr lines of running ``code``, then which of those modules
    it left loaded, as its last line split."""
    code += ("\nimport sys\n"
             f"print(*sorted(set({_START_UP_MODULES}) & set(sys.modules)), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    lines = done.stderr.splitlines()
    return lines[:-1], lines[-1].split()


@pytest.mark.parametrize("argv, exit_code, loads_json", [
    (None, None, False),
    (["derive-eom", "--lagrangian", "1*q[1] + 0.5*q[0.5] - V(harmonic, 2)"], 0, False),
    (["derive-eom", "--lagrangian", "1*q[1] - V(poly, 1, 0, 3)", "--output", "{out}"],
     0, True),
    (["derive-eom", "--lagrangian", "1*q[1] +"], 1, False),
    (["--version"], 0, False),
    (["--help"], 0, False),
    (["oscillate", "--bogus", "1"], 2, False),
    (["--config", "{missing}"], 2, True),
    (["eigensolve", "--potential", "poly, 1, 2"], 2, False),
], ids=["import", "derive-eom", "derive-eom-output", "derive-eom-parse-error",
        "version", "help", "usage-error", "bad-config", "eigensolve-domain"])
def test_commands_without_arrays_leave_numpy_unloaded(tmp_path, argv, exit_code,
                                                      loads_json):
    # none of these computes an array, so none pays numpy's import; none
    # pays dataclasses' and its inspect's either, and json loads only where
    # a config file is read or JSON is written
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, retromech.cli\n"
    if argv is not None:
        argv = [arg.format(out=tmp_path / "eom.json", missing=tmp_path / "none.json")
                for arg in argv]
        code += f"print(retromech.cli.main({argv!r}), file=sys.stderr)\n"
    lines, loaded = _loaded(env, code)
    bare = _loaded(env)[1]
    assert set(loaded) == set(bare) | ({"json"} if loads_json else set())
    if argv is not None:
        assert lines[-1] == str(exit_code)
    if argv and "--output" in argv:
        assert json.loads(read(tmp_path / "eom.json"))["reduced"]["causal"]["mass"] == 1


@pytest.mark.parametrize("argv", [
    ["eigensolve", "--potential", "well, 1"],
    ["verify"],
], ids=["eigensolve", "verify"])
def test_eigensolve_leaves_scipy_linalg_unloaded(argv):
    # the eigensolver loads scipy's compiled LAPACK module on its own
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    code = ("import sys, retromech.cli\n"
            f"code = retromech.cli.main({argv!r})\n"
            "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stderr.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv, loads_codec", [
    (["derive-eom", "--lagrangian", "1*q[1] - V(poly, 1, 0, 3)", "--output", "{out}"],
     False),
    (["verify"], False),
    (["eigensolve", "--potential", "well, 1"], False),
    (["dampedwave", "--xi", "0.3", "--format", "json"], False),
    (["oscillate", "--n", "11"], True),
    (["fracdiff", "--alpha", "0.5", "--fn", "t", "--n", "16"], True),
], ids=["derive-eom", "verify", "eigensolve", "dampedwave-json", "oscillate", "fracdiff"])
def test_only_csv_runs_load_the_csv_codec(tmp_path, argv, loads_codec):
    # every start that loads the codec compiles it and builds its tables
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    argv = [arg.format(out=tmp_path / "eom.json") for arg in argv]
    code = ("import sys, retromech.cli\n"
            f"code = retromech.cli.main({argv!r})\n"
            "print(code, 'retromech.csvtext' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stderr.splitlines()[-1] == f"0 {loads_codec}"


@pytest.mark.parametrize("code", [
    "code = retromech.cli.main(['verify'])\n",
    "from retromech import eigensolver, lagrangian\n"
    "well = lagrangian.InfiniteWellPotential(1.0)\n"
    "ham = eigensolver.build_hamiltonian(well, eigensolver.default_grid(well, 200))\n"
    "sol = eigensolver.solve_spectrum(ham, 2)\n"
    "code = int(not eigensolver.stationarity_check(sol, 0, 1e-2).stationary)\n",
], ids=["verify", "stationarity-check"])
def test_seeded_draws_leave_numpy_random_unloaded(code):
    # the draws come from the standard library's random.Random; numpy.random
    # would add its extension modules, about 6.5 MB of peak RSS
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    code = ("import sys, retromech.cli\n" + code
            + "print(code, 'numpy.random' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stderr.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv, origin, detail", [
    (["--potential", "free", "--a", "0", "--b", "1e-155", "--n", "100"],
     "eigensolver.build_hamiltonian", "kinetic term"),
    (["--potential", "poly, 1.79e308", "--a", "0", "--b", "1e-151", "--n", "100"],
     "eigensolver.build_hamiltonian", "diagonal overflows"),
    (["--potential", "well,1e-152", "--n", "100"],
     "eigensolver.solve_spectrum", "dstebz"),
    # a diagonal of 7.0e153: dstein returns every entry NaN with info = 0,
    # which read "eigenpair 0 residual nan exceeds bound nan"
    (["--potential", "harmonic, 1e300", "--count", "2"], "eigensolver.solve_spectrum",
     "LAPACK dstein inverse iteration returned a non-finite eigenvector 0 at matrix "
     "scale ||H||_G = 1.395e+154\n"),
], ids=["kinetic-inf", "diagonal-overflow", "bisection-failure", "inverse-iteration-nan"])
def test_unsolvable_hamiltonians_exit_1(capsys, argv, origin, detail):
    # nothing checks the LAPACK inputs, so build_hamiltonian rejects what
    # scipy's finiteness check used to, and a LAPACK failure is reported
    assert main(["eigensolve", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {origin}: ") and detail in err


def test_verify_command_passes(capsys):
    # one line per registry entry, in order, then the summary the bench parses
    names = [name for name, _ in verify.CHECKS]
    assert len(set(names)) == len(names)
    assert main(["verify"]) == 0
    n = len(names)
    assert capsys.readouterr().out == "".join(
        f"[ok]   {name}\n" for name in names) + f"{n}/{n} checks passed\n"


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    def broken():
        raise AssertionError("deliberate")

    checks = list(verify.CHECKS)
    name = checks[3][0]
    checks[3] = (name, broken)
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    n = len(checks)
    assert lines[3] == f"[FAIL] {name}: deliberate"
    assert lines[-1] == f"{n - 1}/{n} checks passed"
    assert len(lines) == n + 1
    assert captured.err == "error: verify: 1 check(s) failed\n"


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every retromech line of README's "Command line" section, as written;
    # the config lines read the document the comment shows
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"command": "oscillate", "k": 4.0}))
    examples = [(i, line) for i, line in enumerate(lines) if line.startswith("retromech ")]
    assert len(examples) == 10
    for i, line in examples:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        captured = capsys.readouterr()
        assert captured.err == "", line
        if argv[0] == "derive-eom":
            shown = itertools.takewhile(lambda text: text.startswith("# "), lines[i + 1:])
            assert captured.out.splitlines() == [text[2:] for text in shown]
            assert len(captured.out.splitlines()) == 4
