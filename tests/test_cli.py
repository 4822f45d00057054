import decimal
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from retromech import verify
from retromech.cli import _csv, main, parse_args


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

    def test_free_potential_needs_domain(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["eigensolve", "--potential", "free"])
        assert err.value.code == 2

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

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "oscillate", "k": 4.0}))
        cfg = parse_args(["oscillate", "--config", str(cfg_path), "--k", "9.0"])
        assert cfg.options["k"] == 9.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "oscillate", "bogus": 1}))
        with pytest.raises(SystemExit) as err:
            parse_args(["--config", str(cfg_path)])
        assert err.value.code == 2


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

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "eom.json"
        assert main(["derive-eom", "--lagrangian", "1*q[1] - V(harmonic, 4)",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["causal"]["potential"] == {"kind": "harmonic", "k": 4.0}
        assert doc["reduced"]["retrocausal"]["stiffness"] == 4.0

    def test_dsl_error_is_computation_failure(self, capsys):
        assert main(["derive-eom", "--lagrangian", "1*q[1] + 1*q[1]"]) == 1
        err = capsys.readouterr().err
        assert "lagrangian.parse_lagrangian" in err
        assert "duplicate order" in err


class TestOscillateCommand:
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

    @pytest.mark.parametrize("argv, h, radius", [
        (["--n", "2"], "10", "399.654"),
        (["--n", "3"], "5", "21.4978"),
        (["--n", "4"], "3.33333", "2.89984"),
        (["--n", "3", "--direction", "retrocausal", "--c", "0.5"], "-5", "17.9093"),
    ], ids=["n2", "n3", "n4", "retrocausal-n3"])
    def test_step_outside_stability_region_exits_1(self, capsys, argv, h, radius):
        # h * omega = 10, 5 and 3.3 lie past RK4's limit 2 sqrt(2) on the
        # imaginary axis: the march grew the energy from 0.5 to 79861,
        # 106793 and 297 without reaching the amplitude guard
        assert main(["oscillate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: oscillator.solve_")
        assert f"RK4 step h = {h} (n = {argv[1]}) is outside the stability region" \
            in captured.err
        assert f"the step grows the solution by {radius}" in captured.err
        assert "(c1, c0) = (" in captured.err

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

    def test_regime_report_json(self, tmp_path):
        out = tmp_path / "regime.json"
        assert main(["dampedwave", "--xi", "2", "--energy", "0.5",
                     "--n", "501", "--b", "5", "--format", "json",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["regime"] == "overdamped"
        assert doc["k"] == pytest.approx(1.0)
        roots = [r[0] for r in doc["roots"]]
        assert roots == pytest.approx([-2 + math.sqrt(3), -2 - math.sqrt(3)])
        assert doc["max_discrepancy"] <= 1e-6

    def test_b_flag_feeds_xi(self, tmp_path):
        out = tmp_path / "viaB.json"
        assert main(["dampedwave", "--B", "1", "--energy", "0.5",
                     "--n", "501", "--b", "5", "--format", "json",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["xi"] == 0.5

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


def per_value_csv(header, columns):
    """The row-by-row formatter ``_csv`` replaced, kept as its oracle."""
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


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
def test_csv_matches_per_value_formatting(width, rows):
    # row counts on both sides of the 4096-row formatting block
    rng = np.random.default_rng(rows + width)
    columns = [np.resize(np.roll(CSV_EDGE_VALUES, 3 * j), rows) for j in range(width)]
    columns[-1] = columns[-1] * rng.choice([1.0, 1e-7, 0.725], size=rows)
    header = [f"c{j}" for j in range(width)]
    assert b"".join(_csv(header, columns)) == per_value_csv(header, columns).encode()


def test_csv_streams_blocks_of_rows():
    columns = [np.arange(2 * 4096 + 1.0), np.full(2 * 4096 + 1, 0.25)]
    chunks = list(_csv(["a", "b"], columns))
    assert [chunk.count(b"\n") for chunk in chunks] == [1, 4096, 4096, 1]
    assert all(isinstance(chunk, bytes) for chunk in chunks)


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


@pytest.mark.parametrize("argv, origin", [
    (["fracdiff", "--alpha", "1.5", "--fn", "t", "--a", "0", "--b", "1e-300",
      "--n", "600"], "fracops.causal_frac_deriv"),
    (["eigensolve", "--potential", "well,1e-320", "--n", "100"],
     "eigensolver.build_hamiltonian"),
    (["dampedwave", "--xi", "1e200", "--n", "11"], "dampedwave.solve_damped_free"),
], ids=["fracdiff-overflow", "eigensolve-zero-division", "dampedwave-overflow"])
def test_arithmetic_errors_name_the_module(capsys, argv, origin):
    # each ended in a Python traceback before ArithmeticError was mapped
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {origin}: ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv, exit_code", [
    (None, None),
    (["derive-eom", "--lagrangian", "1*q[1] + 0.5*q[0.5] - V(harmonic, 2)"], 0),
    (["derive-eom", "--lagrangian", "1*q[1] - V(poly, 1, 0, 3)", "--output", "{out}"],
     0),
    (["derive-eom", "--lagrangian", "1*q[1] +"], 1),
    (["--version"], 0),
    (["--help"], 0),
    (["oscillate", "--bogus", "1"], 2),
    (["--config", "{missing}"], 2),
], ids=["import", "derive-eom", "derive-eom-output", "derive-eom-parse-error",
        "version", "help", "usage-error", "bad-config"])
def test_commands_without_arrays_leave_numpy_unloaded(tmp_path, argv, exit_code):
    # none of these computes an array, so none pays numpy's import
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.cli"].__file__)))
    code = "import sys, retromech.cli\n"
    if argv is not None:
        argv = [arg.format(out=tmp_path / "eom.json", missing=tmp_path / "none.json")
                for arg in argv]
        code += f"print(retromech.cli.main({argv!r}), file=sys.stderr)\n"
    code += "print('numpy' in sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    lines = done.stderr.splitlines()
    assert lines[-1] == "False"
    if argv is not None:
        assert lines[-2] == str(exit_code)
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


@pytest.mark.parametrize("argv, origin, detail", [
    (["--potential", "free", "--a", "0", "--b", "1e-155", "--n", "100"],
     "eigensolver.build_hamiltonian", "kinetic term"),
    (["--potential", "poly, 1.79e308", "--a", "0", "--b", "1e-151", "--n", "100"],
     "eigensolver.build_hamiltonian", "diagonal overflows"),
    (["--potential", "well,1e-152", "--n", "100"],
     "eigensolver.solve_spectrum", "dstebz"),
], ids=["kinetic-inf", "diagonal-overflow", "bisection-failure"])
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
