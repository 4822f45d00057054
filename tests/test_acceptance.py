"""Acceptance suite: every oracle check in the ``retromech verify``
registry, one test per check with the check's name as its id, plus the
CLI contract.

Run ``pytest tests/test_acceptance.py -v`` for one line per check. The
larger-n cases the acceptance criteria pin (the GL power law and the
half-derivative semigroup at n = 4096, 20 damped-wave draws at h = 1e-3)
live in the unit tests of their modules, since ``retromech verify`` stays
at desk scale."""

import json
import os
import subprocess
import sys

import pytest

import retromech
from retromech import fracops, lagrangian, verify
from retromech.cli import main
from retromech.core import GridFunction
from retromech.eigensolver import WaveFunctionPair


@pytest.mark.parametrize("check", [check for _, check in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_oracle(check):
    check()


def test_conjugacy_fails_when_psi_minus_is_psi_plus(monkeypatch):
    monkeypatch.setattr(WaveFunctionPair, "psi_minus", WaveFunctionPair.psi_plus)
    with pytest.raises(AssertionError, match="psi_minus"):
        verify.check_conjugacy_density()


def test_integer_reduction_fails_on_a_flipped_retrocausal_first_order(monkeypatch):
    exact = fracops.retrocausal_frac_deriv

    def flipped(f, order, *args):
        out = exact(f, order, *args)
        return GridFunction(f.grid, -out.samples) if order == 1 else out

    monkeypatch.setattr(fracops, "retrocausal_frac_deriv", flipped)
    with pytest.raises(AssertionError, match="retrocausal order 1"):
        verify.check_integer_reduction()


def test_parse_reference_fails_on_a_wrong_order_conversion(monkeypatch):
    # right at the integer orders 0 and 1, wrong at 1/2; an expected order
    # taken from ProductTerm would have gone wrong with it
    exact = lagrangian._order
    monkeypatch.setattr(lagrangian, "_order", lambda value: exact(value) ** 2)
    with pytest.raises(AssertionError, match=r"\(0\.3, Fraction\(1, 4\)\)"):
        verify.check_parse_reference()


def test_checks_still_fail_under_python_O():
    # -O strips assert statements; a density of 2|psi|^2 must still fail
    src = os.path.dirname(os.path.dirname(os.path.abspath(retromech.__file__)))
    code = """if True:
        from retromech import eigensolver, verify
        from retromech.core import GridFunction
        exact = eigensolver.density
        eigensolver.density = lambda pair, t: GridFunction(
            pair.spatial.grid, 2.0 * exact(pair, t).samples)
        raise SystemExit(verify.run_all())
    """
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    n = len(verify.CHECKS)
    assert "[FAIL] eigensolver.conjugacy-density: " in done.stdout
    assert done.stdout.endswith(f"{n - 1}/{n} checks passed\n")


def test_criterion_10_cli_contract(tmp_path, capsys):
    argv = ["fracdiff", "--alpha", "0.5", "--fn", "t", "--n", "2048"]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        assert main(argv + ["--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    argv = ["eigensolve", "--potential", "well, 1.0", "--count", "2",
            "--n", "600"]
    jsons = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for path in jsons:
        assert main(argv + ["--output", str(path)]) == 0
    assert jsons[0].read_bytes() == jsons[1].read_bytes()
    json.loads(jsons[0].read_text())

    # computation failure: exit 1, no partial file
    missing = tmp_path / "never.json"
    assert main(["dampedwave", "--B", "0", "--output", str(missing)]) == 1
    assert not missing.exists()
    assert "xi_from_params" in capsys.readouterr().err

    # usage error: exit 2
    assert main([]) == 2
    assert main(["oscillate", "--no-such-flag"]) == 2
    capsys.readouterr()
