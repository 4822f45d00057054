"""The frozen records of the package, all ``enums.Record``s: the nine in
``lagrangian``, ``cli.RunConfig`` and the numeric records that compare by
value. Each prints, compares, hashes and refuses assignment as a frozen
dataclass does; the records that hold arrays compare by identity."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from retromech import core, dampedwave, eigensolver, fracops, oscillator
from retromech.cli import RunConfig, parse_args
from retromech.core import NATURAL_UNITS, Grid, GridFunction, UnitsConfig
from retromech.dampedwave import DampedWaveParams
from retromech.eigensolver import StationarityReport
from retromech.enums import Direction, Record
from retromech.fracops import FracOrder
from retromech.lagrangian import (
    ClassicalOde,
    EomTerm,
    EquationOfMotion,
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    LagrangianSpec,
    PolynomialPotential,
    ProductTerm,
)
from retromech.oscillator import OscillatorParams

# (record, an equal record built from keywords, its repr)
_CASES = {
    "FreePotential": (FreePotential(), FreePotential(), "FreePotential()"),
    "HarmonicPotential": (HarmonicPotential(2.0), HarmonicPotential(k=2.0),
                          "HarmonicPotential(k=2.0)"),
    "PolynomialPotential": (PolynomialPotential((1, 0, 3)),
                            PolynomialPotential(coeffs=[1.0, 0.0, 3.0]),
                            "PolynomialPotential(coeffs=(1.0, 0.0, 3.0))"),
    "InfiniteWellPotential": (InfiniteWellPotential(1.5),
                              InfiniteWellPotential(length=1.5),
                              "InfiniteWellPotential(length=1.5)"),
    "ProductTerm": (ProductTerm(0.3, "0.5"), ProductTerm(coeff=0.3, order=Fraction(1, 2)),
                    "ProductTerm(coeff=0.3, order=Fraction(1, 2))"),
    "LagrangianSpec": (LagrangianSpec((ProductTerm(1.0, 1),)),
                       LagrangianSpec(terms=[ProductTerm(1.0, 1)], potential=FreePotential()),
                       "LagrangianSpec(terms=(ProductTerm(coeff=1.0, order=Fraction(1, 1)),), "
                       "potential=FreePotential())"),
    "EomTerm": (EomTerm(2.0, Fraction(1)), EomTerm(coeff=2.0, total_order=Fraction(1)),
                "EomTerm(coeff=2.0, total_order=Fraction(1, 1))"),
    "EquationOfMotion": (
        EquationOfMotion((EomTerm(1.0, Fraction(2)),), HarmonicPotential(4.0),
                         Direction.RETROCAUSAL),
        EquationOfMotion(terms=[EomTerm(1.0, Fraction(2))], potential=HarmonicPotential(4.0),
                         direction=Direction.RETROCAUSAL),
        "EquationOfMotion(terms=(EomTerm(coeff=1.0, total_order=Fraction(2, 1)),), "
        "potential=HarmonicPotential(k=4.0), direction=<Direction.RETROCAUSAL: "
        "'retrocausal'>)"),
    "ClassicalOde": (ClassicalOde(1.0, -0.5, 4.0),
                     ClassicalOde(mass_coeff=1.0, damping_coeff=-0.5, stiffness_coeff=4.0),
                     "ClassicalOde(mass_coeff=1.0, damping_coeff=-0.5, stiffness_coeff=4.0)"),
    "RunConfig": (RunConfig("verify", {}), RunConfig(command="verify", options={}),
                  "RunConfig(command='verify', options={})"),
    "Grid": (Grid(0.0, 1.0, 5), Grid(b=1.0, a=0.0, n=5), "Grid(a=0.0, b=1.0, n=5)"),
    "UnitsConfig": (UnitsConfig(2.0), UnitsConfig(hbar=2.0, mass=1.0, c_light=1.0),
                    "UnitsConfig(hbar=2.0, mass=1.0, c_light=1.0)"),
    "FracOrder": (FracOrder(1.0), FracOrder(alpha=1), "FracOrder(alpha=1.0)"),
    "OscillatorParams": (OscillatorParams(1.0, 0.5, 4.0, 1.0, 0.0),
                         OscillatorParams(m=1.0, C=0.5, k=4.0, q0=1.0, v0=0.0),
                         "OscillatorParams(m=1.0, C=0.5, k=4.0, q0=1.0, v0=0.0)"),
    "DampedWaveParams": (DampedWaveParams(0.3, 2.0),
                         DampedWaveParams(xi=0.3, energy=2.0, units=UnitsConfig()),
                         "DampedWaveParams(xi=0.3, energy=2.0, "
                         "units=UnitsConfig(hbar=1.0, mass=1.0, c_light=1.0))"),
    "StationarityReport": (
        StationarityReport(1, 2.0, 1e-3, (2.0, 2.1), 2.0, True),
        StationarityReport(index=1, energy=2.0, epsilon=1e-3, exponents=(2.0, 2.1),
                           min_exponent=2.0, stationary=True),
        "StationarityReport(index=1, energy=2.0, epsilon=0.001, exponents=(2.0, 2.1), "
        "min_exponent=2.0, stationary=True)"),
}

# the fields of each record, and a record that differs from the first in
# the last of them
_FIELDS = {
    "FreePotential": ((), None),
    "HarmonicPotential": (("k",), HarmonicPotential(3.0)),
    "PolynomialPotential": (("coeffs",), PolynomialPotential((1, 0, 2))),
    "InfiniteWellPotential": (("length",), InfiniteWellPotential(2.5)),
    "ProductTerm": (("coeff", "order"), ProductTerm(0.3, "0.25")),
    "LagrangianSpec": (("terms", "potential"),
                       LagrangianSpec((ProductTerm(1.0, 1),), HarmonicPotential(1.0))),
    "EomTerm": (("coeff", "total_order"), EomTerm(2.0, Fraction(1, 2))),
    "EquationOfMotion": (("terms", "potential", "direction"),
                         EquationOfMotion((EomTerm(1.0, Fraction(2)),),
                                          HarmonicPotential(4.0), Direction.CAUSAL)),
    "ClassicalOde": (("mass_coeff", "damping_coeff", "stiffness_coeff"),
                     ClassicalOde(1.0, -0.5, 5.0)),
    "RunConfig": (("command", "options"), RunConfig("verify", {"output": None})),
    "Grid": (("a", "b", "n"), Grid(0.0, 1.0, 6)),
    "UnitsConfig": (("hbar", "mass", "c_light"), UnitsConfig(2.0, 1.0, 3.0)),
    "FracOrder": (("alpha",), FracOrder(1.5)),
    "OscillatorParams": (("m", "C", "k", "q0", "v0"),
                         OscillatorParams(1.0, 0.5, 4.0, 1.0, 0.25)),
    "DampedWaveParams": (("xi", "energy", "units"),
                         DampedWaveParams(0.3, 2.0, UnitsConfig(mass=2.0))),
    "StationarityReport": (("index", "energy", "epsilon", "exponents", "min_exponent",
                            "stationary"),
                           StationarityReport(1, 2.0, 1e-3, (2.0, 2.1), 2.0, False)),
}

_NAMES = sorted(_CASES)


@pytest.mark.parametrize("name", _NAMES)
def test_repr_names_every_field(name):
    record, copy, text = _CASES[name]
    assert repr(record) == text
    assert repr(copy) == text


@pytest.mark.parametrize("name", _NAMES)
def test_equal_fields_compare_and_hash_equal(name):
    record, copy, _ = _CASES[name]
    assert record is not copy
    assert record == copy
    assert not record != copy
    if name == "RunConfig":  # its options are a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy)
        assert len({record, copy}) == 1


@pytest.mark.parametrize("name", [name for name in _NAMES if _FIELDS[name][1] is not None])
def test_a_different_field_compares_unequal(name):
    record, _, _ = _CASES[name]
    other = _FIELDS[name][1]
    assert record != other
    assert not record == other


def test_records_of_different_classes_differ():
    assert HarmonicPotential(2.0) != InfiniteWellPotential(2.0)
    assert not HarmonicPotential(2.0) == InfiniteWellPotential(2.0)
    assert FreePotential() != PolynomialPotential((0.0,))
    assert EomTerm(2.0, Fraction(1)) != (2.0, Fraction(1))
    assert HarmonicPotential(2.0).__eq__(InfiniteWellPotential(2.0)) is NotImplemented
    assert EomTerm(2.0, Fraction(1)).__eq__((2.0, Fraction(1))) is NotImplemented


@pytest.mark.parametrize("name", _NAMES)
def test_assignment_and_deletion_raise(name):
    record, _, text = _CASES[name]
    for field in (*_FIELDS[name][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("name", _NAMES)
def test_fields_read_back_by_name(name):
    record, copy, _ = _CASES[name]
    for field in _FIELDS[name][0]:
        assert getattr(record, field) == getattr(copy, field)


def test_keyword_construction_keeps_defaults_and_coercions():
    spec = LagrangianSpec(terms=[ProductTerm(coeff=1.0, order=1)])
    assert spec.terms == (ProductTerm(1.0, Fraction(1)),)
    assert spec.potential == FreePotential()
    # the default is one instance, made when the class was defined
    assert spec.potential is LagrangianSpec(()).potential
    assert PolynomialPotential(coeffs=[1, 2]).coeffs == (1.0, 2.0)
    assert ProductTerm(coeff=1.0, order=0.3).order == Fraction(3, 10)
    assert EquationOfMotion(terms=[], potential=FreePotential(),
                            direction=Direction.CAUSAL).terms == ()
    assert RunConfig(options={"n": 5}, command="oscillate").options == {"n": 5}
    assert UnitsConfig(mass=2.0) == UnitsConfig(1.0, 2.0, 1.0)
    assert DampedWaveParams(energy=2.0, xi=0.3).units is NATURAL_UNITS
    assert type(FracOrder(alpha=1).alpha) is float


@pytest.mark.parametrize("make", [
    lambda: HarmonicPotential(k=-1.0),
    lambda: InfiniteWellPotential(length=0.0),
    lambda: PolynomialPotential(coeffs=()),
    lambda: ProductTerm(coeff=0.0, order=1),
    lambda: LagrangianSpec(terms=(ProductTerm(1.0, 1), ProductTerm(2.0, "1.0"))),
    lambda: Grid(a=0.0, b=1.0, n=1),
    lambda: UnitsConfig(hbar=0.0),
    lambda: FracOrder(alpha=2.5),
    lambda: OscillatorParams(m=0.0, C=0.5, k=4.0, q0=1.0, v0=0.0),
    lambda: DampedWaveParams(xi=-1.0, energy=2.0),
], ids=["harmonic", "well", "poly", "term", "spec", "grid", "units", "order", "oscillator",
        "damped-wave"])
def test_keyword_construction_validates(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda: HarmonicPotential(),
    lambda: HarmonicPotential(1.0, 2.0),
    lambda: FreePotential(1.0),
    lambda: EomTerm(coeff=1.0),
    lambda: ClassicalOde(1.0, 2.0, 3.0, 4.0),
    lambda: RunConfig(command="verify", options={}, extra=1),
    lambda: Grid(0.0, 1.0),
    lambda: UnitsConfig(1.0, 1.0, 1.0, 1.0),
    lambda: FracOrder(),
    lambda: OscillatorParams(m=1.0, C=0.5, k=4.0, q0=1.0),
    lambda: DampedWaveParams(0.3, 2.0, units=NATURAL_UNITS, k=1.0),
    lambda: StationarityReport(1, 2.0, 1e-3, (2.0,), 2.0, True, index=1),
], ids=["missing", "extra", "free-extra", "missing-keyword", "four", "unknown-keyword",
        "grid-missing", "units-four", "order-missing", "oscillator-missing-keyword",
        "damped-wave-unknown-keyword", "report-twice"])
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_run_config_equality_follows_its_options(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"command": "oscillate", "k": 4.0}')
    assert parse_args(["--config", str(cfg_path)]) == parse_args(["oscillate", "--k", "4"])
    assert parse_args(["--config", str(cfg_path)]) != parse_args(["oscillate", "--k", "5"])
    assert RunConfig("verify", {}) != RunConfig("oscillate", {})


#: the records that hold arrays, which compare and hash by identity
_IDENTITY_RECORDS = (core.GridFunction, fracops.ComposeHalfResult,
                     oscillator.OscillatorTrajectory, eigensolver.DiscreteHamiltonian,
                     eigensolver.EigenSolution, eigensolver.WaveFunctionPair,
                     dampedwave.DampedFreeSolution, dampedwave.DampedWellModes)


def test_records_that_hold_arrays_compare_by_identity():
    grid = Grid(0.0, 1.0, 3)
    f = GridFunction(grid, np.arange(3.0))
    g = GridFunction(grid=grid, samples=np.arange(3.0))
    assert f == f and f != g and not f == g
    assert len({f, g, f}) == 2
    assert repr(f) == ("GridFunction(grid=Grid(a=0.0, b=1.0, n=3), "
                       "samples=array([0., 1., 2.]))")
    with pytest.raises(AttributeError):
        f.samples = g.samples
    for cls in _IDENTITY_RECORDS:
        assert issubclass(cls, Record)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


_GRID8 = Grid(0.0, 1.0, 8)

#: each record that holds arrays, built around one float64 array of 8
#: samples, with the names of its fields that hold one
_ARRAY_RECORDS = {
    "GridFunction": (lambda a: GridFunction(_GRID8, a), ("samples",)),
    "EigenSolution": (lambda a: eigensolver.EigenSolution(
        a, (), InfiniteWellPotential(1.0), NATURAL_UNITS, _GRID8), ("energies",)),
    "DiscreteHamiltonian": (lambda a: eigensolver.DiscreteHamiltonian(
        a, a, _GRID8, FreePotential(), NATURAL_UNITS), ("diag", "offdiag")),
    "DampedWellModes": (lambda a: dampedwave.DampedWellModes(
        0.5, 1.0, NATURAL_UNITS, a, a), ("energies", "shooting_residuals")),
}


@pytest.mark.parametrize("name", _ARRAY_RECORDS)
def test_records_hold_read_only_arrays_and_copy_only_writeable_ones(name):
    make, fields = _ARRAY_RECORDS[name]
    writeable = np.arange(8.0)
    record = make(writeable)
    for field in fields:
        held = getattr(record, field)
        assert held is not writeable and not held.flags.writeable
        assert np.array_equal(held, np.arange(8.0))
    assert writeable.flags.writeable
    writeable[0] = 5.0
    assert getattr(record, fields[0])[0] == 0.0
    frozen = np.arange(8.0)
    frozen.setflags(write=False)
    assert all(getattr(make(frozen), field) is frozen for field in fields)


def test_no_module_loads_dataclasses():
    # every record is an enums.Record, so importing every module of the
    # package, those that load numpy too, loads no dataclasses; every class
    # of the package is a record, an enumeration or an exception
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["retromech.enums"].__file__)))
    code = ("import enum, sys\n"
            "import retromech.cli, retromech.csvtext, retromech.verify\n"
            "from retromech.enums import Record\n"
            "plain = [f'{name}.{cls.__name__}' for name, module in list(sys.modules.items())\n"
            "         if name.startswith('retromech') for cls in vars(module).values()\n"
            "         if isinstance(cls, type) and cls.__module__ == name\n"
            "         and not issubclass(cls, (Record, enum.Enum, Exception))]\n"
            "print('dataclasses' in sys.modules, plain)\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False []\n"
