"""The frozen records of the modules that load no numpy: the nine in
``lagrangian`` and ``cli.RunConfig``. Each prints, compares, hashes and
refuses assignment as a frozen dataclass does."""

import dataclasses
import importlib
from fractions import Fraction

import pytest

from retromech.cli import RunConfig, parse_args
from retromech.enums import Direction, Record
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


@pytest.mark.parametrize("make", [
    lambda: HarmonicPotential(k=-1.0),
    lambda: InfiniteWellPotential(length=0.0),
    lambda: PolynomialPotential(coeffs=()),
    lambda: ProductTerm(coeff=0.0, order=1),
    lambda: LagrangianSpec(terms=(ProductTerm(1.0, 1), ProductTerm(2.0, "1.0"))),
], ids=["harmonic", "well", "poly", "term", "spec"])
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
], ids=["missing", "extra", "free-extra", "missing-keyword", "four", "unknown-keyword"])
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_run_config_equality_follows_its_options(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"command": "oscillate", "k": 4.0}')
    assert parse_args(["--config", str(cfg_path)]) == parse_args(["oscillate", "--k", "4"])
    assert parse_args(["--config", str(cfg_path)]) != parse_args(["oscillate", "--k", "5"])
    assert RunConfig("verify", {}) != RunConfig("oscillate", {})


@pytest.mark.parametrize("module, loads_numpy", [
    ("cli", False), ("lagrangian", False), ("core", True), ("fracops", True),
    ("oscillator", True), ("eigensolver", True), ("dampedwave", True),
])
def test_records_are_dataclasses_only_where_numpy_loads(module, loads_numpy):
    # numpy imports inspect, so there a dataclass costs only its class
    # creation; without numpy, dataclasses and inspect were most of the start
    module = importlib.import_module(f"retromech.{module}")
    classes = [value for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__]
    records = {cls for cls in classes if issubclass(cls, Record)}
    frozen = {cls for cls in classes if dataclasses.is_dataclass(cls)}
    if loads_numpy:
        assert frozen and not records
    else:
        assert records and not frozen
