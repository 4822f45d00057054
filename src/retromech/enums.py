"""Enumerations and the frozen-record base shared by the operators, the
lagrangian engine and the CLI. This module imports no numpy and no
``dataclasses``, so deriving equations of motion and parsing the command
line load neither; ``core`` and ``fracops`` re-export both enumerations.
The records of the modules that load numpy stay dataclasses: numpy
imports ``inspect``, which is most of what ``dataclasses`` costs."""

from __future__ import annotations

import enum

__all__ = ["Direction", "Record", "Scheme", "set_field"]


class Direction(enum.Enum):
    """Orientation of a one-sided operator: sweeping forward from the left
    endpoint (causal) or backward from the right endpoint (retrocausal)."""

    CAUSAL = "causal"
    RETROCAUSAL = "retrocausal"


class Scheme(enum.Enum):
    """Discretization of a non-integer fractional derivative."""

    GRUNWALD_LETNIKOV = "grunwald-letnikov"
    PRODUCT_TRAPEZOID = "product-trapezoid"


#: How a record's ``__init__`` writes a field, past the ``__setattr__`` that
#: refuses. The value lands in the instance's own storage, which keeps
#: attribute reads as fast as on a plain instance; writing into ``__dict__``
#: instead builds the dict, and each read then costs about 4x as much.
set_field = object.__setattr__


class Record:
    """Base of a frozen record, as ``@dataclass(frozen=True)`` would make it.

    A subclass names its fields in ``_fields``, and its ``__init__`` writes
    them with :data:`set_field`. Records compare and hash by the tuple of
    their field values, and a record never equals one of another class. The
    repr names every field, and assigning or deleting any attribute raises
    ``AttributeError``. ``__eq__`` and ``__hash__`` are compiled per class
    from ``_fields``, as a dataclass's are: they read each field by name, so
    they cost what a dataclass's do, where one ``operator.attrgetter`` key
    took about twice as long on CPython 3.11.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        mine = "".join(f"self.{name}," for name in cls._fields)
        theirs = "".join(f"other.{name}," for name in cls._fields)
        methods = {}
        exec("def __eq__(self, other):\n"
             "    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             "    return NotImplemented\n"
             "def __hash__(self):\n"
             f"    return hash(({mine}))\n", methods)
        cls.__eq__, cls.__hash__ = methods["__eq__"], methods["__hash__"]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
