"""Enumerations and the frozen-record base of every record in the
package. This module imports no numpy and no ``dataclasses``, so deriving
equations of motion and parsing the command line load neither, and no
module loads ``dataclasses``; ``core`` and ``fracops`` re-export both
enumerations."""

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


#: How a record's ``__init__`` writes its fields, and its ``__post_init__``
#: the values it coerces, past the ``__setattr__`` that refuses. The value
#: lands in the instance's own storage, which keeps attribute reads as fast
#: as on a plain instance; writing into ``__dict__`` instead builds the
#: dict, and each read then costs about 4x as much.
set_field = object.__setattr__


class Record:
    """Base of a frozen record, declared as ``@dataclass(frozen=True)`` is.

    The fields are the class's own annotated names; a value in the class
    body is a field's default, one instance shared by every record that
    takes it. ``__init__`` takes the fields by position or keyword, writes
    them and runs ``__post_init__`` where the class has one. Records compare
    and hash by the tuple of their field values, never equal a record of
    another class, print every field and refuse assignment and deletion;
    ``class X(Record, eq=False)`` keeps identity equality, for records that
    hold arrays. ``__init__``, ``__eq__`` and ``__hash__`` are compiled per
    class, as a dataclass's are: they read each field by name, so they cost
    what a dataclass's do, where one ``operator.attrgetter`` key took about
    twice as long on CPython 3.11.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations (Python 3.10+), of which only the
        # names are read: under ``from __future__ import annotations`` the
        # values are strings
        cls._fields = fields = tuple(cls.__annotations__)
        defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        params = "".join(f", {name}=defaults[{name!r}]" if name in defaults
                         else f", {name}" for name in fields)
        body = "".join(f"    set_field(self, {name!r}, {name})\n" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        source = f"def __init__(self{params}):\n{body or '    pass'}\n"
        if eq:
            mine = "".join(f"self.{name}," for name in fields)
            theirs = "".join(f"other.{name}," for name in fields)
            source += ("def __eq__(self, other):\n"
                       "    if other.__class__ is self.__class__:\n"
                       f"        return ({mine}) == ({theirs})\n"
                       "    return NotImplemented\n"
                       "def __hash__(self):\n"
                       f"    return hash(({mine}))\n")
        methods = {"set_field": set_field, "defaults": defaults}
        exec(source, methods)
        for name in ("__init__", "__eq__", "__hash__")[:3 if eq else 1]:
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, methods[name])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
