"""Lagrangian DSL and the generalized Euler-Lagrange engine.

A lagrangian is a sum of product terms ``coeff*q[order]``, each standing
for the product of the left and right derivatives of that order of the
coordinate, optionally minus a potential:

    lagrangian := term ('+' term)* ('-' 'V(' potential ')')?
    term       := REAL '*' 'q[' REAL ']'
    potential  := 'free' | 'harmonic,' REAL | 'poly,' REAL (',' REAL)*
                | 'well,' REAL

Whitespace is insignificant. Each term with the separator after it, and
each potential body, is one match of an anchored regular expression; a
malformed text raises :class:`ParseError` at the offset where the match
stopped. The variational rule maps a term of order beta to a single
derivative of total order 2*beta in the equation of motion, once per
direction, and the potential contributes +dV/dq. Orders are stored as
exact fractions so the doubling and the integer checks never drift, and
an order whose 2*beta is not a finite float, or is a nonzero beta that
rounds to zero, is rejected before its fraction is built.

The records own the rules: :class:`ProductTerm` converts and checks each
order and each potential kind its values. The parser only locates a
failure, re-raising the record's ``ValueError`` at the offset of the text.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

from .enums import Direction, Record, set_field

__all__ = [
    "Potential",
    "FreePotential",
    "HarmonicPotential",
    "PolynomialPotential",
    "InfiniteWellPotential",
    "ProductTerm",
    "LagrangianSpec",
    "EomTerm",
    "EquationOfMotion",
    "ClassicalOde",
    "ParseError",
    "parse_lagrangian",
    "parse_potential",
    "derive_causal_eom",
    "derive_retrocausal_eom",
    "reduce_integer_orders",
    "render_eom",
    "render_lagrangian",
]


# --------------------------------------------------------------------------
# potentials
#
# Parsing and deriving need no arrays, so numpy is imported only inside
# ``evaluate``.


class Potential(Record):
    """Base class for potential descriptors; see the concrete kinds."""

    kind = "abstract"

    def evaluate(self, x):
        """V at the positions ``x`` as a float64 array; zero unless overridden."""
        import numpy as np
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def render_dsl(self) -> str:
        """The DSL body: the kind, then each field's value or values."""
        pieces = [self.kind]
        for name in self._fields:
            value = getattr(self, name)
            pieces += map(_fmt_float, value if isinstance(value, tuple) else (value,))
        return ", ".join(pieces)

    def gradient(self) -> tuple:
        """dV/dq as nonzero (coeff, power) pairs: sum coeff * q**power.
        Raises ``ValueError`` where dV/dq does not exist as finite numbers."""
        raise NotImplementedError


class FreePotential(Potential):
    kind = "free"

    def gradient(self):
        return ()


class HarmonicPotential(Potential):
    """V(q) = k q^2 / 2 with spring constant k (equivalently m omega^2)."""

    k: float
    kind = "harmonic"

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise ValueError(f"harmonic constant must be finite, got {self.k}")
        if self.k < 0:
            raise ValueError(f"harmonic constant must be >= 0, got {self.k}")

    def evaluate(self, x):
        import numpy as np
        return 0.5 * self.k * np.asarray(x, dtype=np.float64) ** 2

    def gradient(self):
        return ((self.k, 1),) if self.k != 0 else ()


class PolynomialPotential(Potential):
    """V(q) = sum_i coeffs[i] q^i."""

    coeffs: tuple
    kind = "poly"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial potential needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        set_field(self, "coeffs", coeffs)

    def evaluate(self, x):
        import numpy as np
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for power, c in enumerate(self.coeffs):
            out += c * x**power
        return out

    def gradient(self):
        pairs = []
        for power, c in enumerate(self.coeffs):
            if power and c != 0:
                if not math.isfinite(power * c):
                    raise ValueError(f"gradient of the q^{power} term overflows: "
                                     f"{power} * {c!r} is not finite")
                pairs.append((power * c, power - 1))
        return tuple(pairs)


class InfiniteWellPotential(Potential):
    """Hard walls at 0 and ``length``; zero inside. Only meaningful for the
    eigensolver, where the walls become Dirichlet boundaries."""

    length: float
    kind = "well"
    json_keys = {"length": "L"}

    def __post_init__(self):
        if not math.isfinite(self.length):
            raise ValueError(f"well length must be finite, got {self.length}")
        if not self.length > 0:
            raise ValueError(f"well length must be > 0, got {self.length}")

    def gradient(self):
        raise ValueError("infinite-well potential has no gradient; it is only valid in "
                         "the eigensolver context")


# --------------------------------------------------------------------------
# structured spec


def _order(value) -> Fraction:
    """The exact order ``value`` spells: a REAL token, str or float by its
    decimal text (0.3 is 3/10, not the binary float), a Fraction, int or
    other number as it is. An order whose exact 2*order rounds to no
    finite float, or to 0.0 for a nonzero order, is rejected; a text is
    judged by its float, so its fraction (a million digits for 1e3000000)
    is built only where it is accepted or within a factor 2 of 2**-1075,
    and a text with no nonzero digit before its exponent is order 0 (an
    exponent past 10**18 is one ``Decimal`` cannot hold)."""
    exact = not isinstance(value, (str, float))
    text = str(value)
    order, zero = None, False
    if exact:
        try:
            order = Fraction(value)
            doubled = float(2 * order)
        except (OverflowError, ValueError):  # beyond the float range, or a NaN
            doubled = math.inf
        zero = order == 0
    else:
        doubled = 2.0 * float(text)
        if doubled == 0.0:  # |order| <= 2**-1075; 2*order rounds to 5e-324
            mantissa, _, exponent = text.lower().partition("e")
            zero = not any(c.isdecimal() and int(c) for c in mantissa)
            # above 2**-1076, which is 1.2e6 shifted 330 decades up (a float
            # exponent, since an int one has a digit limit)
            shift = float(exponent or 0) + 330
            if abs(shift) < 1e15 and abs(float(f"{mantissa}e{shift:.0f}")) > 1e6:
                order = Fraction(*Decimal(text).as_integer_ratio())
                doubled = float(2 * order)
    if not math.isfinite(doubled):
        raise ValueError(f"order {text!r} doubles to a non-finite number")
    if doubled == 0.0 and not zero:
        raise ValueError(f"nonzero order {text!r} doubles to zero")
    if order is None:
        order = Fraction(0) if zero else Fraction(*Decimal(text).as_integer_ratio())
    if order.numerator < 0:
        raise ValueError(f"negative order {order}")
    return order


class ProductTerm(Record):
    """One lagrangian summand: coefficient times the left*right derivative
    product of the given order."""

    coeff: float
    order: Fraction

    def __post_init__(self):
        if not math.isfinite(self.coeff) or self.coeff == 0:
            raise ValueError(f"coefficient must be finite and nonzero, got {self.coeff}")
        set_field(self, "order", _order(self.order))


class LagrangianSpec(Record):
    terms: tuple
    potential: Potential = FreePotential()

    def __post_init__(self):
        terms = tuple(self.terms)
        if len({(t.order.numerator, t.order.denominator) for t in terms}) != len(terms):
            raise ValueError("duplicate orders in lagrangian")
        set_field(self, "terms", terms)
        # the derivative terms (coeff, 2*order) of both equations of motion,
        # highest order first. Built here rather than as a cached_property,
        # whose first access costs more than this; not a field, so equality
        # and repr skip it.
        ordered = sorted(terms, key=lambda t: t.order, reverse=True)
        set_field(self, "_eom_terms", tuple(
            EomTerm(t.coeff, Fraction(2 * t.order.numerator, t.order.denominator))
            for t in ordered))


class EomTerm(Record):
    """coeff * D^total_order q, in the direction of its equation of motion."""

    coeff: float
    total_order: Fraction
    json_keys = {"total_order": "order"}


class EquationOfMotion(Record):
    """Ordered derivative terms plus the potential whose gradient closes
    the equation: sum coeff * D^order q + dV/dq = 0."""

    terms: tuple
    potential: Potential
    direction: Direction

    def __post_init__(self):
        set_field(self, "terms", tuple(self.terms))


class ClassicalOde(Record):
    """m q'' + c q' + k q = 0 with the damping sign carrying the
    causal/retrocausal distinction."""

    mass_coeff: float
    damping_coeff: float
    stiffness_coeff: float
    json_keys = {"mass_coeff": "mass", "damping_coeff": "damping",
                 "stiffness_coeff": "stiffness"}


# --------------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax or semantic error in the DSL, with the offset where parsing
    stopped (character offset; the grammar is ASCII so it equals the byte
    offset)."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"offset {position}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


_REAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(_REAL)


def _prefix(*pieces: str) -> str:
    """A pattern matching the longest run of ``pieces`` that the text starts
    with, whitespace allowed after each. The first piece whose group is None
    is where the text went wrong, and the match ends at its offset. Every
    piece after the first is optional, so the first match found never steps
    back into an earlier piece: each REAL and whitespace run keeps its
    longest match, the one ``_REAL_RE.match`` gives."""
    pattern = ""
    for piece in reversed(pieces):
        pattern = rf"(?:{piece}\s*{pattern})?"
    return pattern


# one product term and the separator after it: '+', '-' or none
_TERM_RE = re.compile(r"\s*" + _prefix(
    rf"(?P<coeff>{_REAL})", r"(?P<star>\*)", r"(?P<open>q\[)",
    rf"(?P<order>{_REAL})", r"(?P<close>\])", r"(?P<sep>[+-])"))
_CALL_RE = re.compile(r"\s*" + _prefix(r"(?P<open>V\()"))
_CLOSE_RE = re.compile(r"\s*" + _prefix(r"(?P<close>\))"))
# only 'poly' takes more than one value, and a comma left dangling after its
# values is matched to name the offset where the next value is missing
_POTENTIAL_RE = re.compile(r"\s*(?:(?P<free>free)\s*|" + _prefix(
    r"(?P<kind>harmonic|well|(?P<poly>poly))", "(?P<comma>,)",
    rf"(?P<values>{_REAL}(?(poly)(?:\s*,\s*{_REAL})*))",
    "(?(poly)(?P<dangle>,))") + ")")


def _unexpected(text: str, pos: int, *expected: str) -> ParseError:
    return ParseError(f"unexpected input {text[pos:pos + 12]!r}", pos, expected)


def _finite(token: str, start: int) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r}", start)
    return value


_KINDS = {kind.kind: kind for kind in Potential.__subclasses__()}


def _potential_at(text: str, pos: int) -> tuple:
    """The potential body at ``pos`` and the offset after it and after the
    whitespace that follows."""
    m = _POTENTIAL_RE.match(text, pos)
    if m["free"]:
        return FreePotential(), m.end()
    if not m["kind"]:
        raise _unexpected(text, m.end(), "'free'", "'harmonic'", "'poly'", "'well'")
    if not m["comma"]:
        raise _unexpected(text, m.end(), "','")
    if not m["values"]:
        raise _unexpected(text, m.end(), "REAL")
    values = [_finite(v[0], v.start()) for v in _REAL_RE.finditer(text, *m.span("values"))]
    if m["dangle"]:
        raise _unexpected(text, m.end(), "REAL")
    kind = _KINDS[m["kind"]]
    try:
        potential = kind(tuple(values)) if m["poly"] else kind(*values)
    except ValueError as exc:
        raise ParseError(str(exc), m.start("values")) from None
    return potential, m.end()


def parse_potential(text: str) -> Potential:
    """Parse a standalone potential descriptor such as ``harmonic, 4.0``."""
    potential, pos = _potential_at(text, 0)
    if pos < len(text):
        raise ParseError(f"trailing input {text[pos:pos + 12]!r}", pos)
    return potential


def parse_lagrangian(text: str) -> LagrangianSpec:
    """Parse DSL text into a structured spec.

    Each term and the separator after it is one match of an anchored
    regular expression. Zero-coefficient terms are dropped; duplicate orders
    are rejected with the offset of the repeated order, and so is any order
    whose equation-of-motion order 2*order is not a finite float or, for a
    nonzero order, is 0.0. A spec whose terms all dropped is still returned,
    with no terms, and derives an equation with none.
    """
    terms = []
    seen = set()
    pos, sep = 0, "+"
    while sep == "+":
        m = _TERM_RE.match(text, pos)
        coeff, star, open_, order, close, sep = m.groups()
        pos = m.end()
        if not coeff:
            raise _unexpected(text, pos, "REAL")
        coeff = _finite(coeff, m.start("coeff"))
        if not star:
            raise _unexpected(text, pos, "'*'")
        if not open_:
            raise _unexpected(text, pos, "'q['")
        if not order:
            raise _unexpected(text, pos, "REAL")
        try:  # the term converts the order; a dropped one is still checked
            if coeff == 0.0:
                order = _order(order)
            else:
                terms.append(ProductTerm(coeff, order))
                order = terms[-1].order
        except ValueError as exc:
            raise ParseError(str(exc), m.start("order")) from None
        if not close:
            raise _unexpected(text, pos, "']'")
        key = (order.numerator, order.denominator)
        if key in seen:
            raise ParseError(f"duplicate order {order}", m.start("order"))
        seen.add(key)
    potential: Potential = FreePotential()
    if sep == "-":
        m = _CALL_RE.match(text, pos)
        if not m["open"]:
            raise _unexpected(text, m.end(), "'V('")
        potential, pos = _potential_at(text, m.end())
        m = _CLOSE_RE.match(text, pos)
        if not m["close"]:
            raise _unexpected(text, pos, "')'")
        if m.end() < len(text):
            raise ParseError(f"trailing input {text[m.end():m.end() + 12]!r}", m.end())
    elif pos < len(text):
        raise _unexpected(text, pos, "'+'", "'- V(...)'", "end of input")
    return LagrangianSpec(tuple(terms), potential)


# --------------------------------------------------------------------------
# derivation


def _derive(spec: LagrangianSpec, direction: Direction) -> EquationOfMotion:
    spec.potential.gradient()  # raises where dV/dq does not exist
    return EquationOfMotion(terms=spec._eom_terms, potential=spec.potential,
                            direction=direction)


def derive_causal_eom(spec: LagrangianSpec) -> EquationOfMotion:
    """Each term (C, beta) becomes the causal derivative term (C, 2*beta);
    the potential contributes +dV/dq."""
    return _derive(spec, Direction.CAUSAL)


def derive_retrocausal_eom(spec: LagrangianSpec) -> EquationOfMotion:
    """Mirror of :func:`derive_causal_eom` with retrocausal derivatives."""
    return _derive(spec, Direction.RETROCAUSAL)


def reduce_integer_orders(eom: EquationOfMotion) -> ClassicalOde | None:
    """Collapse an equation to m q'' + c q' + k q = 0, or ``None`` where it
    has no such form: no derivative terms, an order that is not an
    integer or is above 2, or a dV/dq that is not linear in q.

    Causal derivatives map to plain ones; a retrocausal derivative of
    order n carries the parity (-1)^n, which is what flips the damping
    sign between the two directions. Exact arithmetic: signs and sums
    involve no tolerance. On an equation from :func:`derive_causal_eom` or
    :func:`derive_retrocausal_eom` it raises ``ValueError`` only where a
    reduced coefficient overflows.
    """
    if not eom.terms:
        return None
    slots = {0: 0.0, 1: 0.0, 2: 0.0}
    for term in eom.terms:
        nth = term.total_order.numerator
        if term.total_order.denominator != 1 or nth not in slots:
            return None
        sign = -1.0 if (eom.direction is Direction.RETROCAUSAL and nth % 2 == 1) else 1.0
        slots[nth] += sign * term.coeff
    for coeff, power in eom.potential.gradient():
        if power != 1:
            return None
        slots[0] += coeff
    for name, nth in (("mass", 2), ("damping", 1), ("stiffness", 0)):
        if not math.isfinite(slots[nth]):
            raise ValueError(f"reduced {name} coefficient overflows")
    return ClassicalOde(mass_coeff=slots[2], damping_coeff=slots[1],
                        stiffness_coeff=slots[0])


# --------------------------------------------------------------------------
# rendering


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_order(order: Fraction) -> str:
    """The shortest float text of ``order`` where it reads back as the
    exact order, else the order's exact decimal. An order that is no
    finite decimal (a library caller's Fraction(1, 3)) keeps its float
    text."""
    if order.denominator == 1:
        return str(order.numerator)
    text = repr(float(order))
    if Fraction(Decimal(text)) == order:
        return text
    # 10^places is a multiple of every denominator 2^i 5^j <= 2^places
    places = order.denominator.bit_length()
    digits, rest = divmod(order.numerator * 10**places, order.denominator)
    if rest:
        return text
    whole, fraction = divmod(digits, 10**places)
    return f"{whole}.{fraction:0{places}d}".rstrip("0")


def _join_signed(pieces: list) -> str:
    """Join (coefficient, body) pieces into a signed sum string."""
    out = []
    for coeff, body in pieces:
        mag = _fmt_float(abs(coeff))
        text = f"{mag}·{body}" if body else mag
        if not out:
            out.append(("-" if coeff < 0 else "") + text)
        else:
            out.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(out)


def render_eom(obj) -> str:
    """Deterministic human-readable form of an equation of motion or of a
    reduced classical ODE."""
    if isinstance(obj, ClassicalOde):
        pieces = [(obj.mass_coeff, "q''"), (obj.damping_coeff, "q'"),
                  (obj.stiffness_coeff, "q")]
        pieces, suffix = [(c, b) for c, b in pieces if c != 0], ""
    elif isinstance(obj, EquationOfMotion):
        pieces = [(t.coeff, f"D^{_fmt_order(t.total_order)}[q]") for t in obj.terms]
        pieces += [(coeff, "" if power == 0 else "q" if power == 1 else f"q^{power}")
                   for coeff, power in obj.potential.gradient()]
        suffix = f" ({obj.direction.value})"
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    return _join_signed(pieces) + " = 0" + suffix if pieces else "0 = 0"


def render_lagrangian(spec: LagrangianSpec) -> str:
    """DSL text that reparses to the same structured spec."""
    if spec.terms:
        body = " + ".join(
            f"{_fmt_float(t.coeff)}*q[{_fmt_order(t.order)}]" for t in spec.terms
        )
    else:
        # zero-coefficient stub keeps the text grammatical; it drops on reparse
        body = "0*q[0]"
    if isinstance(spec.potential, FreePotential):
        return body
    return f"{body} - V({spec.potential.render_dsl()})"
