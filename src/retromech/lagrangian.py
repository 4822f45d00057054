"""Lagrangian DSL and the generalized Euler-Lagrange engine.

A lagrangian is a sum of product terms ``coeff*q[order]``, each standing
for the product of the left and right derivatives of that order of the
coordinate, optionally minus a potential:

    lagrangian := term ('+' term)* ('-' 'V(' potential ')')?
    term       := REAL '*' 'q[' REAL ']'
    potential  := 'free' | 'harmonic,' REAL | 'poly,' REAL (',' REAL)*
                | 'well,' REAL

Whitespace is insignificant. The variational rule maps a term of order
beta to a single derivative of total order 2*beta in the equation of
motion, once per direction, and the potential contributes +dV/dq. Orders
are stored as exact fractions so the doubling and the integer checks never
drift.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .enums import Direction

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
    "eom_to_json_dict",
]


# --------------------------------------------------------------------------
# potentials
#
# Parsing and deriving need no arrays, so numpy is imported only inside
# ``evaluate``.


class Potential:
    """Base class for potential descriptors; see the concrete kinds."""

    kind = "abstract"

    def evaluate(self, x):
        """V at the positions ``x`` as a float64 array."""
        raise NotImplementedError

    def render_dsl(self) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FreePotential(Potential):
    kind = "free"

    def evaluate(self, x):
        import numpy as np
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def render_dsl(self):
        return "free"

    def to_json_dict(self):
        return {"kind": "free"}


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """V(q) = k q^2 / 2 with spring constant k (equivalently m omega^2)."""

    k: float
    kind = "harmonic"

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"harmonic potential needs k >= 0, got {self.k}")

    def evaluate(self, x):
        import numpy as np
        return 0.5 * self.k * np.asarray(x, dtype=np.float64) ** 2

    def render_dsl(self):
        return f"harmonic, {_fmt_float(self.k)}"

    def to_json_dict(self):
        return {"kind": "harmonic", "k": self.k}


@dataclass(frozen=True)
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
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, x):
        import numpy as np
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for power, c in enumerate(self.coeffs):
            out += c * x**power
        return out

    def render_dsl(self):
        return "poly, " + ", ".join(_fmt_float(c) for c in self.coeffs)

    def to_json_dict(self):
        return {"kind": "poly", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class InfiniteWellPotential(Potential):
    """Hard walls at 0 and ``length``; zero inside. Only meaningful for the
    eigensolver, where the walls become Dirichlet boundaries."""

    length: float
    kind = "well"

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"well length must be positive, got {self.length}")

    def evaluate(self, x):
        import numpy as np
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def render_dsl(self):
        return f"well, {_fmt_float(self.length)}"

    def to_json_dict(self):
        return {"kind": "well", "L": self.length}


# --------------------------------------------------------------------------
# structured spec


def _coerce_order(order) -> Fraction:
    if isinstance(order, Fraction):
        return order
    if isinstance(order, int):
        return Fraction(order)
    # decimal semantics for float input: 0.3 means 3/10, not the binary float
    return Fraction(Decimal(str(order)))


@dataclass(frozen=True)
class ProductTerm:
    """One lagrangian summand: coefficient times the left*right derivative
    product of the given order."""

    coeff: float
    order: Fraction

    def __post_init__(self):
        if not math.isfinite(self.coeff) or self.coeff == 0:
            raise ValueError(f"coefficient must be finite and nonzero, got {self.coeff}")
        order = _coerce_order(self.order)
        if order < 0:
            raise ValueError(f"negative order {order}")
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class LagrangianSpec:
    terms: tuple
    potential: Potential = FreePotential()

    def __post_init__(self):
        terms = tuple(self.terms)
        orders = [t.order for t in terms]
        if len(set(orders)) != len(orders):
            raise ValueError("duplicate orders in lagrangian")
        object.__setattr__(self, "terms", terms)

    @property
    def is_degenerate(self) -> bool:
        """True when every product term was dropped (zero coefficients)."""
        return not self.terms


@dataclass(frozen=True)
class EomTerm:
    coeff: float
    total_order: Fraction
    direction: Direction


@dataclass(frozen=True)
class EquationOfMotion:
    """Ordered derivative terms plus the potential whose gradient closes
    the equation: sum coeff * D^order q + dV/dq = 0."""

    terms: tuple
    potential: Potential
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def is_degenerate(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class ClassicalOde:
    """m q'' + c q' + k q = 0 with the damping sign carrying the
    causal/retrocausal distinction."""

    mass_coeff: float
    damping_coeff: float
    stiffness_coeff: float


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


_REAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_literal(self, lit: str):
        if not self.try_literal(lit):
            raise ParseError(f"unexpected input {self._context()!r}", self.pos,
                             expected=(repr(lit),))

    def real_token(self) -> tuple:
        self.skip_ws()
        m = _REAL_RE.match(self.text, self.pos)
        if m is None:
            raise ParseError(f"unexpected input {self._context()!r}", self.pos,
                             expected=("REAL",))
        start = self.pos
        self.pos = m.end()
        return m.group(0), start

    def real(self) -> tuple:
        token, start = self.real_token()
        value = float(token)
        if not math.isfinite(value):
            raise ParseError(f"non-finite number {token!r}", start)
        return value, start

    def real_fraction(self) -> tuple:
        token, start = self.real_token()
        try:
            return Fraction(Decimal(token)), start
        except InvalidOperation:  # pragma: no cover - regex precludes this
            raise ParseError(f"malformed number {token!r}", start) from None

    def _context(self) -> str:
        return self.text[self.pos:self.pos + 12]


def _parse_potential_body(s: _Scanner) -> Potential:
    if s.try_literal("free"):
        return FreePotential()
    if s.try_literal("harmonic"):
        s.expect_literal(",")
        k, pos = s.real()
        if k < 0:
            raise ParseError(f"harmonic constant must be >= 0, got {k}", pos)
        return HarmonicPotential(k)
    if s.try_literal("poly"):
        coeffs = []
        s.expect_literal(",")
        value, _ = s.real()
        coeffs.append(value)
        while s.try_literal(","):
            value, _ = s.real()
            coeffs.append(value)
        return PolynomialPotential(tuple(coeffs))
    if s.try_literal("well"):
        s.expect_literal(",")
        length, pos = s.real()
        if length <= 0:
            raise ParseError(f"well length must be > 0, got {length}", pos)
        return InfiniteWellPotential(length)
    raise ParseError(f"unexpected input {s._context()!r}", s.pos,
                     expected=("'free'", "'harmonic'", "'poly'", "'well'"))


def parse_potential(text: str) -> Potential:
    """Parse a standalone potential descriptor such as ``harmonic, 4.0``."""
    s = _Scanner(text)
    potential = _parse_potential_body(s)
    if not s.at_end():
        raise ParseError(f"trailing input {s._context()!r}", s.pos)
    return potential


def _parse_term(s: _Scanner) -> tuple:
    coeff, coeff_pos = s.real()
    s.expect_literal("*")
    s.expect_literal("q[")
    order, order_pos = s.real_fraction()
    if order < 0:
        raise ParseError(f"negative order {order}", order_pos)
    s.expect_literal("]")
    return coeff, order, coeff_pos, order_pos


def parse_lagrangian(text: str) -> LagrangianSpec:
    """Parse DSL text into a structured spec.

    Zero-coefficient terms are dropped; duplicate orders are rejected with
    the offset of the repeated order. A spec whose terms all dropped is
    still returned, flagged degenerate.
    """
    s = _Scanner(text)
    terms = []
    seen = {}
    coeff, order, _, order_pos = _parse_term(s)
    seen[order] = order_pos
    if coeff != 0.0:
        terms.append(ProductTerm(coeff, order))
    potential: Potential = FreePotential()
    while True:
        if s.at_end():
            break
        if s.try_literal("+"):
            coeff, order, _, order_pos = _parse_term(s)
            if order in seen:
                raise ParseError(f"duplicate order {order}", order_pos)
            seen[order] = order_pos
            if coeff != 0.0:
                terms.append(ProductTerm(coeff, order))
            continue
        if s.try_literal("-"):
            s.expect_literal("V(")
            potential = _parse_potential_body(s)
            s.expect_literal(")")
            if not s.at_end():
                raise ParseError(f"trailing input {s._context()!r}", s.pos)
            break
        raise ParseError(f"unexpected input {s._context()!r}", s.pos,
                         expected=("'+'", "'- V(...)'", "end of input"))
    return LagrangianSpec(tuple(terms), potential)


# --------------------------------------------------------------------------
# derivation


def _check_derivable_potential(potential: Potential):
    if isinstance(potential, InfiniteWellPotential):
        raise ValueError(
            "infinite-well potential has no gradient; it is only valid in the "
            "eigensolver context"
        )


def _derive(spec: LagrangianSpec, direction: Direction) -> EquationOfMotion:
    _check_derivable_potential(spec.potential)
    ordered = sorted(spec.terms, key=lambda t: t.order, reverse=True)
    terms = tuple(EomTerm(t.coeff, 2 * t.order, direction) for t in ordered)
    return EquationOfMotion(terms=terms, potential=spec.potential, direction=direction)


def derive_causal_eom(spec: LagrangianSpec) -> EquationOfMotion:
    """Each term (C, beta) becomes the causal derivative term (C, 2*beta);
    the potential contributes +dV/dq."""
    return _derive(spec, Direction.CAUSAL)


def derive_retrocausal_eom(spec: LagrangianSpec) -> EquationOfMotion:
    """Mirror of :func:`derive_causal_eom` with retrocausal derivatives."""
    return _derive(spec, Direction.RETROCAUSAL)


def _linear_gradient_coeff(potential: Potential) -> float:
    """Coefficient g such that dV/dq = g q, for potentials whose gradient is
    purely linear; anything else cannot reduce to the classical form."""
    if isinstance(potential, FreePotential):
        return 0.0
    if isinstance(potential, HarmonicPotential):
        return potential.k
    if isinstance(potential, PolynomialPotential):
        gradient = [(p * c, p - 1) for p, c in enumerate(potential.coeffs) if p >= 1]
        coeff = 0.0
        for g, power in gradient:
            if g == 0.0:
                continue
            if power != 1:
                raise ValueError(
                    "potential gradient is not linear in q; cannot reduce to the "
                    "classical oscillator form"
                )
            coeff += g
        return coeff
    raise ValueError(f"potential {potential.kind!r} has no classical gradient")


def reduce_integer_orders(eom: EquationOfMotion) -> ClassicalOde:
    """Collapse an all-integer-order equation to m q'' + c q' + k q = 0.

    Causal derivatives map to plain ones; a retrocausal derivative of
    order n carries the parity (-1)^n, which is what flips the damping
    sign between the two directions. Exact arithmetic: signs and sums
    involve no tolerance.
    """
    slots = {0: 0.0, 1: 0.0, 2: 0.0}
    for term in eom.terms:
        if term.total_order.denominator != 1:
            raise ValueError(f"non-integer residual order {term.total_order}")
        nth = int(term.total_order)
        if nth not in slots:
            raise ValueError(f"order {nth} exceeds the classical form (max 2)")
        sign = -1.0 if (eom.direction is Direction.RETROCAUSAL and nth % 2 == 1) else 1.0
        slots[nth] += sign * term.coeff
    slots[0] += _linear_gradient_coeff(eom.potential)
    return ClassicalOde(mass_coeff=slots[2], damping_coeff=slots[1],
                        stiffness_coeff=slots[0])


# --------------------------------------------------------------------------
# rendering and export


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_order(order: Fraction) -> str:
    if order.denominator == 1:
        return str(order.numerator)
    return repr(float(order))


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


def _gradient_pieces(potential: Potential) -> list:
    if isinstance(potential, FreePotential):
        return []
    if isinstance(potential, HarmonicPotential):
        return [(potential.k, "q")] if potential.k != 0 else []
    if isinstance(potential, PolynomialPotential):
        pieces = []
        for power, c in enumerate(potential.coeffs):
            if power == 0 or c == 0:
                continue
            body = "" if power == 1 else ("q" if power == 2 else f"q^{power - 1}")
            pieces.append((power * c, body))
        return pieces
    raise ValueError(f"potential {potential.kind!r} has no classical gradient")


def render_eom(obj) -> str:
    """Deterministic human-readable form of an equation of motion or of a
    reduced classical ODE."""
    if isinstance(obj, ClassicalOde):
        pieces = [(obj.mass_coeff, "q''"), (obj.damping_coeff, "q'"),
                  (obj.stiffness_coeff, "q")]
        pieces = [(c, b) for c, b in pieces if c != 0]
        if not pieces:
            return "0 = 0"
        return _join_signed(pieces) + " = 0"
    if isinstance(obj, EquationOfMotion):
        pieces = [(t.coeff, f"D^{_fmt_order(t.total_order)}[q]") for t in obj.terms]
        pieces += _gradient_pieces(obj.potential)
        if not pieces:
            return "0 = 0"
        return _join_signed(pieces) + f" = 0 ({obj.direction.value})"
    raise TypeError(f"cannot render {type(obj).__name__}")


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


def eom_to_json_dict(eom: EquationOfMotion) -> dict:
    return {
        "direction": eom.direction.value,
        "terms": [{"coeff": t.coeff, "order": float(t.total_order)} for t in eom.terms],
        "potential": eom.potential.to_json_dict(),
    }
