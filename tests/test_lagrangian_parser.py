"""The regular-expression parser against a frozen copy of the character
scanner it replaced, on generated valid and malformed texts; derandomized
by the profile in ``conftest.py``.

Both must give the same spec or potential, or the same ``ParseError``
(text, offset and expected tokens). The two differences are deliberate:
an order whose equation-of-motion order 2*order is not a finite float, and
a nonzero order whose 2*order rounds to 0.0, are now rejected at their
offset, where the scanner built their exact fraction.

The gradient dispatches are frozen too, with the well's message edited to
the one ``Potential.gradient`` raises; a polynomial gradient or a reduced
stiffness that overflows is now rejected where the old code gave inf, and
an equation whose dV/dq is not linear reduces to ``None`` where the old
code raised.
"""

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from retromech.enums import Direction, set_field  # noqa: E402
from retromech.lagrangian import (  # noqa: E402
    _REAL_RE,
    EquationOfMotion,
    EomTerm,
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    LagrangianSpec,
    ParseError,
    PolynomialPotential,
    Potential,
    ProductTerm,
    _join_signed,
    parse_lagrangian,
    parse_potential,
    reduce_integer_orders,
    render_eom,
)

# --------------------------------------------------------------------------
# the scanner-based parser, frozen


class _FrozenScanner:
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


def _frozen_potential_body(s: _FrozenScanner) -> Potential:
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


def frozen_parse_potential(text: str) -> Potential:
    s = _FrozenScanner(text)
    potential = _frozen_potential_body(s)
    if not s.at_end():
        raise ParseError(f"trailing input {s._context()!r}", s.pos)
    return potential


def _frozen_term(s: _FrozenScanner) -> tuple:
    coeff, coeff_pos = s.real()
    s.expect_literal("*")
    s.expect_literal("q[")
    order, order_pos = s.real_fraction()
    if order < 0:
        raise ParseError(f"negative order {order}", order_pos)
    s.expect_literal("]")
    return coeff, order, coeff_pos, order_pos


def _frozen_product_term(coeff: float, order: Fraction) -> ProductTerm:
    """The term the old ``ProductTerm`` built: it took any nonnegative
    order, where the one of today rejects an order whose 2*order is not a
    finite float or is 0.0 for a nonzero order."""
    term = object.__new__(ProductTerm)
    set_field(term, "coeff", coeff)
    set_field(term, "order", order)
    return term


def frozen_parse_lagrangian(text: str) -> LagrangianSpec:
    s = _FrozenScanner(text)
    terms = []
    seen = {}
    coeff, order, _, order_pos = _frozen_term(s)
    seen[order] = order_pos
    if coeff != 0.0:
        terms.append(_frozen_product_term(coeff, order))
    potential: Potential = FreePotential()
    while True:
        if s.at_end():
            break
        if s.try_literal("+"):
            coeff, order, _, order_pos = _frozen_term(s)
            if order in seen:
                raise ParseError(f"duplicate order {order}", order_pos)
            seen[order] = order_pos
            if coeff != 0.0:
                terms.append(_frozen_product_term(coeff, order))
            continue
        if s.try_literal("-"):
            s.expect_literal("V(")
            potential = _frozen_potential_body(s)
            s.expect_literal(")")
            if not s.at_end():
                raise ParseError(f"trailing input {s._context()!r}", s.pos)
            break
        raise ParseError(f"unexpected input {s._context()!r}", s.pos,
                         expected=("'+'", "'- V(...)'", "end of input"))
    return LagrangianSpec(tuple(terms), potential)


# the two isinstance dispatches that Potential.gradient replaced, frozen


def frozen_linear_gradient_coeff(potential: Potential) -> float:
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
    raise ValueError("infinite-well potential has no gradient; it is only valid in "
                     "the eigensolver context")


def frozen_gradient_pieces(potential: Potential) -> list:
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
    raise ValueError("infinite-well potential has no gradient; it is only valid in "
                     "the eigensolver context")


# --------------------------------------------------------------------------
# generated texts

_WS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "　", "\x1c", "\xa0"])
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=3) | st.just("٣")
_MANTISSA = st.one_of(
    _DIGITS,
    st.builds(lambda a: a + ".", _DIGITS),
    st.builds(lambda a, b: a + "." + b, _DIGITS, _DIGITS),
    st.builds(lambda b: "." + b, _DIGITS),
    st.just("."),
)
_EXPONENT = st.sampled_from(
    ["", "", "", "e0", "E1", "e-1", "e+2", "e", "e+", "e307", "e308", "e309", "e400",
     "e-400", "e-320"])
_NUMBER = st.builds(lambda sign, m, e: sign + m + e,
                    st.sampled_from(["", "", "+", "-"]), _MANTISSA, _EXPONENT)
# a small pool, so that orders repeat, in different spellings
_ORDER = st.one_of(st.sampled_from(["0", "-0", "1", "1.0", "0.5", "5e-1", ".5", "2",
                                    "0.25", "1e308", "8e307", "-1e400", "-0.5",
                                    "1e-400"]),
                   _NUMBER)
_GARBAGE = st.sampled_from(["x", "*", "q[", "q", "[", "]", "+", "-", "V(", "V", "(", ")",
                            ",", "free", "harmonic", "poly", "well", "1", ".", "e"])


def _spaced(*pieces):
    return st.tuples(*[st.tuples(_WS, piece) for piece in pieces], _WS).map(
        lambda parts: "".join(w + p for w, p in parts[:-1]) + parts[-1])


_TERM = _spaced(_NUMBER, st.just("*"), st.just("q["), _ORDER, st.just("]"))
_POTENTIAL = st.one_of(
    _spaced(st.just("free")),
    _spaced(st.sampled_from(["harmonic", "well"]), st.just(","), _NUMBER),
    st.builds(lambda head, rest: head + "".join(rest),
              _spaced(st.just("poly"), st.just(","), _NUMBER),
              st.lists(_spaced(st.just(","), _NUMBER), max_size=3)),
)
_LAGRANGIAN = st.builds(
    lambda terms, potential: "+".join(terms) + potential,
    st.lists(_TERM, min_size=1, max_size=4),
    st.one_of(st.just(""), _spaced(st.just("-"), st.just("V("), _POTENTIAL, st.just(")"))),
)


@st.composite
def _mutated(draw, texts):
    """A text, then maybe cut short, or with a token put in or added at the
    end, or with a character taken out."""
    text = draw(texts)
    kind = draw(st.sampled_from(["keep", "keep", "cut", "insert", "append", "delete"]))
    if kind == "append":
        return text + draw(_WS) + draw(_GARBAGE)
    if kind == "keep" or not text:
        return text
    at = draw(st.integers(0, len(text)))
    if kind == "cut":
        return text[:at]
    if kind == "insert":
        return text[:at] + draw(_GARBAGE) + text[at:]
    return text[:at] + text[at + 1:]


def _outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.position, exc.expected)
    return ("ok", result, repr(result))


def _assert_same(new, old):
    assert new == old
    if new[0] == "ok":  # repr tells -0.0 from 0.0
        assert new[2] == old[2]


def _reached(outcome):
    """Which rule decided a parse: 'ok', 'degenerate', or the error's rule."""
    if outcome[0] == "ok":
        spec = outcome[1]
        return "degenerate" if isinstance(spec, LagrangianSpec) and not spec.terms else "ok"
    return next(rule for rule in _RULES if rule in outcome[1])


_RULES = ("doubles to a non-finite number", "doubles to zero", "non-finite number",
          "negative order", "duplicate order", "unexpected input", "trailing input",
          "harmonic constant", "well length")
_TOKEN_SOUP = st.lists(_GARBAGE | _WS).map("".join)

# hypothesis also draws literals from the source of every loaded local
# module, so a change anywhere in the package moves the draws; one example
# per rule keeps every rule reached, whatever is drawn
_LAGRANGIAN_EXAMPLES = ("1*q[1]", "0*q[1]", "1*q[1e308]", "1*q[1e-400]", "1e400*q[1]",
                        "1*q[-1]", "1*q[1] + 1*q[1]", "1*q[1] +", "1*q[1] - V(free) x",
                        "1*q[1] - V(harmonic, -1)", "1*q[1] - V(well, 0)")
_POTENTIAL_EXAMPLES = ("free", "harmonic, 1e400", "harmonic", "free x", "harmonic, -1",
                       "well, 0")


def _with_examples(texts):
    """Decorate a ``text`` test with one ``hypothesis.example`` per text."""
    def decorate(test):
        for text in texts:
            test = hypothesis.example(text=text)(test)
        return test
    return decorate


def test_lagrangian_parser_matches_frozen_scanner():
    reached = set()

    @hypothesis.settings(max_examples=600)
    @hypothesis.given(text=_mutated(_LAGRANGIAN) | _TOKEN_SOUP)
    @_with_examples(_LAGRANGIAN_EXAMPLES)
    def compare(text):
        new = _outcome(parse_lagrangian, text)
        old = _outcome(frozen_parse_lagrangian, text)
        reached.add(_reached(new))
        if new[0] == "error" and new[1].endswith(("doubles to a non-finite number",
                                                  "doubles to zero")):
            # the new rejections: the scanner accepted this order, or stopped
            # on it or later for another reason
            token = _REAL_RE.match(text, new[2])[0]
            doubled = 2.0 * float(token)
            if math.isfinite(doubled):
                assert new[1] == f"offset {new[2]}: nonzero order {token!r} doubles to zero"
                assert doubled == 0.0 and Decimal(token) != 0
            else:
                assert new[1] == (f"offset {new[2]}: order {token!r} doubles to a "
                                  "non-finite number")
            assert old[0] == "ok" or old[2] >= new[2]
            return
        _assert_same(new, old)

    compare()
    # a comparison is only as good as the rules its texts reach
    assert reached == {"ok", "degenerate", *_RULES}


def test_potential_parser_matches_frozen_scanner():
    reached = set()

    @hypothesis.settings(max_examples=400)
    @hypothesis.given(text=_mutated(_POTENTIAL) | _TOKEN_SOUP)
    @_with_examples(_POTENTIAL_EXAMPLES)
    def compare(text):
        new = _outcome(parse_potential, text)
        reached.add(_reached(new))
        _assert_same(new, _outcome(frozen_parse_potential, text))

    compare()
    assert reached == {"ok", "non-finite number", "unexpected input", "trailing input",
                       "harmonic constant", "well length"}


# --------------------------------------------------------------------------
# Potential.gradient against the dispatches it replaced

_POTENTIALS = st.one_of(
    st.just(FreePotential()),
    st.builds(HarmonicPotential,
              st.sampled_from([0.0, -0.0, 2.5]) | st.floats(0.0, 1e308)),
    st.builds(PolynomialPotential,
              st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e308])
                       | st.floats(-1e308, 1e308),
                       min_size=1, max_size=4).map(tuple)),
    st.builds(InfiniteWellPotential, st.floats(1e-300, 1e300)),
)


def _result(fn, *args):
    try:
        return ("ok", repr(fn(*args)))
    except (ValueError, ArithmeticError) as exc:  # an overflowed gradient raises
        return (type(exc).__name__, str(exc))


def test_gradient_renders_and_reduces_as_before():
    reached = set()

    # hypothesis also draws literals from the source of every loaded local
    # module, so which modules a run has imported moves the draws; these
    # examples reach both overflow branches and a nonlinear gradient
    # whatever is drawn
    @hypothesis.settings(max_examples=400)
    @hypothesis.given(potential=_POTENTIALS,
                      stiffness=st.sampled_from([None, 4.0, -1.5, 1e308]),
                      direction=st.sampled_from(list(Direction)))
    @hypothesis.example(potential=PolynomialPotential((0.0, 0.0, 1e308)), stiffness=None,
                        direction=Direction.CAUSAL)
    @hypothesis.example(potential=HarmonicPotential(1e308), stiffness=1e308,
                        direction=Direction.RETROCAUSAL)
    @hypothesis.example(potential=PolynomialPotential((0.0, 0.0, 0.0, 1.0)), stiffness=4.0,
                        direction=Direction.CAUSAL)
    def compare(potential, stiffness, direction):
        terms = (EomTerm(1.0, Fraction(2)),)
        if stiffness is not None:
            terms += (EomTerm(stiffness, Fraction(0)),)
        eom = EquationOfMotion(terms, potential, direction)

        def frozen_render():
            pieces = [(1.0, "D^2[q]")] + [(t.coeff, "D^0[q]") for t in terms[1:]]
            pieces += frozen_gradient_pieces(potential)
            return _join_signed(pieces) + f" = 0 ({direction.value})"

        def frozen_stiffness():
            return (stiffness or 0.0) + frozen_linear_gradient_coeff(potential)

        def reduced_stiffness():
            ode = reduce_integer_orders(eom)
            return None if ode is None else ode.stiffness_coeff

        rendered = _result(render_eom, eom)
        new = _result(reduced_stiffness)
        old = _result(frozen_stiffness)
        if rendered[0] == "ValueError" and " term overflows: " in rendered[1]:
            # the new rejection of a gradient coefficient power * c that
            # overflows: rendering it raised OverflowError, and reducing it
            # gave inf or stopped at a nonlinear power
            reached.add("gradient overflows")
            assert _result(frozen_render)[0] == "OverflowError"
            assert new == rendered
            assert old == ("ok", "inf") or "not linear" in old[1]
            return
        assert rendered == _result(frozen_render)
        if new == ("ValueError", "reduced stiffness coefficient overflows"):
            reached.add("stiffness overflows")
            assert old == ("ok", "inf")  # the new rejection of an overflowed sum
            return
        if new == ("ok", "None"):
            # no classical form, where the old code raised
            reached.add("not linear")
            assert old[0] == "ValueError" and "not linear" in old[1]
            return
        assert new == old

    compare()
    assert reached == {"gradient overflows", "stiffness overflows", "not linear"}
