import math
from fractions import Fraction

import numpy as np
import pytest

from retromech.core import Direction, Grid, GridFunction
from retromech.fracops import retrocausal_frac_deriv
from retromech.lagrangian import (
    ClassicalOde,
    EquationOfMotion,
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    LagrangianSpec,
    ParseError,
    PolynomialPotential,
    ProductTerm,
    derive_causal_eom,
    derive_retrocausal_eom,
    parse_lagrangian,
    parse_potential,
    reduce_integer_orders,
    render_eom,
    render_lagrangian,
)

REFERENCE = "1.0*q[1] + 0.3*q[0.5] + 4.0*q[0]"


class TestParser:
    def test_reference_lagrangian(self):
        spec = parse_lagrangian(REFERENCE)
        assert [(t.coeff, t.order) for t in spec.terms] == [
            (1.0, Fraction(1)), (0.3, Fraction(1, 2)), (4.0, Fraction(0))]
        assert isinstance(spec.potential, FreePotential)

    def test_harmonic_potential(self):
        spec = parse_lagrangian("1.0*q[1] - V(harmonic, 4.0)")
        assert [(t.coeff, t.order) for t in spec.terms] == [(1.0, Fraction(1))]
        assert spec.potential == HarmonicPotential(4.0)

    def test_duplicate_order_rejected_with_offset(self):
        text = "1.0*q[1] + 1.0*q[1]"
        with pytest.raises(ParseError) as err:
            parse_lagrangian(text)
        assert "duplicate order" in str(err.value)
        assert err.value.position == text.rindex("1]")

    def test_negative_order_rejected(self):
        with pytest.raises(ParseError, match="negative order"):
            parse_lagrangian("1.0*q[-1]")

    def test_nonzero_order_that_doubles_to_zero_rejected(self):
        # 2*order rounded to 0.0 and the equation read D^0.0[q]
        text = "1*q[1] + 2*q[1e-400]"
        with pytest.raises(ParseError, match="nonzero order '1e-400' doubles to zero") \
                as err:
            parse_lagrangian(text)
        assert err.value.position == text.index("1e-400")
        assert parse_lagrangian("2*q[0.00e-400]").terms == (ProductTerm(2.0, 0),)

    def test_syntax_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse_lagrangian("1.0 q[1]")
        assert err.value.position == 4
        assert "'*'" in err.value.expected

    def test_whitespace_insignificant(self):
        spec = parse_lagrangian("  1.0 * q[ 1 ]   +   0.3*q[ 0.5 ] ")
        assert [(t.coeff, t.order) for t in spec.terms] == [
            (1.0, Fraction(1)), (0.3, Fraction(1, 2))]

    def test_zero_coefficients_dropped(self):
        spec = parse_lagrangian("0.0*q[1] + 2*q[0]")
        assert [(t.coeff, t.order) for t in spec.terms] == [(2.0, Fraction(0))]
        assert parse_lagrangian("0*q[1]").terms == ()

    def test_scientific_notation_order_is_exact(self):
        spec = parse_lagrangian("1*q[5e-1]")
        assert spec.terms[0].order == Fraction(1, 2)

    def test_poly_and_well_potentials(self):
        spec = parse_lagrangian("1*q[1] - V(poly, 0, 0, 0.5)")
        assert spec.potential == PolynomialPotential((0.0, 0.0, 0.5))
        spec = parse_lagrangian("1*q[1] - V(well, 2.5)")
        assert spec.potential == InfiniteWellPotential(2.5)

    def test_bad_potentials_rejected(self):
        with pytest.raises(ParseError):
            parse_lagrangian("1*q[1] - V(harmonic, -1)")
        with pytest.raises(ParseError):
            parse_lagrangian("1*q[1] - V(well, 0)")
        with pytest.raises(ParseError):
            parse_lagrangian("1*q[1] - V(step, 1)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_lagrangian("1*q[1] x")
        with pytest.raises(ParseError):
            parse_lagrangian("1*q[1] - V(free) extra")

    def test_standalone_potential_parser(self):
        assert parse_potential("free") == FreePotential()
        assert parse_potential(" harmonic , 2 ") == HarmonicPotential(2.0)
        assert parse_potential("well, 1") == InfiniteWellPotential(1.0)
        with pytest.raises(ParseError):
            parse_potential("harmonic")


class TestTypes:
    def test_product_term_validation(self):
        with pytest.raises(ValueError):
            ProductTerm(0.0, 1)
        with pytest.raises(ValueError):
            ProductTerm(float("inf"), 1)
        with pytest.raises(ValueError):
            ProductTerm(1.0, -1)

    def test_float_order_uses_decimal_semantics(self):
        assert ProductTerm(1.0, 0.3).order == Fraction(3, 10)

    @pytest.mark.parametrize("order, text", [
        (1e308, "order '1e+308' doubles to a non-finite number"),
        ("1e400", "order '1e400' doubles to a non-finite number"),
        (Fraction(10**400), f"order '{10**400}' doubles to a non-finite number"),
        ("1e-400", "nonzero order '1e-400' doubles to zero"),
        (Fraction(1, 10**400), f"nonzero order '1/{10**400}' doubles to zero"),
        ("-0.5", "negative order -1/2"),
        ("1e99999999999999999999999",
         "order '1e99999999999999999999999' doubles to a non-finite number"),
        ("1e-99999999999999999999999",
         "nonzero order '1e-99999999999999999999999' doubles to zero"),
    ], ids=["float", "str", "fraction", "str-tiny", "fraction-tiny", "negative",
            "str-huge-exponent", "str-tiny-huge-exponent"])
    def test_term_rejects_what_the_parser_rejects(self, order, text):
        # accepted once: the JSON export then overflowed, or read order 0.0,
        # and the rendered text did not reparse
        with pytest.raises(ValueError) as err:
            ProductTerm(1.0, order)
        assert str(err.value) == text
        if isinstance(order, str):
            with pytest.raises(ParseError) as err:
                parse_lagrangian(f"1*q[{order}]")
            assert str(err.value) == f"offset 4: {text}"

    def test_orders_at_the_edges_of_the_float_range_accepted(self):
        # the largest order whose 2*order is finite, and the smallest subnormal
        for order in (Fraction(2**1023 - 2**970), Fraction(1, 2**1074)):
            assert ProductTerm(1.0, order).order == order
        with pytest.raises(ValueError, match="doubles to a non-finite number"):
            ProductTerm(1.0, Fraction(2**1023))

    @pytest.mark.parametrize("text", ["0e99999999999999999999999",
                                      "-0.0E-99999999999999999999999", "00e+0"])
    def test_zero_digits_are_order_zero_whatever_the_exponent(self, text):
        # Decimal holds no exponent past 999999999999999999: the first two
        # raised decimal.InvalidOperation, kept term or dropped
        assert ProductTerm(1.0, text).order == 0
        assert parse_lagrangian(f"1*q[1] + 1*q[{text}]") == \
            parse_lagrangian("1*q[1] + 1*q[0]")
        assert parse_lagrangian(f"1*q[1] + 0*q[{text}]") == parse_lagrangian("1*q[1]")
        with pytest.raises(ParseError, match=r"offset 13: duplicate order 0"):
            parse_lagrangian(f"1*q[0] + 0*q[{text}]")

    # 2**-1075 as a fraction and as its 758-digit decimal; both were rounded
    # to 0.0 before they were doubled
    HALF_SUBNORMAL = Fraction(1, 2**1075)
    HALF_SUBNORMAL_TEXT = f"0.{5**1075:0>1075}"

    @pytest.mark.parametrize("order", [HALF_SUBNORMAL, HALF_SUBNORMAL_TEXT],
                             ids=["fraction", "text"])
    def test_order_whose_exact_double_is_the_smallest_subnormal_accepted(self, order):
        assert len(self.HALF_SUBNORMAL_TEXT.rstrip("0")) - 2 == 1075
        term = ProductTerm(1.0, order)
        assert term.order == self.HALF_SUBNORMAL
        eom = derive_causal_eom(LagrangianSpec((term,)))
        assert [(t.coeff, float(t.total_order)) for t in eom.terms] == [(1.0, 5e-324)]
        if isinstance(order, str):
            spec = parse_lagrangian(f"1*q[{order}]")
            assert spec.terms == (term,)

    @pytest.mark.parametrize("order, text", [
        (Fraction(1, 2**1076), f"nonzero order '1/{2**1076}' doubles to zero"),
        ("1.2e-324", "nonzero order '1.2e-324' doubles to zero"),
        ("1e-400", "nonzero order '1e-400' doubles to zero"),
    ], ids=["fraction-tie", "text-below", "text-far-below"])
    def test_order_whose_exact_double_rounds_to_zero_rejected(self, order, text):
        # 2**-1075 ties to 0.0; 1.2e-324 lies below 2**-1076
        with pytest.raises(ValueError) as err:
            ProductTerm(1.0, order)
        assert str(err.value) == text

    @pytest.mark.parametrize("make, text", [
        (lambda: HarmonicPotential(-1.0), "harmonic constant must be >= 0, got -1.0"),
        (lambda: HarmonicPotential(math.inf), "harmonic constant must be finite, got inf"),
        (lambda: InfiniteWellPotential(0.0), "well length must be > 0, got 0.0"),
        (lambda: InfiniteWellPotential(-0.0), "well length must be > 0, got -0.0"),
        (lambda: InfiniteWellPotential(math.nan), "well length must be finite, got nan"),
    ], ids=["harmonic-negative", "harmonic-inf", "well-zero", "well-minus-zero",
            "well-nan"])
    def test_potential_kinds_own_the_parser_texts(self, make, text):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == text

    def test_spec_rejects_duplicate_orders(self):
        with pytest.raises(ValueError):
            LagrangianSpec((ProductTerm(1.0, 1), ProductTerm(2.0, 1)))
        with pytest.raises(ValueError):
            LagrangianSpec((ProductTerm(1.0, "0.5"), ProductTerm(2.0, Fraction(2, 4))))

    def test_potential_gradients(self):
        # dV/dq as nonzero (coeff, power) pairs; zero coefficients drop
        assert FreePotential().gradient() == ()
        assert HarmonicPotential(4.0).gradient() == ((4.0, 1),)
        assert HarmonicPotential(0.0).gradient() == ()
        assert PolynomialPotential((1, 0, 3, 0, 2)).gradient() == ((6.0, 1), (8.0, 3))
        with pytest.raises(ValueError, match="infinite-well potential has no gradient"):
            InfiniteWellPotential(1.0).gradient()
        with pytest.raises(ValueError, match=r"q\^2 term overflows: 2 \* 1e\+308"):
            PolynomialPotential((0, 0, 1e308)).gradient()


class TestDerivation:
    def test_causal_orders_double(self):
        eom = derive_causal_eom(parse_lagrangian(REFERENCE))
        assert [(t.coeff, t.total_order) for t in eom.terms] == [
            (1.0, Fraction(2)), (0.3, Fraction(1)), (4.0, Fraction(0))]
        assert eom.direction is Direction.CAUSAL

    def test_retrocausal_mirrors_causal(self):
        spec = parse_lagrangian(REFERENCE)
        causal = derive_causal_eom(spec)
        retro = derive_retrocausal_eom(spec)
        assert [(t.coeff, t.total_order) for t in causal.terms] == \
               [(t.coeff, t.total_order) for t in retro.terms]
        assert retro.direction is Direction.RETROCAUSAL

    def test_newton_recovered_with_potential(self):
        eom = derive_causal_eom(parse_lagrangian("1.0*q[1] - V(harmonic, 4.0)"))
        assert [(t.coeff, t.total_order) for t in eom.terms] == [(1.0, Fraction(2))]
        assert eom.potential == HarmonicPotential(4.0)

    def test_degenerate_has_no_terms(self):
        eom = derive_causal_eom(LagrangianSpec(()))
        assert eom.terms == ()
        assert render_eom(eom) == "0 = 0"

    def test_infinite_well_rejected(self):
        spec = parse_lagrangian("1*q[1] - V(well, 1)")
        with pytest.raises(ValueError, match="eigensolver"):
            derive_causal_eom(spec)

    def test_direction_symmetry_randomized(self):
        rng = np.random.default_rng(100)
        orders_pool = np.arange(0, 9) / 4.0
        for _ in range(100):
            size = int(rng.integers(1, 5))
            orders = rng.choice(orders_pool, size=size, replace=False)
            terms = tuple(ProductTerm(float(rng.uniform(0.1, 9.0)), str(o))
                          for o in orders)
            spec = LagrangianSpec(terms)
            causal = derive_causal_eom(spec)
            retro = derive_retrocausal_eom(spec)
            assert sorted((t.coeff, t.total_order) for t in causal.terms) == \
                   sorted((t.coeff, t.total_order) for t in retro.terms)


class TestReduction:
    def test_reference_reduces_to_signed_pair_exactly(self):
        spec = parse_lagrangian(REFERENCE)
        causal = reduce_integer_orders(derive_causal_eom(spec))
        retro = reduce_integer_orders(derive_retrocausal_eom(spec))
        assert (causal.mass_coeff, causal.damping_coeff, causal.stiffness_coeff) \
            == (1.0, 0.3, 4.0)
        assert (retro.mass_coeff, retro.damping_coeff, retro.stiffness_coeff) \
            == (1.0, -0.3, 4.0)

    def test_free_particle(self):
        ode = reduce_integer_orders(derive_causal_eom(parse_lagrangian("2*q[1]")))
        assert (ode.mass_coeff, ode.damping_coeff, ode.stiffness_coeff) == (2.0, 0.0, 0.0)

    def test_harmonic_gradient_feeds_stiffness(self):
        ode = reduce_integer_orders(
            derive_causal_eom(parse_lagrangian("2*q[1] - V(harmonic, 3)")))
        assert (ode.mass_coeff, ode.damping_coeff, ode.stiffness_coeff) == (2.0, 0.0, 3.0)

    def test_quadratic_poly_potential_is_linear_gradient(self):
        ode = reduce_integer_orders(
            derive_causal_eom(parse_lagrangian("1*q[1] - V(poly, 0, 0, 0.5)")))
        assert ode.stiffness_coeff == 1.0

    def test_zeroth_order_term_equivalent_to_harmonic_potential(self):
        # a k*q[0] product term and V = harmonic(k) close the same equation:
        # the zeroth-order derivative is the identity, so both routes feed
        # the stiffness slot identically
        via_term = reduce_integer_orders(
            derive_causal_eom(parse_lagrangian("1*q[1] + 4*q[0]")))
        via_potential = reduce_integer_orders(
            derive_causal_eom(parse_lagrangian("1*q[1] - V(harmonic, 4)")))
        assert via_term == via_potential

    def test_overflowing_stiffness_rejected(self):
        spec = parse_lagrangian("1*q[1] + 1e308*q[0] - V(harmonic, 1e308)")
        for derive in (derive_causal_eom, derive_retrocausal_eom):
            with pytest.raises(ValueError, match="reduced stiffness coefficient overflows"):
                reduce_integer_orders(derive(spec))

    @pytest.mark.parametrize("text", [
        "1*q[1] - V(poly, 0, 0, 0, 1)",  # dV/dq = 3 q^2
        "1*q[1] - V(poly, 0, 1)",  # dV/dq = 1, a constant force
        "1*q[0.25]",
        "1*q[1] + 0.5*q[0.75] - V(harmonic, 2)",
        "1*q[1.5]",  # order 3
        "1*q[2] + 1*q[1]",
        "0*q[1]",
        "0*q[1] - V(harmonic, 2)",
    ], ids=["cubic-gradient", "constant-gradient", "order-0.5", "order-1.5",
            "order-3", "order-4", "no-terms", "no-terms-harmonic"])
    def test_no_classical_form_reduces_to_none(self, text):
        # these raised ValueError, or were kept from the call by the CLI
        spec = parse_lagrangian(text)
        for derive in (derive_causal_eom, derive_retrocausal_eom):
            assert reduce_integer_orders(derive(spec)) is None

    def test_parity_against_operator_numerics(self):
        # the reduction rule assigns (-1)^n to retrocausal integer orders;
        # the reflection-built operator must agree on a smooth function
        grid = Grid(0.0, 2.0 * math.pi, 1024)
        t = grid.points()
        f = GridFunction(grid, np.sin(t))
        exact = {0: np.sin(t), 1: np.cos(t), 2: -np.sin(t)}
        trim = slice(10, -10)
        for n in (0, 1, 2):
            out = retrocausal_frac_deriv(f, n)
            expected = (-1.0) ** n * exact[n]
            scale = np.max(np.abs(expected[trim]))
            assert np.max(np.abs(out.samples[trim] - expected[trim])) / scale <= 1e-2


class TestRendering:
    def test_classical_ode_text(self):
        assert render_eom(ClassicalOde(1.0, 0.3, 4.0)) == "1·q'' + 0.3·q' + 4·q = 0"
        assert render_eom(ClassicalOde(1.0, -0.3, 4.0)) == "1·q'' - 0.3·q' + 4·q = 0"
        assert render_eom(ClassicalOde(1.0, 0.0, 0.0)) == "1·q'' = 0"
        assert render_eom(ClassicalOde(0.0, 0.0, 0.0)) == "0 = 0"

    def test_eom_text(self):
        eom = derive_causal_eom(parse_lagrangian(REFERENCE))
        text = render_eom(eom)
        assert text == "1·D^2[q] + 0.3·D^1[q] + 4·D^0[q] = 0 (causal)"
        assert "D^1" in text

    def test_empty_eom_text(self):
        eom = EquationOfMotion((), FreePotential(), Direction.CAUSAL)
        assert render_eom(eom) == "0 = 0"

    def test_potential_gradient_rendered(self):
        eom = derive_causal_eom(parse_lagrangian("1*q[1] - V(harmonic, 4)"))
        assert render_eom(eom) == "1·D^2[q] + 4·q = 0 (causal)"
        eom = derive_causal_eom(parse_lagrangian("1*q[1] - V(harmonic, 0)"))
        assert render_eom(eom) == "1·D^2[q] = 0 (causal)"
        eom = derive_retrocausal_eom(parse_lagrangian("1*q[1] - V(poly, 5, -1, 0, 0.5)"))
        assert render_eom(eom) == "1·D^2[q] - 1 + 1.5·q^2 = 0 (retrocausal)"

    def test_orders_print_as_their_exact_value(self):
        # 1.0000000000000001 is no double: its float text 1.0 (2.0 doubled)
        # read back as order 1, a duplicate of the other term
        spec = parse_lagrangian("1*q[1] + 2*q[1.0000000000000001]")
        assert render_eom(derive_causal_eom(spec)) == \
            "2·D^2.0000000000000002[q] + 1·D^2[q] = 0 (causal)"
        assert render_lagrangian(spec) == "1*q[1] + 2*q[1.0000000000000001]"
        assert parse_lagrangian(render_lagrangian(spec)) == spec
        # orders whose float text reads back exactly keep that text
        spec = parse_lagrangian("1*q[0.5] + 2*q[1e-05] + 3*q[1.5]")
        assert render_eom(derive_causal_eom(spec)) == \
            "3·D^3[q] + 1·D^1[q] + 2·D^2e-05[q] = 0 (causal)"
        assert render_lagrangian(spec) == "1*q[0.5] + 2*q[1e-05] + 3*q[1.5]"

    def test_roundtrip_fixed_point(self):
        texts = (
            REFERENCE,
            "1.0*q[1] - V(harmonic, 4.0)",
            "2.5*q[0.75] + 1*q[0] - V(poly, 0, 0, 0.5)",
            "3*q[2] + 0.125*q[0.25] - V(well, 2)",
        )
        for text in texts:
            spec = parse_lagrangian(text)
            assert parse_lagrangian(render_lagrangian(spec)) == spec

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(5)
        orders_pool = np.arange(0, 9) / 4.0
        for _ in range(50):
            size = int(rng.integers(1, 4))
            orders = rng.choice(orders_pool, size=size, replace=False)
            terms = tuple(ProductTerm(round(float(rng.uniform(-5, 5)), 3) or 1.0,
                                      str(o))
                          for o in orders)
            spec = LagrangianSpec(terms, HarmonicPotential(2.0))
            assert parse_lagrangian(render_lagrangian(spec)) == spec

