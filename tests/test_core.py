import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from retromech.core import (
    MARCH_BLOCK,
    Direction,
    Grid,
    GridFunction,
    Regime,
    UnitsConfig,
    UnstableIntegrationError,
    _increment_powers,
    characteristic_roots,
    classify_regime,
    closed_form,
    increment_power,
    integrate_second_order,
    rk4_increment,
)
from retromech.dampedwave import DampedWaveParams, solve_damped_free


def reference_march(coeffs, y0, v0, grid, *, backward=False, amplitude_limit=None):
    """Step-by-step RK4 for y'' = -c1 y' - c0 y: the oracle the blocked
    propagator must reproduce to roundoff. With ``amplitude_limit`` it
    raises at the first step whose |y| exceeds the limit: a relative
    amplitude guard, which the propagator's one stability check must stop
    wherever the exact solution does not grow."""
    c1, c0 = coeffs
    h = -grid.h if backward else grid.h
    ys = np.empty(grid.n, dtype=np.result_type(y0, v0, float))
    vs = np.empty_like(ys)
    y, v = y0, v0
    order = range(grid.n - 1, -1, -1) if backward else range(grid.n)
    for step, i in enumerate(order):
        if step and amplitude_limit is not None and abs(y) > amplitude_limit:
            raise UnstableIntegrationError(f"reference guard: |y| = {abs(y):.3e} "
                                           f"at step {step}")
        ys[i], vs[i] = y, v
        a1 = -c1 * v - c0 * y
        y2, v2 = y + 0.5 * h * v, v + 0.5 * h * a1
        a2 = -c1 * v2 - c0 * y2
        y3, v3 = y + 0.5 * h * v2, v + 0.5 * h * a2
        a3 = -c1 * v3 - c0 * y3
        y4, v4 = y + h * v3, v + h * a3
        a4 = -c1 * v4 - c0 * y4
        y, v = (y + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
                v + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0)
    return ys, vs


def relative_deviation(coeffs, y0, v0, grid, backward):
    y, v = integrate_second_order(coeffs, y0, v0, grid, backward=backward)
    ry, rv = reference_march(coeffs, y0, v0, grid, backward=backward)
    return max(np.max(np.abs(y - ry)) / np.max(np.abs(ry)),
               np.max(np.abs(v - rv)) / np.max(np.abs(rv)))


class TestGrid:
    def test_spacing_and_points_are_exact(self):
        grid = Grid(0.3, 2.7, 97)
        assert grid.h == (2.7 - 0.3) / 96
        t = grid.points()
        i = np.arange(97)
        assert np.array_equal(t, 0.3 + i * grid.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid(0.0, float("inf"), 10)

    @pytest.mark.parametrize("n", [5.5, 5.0, np.float64(5.0), True, "5"])
    def test_n_must_be_an_integer(self, n):
        # a float n once built a grid whose points() overran b
        with pytest.raises(ValueError, match=r"integer n, got n="):
            Grid(0.0, 1.0, n)

    def test_numpy_integer_n_is_accepted(self):
        grid = Grid(0.0, 1.0, np.int64(5))
        assert grid.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestGridFunction:
    def test_length_must_match(self):
        with pytest.raises(ValueError):
            GridFunction(Grid(0, 1, 8), np.zeros(7))

    def test_samples_are_frozen_copies(self):
        source = np.ones(8)
        f = GridFunction(Grid(0, 1, 8), source)
        source[0] = 99.0
        assert f.samples[0] == 1.0
        with pytest.raises(ValueError):
            f.samples[0] = 2.0

    def test_keeps_only_memory_no_one_can_write(self):
        # a read-only array whose .base chain is read-only is kept as is;
        # a writeable array, and a read-only view of one, are copied
        frozen = np.arange(8.0)
        frozen.setflags(write=False)
        writeable = np.arange(8.0)
        view = writeable[::-1]
        view.setflags(write=False)
        cases = [(frozen, True), (frozen[::-1], True), (frozen.view(), True),
                 (writeable, False), (view, False),
                 (np.frombuffer(np.arange(8.0).tobytes()), False)]
        for samples, kept in cases:
            f = GridFunction(Grid(0, 1, 8), samples)
            assert (f.samples is samples) is kept
            assert np.shares_memory(f.samples, samples) is kept
            assert not f.samples.flags.writeable
            assert np.array_equal(f.samples, samples)

    def test_complex_flag(self):
        f = GridFunction(Grid(0, 1, 4), np.array([1j, 0, 0, 0]))
        assert np.iscomplexobj(f.samples)
        assert not np.iscomplexobj(GridFunction(Grid(0, 1, 4), [1, 0, 0, 0]).samples)


class TestUnits:
    def test_defaults_are_natural(self):
        units = UnitsConfig()
        assert (units.hbar, units.mass, units.c_light) == (1.0, 1.0, 1.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="^hbar must be positive, got 0.0$"):
            UnitsConfig(hbar=0.0)
        with pytest.raises(ValueError, match="^mass must be positive, got -1.0$"):
            UnitsConfig(mass=-1.0)
        # inf and nan read "must be positive", which inf is
        for name in ("hbar", "mass", "c_light"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                    UnitsConfig(**{name: value})


# y'' = y is the pair (c1, c0) = (0, -1)
GROWTH = (0.0, -1.0)

# (coeffs, y0, v0, grid) of the marches behind retromech verify: the
# oscillator pair and the damped free wave, real and complex data
VERIFY_CASES = [
    ((0.0, 1.0), 1.0, 0.0, Grid(0.0, 2.0 * math.pi, 6284)),
    ((0.3, 4.0), 1.0, 0.0, Grid(0.0, 2.0 * math.pi, 6284)),
    ((2.0, 1.0), 1.0, -1.0, Grid(0.0, 2.0 * math.pi, 6284)),
    ((3.0, 1.0), 1.0, 0.5, Grid(0.0, 3.0, 3001)),
    ((0.5, 4.0), 1.0, 0.0, Grid(0.0, 3.0, 3001)),
    ((0.3, 4.0), 1.0, 0.0, Grid(0.0, 2.0, 501)),
    ((0.4, 4.0), 1.0 + 0j, 0j, Grid(0.0, 10.0, 10001)),
    ((0.6, 1.0), 1.0 + 0.5j, -0.2j, Grid(0.0, 10.0, 5001)),
]


class TestIntegrator:
    def test_matches_exponential(self):
        # y'' = y with y(0) = 1, y'(0) = 1 is exp(t)
        grid = Grid(0.0, 1.0, 1001)
        y, v = integrate_second_order(GROWTH, 1.0, 1.0, grid)
        assert np.max(np.abs(y - np.exp(grid.points()))) <= 1e-10

    def test_backward_fills_forward_order(self):
        grid = Grid(0.0, 1.0, 1001)
        y, _ = integrate_second_order(GROWTH, np.e, np.e, grid, backward=True)
        assert np.max(np.abs(y - np.exp(grid.points()))) <= 1e-9

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("coeffs, y0, v0, grid", VERIFY_CASES)
    def test_agrees_with_reference_on_verify_cases(self, coeffs, y0, v0, grid,
                                                   backward):
        assert relative_deviation(coeffs, y0, v0, grid, backward) <= 1e-13

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("y0, v0", [(1.0, 0.0), (1.0 + 0.5j, -0.2j)],
                             ids=["real", "complex"])
    def test_agrees_with_reference_at_large_n(self, y0, v0, backward):
        grid = Grid(0.0, 10.0, 200001)
        assert relative_deviation((0.3, 4.0), y0, v0, grid, backward) <= 1e-12

    @pytest.mark.parametrize("n", [7, MARCH_BLOCK, MARCH_BLOCK + 1,
                                   3 * MARCH_BLOCK - 1])
    def test_block_edges(self, n):
        grid = Grid(0.0, 1.0, n)
        assert relative_deviation((0.3, 4.0), 1.0, 0.5, grid, False) <= 1e-14 * n

    def test_complex_data_stays_complex(self):
        grid = Grid(0.0, 1.0, 11)
        y, v = integrate_second_order((0.1, 1.0), 1.0, 1j, grid)
        assert y.dtype == v.dtype == np.complex128

    @pytest.mark.parametrize("coeffs, y0, v0, grid, backward", [
        # far beyond the RK4 stability limit: the step matrix has entries
        # near 1e10 and its powers overflow within the first block
        ((0.0, 1e8), 1.0, 0.0, Grid(0.0, 10.0, 101), False),
        ((0.0, 1e8), 1.0 + 1j, 0j, Grid(0.0, 10.0, 101), True),
        # k h just past the RK4 stability limit: trips after many blocks
        ((0.0, 2.004e4), 1.0, 0.0, Grid(0.0, 100.0, 5001), False),
        ((0.0, 2.004e4), 1.0, 0.0, Grid(0.0, 100.0, 5001), True),
    ])
    def test_guard_trips_where_reference_does(self, coeffs, y0, v0, grid, backward):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnstableIntegrationError):
                reference_march(coeffs, y0, v0, grid, backward=backward,
                                amplitude_limit=1e6)
            with pytest.raises(UnstableIntegrationError) as err:
                integrate_second_order(coeffs, y0, v0, grid, backward=backward)
        assert "is outside the stability region" in str(err.value)

    @pytest.mark.parametrize("coeffs, y0, v0, grid, backward", [
        # y'' = y grows like exp(t), past the reference's guard of 10 at
        # t = log 10, in either direction
        (GROWTH, 1.0, 1.0, Grid(0.0, 50.0, 5001), False),
        (GROWTH, 1.0, -1.0, Grid(0.0, 50.0, 5001), True),
        # the anti-damped oscillator marched the unstable way
        ((-3.0, 1.0), 1.0, 0.0, Grid(0.0, 20.0, 20001), False),
    ])
    def test_growing_solution_marches_like_reference(self, coeffs, y0, v0, grid,
                                                     backward):
        with pytest.raises(UnstableIntegrationError):
            reference_march(coeffs, y0, v0, grid, backward=backward,
                            amplitude_limit=10.0)
        assert relative_deviation(coeffs, y0, v0, grid, backward) <= 1e-12

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_march_past_the_float_range_raises(self, backward):
        # exp(t) overflows at t = log(DBL_MAX) = 709.78
        grid = Grid(0.0, 1000.0, 100001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnstableIntegrationError) as err:
                integrate_second_order(GROWTH, 1.0, -1.0 if backward else 1.0, grid,
                                       backward=backward)
        found = re.fullmatch(r"the RK4 march for \(c1, c0\) = \(0\.0, -1\.0\) leaves "
                             r"the float range at t = (\S+) \(step (\d+) of 100000\)",
                             str(err.value))
        step = int(found[2])
        assert abs(step * grid.h - math.log(np.finfo(np.float64).max)) <= 0.02
        t = grid.b - step * grid.h if backward else step * grid.h
        assert found[1] == f"{t:.6g}"

    @pytest.mark.parametrize("coeffs, grid, backward", [
        # pure rotation: RK4's limit on the imaginary axis is h omega = 2 sqrt(2)
        ((0.0, 1.0), Grid(0.0, 2.83, 2), False),
        ((0.0, 1.0), Grid(0.0, 2.83, 2), True),
        # pure decay, lambda = 0 and -3: the limit on the real axis is 2.785
        ((3.0, 0.0), Grid(0.0, 1.0, 2), False),
        # the anti-damped equation marched backward, its stable direction
        ((-3.0, 0.0), Grid(0.0, 1.0, 2), True),
        ((-0.6, 25.0), Grid(0.0, 6.0, 11), True),
        # 1.004 per step grows only 1.5-fold in 100 steps
        ((0.0, 1.0), Grid(0.0, 283.0, 101), False),
        # c1 * c1 overflowed, which read as a growing exact solution and
        # let the step grow 291-fold unchecked
        ((2e154, 1.0), Grid(0.0, 1e-153, 3), False),
        ((-2e154, 1.0), Grid(0.0, 1e-153, 3), True),
    ])
    def test_step_outside_stability_region_raises(self, coeffs, grid, backward):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnstableIntegrationError) as err:
                integrate_second_order(coeffs, 1.0, 0.0, grid, backward=backward)
        h = -grid.h if backward else grid.h
        assert f"RK4 step h = {h:.6g} (n = {grid.n})" in str(err.value)
        assert f"(c1, c0) = ({coeffs[0]!r}, {coeffs[1]!r})" in str(err.value)

    @pytest.mark.parametrize("coeffs, grid, backward", [
        ((0.0, 1.0), Grid(0.0, 2.82, 2), False),
        ((0.0, 1.0), Grid(0.0, 2.82, 2), True),
        ((3.0, 0.0), Grid(0.0, 0.9, 2), False),
        # the exact solution grows, and the march may grow with it
        (GROWTH, Grid(0.0, 10.0, 2), False),
        ((3.0, 0.0), Grid(0.0, 1.0, 2), True),
        # rho(P) = 1 exactly, and rounding-level growth over a long march
        ((0.0, 0.0), Grid(0.0, 1e6, 2), False),
        ((0.0, 1.0), Grid(0.0, 1e4, 10**6 + 1), False),
        # the exact rho(P)^2 - 1 = -(h omega)^6 / 72 = -1e-23 is below the
        # rounding of the increment: it computes as +1.3e-23
        ((0.0, 1.0), Grid(0.0, 3.0, 10001), False),
        ((0.0, 1.0), Grid(0.0, 3.0, 10001), True),
    ])
    def test_step_inside_stability_region_marches(self, coeffs, grid, backward):
        y, v = integrate_second_order(coeffs, 1.0, 0.0, grid, backward=backward)
        ry, rv = reference_march(coeffs, 1.0, 0.0, grid, backward=backward)
        assert np.allclose(y, ry, rtol=1e-9) and np.allclose(v, rv, rtol=1e-9)


class TestIncrementPower:
    # bits 62 and up fall in the second 62-bit word, 300 and 302 in the fifth
    EXPONENTS = [0, 1, 2, 3, 5, 2**53 - 1, 2**62 + 2**61, 2**63 + 2**40,
                 2**100 + 2**62, 5 * 2**300]

    def test_exact_powers_of_exact_steps(self):
        # P = [[1, 1], [0, 1]] has P^e - I = [[0, e], [0, 0]], exact in
        # floats for these e; P = 0 has P^e - I = -I for every e >= 1
        m = len(self.EXPONENTS)
        shear = increment_power(np.tile([[0.0, 1.0], [0.0, 0.0]], (m, 1, 1)),
                                self.EXPONENTS)
        expected = np.zeros((m, 2, 2))
        expected[:, 0, 1] = [float(e) for e in self.EXPONENTS]
        assert np.array_equal(shear, expected)
        vanish = increment_power(np.tile(-np.eye(2), (m, 1, 1)), self.EXPONENTS)
        assert np.array_equal(vanish[0], np.zeros((2, 2)))
        assert np.array_equal(vanish[1:], np.tile(-np.eye(2), (m - 1, 1, 1)))

    def test_powers_of_two_are_the_march_doublings(self):
        # the march and the well shooting share one combine rule, so
        # P^(2^j) - I has the same bits in both
        d = rk4_increment((0.3, 2.0), 0.01)
        exponents = [2**j for j in range(11)]
        stacked = increment_power(np.tile(d, (len(exponents), 1, 1)), exponents)
        assert np.array_equal(stacked, _increment_powers(d, 1025)[exponents])


class TestRegime:
    def test_mirror_shares_its_partners_regime(self):
        for c1, c0 in ((0.3, 4.0), (2.0, 1.0), (3.0, 1.0)):
            assert classify_regime(-c1, c0) is classify_regime(c1, c0)

    def test_critical_band_is_relative(self):
        assert classify_regime(2.0, 1.0 + 1e-14) is Regime.CRITICAL
        assert classify_regime(2.0, 1.0 + 1e-9) is Regime.UNDERDAMPED
        assert classify_regime(2e6, 1e12 * (1.0 - 1e-14)) is Regime.CRITICAL

    def test_half_form_classifies_where_the_square_of_c1_overflows(self):
        # c1**2 raised OverflowError from 1.35e154 on; (c1/2)^2 stays finite
        # up to twice that
        assert classify_regime(2.6e154, 1.0) is Regime.OVERDAMPED
        assert classify_regime(2.6e154, 1.69e308) is Regime.CRITICAL
        assert classify_regime(-2.6e154, 1.7e308) is Regime.UNDERDAMPED
        with pytest.raises(OverflowError, match="discriminant"):
            classify_regime(1e200, 1.0)

    def test_values_are_the_report_strings(self):
        assert [r.value for r in Regime] == ["undamped", "underdamped", "critical",
                                             "overdamped"]


def _root_residual_in_eps(c1, c0, root):
    """|l^2 + c1 l + c0| over eps (|l|^2 + |c1 l| + |c0|), the residual
    taken exactly in rationals and only then rounded."""
    a, b = Fraction(root.real), Fraction(root.imag)
    c1, c0 = Fraction(c1), Fraction(c0)
    residual = math.hypot(float(a * a - b * b + c1 * a + c0), float((2 * a + c1) * b))
    size = abs(root)
    return residual / (math.ulp(1.0) * (size * size + abs(c1) * size + abs(c0)))


class TestCharacteristicRoots:
    def test_roots_match_regimes(self):
        under = characteristic_roots(1.0, 1.0)
        assert under[0].imag > 0 and under[1].imag < 0
        assert under[0].real == pytest.approx(-0.5)
        over = characteristic_roots(4.0, 1.0)
        assert over[0].imag == 0 and over[1].imag == 0
        assert over[0].real == pytest.approx(-2.0 + math.sqrt(3.0))
        assert over[1].real == pytest.approx(-2.0 - math.sqrt(3.0))

    def test_small_overdamped_root_does_not_cancel(self):
        # -c1/2 + s read -0.2679491924311228, one ulp off -(2 - sqrt 3), and
        # 0.0 for the root -c0/c1 = -5e-9 of (2e8, 1)
        assert characteristic_roots(4.0, 1.0)[0] == complex(-0.2679491924311227, 0.0)
        assert characteristic_roots(2e8, 1.0) == (complex(-5e-9, 0.0),
                                                  complex(-2e8, 0.0))
        assert characteristic_roots(-2e8, 1.0) == (complex(2e8, 0.0),
                                                   complex(5e-9, 0.0))

    def test_complex_pair_is_minus_half_plus_and_minus_s(self):
        l1, l2 = characteristic_roots(0.0, 4.0)
        assert (l1, l2) == (2j, -2j)
        l1, l2 = characteristic_roots(-1.0, 1.0)
        assert l1 == complex(0.5, math.sqrt(0.75)) and l2 == l1.conjugate()

    def test_backward_error_is_a_few_units_of_roundoff(self):
        # c1 of either sign and c0 log-uniform over 1e-150 .. 1e150, a
        # quarter of the pairs within 1e-6 of a double root and an eighth
        # with c0 < 0; -c1/2 +/- s alone reaches 4.5e15 eps on such draws
        rng = np.random.default_rng(20)
        count = 10000
        c1 = 10.0 ** rng.uniform(-150, 150, count) * rng.choice([-1.0, 1.0], count)
        c0 = 10.0 ** rng.uniform(-150, 150, count)
        near = np.arange(count) % 4 == 0
        c0[near] = (0.5 * c1[near]) ** 2 * (1.0 + rng.uniform(-1e-6, 1e-6, near.sum()))
        c0[np.arange(count) % 8 == 1] *= -1.0
        worst = max(_root_residual_in_eps(a, b, root)
                    for a, b in zip(c1.tolist(), c0.tolist())
                    for root in characteristic_roots(a, b))
        assert worst <= 2.0


def _damped_cos_sin(rate, omega, y0, v0):
    """exp(rate x) (y0 cos(omega x) + (v0 - rate y0) / omega sin(omega x))."""
    return lambda x: np.exp(rate * x) * (y0 * np.cos(omega * x)
                                         + (v0 - rate * y0) / omega * np.sin(omega * x))


# (c1, c0, regime, exact solution from (y0, v0) = (1.5, -0.5) at x = t - a)
CLOSED_FORM_CASES = [
    (0.0, 4.0, Regime.UNDAMPED, _damped_cos_sin(0.0, 2.0, 1.5, -0.5)),
    (2.0, 5.0, Regime.UNDERDAMPED, _damped_cos_sin(-1.0, 2.0, 1.5, -0.5)),
    (2.0, 1.0, Regime.CRITICAL, lambda x: (1.5 + x) * np.exp(-x)),
    # roots -1 and -2: A + B = 1.5, -A - 2B = -0.5
    (3.0, 2.0, Regime.OVERDAMPED, lambda x: 2.5 * np.exp(-x) - np.exp(-2.0 * x)),
    # the anti-damped (retrocausal) side, c1 < 0: roots 1 +- 2i, 1 and 2
    (-2.0, 5.0, Regime.UNDERDAMPED, _damped_cos_sin(1.0, 2.0, 1.5, -0.5)),
    (-2.0, 1.0, Regime.CRITICAL, lambda x: (1.5 - 2.0 * x) * np.exp(x)),
    (-3.0, 2.0, Regime.OVERDAMPED, lambda x: 3.5 * np.exp(x) - 2.0 * np.exp(2.0 * x)),
]


class TestClosedForm:
    @pytest.mark.parametrize("c1, c0, regime, exact", CLOSED_FORM_CASES)
    @pytest.mark.parametrize("a", [0.0, -1.25])
    def test_matches_hand_written_solutions(self, c1, c0, regime, exact, a):
        grid = Grid(a, a + 3.0, 301)
        out = closed_form((c1, c0), 1.5, -0.5, grid)
        assert classify_regime(c1, c0) is regime
        assert out.dtype == np.complex128
        reference = exact(grid.points() - a)
        assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("xi, energy", [(0.0, 0.5), (0.3, 2.0), (1.0, 0.5),
                                            (2.0, 0.5)])
    def test_is_the_damped_free_solution_bit_for_bit(self, xi, energy):
        # undamped, underdamped, critical (c1 = 2, c0 = 1) and overdamped
        params = DampedWaveParams(xi, energy)
        grid = Grid(-1.0, 9.0, 1001)
        sol = solve_damped_free(params, grid, 0.75 - 0.25j, 1.5)
        assert np.array_equal(sol.closed_form.samples,
                              closed_form(params.coeffs, 0.75 - 0.25j, 1.5, grid))


def test_direction_values():
    assert Direction.CAUSAL.value == "causal"
    assert Direction.RETROCAUSAL.value == "retrocausal"
