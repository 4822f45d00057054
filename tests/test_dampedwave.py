import math
import tracemalloc

import numpy as np
import pytest

from retromech import dampedwave
from retromech.core import NATURAL_UNITS, Grid, Regime, UnitsConfig, classify_regime
from retromech.dampedwave import (
    SHOOTING_BOUND,
    DampedWaveParams,
    _shooting_steps,
    _stacked_power,
    characteristic_roots,
    damped_well_modes,
    envelope_decay_rate,
    solve_damped_free,
    xi_from_params,
)


def classify(params):
    return classify_regime(*params.coeffs)


def per_mode_rk4_increment(coeffs, h):
    """The scalar RK4 stage pass the stacked shooting replaced."""
    c1, c0 = coeffs
    y = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])

    def accel(y, v):
        return -c1 * v - c0 * y

    a1 = accel(y, v)
    y2 = y + 0.5 * h * v
    v2 = v + 0.5 * h * a1
    a2 = accel(y2, v2)
    y3 = y + 0.5 * h * v2
    v3 = v + 0.5 * h * a2
    a3 = accel(y3, v3)
    y4 = y + h * v3
    v4 = v + h * a3
    a4 = accel(y4, v4)
    return np.array([h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
                     h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0])


def per_mode_well_modes(xi, length, count, shooting_points):
    """The per-mode shooting loop ``damped_well_modes`` replaced, kept as
    its oracle: (energies, residuals), or the RuntimeError it raised."""
    units = NATURAL_UNITS
    modes = np.arange(1, count + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        wavenumbers2 = (modes * math.pi / length) ** 2 + xi**2
        energies = (units.hbar**2 / (2.0 * units.mass)) * wavenumbers2
    residuals = np.empty(count)
    for i, k2 in enumerate(wavenumbers2):
        steps = _shooting_steps(math.sqrt(k2), length, shooting_points - 1)
        propagator = np.eye(2) + per_mode_rk4_increment((2.0 * xi, k2), length / steps)
        with np.errstate(over="ignore", invalid="ignore"):
            residuals[i] = abs(np.linalg.matrix_power(propagator, steps)[0, 1])
        if not residuals[i] <= SHOOTING_BOUND:
            raise RuntimeError(
                f"shooting cross-check failed for mode {i + 1}: "
                f"|psi(L)| = {residuals[i]:.3e}"
            )
    return energies, residuals


class TestXiFromParams:
    def test_unit_values(self):
        assert xi_from_params(1, 1, 1, 1) == 0.5

    def test_large_b_approaches_undamped(self):
        assert xi_from_params(1, 1, 1, 1e12) == pytest.approx(5e-13)

    def test_mixed_values(self):
        assert xi_from_params(2, 1, 1, 4) == 0.5

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError, match="B must be positive"):
            xi_from_params(1, 1, 1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xi_from_params(-1, 1, 1, 1)


class TestParams:
    def test_wavenumber_tracks_energy_and_units(self):
        units = UnitsConfig(hbar=0.5, mass=2.0)
        params = DampedWaveParams(0.1, 4.0, units)
        assert abs(params.k_wave - math.sqrt(2 * 2.0 * 4.0) / 0.5) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            DampedWaveParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            DampedWaveParams(0.1, 0.0)
        with pytest.raises(ValueError):
            DampedWaveParams(0.1, -1.0)


class TestClassification:
    def test_examples(self):
        assert classify(DampedWaveParams(0.0, 0.5)) is Regime.UNDAMPED
        # k = 1 at E = 1/2 in natural units
        assert classify(DampedWaveParams(1.0, 0.5)) is Regime.CRITICAL
        assert classify(DampedWaveParams(0.5, 0.5)) is Regime.UNDERDAMPED
        assert classify(DampedWaveParams(2.0, 0.5)) is Regime.OVERDAMPED

    def test_roots_match_regimes(self):
        under = characteristic_roots(DampedWaveParams(0.5, 0.5))
        assert under[0].imag > 0 and under[1].imag < 0
        assert under[0].real == pytest.approx(-0.5)
        over = characteristic_roots(DampedWaveParams(2.0, 0.5))
        assert over[0].imag == 0 and over[1].imag == 0
        assert over[0].real == pytest.approx(-2.0 + math.sqrt(3.0))
        assert over[1].real == pytest.approx(-2.0 - math.sqrt(3.0))


class TestFreeSolution:
    def test_undamped_is_cosine(self):
        grid = Grid(0.0, 10.0, 10001)
        sol = solve_damped_free(DampedWaveParams(0.0, 0.5), grid)
        x = grid.points()
        assert np.max(np.abs(sol.closed_form.samples - np.cos(x))) <= 1e-12
        assert np.max(np.abs(sol.rk4.samples - np.cos(x))) <= 1e-6

    def test_underdamped_closed_form(self):
        xi = 0.1
        grid = Grid(0.0, 10.0, 5001)
        sol = solve_damped_free(DampedWaveParams(xi, 0.5), grid)
        x = grid.points()
        omega = math.sqrt(1.0 - xi**2)
        exact = np.exp(-xi * x) * (np.cos(omega * x)
                                   + xi / omega * np.sin(omega * x))
        assert np.max(np.abs(sol.closed_form.samples - exact)) <= 1e-12
        assert sol.regime is Regime.UNDERDAMPED

    def test_overdamped_two_exponentials(self):
        grid = Grid(0.0, 5.0, 2001)
        sol = solve_damped_free(DampedWaveParams(2.0, 0.5), grid)
        x = grid.points()
        r1 = -2.0 + math.sqrt(3.0)
        r2 = -2.0 - math.sqrt(3.0)
        a = -r2 / (r1 - r2)
        exact = a * np.exp(r1 * x) + (1 - a) * np.exp(r2 * x)
        assert np.max(np.abs(sol.closed_form.samples - exact)) <= 1e-12

    def test_critical_confluent_form(self):
        grid = Grid(0.0, 5.0, 2001)
        sol = solve_damped_free(DampedWaveParams(1.0, 0.5), grid, 1.0, 0.0)
        x = grid.points()
        exact = (1.0 + x) * np.exp(-x)
        assert np.max(np.abs(sol.closed_form.samples - exact)) <= 1e-10

    @pytest.mark.parametrize("seed, draws", [(23, 8), (41, 20)])
    def test_rk4_agrees_across_random_regimes(self, seed, draws):
        rng = np.random.default_rng(seed)
        grid = Grid(0.0, 10.0, 10001)
        for _ in range(draws):
            params = DampedWaveParams(float(rng.uniform(0.0, 2.5)),
                                      float(rng.uniform(0.1, 2.0)))
            sol = solve_damped_free(params, grid)
            assert sol.max_discrepancy <= 1e-6

    def test_complex_initial_data(self):
        grid = Grid(0.0, 5.0, 2001)
        sol = solve_damped_free(DampedWaveParams(0.3, 0.5), grid, 1.0 + 0.5j, -0.2j)
        assert np.iscomplexobj(sol.closed_form.samples)
        assert sol.max_discrepancy <= 1e-6

    def test_solution_decays_forward(self):
        # the backward-phase equation is this same stable one, so the
        # envelope shrinks in +x; nothing grows the way the classical
        # anti-damped oscillator does
        grid = Grid(0.0, 20.0, 4001)
        sol = solve_damped_free(DampedWaveParams(0.1, 0.5), grid)
        for samples in (sol.closed_form.samples, sol.rk4.samples):
            assert np.max(np.abs(samples[-200:])) < np.max(np.abs(samples[:200]))

    def test_tiny_xi_recovers_free_wave(self):
        grid = Grid(0.0, 10.0, 10001)
        sol = solve_damped_free(DampedWaveParams(1e-8, 0.5), grid)
        x = grid.points()
        assert np.max(np.abs(sol.closed_form.samples - np.cos(x))) <= 1e-6

    def test_large_grid_holds_each_array_once(self):
        # the two complex results take 6.4 MB at n = 200001; the march's
        # unused psi', the closed form's temporaries and a copy of each
        # result pushed the peak to 16 MB, and the full-grid difference
        # and magnitude behind max_discrepancy to 11.2 MB
        grid = Grid(0.0, 10.0, 200001)
        solve_damped_free(DampedWaveParams(0.3, 0.5), Grid(0.0, 10.0, 2001))
        tracemalloc.start()
        try:
            sol = solve_damped_free(DampedWaveParams(0.3, 0.5), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.max_discrepancy <= 1e-6
        assert peak <= 10.5e6
        full = np.max(np.abs(sol.closed_form.samples - sol.rk4.samples))
        assert sol.max_discrepancy == float(full)


class TestDampedWell:
    def test_undamped_limit_is_plain_well(self):
        modes = damped_well_modes(0.0, 1.0, count=5)
        exact = (np.arange(1, 6) * math.pi) ** 2 / 2.0
        assert np.max(np.abs(modes.energies - exact)) <= 1e-12

    def test_damping_shifts_energies_uniformly(self):
        modes = damped_well_modes(1.0, 1.0, count=2)
        assert modes.energies[0] == pytest.approx((math.pi**2 + 1.0) / 2.0, abs=1e-12)
        assert modes.energies[1] == pytest.approx((4.0 * math.pi**2 + 1.0) / 2.0,
                                                  abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0, 2.0])
    def test_shooting_confirms_wall_hit(self, xi):
        modes = damped_well_modes(xi, 1.0, count=5)
        assert np.max(modes.shooting_residuals) <= 1e-8
        exact = ((np.arange(1, 6) * math.pi) ** 2 + xi**2) / 2.0
        assert np.max(np.abs(modes.energies - exact)) <= 1e-12

    @pytest.mark.parametrize("xi", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("length", [1.0, 5.0])
    def test_shooting_holds_at_high_modes(self, xi, length):
        # the RK4 phase error of a fixed grid grows like k^4: with 3000
        # steps mode 22 of a length-5 well missed the bound
        modes = damped_well_modes(xi, length, count=200)
        assert modes.shooting_residuals.shape == (200,)
        assert np.max(modes.shooting_residuals) <= SHOOTING_BOUND

    def test_validation(self):
        with pytest.raises(ValueError):
            damped_well_modes(-0.1, 1.0)
        with pytest.raises(ValueError):
            damped_well_modes(0.1, 0.0)

    @pytest.mark.parametrize("count", [2.5, True, -1])
    def test_count_must_be_a_non_negative_integer(self, count):
        # 2.5 and True failed inside numpy with a TypeError naming no parameter
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            damped_well_modes(0.5, 1.0, count=count)

    def test_numpy_integer_count(self):
        modes = damped_well_modes(0.5, 1.0, count=np.int64(3))
        assert modes.energies.shape == modes.shooting_residuals.shape == (3,)
        expected = damped_well_modes(0.5, 1.0, count=3)
        assert np.array_equal(modes.energies, expected.energies)
        assert np.array_equal(modes.shooting_residuals, expected.shooting_residuals)

    @pytest.mark.parametrize("xi", [0.0, 0.1, 0.5, 2.0, 1e3, 1e100])
    def test_stacked_shooting_matches_per_mode_loop_bit_for_bit(self, xi):
        for length in (1e-7, 0.3, 1.0, 7.0):
            for count in (0, 1, 5, 30, 200):
                for points in (2, 3, 4, 5, 3001):
                    energies, residuals = per_mode_well_modes(xi, length, count, points)
                    modes = damped_well_modes(xi, length, count=count,
                                              shooting_points=points)
                    assert np.array_equal(modes.energies, energies)
                    assert np.array_equal(modes.shooting_residuals, residuals)

    @pytest.mark.parametrize("xi, length, count", [
        (0.0, 1e8, 1),     # roundoff leaves |psi(L)| = 3.1e-8
        (0.0, 1e10, 3),
        (1.0, 1e100, 2),   # the power overflows to nan
    ])
    def test_failed_shot_matches_per_mode_loop(self, xi, length, count):
        with pytest.raises(RuntimeError) as frozen:
            per_mode_well_modes(xi, length, count, 3001)
        with pytest.raises(RuntimeError) as stacked:
            damped_well_modes(xi, length, count=count)
        assert str(stacked.value) == str(frozen.value)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_shooting_in_blocks_matches_per_mode_loop(self, monkeypatch, block):
        # the block edges fall inside every case; mode 3 of the 1e-9 well
        # takes 2 steps with k h = 4.7, outside RK4's stability interval
        monkeypatch.setattr(dampedwave, "SHOOTING_BLOCK", block)
        for xi, length, count in [(0.5, 1.0, 30), (0.0, 5.0, 200)]:
            energies, residuals = per_mode_well_modes(xi, length, count, 3001)
            modes = damped_well_modes(xi, length, count=count)
            assert np.array_equal(modes.energies, energies)
            assert np.array_equal(modes.shooting_residuals, residuals)
        with pytest.raises(RuntimeError) as frozen:
            per_mode_well_modes(0.0, 1e-9, 4, 2)
        with pytest.raises(RuntimeError) as stacked:
            damped_well_modes(0.0, 1e-9, count=4, shooting_points=2)
        assert str(stacked.value) == str(frozen.value)
        assert "mode 3:" in str(stacked.value)

    def test_short_wells_shoot_in_one_to_three_steps(self):
        # mode n of a 3e-9 well needs 0.84 n steps, so the exponents are
        # 1 to 4 and numpy's shortcuts decide the products of 1, 2 and 3
        steps = [_shooting_steps(n * math.pi / 3e-9, 3e-9, 1) for n in (1, 2, 3, 4)]
        assert steps == [1, 2, 3, 4]
        energies, residuals = per_mode_well_modes(0.0, 3e-9, 4, 2)
        modes = damped_well_modes(0.0, 3e-9, count=4, shooting_points=2)
        assert np.array_equal(modes.energies, energies)
        assert np.array_equal(modes.shooting_residuals, residuals)

    @pytest.mark.parametrize("xi, length", [(1e160, 1.0), (0.0, 1e-170)])
    def test_overflowing_energies_rejected(self, xi, length):
        # these printed inf energies with nan residuals, or raised
        # OverflowError, instead of naming the bad parameter
        with pytest.raises(ValueError, match="finite square|overflow"):
            damped_well_modes(xi, length, count=2)

    def test_overflowing_step_count_rejected(self):
        # math.ceil of the infinite step count raised "cannot convert float
        # infinity to integer", naming neither xi nor the well length
        with pytest.raises(ValueError, match=r"step count overflows at xi = 1e\+150 "
                                             r"and length 1e\+200"):
            damped_well_modes(1e150, 1e200, count=1)


def test_stacked_power_matches_matrix_power():
    rng = np.random.default_rng(11)
    exponents = [*range(1, 70), 2**20, 2**20 - 1, 2**40 + 3, 3 * 10**101]
    stack = np.eye(2) + 1e-3 * rng.standard_normal((len(exponents), 2, 2))
    # an overflowed entry: a product with I in place of the first power
    # would turn its zeros into nan
    exponents += [2, 5, 6]
    stack = np.concatenate([stack, np.tile([[np.inf, 1.0], [0.0, 1.0]], (3, 1, 1))])
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _stacked_power(stack, exponents)
        for a, e, power in zip(stack, exponents, stacked):
            assert np.array_equal(power, np.linalg.matrix_power(a, e), equal_nan=True)


class TestEnvelope:
    def test_underdamped_peaks_decay_at_rate_xi(self):
        grid = Grid(0.0, 10.0, 10001)
        params = DampedWaveParams(0.2, 2.0)
        sol = solve_damped_free(params, grid)
        rate = envelope_decay_rate(sol.closed_form)
        assert abs(rate - params.xi) / params.xi <= 0.01

    def test_needs_two_peaks(self):
        grid = Grid(0.0, 1.0, 101)
        sol = solve_damped_free(DampedWaveParams(2.0, 0.5), grid)
        with pytest.raises(ValueError, match="peaks"):
            envelope_decay_rate(sol.closed_form)
