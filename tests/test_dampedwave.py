import math

import numpy as np
import pytest

from retromech.core import Grid, Regime, UnitsConfig, classify_regime
from retromech.dampedwave import (
    SHOOTING_BOUND,
    DampedWaveParams,
    characteristic_roots,
    damped_well_modes,
    envelope_decay_rate,
    solve_damped_free,
    xi_from_params,
)


def classify(params):
    return classify_regime(*params.coeffs)


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
        assert sol.closed_form.is_complex
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

    def test_mode_shapes(self):
        modes = damped_well_modes(0.7, 2.0, count=2)
        grid = modes.shapes[0].grid
        x = grid.points()
        expected = np.exp(-0.7 * x) * np.sin(math.pi * x / 2.0)
        assert np.max(np.abs(modes.shapes[0].samples - expected)) <= 1e-12

    def test_shapes_built_on_first_access(self):
        modes = damped_well_modes(0.7, 2.0, count=3)
        assert "shapes" not in vars(modes)
        shapes = modes.shapes
        assert modes.shapes is shapes
        assert len(shapes) == 3 and shapes[2].grid.n == 513
        x = shapes[2].grid.points()
        expected = np.exp(-0.7 * x) * np.sin(3 * math.pi * x / 2.0)
        assert np.max(np.abs(shapes[2].samples - expected)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            damped_well_modes(-0.1, 1.0)
        with pytest.raises(ValueError):
            damped_well_modes(0.1, 0.0)

    @pytest.mark.parametrize("xi, length", [(1e160, 1.0), (0.0, 1e-170)])
    def test_overflowing_energies_rejected(self, xi, length):
        # these printed inf energies with nan residuals, or raised
        # OverflowError, instead of naming the bad parameter
        with pytest.raises(ValueError, match="finite square|overflow"):
            damped_well_modes(xi, length, count=2)


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
