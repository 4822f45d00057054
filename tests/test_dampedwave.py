import json
import math
import tracemalloc

import numpy as np
import pytest

from retromech import dampedwave
from retromech.cli import main
from retromech.core import Grid, Regime, UnitsConfig, classify_regime
from retromech.dampedwave import (
    SHOOTING_BOUND,
    SHOOTING_KH,
    SHOOTING_MIN_STEPS,
    DampedWaveParams,
    _shooting_steps,
    damped_well_modes,
    envelope_decay_rate,
    solve_damped_free,
    xi_from_params,
)


def classify(params):
    return classify_regime(*params.coeffs)


def per_mode_rk4_increment(coeffs, h):
    """The scalar RK4 stage pass, the oracle's own copy of the step."""
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


def mpmath_residuals(xi, length, count):
    """|psi(L)| of each mode from a 60-digit power of the same rounded RK4
    step P = I + D, over the step counts the library takes, so only the
    power's own rounding is left out."""
    mpmath = pytest.importorskip("mpmath")
    modes = np.arange(1, count + 1, dtype=np.float64)
    wavenumbers2 = (modes * math.pi / length) ** 2 + xi**2
    residuals = []
    with mpmath.workdps(60):
        for k2 in wavenumbers2.tolist():
            steps = _shooting_steps(math.sqrt(k2), length)
            d = per_mode_rk4_increment((2.0 * xi, k2), length / steps)
            power = (mpmath.eye(2) + mpmath.matrix(d.tolist())) ** steps
            residuals.append(float(abs(power[0, 1])))
    return np.array(residuals)


class TestXiFromParams:
    def test_unit_values(self):
        assert xi_from_params(1) == 0.5

    def test_large_b_approaches_undamped(self):
        assert xi_from_params(1e12) == pytest.approx(5e-13)

    def test_mixed_values(self):
        assert xi_from_params(4, UnitsConfig(mass=2.0)) == 0.5
        assert xi_from_params(1, UnitsConfig(hbar=0.5, mass=3.0, c_light=2.0)) == 18.0

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError, match="B must be positive"):
            xi_from_params(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^B must be positive, got -1.0$"):
            xi_from_params(-1.0)
        for B in (math.inf, math.nan):
            # inf read "B must be positive", which it is
            with pytest.raises(ValueError, match=f"^B must be finite, got {B}$"):
                xi_from_params(B)


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
        for energy in (math.inf, math.nan):
            # inf read "energy must be positive", which it is
            with pytest.raises(ValueError, match=f"^energy must be finite, got {energy}$"):
                DampedWaveParams(0.1, energy)

    @pytest.mark.parametrize("xi, energy, units, name", [
        (1e155, 0.5, UnitsConfig(), "xi"),
        (float("nan"), 0.5, UnitsConfig(), "xi"),
        (1.0, 1e300, UnitsConfig(hbar=1e-10), "wavenumber"),
    ], ids=["xi", "xi-nan", "wavenumber"])
    def test_squares_must_be_finite(self, xi, energy, units, name):
        # xi**2 and k_wave**2 raised OverflowError inside the solve
        with pytest.raises(ValueError, match=f"^{name} .* finite square"):
            DampedWaveParams(xi, energy, units)


class TestClassification:
    def test_examples(self):
        assert classify(DampedWaveParams(0.0, 0.5)) is Regime.UNDAMPED
        # k = 1 at E = 1/2 in natural units
        assert classify(DampedWaveParams(1.0, 0.5)) is Regime.CRITICAL
        assert classify(DampedWaveParams(0.5, 0.5)) is Regime.UNDERDAMPED
        assert classify(DampedWaveParams(2.0, 0.5)) is Regime.OVERDAMPED



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
        for length in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^length must be finite, got {length}$"):
                damped_well_modes(0.1, length)

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

    @pytest.mark.parametrize("xi, count", [(0.0, 30), (0.1, 30), (0.5, 30), (2.0, 30),
                                           (1e3, 30), (1e100, 2)])
    def test_shooting_matches_a_60_digit_power_of_the_same_step(self, xi, count):
        # P = I + D rounded and raised by matrix_power was off by up to 41 %.
        # Below a few roundoffs of the power's unit-size diagonal a residual
        # is rounding noise, hence the absolute floor.
        floor = 4.0 * np.finfo(np.float64).eps
        for length in (1e-9, 1e-7, 0.3, 1.0, 7.0, 50.0):
            exact = mpmath_residuals(xi, length, count)
            modes = damped_well_modes(xi, length, count=count)
            error = np.abs(modes.shooting_residuals - exact)
            assert np.all(error <= 0.05 * exact + floor), length

    @pytest.mark.parametrize("length, first", [(7.0, 17), (50.0, 10)])
    def test_error_model_sizes_the_higher_modes_of_long_wells(self, length, first):
        # the 60-digit comparison above covers steps the error model sets,
        # not only the floor, from these modes up
        above = [n for n in range(1, 31)
                 if _shooting_steps(n * math.pi / length, length) > SHOOTING_MIN_STEPS]
        assert above == list(range(first, 31))

    @pytest.mark.parametrize("xi, length, count", [(0.5, 1.0, 40), (0.1, 50.0, 30)])
    def test_residuals_within_5_percent_of_the_60_digit_power(self, xi, length, count):
        # the rounded P = I + D power was off by 33 % and 41 % here
        exact = mpmath_residuals(xi, length, count)
        modes = damped_well_modes(xi, length, count=count)
        assert np.max(np.abs(modes.shooting_residuals - exact) / exact) <= 0.05

    @pytest.mark.parametrize("xi, length, count", [(0.0, 1e8, 1), (1.0, 1e100, 2)])
    def test_long_wells_pass_where_the_rounded_power_failed(self, xi, length, count):
        # P = I + D rounded at every power left |psi(L)| = 3.1e-8 and nan
        modes = damped_well_modes(xi, length, count=count)
        assert np.max(modes.shooting_residuals) <= SHOOTING_BOUND

    def test_failed_shot_names_the_mode_the_exact_power_misses(self, monkeypatch):
        # at L = 1e10 the rounded step itself misses the absolute bound from
        # mode 2 on
        exact = mpmath_residuals(0.0, 1e10, 3)
        assert exact[0] <= SHOOTING_BOUND < exact[1]
        monkeypatch.setattr(dampedwave, "SHOOTING_ROUNDING", 0.0)
        with pytest.raises(RuntimeError, match=r"failed for mode 2: \|psi\(L\)\| = "):
            damped_well_modes(0.0, 1e10, count=3)

    @pytest.mark.parametrize("length, count", [(1e8, 5), (1e10, 3), (1e100, 1)])
    def test_bound_grows_with_the_well_length(self, length, count):
        # the rounded step misses by about eps L, which the absolute bound
        # failed at mode 5 of L = 1e8 (1.397e-08) and mode 2 of L = 1e10
        residuals = damped_well_modes(0.0, length, count=count).shooting_residuals
        assert SHOOTING_BOUND < np.max(residuals) <= 8.0 * np.finfo(np.float64).eps * length

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_shooting_in_blocks_matches_one_block(self, monkeypatch, block):
        # the block edges fall inside every case; with the bound kept
        # absolute, L = 1e10 misses from mode 2 on
        monkeypatch.setattr(dampedwave, "SHOOTING_ROUNDING", 0.0)
        cases = [(0.5, 1.0, 30), (0.0, 5.0, 200), (0.0, 1e-9, 9)]
        whole = [damped_well_modes(xi, length, count=count).shooting_residuals
                 for xi, length, count in cases]
        with pytest.raises(RuntimeError) as one:
            damped_well_modes(0.0, 1e10, count=4)
        monkeypatch.setattr(dampedwave, "SHOOTING_BLOCK", block)
        for (xi, length, count), residuals in zip(cases, whole):
            modes = damped_well_modes(xi, length, count=count)
            assert np.array_equal(modes.shooting_residuals, residuals)
        with pytest.raises(RuntimeError) as blocked:
            damped_well_modes(0.0, 1e10, count=4)
        assert str(blocked.value) == str(one.value)
        assert "mode 2:" in str(blocked.value)

    def test_short_wells_keep_kh_within_the_cap(self):
        # the floor and the error model alone took 3000 steps for mode 2703
        # of a 1e-9 well (k h = 2.83 > 2 sqrt(2), outside RK4's stability
        # interval)
        for length in (3e-9, 1e-9):
            for n in (1, 954, 955, 2703, 5000):
                k = n * math.pi / length
                steps = _shooting_steps(k, length)
                assert steps == max(SHOOTING_MIN_STEPS,
                                    math.ceil(k * length / SHOOTING_KH))
                assert k * length / steps <= SHOOTING_KH
        # from a length of 6e-7 up, the error model alone sets N
        steps = _shooting_steps(1e6 * math.pi, 1e-3)
        assert steps == math.ceil(1e3 * math.pi * (1e-3 / (60.0 * SHOOTING_BOUND)) ** 0.25)
        assert steps > SHOOTING_MIN_STEPS

    @pytest.mark.parametrize("xi, length", [(1e160, 1.0), (0.0, 1e-170)])
    def test_overflowing_energies_rejected(self, xi, length):
        # these printed inf energies with nan residuals, or raised
        # OverflowError, instead of naming the bad parameter
        with pytest.raises(ValueError, match="finite square|overflow"):
            damped_well_modes(xi, length, count=2)

    def test_overflowing_hbar_square_is_named(self, capsys):
        # hbar**2 raised "(34, 'Numerical result out of range')"
        with pytest.raises(ValueError, match=r"^hbar must have a finite square, got 1e\+200$"):
            damped_well_modes(1.0, 1.0, UnitsConfig(hbar=1e200))
        assert main(["dampedwave", "--xi", "1", "--well", "1", "--hbar", "1e200"]) == 1
        assert capsys.readouterr().err == ("error: dampedwave.damped_well_modes: hbar must "
                                           "have a finite square, got 1e+200\n")

    def test_overflowing_step_count_rejected(self):
        # math.ceil of the infinite step count raised "cannot convert float
        # infinity to integer", naming neither xi nor the well length
        with pytest.raises(ValueError, match=r"step count overflows at xi = 1e\+150 "
                                             r"and length 1e\+200"):
            damped_well_modes(1e150, 1e200, count=1)

    def test_shot_that_leaves_the_float_range_is_named(self):
        # at xi^2 = 1.69e308 the RK4 stages overflow, so the residual is not finite
        with pytest.raises(ValueError, match=r"^shooting mode 1 at xi = 1\.3e\+154 and "
                                             r"length 2\.5e\+79 leaves the float range$"):
            damped_well_modes(1.3e154, 2.5e79, count=1)

    @pytest.mark.parametrize("length, named", [("1e156", True), ("1e200", True),
                                               ("1e308", True), ("2.2e154", False),
                                               ("1e155", False)])
    def test_underflowing_wavenumber_square_is_named(self, capsys, length, named):
        # at xi = 0, (pi / L)^2 is subnormal from L = 2.1e154 and 0 from
        # 1.4e162. The first three missed their shot (|psi(L)| = 5.878e+142
        # and 1.000e+200) or took 0 * inf steps ("cannot convert float NaN
        # to integer"); the last two still land their shot.
        code = main(["dampedwave", "--xi", "0", "--well", length, "--count", "1"])
        err = capsys.readouterr().err
        if named:
            assert (code, err) == (1, "error: dampedwave.damped_well_modes: squared "
                                      "wavenumber (n pi / L)^2 + xi^2 underflows the normal "
                                      f"float range at xi = 0.0 and length {float(length)}\n")
        else:
            assert (code, err) == (0, "")


def test_well_modes_across_their_size_range(capsys):
    # no well grows, so no run may miss its residual bound; the error model
    # alone shot mode 2703 of the 1e-9 well outside RK4's stability interval
    for xi in ("0", "0.5", "1e100"):
        for count in (1, 40, 5000):
            for exponent in range(-12, 7, 3):
                argv = ["dampedwave", "--xi", xi, "--well", f"1e{exponent}",
                        "--count", str(count), "--format", "json"]
                code = main(argv)
                captured = capsys.readouterr()
                assert (code, captured.err) == (0, ""), argv
                residuals = json.loads(captured.out)["shooting_residuals"]
                assert len(residuals) == count
                assert max(residuals) <= SHOOTING_BOUND, argv


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
