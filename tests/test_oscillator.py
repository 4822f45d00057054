import math

import numpy as np
import pytest

from retromech.core import (
    Grid,
    GridFunction,
    Regime,
    UnstableIntegrationError,
    classify_regime,
)
from retromech.oscillator import (
    OscillatorParams,
    solve_causal,
    solve_retrocausal,
    time_reverse,
)


def grid_with_step(a, b, h):
    return Grid(a, b, int(round((b - a) / h)) + 1)


def underdamped_exact(p, t):
    gamma = p.C / (2.0 * p.m)
    omega_d = math.sqrt(p.k / p.m - gamma**2)
    return np.exp(-gamma * t) * (
        p.q0 * np.cos(omega_d * t)
        + (p.v0 + gamma * p.q0) / omega_d * np.sin(omega_d * t))


def overdamped_exact(p, t):
    disc = math.sqrt(p.C**2 - 4.0 * p.m * p.k)
    r1 = (-p.C + disc) / (2.0 * p.m)
    r2 = (-p.C - disc) / (2.0 * p.m)
    a = (p.v0 - r2 * p.q0) / (r1 - r2)
    b = p.q0 - a
    return a * np.exp(r1 * t) + b * np.exp(r2 * t)


class TestClassification:
    def test_examples(self):
        def classify(*args):
            return classify_regime(*OscillatorParams(*args).coeffs)

        assert classify(1, 0, 1, 1, 0) is Regime.UNDAMPED
        assert classify(1, 2, 1, 1, 0) is Regime.CRITICAL
        assert classify(1, 0.3, 4, 1, 0) is Regime.UNDERDAMPED
        assert classify(1, 3, 1, 1, 0) is Regime.OVERDAMPED
        # mass scales both coefficients: m q'' + 2m q' + m q is critical
        assert classify(2.5, 5, 2.5, 1, 0) is Regime.CRITICAL

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(0.0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            OscillatorParams(1.0, -0.1, 1, 1, 0)
        with pytest.raises(ValueError):
            OscillatorParams(1.0, 0, -1, 1, 0)
        with pytest.raises(ValueError):
            OscillatorParams(1.0, 0, 1, float("nan"), 0)
        # inf read "stiffness must be >= 0, got inf", a rule inf keeps
        for slot, name in enumerate(("mass", "damping", "stiffness")):
            for value in (math.inf, -math.inf, math.nan):
                args = [1.0, 0.0, 1.0, 1.0, 0.0]
                args[slot] = value
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                    OscillatorParams(*args)


class TestCausal:
    def test_undamped_cosine(self):
        grid = grid_with_step(0.0, 2.0 * math.pi, 1e-3)
        traj = solve_causal(OscillatorParams(1, 0, 1, 1, 0), grid)
        assert np.max(np.abs(traj.position.samples - np.cos(grid.points()))) <= 1e-6

    def test_underdamped_closed_form(self):
        p = OscillatorParams(1, 0.3, 4, 1, 0)
        grid = grid_with_step(0.0, 2.0 * math.pi, 1e-3)
        traj = solve_causal(p, grid)
        exact = underdamped_exact(p, grid.points())
        assert np.max(np.abs(traj.position.samples - exact)) <= 1e-6

    def test_critical_closed_form(self):
        # gamma = 1 and v0 = -q0 kills the linear term: q = exp(-t)
        grid = grid_with_step(0.0, 5.0, 1e-3)
        traj = solve_causal(OscillatorParams(1, 2, 1, 1, -1), grid)
        assert np.max(np.abs(traj.position.samples - np.exp(-grid.points()))) <= 1e-6

    def test_overdamped_closed_form(self):
        p = OscillatorParams(1, 3, 1, 1, 0.5)
        grid = grid_with_step(0.0, 5.0, 1e-3)
        traj = solve_causal(p, grid)
        exact = overdamped_exact(p, grid.points())
        assert np.max(np.abs(traj.position.samples - exact)) <= 1e-6

    def test_energy_never_increases_with_damping(self):
        grid = grid_with_step(0.0, 3.0, 1e-3)
        traj = solve_causal(OscillatorParams(1, 0.5, 4, 1, 0), grid)
        assert np.max(np.diff(traj.energy())) <= 1e-9

    def test_instability_guard_aborts_loudly(self):
        # far beyond the RK4 stability limit: k h^2 is huge
        grid = Grid(0.0, 10.0, 101)
        with pytest.raises(UnstableIntegrationError) as err:
            solve_causal(OscillatorParams(1, 0, 1e8, 1, 0), grid)
        assert "RK4 step h = 0.1 (n = 101) is outside the stability region" \
            in str(err.value)

    def test_rk4_measured_order(self):
        p = OscillatorParams(1, 0.3, 4, 1, 0)
        errors = []
        for h in (4e-3, 2e-3):
            grid = grid_with_step(0.0, 2.0, h)
            traj = solve_causal(p, grid)
            errors.append(np.max(np.abs(traj.position.samples
                                        - underdamped_exact(p, grid.points()))))
        assert math.log2(errors[0] / errors[1]) >= 3.7


class TestRetrocausal:
    def test_undamped_matches_reflected_causal(self):
        grid = grid_with_step(0.0, 2.0 * math.pi, 1e-3)
        causal = solve_causal(OscillatorParams(1, 0, 1, 1, 0), grid)
        retro = solve_retrocausal(OscillatorParams(1, 0, 1, 1, 0), grid)
        reflected = time_reverse(causal.position)
        assert np.max(np.abs(retro.position.samples - reflected.samples)) <= 1e-6

    @pytest.mark.parametrize("params", [
        OscillatorParams(1, 0.3, 4, 1, 0),
        OscillatorParams(1, 2, 1, 1, -1),
        OscillatorParams(1, 3, 1, 1, 0.5),
    ], ids=["underdamped", "critical", "overdamped"])
    def test_reflection_theorem(self, params):
        # if q solves the damped equation, q(a + b - t) solves the
        # anti-damped one; the reflected terminal state is (q0, -v0)
        grid = grid_with_step(0.0, 3.0, 1e-3)
        causal = solve_causal(params, grid)
        mirrored = OscillatorParams(params.m, params.C, params.k,
                                    params.q0, -params.v0)
        retro = solve_retrocausal(mirrored, grid)
        reference = time_reverse(causal.position)
        assert np.max(np.abs(retro.position.samples - reference.samples)) <= 1e-5

    def test_backward_integration_is_stable(self):
        # strongly damped forward means strongly growing backward; the
        # terminal-value formulation keeps amplitudes bounded
        grid = grid_with_step(0.0, 3.0, 1e-3)
        retro = solve_retrocausal(OscillatorParams(1, 3, 1, 1, -0.5), grid)
        assert np.max(np.abs(retro.position.samples)) < 1e3


class TestTimeReverse:
    def test_plain_reversal(self):
        grid = Grid(0.0, 1.0, 3)
        assert np.array_equal(time_reverse(GridFunction(grid, [1, 2, 3])).samples,
                              [3, 2, 1])

    def test_involution(self):
        rng = np.random.default_rng(1)
        grid = Grid(0.0, 1.0, 33)
        f = GridFunction(grid, rng.standard_normal(33))
        assert np.array_equal(time_reverse(time_reverse(f)).samples, f.samples)

    def test_matches_midpoint_reflection(self):
        grid = Grid(0.0, 2.0 * math.pi, 129)
        t = grid.points()
        f = GridFunction(grid, np.cos(t))
        reflected = time_reverse(f)
        assert np.allclose(reflected.samples, np.cos(grid.a + grid.b - t), atol=1e-12)
