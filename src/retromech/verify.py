"""Built-in verification suite: every module's key properties checked
against independent closed forms at desk scale.

Each check raises AssertionError with a short diagnostic on failure; the
runner prints one line per check and reports the failure count. All
randomness is seeded, so repeated runs are identical.
"""

from __future__ import annotations

import math

import numpy as np

from . import dampedwave, eigensolver, fracops, lagrangian, oscillator
from .core import (DEFAULT_TOLERANCES, Direction, Grid, GridFunction, Regime,
                   classify_regime)

__all__ = ["run_all", "CHECKS"]

TOL = DEFAULT_TOLERANCES


def _rel_err(approx, exact):
    return np.max(np.abs(approx - exact) / np.abs(exact))


def _interior(grid: Grid) -> np.ndarray:
    t = grid.points()
    return t >= grid.a + TOL.interior_margin * (grid.b - grid.a)


# --------------------------------------------------------------------------
# fracops


def check_gl_weights():
    w = fracops.gl_weights(1.0, 4)
    assert np.allclose(w, [1, -1, 0, 0], atol=1e-15), w
    w = fracops.gl_weights(0.0, 3)
    assert np.allclose(w, [1, 0, 0], atol=1e-15), w
    w = fracops.gl_weights(0.5, 4)
    assert np.allclose(w, [1, -0.5, -0.125, -0.0625], atol=1e-15), w
    partial = np.cumsum(fracops.gl_weights(0.5, 4096))
    assert abs(partial[-1]) < 0.01, "weight sums should decay toward zero"


def check_gamma():
    assert fracops.gamma_fn(1.0) == 1.0 or abs(fracops.gamma_fn(1.0) - 1) < 1e-14
    assert abs(fracops.gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-10
    assert abs(fracops.gamma_fn(4.0) - 6.0) < 1e-9
    for x in np.linspace(0.5, 20.0, 79):
        rel = abs(fracops.gamma_fn(x) - math.gamma(x)) / math.gamma(x)
        assert rel <= TOL.gamma_rel, (x, rel)
    for pole in (0.0, -1.0, -5.0):
        try:
            fracops.gamma_fn(pole)
        except ValueError:
            continue
        raise AssertionError(f"pole {pole} not rejected")


def check_power_law():
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = _interior(grid)
    for scheme in fracops.Scheme:
        for k in (1, 2, 3):
            for alpha in (0.25, 0.5, 0.75):
                f = GridFunction(grid, t**k)
                d = fracops.causal_frac_deriv(f, alpha, scheme)
                exact = math.gamma(k + 1) / math.gamma(k + 1 - alpha) * t ** (k - alpha)
                rel = _rel_err(d.samples[inside], exact[inside])
                assert rel <= TOL.power_law_rel, (scheme, k, alpha, rel)


def check_gl_convergence_order():
    for k, alpha in ((1, 0.5), (2, 0.25), (3, 0.75)):
        errs = []
        for n in (512, 1024):
            grid = Grid(0.0, 1.0, n)
            t = grid.points()
            inside = _interior(grid)
            d = fracops.causal_frac_deriv(GridFunction(grid, t**k), alpha)
            exact = math.gamma(k + 1) / math.gamma(k + 1 - alpha) * t ** (k - alpha)
            errs.append(_rel_err(d.samples[inside], exact[inside]))
        order = math.log2(errs[0] / errs[1])
        assert order >= TOL.gl_min_order, (k, alpha, order)


def check_linearity():
    rng = np.random.default_rng(7)
    grid = Grid(0.0, 2.0, 257)
    f = GridFunction(grid, rng.standard_normal(grid.n))
    g = GridFunction(grid, rng.standard_normal(grid.n))
    combo = GridFunction(grid, 1.3 * f.samples - 0.7 * g.samples)
    for scheme in fracops.Scheme:
        for alpha in (0.5, 1.0, 1.5):
            for deriv in (fracops.causal_frac_deriv, fracops.retrocausal_frac_deriv):
                lhs = deriv(combo, alpha, scheme).samples
                rhs = (1.3 * deriv(f, alpha, scheme).samples
                       - 0.7 * deriv(g, alpha, scheme).samples)
                assert np.max(np.abs(lhs - rhs)) <= TOL.linearity_abs


def check_reflection_duality():
    # right-sided derivative of (b - t)^k mirrors the left power law
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = t <= grid.b - TOL.interior_margin * (grid.b - grid.a)
    for k in (1, 2):
        for alpha in (0.25, 0.5):
            f = GridFunction(grid, (grid.b - t) ** k)
            d = fracops.retrocausal_frac_deriv(f, alpha)
            exact = (math.gamma(k + 1) / math.gamma(k + 1 - alpha)
                     * (grid.b - t) ** (k - alpha))
            rel = _rel_err(d.samples[inside], exact[inside])
            assert rel <= TOL.reflection_rel, (k, alpha, rel)


def check_integer_reduction():
    grid = Grid(0.0, 2.0 * math.pi, 1024)
    t = grid.points()
    f = GridFunction(grid, np.sin(t))
    d1 = fracops.causal_frac_deriv(f, 1)
    assert _rel_err(d1.samples[10:-10], np.cos(t)[10:-10]) < 1e-3
    r1 = fracops.retrocausal_frac_deriv(f, 1)
    assert np.max(np.abs(r1.samples + d1.samples)) < 1e-9
    r2 = fracops.retrocausal_frac_deriv(f, 2)
    assert _rel_err(r2.samples[10:-10], -np.sin(t)[10:-10]) < 1e-2
    for direction in (fracops.causal_frac_deriv, fracops.retrocausal_frac_deriv):
        out = direction(f, 0)
        assert np.array_equal(out.samples, f.samples)


def check_semigroup():
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = _interior(grid)
    for k in (1, 2):
        res = fracops.compose_half(GridFunction(grid, t**k))
        exact = k * t ** (k - 1)
        rel = _rel_err(res.values.samples[inside], exact[inside])
        assert rel <= TOL.semigroup_rel, (k, rel)
        assert res.boundary_ok


# --------------------------------------------------------------------------
# lagrangian


REFERENCE_DSL = "1.0*q[1] + 0.3*q[0.5] + 4.0*q[0]"


def check_parse_reference():
    spec = lagrangian.parse_lagrangian(REFERENCE_DSL)
    assert [(t.coeff, t.order) for t in spec.terms] == [
        (1.0, 1), (0.3, lagrangian.ProductTerm(1, "0.5").order), (4.0, 0)]
    assert isinstance(spec.potential, lagrangian.FreePotential)


def check_el_reproduction():
    spec = lagrangian.parse_lagrangian(REFERENCE_DSL)
    causal = lagrangian.reduce_integer_orders(lagrangian.derive_causal_eom(spec))
    retro = lagrangian.reduce_integer_orders(lagrangian.derive_retrocausal_eom(spec))
    assert (causal.mass_coeff, causal.damping_coeff, causal.stiffness_coeff) == (1.0, 0.3, 4.0)
    assert (retro.mass_coeff, retro.damping_coeff, retro.stiffness_coeff) == (1.0, -0.3, 4.0)


def check_direction_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_terms = rng.integers(1, 5)
        orders = rng.choice(np.arange(0, 9) / 4.0, size=n_terms, replace=False)
        terms = tuple(
            lagrangian.ProductTerm(float(rng.uniform(0.1, 5.0)), str(o))
            for o in orders
        )
        spec = lagrangian.LagrangianSpec(terms)
        causal = lagrangian.derive_causal_eom(spec)
        retro = lagrangian.derive_retrocausal_eom(spec)
        c_set = sorted((t.coeff, t.total_order) for t in causal.terms)
        r_set = sorted((t.coeff, t.total_order) for t in retro.terms)
        assert c_set == r_set
        assert all(t.direction is Direction.CAUSAL for t in causal.terms)
        assert all(t.direction is Direction.RETROCAUSAL for t in retro.terms)


def check_render_roundtrip():
    texts = (
        REFERENCE_DSL,
        "1.0*q[1] - V(harmonic, 4.0)",
        "2.5*q[0.75] + 1*q[0] - V(poly, 0, 0, 0.5)",
    )
    for text in texts:
        spec = lagrangian.parse_lagrangian(text)
        again = lagrangian.parse_lagrangian(lagrangian.render_lagrangian(spec))
        assert again == spec, text


def check_reduction_parity_numeric():
    grid = Grid(0.0, 2.0 * math.pi, 1024)
    t = grid.points()
    f = GridFunction(grid, np.sin(t))
    trim = slice(10, -10)
    exact = {0: np.sin(t), 1: np.cos(t), 2: -np.sin(t)}
    for n in (0, 1, 2):
        r = fracops.retrocausal_frac_deriv(f, n)
        expected = (-1.0) ** n * exact[n]
        err = np.max(np.abs(r.samples[trim] - expected[trim]))
        scale = np.max(np.abs(expected[trim]))
        assert err / scale <= 1e-2, (n, err / scale)


# --------------------------------------------------------------------------
# oscillator


def _underdamped_exact(p, t):
    gamma = p.C / (2.0 * p.m)
    omega_d = math.sqrt(p.k / p.m - gamma**2)
    return np.exp(-gamma * t) * (
        p.q0 * np.cos(omega_d * t)
        + (p.v0 + gamma * p.q0) / omega_d * np.sin(omega_d * t)
    )


def check_oscillator_oracles():
    grid = Grid(0.0, 2.0 * math.pi, 6284)
    t = grid.points()
    free = oscillator.OscillatorParams(1.0, 0.0, 1.0, 1.0, 0.0)
    traj = oscillator.solve_causal(free, grid)
    assert np.max(np.abs(traj.position.samples - np.cos(t))) <= 1e-6
    under = oscillator.OscillatorParams(1.0, 0.3, 4.0, 1.0, 0.0)
    traj = oscillator.solve_causal(under, grid)
    assert np.max(np.abs(traj.position.samples - _underdamped_exact(under, t))) <= 1e-6
    crit = oscillator.OscillatorParams(1.0, 2.0, 1.0, 1.0, -1.0)
    traj = oscillator.solve_causal(crit, grid)
    assert np.max(np.abs(traj.position.samples - np.exp(-t))) <= 1e-6
    assert classify_regime(*free.coeffs) is Regime.UNDAMPED
    assert classify_regime(*under.coeffs) is Regime.UNDERDAMPED
    assert classify_regime(*crit.coeffs) is Regime.CRITICAL


def check_reflection_theorem():
    grid = Grid(0.0, 3.0, 3001)
    cases = (
        oscillator.OscillatorParams(1.0, 0.3, 4.0, 1.0, 0.0),
        oscillator.OscillatorParams(1.0, 2.0, 1.0, 1.0, -1.0),
        oscillator.OscillatorParams(1.0, 3.0, 1.0, 1.0, 0.5),
    )
    for p in cases:
        forward = oscillator.solve_causal(p, grid)
        mirrored = oscillator.OscillatorParams(p.m, p.C, p.k, p.q0, -p.v0)
        backward = oscillator.solve_retrocausal(mirrored, grid)
        reference = oscillator.time_reverse(forward.position)
        dev = np.max(np.abs(backward.position.samples - reference.samples))
        assert dev <= 1e-5, (p, dev)


def check_energy_monotonic():
    grid = Grid(0.0, 3.0, 3001)
    p = oscillator.OscillatorParams(1.0, 0.5, 4.0, 1.0, 0.0)
    energy = oscillator.solve_causal(p, grid).energy()
    assert np.max(np.diff(energy)) <= 1e-9


def check_rk4_order():
    p = oscillator.OscillatorParams(1.0, 0.3, 4.0, 1.0, 0.0)
    errs = []
    for n in (501, 1001):
        grid = Grid(0.0, 2.0, n)
        t = grid.points()
        traj = oscillator.solve_causal(p, grid)
        errs.append(np.max(np.abs(traj.position.samples - _underdamped_exact(p, t))))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.7, order


# --------------------------------------------------------------------------
# eigensolver


def check_well_spectrum():
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(well, grid), 5)
    exact = (np.arange(1, 6) * math.pi) ** 2 / 2.0
    assert np.max(np.abs(sol.energies - exact) / exact) <= 1e-3
    for n, psi in enumerate(sol.eigenfunctions):
        assert eigensolver.count_interior_nodes(psi) == n


def check_harmonic_spectrum():
    pot = lagrangian.HarmonicPotential(1.0)
    grid = eigensolver.default_grid(pot, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(pot, grid), 6)
    exact = np.arange(6) + 0.5
    assert np.max(np.abs(sol.energies - exact) / exact) <= 1e-3


def check_conjugacy_density():
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(well, grid), 3)
    pair = eigensolver.make_pair(sol, 0)
    for t in (0.1, 1.0, 7.3):
        plus = pair.psi_plus(t).samples
        minus = pair.psi_minus(t).samples
        assert np.array_equal(minus, np.conj(plus))
        rho = eigensolver.density(pair, t).samples
        assert np.max(np.abs(rho - np.abs(plus) ** 2)) <= 1e-12
    rho0 = eigensolver.density(pair, 0.0).samples
    rho5 = eigensolver.density(pair, 5.0).samples
    assert np.max(np.abs(rho0 - rho5)) <= 1e-12
    x = grid.points()
    assert np.max(np.abs(rho0 - 2.0 * np.sin(math.pi * x) ** 2)) <= 1e-4


def check_superposition():
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(well, grid), 2)
    coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 10.0, size=20):
        rho = eigensolver.superposition_density(sol, coeffs, float(t))
        assert abs(np.sum(rho.samples) * grid.h - 1.0) <= 1e-10
    t_half = math.pi / (sol.energies[1] - sol.energies[0])
    rho0 = eigensolver.superposition_density(sol, coeffs, 0.0).samples
    rho_half = eigensolver.superposition_density(sol, coeffs, t_half).samples
    assert np.max(np.abs(rho_half - rho0[::-1])) <= 1e-6


def check_stationarity():
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(well, grid), 1)
    psi = sol.eigenfunctions[0]
    value = eigensolver.energy_functional(psi, psi, well, float(sol.energies[0]))
    assert abs(value) <= 1e-6, value
    shifted = eigensolver.energy_functional(psi, psi, well, float(sol.energies[0]) + 1.0)
    assert abs(shifted - (-1.0)) <= 1e-9
    report = eigensolver.stationarity_check(sol, 0, 1e-2)
    assert report.stationary and report.min_exponent >= 1.9, report
    off = eigensolver.stationarity_check(sol, 0, 1e-2,
                                         energy_override=float(sol.energies[0]) + 0.5)
    assert not off.stationary, off


def check_rayleigh():
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    ham = eigensolver.build_hamiltonian(well, grid)
    sol = eigensolver.solve_spectrum(ham, 3)
    for n in range(3):
        v = sol.eigenfunctions[n].samples[1:-1]
        rayleigh = float(v @ ham.matvec(v) / (v @ v))
        assert abs(rayleigh - sol.energies[n]) <= 1e-8 * abs(sol.energies[n])


# --------------------------------------------------------------------------
# dampedwave


def check_damped_closed_vs_rk4():
    rng = np.random.default_rng(5)
    grid = Grid(0.0, 10.0, 5001)
    for _ in range(6):
        params = dampedwave.DampedWaveParams(float(rng.uniform(0.0, 2.5)),
                                             float(rng.uniform(0.1, 2.0)))
        sol = dampedwave.solve_damped_free(params, grid)
        assert sol.max_discrepancy <= 1e-6, (params, sol.max_discrepancy)


def check_undamped_limit():
    grid = Grid(0.0, 10.0, 5001)
    params = dampedwave.DampedWaveParams(1e-8, 0.5)
    sol = dampedwave.solve_damped_free(params, grid)
    x = grid.points()
    assert np.max(np.abs(sol.closed_form.samples - np.cos(x))) <= 1e-6


def check_damped_well():
    for xi in (0.0, 0.5, 1.0, 2.0):
        modes = dampedwave.damped_well_modes(xi, 1.0, count=5)
        exact = ((np.arange(1, 6) * math.pi) ** 2 + xi**2) / 2.0
        assert np.max(np.abs(modes.energies - exact)) <= 1e-12
        assert np.max(modes.shooting_residuals) <= 1e-8


def check_envelope():
    grid = Grid(0.0, 10.0, 10001)
    params = dampedwave.DampedWaveParams(0.2, 2.0)
    sol = dampedwave.solve_damped_free(params, grid)
    rate = dampedwave.envelope_decay_rate(sol.closed_form)
    assert abs(rate - params.xi) / params.xi <= 0.01, rate


# --------------------------------------------------------------------------
# runner

CHECKS = (
    ("fracops.gl-weights", check_gl_weights),
    ("fracops.gamma", check_gamma),
    ("fracops.power-law-oracle", check_power_law),
    ("fracops.gl-convergence-order", check_gl_convergence_order),
    ("fracops.linearity", check_linearity),
    ("fracops.reflection-duality", check_reflection_duality),
    ("fracops.integer-reduction", check_integer_reduction),
    ("fracops.semigroup", check_semigroup),
    ("lagrangian.parse-reference", check_parse_reference),
    ("lagrangian.el-reproduction", check_el_reproduction),
    ("lagrangian.direction-symmetry", check_direction_symmetry),
    ("lagrangian.render-roundtrip", check_render_roundtrip),
    ("lagrangian.reduction-parity", check_reduction_parity_numeric),
    ("oscillator.closed-forms", check_oscillator_oracles),
    ("oscillator.reflection-theorem", check_reflection_theorem),
    ("oscillator.energy-monotonic", check_energy_monotonic),
    ("oscillator.rk4-order", check_rk4_order),
    ("eigensolver.well-spectrum", check_well_spectrum),
    ("eigensolver.harmonic-spectrum", check_harmonic_spectrum),
    ("eigensolver.conjugacy-density", check_conjugacy_density),
    ("eigensolver.superposition", check_superposition),
    ("eigensolver.stationarity", check_stationarity),
    ("eigensolver.rayleigh", check_rayleigh),
    ("dampedwave.closed-vs-rk4", check_damped_closed_vs_rk4),
    ("dampedwave.undamped-limit", check_undamped_limit),
    ("dampedwave.well-shooting", check_damped_well),
    ("dampedwave.envelope-decay", check_envelope),
)


def run_all(out=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            out(f"[FAIL] {name}: {exc}")
        except Exception as exc:  # unexpected blow-up is also a failure
            failures += 1
            out(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        else:
            out(f"[ok]   {name}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
