"""Built-in verification suite: every module's key properties checked
against independent closed forms at desk scale.

``CHECKS`` is the one registry of the paper's oracles: ``retromech verify``
runs it, and the acceptance tests run each entry as one test. Every bound
is written in the check that uses it. A check fails by raising
AssertionError with a short diagnostic (through :func:`_require`, so the
checks hold under ``python -O`` too) or any other exception; the runner
prints one line per check and reports the failure count. All randomness is
seeded: every draw comes from ``random.Random(seed)``, the standard
library's generator (loading numpy.random would add its extension modules
to the process), so repeated runs are identical.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from . import dampedwave, eigensolver, fracops, lagrangian, oscillator
from .core import Grid, GridFunction, Regime, classify_regime, closed_form

__all__ = ["run_all", "CHECKS"]


def _require(ok, detail):
    """Fail the running check with ``detail`` unless ``ok``; an explicit
    raise, so ``python -O`` keeps it."""
    if not ok:
        raise AssertionError(detail)


def _rel_err(approx, exact):
    return np.max(np.abs(approx - exact) / np.abs(exact))


def _interior(grid: Grid) -> np.ndarray:
    # skip the tenth of the interval next to the singular endpoint
    t = grid.points()
    return t >= grid.a + 0.1 * (grid.b - grid.a)


def _power_law_err(d, k, alpha, s, inside):
    """Relative error of ``d`` against D^alpha s**k on ``inside``."""
    exact = math.gamma(k + 1) / math.gamma(k + 1 - alpha) * s ** (k - alpha)
    return _rel_err(d.samples[inside], exact[inside])


# --------------------------------------------------------------------------
# fracops


def check_gl_weights():
    w = fracops.gl_weights(1.0, 4)
    _require(np.allclose(w, [1, -1, 0, 0], atol=1e-15), w)
    w = fracops.gl_weights(0.0, 3)
    _require(np.allclose(w, [1, 0, 0], atol=1e-15), w)
    w = fracops.gl_weights(0.5, 4)
    _require(np.allclose(w, [1, -0.5, -0.125, -0.0625], atol=1e-15), w)
    partial = np.cumsum(fracops.gl_weights(0.5, 4096))
    _require(abs(partial[-1]) < 0.01, "weight sums should decay toward zero")


def check_power_law():
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = _interior(grid)
    for scheme in fracops.Scheme:
        for k in (1, 2, 3):
            for alpha in (0.25, 0.5, 0.75):
                f = GridFunction(grid, t**k)
                d = fracops.causal_frac_deriv(f, alpha, scheme)
                rel = _power_law_err(d, k, alpha, t, inside)
                _require(rel <= 1e-2, (scheme, k, alpha, rel))


def check_gl_convergence_order():
    for k, alpha in ((1, 0.5), (2, 0.25), (3, 0.75)):
        errs = []
        for n in (512, 1024):
            grid = Grid(0.0, 1.0, n)
            t = grid.points()
            inside = _interior(grid)
            d = fracops.causal_frac_deriv(GridFunction(grid, t**k), alpha)
            errs.append(_power_law_err(d, k, alpha, t, inside))
        order = math.log2(errs[0] / errs[1])
        _require(order >= 0.9, (k, alpha, order))


def check_linearity():
    rng = random.Random(7)
    grid = Grid(0.0, 2.0, 257)
    f, g = (GridFunction(grid, np.array([rng.gauss(0.0, 1.0) for _ in range(grid.n)]))
            for _ in range(2))
    combo = GridFunction(grid, 1.3 * f.samples - 0.7 * g.samples)
    for scheme in fracops.Scheme:
        for alpha in (0.5, 1.0, 1.5):
            for deriv in (fracops.causal_frac_deriv, fracops.retrocausal_frac_deriv):
                lhs = deriv(combo, alpha, scheme).samples
                rhs = (1.3 * deriv(f, alpha, scheme).samples
                       - 0.7 * deriv(g, alpha, scheme).samples)
                dev = np.max(np.abs(lhs - rhs))
                _require(dev <= 1e-10, (scheme, alpha, deriv.__name__, dev))


def check_reflection_duality():
    # right-sided derivative of (b - t)^k mirrors the left power law
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = t <= grid.b - 0.1 * (grid.b - grid.a)
    for k in (1, 2):
        for alpha in (0.25, 0.5):
            f = GridFunction(grid, (grid.b - t) ** k)
            d = fracops.retrocausal_frac_deriv(f, alpha)
            rel = _power_law_err(d, k, alpha, grid.b - t, inside)
            _require(rel <= 1e-2, (k, alpha, rel))


def check_integer_reduction():
    # orders 0, 1, 2 are the identity and (-1)^n d^n/dt^n in both directions
    grid = Grid(0.0, 2.0 * math.pi, 1024)
    t = grid.points()
    f = GridFunction(grid, np.sin(t))
    d1 = fracops.causal_frac_deriv(f, 1)
    _require(_rel_err(d1.samples[10:-10], np.cos(t)[10:-10]) < 1e-3, "causal order 1")
    r1 = fracops.retrocausal_frac_deriv(f, 1)
    _require(np.max(np.abs(r1.samples + d1.samples)) < 1e-9, "retrocausal order 1")
    r2 = fracops.retrocausal_frac_deriv(f, 2)
    _require(_rel_err(r2.samples[10:-10], -np.sin(t)[10:-10]) < 1e-2,
             "retrocausal order 2")
    functions = [f]
    grid = Grid(0.0, 2.0, 2048)
    t = grid.points()
    for name, samples in (("sin", np.sin(t)), ("exp", np.exp(-t)), ("cubic", t**3 - t)):
        g = GridFunction(grid, samples)
        fd = np.gradient(samples, grid.h, edge_order=2)
        dev = np.max(np.abs(fracops.retrocausal_frac_deriv(g, 1).samples + fd))
        _require(dev <= 1e-3, ("retrocausal order 1", name, dev))
        functions.append(g)
    for g in functions:
        for deriv in (fracops.causal_frac_deriv, fracops.retrocausal_frac_deriv):
            _require(np.array_equal(deriv(g, 0).samples, g.samples),
                     (deriv.__name__, "order 0", g.grid))


def check_semigroup():
    grid = Grid(0.0, 1.0, 2048)
    t = grid.points()
    inside = _interior(grid)
    for k in (1, 2):
        res = fracops.compose_half(GridFunction(grid, t**k))
        exact = k * t ** (k - 1)
        rel = _rel_err(res.values.samples[inside], exact[inside])
        _require(rel <= 2e-2, (k, rel))
        _require(res.boundary_ok, (k, "boundary flag"))


# --------------------------------------------------------------------------
# lagrangian


REFERENCE_DSL = "1.0*q[1] + 0.3*q[0.5] + 4.0*q[0]"


def check_parse_reference():
    spec = lagrangian.parse_lagrangian(REFERENCE_DSL)
    terms = [(t.coeff, t.order) for t in spec.terms]
    _require(terms == [(1.0, 1), (0.3, Fraction(1, 2)), (4.0, 0)], terms)
    _require(isinstance(spec.potential, lagrangian.FreePotential), spec.potential)


def check_el_reproduction():
    spec = lagrangian.parse_lagrangian(REFERENCE_DSL)
    causal = lagrangian.reduce_integer_orders(lagrangian.derive_causal_eom(spec))
    retro = lagrangian.reduce_integer_orders(lagrangian.derive_retrocausal_eom(spec))
    c = (causal.mass_coeff, causal.damping_coeff, causal.stiffness_coeff)
    r = (retro.mass_coeff, retro.damping_coeff, retro.stiffness_coeff)
    _require(c == (1.0, 0.3, 4.0), ("causal", c))
    _require(r == (1.0, -0.3, 4.0), ("retrocausal", r))


def check_render_roundtrip():
    texts = (
        REFERENCE_DSL,
        "1.0*q[1] - V(harmonic, 4.0)",
        "2.5*q[0.75] + 1*q[0] - V(poly, 0, 0, 0.5)",
    )
    for text in texts:
        spec = lagrangian.parse_lagrangian(text)
        again = lagrangian.parse_lagrangian(lagrangian.render_lagrangian(spec))
        _require(again == spec, text)


# --------------------------------------------------------------------------
# oscillator


def check_oscillator_oracles():
    grid = Grid(0.0, 2.0 * math.pi, 6284)
    t = grid.points()
    free = oscillator.OscillatorParams(1.0, 0.0, 1.0, 1.0, 0.0)
    under = oscillator.OscillatorParams(1.0, 0.3, 4.0, 1.0, 0.0)
    crit = oscillator.OscillatorParams(1.0, 2.0, 1.0, 1.0, -1.0)
    cases = ((free, np.cos(t), Regime.UNDAMPED),
             (under, closed_form(under.coeffs, under.q0, under.v0, grid).real,
              Regime.UNDERDAMPED),
             (crit, np.exp(-t), Regime.CRITICAL))
    for p, exact, regime in cases:
        traj = oscillator.solve_causal(p, grid)
        dev = np.max(np.abs(traj.position.samples - exact))
        _require(dev <= 1e-6, (p, dev))
        _require(classify_regime(*p.coeffs) is regime, (p, regime))


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
        _require(dev <= 1e-5, (p, dev))


def check_energy_monotonic():
    grid = Grid(0.0, 3.0, 3001)
    p = oscillator.OscillatorParams(1.0, 0.5, 4.0, 1.0, 0.0)
    energy = oscillator.solve_causal(p, grid).energy()
    rise = np.max(np.diff(energy))
    _require(rise <= 1e-9, rise)


def check_rk4_order():
    p = oscillator.OscillatorParams(1.0, 0.3, 4.0, 1.0, 0.0)
    errs = []
    for n in (501, 1001):
        grid = Grid(0.0, 2.0, n)
        traj = oscillator.solve_causal(p, grid)
        exact = closed_form(p.coeffs, p.q0, p.v0, grid).real
        errs.append(np.max(np.abs(traj.position.samples - exact)))
    order = math.log2(errs[0] / errs[1])
    _require(order >= 3.7, order)


# --------------------------------------------------------------------------
# eigensolver


def _well_solution(count):
    well = lagrangian.InfiniteWellPotential(1.0)
    grid = eigensolver.default_grid(well, 2000)
    return well, eigensolver.solve_spectrum(eigensolver.build_hamiltonian(well, grid),
                                            count)


def check_well_spectrum():
    _, sol = _well_solution(5)
    exact = (np.arange(1, 6) * math.pi) ** 2 / 2.0
    rel = np.max(np.abs(sol.energies - exact) / exact)
    _require(rel <= 1e-3, rel)
    for n, psi in enumerate(sol.eigenfunctions):
        nodes = eigensolver.count_interior_nodes(psi)
        _require(nodes == n, (n, nodes))


def check_harmonic_spectrum():
    pot = lagrangian.HarmonicPotential(1.0)
    grid = eigensolver.default_grid(pot, 2000)
    sol = eigensolver.solve_spectrum(eigensolver.build_hamiltonian(pot, grid), 6)
    exact = np.arange(6) + 0.5
    rel = np.max(np.abs(sol.energies - exact) / exact)
    _require(rel <= 1e-3, rel)


def check_conjugacy_density():
    _, sol = _well_solution(2)
    x = sol.grid.points()
    for index in (0, 1):
        pair = eigensolver.make_pair(sol, index)
        for t in (0.0, 0.1, 1.0, 7.3, 123.456):
            # psi_minus is the same profile under the backward phase exp(+iEt/hbar)
            backward = pair.spatial.samples * cmath.exp(1j * pair.energy * t / pair.hbar)
            _require(np.array_equal(pair.psi_minus(t).samples, backward),
                     (index, t, "psi_minus"))
            plus = pair.psi_plus(t).samples
            rho = eigensolver.density(pair, t).samples
            dev = np.max(np.abs(rho - np.abs(plus) ** 2))
            _require(dev <= 1e-12, (index, t, "density", dev))
        rho0 = eigensolver.density(pair, 0.0).samples
        drift = np.max(np.abs(rho0 - eigensolver.density(pair, 5.0).samples))
        _require(drift <= 1e-12, (index, "static density", drift))
        dev = np.max(np.abs(rho0 - 2.0 * np.sin((index + 1) * math.pi * x) ** 2))
        _require(dev <= 1e-4, (index, "closed-form density", dev))


def check_superposition():
    _, sol = _well_solution(3)
    mass_cases = (
        (np.array([1.0, 1.0]) / math.sqrt(2.0), 3, 10.0),
        (np.array([0.5, 0.5j, math.sqrt(0.5)]), 77, 25.0),
    )
    for coeffs, seed, t_max in mass_cases:
        rng = random.Random(seed)
        for t in [rng.uniform(0.0, t_max) for _ in range(20)]:
            rho = eigensolver.superposition_density(sol, coeffs, t)
            mass = np.sum(rho.samples) * sol.grid.h
            _require(abs(mass - 1.0) <= 1e-10, (coeffs, t, mass))
    coeffs = mass_cases[0][0]
    t_half = math.pi / (sol.energies[1] - sol.energies[0])
    rho0 = eigensolver.superposition_density(sol, coeffs, 0.0).samples
    rho_half = eigensolver.superposition_density(sol, coeffs, t_half).samples
    dev = np.max(np.abs(rho_half - rho0[::-1]))
    _require(dev <= 1e-6, ("half-period mirror", dev))


def check_stationarity():
    well, sol = _well_solution(2)
    for n in range(2):
        psi = sol.eigenfunctions[n]
        value = eigensolver.energy_functional(psi, psi, well, float(sol.energies[n]))
        _require(abs(value) <= 1e-6, (n, value))
    psi = sol.eigenfunctions[0]
    shifted = eigensolver.energy_functional(psi, psi, well, float(sol.energies[0]) + 1.0)
    _require(abs(shifted - (-1.0)) <= 1e-9, ("shifted", shifted))
    report = eigensolver.stationarity_check(sol, 0, 1e-2)
    _require(report.stationary and all(1.9 <= e <= 2.1 for e in report.exponents),
             report)
    off = eigensolver.stationarity_check(sol, 0, 1e-2,
                                         energy_override=float(sol.energies[0]) + 0.5)
    _require(not off.stationary, off)


# --------------------------------------------------------------------------
# dampedwave


def check_damped_closed_vs_rk4():
    rng = random.Random(5)
    grid = Grid(0.0, 10.0, 5001)
    for _ in range(6):
        params = dampedwave.DampedWaveParams(rng.uniform(0.0, 2.5), rng.uniform(0.1, 2.0))
        sol = dampedwave.solve_damped_free(params, grid)
        _require(sol.max_discrepancy <= 1e-6, (params, sol.max_discrepancy))


def check_undamped_limit():
    grid = Grid(0.0, 10.0, 5001)
    x = grid.points()
    for xi in (0.0, 1e-8):
        sol = dampedwave.solve_damped_free(dampedwave.DampedWaveParams(xi, 0.5), grid)
        dev = np.max(np.abs(sol.closed_form.samples - np.cos(x)))
        _require(dev <= 1e-6, (xi, dev))


def check_damped_well():
    # each mode's energy is the closed form; the independent part is the
    # shooting, and damped_well_modes raises if a shot misses the far wall
    # by more than SHOOTING_BOUND = 1e-8
    for xi in (0.0, 0.5, 1.0, 2.0):
        dampedwave.damped_well_modes(xi, 1.0, count=5)


def check_envelope():
    grid = Grid(0.0, 10.0, 10001)
    params = dampedwave.DampedWaveParams(0.2, 2.0)
    sol = dampedwave.solve_damped_free(params, grid)
    rate = dampedwave.envelope_decay_rate(sol.closed_form)
    _require(abs(rate - params.xi) / params.xi <= 0.01, rate)


# --------------------------------------------------------------------------
# runner

CHECKS = (
    ("fracops.gl-weights", check_gl_weights),
    ("fracops.power-law-oracle", check_power_law),
    ("fracops.gl-convergence-order", check_gl_convergence_order),
    ("fracops.linearity", check_linearity),
    ("fracops.reflection-duality", check_reflection_duality),
    ("fracops.integer-reduction", check_integer_reduction),
    ("fracops.semigroup", check_semigroup),
    ("lagrangian.parse-reference", check_parse_reference),
    ("lagrangian.el-reproduction", check_el_reproduction),
    ("lagrangian.render-roundtrip", check_render_roundtrip),
    ("oscillator.closed-forms", check_oscillator_oracles),
    ("oscillator.reflection-theorem", check_reflection_theorem),
    ("oscillator.energy-monotonic", check_energy_monotonic),
    ("oscillator.rk4-order", check_rk4_order),
    ("eigensolver.well-spectrum", check_well_spectrum),
    ("eigensolver.harmonic-spectrum", check_harmonic_spectrum),
    ("eigensolver.conjugacy-density", check_conjugacy_density),
    ("eigensolver.superposition", check_superposition),
    ("eigensolver.stationarity", check_stationarity),
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
