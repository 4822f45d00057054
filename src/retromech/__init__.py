"""retromech: causal/retrocausal fractional variational mechanics toolkit.

Numerical building blocks for the paired forward/backward formulation of
dissipative mechanics: left and right fractional derivative operators, a
lagrangian DSL whose generalized variational rule emits both equations of
motion, damped-oscillator solvers tied together by time reversal, a
stationary eigensolver whose states carry two opposite time phases, and a
damped free-wave explorer. Every operator ships with an independent
closed-form cross-check; ``retromech verify`` (or :func:`verify.run_all`)
runs them all.

Modules load on first use (PEP 562): ``import retromech`` and
``retromech.cli`` load no numpy, so ``derive-eom``, ``--version`` and
usage errors start without it. ``from retromech import X`` imports the
module that defines ``X``. Every record is an ``enums.Record``, so no
module loads ``dataclasses``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "core": ("NATURAL_UNITS", "Grid", "GridFunction", "Regime", "UnitsConfig",
             "UnstableIntegrationError", "classify_regime"),
    "enums": ("Direction", "Scheme"),
    "fracops": ("ComposeHalfResult", "FracOrder", "causal_frac_deriv", "compose_half",
                "gl_weights", "retrocausal_frac_deriv"),
    "lagrangian": ("ClassicalOde", "EquationOfMotion", "FreePotential",
                   "HarmonicPotential", "InfiniteWellPotential", "LagrangianSpec",
                   "ParseError", "PolynomialPotential", "ProductTerm",
                   "derive_causal_eom", "derive_retrocausal_eom", "parse_lagrangian",
                   "parse_potential", "reduce_integer_orders", "render_eom",
                   "render_lagrangian"),
    "oscillator": ("OscillatorParams", "OscillatorTrajectory", "solve_causal",
                   "solve_retrocausal", "time_reverse"),
    "eigensolver": ("EigenSolution", "SpectrumError", "WaveFunctionPair",
                    "build_hamiltonian", "density", "energy_functional", "make_pair",
                    "solve_spectrum", "stationarity_check", "superposition_density"),
    "dampedwave": ("DampedWaveParams", "damped_well_modes", "solve_damped_free",
                   "xi_from_params"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
