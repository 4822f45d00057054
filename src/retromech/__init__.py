"""retromech: causal/retrocausal fractional variational mechanics toolkit.

Numerical building blocks for the paired forward/backward formulation of
dissipative mechanics: left and right fractional derivative operators, a
lagrangian DSL whose generalized variational rule emits both equations of
motion, damped-oscillator solvers tied together by time reversal, a
stationary eigensolver whose states carry two opposite time phases, and a
damped free-wave explorer. Every operator ships with an independent
closed-form cross-check; ``retromech verify`` (or :func:`verify.run_all`)
runs them all.
"""

from .core import (
    DEFAULT_TOLERANCES,
    NATURAL_UNITS,
    Direction,
    Grid,
    GridFunction,
    Regime,
    ToleranceConfig,
    UnitsConfig,
    UnstableIntegrationError,
    classify_regime,
)
from .fracops import (
    ComposeHalfResult,
    FracOrder,
    Scheme,
    causal_frac_deriv,
    compose_half,
    gamma_fn,
    gl_weights,
    retrocausal_frac_deriv,
)
from .lagrangian import (
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
from .oscillator import (
    OscillatorParams,
    OscillatorTrajectory,
    solve_causal,
    solve_retrocausal,
    time_reverse,
)
from .eigensolver import (
    EigenSolution,
    SpectrumError,
    WaveFunctionPair,
    build_hamiltonian,
    density,
    energy_functional,
    make_pair,
    solve_spectrum,
    stationarity_check,
    superposition_density,
)
from .dampedwave import (
    DampedWaveParams,
    damped_well_modes,
    solve_damped_free,
    xi_from_params,
)

__version__ = "0.1.0"
