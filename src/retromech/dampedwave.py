"""Damped stationary wave explorer.

For a free particle the two-phase stationary equations collapse to one
damped-oscillator ODE in space, psi'' + 2 xi psi' + k^2 psi = 0 with
k = sqrt(2 m E)/hbar, and the same equation governs both the forward- and
backward-phase functions: unlike the classical oscillator pair, neither
side is unstable. The module solves the free equation twice over
(``core``'s closed form and RK4 propagator with coefficients (2 xi, k^2),
cross-checked), classifies the damping regime, and works out the
hard-wall well whose mode energies pick up a uniform xi^2 shift,
confirmed by RK4 shooting: psi(L) from (psi, psi') = (0, 1) is one entry
of P^N - I for the RK4 step P, raised by the march's own stacked power on
P - I (``core.increment_power``), and every mode's step and power are one
stacked array pass. A shot's N keeps k h <= 1, inside RK4's stability
interval.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    NATURAL_UNITS,
    Grid,
    GridFunction,
    Regime,
    UnitsConfig,
    check_positive,
    classify_regime,
    closed_form,
    frozen,
    increment_power,
    integrate_second_order,
    is_integer,
    record_array,
    rk4_increment,
)
from .enums import Record, set_field

__all__ = [
    "DampedWaveParams",
    "DampedFreeSolution",
    "DampedWellModes",
    "xi_from_params",
    "solve_damped_free",
    "damped_well_modes",
    "envelope_decay_rate",
]

#: RK4 vs closed-form disagreement is recorded on the solution; the
#: shooting cross-check inside the well-mode computation is enforced.
SHOOTING_BOUND = 1e-8

#: A shot may also miss by this many eps L: each rounded step's phase error
#: of about eps k h, times the amplitude 1/k, adds up to eps L over the well
#: (1.3 to 3.4 eps L measured from L = 1e7 to 1e10). So the bound is
#: SHOOTING_BOUND up to L = 5.6e6 and grows with L beyond.
SHOOTING_ROUNDING = 8.0

#: Modes shot per stacked pass, which bounds the pass's working arrays at
#: any count the caller asks for. On a 2-vCPU Xeon, count 200000 peaks at
#: 37 MB RSS in blocks of 4096 (the per-mode loop: 35 MB) and at 103 MB as
#: one stack, which is also slower (1.13 s against 0.90 s a call).
SHOOTING_BLOCK = 4096

#: Fewest RK4 steps a shot takes, whatever its mode and well length.
SHOOTING_MIN_STEPS = 3000

#: Samples per slice when ``solve_damped_free`` takes its discrepancy.
_DISCREPANCY_BLOCK = 4096


def _check_xi(xi: float) -> None:
    # xi * xi overflows to inf where xi**2 would raise
    if not (xi >= 0 and math.isfinite(xi * xi)):
        raise ValueError(f"xi must be >= 0 with a finite square, got {xi}")


class DampedWaveParams(Record):
    """Damping factor xi (inverse length) and energy E > 0; the
    free-particle wavenumber k = sqrt(2 m E)/hbar is derived, so it can
    never drift out of sync with E."""

    xi: float
    energy: float
    units: UnitsConfig = NATURAL_UNITS

    def __post_init__(self):
        _check_xi(self.xi)
        check_positive("energy", self.energy)
        # k_wave * k_wave overflows to inf where k_wave**2 would raise
        if not math.isfinite(self.k_wave * self.k_wave):
            raise ValueError(f"wavenumber k = sqrt(2 m E) / hbar must have a finite "
                             f"square, got {self.k_wave}")

    @property
    def k_wave(self) -> float:
        return math.sqrt(2.0 * self.units.mass * self.energy) / self.units.hbar

    @property
    def coeffs(self) -> tuple:
        """(c1, c0) = (2 xi, k^2) of psi'' = -c1 psi' - c0 psi;
        ``classify_regime(*params.coeffs)`` gives its damping regime."""
        return 2.0 * self.xi, self.k_wave**2


def xi_from_params(B: float, units: UnitsConfig = NATURAL_UNITS) -> float:
    """Damping factor m^2 c / (2 hbar B), m, c and hbar read from ``units``.
    B = 0 is rejected: the undamped limit xi -> 0 is B -> infinity."""
    check_positive("B", B)
    return units.mass * units.mass * units.c_light / (2.0 * units.hbar * B)


class DampedFreeSolution(Record, eq=False):
    """Free-particle solution carried along both routes.

    ``closed_form`` holds :func:`core.closed_form`'s exact solution;
    ``rk4`` integrates the same initial-value problem numerically. Their
    maximum pointwise disagreement is recorded so neither route ever
    stands alone.
    """

    params: DampedWaveParams
    grid: Grid
    regime: Regime
    closed_form: GridFunction
    rk4: GridFunction
    max_discrepancy: float


def solve_damped_free(params: DampedWaveParams, grid: Grid,
                      psi0: complex = 1.0, dpsi0: complex = 0.0) -> DampedFreeSolution:
    """Solve psi'' + 2 xi psi' + k^2 psi = 0 from (psi0, psi0') at grid.a,
    both in closed form and by RK4; ``ValueError`` where they are not finite."""
    psi0 = complex(psi0)
    dpsi0 = complex(dpsi0)
    regime = classify_regime(*params.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        closed = frozen(closed_form(params.coeffs, psi0, dpsi0, grid))
        numeric = integrate_second_order(params.coeffs, psi0, dpsi0, grid)[0]
        # block by block: max, abs and subtraction are exact per element, so
        # the value is the full-grid one without two more full-grid arrays
        b = _DISCREPANCY_BLOCK
        disagreement = float(np.max([np.max(np.abs(closed[i:i + b] - numeric[i:i + b]))
                                     for i in range(0, grid.n, b)]))
    if not math.isfinite(disagreement):
        raise ValueError(f"closed form for (c1, c0) = {params.coeffs!r} is not finite")
    return DampedFreeSolution(params=params, grid=grid, regime=regime,
                              closed_form=GridFunction(grid, closed),
                              rk4=GridFunction(grid, numeric),
                              max_discrepancy=disagreement)


class DampedWellModes(Record, eq=False):
    """Hard-wall well energies for damping factor xi.

    The substitution psi = exp(-xi x) u strips the damping term, so the
    Dirichlet modes on [0, L] are exp(-xi x) sin(n pi x / L) (unnormalized)
    at E_n = (hbar^2 / 2m)(n^2 pi^2 / L^2 + xi^2). The residuals |psi(L)|
    come from an independent RK4 shooting pass from (psi, psi') = (0, 1) at
    each energy, with at least :data:`SHOOTING_MIN_STEPS` steps and more
    where a high mode or a long well needs them.
    """

    xi: float
    length: float
    units: UnitsConfig
    energies: np.ndarray
    shooting_residuals: np.ndarray

    def __post_init__(self):
        for name in ("energies", "shooting_residuals"):
            set_field(self, name, record_array(getattr(self, name), np.float64))


#: Largest k h a shot takes. The per-step RK4 phase error, which the
#: L (k h)^4 / 120 model in :func:`_shooting_steps` counts, is 0.98 of the
#: model's at k h = 0.25, 0.67 at k h = 1 and 6.7 at k h = 2.5; and every
#: h |lambda| = k h <= 1 lies inside RK4's stability region.
SHOOTING_KH = 1.0


def _shooting_steps(k: float, length: float) -> int:
    """Fewest RK4 steps N >= :data:`SHOOTING_MIN_STEPS` that shoot a mode
    of wavenumber k across [0, length] to within half of
    :data:`SHOOTING_BOUND`, with k h <= :data:`SHOOTING_KH`.

    From psi'(0) = 1 the RK4 phase error leaves |psi(L)| ~ L (k h)^4 / 120
    at a true node, so N is the smallest count with
    L (k L / N)^4 / 120 <= SHOOTING_BOUND / 2: k h stays fixed as modes get
    higher or the well gets longer. Below a length of
    60 SHOOTING_BOUND / SHOOTING_KH^4 (6e-7) that k h would pass the cap,
    which then sets N.
    """
    scale = max(1.0 / SHOOTING_KH, (length / (60.0 * SHOOTING_BOUND)) ** 0.25)
    return max(SHOOTING_MIN_STEPS, math.ceil(k * length * scale))


def damped_well_modes(xi: float, length: float,
                      units: UnitsConfig = NATURAL_UNITS,
                      count: int = 5) -> DampedWellModes:
    """Energies and shooting residuals of the lowest ``count`` hard-wall
    modes of the damped well [0, length].

    Energies are closed form, E_n = (hbar^2 / 2m)(n^2 pi^2 / L^2 + xi^2).
    Each is cross-checked by RK4 shooting from (psi, psi') = (0, 1):
    psi(L) is the (0, 1) entry of P^N for the mode's RK4 step P, read from
    P^N - I, which has the same off-diagonal. N comes from
    :func:`_shooting_steps`: at least :data:`SHOOTING_MIN_STEPS`, and enough
    that k h <= :data:`SHOOTING_KH`, so every shot lies inside RK4's
    stability region. Every residual |psi(L)| must be at most
    :data:`SHOOTING_BOUND`, or :data:`SHOOTING_ROUNDING` eps L where that
    is larger. Where xi L passes about 745, exp(-xi L) underflows and every
    residual is exactly 0, which checks nothing. Modes are shot
    :data:`SHOOTING_BLOCK` at a time, each block as one (modes, 2, 2) stack
    of increments P - I (:func:`core.rk4_increment`) raised by the march's
    stacked power on P - I (:func:`core.increment_power`).

    ``count`` is an ``int`` or ``np.integer`` >= 0 (not a ``bool``).
    Raises ``ValueError`` for a bad ``xi``, ``length`` or ``count``, for an
    hbar whose square overflows, for energies or shooting step counts that
    overflow, or where the lowest mode whose residual misses the bound (or
    whose step count is 0 * inf) has k^2 below the normal float range, as
    from L = 2.1e154 at xi = 0, or left the float range in its shot, and
    ``RuntimeError`` naming that mode where its residual is finite.
    """
    _check_xi(xi)
    check_positive("length", length)
    if not is_integer(count) or count < 0:
        raise ValueError(f"count must be an integer >= 0, got {count!r}")
    try:
        hbar2 = units.hbar**2
    except OverflowError:  # a product would overflow to inf; ** raises
        raise ValueError(f"hbar must have a finite square, got {units.hbar}") from None
    modes = np.arange(1, count + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, checked below
        wavenumbers2 = (modes * math.pi / length) ** 2 + xi**2
        energies = frozen((hbar2 / (2.0 * units.mass)) * wavenumbers2)
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"mode energies overflow at length {length} and count {count}")
    bound = max(SHOOTING_BOUND, SHOOTING_ROUNDING * np.finfo(np.float64).eps * length)
    # raised where k^2, rounded below the normal range or to 0, fails a shot
    underflow = (f"squared wavenumber (n pi / L)^2 + xi^2 underflows the normal float "
                 f"range at xi = {xi} and length {length}")
    residuals = np.empty(count)
    for start in range(0, count, SHOOTING_BLOCK):
        block = wavenumbers2[start:start + SHOOTING_BLOCK]
        try:
            steps = [_shooting_steps(math.sqrt(k2), length) for k2 in block.tolist()]
        except OverflowError:  # math.ceil of an infinite step count
            raise ValueError(f"shooting step count overflows at xi = {xi} and "
                             f"length {length}") from None
        except ValueError:  # math.ceil of 0 * inf: k^2 underflowed to 0
            raise ValueError(underflow) from None
        h = np.array([length / n for n in steps], dtype=np.float64)
        # near the float range the stages overflow; the bound below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            increments = rk4_increment((2.0 * xi, block), h).transpose(2, 0, 1)
            # psi(L) from (psi, psi') = (0, 1) is the (0, 1) entry of P^steps - I
            shots = np.abs(increment_power(increments, steps)[:, 0, 1])
        residuals[start:start + len(shots)] = shots
        missed = np.flatnonzero(~(shots <= bound))
        if missed.size:
            i = start + missed[0]
            if wavenumbers2[i] < np.finfo(np.float64).tiny:
                raise ValueError(underflow)
            if not np.isfinite(residuals[i]):
                raise ValueError(f"shooting mode {i + 1} at xi = {xi} and length "
                                 f"{length} leaves the float range")
            raise RuntimeError(
                f"shooting cross-check failed for mode {i + 1}: "
                f"|psi(L)| = {residuals[i]:.3e}"
            )
    return DampedWellModes(xi=xi, length=length, units=units, energies=energies,
                           shooting_residuals=frozen(residuals))


def envelope_decay_rate(f: GridFunction) -> float:
    """Fitted exponential decay rate of the local maxima of |f|.

    In the underdamped regime successive peaks of the solution shrink by
    exp(-xi * spacing) exactly, so the fitted rate recovers xi.
    """
    magnitude = np.abs(f.samples)
    interior = magnitude[1:-1]
    peaks_mask = (interior > magnitude[:-2]) & (interior > magnitude[2:])
    idx = np.flatnonzero(peaks_mask) + 1
    if len(idx) < 2:
        raise ValueError(f"need at least two envelope peaks, found {len(idx)}")
    x = f.grid.points()[idx]
    slope = np.polyfit(x, np.log(magnitude[idx]), 1)[0]
    return float(-slope)
