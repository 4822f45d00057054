"""Damped oscillator pair.

The dissipative equation m q'' + C q' + k q = 0 is marched forward from
initial data at the left end of the grid; its anti-damped mirror
m q'' - C q' + k q = 0 is posed as a terminal-value problem at the right
end and marched backward, which is the numerically stable direction for
it. Reversing a forward solution in time solves the mirror equation, so
the two trajectories describe one event viewed in opposite directions.

Both are marched by the shared RK4 propagator with the coefficient pairs
(C/m, k/m) and (-C/m, k/m). The backward step of the mirror is the forward
step conjugated by (q, v) -> (q, -v), so the discrete pair obeys the
reflection theorem up to roundoff. Each is marched in the direction where
its exact solution does not grow, so the one stability check it needs is
RK4's own: a step outside the stability region raises
:class:`~retromech.core.UnstableIntegrationError`, as does a march that
leaves the float range.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, GridFunction, check_positive, integrate_second_order
from .enums import Record

__all__ = [
    "OscillatorParams",
    "OscillatorTrajectory",
    "solve_causal",
    "solve_retrocausal",
    "time_reverse",
]


class OscillatorParams(Record):
    """Mass, damping, stiffness plus the boundary state (q0, v0).

    The state is read at the grid start for the causal problem and at the
    grid end for the retrocausal one. k is interchangeable with m*omega^2.
    """

    m: float
    C: float
    k: float
    q0: float
    v0: float

    def __post_init__(self):
        check_positive("mass", self.m)
        check_positive("damping", self.C, zero_ok=True)
        check_positive("stiffness", self.k, zero_ok=True)
        if not (np.isfinite(self.q0) and np.isfinite(self.v0)):
            raise ValueError("boundary state must be finite")

    @property
    def coeffs(self) -> tuple:
        """(c1, c0) = (C/m, k/m) of the damped equation q'' = -c1 q' - c0 q;
        ``classify_regime(*params.coeffs)`` gives its damping regime."""
        return self.C / self.m, self.k / self.m


class OscillatorTrajectory(Record, eq=False):
    """Integrated trajectory: position and velocity samples on the grid."""

    params: OscillatorParams
    grid: Grid
    position: GridFunction
    velocity: GridFunction

    def energy(self) -> np.ndarray:
        """Mechanical energy 0.5 m v^2 + 0.5 k q^2 at every sample.

        A sample whose square overflows (q^2 with k = 0 or tiny, v^2 with a
        tiny m) is taken again as 0.5 (m v) v + 0.5 (k q) q, so finite
        samples keep their bits. Raises ``ValueError`` where the energy
        itself leaves the float range."""
        m, k = self.params.m, self.params.k
        q = self.position.samples
        v = self.velocity.samples
        with np.errstate(over="ignore", invalid="ignore"):
            energy = 0.5 * m * v**2 + 0.5 * k * q**2
            bad = np.flatnonzero(~np.isfinite(energy))
            energy[bad] = 0.5 * (m * v[bad]) * v[bad] + 0.5 * (k * q[bad]) * q[bad]
        if not np.isfinite(energy).all():
            t = self.grid.a + int(np.argmin(np.isfinite(energy))) * self.grid.h
            raise ValueError(f"energy overflows at t = {t:.6g}")
        return energy


def solve_causal(params: OscillatorParams, grid: Grid) -> OscillatorTrajectory:
    """RK4 trajectory of m q'' + C q' + k q = 0 from (q0, v0) at grid.a.

    For C > 0 the energy decays, so the envelope of |q| shrinks toward
    equilibrium after transients."""
    q, v = integrate_second_order(params.coeffs, params.q0, params.v0, grid)
    return OscillatorTrajectory(params, grid, GridFunction(grid, q),
                                GridFunction(grid, v))


def solve_retrocausal(params: OscillatorParams, grid: Grid) -> OscillatorTrajectory:
    """RK4 trajectory of m q'' - C q' + k q = 0 with (q0, v0) read at
    grid.b, integrated backward in t (the stable direction for the
    anti-damped equation)."""
    c1, c0 = params.coeffs
    q, v = integrate_second_order((-c1, c0), params.q0, params.v0, grid,
                                  backward=True)
    return OscillatorTrajectory(params, grid, GridFunction(grid, q),
                                GridFunction(grid, v))


def time_reverse(f: GridFunction) -> GridFunction:
    """Reverse the samples: the value at t moves to a + b - t. Involution.
    The result's samples are a read-only view of ``f``'s."""
    return GridFunction(f.grid, f.samples[::-1])
