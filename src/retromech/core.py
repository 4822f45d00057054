"""Shared substrate: uniform sample grids, grid functions, operator
directions, unit systems, the damping-regime classifier, and the
fixed-step RK4 propagator used by the time- and space-domain solvers.

Every ODE the toolkit integrates is linear with constant coefficients,
y'' = -c1 y' - c0 y, so an RK4 step is one 2x2 matrix and a march is a
sequence of its powers."""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .enums import Direction

__all__ = [
    "Direction",
    "Grid",
    "GridFunction",
    "UnitsConfig",
    "NATURAL_UNITS",
    "CRITICAL_BAND",
    "Regime",
    "classify_regime",
    "UnstableIntegrationError",
    "MARCH_BLOCK",
    "rk4_propagator",
    "integrate_second_order",
]


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of n samples on the closed interval [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.b > self.a:
            raise ValueError(f"grid needs b > a, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2, got n={self.n}")

    @property
    def h(self) -> float:
        """Sample spacing (b - a) / (n - 1)."""
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        """Abscissae a + i*h for i = 0 .. n-1."""
        return self.a + np.arange(self.n) * self.h

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real- or complex-valued samples living on a :class:`Grid`.

    Samples are copied and frozen on construction, so instances are safe
    to share across threads.
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, copy=True)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample a vectorized callable on the grid points."""
        return cls(grid, np.asarray(fn(grid.points())))

    @property
    def is_complex(self) -> bool:
        return self.samples.dtype.kind == "c"


@dataclass(frozen=True)
class UnitsConfig:
    """Physical constants entering the wave equations; natural units by
    default."""

    hbar: float = 1.0
    mass: float = 1.0
    c_light: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "c_light"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")


NATURAL_UNITS = UnitsConfig()


#: Relative band around a zero discriminant that :func:`classify_regime`
#: treats as critical damping.
CRITICAL_BAND = 1e-12


class Regime(enum.Enum):
    """Damping regime of y'' + c1 y' + c0 y = 0."""

    UNDAMPED = "undamped"
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def classify_regime(c1: float, c0: float) -> Regime:
    """Regime of y'' + c1 y' + c0 y = 0 by the sign of the discriminant
    c1^2 - 4 c0, with a relative band around zero treated as critical.

    Takes the same coefficient pair as :func:`integrate_second_order`.
    """
    if c1 == 0:
        return Regime.UNDAMPED
    disc = c1**2 - 4.0 * c0
    band = CRITICAL_BAND * max(c1**2, 4.0 * c0)
    if abs(disc) <= band:
        return Regime.CRITICAL
    return Regime.UNDERDAMPED if disc < 0 else Regime.OVERDAMPED


class UnstableIntegrationError(RuntimeError):
    """The RK4 amplitude guard tripped, or the step grows a solution that
    does not grow; carries the offending step."""

    def __init__(self, message: str, step: int, t: float, value: float):
        super().__init__(message)
        self.step = step
        self.t = t
        self.value = value


#: States per block of the march: P^0 .. P^(MARCH_BLOCK-1) are formed once,
#: and each block of output is one product of those powers with its start.
MARCH_BLOCK = 256


def rk4_propagator(coeffs, h: float) -> np.ndarray:
    """One classical RK4 step of y'' = -c1 y' - c0 y as a 2x2 matrix.

    For a linear system RK4 is exactly s_{j+1} = P s_j on the state
    s = (y, y'), with P = R(hA) the degree-4 stability polynomial of the
    companion matrix A (Hairer & Wanner, Solving ODEs II).
    """
    return np.eye(2) + _rk4_increment(coeffs, h)


def _rk4_increment(coeffs, h: float) -> np.ndarray:
    """P - I, from running the RK4 stage formulas once on the two unit
    states: its columns are the increments of the steps from (1, 0) and
    (0, 1). Kept apart from I, the O(h) increment carries full relative
    precision, which a rounded P = I + O(h) would lose at every power."""
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


def _increment_powers(d: np.ndarray, count: int) -> np.ndarray:
    """P^j - I for j = 0 .. count-1, where P = I + d, by doubling:
    P^(L+j) - I = D_L + D_j + D_L D_j fills each next stretch from the one
    before, so each power takes O(log j) products."""
    powers = np.empty((count, 2, 2))
    powers[0] = 0.0
    filled, jump = 1, d
    while filled < count:
        take = min(filled, count - filled)
        head = powers[:take]
        powers[filled:filled + take] = jump + head + jump @ head
        filled += take
        jump = 2.0 * jump + jump @ jump
    return powers


def integrate_second_order(coeffs, y0, v0, grid: Grid, *, backward: bool = False,
                           amplitude_limit: float | None = None):
    """Classical fixed-step RK4 for y'' = -c1 y' - c0 y, ``coeffs = (c1, c0)``,
    on a uniform grid.

    Marches forward from ``grid.a`` (or backward from ``grid.b`` when
    ``backward`` is set) and returns ``(y, v)`` sample arrays in forward
    grid order. Every step is the same matrix P (:func:`rk4_propagator`),
    so the march is blocked: the states of a block are the powers
    P^0 .. P^(B-1) applied to the block's start in one product, and the
    block starts are chained by P^B. Powers are held as P^j - I, so the
    march keeps the precision of a step-by-step loop.

    ``amplitude_limit`` aborts with :class:`UnstableIntegrationError` at the
    first step whose ``|y|`` exceeds it or is not finite, so a blow-up
    fails loudly instead of returning garbage. A march the guard lets
    through still raises it when h lies outside RK4's stability region
    where the exact solution does not grow (:func:`_check_step_growth`).
    """
    n = grid.n
    h = -grid.h if backward else grid.h
    is_complex = isinstance(y0, complex) or isinstance(v0, complex)
    scalar = complex if is_complex else float
    y, v = scalar(y0), scalar(v0)
    block = min(MARCH_BLOCK, n)
    starts = np.empty((-(-n // block), 2),
                      dtype=np.complex128 if is_complex else np.float64)
    # an unstable march overflows its powers; the guard reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        increment = _rk4_increment(coeffs, h)
        powers = _increment_powers(increment, block + 1)
        (d00, d01), (d10, d11) = powers[block].tolist()
        for b in range(len(starts)):
            starts[b] = y, v
            y, v = y + (d00 * y + d01 * v), v + (d10 * y + d11 * v)
        ys = starts @ powers[:block, 0].T
        ys += starts[:, :1]
        vs = starts @ powers[:block, 1].T
        vs += starts[:, 1:]
        ys, vs = ys.ravel()[:n], vs.ravel()[:n]
        if amplitude_limit is not None:
            beyond = ~(np.abs(ys[1:]) <= amplitude_limit)
            if beyond.any():
                step = int(np.argmax(beyond)) + 1
                value = float(abs(ys[step]))
                t = (grid.b if backward else grid.a) + step * h
                raise UnstableIntegrationError(
                    f"|y| = {value:.3e} exceeded the stability guard "
                    f"{amplitude_limit:.3e} at t = {t:.6g} (step {step})",
                    step=step, t=t, value=value,
                )
    _check_step_growth(coeffs, h, increment.tolist(), grid, backward, ys[-1])
    if backward:
        return ys[::-1], vs[::-1]
    return ys, vs


def _check_step_growth(coeffs, h: float, d, grid: Grid, backward: bool, y_end) -> None:
    """Raise :class:`UnstableIntegrationError` when the RK4 step P = I + d
    has spectral radius above 1 beyond roundoff while the exact flow over
    a step does not grow, max Re(h lambda) <= 0 over the roots of
    lambda^2 + c1 lambda + c0 (Hairer & Wanner, Solving ODEs II, IV.2).
    With h signed this covers backward marches too. The march then grows
    where the equation decays or oscillates: h is too large, not the
    problem unstable."""
    c1, c0 = coeffs
    root = cmath.sqrt(c1 * c1 - 4.0 * c0)
    if max((h * (-c1 + root)).real, (h * (-c1 - root)).real) > 0:
        return  # the exact solution grows too; only the amplitude guard applies
    (d00, d01), (d10, d11) = d
    half = 0.5 * (d00 + d11)
    spread = cmath.sqrt(half * half - (d00 * d11 - d01 * d10))
    # |1 + mu|^2 - 1 = 2 Re mu + |mu|^2 for each eigenvalue mu of d; the
    # entries of d carry a few units of roundoff each, hence the bound
    excess = max(2.0 * mu.real + abs(mu) * abs(mu) for mu in (half + spread,
                                                             half - spread))
    scale = 1.0 + max(abs(d00), abs(d01), abs(d10), abs(d11))
    if not excess > 16.0 * np.finfo(np.float64).eps * scale * scale:
        return
    step = grid.n - 1
    raise UnstableIntegrationError(
        f"RK4 step h = {h:.6g} (n = {grid.n}) is outside the stability region "
        f"for (c1, c0) = ({c1!r}, {c0!r}): the step grows the solution by "
        f"{(1.0 + excess) ** 0.5:.6g} per step where the exact one does not grow",
        step=step, t=(grid.b if backward else grid.a) + step * h,
        value=float(abs(y_end)),
    )
