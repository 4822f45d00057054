"""Shared substrate: uniform sample grids, grid functions, operator
directions, unit systems, the damping-regime classifier, roots and closed
form, and the fixed-step RK4 propagator of the time and space solvers.

Every ODE the toolkit integrates is linear with constant coefficients,
y'' = -c1 y' - c0 y, so it has one closed form, an RK4 step is one 2x2
matrix and a march is a sequence of its powers."""

from __future__ import annotations

import cmath
import enum
import math
import operator

import numpy as np

from .enums import Direction, Record, set_field

__all__ = [
    "Direction",
    "Grid",
    "GridFunction",
    "UnitsConfig",
    "NATURAL_UNITS",
    "CRITICAL_BAND",
    "Regime",
    "classify_regime",
    "characteristic_roots",
    "closed_form",
    "UnstableIntegrationError",
    "MARCH_BLOCK",
    "rk4_increment",
    "increment_power",
    "integrate_second_order",
]


class Grid(Record):
    """Uniform lattice of n samples on the closed interval [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.b > self.a:
            raise ValueError(f"grid needs b > a, got a={self.a}, b={self.b}")
        if not is_integer(self.n):
            raise ValueError(f"grid needs an integer n, got n={self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2, got n={self.n}")

    @property
    def h(self) -> float:
        """Sample spacing (b - a) / (n - 1)."""
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        """Abscissae a + i*h for i = 0 .. n-1."""
        return self.a + np.arange(self.n) * self.h


class GridFunction(Record, eq=False):
    """Real- or complex-valued samples living on a :class:`Grid`, read-only
    (:func:`record_array`), so instances are safe to share across threads."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = record_array(self.samples)
        if arr.ndim != 1 or arr.shape[0] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {arr.shape}")
        set_field(self, "samples", arr)


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only: library code hands over each array it makes
    this way, so :func:`record_array` keeps it without a copy."""
    arr.setflags(write=False)
    return arr


def record_array(value, dtype=None) -> np.ndarray:
    """The read-only array a record holds for ``value``: a float or complex
    ``ndarray`` (of exactly ``dtype``, where given) that no one can write
    to, read-only along its whole ``.base`` chain, is kept as it is; else
    (a writeable array, a read-only view of one, a list) a copy, as
    ``dtype`` or else float64 where not float or complex, is frozen."""
    base = value  # memory that is not an ndarray's counts as writeable
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if not (base is None and type(value) is np.ndarray
            and (value.dtype == dtype if dtype else value.dtype.kind in "fc")):
        value = np.array(value, dtype=dtype)
        if value.dtype.kind not in "fc":
            value = value.astype(np.float64)
        frozen(value)
    return value


class UnitsConfig(Record):
    """Physical constants entering the wave equations; natural units by
    default."""

    hbar: float = 1.0
    mass: float = 1.0
    c_light: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "c_light"):
            check_positive(name, getattr(self, name))


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or ``np.integer``, not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_positive(name: str, value: float, *, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0 (>= 0 with ``zero_ok``)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0 or value == 0 and not zero_ok:
        raise ValueError(f"{name} must be {'>= 0' if zero_ok else 'positive'}, got {value}")


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

    Takes the same coefficient pair as :func:`integrate_second_order`. The
    discriminant is taken in half form, (c1/2)^2 - c0, with correctly
    rounded products, so it stays finite wherever (c1/2)^2 does; past that
    it raises ``OverflowError``.
    """
    if c1 == 0:
        return Regime.UNDAMPED
    half = 0.5 * c1
    disc = half * half - c0
    if not math.isfinite(disc):
        raise OverflowError(f"discriminant of (c1, c0) = ({c1!r}, {c0!r}) overflows")
    band = CRITICAL_BAND * max(half * half, c0)
    if abs(disc) <= band:
        return Regime.CRITICAL
    return Regime.UNDERDAMPED if disc < 0 else Regime.OVERDAMPED


def characteristic_roots(c1: float, c0: float) -> tuple:
    """Complex roots -c1/2 + s and -c1/2 - s, s = sqrt((c1/2)^2 - c0), of
    lambda^2 + c1 lambda + c0. Of a real pair, the root that would cancel
    is c0 over the other, divided on the real part to keep its imaginary
    zero (Vieta; Higham, Accuracy and Stability of Num. Alg., 2nd ed., 1.8)."""
    half = 0.5 * c1
    s = cmath.sqrt(half * half - c0)
    l1, l2 = -half + s, -half - s
    if s.imag == 0 and half > 0:
        l1 = complex(c0 / l2.real, l1.imag)
    elif s.imag == 0 and half < 0:
        l2 = complex(c0 / l1.real, l2.imag)
    return l1, l2


def closed_form(coeffs, y0, v0, grid: Grid) -> np.ndarray:
    """Exact solution of y'' + c1 y' + c0 y = 0, ``coeffs = (c1, c0)``, from
    (y, y') = (y0, v0) at ``grid.a``, as a complex array: with x = t - a,
    (y0 + (v0 - lam y0) x) exp(lam x), lam = -c1/2, where
    :func:`classify_regime` finds critical damping, and otherwise
    A exp(l1 x) + (y0 - A) exp(l2 x), A = (v0 - l2 y0) / (l1 - l2), over the
    :func:`characteristic_roots`. Built in place, one more array holding the
    second exponential, in the plain expression's operand order and bits;
    samples past the float range are inf or nan, under numpy's error state."""
    y0, v0 = complex(y0), complex(v0)
    x = grid.points()
    x -= grid.a
    if classify_regime(*coeffs) is Regime.CRITICAL:
        lam = -0.5 * coeffs[0]
        out = np.multiply(v0 - lam * y0, x)
        np.add(y0, out, out=out)
        x *= lam
        np.multiply(out, np.exp(x, out=x), out=out)
        return out
    l1, l2 = characteristic_roots(*coeffs)
    a = (v0 - l2 * y0) / (l1 - l2)
    out = np.multiply(l1, x)
    np.multiply(a, np.exp(out, out=out), out=out)
    second = np.multiply(l2, x)
    del x
    np.multiply(y0 - a, np.exp(second, out=second), out=second)
    out += second
    return out


class UnstableIntegrationError(RuntimeError):
    """The RK4 step grows a solution that does not grow, or the march left
    the float range."""


#: States per block of the march: P^0 .. P^(MARCH_BLOCK-1) are formed once,
#: and each block of output is one product of those powers with its start.
MARCH_BLOCK = 256


def rk4_increment(coeffs, h) -> np.ndarray:
    """P - I for one classical RK4 step of y'' = -c1 y' - c0 y.

    For a linear system RK4 is exactly s_{j+1} = P s_j on the state
    s = (y, y'), with P = R(hA) the degree-4 stability polynomial of the
    companion matrix A (Hairer & Wanner, Solving ODEs II). Running the RK4
    stage formulas once on the two unit states gives P - I: its columns
    are the increments of the steps from (1, 0) and (0, 1). Kept apart from
    I, the O(h) increment carries full relative precision, which a rounded
    P = I + O(h) would lose at every power.

    ``c0`` and ``h`` may be arrays of one shape S: the result then has shape
    (2, 2) + S, each entry's increment with the bits of the scalar call.
    """
    c1, c0 = coeffs
    # the unit states run along the first axis, ahead of the axes of h
    shape = (2,) + (1,) * np.ndim(h)
    y = np.array([1.0, 0.0]).reshape(shape)
    v = np.array([0.0, 1.0]).reshape(shape)

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


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P^(j+k) - I = a + b + a b from a = P^j - I and b = P^k - I, so no
    power of P is ever rounded as I plus its small part."""
    return a + b + a @ b


def _increment_powers(d: np.ndarray, count: int) -> np.ndarray:
    """P^j - I for j = 0 .. count-1, where P = I + d, by doubling:
    P^(L+j) - I = D_L + D_j + D_L D_j fills each next stretch from the one
    before, so each power takes O(log j) products."""
    powers = np.empty((count, 2, 2))
    powers[0] = 0.0
    filled, jump = 1, d
    while filled < count:
        take = min(filled, count - filled)
        powers[filled:filled + take] = _compose(jump, powers[:take])
        filled += take
        jump = _compose(jump, jump)
    return powers


def increment_power(d: np.ndarray, exponents) -> np.ndarray:
    """P^e - I for each step P = I + d[i] of a (m, 2, 2) stack, with
    e = exponents[i] (ints >= 0 of any size).

    The right-to-left binary method (Knuth, TAOCP vol. 2, 4.6.3) on the
    march's increments: z runs through P^(2^j) - I by squaring, and each
    set bit j of e folds z into the result, every square and product one
    stacked :func:`_compose` over the whole stack.
    """
    exponents = [operator.index(e) for e in exponents]
    power = np.zeros_like(d)
    z = d
    for j in range(max(exponents, default=0).bit_length()):
        if j % 62 == 0:  # bits j .. j + 61 of every exponent, through int64
            word = np.array([e >> j & (2**62 - 1) for e in exponents], dtype=np.int64)
        if j:
            z = _compose(z, z)
        bit = (word & (1 << j % 62)).astype(bool)
        np.copyto(power, _compose(power, z), where=bit[:, None, None])
    return power


def integrate_second_order(coeffs, y0, v0, grid: Grid, *, backward: bool = False):
    """Classical fixed-step RK4 for y'' = -c1 y' - c0 y, ``coeffs = (c1, c0)``,
    on a uniform grid.

    Marches forward from ``grid.a`` (or backward from ``grid.b`` when
    ``backward`` is set) and returns ``(y, v)``, read-only sample arrays
    in forward grid order. Every step is the same matrix P
    (:func:`rk4_increment`), so the march is blocked: the states of a
    block are the powers P^0 .. P^(B-1) applied to the block's start in
    one product, and the block starts are chained by P^B. Powers are held as P^j - I, so the
    march keeps the precision of a step-by-step loop.

    Raises :class:`UnstableIntegrationError` when h lies outside RK4's
    stability region where the exact solution does not grow
    (:func:`_check_step_growth`), and otherwise when a sample of y or y'
    is not finite, naming the first such step, so a blow-up fails loudly
    instead of returning garbage. Where the exact solution grows, the
    march grows with it until it leaves the float range.
    """
    n = grid.n
    h = -grid.h if backward else grid.h
    is_complex = isinstance(y0, complex) or isinstance(v0, complex)
    scalar = complex if is_complex else float
    y, v = scalar(y0), scalar(v0)
    block = min(MARCH_BLOCK, n)
    starts = np.empty((-(-n // block), 2),
                      dtype=np.complex128 if is_complex else np.float64)
    # an unstable march overflows its powers; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        increment = rk4_increment(coeffs, h)
        powers = _increment_powers(increment, block + 1)
        (d00, d01), (d10, d11) = powers[block].tolist()
        for b in range(len(starts)):
            starts[b] = y, v
            y, v = y + (d00 * y + d01 * v), v + (d10 * y + d11 * v)
        ys = starts @ powers[:block, 0].T
        ys += starts[:, :1]
        vs = starts @ powers[:block, 1].T
        vs += starts[:, 1:]
    ys, vs = frozen(ys).ravel()[:n], frozen(vs).ravel()[:n]
    _check_step_growth(coeffs, h, increment.tolist(), grid)
    if not (np.isfinite(ys).all() and np.isfinite(vs).all()):
        step = int(np.argmin(np.isfinite(ys) & np.isfinite(vs)))
        t = (grid.b if backward else grid.a) + step * h
        raise UnstableIntegrationError(
            f"the RK4 march for (c1, c0) = ({coeffs[0]!r}, {coeffs[1]!r}) leaves "
            f"the float range at t = {t:.6g} (step {step} of {n - 1})")
    if backward:
        return ys[::-1], vs[::-1]
    return ys, vs


def _check_step_growth(coeffs, h: float, d, grid: Grid) -> None:
    """Raise :class:`UnstableIntegrationError` when the RK4 step P = I + d
    has spectral radius above 1 beyond roundoff while the exact flow over
    a step does not grow, max Re(h lambda) <= 0 over the roots of
    lambda^2 + c1 lambda + c0 (Hairer & Wanner, Solving ODEs II, IV.2):
    h c1 >= 0 and c0 >= 0 (Routh-Hurwitz), a sign test exact at any
    magnitude and, with h signed, in either direction.
    The march then grows where the equation decays or oscillates: h is too
    large, not the problem unstable. This is the march's one stability
    check; where the exact solution grows, the march may grow with it."""
    c1, c0 = coeffs
    if h * c1 < 0 or c0 < 0:
        return  # the exact solution grows too, and the march may grow with it
    (d00, d01), (d10, d11) = d
    # |1 + mu|^2 - 1 = 2 Re mu + |mu|^2 for each eigenvalue mu of d; the
    # entries of d carry a few units of roundoff each, hence the bound.
    # A step whose entries overflow leaves excess inf or nan: it grows too.
    excess = max(2.0 * mu.real + abs(mu) * abs(mu)
                 for mu in characteristic_roots(-(d00 + d11), d00 * d11 - d01 * d10))
    scale = 1.0 + max(abs(d00), abs(d01), abs(d10), abs(d11))
    if math.isfinite(excess):
        if excess <= 16.0 * math.ulp(1.0) * scale * scale:
            return
        growth = f"grows the solution by {(1.0 + excess) ** 0.5:.6g} per step"
    else:
        growth = "overflows the float range"
    raise UnstableIntegrationError(
        f"RK4 step h = {h:.6g} (n = {grid.n}) is outside the stability region "
        f"for (c1, c0) = ({c1!r}, {c0!r}): the step {growth} where the exact "
        "one does not grow")
