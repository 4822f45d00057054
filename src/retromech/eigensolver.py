"""Stationary 1D wave-equation eigensolver with paired time phases.

The second derivative is discretized with central differences on the
interior nodes of a grid (Dirichlet walls), giving a symmetric
tridiagonal matrix whose lowest eigenpairs are extracted by bisection
plus inverse iteration. Every spatial eigenfunction carries two opposite
time phases, exp(-iEt/hbar) and exp(+iEt/hbar); the backward-phase
function is the complex conjugate of the forward one, so their pointwise
product is the familiar |psi|^2 density.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import os
import random
import sys

import numpy as np

from .core import (NATURAL_UNITS, Grid, GridFunction, UnitsConfig, frozen, is_integer,
                   record_array)
from .enums import Record, set_field
from .lagrangian import HarmonicPotential, InfiniteWellPotential, Potential

__all__ = [
    "SpectrumError",
    "DiscreteHamiltonian",
    "EigenSolution",
    "WaveFunctionPair",
    "build_hamiltonian",
    "solve_spectrum",
    "make_pair",
    "density",
    "superposition_density",
    "energy_functional",
    "stationarity_check",
    "StationarityReport",
    "default_grid",
    "count_interior_nodes",
]

#: Minimum grid size for the discretization to make sense.
MIN_GRID_POINTS = 16

#: Harmonic domains are truncated at this many natural lengths; the
#: low-lying eigenfunctions are far below double precision there.
HARMONIC_HALF_WIDTH = 12.0

#: :func:`stationarity_check` perturbs along this many random directions,
#: drawn from this seed.
STATIONARITY_TRIALS = 10
STATIONARITY_SEED = 2024


class SpectrumError(RuntimeError):
    """Eigenpair extraction failed or missed the residual bound."""


class DiscreteHamiltonian(Record, eq=False):
    """Symmetric tridiagonal operator on the interior nodes of a grid."""

    diag: np.ndarray
    offdiag: np.ndarray
    grid: Grid
    potential: Potential
    units: UnitsConfig

    def __post_init__(self):
        for name in ("diag", "offdiag"):
            set_field(self, name, record_array(getattr(self, name), np.float64))

    @property
    def dimension(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


def build_hamiltonian(potential: Potential, grid: Grid,
                      units: UnitsConfig = NATURAL_UNITS) -> DiscreteHamiltonian:
    """Central-difference Hamiltonian with Dirichlet boundaries.

    Diagonal entries are hbar^2/(m h^2) + V(x_i) on the interior nodes,
    off-diagonal entries -hbar^2/(2 m h^2).
    """
    if grid.n < MIN_GRID_POINTS:
        raise ValueError(f"grid too coarse: n = {grid.n} < {MIN_GRID_POINTS}")
    if isinstance(potential, InfiniteWellPotential):
        span = potential.length
        if abs(grid.a) > 1e-12 * span or abs(grid.b - span) > 1e-12 * span:
            raise ValueError(
                "infinite-well walls must coincide with the grid endpoints "
                f"[0, {span}], got [{grid.a}, {grid.b}]"
            )
    x_interior = grid.points()[1:-1]
    # an overflow or nan is rejected just below, naming the potential
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(potential.evaluate(x_interior), dtype=np.float64)
    if v.shape != x_interior.shape or not np.isfinite(v).all():
        raise ValueError(f"potential {potential.kind!r} is not evaluable on the grid")
    h = grid.h
    try:
        kinetic = units.hbar**2 / (units.mass * h**2)
    except ArithmeticError:  # h**2 overflowed or underflowed to zero
        kinetic = math.nan
    if not 0.0 < kinetic < math.inf:
        raise ValueError(
            "kinetic term hbar^2/(m h^2) is zero or not finite at grid spacing "
            f"h = {h!r} (n = {grid.n} on [{grid.a}, {grid.b}])"
        )
    with np.errstate(over="ignore"):
        diag = kinetic + v
    if not np.isfinite(diag).all():
        raise ValueError(f"diagonal overflows: kinetic term {kinetic!r} plus "
                         f"potential {potential.kind!r} is not finite")
    offdiag = np.full(grid.n - 3, -0.5 * kinetic)
    return DiscreteHamiltonian(frozen(diag), frozen(offdiag), grid, potential, units)


class EigenSolution(Record, eq=False):
    """Lowest eigenpairs: ascending energies and normalized eigenfunctions
    (sum psi_i^2 h = 1) embedded on the full grid with zero walls."""

    energies: np.ndarray
    eigenfunctions: tuple
    potential: Potential
    units: UnitsConfig
    grid: Grid

    def __post_init__(self):
        set_field(self, "energies", record_array(self.energies, np.float64))
        set_field(self, "eigenfunctions", tuple(self.eigenfunctions))

    @property
    def count(self) -> int:
        return len(self.energies)


@functools.cache
def _load_flapack():
    """scipy's compiled LAPACK module ``_flapack``, loaded without running
    ``scipy/linalg/__init__.py``.

    Importing ``scipy.linalg`` takes about 0.3 s (most of it in
    ``scipy._lib._array_api``), while the extension module alone loads in
    a few milliseconds. Every scipy this package supports (>= 1.10) ships
    the module in ``linalg``; where it is missing, :class:`SpectrumError`
    names the directory searched.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    linalg_dir = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:
        raise SpectrumError(f"scipy's LAPACK module _flapack is not in {linalg_dir}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension in sys.modules under its bare
    # name; take it out so the loader leaves no top-level "_flapack" behind
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module


def eigh_tridiagonal(d, e, *, count):
    """The lowest ``count`` eigenpairs, ascending, of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Runs what ``scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(0, count - 1))`` runs: LAPACK ``dstebz`` bisection in
    block order, ``dstein`` inverse iteration, then a sort by eigenvalue,
    so energies and eigenvectors are identical to scipy's bytes. The
    LAPACK module is loaded on the first call; inputs must be finite,
    since nothing here checks them. A nonzero LAPACK ``info`` raises
    :class:`SpectrumError`.
    """
    lapack = _load_flapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, count, 0.0, "B")
    if info != 0:
        raise SpectrumError(f"LAPACK dstebz bisection failed (info = {info})")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise SpectrumError(f"LAPACK dstein inverse iteration failed (info = {info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def solve_spectrum(hamiltonian: DiscreteHamiltonian, count: int) -> EigenSolution:
    """Lowest ``count`` eigenpairs by bisection plus inverse iteration.

    Every returned pair has the backward error of a stable solver: with N
    the matrix dimension and ||H||_G its largest Gershgorin row sum (an
    upper bound on ||H||_2), ||H psi - E psi|| <= sqrt(N) eps ||H||_G ||psi||
    (LAPACK Users' Guide, 3rd ed., section 4.7). An absolute bound would
    fail on a fine grid, where ||H|| grows like h^-2. Eigenfunctions are
    sign-fixed to a positive leading lobe so downstream phase checks are
    deterministic, and states of exactly equal energy are ordered by
    :func:`count_interior_nodes`.
    """
    if not is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return EigenSolution(frozen(np.empty(0)), (), hamiltonian.potential,
                             hamiltonian.units, hamiltonian.grid)
    if count > hamiltonian.dimension:
        raise ValueError(
            f"count = {count} exceeds matrix dimension {hamiltonian.dimension}"
        )
    d, e = hamiltonian.diag, hamiltonian.offdiag
    energies, vectors = eigh_tridiagonal(d, e, count=count)
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    tolerance = math.sqrt(len(d)) * np.finfo(np.float64).eps * float(rows.max())
    h = hamiltonian.grid.h
    functions = []
    for j in range(count):
        v = vectors[:, j]
        r = hamiltonian.matvec(v) - energies[j] * v
        # pairwise sums, not np.linalg.norm: its BLAS ddot runs threaded
        # for long vectors and stalls against LAPACK's still-spinning pool
        residual = math.sqrt(np.add.reduce(r * r))
        bound = tolerance * math.sqrt(np.add.reduce(v * v))
        if not residual <= bound:
            raise SpectrumError(
                f"eigenpair {j} residual {residual:.3e} exceeds bound {bound:.3e}")
        psi = np.zeros(hamiltonian.grid.n)
        psi[1:-1] = v / math.sqrt(h)
        lobe = np.flatnonzero(np.abs(psi) > 1e-3 * np.max(np.abs(psi)))[0]
        if psi[lobe] < 0:
            psi = -psi
        functions.append(GridFunction(hamiltonian.grid, frozen(psi)))
    # dstein picks any basis of a doubled eigenspace: order each run of
    # exactly equal energies by node count, as Sturm's oscillation theorem
    # orders distinct ones
    ends = [0, *(np.flatnonzero(np.diff(energies)) + 1).tolist(), count]
    for start, end in zip(ends, ends[1:]):
        if end - start > 1:
            functions[start:end] = sorted(functions[start:end], key=count_interior_nodes)
    return EigenSolution(frozen(energies), tuple(functions), hamiltonian.potential,
                         hamiltonian.units, hamiltonian.grid)


def _phase(energy: float, t: float, hbar: float) -> complex:
    """exp(-i E t / hbar); ValueError where E t / hbar is not finite."""
    angle = -1j * energy * t / hbar
    if not cmath.isfinite(angle):
        raise ValueError(f"phase E t / hbar is not finite at E = {energy}, t = {t}, "
                         f"hbar = {hbar}")
    return cmath.exp(angle)


class WaveFunctionPair(Record, eq=False):
    """One spatial eigenfunction with its two opposite time phases.

    ``psi_plus`` rotates as exp(-i E t / hbar); ``psi_minus`` is its
    complex conjugate, the same profile rotating the other way. The
    conjugacy holds exactly at every sample because psi_minus is computed
    by conjugation.
    """

    spatial: GridFunction
    energy: float
    hbar: float

    def psi_plus(self, t: float) -> GridFunction:
        phase = _phase(self.energy, t, self.hbar)
        samples = self.spatial.samples.astype(np.complex128) * phase
        return GridFunction(self.spatial.grid, frozen(samples))

    def psi_minus(self, t: float) -> GridFunction:
        return GridFunction(self.spatial.grid,
                            frozen(np.conj(self.psi_plus(t).samples)))


def _check_index(solution: EigenSolution, index: int) -> None:
    """Raise unless ``index`` is an integer naming one of the eigenstates."""
    if not is_integer(index):
        raise ValueError(f"index must be an integer, got {index!r}")
    if not 0 <= index < solution.count:
        raise IndexError(f"eigenstate index {index} out of range "
                         f"(have {solution.count})")


def make_pair(solution: EigenSolution, index: int) -> WaveFunctionPair:
    _check_index(solution, index)
    return WaveFunctionPair(solution.eigenfunctions[index],
                            float(solution.energies[index]),
                            solution.units.hbar)


def density(pair: WaveFunctionPair, t: float) -> GridFunction:
    """Pointwise product psi_plus * psi_minus at time t.

    Equals |psi|^2: real, non-negative, and time-independent for a single
    eigenstate since the opposite phases cancel.
    """
    z = pair.psi_plus(t).samples
    return GridFunction(pair.spatial.grid, frozen(z * np.conj(z)).real)


def superposition_density(solution: EigenSolution, coeffs, t: float) -> GridFunction:
    """Density of sum_n c_n psi_n exp(-i E_n t / hbar) against its
    conjugate. Coefficients must have unit norm; the result then
    integrates to one at every t and moves in time as soon as two distinct
    energies are mixed."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0 or c.size > solution.count:
        raise ValueError(f"need between 1 and {solution.count} coefficients")
    norm = float(np.sum(np.abs(c) ** 2))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"coefficients must have unit norm, got {norm!r}")
    psi = np.zeros(solution.grid.n, dtype=np.complex128)
    for n, cn in enumerate(c):
        phase = _phase(solution.energies[n], t, solution.units.hbar)
        psi += cn * phase * solution.eigenfunctions[n].samples
    return GridFunction(solution.grid, frozen(psi * np.conj(psi)).real)


def _functional(u, w, v, energy, h, units: UnitsConfig):
    """hbar^2/(2m) sum diff(u) diff(w) / h + trapezoid((V - E) u w, dx=h),
    taken along the last axis: one value for each row of ``u`` and ``w``,
    with ``v`` the potential sampled on the grid."""
    kinetic = units.hbar**2 / (2.0 * units.mass) * np.sum(
        np.diff(u) * np.diff(w), axis=-1) / h
    pot = np.trapezoid((v - energy) * u * w, dx=h, axis=-1)
    return (kinetic + pot).real


def energy_functional(psi_plus: GridFunction, psi_minus: GridFunction,
                      potential: Potential, energy: float,
                      units: UnitsConfig = NATURAL_UNITS) -> float:
    """Trapezoid value of  hbar^2/(2m) psi_plus' psi_minus' + (V - E)
    psi_plus psi_minus  over the grid.

    The gradient term integrates the piecewise-linear interpolants exactly
    (cell products of forward differences), which keeps the functional
    consistent with the discrete Hamiltonian: at a discrete eigenpair with
    E equal to its eigenvalue the value collapses to the eigen-residual.
    """
    if psi_plus.grid != psi_minus.grid:
        raise ValueError("grid mismatch between psi_plus and psi_minus")
    grid = psi_plus.grid
    v = np.asarray(potential.evaluate(grid.points()), dtype=np.float64)
    return float(_functional(psi_plus.samples, psi_minus.samples, v, energy, grid.h,
                             units))


class StationarityReport(Record):
    """Scaling of the functional under Dirichlet-respecting perturbations."""

    index: int
    energy: float
    epsilon: float
    exponents: tuple
    min_exponent: float
    stationary: bool


def stationarity_check(solution: EigenSolution, index: int,
                       perturbation_scale: float, *,
                       energy_override: float | None = None) -> StationarityReport:
    """Measure how the functional responds to perturbed eigenfunctions.

    Each perturbation eta is a random smooth combination of the first six
    Dirichlet sine modes (zero at the walls, unit norm); smoothness keeps
    its operator energy moderate so the first variation is not buried
    under the quadratic term. The functional change between scales eps and
    eps/10 yields a scaling exponent: quadratic (about 2) at a true
    eigenpair, linear (about 1) when the supplied energy is not the
    eigenvalue. ``stationary`` is set when the smallest measured exponent
    reaches 1.9.

    The :data:`STATIONARITY_TRIALS` perturbations take as many rows of 6
    normal weights, drawn row by row with
    ``random.Random(STATIONARITY_SEED).gauss``: the standard library's
    generator, which loads nothing where numpy.random would add its
    extension modules to the process. All trials are evaluated in one
    array pass per scale. Each row is summed mode by mode and normalized
    on its own, so every exponent has the bits it would have if the
    trials were evaluated one at a time with the same draws.
    """
    if not 0 < perturbation_scale <= 0.1:
        raise ValueError(f"perturbation scale must be in (0, 0.1], "
                         f"got {perturbation_scale}")
    _check_index(solution, index)
    psi = solution.eigenfunctions[index].samples
    energy = solution.energies[index] if energy_override is None else energy_override
    grid = solution.grid
    x = grid.points()
    v = np.asarray(solution.potential.evaluate(x), dtype=np.float64)
    base = float(_functional(psi, psi, v, energy, grid.h, solution.units))
    gauss = random.Random(STATIONARITY_SEED).gauss
    weights = np.array([[gauss(0.0, 1.0) for _ in range(6)]
                        for _ in range(STATIONARITY_TRIALS)])
    phase = math.pi * (x - grid.a) / (grid.b - grid.a)
    eta = np.zeros((STATIONARITY_TRIALS, grid.n))
    for j, mode in enumerate(np.sin(np.arange(1, 7)[:, None] * phase)):
        eta += weights[:, j:j + 1] * mode
    eta[:, 0] = eta[:, -1] = 0.0
    # one norm per row: a batched norm sums in another order
    eta /= np.array([np.linalg.norm(row) for row in eta])[:, None]
    deltas = []
    for eps in (perturbation_scale, perturbation_scale / 10.0):
        perturbed = psi + eps * eta
        values = _functional(perturbed, perturbed, v, energy, grid.h, solution.units)
        deltas.append(np.maximum(np.abs(values - base), 1e-300))
    exponents = tuple(math.log10(r) for r in (deltas[0] / deltas[1]).tolist())
    min_exponent = min(exponents)
    return StationarityReport(index=index, energy=float(energy),
                              epsilon=perturbation_scale,
                              exponents=exponents,
                              min_exponent=min_exponent,
                              stationary=min_exponent >= 1.9)


def default_grid(potential: Potential, n: int,
                 units: UnitsConfig = NATURAL_UNITS) -> Grid:
    """Natural solve domain: the well spans its own walls; harmonic wells
    are truncated where the low modes have decayed far below double
    precision. Other potentials need an explicit domain."""
    if isinstance(potential, InfiniteWellPotential):
        return Grid(0.0, potential.length, n)
    if isinstance(potential, HarmonicPotential):
        if potential.k <= 0:
            raise ValueError("harmonic default domain needs k > 0")
        omega = math.sqrt(potential.k / units.mass)
        x_char = math.sqrt(units.hbar / (units.mass * omega))
        return Grid(-HARMONIC_HALF_WIDTH * x_char, HARMONIC_HALF_WIDTH * x_char, n)
    raise ValueError(f"no default domain for potential {potential.kind!r}; "
                     "supply the interval explicitly")


def count_interior_nodes(f: GridFunction) -> int:
    """Number of sign changes among samples above 1e-6 times the largest
    magnitude, the noise threshold."""
    s = np.asarray(f.samples, dtype=np.float64)
    significant = s[np.abs(s) > 1e-6 * np.max(np.abs(s))]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))
