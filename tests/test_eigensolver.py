import importlib.machinery
import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from retromech import eigensolver
from retromech.cli import main
from retromech.core import Grid, GridFunction, UnitsConfig
from retromech.eigensolver import (
    EigenSolution,
    SpectrumError,
    build_hamiltonian,
    count_interior_nodes,
    default_grid,
    density,
    energy_functional,
    make_pair,
    solve_spectrum,
    stationarity_check,
    superposition_density,
)
from retromech.lagrangian import (
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    PolynomialPotential,
)

WELL = InfiniteWellPotential(1.0)


@pytest.fixture(scope="module")
def well_solution():
    grid = default_grid(WELL, 2000)
    return solve_spectrum(build_hamiltonian(WELL, grid), 5)


class TestHamiltonian:
    def test_free_structure(self):
        grid = Grid(0.0, 1.0, 16)
        ham = build_hamiltonian(FreePotential(), grid)
        kinetic = 1.0 / grid.h**2
        assert ham.dimension == 14
        assert np.allclose(ham.diag, kinetic)
        assert np.allclose(ham.offdiag, -0.5 * kinetic)

    def test_well_is_zero_inside_with_dirichlet_walls(self):
        grid = default_grid(WELL, 64)
        ham = build_hamiltonian(WELL, grid)
        assert np.allclose(ham.diag, ham.diag[0])
        with pytest.raises(ValueError, match="walls"):
            build_hamiltonian(WELL, Grid(0.0, 2.0, 64))

    def test_harmonic_diagonal_carries_potential(self):
        grid = Grid(-6.0, 6.0, 64)
        ham = build_hamiltonian(HarmonicPotential(2.0), grid)
        x = grid.points()[1:-1]
        kinetic = 1.0 / grid.h**2
        assert np.allclose(ham.diag - kinetic, 0.5 * 2.0 * x**2)

    def test_units_scale_kinetic_term(self):
        grid = Grid(0.0, 1.0, 32)
        units = UnitsConfig(hbar=2.0, mass=4.0)
        ham = build_hamiltonian(FreePotential(), grid, units)
        assert np.allclose(ham.diag, 4.0 / (4.0 * grid.h**2))

    @pytest.mark.parametrize("potential, grid, units", [
        (FreePotential(), Grid(0.0, 1e-155, 100), UnitsConfig()),  # h^-2 is inf
        (InfiniteWellPotential(1e-320), Grid(0.0, 1e-320, 100), UnitsConfig()),
        (FreePotential(), Grid(0.0, 1e200, 100), UnitsConfig()),  # h^2 overflows
        (FreePotential(), Grid(0.0, 1.0, 100), UnitsConfig(hbar=1e-200)),
    ], ids=["inf", "zero-division", "overflow", "zero"])
    def test_degenerate_kinetic_term_rejected(self, potential, grid, units):
        with pytest.raises(ValueError, match=r"kinetic term .* h = .*n = 100 on"):
            build_hamiltonian(potential, grid, units)

    def test_overflowing_diagonal_rejected(self):
        pot = PolynomialPotential((1.79e308,))
        with pytest.raises(ValueError, match="diagonal overflows"):
            build_hamiltonian(pot, Grid(0.0, 1e-151, 100))

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            build_hamiltonian(FreePotential(), Grid(0.0, 1.0, 8))


class TestSpectrum:
    def test_well_energies(self, well_solution):
        exact = (np.arange(1, 6) * math.pi) ** 2 / 2.0
        rel = np.abs(well_solution.energies - exact) / exact
        assert np.max(rel) <= 1e-3
        assert abs(well_solution.energies[0] - 4.9348) < 5e-3
        assert abs(well_solution.energies[1] - 19.7392) < 2e-2

    def test_harmonic_energies(self):
        pot = HarmonicPotential(1.0)
        grid = default_grid(pot, 2000)
        sol = solve_spectrum(build_hamiltonian(pot, grid), 6)
        exact = np.arange(6) + 0.5
        assert np.max(np.abs(sol.energies - exact) / exact) <= 1e-3

    def test_normalization_and_ordering(self, well_solution):
        h = well_solution.grid.h
        for psi in well_solution.eigenfunctions:
            assert abs(np.sum(psi.samples**2) * h - 1.0) <= 1e-10
        assert np.all(np.diff(well_solution.energies) > 0)

    def test_sturm_node_counts(self, well_solution):
        for n, psi in enumerate(well_solution.eigenfunctions):
            assert count_interior_nodes(psi) == n

    @pytest.mark.parametrize("n", [501, 2000, 4000])
    def test_tied_doublets_are_ordered_by_node_count(self, n):
        # the double well's doublets are equal in float64, and dstein's basis
        # of each came out as 1, 0, 2, 3 (n = 2000), 0, 1, 3, 2 (4000) and
        # 1, 0, 3, 2 (501) nodes
        ham = build_hamiltonian(PolynomialPotential((0.0, 0.0, -20.0, 0.0, 1.0)),
                                Grid(-7.0, 7.0, n))
        sol = solve_spectrum(ham, 4)
        assert sol.energies[0] == sol.energies[1] and sol.energies[2] == sol.energies[3]
        assert [count_interior_nodes(psi) for psi in sol.eigenfunctions] == [0, 1, 2, 3]
        energies = scipy.linalg.eigh_tridiagonal(ham.diag, ham.offdiag, eigvals_only=True,
                                                 select="i", select_range=(0, 3))
        assert np.array_equal(sol.energies, energies)

    def test_rayleigh_quotient_consistency(self, well_solution):
        ham = build_hamiltonian(WELL, well_solution.grid)
        for n in range(well_solution.count):
            v = well_solution.eigenfunctions[n].samples[1:-1]
            rayleigh = float(v @ ham.matvec(v) / (v @ v))
            assert abs(rayleigh - well_solution.energies[n]) \
                <= 1e-8 * well_solution.energies[n]

    def test_separate_solves_share_spectrum(self):
        # the two stationary problems are the same discretized operator;
        # building and solving twice must reproduce identical eigenvalues
        grid = default_grid(WELL, 500)
        first = solve_spectrum(build_hamiltonian(WELL, grid), 3)
        second = solve_spectrum(build_hamiltonian(WELL, grid), 3)
        assert np.max(np.abs(first.energies - second.energies)) <= 1e-12

    def test_empty_and_invalid_counts(self):
        grid = default_grid(WELL, 100)
        ham = build_hamiltonian(WELL, grid)
        empty = solve_spectrum(ham, 0)
        assert empty.count == 0 and empty.eigenfunctions == ()
        with pytest.raises(ValueError, match="exceeds"):
            solve_spectrum(ham, ham.dimension + 1)

    @pytest.mark.parametrize("count", [True, 2.5, 3.0, "3"])
    def test_count_must_be_an_integer_before_lapack_runs(self, monkeypatch, count):
        # True gave one pair, and 2.5 ran LAPACK before range(count) raised
        ham = build_hamiltonian(WELL, default_grid(WELL, 100))

        def unreached(*args, **kwargs):
            raise AssertionError("LAPACK ran")

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", unreached)
        with pytest.raises(ValueError,
                           match=re.escape(f"count must be an integer, got {count!r}")):
            solve_spectrum(ham, count)

    def test_numpy_integer_count_accepted(self):
        ham = build_hamiltonian(WELL, default_grid(WELL, 100))
        assert solve_spectrum(ham, np.int64(2)).count == 2

    def test_solution_copies_a_writeable_energy_array(self):
        grid = default_grid(WELL, 100)
        energies = np.array([1.0, 2.0])
        sol = EigenSolution(energies, [], WELL, UnitsConfig(), grid)
        assert energies.flags.writeable and sol.energies is not energies
        assert not sol.energies.flags.writeable
        energies[0] = 5.0
        assert sol.energies.tolist() == [1.0, 2.0]
        # a read-only array with no writeable base is kept as it is
        assert EigenSolution(sol.energies, (), WELL, UnitsConfig(), grid).energies \
            is sol.energies

    def test_spectrum_keeps_the_energy_array_it_computed(self, monkeypatch):
        computed = []

        def recording(*args, **kwargs):
            energies, vectors = real(*args, **kwargs)
            computed.append(energies)
            return energies, vectors

        real = eigensolver.eigh_tridiagonal
        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", recording)
        sol = solve_spectrum(build_hamiltonian(WELL, default_grid(WELL, 100)), 3)
        assert sol.energies is computed[0] and not sol.energies.flags.writeable

    @pytest.mark.parametrize("potential, n, count", [
        (WELL, 2000, 5), (WELL, 3000, 3), (HarmonicPotential(1.0), 2000, 6),
        (HarmonicPotential(1.0), 20000, 20), (HarmonicPotential(2.3), 20000, 20),
    ], ids=["well-2000", "well-3000", "harmonic-2000", "harmonic-20000",
            "harmonic-2.3-20000"])
    def test_residuals_keep_the_absolute_bound_they_met(self, potential, n, count):
        # solve_spectrum bounds the backward error sqrt(N) eps ||H||_G ||v||,
        # which for the well is looser than 1e-8 ||v|| above n = 870; these
        # cases met the absolute bound before it and still must
        ham = build_hamiltonian(potential, default_grid(potential, n))
        assert solve_spectrum(ham, count).count == count
        w, v = eigensolver.eigh_tridiagonal(ham.diag, ham.offdiag, count=count)
        for j in range(count):
            residual = np.linalg.norm(ham.matvec(v[:, j]) - w[j] * v[:, j])
            assert residual <= 1e-8 * np.linalg.norm(v[:, j])

    def test_residual_failure_names_pair_residual_and_bound(self, monkeypatch):
        exact = eigensolver.eigh_tridiagonal

        def shifted(d, e, *, count):
            w, v = exact(d, e, count=count)
            return w + np.array([0.0, 1e-6, 0.0]), v

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", shifted)
        ham = build_hamiltonian(WELL, default_grid(WELL, 100))
        # bound sqrt(98) eps (|d| + 2 |e|) at h = 1/99, for unit-norm v
        bound = math.sqrt(98) * np.finfo(np.float64).eps * 2.0 * 99.0**2
        with pytest.raises(SpectrumError, match=rf"^eigenpair 1 residual 1\.000e-06 "
                                                rf"exceeds bound {bound:.3e}$"):
            solve_spectrum(ham, 3)

    def test_polynomial_potential_supported(self):
        pot = PolynomialPotential((0.0, 0.0, 0.5))  # same as harmonic k=1
        grid = Grid(-12.0, 12.0, 1500)
        sol = solve_spectrum(build_hamiltonian(pot, grid), 3)
        assert np.max(np.abs(sol.energies - (np.arange(3) + 0.5))) <= 1e-3

    def test_default_grid_requires_known_potential(self):
        with pytest.raises(ValueError, match="default domain"):
            default_grid(FreePotential(), 100)


LAPACK_CASES = [
    (WELL, 2000, 5),
    (WELL, 3000, 3),
    (HarmonicPotential(2.3), 20000, 20),
    (WELL, 2000, 1),
    (WELL, 16, 14),  # every eigenpair of the 14 interior nodes
]
LAPACK_IDS = ["well-2000", "well-3000", "harmonic-20000-count20", "count1", "full-n16"]


@pytest.fixture
def hidden_flapack(monkeypatch):
    """Hide ``_flapack`` from the direct loader, as an install without the
    module file would; the cached module is reloaded afterwards."""
    find_spec = importlib.machinery.PathFinder.find_spec

    def without_flapack(name, path=None, target=None):
        return None if name == "_flapack" else find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", without_flapack)
    eigensolver._load_flapack.cache_clear()
    yield
    eigensolver._load_flapack.cache_clear()


class TestLapack:
    @staticmethod
    def assert_matches_scipy(potential, n, count):
        ham = build_hamiltonian(potential, default_grid(potential, n))
        w, v = eigensolver.eigh_tridiagonal(ham.diag, ham.offdiag, count=count)
        w_ref, v_ref = scipy.linalg.eigh_tridiagonal(ham.diag, ham.offdiag, select="i",
                                                     select_range=(0, count - 1))
        assert w.shape == (count,) and v.shape == (ham.dimension, count)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("potential, n, count", LAPACK_CASES, ids=LAPACK_IDS)
    def test_direct_module_matches_scipy_bytes(self, potential, n, count):
        self.assert_matches_scipy(potential, n, count)
        assert eigensolver._load_flapack().__name__ == "_flapack"
        assert "_flapack" not in sys.modules

    def test_missing_module_is_spectrum_error(self, hidden_flapack):
        # scipy.linalg.lapack stood in for it, a path no supported scipy takes
        linalg_dir = os.path.dirname(scipy.linalg.__file__)
        with pytest.raises(SpectrumError, match=re.escape(
                f"scipy's LAPACK module _flapack is not in {linalg_dir}")):
            eigensolver._load_flapack()

    def test_missing_module_exits_1_naming_the_eigensolver(self, hidden_flapack,
                                                           capsys):
        assert main(["eigensolve", "--potential", "well, 1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eigensolver.solve_spectrum: ")
        assert captured.err.count("\n") == 1

    def test_split_matrix_sorted_like_scipy(self):
        # a zero off-diagonal splits the matrix; dstebz returns the
        # eigenvalues block by block, and the higher block comes first here
        d = np.array([9.0, 8.0, 7.0, 6.0, 1.0, 2.0, 3.0, 4.0])
        e = np.array([-1.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0])
        w, v = eigensolver.eigh_tridiagonal(d, e, count=8)
        w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                                     select_range=(0, 7))
        assert np.all(np.diff(w) > 0)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    def test_bisection_failure_is_spectrum_error(self):
        # LAPACK dstebz returns info = 4 on this 1e-152-wide well
        well = InfiniteWellPotential(1e-152)
        ham = build_hamiltonian(well, default_grid(well, 100))
        with pytest.raises(SpectrumError, match="dstebz"):
            solve_spectrum(ham, 3)

    def test_direct_module_coexists_with_scipy_linalg(self):
        # the direct module is loaded first; scipy's own import of the same
        # extension afterwards must not disturb either
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from retromech import eigensolver\n"
            "d = 2.0 + np.arange(60.0) / 7.0\n"
            "e = -np.ones(59)\n"
            "w1, v1 = eigensolver.eigh_tridiagonal(d, e, count=10)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "w2, v2 = scipy.linalg.eigh_tridiagonal(d, e, select='i',\n"
            "                                       select_range=(0, 9))\n"
            "w3, v3 = eigensolver.eigh_tridiagonal(d, e, count=10)\n"
            "same = [a.tobytes() == b.tobytes() for a, b in\n"
            "        ((w1, w2), (w1, w3), (v1, v2), (v1, v3))]\n"
            "print(all(same))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(eigensolver.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.strip() == "True"


class TestWaveFunctionPair:
    def test_index_out_of_range(self, well_solution):
        with pytest.raises(IndexError):
            make_pair(well_solution, 5)

    @pytest.mark.parametrize("index", [True, 0.5, 1.0, "1"])
    def test_index_must_be_an_integer(self, well_solution, index):
        # numpy indexing took True, and 0.5 or 1.0 failed on "tuple indices"
        text = re.escape(f"index must be an integer, got {index!r}")
        with pytest.raises(ValueError, match=text):
            make_pair(well_solution, index)
        with pytest.raises(ValueError, match=text):
            stationarity_check(well_solution, index, 1e-2)
        assert make_pair(well_solution, np.int64(1)).energy == well_solution.energies[1]

    def test_phases_are_unity_at_t0(self, well_solution):
        pair = make_pair(well_solution, 0)
        plus = pair.psi_plus(0.0).samples
        minus = pair.psi_minus(0.0).samples
        assert np.array_equal(plus, minus)
        assert np.max(np.abs(plus.imag)) == 0.0
        assert np.array_equal(plus.real, pair.spatial.samples)

    @pytest.mark.parametrize("t", [0.1, 1.0, 7.3])
    def test_conjugacy_exact(self, well_solution, t):
        pair = make_pair(well_solution, 1)
        assert np.array_equal(pair.psi_minus(t).samples,
                              np.conj(pair.psi_plus(t).samples))

    def test_backward_phase_matches_direct_evaluation(self, well_solution):
        pair = make_pair(well_solution, 0)
        t = 0.37
        direct = pair.spatial.samples * np.exp(1j * pair.energy * t / pair.hbar)
        assert np.max(np.abs(pair.psi_minus(t).samples - direct)) <= 1e-15

    def test_quarter_period_phase_is_minus_i(self, well_solution):
        pair = make_pair(well_solution, 0)
        t = math.pi * pair.hbar / (2.0 * pair.energy)
        expected = -1j * pair.spatial.samples.astype(np.complex128)
        assert np.max(np.abs(pair.psi_plus(t).samples - expected)) <= 1e-12


class TestDensity:
    def test_ground_state_profile(self, well_solution):
        pair = make_pair(well_solution, 0)
        x = well_solution.grid.points()
        rho = density(pair, 0.0)
        assert np.max(np.abs(rho.samples - 2.0 * np.sin(math.pi * x) ** 2)) <= 1e-4

    def test_density_equals_modulus_squared(self, well_solution):
        pair = make_pair(well_solution, 2)
        for t in (0.0, 1.3):
            rho = density(pair, t).samples
            assert np.max(np.abs(rho - np.abs(pair.psi_plus(t).samples) ** 2)) <= 1e-12
            assert np.min(rho) >= 0.0

    def test_each_eigenstate_density_integrates_to_one(self, well_solution):
        h = well_solution.grid.h
        for n in range(well_solution.count):
            rho = density(make_pair(well_solution, n), 0.0)
            assert abs(np.sum(rho.samples) * h - 1.0) <= 1e-10

    def test_time_independence(self, well_solution):
        pair = make_pair(well_solution, 0)
        rho0 = density(pair, 0.0).samples
        rho5 = density(pair, 5.0).samples
        assert np.max(np.abs(rho0 - rho5)) <= 1e-12


class TestSuperposition:
    def test_single_coefficient_reduces_to_eigen_density(self, well_solution):
        rho_super = superposition_density(well_solution, [1.0], 2.0)
        rho_eigen = density(make_pair(well_solution, 0), 2.0)
        assert np.max(np.abs(rho_super.samples - rho_eigen.samples)) <= 1e-12

    def test_two_level_mix_reflects_after_half_beat(self, well_solution):
        coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
        beat = math.pi / (well_solution.energies[1] - well_solution.energies[0])
        rho0 = superposition_density(well_solution, coeffs, 0.0).samples
        rho1 = superposition_density(well_solution, coeffs, beat).samples
        assert np.max(np.abs(rho1 - rho0[::-1])) <= 1e-6

    def test_unit_mass_at_random_times(self, well_solution):
        coeffs = np.array([0.6, 0.8j, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(17)
        h = well_solution.grid.h
        for t in rng.uniform(0.0, 50.0, size=20):
            rho = superposition_density(well_solution, coeffs, float(t))
            assert abs(np.sum(rho.samples) * h - 1.0) <= 1e-10

    def test_unnormalized_rejected(self, well_solution):
        with pytest.raises(ValueError, match="unit norm"):
            superposition_density(well_solution, [1.0, 1.0], 0.0)

    def test_phase_that_leaves_the_float_range_is_named(self, well_solution):
        # E t / hbar overflowed at t = 1e308, and both densities came out
        # NaN without an error; at 1e306 they still integrate to one
        coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
        h = well_solution.grid.h
        for rho in (density(make_pair(well_solution, 0), 1e306),
                    superposition_density(well_solution, coeffs, 1e306)):
            assert abs(np.sum(rho.samples) * h - 1.0) <= 1e-10
        text = (f"phase E t / hbar is not finite at E = {well_solution.energies[0]}, "
                "t = 1e+308, hbar = 1.0")
        with pytest.raises(ValueError, match=re.escape(text)):
            density(make_pair(well_solution, 0), 1e308)
        with pytest.raises(ValueError, match=re.escape(text)):
            superposition_density(well_solution, coeffs, 1e308)


class TestEnergyFunctional:
    def test_vanishes_at_eigenpair(self, well_solution):
        for n in (0, 1):
            psi = well_solution.eigenfunctions[n]
            value = energy_functional(psi, psi, WELL,
                                      float(well_solution.energies[n]))
            assert abs(value) <= 1e-6

    def test_linear_in_energy_with_unit_slope(self, well_solution):
        psi = well_solution.eigenfunctions[0]
        value = energy_functional(psi, psi, WELL,
                                  float(well_solution.energies[0]) + 1.0)
        assert abs(value - (-1.0)) <= 1e-9

    def test_zero_functions(self, well_solution):
        zero = GridFunction(well_solution.grid, np.zeros(well_solution.grid.n))
        assert energy_functional(zero, zero, WELL, 3.0) == 0.0

    def test_grid_mismatch_rejected(self, well_solution):
        other = GridFunction(Grid(0.0, 1.0, 50), np.zeros(50))
        with pytest.raises(ValueError, match="mismatch"):
            energy_functional(well_solution.eigenfunctions[0], other, WELL, 1.0)


def per_trial_stationarity(solution, index, perturbation_scale, *, trials, seed,
                           energy_override):
    """Frozen reference: the stationarity probe as a loop over trials, six
    sine calls per perturbation and one functional evaluation (potential
    included) per value. The batched probe must give the same bits."""
    grid, units = solution.grid, solution.units
    h = grid.h

    def functional(u, energy):
        kinetic = units.hbar**2 / (2.0 * units.mass) * np.sum(np.diff(u) * np.diff(u)) / h
        v = np.asarray(solution.potential.evaluate(grid.points()), dtype=np.float64)
        pot = np.trapezoid((v - energy) * u * u, dx=h)
        return float((kinetic + pot).real)

    psi = solution.eigenfunctions[index].samples
    energy = solution.energies[index] if energy_override is None else energy_override
    base = functional(psi, energy)
    rng = random.Random(seed)
    phase = math.pi * (grid.points() - grid.a) / (grid.b - grid.a)
    exponents = []
    for _ in range(trials):
        eta = np.zeros(grid.n)
        for mode, weight in enumerate([rng.gauss(0.0, 1.0) for _ in range(6)], start=1):
            eta += weight * np.sin(mode * phase)
        eta[0] = eta[-1] = 0.0
        eta /= np.linalg.norm(eta)
        deltas = [max(abs(functional(psi + eps * eta, energy) - base), 1e-300)
                  for eps in (perturbation_scale, perturbation_scale / 10.0)]
        exponents.append(math.log10(deltas[0] / deltas[1]))
    return {"exponents": tuple(exponents), "min_exponent": min(exponents),
            "stationary": min(exponents) >= 1.9, "energy": float(energy)}


class TestStationarity:
    def test_quadratic_response_at_eigenpair(self, well_solution):
        report = stationarity_check(well_solution, 0, 1e-2)
        assert report.stationary
        assert report.min_exponent >= 1.9
        # exponent about 2 means |dF| shrinks about 100x from eps to eps/10
        assert all(1.9 <= e <= 2.1 for e in report.exponents)

    @pytest.mark.parametrize("n", [16, 100, 2000, 3000])
    @pytest.mark.parametrize("potential", [WELL, HarmonicPotential(1.0),
                                           HarmonicPotential(2.3)],
                             ids=["well", "harmonic-1", "harmonic-2.3"])
    def test_batched_probe_matches_per_trial_loop_bit_for_bit(self, potential, n):
        solution = solve_spectrum(build_hamiltonian(potential,
                                                    default_grid(potential, n)), 3)
        for index, scale, shift in itertools.product(range(3), (1e-3, 1e-2, 0.1),
                                                     (None, 0.5)):
            override = None if shift is None else float(solution.energies[index]) + shift
            report = stationarity_check(solution, index, scale, energy_override=override)
            ref = per_trial_stationarity(solution, index, scale, trials=10, seed=2024,
                                         energy_override=override)
            case = (index, scale, shift)
            assert report.exponents == ref["exponents"], case
            assert report.min_exponent == ref["min_exponent"], case
            assert report.stationary == ref["stationary"], case
            assert report.energy == ref["energy"], case

    def test_wrong_energy_reported_non_stationary(self, well_solution):
        report = stationarity_check(well_solution, 0, 1e-2,
                                    energy_override=float(well_solution.energies[0]) + 0.5)
        assert not report.stationary
        assert report.min_exponent < 1.5

    def test_scale_validation(self, well_solution):
        with pytest.raises(ValueError):
            stationarity_check(well_solution, 0, 0.5)
        with pytest.raises(ValueError):
            stationarity_check(well_solution, 0, 0.0)
