import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from retromech import fracops
from retromech.core import Direction, Grid, GridFunction
from retromech.fracops import (
    ComposeHalfResult,
    FracOrder,
    Scheme,
    causal_frac_deriv,
    compose_half,
    gl_weights,
    retrocausal_frac_deriv,
)


def power_law_exact(t, a, k, alpha):
    # left-derivative closed form for (t - a)^k
    return math.gamma(k + 1) / math.gamma(k + 1 - alpha) * (t - a) ** (k - alpha)


def interior_mask(grid, margin=0.1):
    t = grid.points()
    return t >= grid.a + margin * (grid.b - grid.a)


class TestGlWeights:
    def test_first_difference(self):
        assert np.allclose(gl_weights(1.0, 4), [1, -1, 0, 0], atol=1e-15)

    def test_identity(self):
        assert np.allclose(gl_weights(0.0, 3), [1, 0, 0], atol=1e-15)

    def test_half_order_hand_unrolled(self):
        assert np.allclose(gl_weights(0.5, 4), [1, -0.5, -0.125, -0.0625], atol=1e-15)

    def test_weight_sum_decays(self):
        # partial sums fall off like n^(-alpha), so they halve by 2^(-alpha)
        # when the count doubles and tend to zero in the limit
        for alpha in (0.25, 0.5, 0.75):
            sums = np.cumsum(gl_weights(alpha, 8192))
            assert abs(sums[-1]) < abs(sums[127]) < abs(sums[15])
            ratio = sums[-1] / sums[4095]
            assert abs(ratio - 2.0 ** (-alpha)) <= 0.05

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gl_weights(-0.1, 4)
        with pytest.raises(ValueError):
            gl_weights(0.5, 0)


class TestFracOrder:
    @pytest.mark.parametrize("alpha,m", [(0.0, 0), (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2)])
    def test_integer_bracket(self, alpha, m):
        assert FracOrder(alpha).m == m

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FracOrder(-0.5)
        with pytest.raises(ValueError):
            FracOrder(2.5)
        with pytest.raises(ValueError):
            FracOrder(float("nan"))


class TestCausal:
    def test_half_derivative_of_t(self):
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        d = causal_frac_deriv(GridFunction(grid, t), 0.5)
        exact = 2.0 * np.sqrt(t / math.pi)
        inside = interior_mask(grid)
        rel = np.max(np.abs(d.samples[inside] - exact[inside]) / exact[inside])
        assert rel <= 1e-2

    def test_zeroth_order_is_identity(self):
        grid = Grid(0.0, 2.0, 64)
        f = GridFunction(grid, np.exp(grid.points()))
        for scheme in Scheme:
            out = causal_frac_deriv(f, 0, scheme)
            assert np.array_equal(out.samples, f.samples)

    def test_first_order_matches_finite_difference(self):
        grid = Grid(0.0, 1.0, 1024)
        t = grid.points()
        d = causal_frac_deriv(GridFunction(grid, t**2), 1)
        fd = np.gradient(t**2, grid.h, edge_order=2)
        assert np.array_equal(d.samples, fd)
        assert np.max(np.abs(d.samples - 2.0 * t)) <= 1e-5

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_power_law_oracle(self, scheme, k, alpha):
        grid = Grid(0.5, 1.5, 2048)
        t = grid.points()
        f = GridFunction(grid, (t - grid.a) ** k)
        d = causal_frac_deriv(f, alpha, scheme)
        exact = power_law_exact(t, grid.a, k, alpha)
        inside = interior_mask(grid)
        rel = np.max(np.abs(d.samples[inside] - exact[inside]) / exact[inside])
        assert rel <= 1e-2

    def test_schemes_cross_validate(self):
        grid = Grid(0.0, 3.0, 2048)
        t = grid.points()
        f = GridFunction(grid, np.sin(t))
        gl = causal_frac_deriv(f, 0.5, Scheme.GRUNWALD_LETNIKOV)
        pt = causal_frac_deriv(f, 0.5, Scheme.PRODUCT_TRAPEZOID)
        inside = interior_mask(grid)
        assert np.max(np.abs(gl.samples[inside] - pt.samples[inside])) <= 1e-2

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_between_one_and_two(self, scheme):
        # 1 < alpha < 2 uses m = 2; oracle still the power law
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        d = causal_frac_deriv(GridFunction(grid, t**2), 1.5, scheme)
        exact = power_law_exact(t, 0.0, 2, 1.5)
        inside = interior_mask(grid)
        rel = np.max(np.abs(d.samples[inside] - exact[inside]) / exact[inside])
        assert rel <= 1e-2

    def test_rejects_nan(self):
        grid = Grid(0.0, 1.0, 16)
        samples = np.ones(16)
        samples[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            causal_frac_deriv(GridFunction(grid, samples), 0.5)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinite(self, value):
        grid = Grid(0.0, 1.0, 16)
        samples = np.ones(16)
        samples[3] = value
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            with pytest.raises(ValueError, match="samples rejected"):
                deriv(GridFunction(grid, samples), 0.5)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("n", [16, 1024])
    def test_rejects_overflowing_result(self, scheme, n):
        # finite samples on a step so small that h^-1.5 * 1e10 overflows
        grid = Grid(0.0, 1e-198, n)
        f = GridFunction(grid, np.full(n, 1e10))
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            with pytest.raises(ValueError, match="overflowed"):
                deriv(f, 1.5, scheme)

    def test_overflowing_gl_step_power_names_h(self):
        # h ** -1.5 itself overflows here; the OverflowError named nothing
        grid = Grid(0.0, 1e-300, 600)
        f = GridFunction(grid, grid.points())
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            with pytest.raises(ValueError, match=r"step h = .* -alpha = -1.5"):
                deriv(f, 1.5)

    @pytest.mark.parametrize("alpha, scheme", [
        (1.5, Scheme.PRODUCT_TRAPEZOID),
        (2.0, Scheme.GRUNWALD_LETNIKOV),
        (2.0, Scheme.PRODUCT_TRAPEZOID),
    ])
    def test_overflowing_step_square_names_h_and_alpha(self, alpha, scheme):
        # the second difference divides by h ** 2, which overflows here
        grid = Grid(0.0, 1e300, 600)
        f = GridFunction(grid, grid.points())
        message = re.escape(f"step h = {grid.h!r} squared overflows in the order {alpha} ")
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            with pytest.raises(ValueError, match=message):
                deriv(f, alpha, scheme)

    def test_rejects_coarse_grid(self):
        grid = Grid(0.0, 1.0, 3)
        f = GridFunction(grid, np.zeros(3))
        with pytest.raises(ValueError, match="too coarse"):
            causal_frac_deriv(f, 1.5)

    @pytest.mark.parametrize("a, b, n, alpha, scheme, samples", [
        (0.0, 1.0, 16, 0.5, Scheme.GRUNWALD_LETNIKOV,
         np.where(np.arange(16) == 3, np.nan, 1.0)),
        (0.0, 1.0, 3, 1.5, Scheme.GRUNWALD_LETNIKOV, np.zeros(3)),
        (0.0, 1e-300, 600, 1.5, Scheme.GRUNWALD_LETNIKOV, np.linspace(0.0, 1e-300, 600)),
        (0.0, 1e300, 600, 1.5, Scheme.PRODUCT_TRAPEZOID, np.linspace(0.0, 1e300, 600)),
    ], ids=["nan", "coarse", "step-power", "step-square"])
    def test_both_directions_reject_with_the_same_message(self, a, b, n, alpha, scheme,
                                                          samples):
        # the retrocausal operator leaves every check to the causal one it
        # calls on the reflected samples
        f = GridFunction(Grid(a, b, n), samples)
        messages = []
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            with pytest.raises(ValueError) as err:
                deriv(f, alpha, scheme)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def right_rl_oracle(fn, u, b, alpha, delta=1e-4):
    """Direct quadrature of the right-sided definition: weakly singular
    integral via Gauss quadrature with an algebraic weight, then a central
    difference for the outer d/du, and the (-1)^m sign."""
    mu = 1.0 - alpha

    def integral(point):
        val, _ = quad(fn, point, b, weight="alg", wvar=(mu - 1.0, 0.0))
        return val / math.gamma(mu)

    return -(integral(u + delta) - integral(u - delta)) / (2.0 * delta)


class TestRetrocausal:
    def test_first_order_of_t_is_minus_one(self):
        grid = Grid(0.0, 1.0, 512)
        t = grid.points()
        d = retrocausal_frac_deriv(GridFunction(grid, t), 1)
        assert np.max(np.abs(d.samples + 1.0)) <= 1e-10

    def test_half_order_of_constant(self):
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        c = 2.0
        d = retrocausal_frac_deriv(GridFunction(grid, np.full(grid.n, c)), 0.5)
        inside = t <= grid.b - 0.1 * (grid.b - grid.a)
        exact = c * (grid.b - t[inside]) ** (-0.5) / math.gamma(0.5)
        rel = np.max(np.abs(d.samples[inside] - exact) / exact)
        assert rel <= 1e-2

    def test_zeroth_order_is_identity(self):
        grid = Grid(0.0, 1.0, 128)
        f = GridFunction(grid, np.cos(grid.points()))
        out = retrocausal_frac_deriv(f, 0)
        assert np.array_equal(out.samples, f.samples)

    @pytest.mark.parametrize("fn", [lambda t: t**2, np.sin, np.exp],
                             ids=["t^2", "sin", "exp"])
    def test_against_direct_quadrature(self, fn):
        grid = Grid(0.0, 1.0, 2048)
        t = grid.points()
        alpha = 0.5
        d = retrocausal_frac_deriv(GridFunction(grid, fn(t)), alpha)
        for target in (0.2, 0.45, 0.7):
            i = int(round((target - grid.a) / grid.h))
            exact = right_rl_oracle(fn, t[i], grid.b, alpha)
            assert abs(d.samples[i] - exact) / abs(exact) <= 1e-2

    def test_second_order_parity_positive(self):
        grid = Grid(0.0, 2.0 * math.pi, 2048)
        t = grid.points()
        forward = causal_frac_deriv(GridFunction(grid, np.sin(t)), 2)
        backward = retrocausal_frac_deriv(GridFunction(grid, np.sin(t)), 2)
        assert np.max(np.abs(forward.samples - backward.samples)) <= 1e-9


class TestLinearity:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("alpha", [0.25, 0.75, 1.0, 1.5])
    def test_linearity_both_directions(self, scheme, alpha):
        rng = np.random.default_rng(42)
        grid = Grid(0.0, 2.0, 257)
        f = GridFunction(grid, rng.standard_normal(grid.n))
        g = GridFunction(grid, rng.standard_normal(grid.n))
        combo = GridFunction(grid, 1.7 * f.samples + 0.4 * g.samples)
        for deriv in (causal_frac_deriv, retrocausal_frac_deriv):
            lhs = deriv(combo, alpha, scheme).samples
            rhs = 1.7 * deriv(f, alpha, scheme).samples + 0.4 * deriv(g, alpha, scheme).samples
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_complex_samples(self):
        rng = np.random.default_rng(9)
        grid = Grid(0.0, 1.0, 128)
        z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        f = GridFunction(grid, z)
        assert np.iscomplexobj(f.samples)
        out = causal_frac_deriv(f, 0.5)
        expected = (causal_frac_deriv(GridFunction(grid, z.real), 0.5).samples
                    + 1j * causal_frac_deriv(GridFunction(grid, z.imag), 0.5).samples)
        assert np.max(np.abs(out.samples - expected)) <= 1e-10


def recursive_causal_convolve(y, kernel):
    """Frozen reference: the triangular split as a plain recursion, one FFT
    product per square. The batched split must give the same bits."""
    n = len(y)
    if n <= fracops._DIRECT_MAX:
        return np.convolve(y, kernel)[:n]
    half = (n + 1) // 2
    out = np.concatenate((recursive_causal_convolve(y[:half], kernel[:half]),
                          recursive_causal_convolve(y[half:], kernel[:n - half])))
    size = 1 << (n - 2).bit_length()
    spectrum = np.fft.rfft(kernel[1:], size)

    def square(v):
        _, shift = np.frexp(np.max(np.abs(v)))
        product = np.fft.rfft(np.ldexp(v, -shift), size) * spectrum
        return np.ldexp(np.fft.irfft(product, size)[half - 1:n - 1], shift)

    head = y[:half]
    if np.iscomplexobj(head):
        out[half:] += square(head.real) + 1j * square(head.imag)
    else:
        out[half:] += square(head)
    return out


_ENVELOPES = {
    "flat": lambda t: 1.0,
    "exp(+t)": lambda t: np.exp(40.0 * t),
    "exp(-t)": lambda t: np.exp(-40.0 * t),
    "peak-1e306": lambda t: 1e306 / np.sqrt(2.0),
    "peak-1e-306": lambda t: 1e-306,
    "1e-300-to-1e300": lambda t: 10.0 ** (600.0 * t - 300.0),
}


class TestCausalConvolve:
    def test_path_selected_by_size(self, monkeypatch):
        direct_sizes = []
        convolve = np.convolve

        def counting_convolve(a, v):
            direct_sizes.append(len(a))
            return convolve(a, v)

        monkeypatch.setattr(fracops.np, "convolve", counting_convolve)
        for n, direct in ((2, [2]), (512, [512]), (513, [257, 256]), (4096, [512] * 8)):
            direct_sizes.clear()
            fracops._causal_convolve(np.ones(n), gl_weights(0.5, n))
            assert direct_sizes == direct

    @pytest.mark.parametrize("envelope", sorted(_ENVELOPES))
    @pytest.mark.parametrize("complex_samples", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [513, 1025, 1500, 3001, 4097, 10001, 65536, 65537])
    def test_batched_split_matches_recursion_bit_for_bit(self, n, complex_samples,
                                                         envelope):
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n)
        if complex_samples:
            y = y + 1j * rng.uniform(-1.0, 1.0, n)
        y = y * _ENVELOPES[envelope](t)
        kernel = gl_weights(1.3 if complex_samples else 0.7, n)
        out = fracops._causal_convolve(y, kernel)
        ref = recursive_causal_convolve(y, kernel)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("complex_samples", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [38, 300, 512])
    def test_one_leaf_keeps_both_ends_of_600_decades(self, n, complex_samples):
        # the bit-identity cases start at n = 513, past the one-leaf sample.
        # Scaling a leaf down by its peak flushes its small end to 0 where it
        # spans more than ~308 decades, so each output, from 1e-300 to 1e300,
        # keeps within 4 eps of sum|w y| of a long-double direct sum.
        rng = np.random.default_rng(n)
        y = rng.uniform(-1.0, 1.0, n)
        if complex_samples:
            y = y + 1j * rng.uniform(-1.0, 1.0, n)
        y = y * _ENVELOPES["1e-300-to-1e300"](np.linspace(0.0, 1.0, n))
        kernel = gl_weights(1.3 if complex_samples else 0.7, n)
        out = fracops._causal_convolve(y, kernel)
        parts = (out.real, y.real), (out.imag, y.imag)
        for o, part in parts if complex_samples else parts[:1]:
            ref = np.convolve(part.astype(np.longdouble), kernel.astype(np.longdouble))[:n]
            scale = np.convolve(np.abs(part).astype(np.longdouble), np.abs(kernel))[:n]
            assert np.all(np.abs(o - ref) <= 4 * np.finfo(np.float64).eps * scale)

    @pytest.mark.parametrize("n, calls", [(65536, 21), (65537, 42)])
    def test_one_transform_batch_per_shape_and_depth(self, monkeypatch, n, calls):
        # a kernel rfft, a row rfft and an irfft per block size and depth:
        # 65536 splits at 7 depths with one size each, 65537 at 8 depths
        # with 14 sizes. The recursion made 3 calls per block, 381 at 65536.
        counts = {"rfft": 0, "irfft": 0}
        for name in counts:
            def counting(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(fracops.np.fft, name, counting)
        y = np.random.default_rng(3).standard_normal(n)
        for samples in (y, y + 1j * y[::-1]):
            counts.update(rfft=0, irfft=0)
            fracops._causal_convolve(samples, gl_weights(0.5, n))
            assert counts == {"rfft": 2 * calls // 3, "irfft": calls // 3}

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("deriv", [causal_frac_deriv, retrocausal_frac_deriv])
    def test_fft_path_keeps_the_small_end_of_a_growing_signal(self, monkeypatch,
                                                             scheme, deriv):
        # exp(+-t) on [0, 40] spans 17 decades; one FFT over all samples
        # would bury the outputs at the small end under the rounding of the
        # large end. Every output must match the direct sum to rounding.
        grid = Grid(0.0, 40.0, 4096)
        t = grid.points()
        for y in (np.exp(t), np.exp(-t)):
            f = GridFunction(grid, y)
            out = deriv(f, 0.5, scheme).samples
            with monkeypatch.context() as patch:
                patch.setattr(fracops, "_DIRECT_MAX", grid.n)
                ref = deriv(f, 0.5, scheme).samples
            assert np.all(np.abs(out - ref) <= 1e-10 * np.abs(ref))

    def test_fft_path_keeps_the_float_range(self):
        # at 1e306 the sample sum overflows unless the FFT input is scaled
        # first, while the direct sum stays below max|y| * sum|w| ~ 2e306;
        # at 1e-306 the scaling must undo itself without losing digits
        n = 1024
        w = gl_weights(0.5, n)
        for peak in (1e306, 1e-306):
            y = peak * np.linspace(0.0, 1.0, n)
            ref = np.convolve(y, w)[:n]
            out = fracops._causal_convolve(y, w)
            assert np.all(np.isfinite(out))
            assert np.max(np.abs(out - ref)) <= 1e-14 * peak * np.sum(np.abs(w))


class TestComposeHalf:
    def test_linear_gives_constant_one(self):
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        res = compose_half(GridFunction(grid, t))
        assert isinstance(res, ComposeHalfResult)
        assert res.boundary_ok
        inside = interior_mask(grid)
        assert np.max(np.abs(res.values.samples[inside] - 1.0)) <= 2e-2

    def test_quadratic_gives_derivative(self):
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        res = compose_half(GridFunction(grid, t**2))
        inside = interior_mask(grid)
        rel = np.max(np.abs(res.values.samples[inside] - 2.0 * t[inside])
                     / (2.0 * t[inside]))
        assert rel <= 2e-2

    def test_zero_function(self):
        grid = Grid(0.0, 1.0, 64)
        res = compose_half(GridFunction(grid, np.zeros(64)))
        assert np.array_equal(res.values.samples, np.zeros(64))

    def test_retrocausal_negates_derivative(self):
        grid = Grid(0.0, 1.0, 4096)
        t = grid.points()
        res = compose_half(GridFunction(grid, grid.b - t), Direction.RETROCAUSAL)
        assert res.boundary_ok
        inside = t <= grid.b - 0.1 * (grid.b - grid.a)
        # approximates -d/dt (b - t) = 1
        assert np.max(np.abs(res.values.samples[inside] - 1.0)) <= 2e-2

    def test_boundary_violation_flagged_not_raised(self):
        grid = Grid(0.0, 1.0, 1024)
        res = compose_half(GridFunction(grid, np.cos(grid.points())))
        assert not res.boundary_ok


@pytest.mark.parametrize("k, alpha, n", [
    *[(k, alpha, 2048) for k, alpha in ((1, 0.25), (2, 0.5), (3, 0.75))],
    *[(k, alpha, 4096) for k in (1, 2, 3) for alpha in (0.25, 0.5, 0.75)],
])
def test_gl_convergence_order_at_least_first(k, alpha, n):
    # error at n and measured order between n/2 and n
    errors = []
    for size in (n // 2, n):
        grid = Grid(0.0, 1.0, size)
        t = grid.points()
        d = causal_frac_deriv(GridFunction(grid, t**k), alpha)
        exact = power_law_exact(t, 0.0, k, alpha)
        inside = interior_mask(grid)
        errors.append(np.max(np.abs(d.samples[inside] - exact[inside])
                             / exact[inside]))
    assert errors[1] <= 1e-2
    assert math.log2(errors[0] / errors[1]) >= 0.9
