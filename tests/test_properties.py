"""Property tests over random inputs; derandomized, so every run draws
the same examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from retromech.core import Grid  # noqa: E402
from retromech.fracops import _DIRECT_MAX, _causal_convolve, gl_weights  # noqa: E402
from retromech.oscillator import (  # noqa: E402
    OscillatorParams,
    solve_causal,
    solve_retrocausal,
    time_reverse,
)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(m=st.floats(0.1, 10.0), big_c=st.floats(0.0, 10.0),
                  k=st.floats(0.0, 100.0), q0=st.floats(-2.0, 2.0),
                  v0=st.floats(-2.0, 2.0))
def test_reflection_theorem(m, big_c, k, q0, v0):
    # if q solves the damped equation from (q0, v0) at t = 0, its time
    # reverse solves the anti-damped one from (q0, -v0) at t = 3
    grid = Grid(0.0, 3.0, 3001)
    causal = solve_causal(OscillatorParams(m, big_c, k, q0, v0), grid)
    retro = solve_retrocausal(OscillatorParams(m, big_c, k, q0, -v0), grid)
    reference = time_reverse(causal.position)
    assert np.max(np.abs(retro.position.samples - reference.samples)) <= 1e-5


def trapezoid_kernel(mu, n):
    # the product-trapezoid weights b_k for the order-mu fractional integral
    k = np.arange(1.0, n)
    b = np.zeros(n)
    b[1:] = (k + 1.0) ** (mu + 1.0) - 2.0 * k ** (mu + 1.0) + (k - 1.0) ** (mu + 1.0)
    return b


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(n=st.one_of(st.integers(2, _DIRECT_MAX),  # both sides of the crossover
                              st.integers(_DIRECT_MAX + 1, 4 * _DIRECT_MAX)),
                  alpha=st.floats(0.01, 1.99),
                  gl=st.booleans(), complex_samples=st.booleans(),
                  growth=st.floats(-80.0, 80.0),
                  seed=st.integers(0, 2**32 - 1))
def test_causal_convolve_matches_direct_sum(n, alpha, gl, complex_samples, growth, seed):
    hypothesis.assume(abs(alpha - 1.0) > 0.01)
    kernel = gl_weights(alpha, n) if gl else trapezoid_kernel(np.ceil(alpha) - alpha, n)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    if complex_samples:
        y = y + 1j * rng.standard_normal(n)
    y = y * np.exp(growth * np.linspace(0.0, 1.0, n))
    ref = np.convolve(y, kernel)[:n]
    out = _causal_convolve(y, kernel)
    if n <= _DIRECT_MAX:
        assert np.array_equal(out, ref)
    # each output against the size of its own sum, which only holds the
    # samples up to it; not pointwise relative: values near t = a tend to 0
    bound = 1e-14 * np.maximum.accumulate(np.abs(y)) * np.sum(np.abs(kernel))
    assert np.all(np.abs(out - ref) <= bound)
