"""Property tests over random inputs; derandomized, so every run draws
the same examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from retromech.core import Grid  # noqa: E402
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
