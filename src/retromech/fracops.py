"""Left (causal) and right (retrocausal) fractional derivatives on
uniformly sampled functions.

Two independent discretizations are provided for non-integer orders:

* Grunwald-Letnikov: the generalized binomial weight recurrence applied
  as a one-sided convolution; first-order accurate in h.
* Product trapezoid: exact integration of the piecewise-linear
  interpolant against the power-law kernel, followed by integer-order
  finite differencing of the resulting fractional integral.

Both non-integer schemes reduce to one causal convolution of the samples
with a length-n kernel, split into direct sums of at most 512 samples
and real FFT products batched by depth, so a non-integer order costs
O(n log^2 n) and the rounding of each output stays tied to the samples
before it (fast convolution quadrature: Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6 (1985) 532).

Integer orders bypass the fractional kernels entirely and use plain
central/one-sided finite differences, so orders 0, 1 and 2 behave exactly
like the identity and the ordinary derivatives.

The right-sided operator reflects the samples about the interval
midpoint, applies the left-sided operator, and reflects back. The chain
rule of the reflection supplies exactly the (-1)^m parity that the
right-sided definition carries, so no extra sign is applied here and
integer orders n reduce to (-1)^n d^n/dt^n.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GridFunction, frozen
from .enums import Direction, Record, Scheme, set_field

__all__ = [
    "Scheme",
    "FracOrder",
    "ComposeHalfResult",
    "gl_weights",
    "causal_frac_deriv",
    "retrocausal_frac_deriv",
    "compose_half",
    "MAX_ORDER",
    "BOUNDARY_RTOL",
]

#: Largest accepted differentiation order. Non-integer orders above 2 are
#: out of scope; the integer order 2 itself is kept because the classical
#: reductions need a plain second derivative.
MAX_ORDER = 2.0

#: :func:`compose_half` flags a start value above this fraction of the
#: samples' peak (or of 1, if the peak is smaller).
BOUNDARY_RTOL = 1e-8


class FracOrder(Record):
    """Differentiation order alpha together with its integer bracket m.

    For non-integer alpha, m is the smallest integer strictly above it;
    integer alphas are their own m and are dispatched to plain finite
    differences (the fractional kernel would have a removable singularity
    there).
    """

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not np.isfinite(a) or a < 0:
            raise ValueError(f"order must satisfy alpha >= 0, got {self.alpha!r}")
        if a > MAX_ORDER:
            raise ValueError(f"orders above {MAX_ORDER} are unsupported, got {a}")
        set_field(self, "alpha", a)

    @property
    def is_integer(self) -> bool:
        return float(self.alpha).is_integer()

    @property
    def m(self) -> int:
        return int(self.alpha) if self.is_integer else math.floor(self.alpha) + 1


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grunwald-Letnikov weights for order ``alpha``.

    w_0 = 1 and w_k = w_{k-1} (k - 1 - alpha) / k; these are the signed
    binomial coefficients of (1 - z)^alpha, and for 0 < alpha < 1 their
    partial sums decay to zero.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    k = np.arange(1, count, dtype=np.float64)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))


def _integer_deriv(y: np.ndarray, h: float, m: int) -> np.ndarray:
    if m == 0:
        return y
    if m == 1:
        return np.gradient(y, h, edge_order=2)
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2
    out[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / h**2
    out[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / h**2
    return out


#: Largest direct sum (leaf) that the split in :func:`_causal_convolve`
#: stops at. On a 2-core host leaves of 768 run even with 512 from
#: n = 2048 to 16384, and 1024 runs 15-25 % slower. Any other value
#: changes the rounding of every output above it.
_DIRECT_MAX = 512


def _causal_convolve(y: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """First ``len(y)`` terms of the full convolution of ``y`` with the
    real ``kernel`` of the same length.

    The lower-triangular Toeplitz product is split as in Hairer, Lubich &
    Schlichte: a block of m > ``_DIRECT_MAX`` samples splits into diagonal
    triangles of (m + 1) // 2 and m // 2 samples, down to direct sums
    (leaves) of at most ``_DIRECT_MAX``, and the square that maps the
    block's first half onto its second half is one zero-padded FFT
    product. A sample of at most ``_DIRECT_MAX`` values is one leaf. The
    squares are batched by depth: the blocks of one depth have at most two
    sizes, and each size takes one kernel transform and one row-wise
    transform pair for all of its blocks, so the O(n log^2 n) cost comes
    in a few FFT calls per depth. Depths are added deepest
    first, so each output sums its terms in the order of a recursion over
    the same split. An FFT spreads its rounding evenly over its outputs,
    at a few ulps of the largest input times sum|kernel|; since every
    square only feeds outputs later than all of its samples, the error at
    t stays tied to the samples up to t, as in the direct sum. A growing
    signal such as exp(t) therefore keeps its small early values. Each
    square's samples are first scaled by a power of two that brings their
    peak near 1: that changes no rounding, and keeps samples near the top
    of the float range from overflowing in the transform's sums where the
    direct sum would not.
    """
    levels, leaves, blocks = [], [], [(0, len(y))]
    while blocks:  # each level maps a block size to the starts of its blocks
        level = {}
        for s, m in blocks:
            if m > _DIRECT_MAX:
                level.setdefault(m, []).append(s)
            else:
                leaves.append((s, m))
        levels.append(level)
        blocks = [b for m, starts in level.items() for s in starts
                  for b in ((s, (m + 1) // 2), (s + (m + 1) // 2, m // 2))]
    out = np.concatenate([np.convolve(y[s:s + m], kernel[:m])[:m]
                          for s, m in sorted(leaves)])
    # complex samples put their real and imaginary parts in one batch
    parts = (y.real, y.imag) if np.iscomplexobj(y) else (y,)
    for level in reversed(levels):
        for m, starts in level.items():
            half = (m + 1) // 2
            # output half + q takes sample p < half at lag half + q - p, i.e.
            # entry half - 1 + q of the linear convolution with lags 1 .. m - 1;
            # a circular size of m - 1 or more keeps those free of wrap-around
            size = 1 << (m - 2).bit_length()
            heads = np.array([p[s:s + half] for p in parts for s in starts])
            _, shift = np.frexp(np.abs(heads).max(1, keepdims=True))
            product = np.fft.rfft(np.ldexp(heads, -shift), size)
            product *= np.fft.rfft(kernel[1:m], size)
            rows = np.ldexp(np.fft.irfft(product, size)[:, half - 1:m - 1], shift)
            if len(parts) == 2:
                rows = rows[:len(starts)] + 1j * rows[len(starts):]
            for s, row in zip(starts, rows):
                out[s + half:s + m] += row
    return out


def _gl_apply(y: np.ndarray, h: float, alpha: float) -> np.ndarray:
    try:
        scale = h ** (-alpha)
    except OverflowError:
        raise ValueError(f"step h = {h!r} to the power -alpha = {-alpha} "
                         "overflows") from None
    w = gl_weights(alpha, len(y))
    return _causal_convolve(y, w) * scale


def _product_trapezoid_integral(y: np.ndarray, h: float, mu: float) -> np.ndarray:
    """Fractional integral of order mu in (0, 1): exact quadrature of the
    power-law kernel against the piecewise-linear interpolant of y."""
    n = len(y)
    out = np.zeros(n, dtype=np.result_type(y.dtype, np.float64))
    p = np.arange(n + 1.0) ** (mu + 1.0)
    b = np.zeros(n)
    b[1:] = p[2:] - 2.0 * p[1:-1] + p[:-2]
    conv = _causal_convolve(y, b)
    i = np.arange(1.0, n)
    a0 = p[:-2] - i**mu * (i - mu - 1.0)
    scale = h**mu / math.gamma(mu + 2.0)
    out[1:] = scale * (a0 * y[0] + conv[1:] - b[1:] * y[0] + y[1:])
    return out


def _validate(f: GridFunction, order: FracOrder) -> None:
    if not np.isfinite(f.samples).all():
        raise ValueError("non-finite (NaN or inf) samples rejected")
    minimum = order.m + 2
    if f.grid.n < minimum:
        raise ValueError(
            f"grid too coarse for order {order.alpha}: n = {f.grid.n} < {minimum}"
        )


def causal_frac_deriv(f: GridFunction, order,
                      scheme: Scheme = Scheme.GRUNWALD_LETNIKOV) -> GridFunction:
    """Left-sided fractional derivative of ``f`` on its own grid.

    The convolution sweeps forward from the left endpoint, so the value at
    t only sees samples at earlier abscissae. Integer orders return the
    plain finite-difference derivative of that order. A result that
    overflows to inf or NaN raises ValueError instead of being returned.
    """
    order = order if isinstance(order, FracOrder) else FracOrder(float(order))
    _validate(f, order)
    h = f.grid.h
    with np.errstate(all="ignore"):
        try:
            if order.is_integer:
                out = _integer_deriv(f.samples, h, order.m)
            elif scheme is Scheme.GRUNWALD_LETNIKOV:
                out = _gl_apply(f.samples, h, order.alpha)
            else:
                mu = order.m - order.alpha
                integral = _product_trapezoid_integral(f.samples, h, mu)
                out = _integer_deriv(integral, h, order.m)
        except OverflowError:  # h**2 of the second difference
            raise ValueError(f"step h = {h!r} squared overflows in the order "
                             f"{order.alpha} derivative") from None
    if not np.isfinite(out).all():
        raise ValueError(f"order {order.alpha} derivative on step h = {h!r} "
                         "overflowed to a non-finite value")
    return GridFunction(f.grid, frozen(out))


def retrocausal_frac_deriv(f: GridFunction, order,
                           scheme: Scheme = Scheme.GRUNWALD_LETNIKOV) -> GridFunction:
    """Right-sided fractional derivative: reflect, apply the left-sided
    operator, reflect back.

    Reversing the samples maps the right-sided kernel onto the left-sided
    one while the chain rule contributes the (-1)^m parity, so the plain
    conjugation is already the full operator (order 1 gives -f', order 2
    gives +f''). Both reflections are read-only views, not copies.
    """
    reflected = GridFunction(f.grid, f.samples[::-1])
    out = causal_frac_deriv(reflected, order, scheme)
    return GridFunction(f.grid, out.samples[::-1])


class ComposeHalfResult(Record, eq=False):
    """Half-order composition output plus the start-boundary check."""

    values: GridFunction
    boundary_ok: bool


def compose_half(f: GridFunction,
                 direction: Direction = Direction.CAUSAL) -> ComposeHalfResult:
    """Apply the order-1/2 Grunwald-Letnikov derivative twice along ``direction``.

    Approximates d/dt for the causal sweep and -d/dt for the retrocausal
    one. The half kernel is singular where the sweep starts, so a
    nonvanishing start value is flagged on the result instead of raised.
    """
    half = FracOrder(0.5)
    start = f.samples[0] if direction is Direction.CAUSAL else f.samples[-1]
    scale = float(np.max(np.abs(f.samples)))
    boundary_ok = bool(abs(start) <= BOUNDARY_RTOL * max(1.0, scale))
    deriv = causal_frac_deriv if direction is Direction.CAUSAL else retrocausal_frac_deriv
    once = deriv(f, half)
    twice = deriv(once, half)
    return ComposeHalfResult(values=twice, boundary_ok=boundary_ok)
