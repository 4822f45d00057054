"""CSV text of float columns, each value exactly as ``%.17g`` prints it.

Each value of a block fills a 40-byte slot. As ``uint64`` words: 0 the
head, 1-2 digits 1-16, 3-4 digits 1-16 again. The head is a table word:
right-aligned, the separator before the value, the sign, ``"0."`` and up
to three zeros when |x| < 1, the leading digit, and the point when the
exponent e is 0. The second copy is written over a block where some
value has e >= 1, with the point over digit e of each such value. A
value's text is the slot's kept bytes: the head, the first copy's digits
(only the integer ones when e >= 1), then the point and the fraction's
digits from the second copy. So a value is one run of kept bytes, or two
when e >= 1, and one boolean index over the block keeps every text.
"""

import numpy as np

__all__ = ["chunks"]

#: Values formatted per block, in whole rows, whatever the table's width.
_BLOCK_VALUES = 16384
_SLOT = 40  # bytes of a value's slot


def _high(a):
    """The high part of Veltkamp's split of ``a``: two of them multiply exactly."""
    split = a * 134217729.0
    return split - (split - a)


#: 10**k, exact for k <= 22, with its high and low parts
_POWERS = np.array([float(10**k) for k in range(23)])
_POWERS_HIGH = _high(_POWERS)
_POWERS_LOW = _POWERS - _POWERS_HIGH
#: the 4-digit text of 0..9999 as one word each, and its trailing zeros
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                   axis=-1).view(np.uint32).ravel()
_ZEROS = np.zeros(10000, np.int64)
_ZEROS[::10], _ZEROS[::100], _ZEROS[::1000], _ZEROS[::10000] = 1, 2, 3, 4
#: head words by separator ("," or "\n"), sign, k = 16 - e for the
#: exponents e = 16 .. -4 of fixed notation, and leading digit d
_HEADS = np.frombuffer("".join(
    (sep + sign + ("0." + "0" * (-e - 1) + str(d) if e < 0 else f"{d}." if e == 0
                   else str(d))).rjust(8)
    for sep in ",\n" for sign in ("", "-") for e in range(16, -5, -1) for d in range(10)
).encode(), np.uint64)


def _keep_masks():
    """Keep-masks by the slot's bytes, as text with "x" for a kept byte:
    fixed notation by sign, k and trailing zeros of the 17 digits (the
    head, the first copy's digits, the second copy's point and fraction),
    then the separator and a %-text of 0..24 bytes."""
    rows = []
    for neg in range(2):
        for e in range(16, -5, -1):
            width = 2 + neg + (1 - e if e < 0 else e == 0)
            for count in range(17, 0, -1):
                lone = e == 0 and count == 1  # no point after a lone digit
                digits = e if e > 0 else count - 1
                frac = count - e if 0 < e < count - 1 else 0
                rows.append(" " * (8 - width) + "x" * (width - lone) + " " * lone
                            + "x" * digits + " " * (16 - digits)
                            + (" " * (e - 1) + "x" * frac).ljust(16))
    rows += ["x" * (n + 1) + " " * (_SLOT - n - 1) for n in range(25)]
    return np.frombuffer("".join(rows).encode(), np.uint8).reshape(-1, _SLOT) == ord("x")


_MASKS = _keep_masks()


def chunks(header: list, columns: list):
    """Header line, then the rows' text as bytes, one block at a time, each
    stacked from slices of the columns, so the whole table never exists."""
    yield (",".join(header) + "\n").encode()
    rows = max(1, _BLOCK_VALUES // len(columns))
    for start in range(0, len(columns[0]), rows):
        block = np.column_stack([column[start:start + rows] for column in columns])
        yield _format_rows(block.astype(np.float64, copy=False))


def _times_power_of_ten(a, k):
    """hi + lo == a * 10**k exactly (Dekker's two-product)."""
    p = a * _POWERS.take(k)
    ah = _high(a)
    al = a - ah
    bh, bl = _POWERS_HIGH.take(k), _POWERS_LOW.take(k)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(a, q):
    """``divmod(a, q)`` by floor division, which numpy runs through
    libdivide for a scalar ``q`` and ``np.divmod`` does not."""
    h = a // q
    return h, a - h * q


def _format_rows(block) -> bytes:
    """``%.17g`` text of a 2-D float64 block as comma-separated lines. A
    zero is the one digit 0 at exponent 0; non-finite values and values
    printed in exponent notation go through one %-operation for the block."""
    x = block.ravel()
    # %.17g prints 1e-4 <= |x| < 1e17 in fixed notation: no double from
    # 1e-5 to 1e17 lies within half a unit of the 17th digit below a power
    # of ten, so none rounds up across a bound or to 18 digits. There
    # |x| = d * 10**-k with 17 digits d, rounded half-even as dtoa does:
    # the two-product hi + lo is |x| * 10**k exactly (10**k is exact for
    # k <= 22), and hi >= 1e16 > 2**53 is an even integer, so rounding lo
    # half-even rounds the sum half-even.
    a = np.abs(x)
    outside = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    a[outside] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    np.maximum(k, 0, out=k)
    hi, lo = _times_power_of_ten(a, k)
    # log10 may miss by one next to a power of ten
    small = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    off = np.flatnonzero(small | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if len(off):
        k[off] += np.where(small[off], 1, -1)
        hi[off], lo[off] = _times_power_of_ten(a[off], k[off])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    del a, hi, lo, small
    # a zero or %-text gets the leading digit 0 and a last digit 1, which
    # keeps it out of the trailing-zero runs below
    d[outside] = 1
    upper, lower = _split(d, 10**8)
    lead, upper = _split(upper, 10**8)
    quads = (*_split(upper, 10**4), *_split(lower, 10**4))
    del d, upper, lower  # freed before the slots and the keep-mask are made
    # row of the value's keep-mask (sign, k, trailing zeros) and of its
    # head word (separator, sign, k, leading digit)
    nk = np.signbit(x).astype(np.int64)
    nk *= 21
    nk += k
    layout = nk * 17
    layout += _ZEROS.take(quads[3])
    run = np.flatnonzero(quads[3] == 0)
    for quad in quads[2::-1]:
        layout[run] += _ZEROS.take(quad[run])
        run = run[quad[run] == 0]
    layout[outside] += 16  # one digit; a %-text's row is set below
    nk *= 10
    nk += lead
    nk.reshape(block.shape)[:, 0] += 2 * 21 * 10  # a row's first value follows "\n"

    slots = np.empty((len(x), _SLOT // 8), np.uint64)
    slots[:, 0] = _HEADS.take(nk)
    words = slots.view(np.uint32)
    for j, quad in enumerate(quads):
        words[:, 2 + j] = _DIGITS.take(quad)
    del nk, lead, quads
    big = np.flatnonzero(k < 16)  # e >= 1
    text = slots.view(np.uint8)
    if len(big):  # the point goes over digit e of the second copy: byte 39 - k
        slots[:, 3] = slots[:, 1]
        slots[:, 4] = slots[:, 2]
        text.reshape(-1)[big * _SLOT + 39 - k.take(big)] = ord(".")
    del k, big, run  # freed before the keep-mask is made
    other = outside[x[outside] != 0]
    if len(other):
        printed = (("%-24.17g" * len(other)) % tuple(x[other].tolist())).encode()
        printed = np.frombuffer(printed, np.uint8).reshape(-1, 24)
        text[other, 0] = np.where(other % block.shape[1], ord(","), ord("\n"))
        text[other, 1:25] = printed
        # the last 25 masks keep the separator and a %-text of 0..24 bytes
        layout[other] = np.count_nonzero(printed != ord(" "), axis=1) - 25
    # every value's text starts with the separator before it
    return b"".join((text[_MASKS.take(layout, axis=0)][1:], b"\n"))
