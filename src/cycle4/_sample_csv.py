"""The lines of ``cycle4 sample``'s CSV, rendered on whole numpy arrays.

Each field is laid out in NUL-padded little-endian 64-bit words, a chunk of
lines is one matrix of such words, and its bytes are written with the NULs
dropped.  Floats come out byte for byte as ``format(x, ".17g")``: the 17
digits are computed exactly in integer arithmetic (Steele and White, "How
to print floating-point numbers accurately", PLDI 1990), never through a
float.

Only the sample command imports this module, so no other command loads
numpy or compiles this code.
"""

from __future__ import annotations

import numpy as np

from .region import Status

_U64 = np.uint64
_ONES = 0x0101010101010101  # 1 in each byte of a word
_POW5 = np.array([5**s for s in range(28)], dtype=_U64)  # 5**27 < 2**63


def _head_word(X: int, has_fraction: bool) -> int:
    """The first word of a fixed-notation field, -4 <= X <= 0: its comma
    (byte 0), "0." and the zeros before the lead digit, or the point after
    it.  The sign (byte 1) and the lead digit (byte 7, or byte 6 at X = 0)
    are added per value."""
    if X < 0:  # ",-0.000d"
        text = ",\0" + "0." + "0" * (-X - 1)
    else:  # ",-d.", the point only when more digits follow
        text = ",\0\0\0\0\0\0" + "." * has_fraction
    return int.from_bytes(text.ljust(8, "\0").encode(), "little")


# by X + 4 + 5 * has_fraction, and the lead digit's bit shift by X + 4
_HEADS = np.array([_head_word(X, f) for f in (False, True) for X in range(-4, 1)], dtype=_U64)
_LEAD_SHIFTS = np.array([56, 56, 56, 56, 48], dtype=_U64)
# a comma, each status name and a newline, by code
_STATUSES = np.array([f",{s.value}\n".encode() for s in Status], dtype="S24").view("<u8").reshape(-1, 3)


def _scaled(m, e, X):
    """The floor and the round-up bit of m * 2**e * 10**(16 - X), exactly.
    The product m * 5**s is formed in two 64-bit limbs from 32-bit halves
    (m < 2**53), shifted right by k = -(e + s), and rounded half-even from
    the exact remainder.  Needs 0 <= s <= 27 and 1 <= k <= 63."""
    s = 16 - X
    k = (-(e + s)).astype(_U64)
    p = _POW5[s]
    half_mask = _U64(0xFFFFFFFF)
    m_hi, m_lo, p_hi, p_lo = m >> _U64(32), m & half_mask, p >> _U64(32), p & half_mask
    middle = m_hi * p_lo + m_lo * p_hi  # < 2**53 + 2**63
    low = m_lo * p_lo
    lo = low + (middle << _U64(32))  # wraps; the carry goes to hi
    hi = m_hi * p_hi + (middle >> _U64(32)) + (lo < low)
    floor = (hi << (_U64(64) - k)) | (lo >> k)
    rest = lo & ((_U64(1) << k) - _U64(1))
    half = _U64(1) << (k - _U64(1))
    return floor, (rest > half) | ((rest == half) & (floor & _U64(1) == _U64(1)))


def g17_digits(x):
    """(D, X) for each float 1e-4 <= x < 10: X = floor(log10 x) and D the
    17 significant digits of x, correctly rounded half-even, as an integer
    in [10**16, 10**17).

    The float estimate of X is corrected wherever the unrounded digits fall
    outside [10**16, 10**17).  Rounding never carries past 10**17: the
    double below a power of ten is more than half a unit of the 17th digit
    away from it.
    """
    fraction, exponent = np.frexp(x)
    m = (fraction * 2.0**53).astype(_U64)
    e = exponent.astype(np.int64) - 53
    X = np.floor(np.log10(x)).astype(np.int64)
    floor, up = _scaled(m, e, X)
    off = (floor < _U64(10**16)).astype(np.int64) - (floor >= _U64(10**17))
    fix = np.flatnonzero(off)
    if fix.size:
        X[fix] -= off[fix]
        floor[fix], up[fix] = _scaled(m[fix], e[fix], X[fix])
    return floor + up, X


def _digits8(v):
    """The 8 decimal digits of each v < 10**8, one per byte of a word, the
    first digit in the lowest byte: each lane is split in two by 10**4, then
    by 100 and 10, with multiply-shift division (exact below 10**4 and 100)."""
    high = v // _U64(10**4)
    x = high | ((v - high * _U64(10**4)) << _U64(32))  # 32-bit lanes
    hundreds = ((x * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    x = hundreds | ((x - hundreds * _U64(100)) << _U64(16))  # 16-bit lanes
    tens = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return tens | ((x - tens * _U64(10)) << _U64(8))


def _nonzero_bytes(words):
    """1 in each byte of a word of digits that is not 0, else 0."""
    return ((words + _U64(0x7F * _ONES)) & _U64(0x80 * _ONES)) >> _U64(7)


def g17_words(values):
    """A comma and format(x, ".17g") of each float of a 1-D array, as an
    (n, w) array of words padded with NULs: w = 3, or 4 if a text is longer
    than 23 bytes.

    Zeros and values with 1e-4 <= |x| < 10, which %g writes in fixed
    notation, are rendered from g17_digits: a head word, then two words of
    the 16 digits after the lead one, trailing zeros as NUL.  Anything else
    goes through format(); in sample output that is a rare tiny root.
    """
    x = np.abs(values)
    fast = (x >= 1e-4) & (x < 10.0)  # NaN fails both
    zero = x == 0.0
    special = np.flatnonzero(~fast & ~zero)
    texts = [b"," + format(v, ".17g").encode() for v in values[special].tolist()]
    width = 3 if max(map(len, texts), default=0) <= 24 else 4
    words = np.zeros((len(values), width), dtype=_U64)

    digits, X = g17_digits(np.where(fast, x, 1.0))
    lead, fraction = np.divmod(digits, _U64(10**16))
    lead[zero] = 0
    high, low = np.divmod(fraction, _U64(10**8))
    high, low = _digits8(high), _digits8(low)
    # a digit is kept up to the last nonzero one: smear each nonzero byte
    # down to the bytes before it
    keep_low = _nonzero_bytes(low)
    keep_high = _nonzero_bytes(high) | ((low != 0) * _U64(_ONES))
    for shift in (8, 16, 32):
        keep_low |= keep_low >> _U64(shift)
        keep_high |= keep_high >> _U64(shift)
    head = X + 4
    sign = np.signbit(values) * _U64(ord("-") << 8)
    words[:, 0] = _HEADS[head + 5 * (fraction != 0)] | sign | ((lead + _U64(48)) << _LEAD_SHIFTS[head])
    words[:, 1] = high + keep_high * _U64(48)
    words[:, 2] = low + keep_low * _U64(48)
    if texts:
        words[special] = np.array(texts, dtype=f"S{8 * width}").view("<u8").reshape(-1, width)
    return words


def index_words(start, stop, groups):
    """start..stop-1 in decimal, in ``groups`` words padded with NULs."""
    return np.array([b"%d" % i for i in range(start, stop)], dtype=f"S{8 * groups}").view("<u8").reshape(-1, groups)


def lines(start, alphas, eigenvalues, codes) -> bytes:
    """The CSV lines of the sample rows start, start + 1, ...: per
    eigenvalue, the row's index and alphas, then re, im and the status."""
    rows = len(alphas)
    groups = -(-len(str(start + rows - 1)) // 8)
    values = g17_words(np.concatenate((alphas.ravel(), eigenvalues.view(np.float64).ravel())))
    width = values.shape[1]
    table = np.empty((rows, 4, groups + 6 * width + _STATUSES.shape[1]), dtype="<u8")
    table[:, :, :groups] = index_words(start, start + rows, groups)[:, None]
    at = groups + 4 * width
    table[:, :, groups:at] = values[: 4 * rows].reshape(rows, 1, 4 * width)
    table[:, :, at : at + 2 * width] = values[4 * rows :].reshape(rows, 4, 2 * width)
    table[:, :, at + 2 * width :] = _STATUSES[codes]
    return table.tobytes().translate(None, b"\0")
