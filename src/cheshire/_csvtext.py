"""Shortest round-trip text of float64 readouts, as NUL-padded ASCII rows for ``shots.csv``.

``_readout_text`` writes each value as Python's ``repr`` does.  For |x| in
``_EXACT_WINDOW`` the digits come from integer arithmetic in numpy, a whole
array of values in one pass; the rest (zero, subnormals, and the values that
``repr`` writes with an exponent or a 16-digit integer part) go through
``repr`` itself.  ``_consecutive_ascii`` writes a block's consecutive shot
ids from the same table of four-digit groups that the readout digits use.
"""

from __future__ import annotations

import numpy as np

from .montecarlo import _U32, _mulhilo

#: 5**k as uint64 and 10**k as int64, the scales of the readout digits.
_POW5 = 5 ** np.arange(23, dtype=np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
#: ASCII of 0 .. 9999 zero-padded to four digits, one little-endian uint32 a
#: number, so its bytes read the digits in order (40 KB, built in about 30 us).
_DIGITS4 = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_DIGITS4 = _DIGITS4[:, None, None, None] | _DIGITS4[:, None, None] << 8 | _DIGITS4[:, None] << 16 | _DIGITS4 << 24
_DIGITS4 = _DIGITS4.ravel().astype("<u4", copy=False)
#: Row d keeps the last d of 20 columns: 1 there, 0 (NUL) before them.
_KEEP = (np.arange(21)[:, None] > np.arange(19, -1, -1)).view(np.uint8)
#: Readouts with |x| in [low, high) get their digits from ``_positional``;
#: the rest (zero, subnormals, and those that ``repr`` writes with an
#: exponent or with 16 integer digits) from ``repr`` itself.
_EXACT_WINDOW = (1e-4, 2.0**52)


def _digit_count(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each non-negative int64 value (1 for 0)."""
    return _POW10[1:].searchsorted(values, side="right") + 1


def _ascii(values: np.ndarray, digits: np.ndarray, width: int) -> np.ndarray:
    """The last ``digits`` decimal digits of each int64 value below 10**width, as ASCII.

    They are right-aligned in ``width`` columns, after NULs.
    """
    groups = -(-width // 4)
    words = np.empty((values.shape[0], groups), dtype="<u4")
    for g in range(groups - 1, 0, -1):
        quotient = values // 10000
        words[:, g] = _DIGITS4.take(values - quotient * 10000)
        values = quotient
    words[:, 0] = _DIGITS4.take(values)
    chars = words.view(np.uint8)
    chars *= _KEEP[:, 20 - 4 * groups :].take(digits, axis=0)
    return chars[:, 4 * groups - width :]


def _consecutive_ascii(out: np.ndarray, first: int) -> None:
    """Write the ids ``first ..``, one a row of the uint8 matrix ``out``, in decimal right-aligned after NULs.

    ``out`` has as many columns as the last id has digits.  The ids that
    share a quotient by 10**4 and a digit count take their last digits
    from one contiguous slice of ``_DIGITS4`` and the rest from the
    quotient's digits, written once for all of them; columns are cleared
    to NULs only before ids shorter than ``out`` is wide.
    """
    width = out.shape[1]
    row = 0
    while row < out.shape[0]:
        high, low = divmod(first + row, 10000)
        digits = 4 if high else len(str(low))  # below 10**4, the digits of low alone
        stop = min(row + (10000 if high else 10**digits) - low, out.shape[0])
        prefix = np.frombuffer(b"%d" % high if high else b"", dtype=np.uint8)
        lead = width - digits - prefix.size
        rows = out[row:stop]
        if digits == 4:  # one (unaligned) uint32 a row copies faster than four bytes
            rows[:, width - 4 :].view("<u4")[:, 0] = _DIGITS4[low : low + stop - row]
        else:
            rows[:, width - digits :] = _DIGITS4[low : low + stop - row, None].view(np.uint8)[:, 4 - digits :]
        rows[:, lead : width - digits] = prefix
        rows[:, :lead] = 0
        row = stop


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits d and exponent q that read back as each float64 |x| = d 10**-q in ``_EXACT_WINDOW``.

    The digits come from 64-bit integers (Steele and White, PLDI 1990;
    Adams, "Ryu", PLDI 2018).  With x = m 2**e and k = 17 - floor(log10
    2**(e + 52)), 10**k |x| lies in [1e17, 2e18).  The 128-bit product
    4m 5**k, shifted right by j >= 1, gives the floors of 10**k |x| and of
    its rounding bounds, half an ulp above and half an ulp below (a quarter
    at a power of two).  The digits are the shortest prefix between the
    bounds, rounded to nearest with ties to even, as ``repr`` picks them.
    """
    bits = x.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    e = (bits >> 52 & 0x7FF).astype(np.int64) - 1075
    k = 17 - ((e + 52) * 78913 >> 18)  # 78913 / 2**18 rounds log10(2) down, exactly for these exponents
    j = (2 - e - k).astype(np.uint64)
    # Each array is dropped once dead, since a pass holds thousands of values.
    del e
    five = _POW5[k]
    lo, hi = _mulhilo(m << 2, (five & _U32, five >> 32, five))
    high_lo, low_lo = lo + (five << 1), lo - (five << (m != 2**52).astype(np.uint64))
    del m, five
    # The floors are below 2e18, so int64 holds them.  The bounds are
    # (4m + 2) 5**k / 2**j and (4m - 2 or 4m - 1) 5**k / 2**j, with at most
    # one factor 2 above the line: integers only at j = 1 (|x| >= 2**51,
    # k = 2), and then odd multiples of 25.  So no bound is ever the
    # shortest output, and whether it belongs to the interval never matters.
    up = 64 - j
    value = ((hi << up) | (lo >> j)).view(np.int64)
    high = (((hi + (high_lo < lo)) << up) | (high_lo >> j)).view(np.int64)
    low = (((hi - (low_lo > lo)) << up) | (low_lo >> j)).view(np.int64)
    inexact = (lo << up) != 0
    del hi, lo, high_lo, low_lo, up, j
    # Drop the most digits r that leave a multiple of 10**r in (low, high].
    # That interval is 11 to 444 wide, so r >= 1, and mostly r <= 3.  A
    # multiple of 10**t is one of 10**(t - 1) too, so r counts the t that
    # qualify, and only rows that reach r = 4 are looked at further.
    r = np.ones(x.shape[0], dtype=np.int64)
    for t in range(2, 5):
        r += high // _POW10[t] > low // _POW10[t]
    rows = np.flatnonzero(r == 4)
    for t in range(5, 19):
        rows = rows[high[rows] // _POW10[t] > low[rows] // _POW10[t]]
        if not rows.size:
            break
        r[rows] = t
    # Round the kept digits to nearest, ties (dropped digits exactly half,
    # 10**k |x| an integer) to even, and up when truncation fell to low or
    # below it, out of the interval.
    scale = _POW10[r]
    digits = value // scale
    floor = digits * scale
    dropped = 2 * (value - floor)
    tie_up = inexact | (digits & 1).astype(bool)
    digits += (dropped > scale) | ((dropped == scale) & tie_up) | (floor <= low)
    return digits, k - r


def _positional(x: np.ndarray, width: int = 0) -> np.ndarray:
    """``repr`` of each float64 with |x| in ``_EXACT_WINDOW``, as ASCII rows with NULs between the parts.

    The rows read ``[-]int.frac``, the positional form that ``repr`` writes
    for decimal exponents in (-4, 16], and are NUL-padded to at least
    ``width`` columns.
    """
    digits, fraction = _shortest(x)
    int_width = np.maximum(_digit_count(digits) - fraction, 1)
    digits *= _POW10[np.maximum(-fraction, 0)]
    np.maximum(fraction, 0, out=fraction)
    scale = _POW10[np.minimum(fraction, 18)]
    whole = digits // scale
    digits -= whole * scale  # now the fraction's digits
    del scale
    np.maximum(fraction, 1, out=fraction)  # now the fraction's width
    int_columns, fraction_columns = int(int_width.max()), int(fraction.max())
    parts = [
        (np.signbit(x).view(np.uint8) * ord("-"))[:, None],
        _ascii(whole, int_width, int_columns),
        np.full((x.shape[0], 1), ord("."), dtype=np.uint8),
        _ascii(digits, fraction, fraction_columns),
    ]
    pad = width - (2 + int_columns + fraction_columns)
    if pad > 0:
        parts.append(np.zeros((x.shape[0], pad), dtype=np.uint8))
    return np.concatenate(parts, axis=1)


def _readout_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 in ``x``, as NUL-padded ASCII rows.

    The rows come from ``_positional`` inside ``_EXACT_WINDOW`` and from
    ``repr`` itself outside it.  ``x`` is native float64, as
    ``ShotBatch`` requires of its readouts.  A value outside the window is
    formatted as 1.0 by ``_positional`` along with the rest, and its row
    is then overwritten by its ``repr``, so the values inside it are
    neither gathered nor copied into a second matrix.
    """
    size = np.abs(x)
    exact = (size >= _EXACT_WINDOW[0]) & (size < _EXACT_WINDOW[1])
    if exact.all():
        return _positional(x)
    outside = np.flatnonzero(~exact)
    # One format call pads every repr (at most 24 characters, none of them a
    # space) to 24 with spaces, which become NULs.
    reprs = ("%-24r" * outside.size % tuple(x[outside].tolist())).encode()
    reprs = np.frombuffer(reprs, dtype=np.uint8).reshape(outside.size, 24)
    reprs = np.where(reprs == ord(" "), np.uint8(0), reprs)
    if outside.size == x.shape[0]:
        return reprs
    text = _positional(np.where(exact, x, 1.0), reprs.shape[1])
    text[outside, : reprs.shape[1]] = reprs
    text[outside, reprs.shape[1] :] = 0
    return text
