"""CSV text of a float array, each value written as ``'%.17g' % v``, in one
vectorised pass.

A finite value v of decade e = floor(log10 |v|) in [-6, 16] is scaled by
the exact double 10^k, k = 16 - e in [0, 22], with Dekker's two-product:
|v| 10^k = p + err exactly, p an integer-valued double and err a double
of at most half p's ulp.  Its 17 significant digits are the integer
q = p + floor(err) + (frac(err) > 1/2), the correctly rounded one unless
frac(err) is exactly 1/2.  Every step is a float64 or int64 numpy ufunc
that rounds on its own, so no platform or long-double precision enters.
Zero, NaN, +-inf, exact ties and the decades outside [-6, 16] are written
by ``'%.17g' % v`` itself.

Each value gets a 48-byte field of six 8-byte words: its sign, a ``0.000``
prefix, its 17 digits each followed by a slot for the decimal point, an
exponent ``e+XX``, and ``,`` or a newline.  The bytes that ``%g`` would not
write (the sign of a positive value, the prefix outside fixed notation
below 1, trailing zeros, a point with no digit after it, the exponent in
fixed notation) are NUL, and ``bytes.translate`` drops them.  A template
picked by the value's column, sign, decade and whether it has a fraction is
added to the words of its digits, four (digit, slot) pairs to a word, and
the ``0`` digits after the last one written are subtracted again.  These
bytes never overlap, so int64 sums stand for byte-wise OR and AND-NOT, and
the formatter runs no numpy loop that the rest of a sweep does not.  The
fields are held word-major, one row per word position, so every step runs
over contiguous arrays.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_WIDTH = 48                   # bytes of a field
_DIGITS = 6                   # byte of digit 0; digit j at 6 + 2j, its slot at 7 + 2j
_EMIN, _EMAX = -6, 16         # decades of the vectorised path
_CLASSES = _EMAX - _EMIN + 1
_BLOCK = 1024                 # fields per translated block
_CHUNK = 1 << 15              # values formatted at once, which bounds the memory used


def _split(x):
    """Veltkamp's split: (hi, lo) with hi + lo == x and 26-bit halves."""
    c = 134217729.0 * x       # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _template(last: bool, point: bool, neg: bool, e: int) -> tuple[bytes, int]:
    """The constant bytes of the field of a value with sign neg and decade
    e, in the last column or not, with a point after its whole digits or
    not; and the number of digits it writes at least (the whole ones, and
    digit 0)."""
    field = bytearray(_WIDTH)
    field[0] = ord("-") if neg else 0
    field[-1] = ord("\n" if last else ",")
    if -4 <= e < 0:
        field[1:2 - e] = b"0." + b"0" * (-e - 1)
        return bytes(field), 1
    if e >= 0:
        whole = e + 1
    else:
        whole = 1
        field[_DIGITS + 34:_DIGITS + 38] = b"e%+03d" % e
    if point:
        field[_DIGITS + 2 * whole - 1] = ord(".")
    return bytes(field), whole


def _words(data: bytes, rows: int) -> np.ndarray:
    """The 8-byte words of data, rows fields of equal size, word-major."""
    return np.frombuffer(data, np.int64).reshape(rows, -1).T.copy()


@cache
def _tables():
    """The powers 10^k with their Veltkamp halves; the word of each 4-digit
    group 0000-9999, its ASCII digits in the digit bytes of four pairs, and
    its significant digit count (-99 for 0000); word 0 of each lead digit;
    the templates by row ((last column, point, sign) * _CLASSES + e - _EMIN)
    and the least digit count by e - _EMIN; and words 1-4 of the 0 digits
    1-16 after each digit count."""
    # filled by slicing, which starts no numpy loop
    digits = np.frombuffer(b"0123456789", np.uint8)
    quads = np.zeros((10, 10, 10, 10, 8), np.uint8)
    sig = np.full((10, 10, 10, 10), 4)
    for i in range(4):
        quads[(slice(None),) * i + (..., 2 * i)] = digits.reshape((10,) + (1,) * (3 - i))
        sig[(slice(None),) * (3 - i) + (0,) * (i + 1)] = 3 - i
    sig[0, 0, 0, 0] = -99
    leads = np.zeros((10, 8), np.uint8)
    leads[:, _DIGITS] = digits
    zeros = np.zeros((18, _WIDTH), np.uint8)
    for n in range(1, 18):
        zeros[n, _DIGITS + 2 * n:_DIGITS + 34:2] = ord("0")
    powers = np.array([float(10 ** k) for k in range(23)])
    fields, least = zip(*(_template(*flags, e) for flags in np.ndindex(2, 2, 2)
                          for e in range(_EMIN, _EMAX + 1)))
    return ((powers, *_split(powers)), quads.view(np.int64).ravel(), sig.ravel(),
            leads.view(np.int64).ravel(), _words(b"".join(fields), len(fields)),
            np.array(least[:_CLASSES]), _words(zeros.tobytes(), len(zeros))[1:5])


def _scaled(a, k, powers):
    """(p, err): the rounded product a 10^k and its exact error."""
    b, b_hi, b_lo = (t.take(k) for t in powers)
    a_hi, a_lo = _split(a)
    p = a * b
    return p, (((a_hi * b_hi - p) + a_hi * b_lo) + a_lo * b_hi) + a_lo * b_lo


def _significands(v, powers):
    """(q, k, ok): whether each value takes the vectorised path, and there
    the integer q in [10^16, 10^17) with |v| = q 10^-k to 17 significant
    digits (elsewhere q is 2 10^16 and k is 16)."""
    a = np.abs(v)
    ok = (a > 0) & (a < np.inf)
    a[~ok] = 2.0
    k = 16 - np.floor(np.log(a) * 0.4342944819032518)   # log10 e
    wide = (k < 0) | (k > 22)
    ok &= ~wide
    a[wide], k[wide] = 2.0, 16
    p, err = _scaled(a, k.astype(np.int64), powers)
    # the rounded logarithm can miss the decade by one next to a power of ten
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if edge.size:
        pe, ee = p[edge], err[edge]
        k[edge[(pe < 1e16) | ((pe == 1e16) & (ee < 0))]] += 1
        k[edge[(pe > 1e17) | ((pe == 1e17) & (ee >= 0))]] -= 1
        out = edge[(k[edge] < 0) | (k[edge] > 22)]
        ok[out], a[out], k[out] = False, 2.0, 16
        p[edge], err[edge] = _scaled(a[edge], k[edge].astype(np.int64), powers)
        # a product that rounds to 10^17 from below might round up to the
        # next decade (no double of these decades does)
        out = edge[p[edge] == 1e17]
        ok[out], p[out], err[out], k[out] = False, 2e16, 0.0, 16
    floor = np.floor(err)
    err -= floor
    ok &= err != 0.5
    k[~ok] = 16
    q = p.astype(np.int64)
    q += floor.astype(np.int64)
    q += err > 0.5
    return q, k, ok


def csv_rows(cells) -> str:
    """The CSV lines of a 2-D float array: each row's ``'%.17g'`` texts,
    joined by ``,`` and ended by a newline."""
    cells = np.asarray(cells, dtype=float)
    rows = max(1, _CHUNK // cells.shape[1])
    return "".join(_lines(cells[i:i + rows]) for i in range(0, len(cells), rows))


def _lines(cells) -> str:
    """csv_rows of at most _CHUNK values."""
    powers, quads, sig, leads, templates, least, zeros = _tables()
    v = np.ascontiguousarray(cells).ravel()
    q, k, ok = _significands(v, powers)
    decade = (16 - _EMIN - k).astype(np.int64)
    lead, q = np.divmod(q, 10 ** 16)
    groups = np.empty((4, len(v)), np.int64)
    np.divmod(q, 10 ** 8, out=(groups[0], groups[2]))
    np.divmod(groups[::2], 10 ** 4, out=(groups[::2], groups[1::2]))
    digits = sig.take(groups)
    digits += np.array([[1], [5], [9], [13]])
    whole = least.take(decade)
    extra = np.maximum(digits.max(axis=0) - whole, 0)   # digits after the point
    row = (2 * np.minimum(extra, 1) + np.signbit(v)) * _CLASSES + decade
    row.reshape(-1, cells.shape[1])[:, -1] += 4 * _CLASSES
    whole += extra
    del q, k, decade, digits, extra

    words = templates.take(row, axis=1)
    words[0] += leads.take(lead)
    for word, group, zero in zip(words[1:], groups, zeros):
        word += quads.take(group)
        word -= zero.take(whole)
    del groups, lead, row, whole
    others = np.flatnonzero(~ok)
    if others.size:
        texts = b"".join((b"%.17g" % x).ljust(40, b"\0") for x in v[others].tolist())
        words[:5, others] = _words(texts, others.size)
    # in blocks, so no buffer outgrows the memory that the steps above freed
    return b"".join(words[:, i:i + _BLOCK].T.tobytes().translate(None, b"\0")
                    for i in range(0, len(v), _BLOCK)).decode("ascii")
