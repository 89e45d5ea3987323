"""CSV cells exactly as Python's ``%`` writes them, a chunk of rows at a time.

Every float is written as ``"%.17g" % x`` and every integer as
``"%d" % n``. ``lines`` cuts a table into chunks of equal row counts
and writes their rows; the cells come from the vectorized
``float_words`` and ``int_words``, or, in a table too small to repay
them, from Python's ``%`` itself. Both lay a cell out as rows of
indexes into one table of four-byte words and look all of them up in
one ``take``. ``float_words`` reads a cell's 17 digits off one
long-double product |x|·10^(16−e); all that depends on the decimal
exponent e alone (the power of ten, the width of the tie window, where
the point splits the digits, the exponent's spelling) comes from one
row per decade of a table. It hands every cell whose digits it cannot
certify (NaN, ±inf, a fraction within the product's error of a rounding
tie, a product outside its decade) to Python's own ``"%.17g"``, so
either way the bytes are Python's.
"""

from __future__ import annotations

import functools

import numpy as np

# A cell is built from uint32 words of four ASCII bytes each; a NUL byte is
# a dropped character, and one ``bytes.translate`` per chunk drops them all.
# ``_words`` holds every word a cell uses. Four-digit groups come first, in
# four spellings of _GROUP entries each: at offset 0 with trailing zeros
# dropped (group 0 is empty), at _LEAD with leading zeros dropped (group 0
# is "0"), at _FULL with all four digits, and at _HI with all four digits
# but group 0 empty. "-" and "." follow, then the first and the second
# exponent word of each decade.
_GROUP = 10_000
_LEAD, _FULL, _HI = _GROUP, 2 * _GROUP, 3 * _GROUP
_MINUS, _POINT = 4 * _GROUP, 4 * _GROUP + 1
_EXPONENTS = 4 * _GROUP + 2
# The decade of a cell: 0 for ±0 and 1 + e − _E_MIN for a finite |x| in
# [10^e, 10^(e+1)), where e runs from the smallest subnormal's −324 to the
# largest double's 308. NaN and ±inf fall in whichever decade the cast of
# their log10 picks, and none of their digits is certain.
_E_MIN, _E_MAX = -324, 308
_DECADES = _E_MAX - _E_MIN + 2
_EXPONENT_ROWS = _EXPONENTS + _DECADES * np.arange(2)[:, None]
# The int64 columns of a decade's row: the product's certain range
# [_LOW, _LOW + _SPAN); the divisor that splits the 17 digits at the point
# (_SCALE); for a fraction "0.0…", the divisor that splits off its first
# group hi (_HI_SCALE, 10^17 otherwise, which leaves hi 0); the factor
# that left-aligns the remaining digits to 16 (_SHIFT); and how many
# exponent words the cell takes (_EXPONENT_WORDS).
_LOW, _SPAN, _SCALE, _HI_SCALE, _SHIFT, _EXPONENT_WORDS = range(6)
# Twice the relative rounding error of one long-double operation: a digit
# is certain only if the product's fraction is farther from a rounding tie
# than the product's error. On a platform whose long double is a plain
# double, that error exceeds half a unit at 1e16, so every cell takes the
# fallback.
_TIE_TOLERANCE = float(np.finfo(np.longdouble).eps)
# Below this many cells in a table, Python's own "%d"/"%.17g" rows are as
# fast. In a tight loop the vector path costs 70–80 µs a chunk and Python
# 0.3–0.45 µs a cell, so they would meet at 200–290 cells; but a table is
# written between runs that leave the caches cold, and there the vector
# path costs 250–400 µs a chunk: fig3a's 567-cell run.csv took 0.2 ms
# longer on it inside the benchmark's figures-10k pass.
_VECTOR_MIN = 1024
# Cells formatted per chunk: bounds the formatter's temporaries to about 1 MiB.
_CHUNK_CELLS = 4096


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


_COMMA, _NEWLINE = _word(b","), _word(b"\n")


def _exponents() -> np.ndarray:
    """The decimal exponent of each decade: ±0 is spelled as a decade-0
    cell, "0" (and "-0") with nothing after it."""
    return np.concatenate([[0], np.arange(_E_MIN, _E_MAX + 1)])


@functools.cache
def _words() -> np.ndarray:
    """Every word a cell is built from, one uint32 of ASCII bytes each."""
    g = np.arange(_GROUP, dtype=np.int16)[:, None]
    chars = (g // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    col = np.arange(4)
    width = 1 + (g >= 10) + (g >= 100) + (g >= 1000)
    kept = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    groups = np.stack([chars * (col < kept), chars * (col >= 4 - width), chars, chars * (g > 0)])
    # "e±XX" or "e±XXX" in two words, empty in fixed form
    exponents = b"".join((b"e%+03d" % e if e < -4 or e > 16 else b"").ljust(8, b"\0")
                         for e in _exponents().tolist())
    words = np.concatenate([groups.view(np.uint32).ravel(), [_word(b"-"), _word(b".")],
                            np.frombuffer(exponents, np.uint32).reshape(-1, 2).T.ravel()])
    words.flags.writeable = False  # shared by every caller
    return words


@functools.cache
def _decades() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decade: 10^(16−e), correctly rounded to a long double (parsed
    from its decimal string, not formed by repeated products); the tie
    window per unit of product, eps/2 if that power is exact and eps if
    not (the entry is within eps/2 of 10^(16−e), relative, and the product
    adds at most eps/2); and the int64 columns _LOW … _EXPONENT_WORDS. ±0
    is certain only as the product 0."""
    e = _exponents()
    powers = np.array([np.longdouble(f"1e{16 - q}") for q in e.tolist()])
    inexact = np.array([q > 16 or p.as_integer_ratio() != (10 ** (16 - q), 1)
                        for p, q in zip(powers, e.tolist())])
    tolerance = _TIE_TOLERANCE / 2 * (1 + inexact)
    fixed, below = (e >= 0) & (e <= 16), (e >= -4) & (e < 0)
    columns = np.empty((_DECADES, 6), np.int64)
    columns[:, _LOW], columns[:, _SPAN] = 10 ** 16, 9 * 10 ** 16 - 1
    columns[0, _LOW], columns[0, _SPAN] = 0, 1
    # the point after digit e in fixed form, before a group of zeros and
    # digits in "0.0…", after the first digit in exponent form
    scale = np.where(fixed, 10 ** (16 - np.clip(e, 0, 16)), np.where(below, 10 ** 17, 10 ** 16))
    hi_scale = np.where(below, 10 ** (12 - np.clip(e, -4, 0)), 10 ** 17)
    columns[:, _SCALE], columns[:, _HI_SCALE] = scale, hi_scale
    columns[:, _SHIFT] = 10 ** 16 // np.minimum(scale, hi_scale)
    columns[:, _EXPONENT_WORDS] = ((e < -4) | (e > 16)) * (1 + (np.abs(e) >= 100))
    for table in (powers, tolerance, columns):
        table.flags.writeable = False  # shared by every caller
    return powers, tolerance, columns


def _groups_needed(most: int) -> int:
    """Four-digit groups that spell every integer from 0 to ``most``."""
    return max(1, (len(str(most)) + 3) // 4)


def _magnitude(q: np.ndarray, out: np.ndarray) -> None:
    """Spell the non-negative integers ``q`` (below 10^(4·len(out))) into
    the index rows ``out`` as four-digit groups, most significant first,
    with leading zeros dropped and 0 written as "0"."""
    groups = out.view(q.dtype)  # the same bits: q's arithmetic, intp indexes
    rest = q
    for j in range(len(out) - 1):
        scale = 10 ** (4 * (len(out) - 1 - j))
        np.floor_divide(rest, scale, out=groups[j])
        rest = rest - groups[j] * scale
    groups[-1] = rest
    if len(out) == 1:
        out += _LEAD
        return
    # a group is spelled at _LEAD from the first nonzero one (the units
    # group at the latest) and at _FULL after it
    starts = [10 ** (4 * j) for j in range(len(out) - 1, 0, -1)] + [0]
    started = q >= np.array(starts, q.dtype)[:, None]
    out += started * _LEAD
    out[1:] += started[:-1] * _LEAD


def _fraction(lo: np.ndarray, out: np.ndarray) -> None:
    """Spell the 16-digit fractions ``lo`` into the four index rows ``out``
    as four-digit groups, left-aligned: a group keeps its trailing zeros
    while a later one is nonzero, so the trailing zeros of ``lo`` are
    dropped."""
    # int32 rows: groups 0 to 3, then whether a digit after group 0, 1 or
    # 2 is nonzero; rows 4 and 5 first hold the first and the last 8 digits
    rows = np.empty((7, lo.size), np.int32)
    halves = rows[4:6]
    top = lo // 10 ** 8
    halves[0] = top
    np.subtract(lo, top * 10 ** 8, out=halves[1], casting="unsafe")
    np.floor_divide(halves, _GROUP, out=rows[0:4:2])
    np.subtract(halves, rows[0:4:2] * _GROUP, out=rows[1:4:2])
    later = rows[4:]
    np.bitwise_or(rows[1], halves[1], out=later[0])  # group 1 or the last 8 digits
    later[2] = rows[3]
    np.minimum(later, 1, out=later)
    later *= _FULL
    rows[:3] += later
    out[...] = rows[:4]


def int_words(v: np.ndarray) -> np.ndarray:
    """``"%d" % v`` for each int64 in ``v``: one row of uint32 words per
    word of a cell, one column per cell."""
    v = v.astype(np.int64, copy=False)
    q = np.abs(v).view(np.uint64)  # |int64 min| wraps to 2^63, its true magnitude
    negative = v < 0
    sign = int(negative.any())
    index = np.empty((sign + _groups_needed(int(q.max(initial=0))), v.size), np.intp)
    if sign:
        np.multiply(negative, _MINUS, out=index[0])
    _magnitude(q, index[sign:])
    return _words().take(index)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits d of each |x| as an integer in [1e16, 1e17)
    (0 for ±0 and for every cell that is not certain), its decade k, the
    int64 columns of that decade's row, and whether d is certain.

    d is the long-double product |x|·10^(16−e) rounded to an integer; |x|
    is exact in a long double. A fraction farther than the product's error
    from 0.5 rounds as the exact one does; the fraction of NaN or ±inf is
    NaN or inf, which is near everything. A product outside
    [1e16, 1e17 − 1) (log10 rounded across a power of ten) is not certain.
    """
    a = np.abs(x)
    powers, tolerance, columns = _decades()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.floor(np.log10(a))  # −inf for ±0
        t -= _E_MIN - 1
        k = t.astype(np.intp)  # any value for NaN and ±inf: each take clips it
        decade = columns.take(k, axis=0, mode="clip")
        p = np.multiply(a, powers.take(k, mode="clip"), dtype=np.longdouble)
        d = p.astype(np.int64)  # floor: p >= 0
        fraction = np.subtract(p, d, out=np.empty(x.size), casting="unsafe")
        error = np.multiply(p, tolerance.take(k, mode="clip"), dtype=np.float64,
                            casting="unsafe")
        certain = np.abs(fraction - 0.5) > error
    certain &= (d - decade[:, _LOW]).view(np.uint64) < decade[:, _SPAN].view(np.uint64)
    d += fraction > 0.5
    d *= certain  # Python writes those cells; as 0 they size nothing
    return d, k, decade, certain


def float_words(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each float64 in ``x``: one row of uint32 words
    per word of a cell, one column per cell; Python's own ``"%.17g"``
    writes each cell whose digits ``_decimal`` cannot certify.

    With the 17 digits d, the cell is ``[-]whole[.[hi]lo][e±XX]``. The
    decade's _SCALE splits d into the whole part and the digits after the
    point; _HI_SCALE splits a fraction "0.0…" into its first group hi and
    the rest; _SHIFT left-aligns the rest to the 16-digit ``lo``, whose
    trailing zeros are dropped.
    """
    d, k, decade, certain = _decimal(x)
    whole, lo = np.divmod(d, decade[:, _SCALE])
    negative = np.signbit(x)
    # words per cell: sign, whole part, point, hi, lo, exponent; at least
    # six, which hold any "%.17g" text
    n_sign, n_hi = int(negative.any()), int((decade[:, _HI_SCALE] != 10 ** 17).any())
    n_exp = int(decade[:, _EXPONENT_WORDS].max())
    row = n_sign + _groups_needed(int(whole.max(initial=0)))  # the point's
    index = np.empty((row + 1 + n_hi + 4 + n_exp, x.size), np.intp)
    if n_sign:
        np.multiply(negative, _MINUS, out=index[0])
    _magnitude(whole, index[n_sign:row])
    point = lo != 0
    if n_hi:  # a fraction "0.0…": hi keeps its trailing zeros while lo is nonzero
        hi = index[row + 1]
        np.divmod(lo, decade[:, _HI_SCALE], out=(hi, lo))
        np.not_equal(lo, 0, out=point)
        hi += point * _HI
        point |= hi != 0
    np.multiply(point, _POINT, out=index[row])
    lo *= decade[:, _SHIFT]
    row += 1 + n_hi
    _fraction(lo, index[row:row + 4])
    if n_exp:
        np.add(k, _EXPONENT_ROWS[:n_exp], out=index[row + 4:])
    words = _words().take(index, mode="clip")  # clips the exponent words of NaN and ±inf
    bad = np.flatnonzero(~certain)
    if bad.size:
        width = 4 * len(words)
        text = b"".join(("%.17g" % v).encode().ljust(width, b"\0") for v in x[bad].tolist())
        words[:, bad] = np.frombuffer(text, np.uint32).reshape(bad.size, -1).T
    return words


def lines(columns):
    """The rows of equal-length 1-D ``columns`` (int64 or float64) as CSV
    lines, a chunk of bytes at a time: Python's ``%`` writes a table of
    fewer than ``_VECTOR_MIN`` cells, and a larger one is cut into
    ⌈cells / ``_CHUNK_CELLS``⌉ chunks whose row counts differ by at most
    one, each laid out by ``_chunk_words`` and squeezed of its NULs by
    one ``bytes.translate``."""
    n = len(columns[0])
    if n * len(columns) < _VECTOR_MIN:
        line = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
        yield "".join(line % row for row in zip(*(c.tolist() for c in columns))).encode()
        return
    distinct = list({id(c): c for c in columns}.values())  # each array formatted once a chunk
    floats = [c for c in distinct if c.dtype.kind == "f"]
    ints = [c for c in distinct if c.dtype.kind != "f"]
    ids = [id(c) for c in floats + ints]
    slots = [ids.index(id(c)) for c in columns]
    chunks = -(-n * len(columns) // _CHUNK_CELLS)
    size, longer = divmod(n, chunks)
    stop = 0
    for i in range(chunks):
        start, stop = stop, stop + size + (i < longer)
        yield _chunk_words([c[start:stop] for c in floats], [c[start:stop] for c in ints],
                           slots).tobytes().translate(None, b"\0")


def _chunk_words(floats, ints, slots) -> np.ndarray:
    """One row of NUL-padded words per CSV line of a chunk that holds each
    distinct float array and each distinct int array once, its columns
    in the order of ``slots`` into ``floats + ints``; the float arrays are
    formatted in one ``float_words`` call and the int arrays in one
    ``int_words`` call. A function of its own, so that its temporaries are
    freed before ``lines`` cuts the next chunk, not held by the paused
    generator."""
    m = len((floats + ints)[0])
    cells = [words[:, j * m:(j + 1) * m]
             for arrays, format_words in ((floats, float_words), (ints, int_words)) if arrays
             for words in [format_words(np.concatenate(arrays))] for j in range(len(arrays))]
    comma = np.full((1, m), _COMMA)
    out = np.concatenate([w for k in slots for w in (cells[k], comma)])
    out[-1] = _NEWLINE
    return out.T
