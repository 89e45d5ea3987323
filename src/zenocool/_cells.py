"""CSV cells exactly as Python's ``%`` writes them, a chunk of rows at a time.

Every float is written as ``"%.17g" % x`` and every integer as
``"%d" % n``. ``lines`` cuts a table into chunks of equal row counts
and writes their rows; the cells come from the vectorized
``float_words`` and ``int_words``, or, in a table too small to repay
them, from Python's ``%`` itself. ``float_words`` reads a cell's 17
digits off one long-double product |x|·10^(16−e) and hands every cell
whose digits it cannot certify (NaN, ±inf, a fraction within the
product's error of a rounding tie) to Python's own ``"%.17g"``, so either
way the bytes are Python's.
"""

from __future__ import annotations

import functools

import numpy as np

# A cell is built from uint32 words of four ASCII bytes each; a NUL byte is
# a dropped character, and one ``bytes.translate`` per chunk drops them all.
# Four-digit groups are spelled from one table of four spellings, _GROUP
# entries each: at offset 0 with trailing zeros dropped (group 0 is
# empty), at _LEAD with leading zeros dropped (group 0 is "0"), at _FULL
# with all four digits, and at _EXP with at least two (an exponent).
_GROUP = 10_000
_LEAD, _FULL, _EXP = _GROUP, 2 * _GROUP, 3 * _GROUP
_POW10 = 10 ** np.arange(17, dtype=np.int64)
# |x|·10^(16−e) holds the 17 digits of x = d.ddd…·10^e, for e from the
# largest double's 308 down to the smallest subnormal's −324.
_Q_MIN, _Q_MAX = 16 - 308, 16 + 324
# Twice the relative rounding error of one long-double operation: a digit
# is certain only if the product's fraction is farther from a rounding tie
# than the product's error. On a platform whose long double is a plain
# double, that error exceeds half a unit at 1e16, so every cell takes the
# fallback.
_TIE_TOLERANCE = float(np.finfo(np.longdouble).eps)
# Below this many cells in a table, Python's own "%d"/"%.17g" rows are as
# fast: the vector path costs 200–400 µs a chunk and 0.2–0.3 µs a cell,
# Python 0.6–1.2 µs a float cell.
_VECTOR_MIN = 1024
# Cells formatted per chunk: bounds the formatter's temporaries to about 1 MiB.
_CHUNK_CELLS = 4096


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


_COMMA, _NEWLINE, _MINUS, _POINT = map(_word, (b",", b"\n", b"-", b"."))


@functools.cache
def _spellings() -> np.ndarray:
    """Every four-digit group in each of the four spellings, one uint32 of
    ASCII bytes each, at index spelling + group."""
    g = np.arange(_GROUP, dtype=np.int16)[:, None]
    chars = (g // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    col = np.arange(4)
    width = 1 + (g >= 10) + (g >= 100) + (g >= 1000)
    kept = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    spelled = np.empty((4, _GROUP, 4), np.uint8)
    for out, keep in zip(spelled, (col < kept, col >= 4 - width, True,
                                   col >= 4 - np.maximum(width, 2))):
        np.multiply(chars, keep, out=out)
    spelled.flags.writeable = False  # shared by every caller
    return spelled.view(np.uint32).ravel()


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10^q for q in _Q_MIN.._Q_MAX, each correctly rounded to a long double
    (parsed from its decimal string, not formed by repeated products), and
    whether the entry is inexact."""
    powers = np.array([np.longdouble(f"1e{q}") for q in range(_Q_MIN, _Q_MAX + 1)])
    inexact = np.array([q < 0 or p.as_integer_ratio() != (10 ** q, 1)
                        for p, q in zip(powers, range(_Q_MIN, _Q_MAX + 1))])
    powers.flags.writeable = inexact.flags.writeable = False  # shared by every caller
    return powers, inexact


def _magnitude_words(q: np.ndarray, out: np.ndarray) -> None:
    """Write the non-negative integers ``q`` into the rows of ``out`` as
    four-digit groups, most significant first, with leading zeros dropped
    and 0 written as "0"; ``q`` is below 10^(4·len(out))."""
    scales = 10 ** np.arange(4 * len(out) - 4, -1, -4, dtype=q.dtype)
    prefix = q // scales[:, None]  # the digits up to and including each group
    groups = prefix.copy()
    groups[1:] -= prefix[:-1] * q.dtype.type(_GROUP)
    started = prefix != 0
    started[-1] = True  # the units group: "0" if nothing precedes it
    index = groups.astype(np.intp) + _LEAD * started
    index[1:] += _LEAD * started[:-1]  # all four digits after a nonzero group
    _spellings().take(index, out=out)


def _fraction_words(lo: np.ndarray, out: np.ndarray) -> None:
    """Write the 16-digit fractions ``lo`` into the four rows of ``out`` as
    four-digit groups, left-aligned: a group keeps its trailing zeros while
    a later one is nonzero, so the trailing zeros of ``lo`` are dropped."""
    scales = _POW10[12::-4, None]
    prefix = lo // scales  # the digits up to and including each group
    groups = prefix.copy()
    groups[1:] -= prefix[:-1] * _GROUP
    _spellings().take(groups + _FULL * (prefix * scales != lo), out=out)


def _groups_needed(q: np.ndarray) -> int:
    return max(1, (len(str(int(q.max(initial=0)))) + 3) // 4)


def int_words(v: np.ndarray) -> np.ndarray:
    """``"%d" % v`` for each int64 in ``v``: one row of uint32 words per
    word of a cell, one column per cell."""
    v = v.astype(np.int64, copy=False)
    q = np.abs(v).view(np.uint64)  # |int64 min| wraps to 2^63, its true magnitude
    negative = v < 0
    sign = int(negative.any())
    words = np.empty((sign + _groups_needed(q), v.size), np.uint32)
    if sign:
        np.multiply(negative, _MINUS, out=words[0])
    _magnitude_words(q, words[sign:])
    return words


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits d of each |x| as an integer in [1e16, 1e17)
    (0 for ±0), its decimal exponent e, and whether d is certain.

    d is the long-double product |x|·10^(16−e) rounded to an integer; |x|
    is exact in a long double. The table entry is within eps/2 of 10^q
    (relative) unless it is exact, and the product adds at most eps/2, so
    a fraction farther than that error from 0.5 rounds as the exact one
    does. A product outside [1e16, 1e17) (log10 rounded across a power of
    ten) is not certain; nor are NaN and ±inf, whose product is 0.
    """
    a = np.abs(x)
    finite = np.isfinite(a) & (a > 0.0)
    e = np.floor(np.log10(a, where=finite, out=np.zeros_like(a))).astype(np.int64)
    powers, inexact = _powers_of_ten()
    q = 16 - _Q_MIN - e
    # 0·inf if the tolerance is inf; inf·x where a long double is a double
    with np.errstate(invalid="ignore", over="ignore"):
        p = np.where(finite, a, 0.0).astype(np.longdouble)
        p *= powers[q]
        d = p.astype(np.int64)  # floor: p >= 0
        fraction = (p - d).astype(np.float64)
        error = p.astype(np.float64) * (_TIE_TOLERANCE / 2) * (1 + inexact[q])
        certain = (np.abs(fraction - 0.5) > error) & ((d >= 10 ** 16) | (x == 0.0))
    d += fraction > 0.5
    certain &= d < 10 ** 17
    return d, e, certain


def float_words(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each float64 in ``x``: one row of uint32 words
    per word of a cell, one column per cell; Python's own ``"%.17g"``
    writes each cell whose digits ``_decimal`` cannot certify.

    With the 17 digits d and exponent e, the cell is
    ``[-]whole[.fraction][e±XX]``. In fixed form (−4 ≤ e ≤ 16) the whole
    part is d // 10^(16−e); when e < 0 it is 0, and the fraction's first
    group ``hi`` is d // 10^(12−e). The fraction's other digits are the
    16-digit ``lo``, left-aligned, trailing zeros dropped. In exponent form
    the same split is taken at e = 0, and ``e±XX`` follows.
    """
    d, e, certain = _decimal(x)
    fixed = (e >= -4) & (e <= 16)
    split = np.where(fixed, e, 0)
    below = split < 0
    scale = _POW10[np.where(below, 12, 16) - split]
    whole = d // scale  # hi where below
    lo = (d - whole * scale) * (_POW10[16] // scale)
    hi = whole * below
    whole -= hi
    more = lo != 0
    negative = np.signbit(x)
    exponent = ~fixed
    # words per cell: sign, whole part, point, hi, lo, exponent
    n_sign, n_whole, n_hi, n_exp = (int(negative.any()), _groups_needed(whole),
                                    int(below.any()), 2 * int(exponent.any()))
    words = np.empty((n_sign + n_whole + 1 + n_hi + 4 + n_exp, x.size), np.uint32)
    row = n_sign + n_whole
    if n_sign:
        np.multiply(negative, _MINUS, out=words[0])
    _magnitude_words(whole, words[n_sign:row])
    np.multiply(below | more, _POINT, out=words[row])
    table = _spellings()
    if n_hi:  # hi keeps its trailing zeros while lo is nonzero
        table.take(hi + _FULL * (below & more), out=words[row + 1])
    row += 1 + n_hi
    _fraction_words(lo, words[row:row + 4])
    if n_exp:
        np.multiply(np.where(e < 0, _word(b"e-"), _word(b"e+")), exponent, out=words[-2])
        np.multiply(table[np.abs(e) + _EXP], exponent, out=words[-1])
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
    distinct = {id(c): c for c in columns}  # each array cut once per chunk
    slots = [list(distinct).index(id(c)) for c in columns]
    for chunk in zip(*(np.array_split(c, -(-n * len(columns) // _CHUNK_CELLS))
                       for c in distinct.values())):
        yield _chunk_words(chunk, slots).tobytes().translate(None, b"\0")


def _chunk_words(chunk, slots) -> np.ndarray:
    """One row of NUL-padded words per CSV line of a chunk that holds each
    distinct array once, its columns in the order of ``slots``; the float
    arrays are formatted in one ``float_words`` call. A function of its
    own, so that its temporaries are freed before ``lines`` cuts the next
    chunk, not held by the paused generator."""
    floats = [c for c in chunk if c.dtype.kind == "f"]
    words = iter(np.split(float_words(np.concatenate(floats)), len(floats), axis=1)
                 if floats else ())
    cells = [next(words) if c.dtype.kind == "f" else int_words(c) for c in chunk]
    comma = np.full((1, len(chunk[0])), _COMMA)
    out = np.concatenate([w for k in slots for w in (cells[k], comma)])
    out[-1] = _NEWLINE
    return out.T
