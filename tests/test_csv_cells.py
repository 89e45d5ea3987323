"""The CSV writer's vectorized cells against Python's own ``%`` formatting."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import zenocool._cells as cells
import zenocool.runner as runner
from zenocool import (PopulationDistribution, build_table, initial_state, parse_config_data,
                      run)
from zenocool.runner import (RUN_COLUMNS, write_coefficients_csv, write_histogram_csv,
                             write_run_csv)


def _text(words: np.ndarray) -> list[bytes]:
    """One bytes cell per column of a word matrix, NULs dropped."""
    return [bytes(cell).replace(b"\0", b"") for cell in words.T.copy().view(np.uint8)]


def _floats(values) -> list[bytes]:
    return _text(cells.float_words(np.array(values, dtype=np.float64)))


def _want(values) -> list[bytes]:
    return [("%.17g" % v).encode() for v in values]


def _powers_and_neighbours() -> list[float]:
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    return [v for p in powers for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]


def _ties() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits
    ending in 5: the 17th digit is a rounding tie, broken to even."""
    twelve_digits = [123456789012.0 + k / 64 for k in range(1, 64, 2)]
    sixteen_digits = [1125899906842624.0 + k / 4 for k in (1, 3, 5, 7)]
    return [s * v for v in twelve_digits + sixteen_digits for s in (1.0, -1.0)]


EDGES = (
    _powers_and_neighbours()
    + [k / 64 for k in range(-640, 641)]
    + _ties()
    # the decade edges of the 17-digit product and the fixed/exponent switch
    + [1e16, 1e16 - 2.0, 1e16 + 2.0, 1e17, 1e17 - 16.0, 1e17 + 16.0,
       9999999999999998.0, 99999999999999984.0]
    + [m * 10.0 ** k for k in (-5, -4, 16, 17) for m in (1.0, 1.5, 9.999999999999999, 1.2345678901234567)]
    + [sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324, sys.float_info.min,
       2.2250738585072009e-308, 0.0, -0.0, math.inf, -math.inf, math.nan]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_are_python_percent_17g(values):
    assert _floats(values) == _want(values)


def test_float_cells_on_the_edge_list():
    assert _floats(EDGES) == _want(EDGES)


def test_random_bit_patterns():
    bits = np.random.default_rng(3).integers(0, 2**64, 50_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert _floats(values) == _want(values.tolist())


def test_every_cell_through_the_fallback(monkeypatch):
    """With an infinite tie window no digit is certain, so Python's own
    "%.17g" writes every cell; a garbage word table proves that no cell
    is spelled from the table."""
    values = EDGES + np.random.default_rng(4).standard_normal(2_000).tolist()
    powers, tolerance, columns = cells._decades()
    monkeypatch.setattr(cells, "_decades",
                        lambda: (powers, np.full_like(tolerance, math.inf), columns))
    garbage = np.full_like(cells._words(), int.from_bytes(b"XXXX", "little"))
    monkeypatch.setattr(cells, "_words", lambda: garbage)
    assert _floats(values) == _want(values)


def test_int_cells_are_python_percent_d():
    rng = np.random.default_rng(5)
    info = np.iinfo(np.int64)
    values = np.concatenate([
        rng.integers(info.min, info.max, 5_000, endpoint=True),
        np.arange(-20_001, 20_001),
        [info.min, info.max, info.min + 1, 0, -1, 10**16, -(10**16)],
    ])
    assert _text(cells.int_words(values)) == [b"%d" % v for v in values.tolist()]


def test_power_table_is_correctly_rounded():
    """Each decade's entry lies within half an ulp of 10^(16−e), the bound
    the tie window rests on, and the window is doubled exactly where the
    entry is inexact."""
    powers, tolerance, _ = cells._decades()
    for k, e in enumerate(cells._exponents().tolist()):
        q = 16 - e
        exact = Fraction(10) ** q
        value = Fraction(*powers[k].as_integer_ratio())
        half_ulp = Fraction(*np.spacing(powers[k]).as_integer_ratio()) / 2
        assert abs(value - exact) <= half_ulp, q
        assert tolerance[k] == cells._TIE_TOLERANCE / 2 * (1 + (value != exact)), q


def _shifted_decades(shift: int, exponents) -> tuple:
    """The decade table with 10^(16−e) off by ``shift`` decades for each
    e in ``exponents``, so that the product lands outside its decade."""
    powers, tolerance, columns = cells._decades()
    powers = powers.copy()
    for e in exponents:
        powers[1 + e - cells._E_MIN] *= np.longdouble(10) ** shift
    return powers, tolerance, columns


@pytest.mark.parametrize("shift", [1, -1])
def test_a_product_outside_its_decade_is_not_certain(monkeypatch, shift):
    """With 10^(16−e) a decade too large (the product at or above 1e17) or
    too small (below 1e16) for some e, those cells fail the decade guard
    and Python's "%.17g" writes them; the other cells keep the vector
    path. Without the guard they would come out with a digit too many or
    too few."""
    exponents = [-300, -5, -2, 0, 3, 16, 17, 200]
    shifted = [s * m * 10.0 ** e for e in exponents for m in (1.5, 1.2345678901234567, 9.5)
               for s in (1.0, -1.0)]
    kept = [m * 10.0 ** e for e in (-100, -3, 1, 5) for m in (1.25, -3.5)]
    values = shifted + kept
    table = _shifted_decades(shift, exponents)
    monkeypatch.setattr(cells, "_decades", lambda: table)
    certain = cells._decimal(np.array(values))[-1]
    assert not certain[:len(shifted)].any() and certain[len(shifted):].all()
    assert _floats(values) == _want(values)


def _rows(columns) -> bytes:
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    return "".join(fmt % row for row in zip(*(c.tolist() for c in columns))).encode()


@pytest.mark.parametrize("vector_min", [0, 10**9])
def test_both_row_paths_write_the_same_bytes(monkeypatch, vector_min):
    rng = np.random.default_rng(6)
    x = np.array(EDGES)
    columns = [np.arange(x.size) - 50, x, rng.standard_normal(x.size), x]
    monkeypatch.setattr(cells, "_VECTOR_MIN", vector_min)
    assert b"".join(cells.lines(columns)) == _rows(columns)


def test_chunks_cover_every_row_once(tmp_path, monkeypatch):
    """Rows straddle chunk boundaries, the chunks differ by at most one
    row, and a column passed twice is written in both places."""
    monkeypatch.setattr(cells, "_CHUNK_CELLS", 60)
    monkeypatch.setattr(cells, "_VECTOR_MIN", 40)
    rng = np.random.default_rng(7)
    n = 47  # 188 cells: ⌈188 / 60⌉ = 4 chunks
    a = rng.standard_normal(n) * 1e-6
    columns = [np.arange(n), a, rng.random(n), a]
    assert [c.count(b"\n") for c in cells.lines(columns)] == [12, 12, 12, 11]
    runner._write_csv(tmp_path / "x.csv", ("n", "a", "b", "a"), columns)
    assert (tmp_path / "x.csv").read_bytes() == b"n,a,b,a\n" + _rows(columns)
    rows = _vector_chunk_rows(monkeypatch)
    for n in range(5, 200):  # 20 to 796 cells: the Python path, then 1 to 14 chunks
        k = np.arange(n)  # passed twice, so formatted once a chunk
        chunks = list(cells.lines([k, rng.random(n), rng.random(n), k]))
        if 4 * n < 40:
            assert not rows and len(chunks) == 1
        else:
            assert rows == [c.count(b"\n") for c in chunks] and sum(rows) == n
            assert max(rows) - min(rows) <= 1 and 4 * max(rows) <= 60 + 4
        del rows[:]


def _vector_chunk_rows(monkeypatch) -> list[int]:
    """The row count of each int column that ``int_words`` formats, as a
    list that fills while the test writes."""
    rows, int_words = [], cells.int_words
    monkeypatch.setattr(cells, "int_words", lambda v: rows.append(len(v)) or int_words(v))
    return rows


def test_a_table_is_cut_into_equal_vector_chunks(tmp_path, monkeypatch):
    """fig4's 2,320-row histogram (4,640 cells) is two chunks of 1,160 rows
    and a fig9 table (2,501 rows of 5 columns) four of 626, 625, 625, 625;
    every chunk takes the vector path, whose ``int_words`` writes the n
    column, and formats the ``abs2`` column passed twice once."""
    config = parse_config_data({"preset": "fig4"})
    result = run(initial_state(config.thermal_spec(), config.schedule(),
                               hard_cap=config.hard_cap), config.schedule())
    fig9 = parse_config_data({"preset": "fig9"})
    table = build_table(fig9.outputs.variants[0], fig9.params, fig9.outputs.n_max)
    rows = _vector_chunk_rows(monkeypatch)
    write_histogram_csv(tmp_path / "histogram.csv", result.final)
    assert rows == [1160, 1160]
    del rows[:]
    floats, float_words = [], cells.float_words
    monkeypatch.setattr(cells, "float_words", lambda x: floats.append(x.size) or float_words(x))
    write_coefficients_csv(tmp_path / "coefficients.csv", table, fig9.outputs.powers)
    assert rows == [626, 625, 625, 625]
    assert floats == [3 * r for r in rows]  # re, im and abs2
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert len(lines) == 2502 and lines[0] == "n,re,im,abs2,abs2_pow_2"


def test_an_empty_table_writes_its_header(tmp_path):
    runner._write_csv(tmp_path / "x.csv", ("n", "p"), [np.arange(0), np.zeros(0)])
    assert (tmp_path / "x.csv").read_bytes() == b"n,p\n"


def test_run_and_histogram_files_match_the_row_wise_layout(tmp_path):
    """fig4 writes 2,320 histogram rows: two vector chunks of 1,160 rows."""
    config = parse_config_data({"preset": "fig4"})
    result = run(initial_state(config.thermal_spec(), config.schedule(),
                               hard_cap=config.hard_cap), config.schedule())
    write_run_csv(tmp_path / "run.csv", result)
    write_histogram_csv(tmp_path / "histogram.csv", result.final)
    assert (tmp_path / "run.csv").read_bytes() == (
        ",".join(RUN_COLUMNS) + "\n" + "".join(
            "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % row
            for row in result.records.tolist())).encode()
    p = result.final.probabilities()
    assert p.size == 2320
    assert (tmp_path / "histogram.csv").read_bytes() == (
        "n,p_n\n" + "".join("%d,%.17g\n" % row for row in enumerate(p.tolist()))).encode()


def test_a_histogram_with_underflowed_levels(tmp_path):
    lw = np.concatenate([np.linspace(0.0, -700.0, 1_500), np.full(500, -np.inf),
                         np.linspace(-740.0, -745.0, 100)])
    d = PopulationDistribution(lw)
    write_histogram_csv(tmp_path / "h.csv", d)
    p = d.probabilities()
    assert (p == 0.0).any() and (p[p > 0] < sys.float_info.min).any()
    assert (tmp_path / "h.csv").read_bytes() == (
        "n,p_n\n" + "".join("%d,%.17g\n" % row for row in enumerate(p.tolist()))).encode()


_COLUMN = st.one_of(arrays(np.int64, st.shared(st.integers(1, 300), key="rows")),
                    arrays(np.float64, st.shared(st.integers(1, 300), key="rows"),
                           elements=st.floats()))


@pytest.mark.parametrize("chunk_cells, vector_min", [(cells._CHUNK_CELLS, cells._VECTOR_MIN),
                                                    (60, 40)])
@settings(max_examples=60, deadline=None)
@given(columns=st.lists(_COLUMN, min_size=1, max_size=5), twice=st.integers(0, 10))
def test_random_tables_are_python_percent_rows(tmp_path_factory, chunk_cells, vector_min,
                                               columns, twice):
    """Whole tables of 1 to 300 rows of int64 and float64 columns (NaN,
    ±inf, −0.0 and subnormals included), one array passed twice, written
    through ``runner._write_csv``: at the default sizes a table takes
    either side of ``_VECTOR_MIN``, and at 60 cells a chunk, with the
    vector path from 40 cells, it is cut into many chunks."""
    columns.insert(twice % (len(columns) + 1), columns[0])
    path = tmp_path_factory.mktemp("table") / "x.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cells, "_CHUNK_CELLS", chunk_cells)
        patch.setattr(cells, "_VECTOR_MIN", vector_min)
        runner._write_csv(path, [f"c{j}" for j in range(len(columns))], columns)
    header = ",".join(f"c{j}" for j in range(len(columns))) + "\n"
    assert path.read_bytes() == header.encode() + _rows(columns)


def _peak_bytes(rows: int) -> int:
    rng = np.random.default_rng(9)
    x = rng.standard_normal(rows)
    columns = [np.arange(rows), x, rng.random(rows) * 1e-9, x]
    tracemalloc.start()
    try:
        for _ in cells.lines(columns):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_formatting_holds_one_chunk_not_the_table():
    """2,000 and 20,000 rows of four columns are 2 and 20 chunks of 1,000
    rows; the peak of iterating ``lines`` stays that of one chunk's
    temporaries."""
    small, large = _peak_bytes(2_000), _peak_bytes(20_000)
    assert large <= 1.2 * small, (small, large)
