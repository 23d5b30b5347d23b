"""The compiled CSV formatter against Python's own formatting, cell for cell.

``simulation.csv_chunks`` formats rows in the compiled core (``_csv.c``);
``oracles.csv_bytes`` writes the same rows with ``repr``.  The power-of-5
tables the formatter reads are re-derived here from their definition.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcert import simulation

from oracles import csv_bytes

MIN_NORMAL = sys.float_info.min
MAX_SUBNORMAL = math.nextafter(MIN_NORMAL, 0.0)


def formatted(header, columns) -> bytes:
    """The header line and the compiled core's rows, as ``cli._write_csv`` writes them."""
    return (",".join(header) + "\n").encode() + b"".join(bytes(c) for c in simulation.csv_chunks(columns))


def assert_repr(values, width=1):
    """``values`` as float64, laid out ``width`` cells a row, format as the oracle does."""
    x = np.asarray(values, dtype=np.float64)
    x = np.concatenate([x, np.zeros(-len(x) % width)]).reshape(-1, width)
    columns = list(x.T)  # strided views of one array
    header = [f"c{i}" for i in range(width)]
    got, want = formatted(header, columns), csv_bytes(header, columns)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ from repr, first {bad[:3]}")


def test_the_power_of_5_tables_are_their_definition():
    inv, pow5 = simulation._pow5_tables()
    assert (len(inv), len(pow5)) == simulation._POW5_COUNTS

    def value(row):
        return int(row[0]) + (int(row[1]) << 64)

    for i, row in enumerate(inv):
        p = 5 ** i
        j = p.bit_length() - 1 + 125
        assert value(row) - 1 == 2 ** j // p, i  # floor(2^j / 5^i) + 1
    for i, row in enumerate(pow5):
        p, v = 5 ** i, value(row)
        assert v.bit_length() == 125, i
        # 5^i scaled to 125 bits, its dropped low bits truncated
        assert v == (p >> (p.bit_length() - 125) if p.bit_length() > 125 else p << (125 - p.bit_length())), i


def test_float_cells_are_repr_on_random_bit_patterns_of_every_exponent():
    # 512 patterns of random sign and mantissa per biased exponent, 0 (zero and
    # subnormals) and 2047 (infinities and NaNs of any payload) included
    rng = np.random.default_rng(2018)
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 512)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64) << np.uint64(63)
    mantissas = rng.integers(0, 2 ** 52, exponents.size, dtype=np.uint64)
    x = (signs | exponents << np.uint64(52) | mantissas).view(np.float64)
    rng.shuffle(x)
    assert x.size >= 1_000_000
    for block in np.split(x, 16):
        assert_repr(block, width=8)


def test_float_cells_are_repr_at_powers_layout_boundaries_and_special_values():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    edges = [1e-4, 1e-5, 9999999999999998.0, 1e16, 5e-324, MAX_SUBNORMAL, MIN_NORMAL, sys.float_info.max,
             0.1, 0.3, 2.0 ** 53, 2.0 ** 53 + 2.0, 1.0 / 3.0]
    subnormals = [math.ldexp(float(m), -1074) for m in (1, 2, 3, 10, 2 ** 51, 2 ** 52 - 1)]
    values = powers + edges + subnormals + [float(i) for i in range(-1000, 1001)]
    values += [math.nextafter(v, d) for v in values for d in (-math.inf, math.inf)]
    values += [-v for v in values] + [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    assert_repr(values)
    assert_repr(values, width=5)


def test_the_layout_switches_where_repr_does():
    values = [1e-4, 1e-5, 9999999999999998.0, 1e16, 123.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
              1.7976931348623157e308, 0.30000000000000004]
    assert formatted(["v"], [values]) == (
        b"v\n0.0001\n1e-05\n9999999999999998.0\n1e+16\n123.0\n-0.0\nnan\ninf\n-inf\n5e-324\n"
        b"1.7976931348623157e+308\n0.30000000000000004\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
def test_float_cells_are_repr_on_hypothesis_floats(values, width):
    assert_repr(values, width)


def test_integer_cells_are_str_at_the_int64_extremes():
    big = [10 ** k + d for k in range(19) for d in (-1, 0, 1) if 10 ** k + d < 2 ** 63]
    ints = [-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 63 - 2, 2 ** 63 - 1] + big + [-v for v in big]
    column = np.array(ints, dtype=np.int64)
    floats = np.linspace(-1.0, 1.0, len(ints))
    for columns in ([column], [column, floats, column[::-1]], [ints]):
        assert formatted(["a"] * len(columns), columns) == csv_bytes(["a"] * len(columns), columns)
    assert formatted(["m"], [[-2 ** 63, 2 ** 63 - 1]]) == b"m\n-9223372036854775808\n9223372036854775807\n"


@pytest.mark.parametrize("column", [
    np.arange(-5, 5, dtype=np.int8), np.arange(7, dtype=np.uint32), range(4), np.float32([0.1, -2.5, 3e38]),
    np.arange(12.0)[::-3], [1, 2, 3]], ids=["int8", "uint32", "range", "float32", "reversed", "list"])
def test_narrower_and_strided_columns_format_as_their_values(column):
    assert formatted(["x"], [column]) == csv_bytes(["x"], [column])


@pytest.mark.parametrize("columns, error", [
    ([np.array([2 ** 63], dtype=np.uint64)], TypeError),  # no int64 holds it
    ([np.array([True, False])], TypeError),
    ([np.array(["1"])], TypeError),
    ([np.zeros((2, 2))], TypeError),
    ([np.zeros(3), np.zeros(2)], ValueError),
], ids=["uint64", "bool", "str", "2-d", "unequal"])
def test_columns_the_formatter_cannot_hold_exactly_are_refused(columns, error):
    with pytest.raises(error):
        simulation.csv_chunks(columns)


def test_a_chunk_of_the_longest_cells_fills_its_buffer_and_no_more():
    width = 3
    step = simulation._CSV_CHUNK_BYTES // (simulation._CELL_BYTES * width)
    longest = np.full(2 * step + 1, -2.2250738585072014e-308)
    assert len(repr(float(longest[0]))) + 1 == simulation._CELL_BYTES
    chunks = [bytes(c) for c in simulation.csv_chunks([longest, longest, longest])]
    assert [len(c) for c in chunks] == [step * width * simulation._CELL_BYTES] * 2 + [width * simulation._CELL_BYTES]
    assert b"".join(chunks) == csv_bytes([], [longest] * width)[1:]
