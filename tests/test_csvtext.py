"""csvtext.write_rows against csv.writer itself: the same text for any rows."""

import csv
import io
import math
from itertools import zip_longest

import hypothesis
import pytest
from hypothesis import strategies as st

from adamls.csvtext import BLOCK_ROWS, write_rows

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-07, 0.1, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(),
)
INTS = st.one_of(st.sampled_from([0, 1, -1, 2**70, -(2**70), True, False]), st.integers())
TEXTS = st.one_of(
    st.sampled_from(["", " ", " a", "a ", ",", '"', 'a"b"', "\r", "\n", "a\r\nb", "a,b", "é", "日本語"]),
    st.text(),
)
# Equal numbers whose texts differ.
EQUAL_NUMBERS = st.sampled_from([1, 1.0, True, 2**70, float(2**70)])
# One column each: only floats, only ints, equal numbers of both types
# (1 next to 1.0), any numbers, only strings, or anything csv.writer takes,
# None included.
COLUMN_KINDS = (
    FLOATS,
    INTS,
    EQUAL_NUMBERS,
    st.one_of(FLOATS, INTS),
    TEXTS,
    st.one_of(FLOATS, INTS, TEXTS, st.none()),
)
ROW_COUNTS = (0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1)


@st.composite
def tables(draw):
    """A header and rows; the rows cycle through a small pool, so values repeat."""
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in range(width)]
    header = draw(st.tuples(*[TEXTS] * width))
    pool = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=12))
    count = draw(st.sampled_from(ROW_COUNTS))
    return header, [pool[i % len(pool)] for i in range(count)]


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_rows_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    write_rows(buf, header, iter(rows))
    return buf.getvalue()


def assert_same_text(header, rows) -> None:
    """Name the first line that differs; a diff of the whole text takes minutes."""
    got, want = write_rows_text(header, rows), csv_writer_text(header, rows)
    if got != want:
        lines = zip_longest(got.splitlines(True), want.splitlines(True), fillvalue="")
        at, (mine, theirs) = next((i, p) for i, p in enumerate(lines) if p[0] != p[1])
        pytest.fail(f"line {at}: write_rows wrote {mine!r}, csv.writer {theirs!r}")


@hypothesis.given(table=tables())
@hypothesis.example(table=(("z",), [(0.0,), (-0.0,), (0.0,)]))
@hypothesis.example(table=(("i", "f"), [(1, 1.0), (1.0, 1), (True, 1.0)]))
@hypothesis.example(table=(("x",), [("",), (None,), ("a",)]))
def test_write_rows_equals_csv_writer(table):
    assert_same_text(*table)


@pytest.mark.parametrize("count", ROW_COUNTS)
def test_block_edges_keep_every_row(count):
    rows = [(i, i / 7, -0.0 if i % 3 else 0.0, f"r,{i}") for i in range(count)]
    header = ("i", "f", "z", "s")
    assert_same_text(header, rows)


def test_rows_of_another_width_are_rejected():
    with pytest.raises(ValueError, match="2 fields"):
        write_rows_text(("a", "b"), [(1, 2), (3,)])
