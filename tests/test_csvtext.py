"""csvtext.write_rows and write_columns against csv.writer itself: the same
text for any rows; read_rows reads back what they write, and rejects what
does not fit its caller's header and types."""

import csv
import io
import math
from itertools import zip_longest

import hypothesis
import pytest
from hypothesis import strategies as st

from adamls.csvtext import BLOCK_ROWS, column_texts, read_rows, write_columns, write_rows

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


def block_column_texts(block):
    return map(column_texts, block)


def write_columns_text(header, rows, texts=block_column_texts) -> str:
    buf = io.StringIO(newline="")
    columns = list(zip(*rows)) if rows else [()] * len(header)
    write_columns(buf, header, columns, texts)
    return buf.getvalue()


@hypothesis.given(table=tables())
@hypothesis.example(table=(("x",), [("",), (None,), ("a",)]))
def test_write_columns_equals_csv_writer(table):
    assert write_columns_text(*table) == csv_writer_text(*table)


@hypothesis.given(table=tables())
@hypothesis.example(table=(("z",), [(0.0,), (-0.0,), (0.0,)]))
@hypothesis.example(table=(("x",), [("",), (None,), ("a",)]))
def test_write_columns_without_texts_equals_csv_writer(table):
    assert write_columns_text(*table, texts=None) == csv_writer_text(*table)


@pytest.mark.parametrize("count", ROW_COUNTS)
def test_write_columns_block_edges_keep_every_row(count):
    rows = [(i, i / 7, -0.0 if i % 3 else 0.0, f"r,{i}") for i in range(count)]
    header = ("i", "f", "z", "s")
    assert write_columns_text(header, rows) == csv_writer_text(header, rows)
    assert write_columns_text(header, rows, texts=None) == csv_writer_text(header, rows)


def test_columns_of_another_length_are_rejected():
    """Before anything is written: no header is left behind."""
    fh = io.StringIO()
    with pytest.raises(ValueError, match="one length"):
        write_columns(fh, ("a", "b"), [(1, 2), (3,)], None)
    assert fh.getvalue() == ""


class ReadError(ValueError):
    """The error type a read_rows caller passes."""


TYPES = {"n": int, "x": float}


def read_text(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return read_rows(path, ("s", "n", "x"), ReadError, TYPES)


@hypothesis.given(
    rows=st.lists(st.tuples(TEXTS, st.integers(), st.floats(allow_nan=False)), max_size=5)
)
def test_read_rows_reads_back_what_write_rows_writes(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, ("s", "n", "x"), rows)
    assert [tuple(r.values()) for r in read_rows(path, ("s", "n", "x"), ReadError, TYPES)] == rows


def test_read_rows_keeps_the_callers_columns_in_its_order(tmp_path):
    text = f"x,extra,n,s\r\n1.5,?,3.0,a\r\n\r\n-2,,{2**70 + 1},b\r\n"
    assert read_text(tmp_path, text) == [
        {"s": "a", "n": 3, "x": 1.5},
        {"s": "b", "n": 2**70 + 1, "x": -2.0},  # exact, not through a float
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("s,n\r\na,1\r\n", "missing column(s) x"),
        ("", "missing column(s) s, n, x"),
        ("s,n,x,n,x\r\na,1,2,3,4\r\n", "the header repeats column(s) n, x"),
        ("s,n,x\r\na,1,2\r\nb,1\r\n", "row 2: the row's field count is not the header's"),
        ("s,n,x\r\na,1,2,9\r\n", "row 1: the row's field count is not the header's"),
        ("s,n,x\r\na,1,2\r\nb,1,abc\r\n", "row 2: x must be a number, got 'abc'"),
        ("s,n,x\r\na,2.5,2\r\n", "row 1: n must be an integer, got '2.5'"),
        ("s,n,x\r\na,inf,2\r\n", "row 1: n must be an integer, got 'inf'"),
        ("s,n,x\r\na,,2\r\n", "row 1: n must be an integer, got ''"),
        ('s,n,x\r\na,1,2\r\n"' + "b" * (csv.field_size_limit() + 1) + '",1,2\r\n',
         "row 2: field larger than field limit"),
        (b"s,n,x\r\n\xff,1,2\r\n", "not UTF-8 text: invalid start byte"),
    ],
    ids=[
        "missing", "empty", "repeated", "short", "long", "float", "int-fraction", "int-inf",
        "int-empty", "csv-error", "not-utf-8",
    ],
)
def test_read_rows_names_the_file_and_row(tmp_path, text, message):
    with pytest.raises(ReadError) as raised:
        read_text(tmp_path, text)
    assert str(raised.value).startswith(f"{tmp_path / 't.csv'}: {message}")
