"""CSV text built a column at a time, byte for byte what ``csv.writer`` writes.

``write_rows`` writes the bytes that ``csv.writer(fh).writerows`` writes in
the default dialect: fields joined by ``,``, each row ended by ``\\r\\n``,
``None`` as an empty field and any other value as its ``str`` (a float's
``str`` is its ``repr``). A field is quoted exactly when its text holds
``,``, ``"``, ``\\r`` or ``\\n``, with inner quotes doubled, and a row of one
empty field is written ``""`` so that it is not an empty line.

Rows go in blocks of BLOCK_ROWS, turned into columns (write_rows) or sliced
out of them (write_columns). A column of numbers is then formatted by one
``map(str, ...)``, a column of strings that need no quoting is used as it
is, and each row is joined by ``str.join``, so no Python code runs per field
of such columns. Only one block's text is held at a time.

Formatting a float is most of the cost, so a writer whose files repeat
values can keep their texts (in a TextMemo, or by a key of its own) and
look them up instead. A hit costs a fraction of a format, but a miss costs
a format and more, so only columns whose values repeat gain.

read_rows is the one CSV reader. It owns the checks every file needs (text,
header, field counts, numbers); each caller keeps only its own.

The module opens no file for writing. Each writer opens its own file in its
own module, one of the modules in which the benchmark's tracer
(``FILE_WRITER_MODULES`` in ``perfbench/tracing.py``) times file writes.
"""

from __future__ import annotations

import csv
from itertools import islice

BLOCK_ROWS = 1024

_NUMBER_TYPES = frozenset((int, float, bool))
_SPECIAL = (",", '"', "\r", "\n")


def read_rows(path, header, error, types) -> list[dict]:
    """The data rows of the UTF-8 CSV file at path, each a dict of header's
    columns in its order, typed by types: column -> float, or int for a
    whole number (also written 3.0). The file must name each column of
    header once (others pass unread), and each row must have its field
    count; blank lines are skipped. Else error is raised as "<path>: row N:
    ..." for data row N (1 is the first) or "<path>: ..." for the file."""
    rows: list[list[str]] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows.extend(filter(None, csv.reader(fh)))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        where = f"row {len(rows)}" if rows else "header"  # rows[0] is the header
        raise error(f"{path}: {where}: {exc}") from None
    names = rows[0] if rows else []
    if missing := [col for col in header if col not in names]:
        raise error(f"{path}: missing column(s) {', '.join(missing)}")
    if repeated := [col for col in header if names.count(col) > 1]:
        raise error(f"{path}: the header repeats column(s) {', '.join(repeated)}")
    picks = [(col, names.index(col)) for col in header]
    typed = [(col, _NUMBER_PARSERS[kind]) for col, kind in types.items()]
    records = []
    for row_no, fields in enumerate(islice(rows, 1, None), start=1):
        if len(fields) != len(names):
            raise error(f"{path}: row {row_no}: the row's field count is not the header's")
        record = {col: fields[i] for col, i in picks}
        for col, (parse, what) in typed:
            text = record[col]
            try:
                record[col] = parse(text)
            except ValueError:
                raise error(f"{path}: row {row_no}: {col} must be {what}, got {text!r}") from None
        records.append(record)
    return records


def _whole_number(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():  # nor inf or nan
        raise ValueError(text)
    return int(value)


# Column type -> (parser of a field's text, what a field must be).
_NUMBER_PARSERS = {float: (float, "a number"), int: (_whole_number, "an integer")}


def write_rows(fh, header, rows) -> None:
    """Write the header and then the rows to the text file fh.

    Every row must have the header's width.
    """
    width = len(header)
    _write_block(fh, zip(header), width, _column_texts)
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            raise ValueError(f"every CSV row must have {width} fields")
        _write_block(fh, zip(*block), width, _column_texts)


def write_columns(fh, header, columns, texts=None) -> None:
    """Write the header and then the rows of columns, sequences of one length.

    texts, if given, turns the columns of one block (slices of the columns)
    into its text columns: the texts of one column, or of adjacent columns
    already joined by ",", each field's text the one column_texts gives.
    Without it each column's fields get column_texts. Columns of no rows
    write the header alone."""
    width = len(header)
    _write_block(fh, zip(header), width, _column_texts)
    if len(set(map(len, columns))) != 1:
        raise ValueError("every CSV column must have one length")
    texts = texts or _column_texts
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        _write_block(fh, [col[start : start + BLOCK_ROWS] for col in columns], width, texts)


def _write_block(fh, columns, width, texts) -> None:
    lines = list(map(",".join, zip(*texts(columns))))
    if width == 1:
        lines = [line or '""' for line in lines]
    lines.append("")
    fh.write("\r\n".join(lines))


def _column_texts(columns):
    return map(column_texts, columns)


def column_texts(values: tuple):
    """The field text of each value of one column of a block."""
    kinds = set(map(type, values))
    if kinds <= _NUMBER_TYPES:
        return map(str, values)
    if kinds == {str}:
        joined = "".join(values)
        if not any(ch in joined for ch in _SPECIAL):
            return values
    return map(_field, values)


def joined_texts(rows):
    """The text of each row of one width, its fields' texts joined by ","."""
    return map(",".join, zip(*map(column_texts, zip(*rows))))


def _field(value) -> str:
    text = "" if value is None else str(value)
    if any(ch in text for ch in _SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


class TextMemo(dict):
    """Field texts of numbers, keyed by value, for a column whose values repeat.

    A value is formatted on its first lookup and then kept, unless it is a
    zero: 0.0 == -0.0, but their texts differ. Equal numbers of other types
    differ too (1 == 1.0 == True), so a memo serves only the type of the
    first column it served; columns of another type, or of mixed types, get
    column_texts and leave the memo as it was.
    """

    _kind = None  # the column type served, once set

    def copy(self) -> TextMemo:
        memo = TextMemo(self)
        memo._kind = self._kind
        return memo

    def texts(self, values: tuple):
        if not self._serves(values):
            return column_texts(values)
        return map(self.__getitem__, values)

    def keep(self, values: tuple, texts: list) -> None:
        """Keep texts, the column_texts of values, for later lookups."""
        if self._serves(values):
            self.update(zip(values, texts))
            self.pop(0, None)  # a zero of either sign

    def _serves(self, values) -> bool:
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if self._kind is None and kind in _NUMBER_TYPES:
            self._kind = kind
        return kind is not None and kind is self._kind

    def __missing__(self, key) -> str:
        text = str(key)
        if key != 0:
            self[key] = text
        return text
