"""CSV text built a column at a time, byte for byte what ``csv.writer`` writes.

``write_rows`` writes the bytes that ``csv.writer(fh).writerows`` writes in
the default dialect: fields joined by ``,``, each row ended by ``\\r\\n``,
``None`` as an empty field and any other value as its ``str`` (a float's
``str`` is its ``repr``). A field is quoted exactly when its text holds
``,``, ``"``, ``\\r`` or ``\\n``, with inner quotes doubled, and a row of one
empty field is written ``""`` so that it is not an empty line.

Rows are taken in blocks of BLOCK_ROWS and each block is turned into
columns. A column of numbers is then formatted by one ``map(str, ...)``, a
column of strings that need no quoting is used as it is, and each row is
joined by ``str.join``, so no Python code runs per field of such columns.
Only one block's text is held at a time.

The module opens no file. Each writer opens its own file in its own module,
one of the modules in which the benchmark's tracer (``FILE_WRITER_MODULES``
in ``perfbench/tracing.py``) times file writes.
"""

from __future__ import annotations

from itertools import islice

BLOCK_ROWS = 1024

_NUMBER_TYPES = frozenset((int, float, bool))
_SPECIAL = (",", '"', "\r", "\n")


def write_rows(fh, header, rows) -> None:
    """Write the header and then the rows to the text file fh.

    Every row must have the header's width.
    """
    width = len(header)
    _write_block(fh, [header])
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            raise ValueError(f"every CSV row must have {width} fields")
        _write_block(fh, block)


def _write_block(fh, block) -> None:
    columns = list(map(_texts, zip(*block)))
    lines = list(map(",".join, zip(*columns)))
    if len(columns) == 1:
        lines = [line or '""' for line in lines]
    lines.append("")
    fh.write("\r\n".join(lines))


def _texts(values: tuple):
    """The field text of each value of one column of a block."""
    kinds = set(map(type, values))
    if kinds <= _NUMBER_TYPES:
        return map(str, values)
    if kinds == {str}:
        joined = "".join(values)
        if not any(ch in joined for ch in _SPECIAL):
            return values
    return map(_field, values)


def _field(value) -> str:
    text = "" if value is None else str(value)
    if any(ch in text for ch in _SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text
