"""Columnar CSV codec shared by every trial-record class.

A record file is a ``# schema_version=`` line, a header row, and one row
per trial.  The codec formats and parses a whole column at a time, never
a cell at a time, and writes exactly the bytes :mod:`csv` writes with
minimal quoting, so shard checksums and golden files stay valid.

Writing
    Floats are ``repr`` once per distinct *bit pattern*, then gathered.
    Deduplicating on values instead would merge ``-0.0`` into ``0.0``
    and write the wrong one.  Ints are ``str``, bools ``0``/``1``, and
    strings are quoted (only when they hold ``,``, ``"``, CR or LF) once
    per distinct value.
Reading
    One ``np.loadtxt`` pass over the body with a structured dtype chosen
    by the header.  Its parser is strict: a float in an int column, an
    empty cell, or a short or long row raises ``ValueError``, which the
    runner and ``verify`` treat as corrupt shard content.  Floats parse
    through the same routine as ``float()``, so they round-trip bit for
    bit.  A cell never spans lines: the only strings stored are fault
    specs and outcome labels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: Version stamped on the first line of every record file.
CSV_SCHEMA_VERSION = 1

_SCHEMA_PREFIX = "# schema_version="
_NEEDS_QUOTES = frozenset(',"\r\n')


def _quote(value: str) -> str:
    """One cell as ``csv.QUOTE_MINIMAL`` writes it."""
    if _NEEDS_QUOTES.isdisjoint(value):
        return value
    return '"' + value.replace('"', '""') + '"'


def _format_column(column: np.ndarray) -> list[str]:
    kind = column.dtype.kind
    if kind == "f":
        patterns, inverse = np.unique(
            np.ascontiguousarray(column, dtype=np.float64).view(np.uint64),
            return_inverse=True,
        )
        distinct = list(map(repr, patterns.view(np.float64).tolist()))
    elif kind == "U":
        values, inverse = np.unique(column, return_inverse=True)
        distinct = list(map(_quote, values.tolist()))
    elif kind == "b":
        distinct, inverse = ["0", "1"], column.astype(np.uint8)
    else:
        return list(map(str, column.tolist()))
    return np.array(distinct, dtype=object)[inverse].tolist()


class CsvCodec:
    """The file layout of one record class.

    ``dtypes`` maps every column to its dtype in schema order.  The
    ``optional`` columns come last; a file carries a prefix of them.
    """

    def __init__(self, dtypes: Mapping[str, object], optional: Sequence[str],
                 terminator: str) -> None:
        self.terminator = terminator
        self.optional = tuple(optional)
        self.required = [name for name in dtypes if name not in self.optional]
        self._bools = {name for name, dtype in dtypes.items() if np.dtype(dtype).kind == "b"}
        # One table dtype per accepted header; bools are read as ints so
        # any nonzero integer means True.
        self._tables = {}
        for count in range(len(self.optional) + 1):
            names = self.required + list(self.optional[:count])
            self._tables[",".join(names)] = np.dtype([
                (name, np.int64 if name in self._bools else dtypes[name]) for name in names
            ])

    def format(self, names: Sequence[str], columns: Sequence[np.ndarray]) -> str:
        """The text of a file holding ``columns`` under ``names``."""
        rows = map(",".join, zip(*map(_format_column, columns)))
        head = [f"{_SCHEMA_PREFIX}{CSV_SCHEMA_VERSION}", ",".join(map(_quote, names))]
        return self.terminator.join([*head, *rows]) + self.terminator

    def parse(self, text: str) -> dict[str, np.ndarray | None]:
        """Columns of a file, keyed by name; absent optional ones are None."""
        if not text:
            raise ValueError("empty CSV")
        # Lines, not a StringIO, which would hold a 4-byte-per-character
        # copy of the whole file.
        lines = text.split("\n")
        skip = 2 if lines[0].startswith(_SCHEMA_PREFIX) else 1
        header = lines[skip - 1].rstrip("\r") if len(lines) >= skip else ""
        if not header:
            raise ValueError("CSV missing header row")
        table_dtype = self._tables.get(header)
        if table_dtype is None:
            raise ValueError(
                f"CSV columns {header.split(',')} do not match schema {self.required}"
            )
        if any(lines[skip:]):
            table = np.loadtxt(
                lines, dtype=table_dtype, delimiter=",", quotechar='"',
                comments=None, skiprows=skip, ndmin=1,
            )
        else:
            table = np.zeros(0, dtype=table_dtype)
        columns: dict[str, np.ndarray | None] = dict.fromkeys(self.optional)
        for name in table_dtype.names:
            column = table[name]
            columns[name] = column != 0 if name in self._bools else column.copy()
        return columns
