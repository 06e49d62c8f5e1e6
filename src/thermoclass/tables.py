"""Rectangular result tables and their CSV form: '#'-prefixed metadata lines,
one header line, then rows. Numbers are written with 9 significant digits so
equal inputs produce byte-identical files.

A table's rows are a list of tuples, or a record table: one 1-D numpy
structured array whose fields are the columns, each float64 or fixed-width
ASCII bytes, kept as it is up to the CSV text.

format_value is the one formatting rule for a cell. render_csv writes a
list-of-tuples table through one printf-style row template, so that
formatting runs in C rather than as one Python call per cell; the template
spells out, per column, what format_value does for that column's type. A
record table of _BYTES_MIN_ROWS rows or more is written as bytes by
csvbytes.record_body; a smaller one, or one with a NUL inside a text cell,
is written as tuples of its Python values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np


@dataclass(eq=False)
class ResultTable:
    columns: list
    rows: list | np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        if isinstance(self.rows, np.ndarray):
            dtype = self.rows.dtype
            if (self.rows.ndim != 1 or not width or dtype.names != tuple(self.columns)
                    or any(dtype[name] != np.float64 and dtype[name].kind != "S" for name in dtype.names)):
                raise ValueError(f"a row array must be 1-D with one float64 or bytes field per column "
                                 f"{self.columns}, got {dtype} of shape {self.rows.shape}")
        elif set(map(len, self.rows)) - {width}:
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def __eq__(self, other):
        """Equal columns, metadata and rows; a record table's rows are equal
        when their dtypes and bytes are, so values compare bit for bit."""
        if not isinstance(other, ResultTable):
            return NotImplemented
        if (self.columns, self.metadata) != (other.columns, other.metadata):
            return False
        mine, theirs = self.rows, other.rows
        if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
            return (isinstance(mine, np.ndarray) and isinstance(theirs, np.ndarray)
                    and mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes())
        return mine == theirs

    @classmethod
    def of_columns(cls, columns: dict) -> "ResultTable":
        """The record table of equal-length 1-D columns, name -> array."""
        arrays = [np.asarray(values) for values in columns.values()]
        rows = np.empty(len(arrays[0]), dtype=[(name, a.dtype) for name, a in zip(columns, arrays)])
        for name, values in zip(columns, arrays):
            rows[name] = values
        return cls(columns=list(columns), rows=rows)

    def column(self, name: str) -> list:
        """The cells of one column as Python values; text cells as str."""
        j = self.columns.index(name)
        if isinstance(self.rows, np.ndarray):
            values = self.rows[name]
            return values.astype(str).tolist() if values.dtype.kind == "S" else values.tolist()
        return list(map(itemgetter(j), self.rows))


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


# the printf spec that writes a cell of exactly this type as format_value does
_SPECS = {float: "%.9g", int: "%d", str: "%s"}


# Below this many rows the array work's fixed cost, about 0.1 ms a table,
# exceeds the row template's (measured on the 4- and 5-column instance and
# sweep tables)
_BYTES_MIN_ROWS = 64


def _inner_nul(texts: np.ndarray) -> bool:
    """Whether a bytes column holds a NUL before some other byte of a cell,
    which numpy keeps as part of the text (it drops only trailing NULs) and
    bytes.translate would drop."""
    raw = np.ascontiguousarray(texts).view(np.uint8).reshape(len(texts), texts.dtype.itemsize)
    return bool(np.any((raw[:, :-1] == 0) & (raw[:, 1:] != 0)))


def render_csv(table: ResultTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    rows = table.rows
    if isinstance(rows, np.ndarray):
        texts = [name for name in rows.dtype.names if rows.dtype[name].kind == "S"]
        if len(rows) >= _BYTES_MIN_ROWS and not any(_inner_nul(rows[name]) for name in texts):
            from . import csvbytes

            return "\n".join(lines) + "\n" + csvbytes.record_body(rows).decode("ascii")
        rows = [tuple(v.decode("ascii") if isinstance(v, bytes) else v for v in row) for row in rows.tolist()]
    rows = list(map(tuple, rows))
    specs, formatted = [], {}
    for j in range(len(table.columns)):
        kinds = set(map(type, map(itemgetter(j), rows)))
        spec = _SPECS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            # bools, numpy scalars, mixed types: formatted here, written as is
            # (str.__str__, because a str subclass's own __str__ may differ:
            # numpy's drops trailing NULs)
            spec = "%s"
            formatted[j] = list(map(str.__str__, map(format_value, map(itemgetter(j), rows))))
        specs.append(spec)
    if formatted:
        rows = zip(*(formatted[j] if j in formatted else map(itemgetter(j), rows)
                     for j in range(len(specs))))
    lines.extend(map(",".join(specs).__mod__, rows))
    return "\n".join(lines) + "\n"


def write_csv(table: ResultTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(table))
