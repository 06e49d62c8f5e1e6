"""Rectangular result tables and their CSV form: '#'-prefixed metadata lines,
one header line, then rows. Numbers are written with 9 significant digits so
equal inputs produce byte-identical files.

A table's rows are a record table: one 1-D numpy structured array whose
fields are the columns, each float64 or fixed-width bytes, kept as it is up
to the CSV text. of_columns builds one from columns of any cells: a float
column stays float64 and any other cell is stored as the UTF-8 bytes of its
format_value text, the one formatting rule for a cell. render_csv writes
every table through csvbytes.record_body, which writes a float64 cell as
format_value does ("%.9g") and a bytes cell as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class ResultTable:
    columns: list
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, np.ndarray):
            raise ValueError(f"rows must be a record table (a 1-D structured numpy array, see "
                             f"ResultTable.of_columns), got a {type(rows).__name__}")
        dtype = rows.dtype
        if (rows.ndim != 1 or not self.columns or dtype.names != tuple(self.columns)
                or any(dtype[name] != np.float64 and dtype[name].kind != "S" for name in dtype.names)):
            raise ValueError(f"rows must be a record table: 1-D with one float64 or bytes field per column "
                             f"{self.columns}, got {dtype} of shape {rows.shape}")
        for name in dtype.names:
            if dtype[name].kind == "S" and _inner_nul(rows[name]):
                raise ValueError(f"column {name!r} holds a NUL inside a text cell, which a CSV cell cannot")

    def __eq__(self, other):
        """Equal columns, metadata and rows; rows are equal when their dtypes
        and bytes are, so values compare bit for bit."""
        if not isinstance(other, ResultTable):
            return NotImplemented
        return ((self.columns, self.metadata, self.rows.dtype) == (other.columns, other.metadata, other.rows.dtype)
                and self.rows.tobytes() == other.rows.tobytes())

    @classmethod
    def of_columns(cls, columns: dict) -> "ResultTable":
        """The record table of equal-length 1-D columns, name -> array or
        list. A float column is stored as float64 and a bytes array as it
        is; an integer array becomes its decimal text, and any other column
        the UTF-8 of each cell's format_value text."""
        arrays = [_field(values) for values in columns.values()]
        lengths = set(map(len, arrays))
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths {dict(zip(columns, map(len, arrays)))}")
        # no columns give a record of no fields, which the construction rejects
        rows = np.empty(max(lengths, default=0), dtype=[(name, a.dtype) for name, a in zip(columns, arrays)])
        for name, values in zip(columns, arrays):
            rows[name] = values
        return cls(columns=list(columns), rows=rows)

    def column(self, name: str) -> list:
        """The cells of one column as Python values; text cells as str."""
        values = self.rows[name].tolist()
        return [v.decode() for v in values] if self.rows.dtype[name].kind == "S" else values


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _field(values) -> np.ndarray:
    """One column of of_columns as a float64 or bytes array."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind == "f":
        return values.astype(np.float64)
    if kind in ("i", "u", "S"):
        return values.astype("S")  # an integer as its decimal text, which format_value writes
    cells = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if all(isinstance(v, float) for v in cells):
        return np.array(cells, dtype=np.float64)
    try:
        texts = [format_value(v).encode() for v in cells]
    except UnicodeEncodeError as error:
        raise ValueError(f"a text cell holds {error.object[error.start:error.end]!r}, "
                         f"which is not UTF-8 text") from None
    if b"\0" in b"".join(texts):
        # numpy would drop one at the end of a cell, so the construction's check cannot see it
        raise ValueError("a text cell holds a NUL, which a CSV cell cannot")
    return np.array(texts, dtype=bytes)


def _inner_nul(texts: np.ndarray) -> bool:
    """Whether a bytes column holds a NUL before some other byte of a cell,
    which numpy keeps as part of the text (it drops only trailing NULs) and
    record_body would drop."""
    raw = np.ascontiguousarray(texts).view(np.uint8).reshape(len(texts), texts.dtype.itemsize)
    return bool(np.any((raw[:, :-1] == 0) & (raw[:, 1:] != 0)))


def render_csv(table: ResultTable) -> str:
    from . import csvbytes

    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    return "\n".join(lines) + "\n" + csvbytes.record_body(table.rows).decode("utf-8")


def write_csv(table: ResultTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(table))
