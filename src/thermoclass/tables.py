"""Rectangular result tables and their CSV form: '#'-prefixed metadata lines,
one header line, then rows. Numbers are written with 9 significant digits so
equal inputs produce byte-identical files.

A table's rows are either a list of tuples or, for a table of floats only,
one (n_rows, n_columns) float64 array, which is kept as it is up to the CSV
text.

format_value is the one formatting rule for a cell. render_csv writes a
list-of-tuples table through one printf-style row template, so that
formatting runs in C rather than as one Python call per cell; the template
spells out, per column, what format_value does for that column's type. An
array table is formatted once per distinct value instead (relaxation curves
repeat a few values thousands of times), with the same "%.9g" text that
format_value gives a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np


@dataclass
class ResultTable:
    columns: list
    rows: list | np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        if isinstance(self.rows, np.ndarray):
            if self.rows.dtype != np.float64 or self.rows.ndim != 2 or self.rows.shape[1] != width:
                raise ValueError(f"a row array must be float64 of shape (n, {width}), "
                                 f"got {self.rows.dtype} of shape {self.rows.shape}")
        elif set(map(len, self.rows)) - {width}:
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def column(self, name: str) -> list:
        j = self.columns.index(name)
        if isinstance(self.rows, np.ndarray):
            return self.rows[:, j].tolist()
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


def format_array(values: np.ndarray, spec: str) -> np.ndarray:
    """The printf-style texts of a float64 array, as an object array of its
    shape. Each distinct value is formatted once, all of them in one "%"
    call; values are told apart by their bits, so that -0.0 and 0.0 keep
    their own texts. spec must never write a space."""
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = ((spec + " ") * len(distinct) % tuple(distinct.view(np.float64).tolist())).split(" ")[:-1]
    return np.array(texts, dtype=object)[where.reshape(values.shape)]


def render_csv(table: ResultTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    if isinstance(table.rows, np.ndarray):
        lines.extend(map(",".join, format_array(table.rows, "%.9g").tolist()))
        return "\n".join(lines) + "\n"
    rows = list(map(tuple, table.rows))
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
