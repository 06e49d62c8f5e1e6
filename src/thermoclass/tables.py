"""Rectangular result tables and their CSV form: '#'-prefixed metadata lines,
one header line, then rows. Numbers are written with 9 significant digits so
equal inputs produce byte-identical files.

format_value is the one formatting rule for a cell. render_csv writes a whole
table through one printf-style row template, so that formatting runs in C
rather than as one Python call per cell; the template spells out, per
column, what format_value does for that column's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def column(self, name: str) -> list:
        return list(map(itemgetter(self.columns.index(name)), self.rows))


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


def render_csv(table: ResultTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
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
