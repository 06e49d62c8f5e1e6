"""Reading back the CSV files that thermoclass.tables writes, for tests."""

from thermoclass.tables import ResultTable


def _parse_column(texts) -> list:
    """The cells of one column: floats when every cell parses as one, else
    the texts."""
    try:
        return [float(text) for text in texts]
    except ValueError:
        return list(texts)


def read_csv(path) -> ResultTable:
    """Inverse of tables.write_csv; metadata and header round-trip exactly,
    and the rows come back as a record table: a float64 column when every
    cell parses as a float, otherwise text bytes."""
    metadata = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append(line.split(","))
    if columns is None:
        raise ValueError(f"{path}: no header line found")
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: a row's cell count differs from the header's")
    cells = list(zip(*rows)) if rows else [()] * len(columns)
    table = ResultTable.of_columns({name: _parse_column(texts) for name, texts in zip(columns, cells)})
    table.metadata = metadata
    return table
