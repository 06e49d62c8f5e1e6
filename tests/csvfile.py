"""Reading back the CSV files that thermoclass.tables writes, for tests."""

from thermoclass.tables import ResultTable


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> ResultTable:
    """Inverse of tables.write_csv; metadata and header round-trip exactly,
    numeric cells come back as floats."""
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
            rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
    if columns is None:
        raise ValueError(f"{path}: no header line found")
    return ResultTable(columns=columns, rows=rows, metadata=metadata)
