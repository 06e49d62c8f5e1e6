import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvfile import read_csv
from thermoclass.tables import ResultTable, format_value, render_csv, write_csv


def sample_table():
    return ResultTable(
        columns=["x", "label"],
        rows=[(1.0, "class1"), (0.123456789123, "class2")],
        metadata={"artifact": "thermoclass 0.1.0", "seed": "42"},
    )


def test_rectangularity_enforced():
    with pytest.raises(ValueError):
        ResultTable(columns=["a", "b"], rows=[(1.0,)])


def test_format_value():
    assert format_value(2.0) == "2"
    assert format_value(0.123456789123) == "0.123456789"
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value("class1") == "class1"


def test_render_deterministic():
    assert render_csv(sample_table()) == render_csv(sample_table())


def test_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(sample_table(), path)
    back = read_csv(path)
    assert back.columns == ["x", "label"]
    assert back.metadata == {"artifact": "thermoclass 0.1.0", "seed": "42"}
    assert back.rows[0] == (1.0, "class1")
    assert back.rows[1][0] == pytest.approx(0.123456789, abs=1e-12)
    # writing the parsed table again reproduces the bytes
    path2 = tmp_path / "again.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_column_lookup():
    table = sample_table()
    assert table.column("label") == ["class1", "class2"]
    with pytest.raises(ValueError):
        table.column("missing")


def test_read_rejects_headerless_file(tmp_path):
    path = tmp_path / "meta_only.csv"
    path.write_text("# only = metadata\n")
    with pytest.raises(ValueError):
        read_csv(path)


def render_csv_per_cell(table):
    """Reference for render_csv: format_value on every cell."""
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max, 0.1, 1e16, 123456789.5]),
)
_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**60, 10**60))
_strs = st.text(alphabet=st.characters(blacklist_characters=",\n\r"), max_size=8)
_numpy_scalars = st.one_of(
    _floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _strs.map(np.str_),
)
_cells = {
    "float": _floats, "int": _ints, "bool": st.booleans(), "str": _strs, "numpy": _numpy_scalars,
}
_cells["mixed"] = st.one_of(*_cells.values())


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_cells)), min_size=1, max_size=5))
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(_cells[kind], min_size=n, max_size=n)) for kind in kinds]
    rows = list(zip(*columns)) if n else []
    if rows and draw(st.booleans()):
        rows = [list(row) for row in rows]
    metadata = draw(st.dictionaries(st.sampled_from(["seed", "experiment"]), _strs, max_size=2))
    return ResultTable(columns=[f"c{j}" for j in range(len(kinds))], rows=rows, metadata=metadata)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_render_csv_matches_per_cell_format_value(table):
    assert render_csv(table) == render_csv_per_cell(table)


def test_render_csv_corner_tables():
    for table in (
        ResultTable(columns=["x", "y"], rows=[]),
        ResultTable(columns=[], rows=[(), ()]),
        ResultTable(columns=["p"], rows=[("100%",), ("%s",)]),
        ResultTable(columns=["a", "b"], rows=[(1, 1.0), (True, 2), (np.float64(0.5), "x")]),
        ResultTable(columns=["s"], rows=[(np.str_("a\x00"),)]),  # numpy's str() drops the NUL
    ):
        assert render_csv(table) == render_csv_per_cell(table)
