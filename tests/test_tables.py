import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvfile import read_csv
from thermoclass.csvbytes import format_floats
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


def test_row_array_shape_and_dtype_enforced():
    for rows in (np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1), dtype=[("a", "f8"), ("b", "f8")]),
                 np.zeros(2, dtype=[("b", "f8"), ("a", "f8")]), np.zeros(2, dtype=[("a", "f8")]),
                 np.zeros(2, dtype=[("a", "f8"), ("b", "f4")]), np.zeros(2, dtype=[("a", "f8"), ("b", "i8")]),
                 np.zeros(2, dtype=[("a", "f8"), ("b", "U3")])):
        with pytest.raises(ValueError, match="1-D with one float64 or bytes field per column"):
            ResultTable(columns=["a", "b"], rows=rows)
    with pytest.raises(ValueError, match="1-D"):
        ResultTable(columns=[], rows=np.zeros(2, dtype=[]))


def test_column_of_a_row_array_is_python_values():
    table = ResultTable.of_columns({"t": np.array([0.0, 1.5]), "y": np.array([-0.0, math.inf]),
                                    "label": np.array([b"class1", b"c"])})
    assert table.columns == ["t", "y", "label"]
    for name, expected, kind in (("t", [0.0, 1.5], float), ("y", [-0.0, math.inf], float),
                                 ("label", ["class1", "c"], str)):
        column = table.column(name)
        assert column == expected and all(type(v) is kind for v in column)
    assert math.copysign(1.0, table.column("y")[0]) == -1.0


def test_record_tables_compare_bit_for_bit():
    def table(y, label=b"class1", dtype="S6", **metadata):
        made = ResultTable.of_columns({"y": np.array([1.5, y]), "label": np.array([label, b"c"], dtype=dtype)})
        made.metadata.update(metadata)
        return made

    assert table(math.nan) == table(math.nan)
    assert table(0.0) != table(-0.0)
    assert table(2.0) != table(2.0 + 2 ** -51)
    assert table(2.0) != table(2.0, label=b"class2")
    assert table(2.0) != table(2.0, dtype="S7")
    assert table(2.0) != table(2.0, seed=1)
    assert table(2.0) != ResultTable(["y", "label"], [(1.5, "class1"), (2.0, "c")])
    assert sample_table() == sample_table()
    assert sample_table() != ResultTable(sample_table().columns, sample_table().rows[:1])


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
    """Reference for render_csv: format_value on every cell, a record
    table's cells read as Python values and its bytes as ASCII text."""
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    rows = table.rows.tolist() if isinstance(table.rows, np.ndarray) else table.rows
    for row in rows:
        lines.append(",".join(format_value(v.decode("ascii") if isinstance(v, bytes) else v) for v in row))
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


# few distinct values per table, so that most cells repeat one; signed zeros,
# infinities, NaNs of either sign and subnormals among them
_array_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1.0, 2.0136362]),
)


# a table of a few drawn rows, repeated so that half the tables are long
# enough for render_csv to write them as bytes
_repeats = st.sampled_from([1, 64])


@st.composite
def _row_arrays(draw):
    n, k = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    pool = draw(st.lists(_array_cells, min_size=1, max_size=4))
    cells = draw(st.lists(st.one_of(st.sampled_from(pool), _array_cells), min_size=n * k, max_size=n * k))
    return np.tile(np.array(cells, dtype=np.float64).reshape(n, k), (draw(_repeats), 1))


@settings(max_examples=200, deadline=None)
@given(block=_row_arrays())
def test_render_csv_of_a_row_array_matches_its_tuples(block):
    # a record view of a float block, as the relaxation curves are
    columns = [f"c{j}" for j in range(block.shape[1])]
    as_tuples = ResultTable(columns=columns, rows=list(map(tuple, block.tolist())), metadata={"seed": "1"})
    as_records = ResultTable(columns=columns, rows=block.view([(name, np.float64) for name in columns])[:, 0],
                             metadata={"seed": "1"})
    assert render_csv(as_records) == render_csv(as_tuples)


# ASCII text with NULs, separators and "%" among it; numpy keeps a NUL
# inside a text and drops trailing ones
_texts = st.text(alphabet=st.characters(max_codepoint=127), max_size=6).map(str.encode)


@st.composite
def _record_tables(draw):
    n = draw(st.integers(0, 12))
    columns = {}
    for j in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            pool = draw(st.lists(_array_cells, min_size=1, max_size=4))
            cells = draw(st.lists(st.one_of(st.sampled_from(pool), _array_cells), min_size=n, max_size=n))
            columns[f"x{j}"] = np.array(cells, dtype=np.float64)
        else:
            width = draw(st.integers(1, 8))
            cells = draw(st.lists(_texts.map(lambda text: text[:width]), min_size=n, max_size=n))
            columns[f"label{j}"] = np.array(cells, dtype=f"S{width}")
    repeats = draw(_repeats)
    table = ResultTable.of_columns({name: np.tile(values, repeats) for name, values in columns.items()})
    table.metadata = draw(st.dictionaries(st.sampled_from(["seed", "experiment"]), _strs, max_size=2))
    return table


@settings(max_examples=300, deadline=None)
@given(table=_record_tables())
def test_render_csv_of_a_record_table_matches_per_cell_format_value(table):
    assert render_csv(table) == render_csv_per_cell(table)


def test_render_csv_record_corner_tables():
    for columns in (
        {"x": np.array([]), "label": np.array([], dtype="S6")},  # no rows
        {"label": np.array([b"class1", b"class2"])},  # text only
        {"x": np.array([1.0, -0.0]), "label": np.array([b"a\x00b", b"c"])},  # a NUL inside a text
        {"x": np.array([3.0, 3.0, 0.1]), "label": np.array([b"%s", b"100%", b""])},
    ):
        for repeats in (1, 64, 2100):  # as tuples, as bytes, as bytes in two blocks of rows
            table = ResultTable.of_columns({name: np.tile(values, repeats) for name, values in columns.items()})
            assert render_csv(table) == render_csv_per_cell(table)
    table = ResultTable.of_columns({"x": np.full(64, 0.5), "label": np.array([b"a\x00b"] * 64)})
    assert render_csv(table).endswith("0.5,a\x00b\n")


def _9g(values) -> list:
    return [("%.9g" % v).encode() for v in values]


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_format_floats_is_percent_9g(values):
    assert format_floats(np.array(values, dtype=np.float64)).tolist() == _9g(values)


# 10 significant digits ending in 5, so that "%.9g" rounds a tie of the
# decimal text, at exponents from -6 to 10, and the floats next to each
_near_ties = st.builds(
    lambda digits, exponent, sign: sign * float(f"{digits}5e{exponent - 9}"),
    st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-6, 10), st.sampled_from([1.0, -1.0]),
).flatmap(lambda tie: st.sampled_from([tie, np.nextafter(tie, math.inf), np.nextafter(tie, -math.inf)]))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_near_ties, min_size=1, max_size=40))
def test_format_floats_is_percent_9g_near_ties(values):
    assert format_floats(np.array(values, dtype=np.float64)).tolist() == _9g(values)


def test_format_floats_edges_and_shape():
    edges = [123456789.5, 999999999.5, 9.9999999995, 99999999.95, 0.00099999999995, 9.99999999e-5, 1e-4,
             1e-5, 1e8, 1e9, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, 0.0, -0.0,
             math.inf, -math.inf, math.nan, 0.1, 2.0136362, 1e16, -3.0, 100.0, 120000000.0]
    # the floats next to each power of ten that "%.9g" writes in fixed notation
    edges += [np.nextafter(10.0 ** k, side) for k in range(-5, 10) for side in (0.0, math.inf)]
    block = np.array(edges * 2, dtype=np.float64).reshape(2, -1)
    cells = format_floats(block)
    assert cells.shape == block.shape and cells.dtype == np.dtype("S16")
    assert cells.ravel().tolist() == _9g(block.ravel().tolist())
    assert format_floats(np.array([])).tolist() == []
