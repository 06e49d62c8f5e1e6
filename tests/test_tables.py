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
    table = ResultTable.of_columns({"x": [1.0, 0.123456789123], "label": ["class1", "class2"]})
    table.metadata = {"artifact": "thermoclass 0.1.0", "seed": "42"}
    return table


def test_rectangularity_enforced():
    with pytest.raises(ValueError, match="unequal lengths"):
        ResultTable.of_columns({"a": [1.0, 2.0], "b": [1.0]})


def test_rows_must_be_a_record_table():
    for rows in ([(1.0, "x")], [], ((1.0, "x"),)):
        with pytest.raises(ValueError, match="must be a record table") as raised:
            ResultTable(columns=["a", "b"], rows=rows)
        assert "\n" not in str(raised.value)


def test_a_nul_or_a_lone_surrogate_in_a_text_cell_is_rejected():
    for label in (b"a\x00b", b"\x00b"):
        with pytest.raises(ValueError, match="NUL inside a text cell"):
            ResultTable.of_columns({"x": np.array([1.0, 2.0]), "label": np.array([label, b"c"])})
        with pytest.raises(ValueError, match="NUL inside a text cell"):
            ResultTable(columns=["label"], rows=np.array([(b"c",), (label,)], dtype=[("label", "S3")]))
    # a str's NUL at the end of a cell, which numpy would drop, too
    for text in ("a\x00", "a\x00b"):
        with pytest.raises(ValueError, match="NUL"):
            ResultTable.of_columns({"label": ["c", text]})
    # a lone surrogate, which UTF-8 cannot encode
    for column in (["c", "a\ud800"], np.array(["\udfff"])):
        with pytest.raises(ValueError, match="not UTF-8 text") as raised:
            ResultTable.of_columns({"label": column})
        assert "\n" not in str(raised.value)
    # the NULs that pad a bytes cell end it
    table = ResultTable.of_columns({"label": np.array([b"ab", b"c\x00"], dtype="S4")})
    assert render_csv(table) == "label\nab\nc\n"


def test_format_value():
    assert format_value(2.0) == "2"
    assert format_value(0.123456789123) == "0.123456789"
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value("class1") == "class1"
    # numpy's integers and booleans as Python's
    assert format_value(np.int64(1234567890123)) == "1234567890123"
    assert format_value(np.uint8(7)) == "7"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(np.float32(0.5)) == "0.5"


def test_of_columns_stores_each_cell_as_format_value_writes_it():
    table = ResultTable.of_columns({
        "t": [0.5, np.float64(2.0)], "n": np.array([3, 10 ** 12]), "big": [10 ** 30, -1], "flag": [True, False],
        "mask": np.array([False, True]), "label": ["class1", "\u00e9t\u00e9"], "f32": np.array([0.1, 2], dtype=np.float32),
    })
    assert [table.rows.dtype[name].kind for name in table.columns] == ["f", "S", "S", "S", "S", "S", "f"]
    assert table.rows["f32"].dtype == np.float64
    assert render_csv(table) == ("t,n,big,flag,mask,label,f32\n"
                                 f"0.5,3,{10 ** 30},true,false,class1,{float(np.float32(0.1)):.9g}\n"
                                 "2,1000000000000,-1,false,true,\u00e9t\u00e9,2\n")


def test_render_deterministic():
    assert render_csv(sample_table()) == render_csv(sample_table())


def test_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(sample_table(), path)
    back = read_csv(path)
    assert back.columns == ["x", "label"]
    assert back.metadata == {"artifact": "thermoclass 0.1.0", "seed": "42"}
    assert back.rows[0].tolist() == (1.0, b"class1")
    assert back.rows[1]["x"] == pytest.approx(0.123456789, abs=1e-12)
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


def test_of_columns_without_columns_raises_the_table_error():
    with pytest.raises(ValueError, match="1-D with one float64 or bytes field per column"):
        ResultTable.of_columns({})


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
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="cell count"):
        read_csv(path)


def csv_per_cell(columns, rows, metadata) -> str:
    """Reference for render_csv: format_value on every cell of rows of
    Python values."""
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(map(format_value, row)) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv_per_cell(table):
    """csv_per_cell of a record table's cells read as Python values, its
    bytes as UTF-8 text."""
    rows = [[v.decode() if isinstance(v, bytes) else v for v in row] for row in table.rows.tolist()]
    return csv_per_cell(table.columns, rows, table.metadata)


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max, 0.1, 1e16, 123456789.5]),
)
_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**60, 10**60))
# any text a CSV cell can hold, and NULs and lone surrogates, which
# of_columns rejects
_strs = st.text(alphabet=st.characters(blacklist_characters=",\n\r"), max_size=8)
_numpy_scalars = st.one_of(
    _floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _strs.map(np.str_),
)
_cells = {
    "float": _floats, "int": _ints, "bool": st.booleans(), "str": _strs, "numpy": _numpy_scalars,
}
_cells["mixed"] = st.one_of(*_cells.values())


# row counts below and above 64, where render_csv used to switch writers,
# and past the 4096-row blocks of csvbytes.record_body
_repeats = st.sampled_from([1, 6, 64, 400])


@st.composite
def _python_columns(draw):
    """Columns of Python and numpy scalars, as lists or as numpy arrays."""
    kinds = draw(st.lists(st.sampled_from(sorted(_cells)), min_size=1, max_size=5))
    n, repeats = draw(st.integers(0, 12)), draw(_repeats)
    columns = {}
    for j, kind in enumerate(kinds):
        cells = draw(st.lists(_cells[kind], min_size=n, max_size=n)) * repeats
        columns[f"c{j}"] = np.array(cells) if kind in ("float", "bool") and draw(st.booleans()) else cells
    return columns


def _csv_cell(text: str) -> bool:
    """Whether a CSV cell can hold text: UTF-8 without a NUL."""
    try:
        return b"\0" not in text.encode()
    except UnicodeEncodeError:
        return False


@settings(max_examples=200, deadline=None)
@given(columns=_python_columns(), metadata=st.dictionaries(st.sampled_from(["seed", "experiment"]), _strs, max_size=2))
def test_render_csv_matches_per_cell_format_value(columns, metadata):
    cells = [list(values) for values in columns.values()]
    if not all(_csv_cell(format_value(v)) for column in cells for v in column):
        with pytest.raises(ValueError, match="NUL|not UTF-8"):
            ResultTable.of_columns(columns)
        return
    table = ResultTable.of_columns(columns)
    table.metadata = metadata
    assert render_csv(table) == csv_per_cell(table.columns, zip(*cells), metadata)


def test_render_csv_corner_tables():
    for columns in (
        {"x": [], "y": []},
        {"p": ["100%", "%s"]},
        {"a": [1, True, np.float64(0.5)], "b": [1.0, 2, "x"]},
        {"n": np.array([0, -5, 2 ** 63 - 1]), "u": np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)},
    ):
        assert render_csv(ResultTable.of_columns(columns)) == csv_per_cell(list(columns), zip(*columns.values()), {})


# few distinct values per table, so that most cells repeat one; signed zeros,
# infinities, NaNs of either sign and subnormals among them
_array_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1.0, 2.0136362]),
)


# a table of a few drawn rows, repeated
@st.composite
def _row_arrays(draw):
    n, k = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    pool = draw(st.lists(_array_cells, min_size=1, max_size=4))
    cells = draw(st.lists(st.one_of(st.sampled_from(pool), _array_cells), min_size=n * k, max_size=n * k))
    return np.tile(np.array(cells, dtype=np.float64).reshape(n, k), (draw(_repeats), 1))


@settings(max_examples=200, deadline=None)
@given(block=_row_arrays())
def test_render_csv_of_a_float_block_view_matches_per_cell_format_value(block):
    # a record view of a float block, as the relaxation curves are
    columns = [f"c{j}" for j in range(block.shape[1])]
    table = ResultTable(columns=columns, rows=block.view([(name, np.float64) for name in columns])[:, 0],
                        metadata={"seed": "1"})
    assert render_csv(table) == csv_per_cell(columns, block.tolist(), table.metadata)


# ASCII text with separators and "%" among it, and trailing NULs, which
# numpy drops (a NUL inside a text is rejected)
_texts = st.text(alphabet=st.characters(max_codepoint=127), max_size=6).map(str.encode).filter(
    lambda text: b"\0" not in text.rstrip(b"\0"))


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
        {"x": np.array([1.0, -0.0]), "label": np.array([b"a\x00", b"c"])},  # a trailing NUL
        {"x": np.array([3.0, 3.0, 0.1]), "label": np.array([b"%s", b"100%", b""])},
    ):
        for repeats in (1, 64, 2100):  # one block of rows, or two
            table = ResultTable.of_columns({name: np.tile(values, repeats) for name, values in columns.items()})
            assert render_csv(table) == render_csv_per_cell(table)


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
