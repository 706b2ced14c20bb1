"""Tests for repro.relational.relation."""

import numpy as np
import pytest

from repro.factorized import HierarchyPaths
from repro.relational.dataset import AuxiliaryDataset, HierarchicalDataset
from repro.relational.delta import locate_rows
from repro.relational.encoding import EncodingError
from repro.relational.hierarchy import Hierarchy
from repro.relational.relation import Relation
from repro.relational.schema import Schema, SchemaError, dimension, measure


@pytest.fixture
def rel():
    schema = Schema([dimension("a"), dimension("b"), measure("x")])
    return Relation.from_rows(schema, [
        ("a1", "b1", 1.0), ("a1", "b2", 2.0), ("a2", "b1", 3.0),
        ("a2", "b2", 4.0), ("a2", "b2", 5.0)])


class TestConstruction:
    def test_column_length_mismatch(self):
        with pytest.raises(SchemaError):
            Relation(Schema(["a", "b"]), {"a": [1, 2], "b": [1]})

    def test_missing_column(self):
        with pytest.raises(SchemaError):
            Relation(Schema(["a", "b"]), {"a": [1]})

    def test_row_width_mismatch(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(Schema(["a", "b"]), [(1,)])

    def test_len_and_rows(self, rel):
        assert len(rel) == 5
        assert list(rel)[0] == ("a1", "b1", 1.0)
        assert rel.row(2) == ("a2", "b1", 3.0)


class TestAccessors:
    def test_column_and_measure_array(self, rel):
        assert rel.column("a")[:2] == ("a1", "a1")
        np.testing.assert_allclose(rel.measure_array("x"),
                                   [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_unknown_column(self, rel):
        with pytest.raises(SchemaError):
            rel.column("zzz")

    def test_key_tuples(self, rel):
        assert rel.key_tuples(["b"])[:3] == [("b1",), ("b2",), ("b1",)]
        assert rel.key_tuples([]) == [()] * 5


class TestOperators:
    def test_filter_equals(self, rel):
        f = rel.filter_equals({"a": "a2", "b": "b2"})
        assert sorted(f.column("x")) == [4.0, 5.0]

    def test_filter_equals_empty_conditions(self, rel):
        assert rel.filter_equals({}) is rel

    def test_bag_equality(self, rel):
        shuffled = Relation.from_rows(rel.schema, reversed(list(rel.rows())))
        assert rel == shuffled
        narrower = Relation.from_rows(Schema(["a", "b"]),
                                      rel.key_tuples(["a", "b"]))
        assert rel != narrower


class TestGrouping:
    def test_group_rows(self, rel):
        gidx = rel.group_index(["a"])
        groups = {key: idx.tolist()
                  for key, idx in zip(gidx.keys(), gidx.group_indices())}
        assert groups[("a1",)] == [0, 1]
        assert groups[("a2",)] == [2, 3, 4]

    def test_group_measure(self, rel):
        gm = rel.group_measure(["a"], "x")
        np.testing.assert_allclose(gm[("a2",)], [3.0, 4.0, 5.0])


#: Keyed entry points: each keys a dict by a dimension cell. A relation
#: types every column where it is built, so none of them ever meets a
#: cell that cannot be a key; each answers on the typed column.
LIST_CELL_CALLS = {
    "group_index": lambda rel: rel.group_index(["a"]),
    "group_measure": lambda rel: rel.group_measure(["a"], "x"),
    "filter_equals": lambda rel: rel.filter_equals({"a": "a1"}),
    "locate_rows": lambda rel: locate_rows(
        rel, Relation.from_rows(rel.schema, [("a1", 2.0)])),
    "auxiliary_lookup": lambda rel: AuxiliaryDataset(
        "aux", rel, ("a",), ("x",)).lookup(),
    "attribute_domain": lambda rel: HierarchicalDataset.build(
        rel, {"h": ["a"]}, "x").attribute_domain("a"),
    "hierarchy_paths": lambda rel: HierarchyPaths.from_relation(
        Hierarchy("h", ["a"]), rel),
}

#: Columns no key column takes, beside the list cell: two cell types
#: (even ==-equal ones) or a NaN.
UNTYPED_COLUMNS = {
    "mixed": [1, "a1"], "int-bool": [1, True], "int-float": [1, 1.0],
    "nan": [float("nan"), 2.0],
}

SCHEMA = Schema([dimension("a"), measure("x")])
TYPED = {"a": ["a0", "a1"], "x": [1.0, 2.0]}


@pytest.mark.parametrize("call", sorted(LIST_CELL_CALLS))
def test_list_cell_raises_encoding_error(call):
    with pytest.raises(EncodingError, match="column 'a'.*got list"):
        Relation.from_rows(SCHEMA, [(["unhashable"], 1.0), ("a1", 2.0)])
    LIST_CELL_CALLS[call](Relation(SCHEMA, TYPED))


@pytest.mark.parametrize("column", sorted(UNTYPED_COLUMNS))
@pytest.mark.parametrize("call", sorted(LIST_CELL_CALLS))
def test_untyped_column_raises_encoding_error(call, column):
    cells = UNTYPED_COLUMNS[column]
    for build in (Relation, Relation.from_encoded):
        with pytest.raises(EncodingError, match="column 'a'"):
            build(SCHEMA, {"a": cells, "x": [1.0, 2.0]})
    LIST_CELL_CALLS[call](Relation(SCHEMA, TYPED))


@pytest.mark.parametrize("level", ["root", "non-root"])
def test_registration_with_list_cell_raises_encoding_error(level):
    """The relation refuses a list cell at either level where it is
    built, naming the column, not with a bare TypeError."""
    cell = ("d0", ["v0"], 1.0) if level == "non-root" \
        else (["d0"], "v0", 1.0)
    column = "'v'" if level == "non-root" else "'d'"
    with pytest.raises(EncodingError, match=f"{column}.*got list"):
        Relation.from_rows(
            Schema([dimension("d"), dimension("v"), measure("x")]),
            [cell, ("d1", "v1", 2.0)])


class TestDerivedIsolation:
    """Relations are immutable: no caller can edit a column, so derived
    relations share their parent's column storage instead of copying."""

    def test_columns_are_immutable_and_shared(self, rel):
        column = rel.column("a")
        assert isinstance(column, tuple)
        with pytest.raises(TypeError):
            column[0] = "mutated"  # type: ignore[index]
        assert rel.column("a")[0] == "a1"
        retracted = rel.without_rows([0])
        for name in rel.schema.names:
            col = rel._cols[name]
            assert retracted._pending.columns[name].base \
                is (col._array if col._enc is None else col._enc)
        assert retracted.column("x") == (2.0, 3.0, 4.0, 5.0)
        assert rel.column("x") == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_concat_mixed_dtype_arrays_preserves_values(self):
        # No silent stringification: a str cell cannot enter an int
        # column, and the refused append leaves the column as it was.
        left = Relation(Schema(["k"]), {"k": np.array([1, 2])})
        right = Relation(Schema(["k"]), {"k": np.array(["a"])})
        with pytest.raises(EncodingError, match="column 'k'.*str"):
            left.with_rows_appended(right)
        assert left.column("k") == (1, 2)


class TestCsv(object):
    def test_round_trip(self, rel, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,x\na1,b1,1.0\na1,b2,2.0\na2,b1,3.0\n"
                        "a2,b2,4.0\na2,b2,5.0\n")
        back = Relation.from_csv(str(path), rel.schema)
        assert back == rel

    def test_custom_converter(self, tmp_path):
        # No per-column converter: each non-measure column gets one cell
        # type, decided over the whole column.
        schema = Schema([dimension("year"), dimension("place"),
                         dimension("code"), dimension("rate"), measure("v")])
        path = tmp_path / "r.csv"
        path.write_text("v,year,place,code,rate,note\n"
                        "1.5,1984,101,01,0.5,x\n\n"
                        "2.5,1985,Zata,2,1.0,y\n")
        back = Relation.from_csv(str(path), schema)
        assert back.column("year") == (1984, 1985)
        assert back.column("place") == ("101", "Zata")  # not int beside str
        assert back.column("code") == ("01", "2")  # "01" is not canonical
        assert back.column("rate") == (0.5, 1.0)
        assert back.column("v") == (1.5, 2.5)
        with pytest.raises(TypeError):
            Relation.from_csv(str(path), schema, converters={"year": int})

    @pytest.mark.parametrize("text, match", [
        ("a,x\na1,1.0\n", "header has no column 'b'"),
        ("a,b,x\na1,b1\n", "line 2 has 2 fields, the header 3"),
        ("a,b,x\na1,b1,1.0,extra\n", "line 2 has 4 fields, the header 3"),
        ("a,b,x\na1,b1,1.0\n\na1,b2,abc\n",
         "measure 'x' cell 'abc' on line 4 is not a number"),
        ("a,b,x\na1,b1,\n", "measure 'x' cell '' on line 2 is not a number"),
    ])
    def test_malformed_file_raises_schema_error(self, rel, tmp_path, text,
                                                match):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=match):
            Relation.from_csv(str(path), rel.schema)
