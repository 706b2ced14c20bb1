"""Tests for repro.relational.relation."""

import numpy as np
import pytest

from repro.factorized import HierarchyPaths
from repro.relational.dataset import AuxiliaryDataset, HierarchicalDataset
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
    def test_project(self, rel):
        p = rel.project(["b", "a"])
        assert p.schema.names == ("b", "a")
        assert len(p) == 5

    def test_distinct(self, rel):
        d = rel.distinct(["a", "b"])
        assert sorted(d.rows()) == [("a1", "b1"), ("a1", "b2"),
                                    ("a2", "b1"), ("a2", "b2")]

    def test_filter_predicate(self, rel):
        f = rel.filter(lambda r: r["x"] > 2.5)
        assert len(f) == 3

    def test_filter_equals(self, rel):
        f = rel.filter_equals({"a": "a2", "b": "b2"})
        assert sorted(f.column("x")) == [4.0, 5.0]

    def test_filter_equals_empty_conditions(self, rel):
        assert rel.filter_equals({}) is rel

    def test_sort(self, rel):
        s = rel.sort(["x"])
        assert list(s.column("x")) == sorted(rel.column("x"))

    def test_extend(self, rel):
        e = rel.extend("y", [0, 1, 2, 3, 4])
        assert e.column("y") == (0, 1, 2, 3, 4)
        with pytest.raises(SchemaError):
            rel.extend("y", [1])

    def test_concat(self, rel):
        c = rel.concat(rel)
        assert len(c) == 10
        with pytest.raises(SchemaError):
            rel.concat(rel.project(["a"]))

    def test_bag_equality(self, rel):
        shuffled = rel.sort(["x"])
        assert rel == shuffled
        assert rel != rel.project(["a", "b"])


class TestJoin:
    def test_natural_join_shared_key(self, rel):
        lookup = Relation.from_rows(Schema([dimension("b"), measure("w")]),
                                    [("b1", 10.0), ("b2", 20.0)])
        joined = rel.natural_join(lookup)
        assert joined.schema.names == ("a", "b", "x", "w")
        assert len(joined) == 5
        by_b = dict(zip(joined.column("b"), joined.column("w")))
        assert by_b == {"b1": 10.0, "b2": 20.0}

    def test_join_drops_unmatched(self, rel):
        lookup = Relation.from_rows(Schema([dimension("b"), measure("w")]),
                                    [("b1", 10.0)])
        joined = rel.natural_join(lookup)
        assert set(joined.column("b")) == {"b1"}
        assert len(joined) == 2

    def test_join_one_to_many(self):
        left = Relation.from_rows(Schema(["k"]), [("k1",), ("k2",)])
        right = Relation.from_rows(Schema(["k", "v"]),
                                   [("k1", 1), ("k1", 2), ("k2", 3)])
        assert len(left.natural_join(right)) == 3

    def test_cartesian_when_disjoint(self):
        left = Relation.from_rows(Schema(["a"]), [(1,), (2,)])
        right = Relation.from_rows(Schema(["b"]), [(10,), (20,), (30,)])
        prod = left.natural_join(right)
        assert len(prod) == 6
        assert sorted(prod.rows())[0] == (1, 10)


class TestGrouping:
    def test_group_rows(self, rel):
        groups = rel.group_rows(["a"])
        assert groups[("a1",)] == [0, 1]
        assert groups[("a2",)] == [2, 3, 4]

    def test_group_measure(self, rel):
        gm = rel.group_measure(["a"], "x")
        np.testing.assert_allclose(gm[("a2",)], [3.0, 4.0, 5.0])


#: Entry points that group by a dimension cell: each keys a dict by it,
#: so an unhashable (list) cell cannot be grouped and must raise the typed
#: EncodingError, not a bare TypeError.
LIST_CELL_CALLS = {
    "group_rows": lambda rel: rel.group_rows(["a"]),
    "group_measure": lambda rel: rel.group_measure(["a"], "x"),
    "distinct": lambda rel: rel.distinct(["a"]),
    "auxiliary_lookup": lambda rel: AuxiliaryDataset(
        "aux", rel, ("a",), ("x",)).lookup(),
    "attribute_domain": lambda rel: HierarchicalDataset.build(
        rel, {"h": ["a"]}, "x").attribute_domain("a"),
    "hierarchy_paths": lambda rel: HierarchyPaths.from_relation(
        Hierarchy("h", ["a"]), rel),
}


@pytest.mark.parametrize("call", sorted(LIST_CELL_CALLS))
def test_list_cell_raises_encoding_error(call):
    rel = Relation.from_rows(Schema([dimension("a"), measure("x")]),
                             [(["unhashable"], 1.0), ("a1", 2.0)])
    with pytest.raises(EncodingError):
        LIST_CELL_CALLS[call](rel)


@pytest.mark.parametrize("level", ["root", "non-root"])
def test_registration_with_list_cell_raises_encoding_error(level):
    """The FD check encodes both levels of each adjacent pair, so a list
    cell at either level raises the typed error, not a bare TypeError."""
    cell = ("d0", ["v0"], 1.0) if level == "non-root" \
        else (["d0"], "v0", 1.0)
    rel = Relation.from_rows(
        Schema([dimension("d"), dimension("v"), measure("x")]),
        [cell, ("d1", "v1", 2.0)])
    with pytest.raises(EncodingError, match="not hashable"):
        HierarchicalDataset.build(rel, {"geo": ["d", "v"]}, "x")


class TestDerivedIsolation:
    """Relations are immutable: no caller can edit a column, so derived
    relations share their parent's column objects instead of copying."""

    def test_columns_are_immutable_and_shared(self, rel):
        column = rel.column("a")
        assert isinstance(column, tuple)
        with pytest.raises(TypeError):
            column[0] = "mutated"  # type: ignore[index]
        assert rel.column("a")[0] == "a1"
        projected = rel.project(["a", "b"])
        extended = rel.extend("y", [0, 1, 2, 3, 4])
        for name in ("a", "b"):
            assert projected._cols[name] is rel._cols[name]
        for name in rel.schema.names:
            assert extended._cols[name] is rel._cols[name]

    def test_concat_mixed_dtype_arrays_preserves_values(self):
        left = Relation(Schema(["k"]), {"k": np.array([1, 2])})
        right = Relation(Schema(["k"]), {"k": np.array(["a"])})
        both = left.concat(right)
        assert both.column("k") == (1, 2, "a")  # no silent stringification


class TestCsv(object):
    def test_round_trip(self, rel, tmp_path):
        path = str(tmp_path / "r.csv")
        rel.to_csv(path)
        back = Relation.from_csv(path, rel.schema)
        assert back == rel

    def test_custom_converter(self, tmp_path):
        schema = Schema([dimension("year"), measure("v")])
        r = Relation.from_rows(schema, [(1984, 1.5), (1985, 2.5)])
        path = str(tmp_path / "r.csv")
        r.to_csv(path)
        back = Relation.from_csv(path, schema, converters={"year": int})
        assert back.column("year") == (1984, 1985)
