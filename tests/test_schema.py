"""Tests for repro.relational.schema."""

import pytest

from repro.relational.schema import (Attribute, AttributeKind, Schema,
                                     SchemaError, dimension, measure)


class TestAttribute:
    def test_kinds(self):
        assert dimension("a").is_dimension()
        assert not dimension("a").is_measure()
        assert measure("m").is_measure()
        assert not Attribute("x").is_dimension()

    def test_equality_and_hash(self):
        assert dimension("a") == dimension("a")
        assert dimension("a") != measure("a")
        assert len({dimension("a"), dimension("a")}) == 1


class TestSchema:
    def test_from_strings(self):
        s = Schema(["a", "b"])
        assert s.names == ("a", "b")
        assert s["a"].kind is AttributeKind.OTHER

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_position_and_contains(self):
        s = Schema([dimension("a"), measure("m")])
        assert s.position("m") == 1
        assert "a" in s and "zzz" not in s
        with pytest.raises(SchemaError):
            s.position("zzz")

    def test_getitem_by_index_and_name(self):
        s = Schema([dimension("a"), measure("m")])
        assert s[0].name == "a"
        assert s["m"].name == "m"
        with pytest.raises(SchemaError):
            _ = s["nope"]

    def test_dimensions_and_measures(self):
        s = Schema([dimension("a"), measure("m"), dimension("b")])
        assert s.dimensions() == ("a", "b")
        assert s.measures() == ("m",)

    def test_equality_and_iteration(self):
        s1 = Schema([dimension("a")])
        s2 = Schema([dimension("a")])
        assert s1 == s2 and hash(s1) == hash(s2)
        assert [a.name for a in s1] == ["a"]
