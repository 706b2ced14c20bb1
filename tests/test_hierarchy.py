"""Tests for hierarchy metadata, FD validation, and drill states."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.encoding import EncodingError
from repro.relational.hierarchy import (Dimensions, DrillState, Hierarchy,
                                        HierarchyError)
from repro.relational.relation import Relation
from repro.relational.schema import Schema, dimension

NAN = float("nan")
FD_SCHEMA = Schema([dimension("d"), dimension("v"), dimension("w"),
                    dimension("s")])
FD_HIERARCHY = Hierarchy("geo", ["d", "v", "w"])


def _object_values(prefix: str):
    """List-column cells, one cell type per column (a key column holds
    one): strings, ints or floats, all through the dict factorizer."""
    return st.sampled_from([
        st.sampled_from([f"{prefix}0", f"{prefix}1", f"{prefix}2"]),
        st.integers(0, 2), st.sampled_from([0.5, 1.0, -2.0])])


@st.composite
def fd_relations(draw):
    """Relations over ``d ← v ← w`` that satisfy the FDs or nearly do.

    Typed relations hold string and int arrays (the hashed and
    ``np.unique`` encodings); object relations hold the lists of
    :func:`_object_values`. Half are cut down by ``filter_equals`` after
    their encodings are interned, so they share domains wider than
    their rows.
    """
    typed = draw(st.booleans())
    if typed:
        pools = {"w": st.integers(0, 3)}
        for name in "dv":
            pools[name] = st.sampled_from(
                [f"{name}0", f"{name}1", f"{name}\xe9"])
    else:
        pools = {name: draw(_object_values(name)) for name in "dvw"}
    n = draw(st.integers(0, 12))
    columns = {"w": [draw(pools["w"]) for _ in range(n)]}
    for parent, child in (("v", "w"), ("d", "v")):
        parent_of: dict = {}
        column = []
        for c in columns[child]:
            if c not in parent_of:
                parent_of[c] = draw(pools[parent])
            column.append(parent_of[c])
        if n:
            for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
                column[i] = draw(pools[parent])  # may break the FD
        columns[parent] = column
    columns["s"] = [draw(st.integers(0, 2)) for _ in range(n)]
    if typed:
        columns = {"d": np.array(columns["d"], dtype=str),
                   "v": np.array(columns["v"], dtype=str),
                   "w": np.array(columns["w"], dtype=np.int64),
                   "s": np.array(columns["s"], dtype=np.int64)}
    relation = Relation(FD_SCHEMA, columns)
    if draw(st.booleans()):
        for name in FD_SCHEMA.names:
            relation.encoding(name)  # intern first, as a cube build would
        relation = relation.filter_equals({"s": draw(st.integers(0, 2))})
    return relation


def _row_scan_fd_error(relation, hierarchy):
    """The first FD violation a row-at-a-time ``{child: parent}`` scan
    finds, as ``validate_fds`` words it, or None.

    Parents compare like dict keys (identity, then ``==``), the
    equivalence the encoded columns use.
    """
    names = relation.schema.names
    rows = list(relation.rows())
    for parent, child in zip(hierarchy.attributes, hierarchy.attributes[1:]):
        pi, ci = names.index(parent), names.index(child)
        seen: dict = {}
        for row in rows:
            p, c = row[pi], row[ci]
            if c in seen and seen[c] is not p and seen[c] != p:
                return (f"FD {child} → {parent} violated: {c!r} maps to "
                        f"both {seen[c]!r} and {p!r}")
            seen[c] = p
    return None


class TestHierarchy:
    def test_structure(self):
        h = Hierarchy("geo", ["district", "village"])
        assert h.root == "district" and h.leaf == "village"
        assert h.level("village") == 1
        assert h.prefix(1) == ("district",)
        assert h.next_attribute(1) == "village"
        assert h.next_attribute(2) is None
        assert h.more_specific("village", "district")

    def test_empty_rejected(self):
        with pytest.raises(HierarchyError):
            Hierarchy("x", [])

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(HierarchyError):
            Hierarchy("x", ["a", "a"])

    def test_level_of_unknown(self):
        with pytest.raises(HierarchyError):
            Hierarchy("x", ["a"]).level("b")

    def test_fd_validation_ok(self):
        rel = Relation.from_rows(
            Schema([dimension("d"), dimension("v")]),
            [("d1", "v1"), ("d1", "v2"), ("d2", "v3"), ("d1", "v1")])
        Hierarchy("geo", ["d", "v"]).validate_fds(rel)  # no raise

    def test_fd_violation_detected(self):
        rel = Relation.from_rows(
            Schema([dimension("d"), dimension("v")]),
            [("d1", "v1"), ("d2", "v1")])
        with pytest.raises(HierarchyError, match="FD"):
            Hierarchy("geo", ["d", "v"]).validate_fds(rel)

    @given(fd_relations())
    def test_linear_fd_check_decides_like_row_scan(self, rel):
        want = _row_scan_fd_error(rel, FD_HIERARCHY)
        if want is None:
            FD_HIERARCHY.validate_fds(rel)
        else:
            with pytest.raises(HierarchyError) as info:
                FD_HIERARCHY.validate_fds(rel)
            assert str(info.value) == want

    def test_repeated_nan_parent_object_is_one_parent(self):
        # NaN is not a key cell, one repeated object or not: the relation
        # refuses the parent column where it is built, so no FD check
        # has to decide whether the NaN rows are one parent.
        with pytest.raises(EncodingError, match="'d'.*NaN"):
            Relation(Schema([dimension("d"), dimension("v")]),
                     {"d": [NAN, NAN, 0.5, 0.5],
                      "v": ["v0", "v0", "v1", "v1"]})


class TestDimensions:
    def test_from_mapping(self):
        dims = Dimensions.from_mapping({"geo": ["d", "v"], "time": ["y"]})
        assert dims.names == ("geo", "time")
        assert dims.attributes() == ("d", "v", "y")
        assert dims.hierarchy_of("v").name == "geo"

    def test_attribute_in_two_hierarchies_rejected(self):
        with pytest.raises(HierarchyError):
            Dimensions.from_mapping({"a": ["x"], "b": ["x"]})

    def test_duplicate_hierarchy_name(self):
        with pytest.raises(HierarchyError):
            Dimensions([Hierarchy("h", ["a"]), Hierarchy("h", ["b"])])

    def test_unknown_lookups(self):
        dims = Dimensions.from_mapping({"geo": ["d"]})
        with pytest.raises(HierarchyError):
            dims.hierarchy_of("zzz")
        with pytest.raises(HierarchyError):
            _ = dims["zzz"]


class TestDrillState:
    @pytest.fixture
    def dims(self):
        return Dimensions.from_mapping({"geo": ["d", "v"], "time": ["y"]})

    def test_initial_state(self, dims):
        state = DrillState(dims)
        assert state.group_by() == ()
        assert [(h.name, a) for h, a in state.candidates()] == \
            [("geo", "d"), ("time", "y")]

    def test_from_groupby(self, dims):
        state = DrillState.from_groupby(dims, ["y", "d"])
        assert state.depths == {"geo": 1, "time": 1}
        assert state.group_by() == ("d", "y")

    def test_from_groupby_requires_prefix(self, dims):
        with pytest.raises(HierarchyError):
            DrillState.from_groupby(dims, ["v"])  # skips district

    def test_drill_progression(self, dims):
        state = DrillState(dims).drill("geo")
        assert state.group_by() == ("d",)
        state = state.drill("geo")
        assert state.group_by() == ("d", "v")
        assert [(h.name, a) for h, a in state.candidates()] == [("time", "y")]
        with pytest.raises(HierarchyError):
            state.drill("geo")

    def test_drill_returns_new_state(self, dims):
        s0 = DrillState(dims)
        s1 = s0.drill("time")
        assert s0.group_by() == ()
        assert s1.group_by() == ("y",)

    def test_invalid_depth(self, dims):
        with pytest.raises(HierarchyError):
            DrillState(dims, {"geo": 5, "time": 0})
