"""Property tests: vectorized kernels ≡ naive row-at-a-time reference.

Every hot operation of the columnar core — group-by, leaf-cube build,
roll-up (with and without provenance filters) and filter — is checked
for exact agreement with the frozen loops in ``repro.relational.rowref``
on random relations (string or int domains, one cell type per key
column, duplicate rows, empty results), and the array form of the §2.2 counted-relation operators
with the dict ``CountMap``'s loops. Counts and measures are
integer-valued so float sums are order-independent and equality can be
exact.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (Cube, HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.relational import encoding, rowref
from repro.relational.countmap import CountMap, EncodedCountMap


# -- strategies ----------------------------------------------------------------------
def _values(prefix: str, size: int):
    """A small mixed domain: strings and ints exercise both factorizers."""
    return st.one_of(
        st.sampled_from([f"{prefix}{i}" for i in range(size)]),
        st.integers(0, size - 1))


def _typed_values(prefix: str, size: int):
    """One key column's cells: strings or ints, never both (a key
    column holds one cell type); either exercises the dict factorizer."""
    return st.sampled_from([
        st.sampled_from([f"{prefix}{i}" for i in range(size)]),
        st.integers(0, size - 1)])


@st.composite
def relations(draw, min_rows: int = 0, max_rows: int = 60):
    """Random (a, b, c, x) relations with duplicate-heavy key columns."""
    n = draw(st.integers(min_rows, max_rows))
    schema = Schema([dimension("a"), dimension("b"), dimension("c"),
                     measure("x")])
    a, b, c = (draw(_typed_values(p, size))
               for p, size in (("a", 3), ("b", 4), ("c", 3)))
    rows = [(draw(a), draw(b), draw(c), float(draw(st.integers(-50, 50))))
            for _ in range(n)]
    return Relation.from_rows(schema, rows)


def _mistyped(rel: Relation, conditions: dict) -> bool:
    """Whether a condition's cell type differs from its column's."""
    return any(rel.encoding(a).cell_type not in (None, type(v))
               for a, v in conditions.items())


@st.composite
def array_relations(draw, max_rows: int = 60):
    """Array-backed relations: the numpy factorization fast path."""
    n = draw(st.integers(0, max_rows))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    schema = Schema([dimension("a"), dimension("b"), measure("x")])
    return Relation(schema, {
        "a": rng.integers(0, 4, n),
        "b": np.array([f"b{i}" for i in range(5)])[rng.integers(0, 5, n)],
        "x": rng.integers(-50, 50, n).astype(float)})


@st.composite
def countmaps(draw, attrs: tuple[str, ...], max_keys: int = 80):
    """Counted relations with integer counts (exact under reordering)."""
    n = draw(st.integers(0, max_keys))
    data = {}
    for _ in range(n):
        key = tuple(draw(_values(a, 3)) for a in attrs)
        data[key] = float(draw(st.integers(1, 9)))
    return CountMap(attrs, data)


def _group_rows(rel: Relation, names) -> dict:
    """``{key: [row indices]}`` from the composite-key group index."""
    gidx = rel.group_index(list(names))
    return {key: idx.tolist()
            for key, idx in zip(gidx.keys(), gidx.group_indices())}


def _states_equal(naive: dict, columnar) -> None:
    assert len(naive) == len(columnar)
    for key, state in naive.items():
        got = columnar[key]
        assert (got.count, got.total, got.sumsq) \
            == (state.count, state.total, state.sumsq)


# -- relation operators --------------------------------------------------------------
class TestRelationOps:
    @given(relations(), st.sampled_from([["a"], ["b", "c"], ["a", "b", "c"],
                                         []]))
    def test_group_rows(self, rel, names):
        assert _group_rows(rel, names) == rowref.group_rows(rel, names)

    @given(relations(), st.sampled_from([["a"], ["a", "c"]]))
    def test_group_measure(self, rel, names):
        naive = rowref.group_measure(rel, names, "x")
        got = rel.group_measure(names, "x")
        assert set(naive) == set(got)
        for key in naive:
            np.testing.assert_array_equal(naive[key], got[key])

    @given(relations(), st.sampled_from([{}, {"a": "a0"}, {"a": 1},
                                         {"a": "a0", "b": "b1"},
                                         {"c": "nope"}]))
    def test_filter_equals(self, rel, conditions):
        if _mistyped(rel, conditions):
            with pytest.raises(encoding.EncodingError):
                rel.filter_equals(conditions)
            return
        assert rel.filter_equals(conditions) \
            == rowref.filter_equals(rel, conditions)

    @given(array_relations())
    def test_array_backed_group_and_filter(self, rel):
        assert _group_rows(rel, ["a", "b"]) == rowref.group_rows(rel,
                                                                 ["a", "b"])
        value = rel.column("a")[0] if len(rel) else 0
        assert rel.filter_equals({"a": value}) \
            == rowref.filter_equals(rel, {"a": value})


def test_nan_dimension_values_group_like_row_path():
    # A NaN key (nan != nan) has no group: the relation refuses it where
    # it is built, from an array or a list, with the typed error the row
    # path has no answer for.
    for g in (np.array([1.0, np.nan, np.nan]), [1.0, float("nan"), 2.0]):
        with pytest.raises(encoding.EncodingError, match="'g'.*NaN"):
            Relation(Schema([dimension("g"), measure("x")]),
                     {"g": g, "x": np.array([1.0, 2.0, 3.0])})


def test_mixed_numeric_types_preserved_in_derived_relations():
    # 1, True and 2.0 are three cell types: no column merges them under
    # one code, so building one raises. A column of each type keeps its
    # type through every derived relation.
    schema = Schema([dimension("k"), measure("x")])
    with pytest.raises(encoding.EncodingError, match="'k'.*one cell type"):
        Relation.from_rows(schema, [(1, 1.0), (True, 2.0), (2.0, 3.0)])
    for cells in ([1, 2], [True, False], [1.0, 2.0]):
        rel = Relation(schema, {"k": cells, "x": [1.0, 2.0]})
        derived = rel.without_rows([0]).with_rows_appended(
            Relation(schema, {"k": cells[:1], "x": [3.0]}))
        assert derived.column("k") == (cells[1], cells[0])
        assert {type(v) for v in derived.column("k")} == {type(cells[0])}
        assert rel.filter_equals({"k": cells[1]}).column("k") == (cells[1],)


def test_mixed_numeric_append_preserves_originals():
    # No cross-type merge across two encoded relations' domains: 1.0
    # cannot enter a column of int cells (1.0 == 1 would take 1's code),
    # and the refused append leaves both relations as they were.
    left = Relation.from_encoded(Schema(["k"]),
                                 {"k": encoding.factorize([1, 2])})
    right = Relation.from_encoded(Schema(["k"]),
                                  {"k": encoding.factorize([1.0, 3.0])})
    with pytest.raises(encoding.EncodingError, match="'k'.*float"):
        left.with_rows_appended(right)
    assert [type(v) for v in left.column("k")] == [int, int]
    assert [type(v) for v in right.column("k")] == [float, float]


def test_nan_filter_value_matches_nothing():
    # A NaN condition can match no row (nan != nan), and is not a key
    # cell: the filter raises instead of answering empty.
    rel = Relation(Schema([dimension("g"), measure("x")]),
                   {"g": np.array([1.0, 2.0, 3.0]),
                    "x": np.array([1.0, 2.0, 3.0])})
    assert len(rowref.filter_equals(rel, {"g": float("nan")})) == 0
    with pytest.raises(encoding.EncodingError, match="NaN"):
        rel.filter_equals({"g": float("nan")})


def test_lossy_columns_get_distinct_fingerprint_tokens():
    # Columns whose cells compare equal across types hash apart.
    tokens = {Relation(Schema([dimension("k")]), {"k": cells})
              .content_token("k")
              for cells in ([1, 1], [True, True], [1.0, 1.0])}
    assert len(tokens) == 3


# -- hashed string factorization -----------------------------------------------------
#: NUL, non-ASCII, BMP-edge and astral code points, plus plain letters.
_CHARS = ["a", "b", "\x00", "\xe9", "\uffff", "\U0001f600"]
_BYTES = [b"a", b"b", b"\x00", b"\xff"]


@st.composite
def string_columns(draw):
    """Fixed-width ``U``/``S`` columns: duplicate-heavy, possibly empty,
    big-endian or strided."""
    if draw(st.booleans()):
        kind, part, join = "U", st.sampled_from(_CHARS), "".join
    else:
        kind, part, join = "S", st.sampled_from(_BYTES), b"".join
    pool = draw(st.lists(st.lists(part, max_size=5).map(join), min_size=1,
                         max_size=8))
    values = draw(st.lists(st.sampled_from(pool), max_size=40))
    width = max([len(v) for v in values], default=0) \
        + draw(st.integers(0, 2))
    order = draw(st.sampled_from("<>")) if kind == "U" else "|"
    arr = np.array(values, dtype=f"{order}{kind}{max(width, 1)}")
    return arr[::draw(st.sampled_from([1, 2, -1]))]


def _assert_same_encoding(got, want) -> None:
    assert got.codes.dtype == want.codes.dtype == np.int32
    assert np.array_equal(got.codes, want.codes)
    assert got.domain == want.domain
    assert [type(v) for v in got.domain] == [type(v) for v in want.domain]
    assert got.domain_sorted is want.domain_sorted is True


def _constant_hash(values):
    return np.zeros(len(values), dtype=np.uint64)


def _low_bits_hash(values, _real=encoding._row_hashes):
    return _real(values) & np.uint64(0xF)


STRING_EDGE_CASES = {
    "empty": np.array([], dtype="U3"),
    "one": np.array(["x"]),
    "all-equal": np.array(["same"] * 7),
    "empty-string": np.array(["", "a", "", ""]),
    "bytes-nul": np.array([b"a\x00b", b"a\x00c", b"a", b"a\x00", b"\x00b"]),
    "astral": np.array(["\U0001f600", "\xe9t\xe9", "z", "\U0001f600", "\uffff"]),
    "big-endian": np.array(["b", "\xe9", "a", "b", "\U0001f600"], dtype=">U2"),
    "strided": np.array([f"v{i % 5}" for i in range(20)])[::3],
}


class TestHashedStringFactorize:
    """The hashed ``U``/``S`` path is bitwise the ``np.unique`` oracle."""

    @given(string_columns())
    def test_hashed_path_equals_np_unique(self, arr):
        want = encoding.factorize_by_sort(arr)
        got = encoding._factorize_strings(arr)
        assert got is not None  # the real hash does not collide here
        _assert_same_encoding(got, want)
        _assert_same_encoding(encoding.factorize(arr), want)

    @pytest.mark.parametrize("name", list(STRING_EDGE_CASES))
    def test_edge_cases_equal_np_unique(self, name):
        arr = STRING_EDGE_CASES[name]
        _assert_same_encoding(encoding.factorize(arr),
                              encoding.factorize_by_sort(arr))

    @pytest.mark.parametrize("degenerate", [_constant_hash, _low_bits_hash])
    @given(arr=string_columns())
    def test_forced_collisions_fall_back(self, degenerate, arr):
        want = encoding.factorize_by_sort(arr)
        with mock.patch.object(encoding, "_row_hashes", degenerate):
            if degenerate is _constant_hash and want.cardinality > 1:
                # Every row shares one hash: the guard must refuse.
                assert encoding._factorize_strings(arr) is None
            _assert_same_encoding(encoding.factorize(arr), want)


# -- cube ----------------------------------------------------------------------------
class TestCubeEquivalence:
    @staticmethod
    def _dataset(rel):
        return HierarchicalDataset.build(
            rel, {"ha": ["a"], "hb": ["b"], "hc": ["c"]}, "x",
            validate=False)

    @given(relations(min_rows=1))
    def test_leaf_states(self, rel):
        dataset = self._dataset(rel)
        _states_equal(rowref.leaf_states(dataset),
                      Cube(dataset).leaf_states)

    @given(relations(min_rows=1),
           st.sampled_from([("a",), ("b", "c"), ("a", "b", "c"), ()]))
    def test_rollup(self, rel, group_attrs):
        dataset = self._dataset(rel)
        cube = Cube(dataset)
        naive = rowref.rollup_view(rowref.leaf_states(dataset),
                                   dataset.leaf_group_by(), group_attrs)
        _states_equal(naive, cube.view(group_attrs).groups)

    @given(relations(min_rows=1),
           st.sampled_from([{"a": "a0"}, {"b": "b2"}, {"a": 2, "c": "c1"},
                            {"c": "absent"}]))
    def test_filtered_rollup(self, rel, filters):
        dataset = self._dataset(rel)
        cube = Cube(dataset)
        if _mistyped(rel, filters):
            with pytest.raises(encoding.EncodingError):
                cube.view(("b",), filters)
            return
        naive = rowref.rollup_view(rowref.leaf_states(dataset),
                                   dataset.leaf_group_by(), ("b",), filters)
        _states_equal(naive, cube.view(("b",), filters).groups)


# -- counted relations ---------------------------------------------------------------
class TestCountMapEquivalence:
    """The array form against the dict ``CountMap``, whose §2.2 loops are
    the reference: domains here hold ints beside strings and follow
    first-seen key order, so shared attributes take the remap path."""

    @staticmethod
    def _encoded(cm: CountMap) -> EncodedCountMap:
        domains = [list(dict.fromkeys(key[j] for key in cm.data))
                   for j in range(len(cm.schema))]
        return EncodedCountMap.from_countmap(cm, domains)

    # Key spaces overlap on "b" (shared join attribute) by construction.
    @given(countmaps(("a", "b")), countmaps(("b", "c")))
    def test_join_shared(self, left, right):
        assert self._encoded(left).join(self._encoded(right)) \
            == left.join(right)

    @given(countmaps(("a",), max_keys=12), countmaps(("c",), max_keys=12))
    def test_join_cartesian(self, left, right):
        assert self._encoded(left).join(self._encoded(right)) \
            == left.join(right)

    @given(countmaps(("a", "b", "c")), st.sampled_from(["a", "b", "c"]))
    def test_marginalize(self, cm, attribute):
        assert self._encoded(cm).marginalize(attribute) \
            == cm.marginalize(attribute)

    @given(countmaps(("a", "b", "c"), max_keys=120))
    def test_marginalize_chain_matches_total(self, cm):
        out = cm.marginalize("a").marginalize("c").marginalize("b")
        assert out.total() == pytest.approx(cm.total())

    @settings(max_examples=10)
    @given(countmaps(("a", "b"), max_keys=200), countmaps(("b", "c"),
                                                          max_keys=200))
    def test_join_large_forces_vectorized_kernel(self, left, right):
        # max_keys 200: the sort-merge kernel sees many matches per key
        # even when hypothesis shrinks other examples.
        assert self._encoded(left).join(self._encoded(right)) \
            == left.join(right)
