"""Tests for counted relations and the §2.2 operators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.countmap import (CountMap, CountMapError,
                                       aggregate_query,
                                       aggregate_query_early, join_all)


@pytest.fixture
def r_ab():
    """The paper's Example 4 relation R = {(a1,b1):1, (a2,b1):2}."""
    return CountMap(("A", "B"), {("a1", "b1"): 1.0, ("a2", "b1"): 2.0})


@pytest.fixture
def t_bc():
    """Example 4's T = {(b1,c1):3, (b1,c2):4}."""
    return CountMap(("B", "C"), {("b1", "c1"): 3.0, ("b1", "c2"): 4.0})


class TestBasics:
    def test_unary(self):
        m = CountMap.unary("A", ["x", "y"])
        assert m[("x",)] == 1.0 and m[("zzz",)] == 0.0

    def test_from_rows_counts_duplicates(self):
        m = CountMap.from_rows(("A",), [("x",), ("x",), ("y",)])
        assert m[("x",)] == 2.0

    def test_width_check(self):
        m = CountMap(("A", "B"))
        with pytest.raises(CountMapError):
            m.add(("only-one",), 1.0)

    def test_duplicate_schema(self):
        with pytest.raises(CountMapError):
            CountMap(("A", "A"))

    def test_total(self, r_ab):
        assert r_ab.total() == 3.0

    def test_reorder(self, r_ab):
        r = r_ab.reorder(("B", "A"))
        assert r[("b1", "a2")] == 2.0
        assert r == r_ab  # equality is order-insensitive

    def test_scale(self, r_ab):
        assert r_ab.scale(2.0)[("a2", "b1")] == 4.0

    def test_as_unary_dict(self):
        assert CountMap.unary("A", ["x"]).as_unary_dict() == {"x": 1.0}
        with pytest.raises(CountMapError):
            CountMap(("A", "B")).as_unary_dict()


class TestJoinMultiply:
    def test_example4_join(self, r_ab, t_bc):
        """Example 4: counts multiply through the join."""
        joined = r_ab.join(t_bc)
        assert joined[("a1", "b1", "c1")] == 3.0
        assert joined[("a1", "b1", "c2")] == 4.0
        assert joined[("a2", "b1", "c1")] == 6.0
        assert joined[("a2", "b1", "c2")] == 8.0

    def test_example4_marginalize(self, r_ab, t_bc):
        """Example 4: ⊕_C partitions by (A,B) and sums counts."""
        q = r_ab.join(t_bc).marginalize("C")
        assert q[("a1", "b1")] == 7.0
        assert q[("a2", "b1")] == 14.0

    def test_disjoint_cartesian(self):
        """Example 3: disjoint schemas give a counted cartesian product."""
        r1 = CountMap.unary("A", ["a1", "a2", "a3"])
        r2 = CountMap.unary("B", ["b1", "b2", "b3"])
        prod = r1.join(r2)
        assert len(prod) == 9
        assert prod.total() == 9.0

    def test_join_drops_unmatched(self):
        left = CountMap(("A",), {("x",): 1.0})
        right = CountMap(("A",), {("y",): 1.0})
        assert len(left.join(right)) == 0

    def test_marginalize_unknown_attribute(self, r_ab):
        with pytest.raises(CountMapError):
            r_ab.marginalize("Z")

    def test_project_keep(self, r_ab):
        assert r_ab.project_keep(["A"]).as_unary_dict() == {"a1": 1.0,
                                                            "a2": 2.0}

    def test_empty_schema_scalar(self, r_ab):
        scalar = r_ab.project_keep([])
        assert scalar.schema == ()
        assert scalar[()] == 3.0


class TestAggregateQueries:
    def test_naive_vs_early(self, r_ab, t_bc):
        """Early marginalization (Example 5) must not change the answer."""
        naive = aggregate_query([r_ab, t_bc], ["A"])
        early = aggregate_query_early([r_ab, t_bc], ["A"])
        assert naive == early
        assert naive[("a1",)] == 7.0
        assert naive[("a2",)] == 14.0

    def test_early_keeps_pending_join_keys(self):
        """Regression: pruning must not kill a join key before its join."""
        pi = CountMap.unary("T", ["t1", "t2"])
        r_d = CountMap.unary("D", ["d1", "d2"])
        r_v = CountMap(("D", "V"), {("d1", "v1"): 1.0, ("d1", "v2"): 1.0,
                                    ("d2", "v3"): 1.0})
        naive = aggregate_query([pi, r_d, r_v], [])
        early = aggregate_query_early([pi, r_d, r_v], [])
        assert naive[()] == early[()] == 6.0

    def test_join_all_requires_input(self):
        with pytest.raises(CountMapError):
            join_all([])

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy"),
                              st.integers(1, 3)), min_size=1, max_size=8),
           st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("pq"),
                              st.integers(1, 3)), min_size=1, max_size=8))
    def test_early_equals_naive_random(self, left_rows, right_rows):
        left = CountMap(("A", "B"))
        for a, b, c in left_rows:
            left.add((a, b), float(c))
        right = CountMap(("B", "C"))
        for b, c, n in right_rows:
            right.add((b, c), float(n))
        for group_by in ([], ["A"], ["A", "C"], ["B"]):
            naive = aggregate_query([left, right], group_by)
            early = aggregate_query_early([left, right], group_by)
            assert naive == early
