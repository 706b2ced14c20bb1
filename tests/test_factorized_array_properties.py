"""Property tests: array-native factorized path ≡ frozen dict oracle.

The code-indexed aggregate planners, the drill-down unit recombination,
and the feature-array matrix/cluster builds must reproduce the pre-array
dict pipeline (frozen in ``repro.factorized.reference``) **exactly** —
same key sets, bitwise-equal counts and feature values. The strategies
deliberately cover the paper-shaped corner cases: NaN domain values
(distinct objects, each its own key), mixed-type domains (``1`` vs
``1.0`` vs ``True`` merge under one code, like dict keys), values shared
across parents (the ==-merge path), and single-leaf hierarchies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorized import ops
from repro.factorized.cluster_ops import ClusterOps
from repro.factorized.drilldown import DrilldownEngine
from repro.factorized.factorizer import Factorizer
from repro.factorized.forder import AttributeOrder, HierarchyPaths
from repro.factorized.matrix import (FactorizedMatrix, FeatureColumn,
                                     intercept_column)
from repro.factorized.multiquery import (combine_units, hierarchy_unit,
                                         lmfao_plan, shared_plan)
from repro.factorized.reference import (assert_aggregate_sets_equal,
                                        dict_path_matrix,
                                        reference_cluster_tables,
                                        reference_combine_units,
                                        reference_hierarchy_unit,
                                        reference_lmfao_plan,
                                        reference_shared_plan)
from repro.relational.countmap import CountMap, EncodedCountMap


# -- strategies ----------------------------------------------------------------------
def _ancestor_pool(name: str, level: int) -> list:
    """Mixed-type candidate values for one ancestor level.

    Small on purpose: equal values recur under different parents (the
    ==-merge path), ints/bools/floats collide cross-type (1 == True), and
    one NaN object is shared across paths (one code) while staying
    unequal to itself (its own dict key).
    """
    pool: list = [f"{name}{level}v0", f"{name}{level}v1", level,
                  float(level) + 0.5, _NAN_POOL[level % len(_NAN_POOL)]]
    if level == 1:
        pool.append(True)  # ==-collides with int 1
    return pool


_NAN_POOL = [float("nan"), float("nan")]


@st.composite
def rich_hierarchies(draw, name: str, max_attrs: int = 3,
                     max_leaves: int = 8) -> HierarchyPaths:
    """Hierarchies over NaN / mixed-type / duplicated-ancestor domains."""
    n_attrs = draw(st.integers(1, max_attrs))
    n_leaves = draw(st.integers(1, max_leaves))
    paths = []
    for i in range(n_leaves):
        anc = tuple(draw(st.sampled_from(_ancestor_pool(name, level)))
                    for level in range(n_attrs - 1))
        kind = draw(st.sampled_from(["str", "int", "float", "nan"]))
        leaf = {"str": f"{name}L{i}", "int": 1000 + i,
                "float": i + 0.25, "nan": float("nan")}[kind]
        paths.append(anc + (leaf,))
    attrs = [f"{name}_a{k}" for k in range(n_attrs)]
    return HierarchyPaths(name, attrs, paths)


@st.composite
def tree_hierarchies(draw, name: str, max_attrs: int = 3,
                     max_branch: int = 3) -> HierarchyPaths:
    """FD-clean hierarchies (every prefix restrictable) with mixed-type
    and NaN values — level values are unique, so truncating to any depth
    keeps the leaf → ancestors dependency intact."""
    n_attrs = draw(st.integers(1, max_attrs))
    paths = [()]
    for level in range(n_attrs):
        branching = draw(st.integers(1, max_branch))
        new = []
        for p in paths:
            for _ in range(branching):
                i = len(new)
                kind = draw(st.sampled_from(["str", "int", "float", "nan"]))
                value = {"str": f"{name}{level}n{i}",
                         "int": level * 1000 + i,
                         "float": level * 1000 + i + 0.5,
                         "nan": float("nan")}[kind]
                new.append(p + (value,))
        paths = new
    attrs = [f"{name}_a{k}" for k in range(n_attrs)]
    return HierarchyPaths(name, attrs, paths)


@st.composite
def rich_orders(draw, max_hierarchies: int = 3) -> AttributeOrder:
    n_h = draw(st.integers(1, max_hierarchies))
    return AttributeOrder([draw(rich_hierarchies(f"h{i}"))
                           for i in range(n_h)])


@st.composite
def rich_matrices(draw, max_hierarchies: int = 3) -> FactorizedMatrix:
    """A rich order plus random columns, including constant columns."""
    order = draw(rich_orders(max_hierarchies))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    cols = [intercept_column(order)]
    for attr in order.attributes:
        dom = order.ordered_domain(attr)
        cols.append(FeatureColumn(
            attr, f"f_{attr}",
            {v: float(x) for v, x in zip(dom, rng.standard_normal(len(dom)))}))
        if draw(st.booleans()):
            # Constant column via the empty-mapping fast path.
            cols.append(FeatureColumn(attr, f"c_{attr}", {},
                                      default=float(rng.standard_normal())))
    return FactorizedMatrix(order, cols)


# -- aggregate planners --------------------------------------------------------------
class TestPlannersMatchDictOracle:
    @given(rich_orders())
    def test_shared_plan_exact(self, order):
        factorizer = Factorizer(order)
        assert_aggregate_sets_equal(shared_plan(factorizer),
                                    reference_shared_plan(factorizer))

    @settings(max_examples=25)
    @given(rich_orders(max_hierarchies=2))
    def test_lmfao_plan_exact(self, order):
        factorizer = Factorizer(order)
        assert_aggregate_sets_equal(lmfao_plan(factorizer),
                                    reference_lmfao_plan(factorizer))

    @given(rich_hierarchies("solo", max_attrs=3))
    def test_hierarchy_unit_exact(self, paths):
        got = hierarchy_unit(paths)
        want = reference_hierarchy_unit(paths)
        assert got.h_total == want.h_total
        assert got.within_counts.keys() == want.within_counts.keys()
        for a in want.within_counts:
            assert got.within_counts[a].as_unary_dict() \
                == want.within_counts[a].as_unary_dict()
        assert got.within_cofs.keys() == want.within_cofs.keys()
        for pair in want.within_cofs:
            assert got.within_cofs[pair] == want.within_cofs[pair]

    @given(rich_orders(max_hierarchies=3))
    def test_combine_units_any_rotation(self, order):
        array_units = {h.name: hierarchy_unit(h) for h in order.hierarchies}
        dict_units = {h.name: reference_hierarchy_unit(h)
                      for h in order.hierarchies}
        names = [h.name for h in order.hierarchies]
        rotated = names[1:] + names[:1]
        assert_aggregate_sets_equal(
            combine_units([array_units[n] for n in rotated]),
            reference_combine_units([dict_units[n] for n in rotated]))


class TestDrilldownMatchesDictOracle:
    @settings(max_examples=20)
    @given(tree_hierarchies("A"), tree_hierarchies("B"))
    def test_candidates_and_commit(self, a, b):
        array_engine = DrilldownEngine([a, b], mode="dynamic")
        oracle_engine = DrilldownEngine(
            [a, b], mode="dynamic", builder=reference_hierarchy_unit,
            combiner=reference_combine_units)
        for name in array_engine.candidates():
            assert_aggregate_sets_equal(
                array_engine.evaluate_candidate(name),
                oracle_engine.evaluate_candidate(name))
        assert_aggregate_sets_equal(array_engine.current_aggregates(),
                                    oracle_engine.current_aggregates())
        if array_engine.candidates():
            drilled = array_engine.candidates()[0]
            array_engine.drill(drilled)
            oracle_engine.drill(drilled)
            assert_aggregate_sets_equal(array_engine.current_aggregates(),
                                        oracle_engine.current_aggregates())


# -- feature arrays / matrix build ---------------------------------------------------
class TestMatrixBitwiseEqualsDictPath:
    @given(rich_matrices())
    def test_feature_arrays_bitwise(self, matrix):
        clone = dict_path_matrix(matrix)
        for ci in range(matrix.n_cols):
            np.testing.assert_array_equal(matrix.domain_features(ci),
                                          clone.domain_features(ci))
        for hi in range(len(matrix.order.hierarchies)):
            np.testing.assert_array_equal(matrix.leaf_features(hi),
                                          clone.leaf_features(hi))

    @given(rich_matrices(), st.integers(0, 2 ** 16))
    def test_ops_bitwise(self, matrix, seed):
        rng = np.random.default_rng(seed)
        clone = dict_path_matrix(matrix)
        np.testing.assert_array_equal(ops.gram(matrix), ops.gram(clone))
        a = rng.normal(size=(2, matrix.n_rows))
        np.testing.assert_array_equal(ops.left_multiply(matrix, a),
                                      ops.left_multiply(clone, a))
        b = rng.normal(size=(matrix.n_cols, 2))
        np.testing.assert_array_equal(ops.right_multiply(matrix, b),
                                      ops.right_multiply(clone, b))
        np.testing.assert_array_equal(ops.materialize(matrix),
                                      ops.materialize(clone))
        np.testing.assert_array_equal(ops.column_sums(matrix),
                                      ops.column_sums(clone))

    @given(rich_matrices(max_hierarchies=2))
    def test_cluster_tables_bitwise(self, matrix):
        cops = ClusterOps(matrix)
        inter, intra = reference_cluster_tables(
            matrix, cops.columns, cops._inter_pos, cops._intra_pos,
            cops.n_clusters)
        np.testing.assert_array_equal(cops._inter_values, inter)
        np.testing.assert_array_equal(cops._intra_rows, intra)

    def test_constant_column_fast_path(self, figure3_order):
        col = intercept_column(figure3_order)
        assert col.mapping == {}  # O(1) memory, not {v: 1.0 for v in dom}
        dom = figure3_order.ordered_domain("V")
        np.testing.assert_array_equal(col.feature_array(dom),
                                      np.ones(len(dom)))
        # Memoized per domain object, and equal to the per-value loop.
        assert col.feature_array(dom) is col.feature_array(dom)
        other = FeatureColumn("V", "c", {}, default=-2.5)
        np.testing.assert_array_equal(
            other.feature_array(dom),
            np.asarray([other.feature_of(v) for v in dom]))

    def test_feature_array_matches_feature_of_with_nan_domain(self):
        nan = float("nan")
        dom = ["x", nan, 1, 1.0, True, float("nan")]
        col = FeatureColumn("a", "f", {"x": 1.5, nan: 2.5, 1: 3.5},
                            default=-1.0)
        got = col.feature_array(dom)
        want = np.asarray([col.feature_of(v) for v in dom])
        np.testing.assert_array_equal(got, want)
        # The shared NaN object hits its mapping entry; the fresh one
        # falls to the default — exactly like dict lookups.
        assert got[1] == 2.5 and got[5] == -1.0


# -- encoded counted relations over arbitrary (non-hierarchy) data -------------------
@st.composite
def encoded_and_dict_maps(draw, attrs: tuple[str, ...], max_keys: int = 30):
    """An EncodedCountMap and its dict twin over a mixed-type domain."""
    domains = [[f"{a}{j}" for j in range(3)] + [7, 7.5] for a in attrs]
    n = draw(st.integers(0, max_keys))
    data: dict = {}
    for _ in range(n):
        key = tuple(draw(st.sampled_from(d)) for d in domains)
        data[key] = data.get(key, 0.0) + float(draw(st.integers(1, 9)))
    cm = CountMap(attrs, data)
    return EncodedCountMap.from_countmap(cm, domains), cm


class TestEncodedCountMapKernels:
    @given(encoded_and_dict_maps(("a", "b")), encoded_and_dict_maps(("b", "c")))
    def test_join_matches_dict(self, left, right):
        el, dl = left
        er, dr = right
        # Distinct domain list objects force the cross-domain remap path.
        assert el.join(er) == dl.join(dr)

    @given(encoded_and_dict_maps(("a", "b", "c")),
           st.sampled_from(["a", "b", "c"]))
    def test_marginalize_matches_dict(self, maps, attribute):
        em, dm = maps
        assert em.marginalize(attribute) == dm.marginalize(attribute)
        assert em.total() == pytest.approx(dm.total())

    def test_join_radix_overflow_falls_back_to_dense_reencode(self):
        # Five shared attributes with 2^13-value domains: the mixed-radix
        # key space (2^65) overflows int64, forcing the row-wise unique
        # re-encode path. Results must still match the dict loops exactly.
        attrs = ("a", "b", "c", "d", "e")
        domains = [list(range(8192)) for _ in attrs]
        left = EncodedCountMap(
            attrs, domains,
            [np.asarray([1, 8000, 17], dtype=np.int32) for _ in attrs],
            np.asarray([2.0, 3.0, 5.0]))
        right = EncodedCountMap(
            attrs, domains,
            [np.asarray([8000, 2, 1], dtype=np.int32) for _ in attrs],
            np.asarray([7.0, 11.0, 13.0]))
        got = left.join(right)
        want = left.to_countmap().join(right.to_countmap())
        assert got == want
        assert got[(1,) * 5] == 2.0 * 13.0 and got[(8000,) * 5] == 3.0 * 7.0

    @given(encoded_and_dict_maps(("a", "b")))
    def test_roundtrip_and_accessors(self, maps):
        em, dm = maps
        assert em.to_countmap() == dm
        assert em.reorder(("b", "a")) == dm.reorder(("b", "a"))
        for key in list(dm.data)[:5]:
            assert em[key] == dm[key]
        assert em[("absent", "absent")] == 0.0
        scalar = em.project_keep([])
        assert scalar.total() == pytest.approx(dm.total())
