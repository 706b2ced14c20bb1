"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Complaint, ModelRepairer, Reptile, ReptileConfig
from repro.core.ranker import score_drilldown
from repro.core.repair import RepairPrediction
from repro.factorized import (AttributeOrder, FactorizedMatrix,
                              FeatureColumn, HierarchyPaths,
                              intercept_column)
from repro.model.backends import DenseDesign
from repro.model.multilevel import MultilevelModel
from repro.model.pipeline import FactorizedDesign
from repro.relational import (AggState, Cube, GroupView,
                              HierarchicalDataset, Relation, Schema,
                              dimension, measure)


class TestDegenerateData:
    def test_single_group_dataset(self):
        """One group, one hierarchy: everything should still work."""
        rel = Relation.from_rows(
            Schema([dimension("g"), measure("x")]),
            [("only", 1.0), ("only", 2.0), ("only", 3.0)])
        ds = HierarchicalDataset.build(rel, {"h": ["g"]}, "x")
        engine = Reptile(ds, config=ReptileConfig(n_em_iterations=2))
        rec = engine.recommend(Complaint.too_low({}, "count"))
        assert rec.best_group.coordinates == {"g": "only"}

    def test_constant_measure(self):
        """Zero-variance data must not crash EM or std computations."""
        rel = Relation.from_rows(
            Schema([dimension("g"), measure("x")]),
            [(f"g{i}", 5.0) for i in range(10) for _ in range(4)])
        ds = HierarchicalDataset.build(rel, {"h": ["g"]}, "x")
        engine = Reptile(ds, config=ReptileConfig(n_em_iterations=3))
        rec = engine.recommend(Complaint.too_high({}, "std"))
        assert np.isfinite(rec.per_hierarchy["h"].base_penalty)

    def test_groups_of_size_one(self):
        rel = Relation.from_rows(
            Schema([dimension("g"), measure("x")]),
            [(f"g{i}", float(i)) for i in range(6)])
        ds = HierarchicalDataset.build(rel, {"h": ["g"]}, "x")
        view = Cube(ds).view(("g",))
        assert all(s.std == 0.0 for s in view.groups.values())

    def test_em_on_tiny_clusters(self, rng):
        """Clusters of size 1 keep V_i well-defined via Σ⁻¹."""
        x = rng.normal(size=(5, 2))
        design = DenseDesign(x, [1, 1, 1, 1, 1])
        fit = MultilevelModel(n_iterations=5).fit(design, rng.normal(size=5))
        assert np.all(np.isfinite(fit.beta))
        assert fit.sigma2 > 0

    def test_em_zero_variance_targets(self, rng):
        x = rng.normal(size=(12, 2))
        design = DenseDesign(x, [4, 4, 4])
        fit = MultilevelModel(n_iterations=5).fit(design, np.zeros(12))
        assert np.all(np.isfinite(fit.beta))
        pred = MultilevelModel.predict(design, fit)
        np.testing.assert_allclose(pred, 0.0, atol=1e-5)


class TestRepairEdges:
    def test_repairing_missing_key_is_identity(self):
        prediction = RepairPrediction(("mean",), {})
        state = AggState.of([1.0, 2.0])
        assert prediction.repair_state(("nope",), state) == state

    def test_score_single_group_view(self):
        view = GroupView(("g",), {("a",): AggState.from_stats(5, 2.0)})
        prediction = RepairPrediction(("mean",), {("a",): {"mean": 3.0}})
        complaint = Complaint.too_low({}, "mean")
        base, scored = score_drilldown(view, prediction, complaint)
        assert len(scored) == 1
        assert scored[0].repaired_value == pytest.approx(3.0)

    def test_negative_predicted_std_clamped(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        parallel = cube.parallel_view(("year",), "district")
        pred = ModelRepairer(n_iterations=2).predict(parallel, ("year",),
                                                     "std")
        for stats in pred.predicted.values():
            assert stats["std"] >= 0.0

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_repair_to_any_mean_is_consistent(self, target):
        state = AggState.of([1.0, 2.0, 3.0, 4.0])
        prediction = RepairPrediction(("mean",), {("k",): {"mean": target}})
        repaired = prediction.repair_state(("k",), state)
        assert repaired.mean == pytest.approx(target, abs=1e-6)
        assert repaired.count == state.count


class TestFactorizedEdges:
    def test_one_by_one_matrix(self):
        order = AttributeOrder([HierarchyPaths("h", ["a"], [("v",)])])
        m = FactorizedMatrix(order, [intercept_column(order)])
        np.testing.assert_allclose(m.materialize(), [[1.0]])
        np.testing.assert_allclose(m.gram(), [[1.0]])

    def test_left_multiply_zero_rows_of_a(self, figure3_order):
        m = FactorizedMatrix(figure3_order, [intercept_column(figure3_order)])
        out = m.left_multiply(np.zeros((1, m.n_rows)))
        np.testing.assert_allclose(out, 0.0)

    def test_right_multiply_zeros(self, figure3_order):
        m = FactorizedMatrix(figure3_order, [intercept_column(figure3_order)])
        out = m.right_multiply(np.zeros(1))
        np.testing.assert_allclose(out, 0.0)

    def test_gram_invariant_under_hierarchy_reorder(self, figure3_order):
        """§3.4: hierarchy order must not change XᵀX up to column perm."""
        cols = [FeatureColumn("T", "fT", {"t1": 1.0, "t2": 2.0}),
                FeatureColumn("D", "fD", {"d1": 3.0, "d2": 4.0})]
        m1 = FactorizedMatrix(figure3_order, cols)
        reordered = figure3_order.reorder(["geo", "time"])
        m2 = FactorizedMatrix(reordered, cols)
        np.testing.assert_allclose(m1.gram(), m2.gram())

    def test_factorized_design_caches_gram(self, figure3_order):
        m = FactorizedMatrix(figure3_order, [intercept_column(figure3_order)])
        design = FactorizedDesign(m)
        g1 = design.gram()
        assert design.gram() is g1  # cached object identity

    def test_duplicate_feature_values_fine(self, figure3_order):
        """Two values mapping to the same feature is legal (ties)."""
        col = FeatureColumn("V", "fV", {"v1": 1.0, "v2": 1.0, "v3": 1.0})
        m = FactorizedMatrix(figure3_order, [col])
        np.testing.assert_allclose(m.materialize()[:, 0], 1.0)


class TestSessionEdges:
    def test_filters_on_leaf_attribute(self, ofla_dataset):
        """Filtering the most specific attribute leaves only time to drill."""
        engine = Reptile(ofla_dataset,
                         config=ReptileConfig(n_em_iterations=2))
        session = engine.session(filters={"village": "Zata"})
        assert session.group_by == ("district", "village")
        rec = session.recommend(Complaint.too_low({}, "count"))
        assert set(rec.per_hierarchy) == {"time"}

    def test_complaint_on_filtered_attr_ok(self, ofla_dataset):
        engine = Reptile(ofla_dataset,
                         config=ReptileConfig(n_em_iterations=2))
        session = engine.session(group_by=["year"],
                                 filters={"district": "Ofla"})
        rec = session.recommend(
            Complaint.too_low({"district": "Ofla", "year": 1986}, "count"))
        assert rec.per_hierarchy

    def test_drill_with_coordinates_filters(self, ofla_dataset):
        engine = Reptile(ofla_dataset,
                         config=ReptileConfig(n_em_iterations=2))
        session = engine.session(group_by=["year"])
        session.drill("geo", coordinates={"year": 1986})
        assert session.filters == {"year": 1986}
        view = session.view()
        assert all(view.coordinates(k)["year"] == 1986 for k in view.groups)
