"""Exact-equivalence property tests: array ranker vs the frozen oracle.

The array-native recommend path promises *exact* equality — same keys,
same scores (bitwise, no approx), same ordering — with the group-at-a-time
reference frozen in ``repro.core.rankref``. These tests drive both paths
over random views (including NaN-keyed and single-group ones), every
complaint aggregate the paper supports, and full cube-to-recommendation
runs with both model kinds.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import rankref
from repro.core.complaint import Complaint, Direction
from repro.core.ranker import RANKER_STATS, rank_candidates, score_drilldown
from repro.core.repair import (CustomRepairer, ModelRepairer,
                               RepairAlignmentError, RepairPrediction)
from repro.model.features import (FeatureError, FeaturePlan, LagFeature,
                                  build_view_designs)
from repro.relational import (Cube, HierarchicalDataset, Relation, Schema,
                              dataset_from_chunks, dimension, measure)
from repro.relational.aggregates import AggState
from repro.relational.cube import GroupView
from repro.relational.encoding import EncodingError, decode_keys

AGGREGATES = ["count", "sum", "mean", "std"]
DIRECTIONS = [Direction.TOO_HIGH, Direction.TOO_LOW, Direction.TARGET]

# Group specs: (count, mean, std) triples. min_size=1 keeps single-group
# views in scope; keys are strings or floats (one cell type per view).
group_specs = st.lists(
    st.tuples(st.integers(1, 30),
              st.floats(-40, 40, allow_nan=False),
              st.floats(0, 8, allow_nan=False)),
    min_size=1, max_size=10)

prediction_values = st.floats(-60, 60, allow_nan=False)


def build_view(specs, float_keys: bool = False) -> GroupView:
    groups = {}
    for i, (count, mean, std) in enumerate(specs):
        key = (0.5 - i,) if float_keys else (f"g{i}",)
        groups[key] = AggState.from_stats(count, mean, std)
    return GroupView(("g",), groups)


def complaint_for(aggregate: str, direction: Direction,
                  target: float = 10.0) -> Complaint:
    if direction is Direction.TARGET:
        return Complaint.should_be({}, aggregate, target)
    return Complaint({}, aggregate, direction)


def assert_exactly_equal(result, reference):
    base_a, scored_a = result
    base_b, scored_b = reference
    assert base_a == base_b
    assert len(scored_a) == len(scored_b)
    for ga, gb in zip(scored_a, scored_b):
        assert ga.key == gb.key
        assert ga.score == gb.score            # bitwise, no approx
        assert ga.margin_gain == gb.margin_gain
        assert ga.observed == gb.observed
        assert ga.expected == gb.expected
        assert ga.repaired_value == gb.repaired_value
        assert ga.coordinates == gb.coordinates


class TestScoringEquivalence:
    @given(group_specs, st.sampled_from(AGGREGATES),
           st.sampled_from(DIRECTIONS), prediction_values,
           st.booleans())
    def test_matches_oracle(self, specs, aggregate, direction, value,
                            float_keys):
        view = build_view(specs, float_keys=float_keys)
        stats = ModelRepairer().statistics_for(aggregate)
        prediction = RepairPrediction(
            stats, {k: {s: value for s in stats} for k in view.groups})
        complaint = complaint_for(aggregate, direction)
        assert_exactly_equal(
            score_drilldown(view, prediction, complaint),
            rankref.score_drilldown_ref(view, prediction, complaint))

    @given(group_specs, st.sampled_from(AGGREGATES))
    def test_partial_predictions_match_oracle(self, specs, aggregate):
        """Every other group lacks a prediction (identity repair)."""
        view = build_view(specs)
        stats = ModelRepairer().statistics_for(aggregate)
        prediction = RepairPrediction(
            stats, {k: {s: 3.0 for s in stats}
                    for i, k in enumerate(view.groups) if i % 2 == 0})
        complaint = complaint_for(aggregate, Direction.TOO_LOW)
        assert_exactly_equal(
            score_drilldown(view, prediction, complaint),
            rankref.score_drilldown_ref(view, prediction, complaint))

    @given(group_specs)
    def test_single_statistic_subset_matches_oracle(self, specs):
        """Per-key dicts covering a subset of the statistics tuple."""
        view = build_view(specs)
        prediction = RepairPrediction(
            ("count", "mean"),
            {k: ({"count": 5.0} if i % 2 else {"mean": 1.0})
             for i, k in enumerate(view.groups)})
        complaint = complaint_for("sum", Direction.TOO_HIGH)
        assert_exactly_equal(
            score_drilldown(view, prediction, complaint),
            rankref.score_drilldown_ref(view, prediction, complaint))

    @given(group_specs, st.sampled_from(AGGREGATES))
    def test_topk_is_prefix_of_full_ranking(self, specs, aggregate):
        view = build_view(specs)
        stats = ModelRepairer().statistics_for(aggregate)
        prediction = RepairPrediction(
            stats, {k: {s: 2.0 for s in stats} for k in view.groups})
        complaint = complaint_for(aggregate, Direction.TOO_HIGH)
        base_full, full = score_drilldown(view, prediction, complaint)
        base_top, top = score_drilldown(view, prediction, complaint, k=2)
        assert base_top == base_full
        assert [g.key for g in top] == [g.key for g in full[:2]]

    def test_out_of_order_custom_dicts_apply_in_statistics_order(self):
        """A per-key dict ordered against the statistics tuple is encoded
        into the prediction matrix: its statistics report and apply in
        ``statistics`` order, on the array sweep, exactly as the in-order
        dict's and the oracle's do."""
        view = build_view([(5, 2.0, 1.0), (7, 3.0, 1.0)])
        statistics = ("count", "mean")
        shuffled = RepairPrediction(
            statistics,
            {k: {"mean": 4.0, "count": 6.0} for k in view.groups})
        in_order = RepairPrediction(
            statistics,
            {k: {"count": 6.0, "mean": 4.0} for k in view.groups})
        complaint = complaint_for("sum", Direction.TOO_LOW)
        fallbacks = RANKER_STATS["fallback"]
        result = score_drilldown(view, shuffled, complaint)
        assert RANKER_STATS["fallback"] == fallbacks
        assert [list(g.expected) for g in result[1]] == \
            [list(statistics)] * len(view)
        assert_exactly_equal(
            result, score_drilldown(view, in_order, complaint))
        assert_exactly_equal(
            result, rankref.score_drilldown_ref(view, shuffled, complaint))


def _random_dataset(seed: int, n: int = 1500,
                    nan_years: bool = False) -> HierarchicalDataset:
    rng = np.random.default_rng(seed)
    d = rng.integers(0, 6, n)
    v = d * 9 + rng.integers(0, 9, n)
    years = (1980 + rng.integers(0, 4, n)).astype(float)
    if nan_years:
        years[rng.random(n) < 0.05] = float("nan")
    relation = Relation(
        Schema([dimension("district"), dimension("village"),
                dimension("year"), measure("sev")]),
        {"district": np.array([f"d{i}" for i in range(6)])[d],
         "village": np.array([f"v{i:03d}" for i in range(54)])[v],
         "year": years,
         "sev": rng.integers(0, 40, n).astype(float)})
    return HierarchicalDataset.build(
        relation, {"geo": ["district", "village"], "time": ["year"]},
        "sev", validate=False)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("model", ["linear", "multilevel"])
    def test_rank_candidates_matches_oracle(self, aggregate, model):
        cube = Cube(_random_dataset(seed=11))
        complaint = Complaint.too_low({"district": "d2"}, aggregate)
        repairer = ModelRepairer(model=model, n_iterations=4)
        args = (cube, ("district",),
                [("geo", "village"), ("time", "year")], complaint,
                {"district": "d2"}, repairer)
        rec = rank_candidates(*args)
        ref = rankref.rank_candidates_ref(*args)
        assert rec.best_hierarchy == ref.best_hierarchy
        for h in rec.per_hierarchy:
            a, b = rec.per_hierarchy[h], ref.per_hierarchy[h]
            assert a.base_penalty == b.base_penalty
            assert_exactly_equal((a.base_penalty, a.groups),
                                 (b.base_penalty, b.groups))

    @pytest.mark.parametrize("model", ["linear", "multilevel"])
    def test_lag_feature_plan_matches_oracle(self, model):
        """A non-default feature plan: the lag-1 year feature (§3.3.3)
        of the array path equals ``rankref._build_lag``'s, end to end."""
        cube = Cube(_random_dataset(seed=11))
        complaint = Complaint.too_low({"district": "d2"}, "sum")
        repairer = ModelRepairer(
            feature_plan=FeaturePlan(extra_specs=[LagFeature("year")]),
            model=model, n_iterations=4)
        args = (cube, ("district",),
                [("geo", "village"), ("time", "year")], complaint,
                {"district": "d2"}, repairer)
        rec = rank_candidates(*args)
        ref = rankref.rank_candidates_ref(*args)
        assert rec.best_hierarchy == ref.best_hierarchy
        for h in rec.per_hierarchy:
            a, b = rec.per_hierarchy[h], ref.per_hierarchy[h]
            assert_exactly_equal((a.base_penalty, a.groups),
                                 (b.base_penalty, b.groups))

    def test_nan_dimension_values_match_oracle(self):
        """NaN is not a key cell, so the relation refuses NaN years where
        it is built, before any registration (with or without the FD
        check); float years rank as the oracle does."""
        with pytest.raises(EncodingError, match="'year'.*NaN"):
            _random_dataset(seed=5, nan_years=True)
        cube = Cube(_random_dataset(seed=5))
        complaint = Complaint.too_high({"district": "d1"}, "mean")
        repairer = ModelRepairer(model="linear")
        args = (cube, ("district",), [("time", "year")], complaint,
                {"district": "d1"}, repairer)
        rec = rank_candidates(*args)
        ref = rankref.rank_candidates_ref(*args)
        a = rec.per_hierarchy["time"]
        b = ref.per_hierarchy["time"]
        assert_exactly_equal((a.base_penalty, a.groups),
                             (b.base_penalty, b.groups))

    def test_single_group_drilldown_matches_oracle(self):
        rel = Relation.from_rows(
            Schema([dimension("g"), measure("x")]),
            [("only", 1.0), ("only", 2.0), ("only", 5.0)])
        ds = HierarchicalDataset.build(rel, {"h": ["g"]}, "x")
        cube = Cube(ds)
        complaint = Complaint.too_low({}, "count")
        repairer = ModelRepairer(model="linear")
        args = (cube, (), [("h", "g")], complaint, {}, repairer)
        rec = rank_candidates(*args)
        ref = rankref.rank_candidates_ref(*args)
        a, b = rec.per_hierarchy["h"], ref.per_hierarchy["h"]
        assert len(a.groups) == len(b.groups) == 1
        assert_exactly_equal((a.base_penalty, a.groups),
                             (b.base_penalty, b.groups))


def _bits(stats) -> tuple:
    return tuple(a.tobytes() for a in (stats.count, stats.total,
                                       stats.sumsq))


def _chunked_dataset(seed: int) -> HierarchicalDataset:
    """``_random_dataset``'s rows streamed in two chunks, the second
    holding the districts that sort first: the union domains come out
    unsorted, so cube views take the domain-rank sort."""
    relation = _random_dataset(seed).relation
    district = np.asarray(relation.column("district"))
    late = district >= "d3"
    chunks = [{a: np.asarray(relation.column(a))[rows]
               for a in ("district", "village", "year", "sev")}
              for rows in (late, ~late)]
    return dataset_from_chunks(
        chunks, {"geo": ["district", "village"], "time": ["year"]}, "sev")


#: (dataset, group attributes, filters, cluster attributes) of the cube
#: views whose hand-built copies must equal them bitwise.
ONE_FORM_CASES = {
    "villages": ("plain", ("district", "village"), None, ("district",)),
    "filtered": ("plain", ("district", "year"), {"district": "d1"},
                 ("district",)),
    "nan-years": ("nan", ("district", "year"), None, ("district",)),
    "nan-year-level": ("nan", ("year",), None, ()),
    "grand-total": ("plain", (), None, ()),
    "empty": ("plain", ("district", "village"), {"district": "nope"},
              ("district",)),
    "chunked": ("chunked", ("district", "village"), None, ("district",)),
}


class TestOneForm:
    """Every view and every prediction carries one array form: a view
    or prediction built by hand is encoded on construction."""

    @pytest.mark.parametrize("case", sorted(ONE_FORM_CASES))
    def test_hand_built_copy_matches_cube_view(self, case):
        source, attrs, filters, cluster = ONE_FORM_CASES[case]
        if source == "nan":  # NaN is not a key cell: no view to copy
            with pytest.raises(EncodingError, match="NaN"):
                _random_dataset(3, nan_years=True)
            return
        dataset = (_chunked_dataset(3) if source == "chunked"
                   else _random_dataset(3))
        view = Cube(dataset).view(attrs, filters)
        copy = GroupView(view.group_attrs, dict(view.groups))
        assert _bits(copy.stats) == _bits(view.stats)
        assert copy.key_list == view.key_list
        assert decode_keys(copy.key_codes, copy.encodings) == view.key_list
        plan = FeaturePlan(extra_specs=[LagFeature("year")])
        targets = ("count", "mean", "std")
        if not len(view):
            for v in (view, copy):
                with pytest.raises(FeatureError):
                    build_view_designs(v, targets, plan, cluster)
            return
        for a, b in zip(build_view_designs(copy, targets, plan, cluster),
                        build_view_designs(view, targets, plan, cluster)):
            assert a.keys == b.keys
            assert a.design.x.tobytes() == b.design.x.tobytes()
            assert a.y.tobytes() == b.y.tobytes()
            assert list(a.design.sizes) == list(b.design.sizes)

    def test_lossy_hand_built_keys_match_python_sort_oracle(self):
        """Keys mixing ==-equal values of two types (1 and 1.0) cannot
        be encoded; keys of one type per column, inserted out of order,
        sort as the oracle's Python sort over the keys does."""
        states = [AggState.from_stats(n, m, 1.0)
                  for n, m in ((3, 1.0), (4, 2.0), (5, 3.0), (2, 7.0))]
        with pytest.raises(EncodingError, match="float and int"):
            GroupView(("x", "y"), dict(zip(
                [(1, "a"), (1.0, "b"), (2, "c"), (2.0, "a")], states)))
        view = GroupView(("x", "y"), dict(zip(
            [(3, "a"), (1, "b"), (2, "c"), (0, "a")], states)))
        assert decode_keys(view.key_codes, view.encodings) == view.key_list
        for cluster in ((), ("x",), ("y",)):
            design, = build_view_designs(view, ("mean",), FeaturePlan(),
                                         cluster)
            keys, y, ref = rankref.build_view_design_ref(
                view, "mean", FeaturePlan(), cluster)
            assert list(map(repr, design.keys)) == list(map(repr, keys))
            assert design.design.x.tobytes() == ref.x.tobytes()
            assert design.y.tobytes() == y.tobytes()
            assert list(design.design.sizes) == list(ref.sizes)

    def test_statistic_outside_statistics_rejected(self):
        with pytest.raises(ValueError, match="'count'"):
            RepairPrediction(("mean",),
                             {("a",): {"mean": 1.0, "count": 2.0}})

    def test_custom_repairer_statistic_outside_statistics_rejected(self):
        view = build_view([(5, 2.0, 1.0), (7, 3.0, 1.0)])
        repairer = CustomRepairer(lambda key, state: {"std": 1.0},
                                  statistics=("mean",))
        with pytest.raises(ValueError, match="'std'"):
            repairer.predict(view, (), "mean")


class TestStrictAlignment:
    def test_strict_prediction_raises_on_unknown_key(self):
        prediction = RepairPrediction.from_arrays(
            ("mean",), [("a",)], np.array([[2.0]]))
        with pytest.raises(RepairAlignmentError):
            prediction.expected(("missing",))

    def test_strict_array_form_raises_on_missing_rows(self):
        prediction = RepairPrediction.from_arrays(
            ("mean",), [("a",)], np.array([[2.0]]))
        with pytest.raises(RepairAlignmentError):
            prediction.array_form([("a",), ("missing",)])

    def test_non_strict_logs_and_returns_empty(self, caplog):
        prediction = RepairPrediction(("mean",), {})
        with caplog.at_level("WARNING", logger="repro.core.repair"):
            assert prediction.expected(("nope",)) == {}
        assert any("no entry" in r.message for r in caplog.records)
        state = AggState.of([1.0, 2.0])
        assert prediction.repair_state(("nope",), state) == state

    def test_array_container_asserts_alignment(self):
        with pytest.raises(ValueError):
            RepairPrediction.from_arrays(
                ("mean", "count"), [("a",)], np.array([[1.0]]))

    def test_model_repairer_predictions_are_strict_arrays(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        parallel = cube.parallel_view(("year",), "district")
        pred = ModelRepairer(model="linear").predict(parallel, ("year",),
                                                     "mean")
        assert pred.strict
        assert pred.matrix.shape == (len(parallel.groups), 1)
        assert set(pred.predicted) == set(parallel.groups)

    def test_empty_prediction_scores_as_all_noops(self):
        """Regression: a zero-key non-strict prediction must behave as
        documented (every repair a no-op), not crash the array sweep."""
        view = build_view([(5, 2.0, 1.0), (7, 3.0, 1.0)])
        prediction = RepairPrediction(("count",), {})
        complaint = complaint_for("count", Direction.TOO_LOW)
        assert_exactly_equal(
            score_drilldown(view, prediction, complaint),
            rankref.score_drilldown_ref(view, prediction, complaint))

    def test_nan_prediction_matches_oracle_ordering(self):
        """Regression: a NaN prediction yields a NaN score; the ranking
        (including where the NaN group lands) must match the oracle."""
        nan = float("nan")
        view = build_view([(5, 2.0, 1.0), (7, 3.0, 1.0), (4, 9.0, 1.0)])
        prediction = RepairPrediction(
            ("mean",), {k: {"mean": nan if i == 0 else float(i)}
                        for i, k in enumerate(view.groups)})
        complaint = complaint_for("mean", Direction.TOO_HIGH)
        base_a, scored_a = score_drilldown(view, prediction, complaint)
        base_b, scored_b = rankref.score_drilldown_ref(view, prediction,
                                                       complaint)
        assert base_a == base_b
        assert [g.key for g in scored_a] == [g.key for g in scored_b]
        _, top = score_drilldown(view, prediction, complaint, k=1)
        assert top[0].key == scored_b[0].key

    def test_nan_group_key_lookup(self):
        nan = float("nan")
        prediction = RepairPrediction(("mean",), {(nan,): {"mean": 1.0}})
        assert prediction.expected((nan,)) == {"mean": 1.0}
        assert math.isnan(prediction.keys[0][0])
