"""Tests for feature generation (§3.3) and view designs."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import rankref
from repro.core.rankref import build_view_design_ref
from repro.model import features
from repro.model.features import (AuxiliaryFeature, CustomFeature,
                                  FeatureError, FeaturePlan, LagFeature,
                                  MainEffectFeature, build_view_design)
from repro.relational import dataset_from_chunks
from repro.relational.aggregates import AggState
from repro.relational.cube import Cube, GroupView
from repro.relational.dataset import AuxiliaryDataset, HierarchicalDataset
from repro.relational.delta import Delta
from repro.relational.encoding import EncodingError, factorize
from repro.relational.relation import Relation
from repro.relational.schema import Schema, dimension, measure


@pytest.fixture
def view():
    """A (region, year) view with two regions × three years."""
    groups = {}
    means = {("r1", 2000): 2.0, ("r1", 2001): 4.0, ("r1", 2002): 6.0,
             ("r2", 2000): 10.0, ("r2", 2001): 12.0, ("r2", 2002): 14.0}
    for key, mean in means.items():
        groups[key] = AggState.from_stats(count=5, mean=mean, std=1.0)
    return GroupView(("region", "year"), groups)


class TestMainEffect:
    def test_median_per_value(self, view):
        built = MainEffectFeature("region").build(view, "mean")
        assert built.mapping["r1"] == pytest.approx(4.0)
        assert built.mapping["r2"] == pytest.approx(12.0)

    def test_year_main_effect(self, view):
        built = MainEffectFeature("year").build(view, "mean")
        assert built.mapping[2000] == pytest.approx(6.0)   # median(2, 10)
        assert built.mapping[2002] == pytest.approx(10.0)  # median(6, 14)

    def test_leak_guard_single_group_values(self):
        """Values backed by one group map to the overall median (§3.3.1+)."""
        groups = {("g1",): AggState.from_stats(3, 5.0),
                  ("g2",): AggState.from_stats(3, 9.0),
                  ("g3",): AggState.from_stats(3, 100.0)}
        view = GroupView(("g",), groups)
        built = MainEffectFeature("g").build(view, "mean")
        assert built.mapping["g3"] == pytest.approx(9.0)  # overall median
        assert built.mapping["g1"] == pytest.approx(9.0)

    def test_not_applicable(self, view):
        spec = MainEffectFeature("nope")
        assert not spec.applicable(view)
        with pytest.raises(FeatureError):
            spec.build(view, "mean")


class TestLag:
    def test_previous_year(self, view):
        built = LagFeature("year", lag=1).build(view, "mean")
        # Feature of 2001 = median mean of 2000 groups = median(2,10) = 6.
        assert built.mapping[2001] == pytest.approx(6.0)
        # 2000 has no predecessor: falls back to the overall median.
        assert built.mapping[2000] == pytest.approx(8.0)

    def test_non_numeric_rejected(self):
        groups = {("a",): AggState.from_stats(2, 1.0)}
        view = GroupView(("x",), groups)
        with pytest.raises(FeatureError):
            LagFeature("x").build(view, "mean")


#: Target means with ties, signed zeros and extremes: the shared value
#: sort must order them exactly as ``statistics.median``'s ``sorted``.
MEAN_POOL = [0.0, -0.0, 1.5, -2.25, 3.0, 3.0, 1e300, -1e300, 7.0]


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@st.composite
def median_views(draw):
    """A hand-built (a, year) view whose means may repeat, be ±0 or NaN."""
    n_a = draw(st.integers(1, 4))
    n_year = draw(st.integers(1, 5))
    cells = [(f"a{i}", 2000 + j) for i in range(n_a) for j in range(n_year)]
    keys = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=20,
                         unique=True))
    nan = draw(st.booleans())
    groups = {}
    for key in keys:
        mean = draw(st.sampled_from(MEAN_POOL + ([float("nan")] if nan
                                                 else [])))
        groups[key] = AggState(count=1.0, total=mean, sumsq=0.0)
    return GroupView(("a", "year"), groups)


class TestSharedValueSort:
    """Per-value and overall medians from one value sort ≡ the frozen
    ``statistics.median`` loops of :mod:`repro.core.rankref`."""

    @given(median_views(), st.sampled_from(["a", "year"]),
           st.integers(1, 3))
    def test_main_effect_matches_median_loop(self, view, attr, min_groups):
        spec = MainEffectFeature(attr, min_groups=min_groups)
        built = spec.build(view, "mean")
        ref = rankref._build_main_effect(spec, view, "mean")
        assert _bits(built.default) == _bits(ref.default)
        assert type(built.default) is float
        for value, want in ref.mapping.items():
            assert _bits(built.mapping[value]) == _bits(want), value

    @given(median_views(), st.integers(1, 2))
    def test_lag_matches_median_loop(self, view, lag):
        spec = LagFeature("year", lag=lag)
        built = spec.build(view, "mean")
        ref = rankref._build_lag(spec, view, "mean")
        assert _bits(built.default) == _bits(ref.default)
        assert set(built.mapping) == set(ref.mapping)
        for value, want in ref.mapping.items():
            assert _bits(built.mapping[value]) == _bits(want), value


class TestAuxiliary:
    @pytest.fixture
    def aux(self):
        rel = Relation.from_rows(
            Schema([dimension("region"), measure("rain")]),
            [("r1", 100.0), ("r2", 300.0)])
        return AuxiliaryDataset("sense", rel, join_on=("region",),
                                measures=("rain",))

    def test_builds_mapping(self, view, aux):
        built = AuxiliaryFeature(aux, "rain").build(view, "mean")
        assert built.mapping["r1"] == 100.0
        assert built.name == "aux:sense.rain"

    def test_applicability(self, view, aux):
        assert AuxiliaryFeature(aux, "rain").applicable(view)
        small = GroupView(("year",), {})
        assert not AuxiliaryFeature(aux, "rain").applicable(small)

    def test_unknown_measure(self, view, aux):
        with pytest.raises(FeatureError):
            AuxiliaryFeature(aux, "zzz").build(view, "mean")

    def test_multi_attribute_join(self, view):
        rel = Relation.from_rows(
            Schema([dimension("region"), dimension("year"), measure("m")]),
            [("r1", 2000, 7.0), ("r2", 2002, 9.0)])
        aux = AuxiliaryDataset("multi", rel, join_on=("region", "year"),
                               measures=("m",))
        built = AuxiliaryFeature(aux, "m").build(view, "mean")
        assert built.value_for(view.group_attrs, ("r1", 2000)) == 7.0
        # Missing keys fall back to the default (median of known values).
        assert built.value_for(view.group_attrs, ("r1", 2001)) == \
            pytest.approx(8.0)


class TestCustom:
    def test_builder_receives_view(self, view):
        def builder(v, target):
            return {k[0]: 1.0 for k in v.groups}

        spec = CustomFeature("const", ("region",), builder)
        built = spec.build(view, "mean")
        assert built.mapping == {"r1": 1.0, "r2": 1.0}


class TestFeaturePlan:
    def test_default_builds_main_effects(self, view):
        fs = FeaturePlan().build(view, "mean")
        assert fs.column_names == ["intercept", "main:region", "main:year"]

    def test_extra_specs_appended(self, view):
        plan = FeaturePlan(extra_specs=[LagFeature("year")])
        fs = plan.build(view, "mean")
        assert "lag1:year" in fs.column_names

    def test_explicit_specs_replace_defaults(self, view):
        plan = FeaturePlan(specs=[MainEffectFeature("year")])
        fs = plan.build(view, "mean")
        assert fs.column_names == ["intercept", "main:year"]

    def test_inapplicable_specs_skipped(self, view):
        plan = FeaturePlan(extra_specs=[MainEffectFeature("village")])
        fs = plan.build(view, "mean")
        assert "main:village" not in fs.column_names

    def test_standardization(self, view):
        fs = FeaturePlan(standardize=True).build(view, "mean")
        keys = list(view.groups)
        x = fs.design_rows(keys)
        np.testing.assert_allclose(x[:, 1].mean(), 0.0, atol=1e-9)
        np.testing.assert_allclose(x[:, 1].std(), 1.0, atol=1e-9)

    def test_random_effects_selection(self, view):
        plan = FeaturePlan(random_effects=("intercept", "main:region"))
        fs = plan.build(view, "mean")
        assert fs.z_indices() == [0, 1]

    def test_unknown_random_effect(self, view):
        plan = FeaturePlan(random_effects=("nope",))
        fs = plan.build(view, "mean")
        with pytest.raises(FeatureError):
            fs.z_indices()


class TestViewDesign:
    def test_clusters_are_contiguous(self, view):
        vd = build_view_design(view, "mean", FeaturePlan(),
                               cluster_attrs=("region",))
        regions = [k[0] for k in vd.keys]
        assert regions == sorted(regions)
        np.testing.assert_array_equal(vd.design.sizes, [3, 3])

    def test_y_alignment(self, view):
        vd = build_view_design(view, "mean", FeaturePlan(),
                               cluster_attrs=("region",))
        for key, i in vd.row_of.items():
            assert vd.y[i] == pytest.approx(view.groups[key].mean)

    def test_unknown_cluster_attr(self, view):
        with pytest.raises(FeatureError):
            build_view_design(view, "mean", FeaturePlan(),
                              cluster_attrs=("zzz",))

    def test_empty_view_rejected(self):
        empty = GroupView(("a",), {})
        with pytest.raises(FeatureError):
            build_view_design(empty, "mean", FeaturePlan(), cluster_attrs=())

    def test_integration_with_cube(self, ofla_dataset):
        view = Cube(ofla_dataset).view(("district", "village"))
        vd = build_view_design(view, "mean", FeaturePlan(),
                               cluster_attrs=("district",))
        assert vd.design.n == len(view)
        assert vd.design.m == 3  # intercept + 2 main effects


# -- design sorts vs the Python-sort oracle -----------------------------------

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
NAN = float("nan")

#: Rows that are always present, so every hierarchy has at least two
#: levels' worth of structure.
BASE_ROWS = [("d0", "d0-v0", 2000, 1.0), ("d0", "d0-v1", 2001, 3.5),
             ("d1", "d1-v0", 2000, 2.0), ("d1", "d1-v1", 2001, 0.5)]


def _dataset(rows) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


class TestDesignProducts:
    def test_chunk_streamed_design_matches_python_sort_oracle(self):
        """Chunk-streamed domains (unsorted) take the lexsort over their
        ``ranks()``; the design must equal the frozen Python-sort oracle
        exactly."""
        # The second chunk introduces values that sort *before* the
        # first chunk's (extend_domain appends, so the union domain
        # comes out unsorted).
        chunks = [
            {"district": np.array(["d2", "d2", "d1", "d1"]),
             "village": np.array(["d2-v1", "d2-v0", "d1-v0", "d1-v1"]),
             "year": np.array([2001, 2000, 2001, 2000]),
             "sev": np.array([2.0, 1.5, 0.5, 3.0])},
            {"district": np.array(["d0", "d1", "d0"]),
             "village": np.array(["d0-v1", "d1-v1", "d0-v0"]),
             "year": np.array([2000, 2001, 2000]),
             "sev": np.array([1.0, 2.5, 4.0])},
        ]
        dataset = dataset_from_chunks(chunks, HIERARCHIES, "sev")
        cube = Cube(dataset)
        view = cube.view(("district", "village"))
        enc = view.encodings[0]
        assert not enc.domain_sorted  # the path under test
        vd = build_view_design(view, "mean", FeaturePlan(), ("district",))
        ref_keys, ref_y, ref_design = build_view_design_ref(
            view, "mean", FeaturePlan(), ("district",))
        assert vd.keys == ref_keys
        assert np.array_equal(vd.design.x, ref_design.x)
        assert np.array_equal(vd.y, ref_y)
        assert list(vd.design.sizes) == list(ref_design.sizes)

    def test_nan_domain_design_matches_python_sort_oracle(self):
        """A NaN village is refused where the relation is built, so no
        design sorts one; a grown domain (an ingested village that sorts
        first) ranks and matches the oracle."""
        rows = BASE_ROWS + [("d2", NAN, 2000, 2.0), ("d2", NAN, 2001, 4.0)]
        with pytest.raises(EncodingError, match="'village'"):
            _dataset(rows)
        cube = Cube(_dataset(BASE_ROWS))
        cube.apply_delta(Delta.from_rows(SCHEMA, [("d2", "a-v0", 2000, 2.0),
                                                  ("d2", "a-v0", 2001, 4.0)]))
        view = cube.view(("district", "village"))
        assert not view.encodings[1].domain_sorted  # the path under test
        vd = build_view_design(view, "mean", FeaturePlan(), ("district",))
        ref_keys, ref_y, ref_design = build_view_design_ref(
            view, "mean", FeaturePlan(), ("district",))
        assert vd.keys == ref_keys
        assert np.array_equal(vd.design.x, ref_design.x)
        assert np.array_equal(vd.y, ref_y)


#: Domain values for the rank-table property: one key cell type per
#: domain — ints, floats (a signed zero, huge and tiny), bools, strings.
RANK_VALUES = st.sampled_from([
    st.integers(-5, 5), st.sampled_from([0.5, -0.0, 2.0, -3.5, 1e9]),
    st.booleans(), st.sampled_from(["a", "b", "zz", "", "\x00"])])
TOTAL_RANK_VALUES = st.sampled_from([
    st.integers(-50, 50), st.sampled_from([0.5, 2.0, -3.5, 1e9, 7.25]),
    st.text("abc", max_size=3)])


class TestDomainRankGrowth:
    """A grown domain's rank table, one argsort memoized on the
    encoding, equals a full re-sort of the domain."""

    @pytest.mark.parametrize("values", [RANK_VALUES, TOTAL_RANK_VALUES],
                             ids=["mixed", "total"])
    @given(data=st.data())
    def test_extended_ranks_equal_full_resort(self, values, data):
        cells = data.draw(values)
        first = data.draw(st.lists(cells, min_size=1, max_size=12))
        deltas = data.draw(st.lists(st.lists(cells, max_size=4),
                                    min_size=1, max_size=3))
        enc = factorize(list(first))
        for delta in deltas:
            enc, _ = enc.extend_domain(delta)
            order = sorted(range(enc.cardinality),
                           key=enc.domain.__getitem__)
            want = np.empty(enc.cardinality, dtype=np.int64)
            want[order] = np.arange(enc.cardinality)
            assert enc.ranks().tolist() == want.tolist()

    def test_growth_extends_without_full_sort(self, monkeypatch):
        """An extension that adds no value keeps the encoding object, and
        with it the memoized ranks: no ingest into existing leaves
        re-sorts a domain. A new value sorts once."""
        enc, _ = factorize(["v3", "v1", "v2"]).extend_domain(["v0"])
        ranks = enc.ranks()
        assert ranks.tolist() == [1, 2, 3, 0]
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: calls.append(1) or argsort(*a, **k))
        same, codes = enc.extend_domain(["v1", "v0"])
        assert same is enc and same.ranks() is ranks
        assert codes.tolist() == [0, 3] and calls == []
        grown, _ = enc.extend_domain(["v9", "v00"])
        assert grown.ranks().tolist() == [2, 3, 4, 0, 5, 1]
        assert calls == [1]
