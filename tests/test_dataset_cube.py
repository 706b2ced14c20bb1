"""Tests for HierarchicalDataset, AuxiliaryDataset and the roll-up Cube."""

import numpy as np
import pytest

from repro.relational.aggregates import AggState
from repro.relational.cube import Cube
from repro.relational.dataset import (AuxiliaryDataset, DatasetError,
                                      HierarchicalDataset)
from repro.relational.relation import Relation
from repro.relational.shard import dataset_from_chunks
from repro.relational.schema import Schema, SchemaError, dimension, measure


class TestDataset:
    def test_build_validates_fds(self):
        rel = Relation.from_rows(
            Schema([dimension("d"), dimension("v"), measure("x")]),
            [("d1", "v1", 1.0), ("d2", "v1", 2.0)])
        with pytest.raises(DatasetError):
            HierarchicalDataset.build(rel, {"geo": ["d", "v"]}, "x")
        # validate=False skips the check (used by error injectors).
        HierarchicalDataset.build(rel, {"geo": ["d", "v"]}, "x",
                                  validate=False)

    def test_missing_measure(self, tiny_relation):
        with pytest.raises(DatasetError):
            HierarchicalDataset.build(tiny_relation, {"h": ["a"]}, "zzz")

    def test_missing_hierarchy_attr(self, tiny_relation):
        with pytest.raises(DatasetError):
            HierarchicalDataset.build(tiny_relation, {"h": ["zzz"]}, "x")

    def test_attribute_domain(self, ofla_dataset):
        assert ofla_dataset.attribute_domain("district") == ["Alaje", "Ofla"]

    def test_attribute_domain_of_filtered_relation(self, ofla_dataset):
        # A derived relation shares (wider) encoding domains; the dataset
        # must report only the values actually present in its rows.
        sub = ofla_dataset.relation.filter_equals({"district": "Ofla"})
        dataset = HierarchicalDataset.build(
            sub, {"geo": ["district", "village"], "time": ["year"]},
            "severity", validate=False)
        assert dataset.attribute_domain("district") == ["Ofla"]

    def test_fd_validation_on_filtered_relation(self):
        # The FD violation (v1 maps to d1 and d2) must still be caught on
        # a derived relation whose shared village domain is wider than
        # the villages present in its rows.
        rel = Relation.from_rows(
            Schema([dimension("d"), dimension("v"), dimension("keep"),
                    measure("x")]),
            [("d1", "v1", 1, 1.0), ("d2", "v1", 1, 2.0),
             ("d1", "v2", 1, 3.0), ("d1", "v3", 1, 4.0),
             ("d1", "v4", 1, 5.0), ("d1", "v5", 0, 6.0)])
        sub = rel.filter_equals({"keep": 1})  # v5 absent, domain keeps it
        with pytest.raises(DatasetError):
            HierarchicalDataset.build(sub, {"geo": ["d", "v"]}, "x")

    def test_leaf_group_by(self, ofla_dataset):
        assert ofla_dataset.leaf_group_by() == ("district", "village", "year")


#: Measure cells registration rejects, as ingest rejects them in appends
#: (a huge finite cell passes MEASURE_LIMIT).
BAD_MEASURE_CELLS = {"nan": float("nan"), "+inf": float("inf"),
                     "-inf": float("-inf"), "non-numeric": "high",
                     "+huge": 1.7e308, "-huge": -1.7e308}
GEO = {"geo": ["d", "v"]}


class TestMeasureCells:
    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("cell", sorted(BAD_MEASURE_CELLS))
    def test_build_rejects_bad_measure_cell(self, cell, validate):
        schema = Schema([dimension("d"), dimension("v"), measure("x")])
        rows = [("d1", "v1", 1.0), ("d1", "v2", BAD_MEASURE_CELLS[cell]),
                ("d2", "v3", 3.0)]
        if cell == "non-numeric":  # refused where the relation is built
            with pytest.raises(SchemaError, match="measure 'x'"):
                Relation.from_rows(schema, rows)
            return
        rel = Relation.from_rows(schema, rows)
        with pytest.raises(DatasetError, match="measure 'x'"):
            HierarchicalDataset.build(rel, GEO, "x", validate=validate)

    @pytest.mark.parametrize("cell", sorted(BAD_MEASURE_CELLS))
    def test_chunks_reject_bad_measure_cell(self, cell):
        chunks = [{"d": np.array(["d1", "d1"]), "v": np.array(["v1", "v2"]),
                   "x": np.array([1.0, 2.0])},
                  {"d": np.array(["d2"]), "v": np.array(["v3"]),
                   "x": np.array([BAD_MEASURE_CELLS[cell]], dtype=object)}]
        with pytest.raises(DatasetError, match="measure 'x'"):
            dataset_from_chunks(chunks, GEO, "x")


class TestAuxiliary:
    @pytest.fixture
    def aux(self):
        rel = Relation.from_rows(
            Schema([dimension("village"), measure("rain")]),
            [("Adishim", 100.0), ("Darube", 600.0), ("Darube", 700.0)])
        return AuxiliaryDataset("sensing", rel, join_on=("village",),
                                measures=("rain",))

    def test_lookup_averages_duplicates(self, aux):
        lookup = aux.lookup()
        assert lookup[("Adishim",)]["rain"] == 100.0
        assert lookup[("Darube",)]["rain"] == pytest.approx(650.0)

    def test_registration(self, ofla_dataset, aux):
        ofla_dataset.add_auxiliary(aux)
        assert "sensing" in ofla_dataset.auxiliary
        with pytest.raises(DatasetError):
            ofla_dataset.add_auxiliary(aux)  # duplicate name

    def test_applicability(self, ofla_dataset, aux):
        ofla_dataset.add_auxiliary(aux)
        assert ofla_dataset.applicable_auxiliary(("district", "village")) \
            == [aux]
        assert ofla_dataset.applicable_auxiliary(("district",)) == []

    def test_join_key_must_be_dimension(self, ofla_dataset):
        rel = Relation.from_rows(Schema([dimension("nope"), measure("m")]),
                                 [("x", 1.0)])
        bad = AuxiliaryDataset("bad", rel, join_on=("nope",), measures=("m",))
        with pytest.raises(DatasetError):
            ofla_dataset.add_auxiliary(bad)

    def test_missing_attrs_in_aux_relation(self):
        rel = Relation.from_rows(Schema([dimension("v")]), [("x",)])
        with pytest.raises(DatasetError):
            AuxiliaryDataset("bad", rel, join_on=("v",), measures=("gone",))


class TestCube:
    def test_leaf_states_match_direct_groupby(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        rel = ofla_dataset.relation
        grouped = rel.group_measure(["district", "village", "year"],
                                    "severity")
        assert len(cube.leaf_states) == len(grouped)
        for key, values in grouped.items():
            state = cube.leaf_states[key]
            assert state.count == len(values)
            assert state.mean == pytest.approx(np.mean(values))

    def test_rollup_equals_direct(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        view = cube.view(("district", "year"))
        rel = ofla_dataset.relation
        for key, values in rel.group_measure(["district", "year"],
                                             "severity").items():
            assert view.state(key).count == len(values)
            assert view.state(key).mean == pytest.approx(np.mean(values))
            assert view.state(key).std == pytest.approx(
                np.std(values, ddof=1))

    def test_view_filters_are_provenance(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        view = cube.view(("village",), filters={"district": "Ofla",
                                                "year": 1986})
        rel = ofla_dataset.relation.filter_equals({"district": "Ofla",
                                                   "year": 1986})
        assert set(view.groups) == set(rel.key_tuples(["village"]))

    def test_total_equals_parent(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        view = cube.view(("village",), filters={"district": "Ofla"})
        direct = AggState.of(
            ofla_dataset.relation.filter_equals({"district": "Ofla"})
            .measure_array("severity"))
        total = view.total()
        assert total.count == direct.count
        assert total.mean == pytest.approx(direct.mean)
        assert total.std == pytest.approx(direct.std)

    def test_drilldown_view(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        drill = cube.drilldown_view(("year",), "village",
                                    {"district": "Ofla", "year": 1986})
        assert drill.group_attrs == ("year", "village")
        # Only Ofla 1986 provenance.
        years = {k[0] for k in drill.groups}
        assert years == {1986}

    def test_parallel_view_covers_everything(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        parallel = cube.parallel_view(("year",), "village")
        drill = cube.drilldown_view(("year",), "village",
                                    {"district": "Ofla", "year": 1986})
        assert set(drill.groups) <= set(parallel.groups)
        assert len(parallel) > len(drill)

    def test_group_state(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        state = cube.group_state({"district": "Ofla", "year": 1986})
        rel = ofla_dataset.relation.filter_equals({"district": "Ofla",
                                                   "year": 1986})
        assert state.count == len(rel)

    def test_keys_matching_and_coordinates(self, ofla_dataset):
        view = Cube(ofla_dataset).view(("district", "year"))
        keys = view.keys_matching({"district": "Ofla"})
        assert all(k[0] == "Ofla" for k in keys)
        coords = view.coordinates(keys[0])
        assert coords["district"] == "Ofla"

    def test_missing_group_is_empty_state(self, ofla_dataset):
        view = Cube(ofla_dataset).view(("district",))
        assert view.state(("Atlantis",)).is_empty()
