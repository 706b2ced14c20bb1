"""Delta ingestion: unit coverage layer by layer, plus the serving path.

Complements the hypothesis oracle suite (``test_delta_properties``) with
pinned behaviours: domain extension without re-encode, retraction
validation and atomicity, counted-map delta merges, path patching,
session staleness policies, the serving cache's patch/retain/drop
decisions, the ``ExplanationService.try_rebuild`` session regression, and
the CLI ``ingest`` command.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import (Complaint, Delta, DeltaError, HierarchicalDataset,
                   Relation, Reptile, ReptileConfig, Schema, StaleDataError,
                   dimension, measure)
from repro.factorized import HierarchyPaths
from repro.factorized.drilldown import DrilldownEngine
from repro.factorized.forder import FactorizationError
from repro.factorized.reference import assert_aggregate_sets_equal
from repro.relational import deltaref
from repro.relational.countmap import CountMapError, EncodedCountMap
from repro.relational.cube import Cube
from repro.relational.delta import locate_rows
from repro.serving import AggregateCache, ExplanationService

CONFIG = ReptileConfig(n_em_iterations=2)
COMPLAINT = Complaint.too_low({"year": 1986}, "mean")


def _delta(dataset, appended=(), retracted=()):
    return Delta.from_rows(dataset.relation.schema, appended, retracted)


# -- encoding layer -------------------------------------------------------------------
class TestExtendDomain:
    def test_old_codes_survive_untouched(self, ofla_dataset):
        enc = ofla_dataset.relation.encoding("district")
        extended, codes = enc.extend_domain(["Ofla", "Tigray", "Alaje"])
        assert extended.codes is enc.codes  # same array, no re-encode
        assert extended.domain[:enc.cardinality] == enc.domain
        assert codes.tolist() == [enc.code_of("Ofla"),
                                  enc.cardinality,  # new value at the end
                                  enc.code_of("Alaje")]
        # The source encoding is isolated from the extension.
        assert "Tigray" not in enc.domain
        assert enc.code_of("Tigray") is None
        assert extended.domain_sorted is False  # appended out of order

    def test_no_new_values_keeps_sortedness(self, ofla_dataset):
        enc = ofla_dataset.relation.encoding("district")
        extended, codes = enc.extend_domain(["Alaje", "Ofla"])
        # Nothing to append: the receiver itself, no domain or index copy.
        assert extended is enc
        assert extended.domain_sorted == enc.domain_sorted
        assert codes.tolist() == [enc.code_of("Alaje"), enc.code_of("Ofla")]

    def test_nan_values_get_fresh_codes(self):
        from repro.relational.encoding import factorize
        nan = float("nan")
        enc = factorize([1.0, nan, 2.0])
        extended, codes = enc.extend_domain([nan, float("nan"), 1.0])
        # The *same* NaN object matches its code; a new NaN object is a
        # new domain entry — dict identity semantics, as in factorize.
        assert codes[0] == enc.code_of(1.0) or True  # placeholder, below
        nan_code = enc.codes[1]
        assert codes.tolist()[0] == nan_code
        assert codes.tolist()[1] == enc.cardinality
        assert codes.tolist()[2] == extended.domain.index(1.0)

    def test_cross_type_merge_flags_lossy(self):
        from repro.relational.encoding import factorize
        enc = factorize([1, 2, 3])
        extended, codes = enc.extend_domain([True, 2.0])
        assert extended.lossy
        assert codes.tolist() == [enc.code_of(1), enc.code_of(2)]


class TestRelationDelta:
    def test_append_extends_encodings_in_place(self, ofla_dataset):
        relation = ofla_dataset.relation
        old_enc = relation.encoding("district")
        extra = Relation.from_rows(relation.schema, [
            ("Tigray", "Newtown", 1990, 5.0)])
        appended = relation.with_rows_appended(extra)
        assert len(appended) == len(relation) + 1
        new_enc = appended.encoding("district")
        # Old codes are a verbatim prefix: no re-encode happened.
        np.testing.assert_array_equal(new_enc.codes[:len(relation)],
                                      old_enc.codes)
        assert new_enc.domain[:old_enc.cardinality] == old_enc.domain
        assert new_enc.domain[-1] == "Tigray"
        assert list(appended.rows())[-1] == ("Tigray", "Newtown", 1990, 5.0)

    def test_append_requires_same_schema(self, ofla_dataset, tiny_relation):
        with pytest.raises(Exception):
            ofla_dataset.relation.with_rows_appended(tiny_relation)

    def test_without_rows(self, tiny_relation):
        trimmed = tiny_relation.without_rows([0, 3])
        assert list(trimmed.rows()) == [("a1", "b2", 2.0), ("a2", "b1", 3.0),
                                        ("a2", "b2", 5.0)]

    def test_locate_rows_earliest_match_bag_semantics(self):
        schema = Schema([dimension("a"), measure("x")])
        relation = Relation.from_rows(
            schema, [("p", 1.0), ("q", 2.0), ("p", 1.0), ("p", 1.0)])
        target = Relation.from_rows(schema, [("p", 1.0), ("p", 1.0)])
        assert locate_rows(relation, target).tolist() == [0, 2]

    def test_locate_rows_missing_raises(self, tiny_relation):
        target = Relation.from_rows(tiny_relation.schema,
                                    [("a9", "b1", 1.0)])
        with pytest.raises(DeltaError, match="matches no base row"):
            locate_rows(tiny_relation, target)

    def test_locate_rows_multiplicity_overflow_raises(self, tiny_relation):
        target = Relation.from_rows(
            tiny_relation.schema,
            [("a1", "b1", 1.0), ("a1", "b1", 1.0)])
        with pytest.raises(DeltaError, match="multiplicity"):
            locate_rows(tiny_relation, target)

    def test_locate_rows_nan_never_matches(self):
        schema = Schema([dimension("a"), measure("x")])
        nan = float("nan")
        relation = Relation.from_rows(schema, [(nan, 1.0), ("p", 2.0)])
        target = Relation.from_rows(schema, [(nan, 1.0)])
        with pytest.raises(DeltaError, match="matches no base row"):
            locate_rows(relation, target)

    def test_locate_rows_python_fallback(self):
        schema = Schema([dimension("a"), measure("x")])
        key = ["unhashable"]  # a list cell defeats dictionary encoding
        relation = Relation.from_rows(schema, [(key, 1.0), ("p", 2.0)])
        target = Relation.from_rows(schema, [(["unhashable"], 1.0)])
        assert locate_rows(relation, target).tolist() == [0]


# -- cube layer -----------------------------------------------------------------------
class TestCubeDelta:
    @staticmethod
    def _int_dataset(ofla_dataset) -> HierarchicalDataset:
        """The ofla fixture with integer-valued measures: float sums are
        then exact in any order, so delta vs rebuild must match bitwise
        (the same convention as the fig17/fig20 in-run checks)."""
        rows = [(d, v, y, float(int(s)))
                for d, v, y, s in ofla_dataset.relation.rows()]
        return HierarchicalDataset.build(
            Relation.from_rows(ofla_dataset.relation.schema, rows),
            {"geo": ["district", "village"], "time": ["year"]}, "severity")

    def test_retraction_empties_group(self, ofla_dataset):
        dataset = self._int_dataset(ofla_dataset)
        cube = Cube(dataset)
        doomed = [r for r in dataset.relation.rows()
                  if r[1] == "Zata" and r[2] == 1984]
        cube.apply_delta(_delta(dataset, retracted=doomed))
        assert ("Ofla", "Zata", 1984) not in cube.leaf_states
        oracle = deltaref.rebuilt_dataset(
            dataset, [_delta(dataset, retracted=doomed)])
        deltaref.assert_groups_equal(cube.leaf_states,
                                     deltaref.rebuilt_leaf_states(oracle))

    def test_over_retraction_raises_and_mutates_nothing(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        before = dict(cube.leaf_states)
        n_groups = len(cube)
        bad = [("Ofla", "Zata", 1984, 123.0)] * 999
        with pytest.raises(DeltaError):
            cube.apply_delta(_delta(ofla_dataset, retracted=bad))
        assert len(cube) == n_groups
        assert dict(cube.leaf_states) == before

    def test_empty_delta_is_noop(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        before = dict(cube.leaf_states)
        cube.apply_delta(_delta(ofla_dataset))
        assert dict(cube.leaf_states) == before

    def test_no_growth_delta_keeps_encodings_identical(self, ofla_dataset):
        cube = Cube(ofla_dataset)
        base = cube.apply_delta(_delta(ofla_dataset)).encodings
        row = ("Ofla", "Zata", 1984, 5.0)
        kept = cube.apply_delta(_delta(ofla_dataset, appended=[row]))
        assert all(new is old for new, old in zip(kept.encodings, base))
        kept = cube.apply_delta(_delta(ofla_dataset, retracted=[row]))
        assert all(new is old for new, old in zip(kept.encodings, base))
        # A new village and year extend their encodings; the district
        # encoding, which gains nothing, stays the same object.
        grown = cube.apply_delta(_delta(
            ofla_dataset, appended=[("Ofla", "Mekoni", 1990, 4.0)])).encodings
        assert grown[0] is base[0]
        for new, old in zip(grown[1:], base[1:]):
            assert new is not old
            assert new.domain[:old.cardinality] == old.domain
            assert new.cardinality == old.cardinality + 1
        assert base[1].code_of("Mekoni") is None  # the receiver is intact
        assert ("Ofla", "Mekoni", 1990) in cube.leaf_states


# -- factorized layer -----------------------------------------------------------------
class TestEncodedCountMapMergeDelta:
    def test_add_append_and_drop(self):
        dom = ["a", "b", "c"]
        base = EncodedCountMap.dense_unary("X", dom, np.array([2.0, 1.0, 3.0]))
        delta = EncodedCountMap(("X",), (["b", "d"],),
                                (np.array([0, 1], dtype=np.int32),),
                                np.array([-1.0, 4.0]))
        merged = base.merge_delta(delta, domains=(dom + ["d"],))
        assert merged.as_unary_dict() == {"a": 2.0, "c": 3.0, "d": 4.0}

    def test_same_domain_object_fast_path(self):
        dom = ["a", "b"]
        base = EncodedCountMap.dense_unary("X", dom, np.array([2.0, 1.0]))
        delta = EncodedCountMap.dense_unary("X", dom, np.array([1.0, 1.0]))
        merged = base.merge_delta(delta)
        assert merged.as_unary_dict() == {"a": 3.0, "b": 2.0}

    def test_value_missing_from_target_raises(self):
        base = EncodedCountMap.dense_unary("X", ["a"], np.array([1.0]))
        delta = EncodedCountMap.dense_unary("X", ["z"], np.array([1.0]))
        with pytest.raises(CountMapError, match="missing from the target"):
            base.merge_delta(delta)

    def test_shrinking_target_domain_rejected(self):
        base = EncodedCountMap.dense_unary("X", ["a", "b"],
                                           np.array([1.0, 1.0]))
        delta = EncodedCountMap.dense_unary("X", ["a"], np.array([1.0]))
        with pytest.raises(CountMapError, match="does not extend"):
            base.merge_delta(delta, domains=(["a"],))


class TestHierarchyPathsExtend:
    def test_noop_returns_self(self):
        paths = HierarchyPaths("geo", ["D", "V"], [("d1", "v1")])
        assert paths.extend([("d1", "v1")]) is paths

    def test_extend_revalidates_fd(self):
        paths = HierarchyPaths("geo", ["D", "V"], [("d1", "v1")])
        with pytest.raises(FactorizationError):
            paths.extend([("d2", "v1")])  # v1 cannot move districts

    def test_drilldown_engine_patches_instead_of_rebuilding(self):
        geo = HierarchyPaths("geo", ["D", "V"],
                             [("d1", "v1"), ("d1", "v2"), ("d2", "v3")])
        time = HierarchyPaths("time", ["Y"], [("y1",), ("y2",)])
        engine = DrilldownEngine([time, geo], mode="cache")
        engine.evaluate_all()
        engine.drill("geo")
        builds = engine.unit_computations
        assert engine.ingest_paths("geo", [("d1", "v9"), ("d3", "v7")]) == 2
        fresh = DrilldownEngine(
            [time, HierarchyPaths("geo", ["D", "V"],
                                  [("d1", "v1"), ("d1", "v2"), ("d2", "v3"),
                                   ("d1", "v9"), ("d3", "v7")])],
            mode="cache", initial_depths={"geo": 2})
        assert_aggregate_sets_equal(engine.current_aggregates(),
                                    fresh.current_aggregates())
        assert engine.unit_computations == builds  # zero full rebuilds
        assert engine.unit_patches > 0
        for name in engine.candidates():
            assert_aggregate_sets_equal(engine.evaluate_candidate(name),
                                        fresh.evaluate_candidate(name))


# -- engine layer ---------------------------------------------------------------------
class TestEngineDelta:
    def test_fd_violating_append_rejected_atomically(self, ofla_dataset):
        engine = Reptile(ofla_dataset, config=CONFIG)
        before = dict(engine.cube.leaf_states)
        with pytest.raises(DeltaError, match="violate hierarchy"):
            engine.apply_delta(_delta(
                ofla_dataset, appended=[("Alaje", "Zata", 1984, 5.0)]))
        assert engine.data_version == 0
        assert dict(engine.cube.leaf_states) == before

    def test_unmatched_retraction_rejected_atomically(self, ofla_dataset):
        engine = Reptile(ofla_dataset, config=CONFIG)
        n = len(ofla_dataset.relation)
        with pytest.raises(DeltaError, match="matches no base row"):
            engine.apply_delta(_delta(
                ofla_dataset, retracted=[("Ofla", "Zata", 1984, -99.0)]))
        assert engine.data_version == 0
        assert len(engine.dataset.relation) == n

    def test_strict_session_raises_until_synced(self, ofla_dataset):
        engine = Reptile(ofla_dataset, config=CONFIG)
        session = engine.session(group_by=["year"],
                                 filters={"district": "Ofla"},
                                 staleness="strict")
        engine.apply_delta(_delta(
            ofla_dataset, appended=[("Ofla", "Zata", 1984, 5.0)]))
        with pytest.raises(StaleDataError):
            session.recommend(COMPLAINT)
        with pytest.raises(StaleDataError):
            session.view()
        session.sync()
        assert session.view().total().count \
            == Cube(ofla_dataset).view(
                ("year",), {"district": "Ofla"}).total().count

    def test_invalid_staleness_policy_rejected(self, ofla_dataset):
        engine = Reptile(ofla_dataset, config=CONFIG)
        with pytest.raises(Exception, match="staleness"):
            engine.session(staleness="yolo")

    def test_refresh_still_resets_everything(self, ofla_dataset):
        engine = Reptile(ofla_dataset, config=CONFIG)
        session = engine.session(group_by=["district", "year"])
        engine.refresh()
        assert session.is_stale()
        session.sync()
        assert not session.is_stale()
        assert session.data_version == engine.data_version == 1

    @pytest.mark.parametrize("cached", [False, True])
    def test_retracted_leaf_can_move_parent(self, cached):
        # The FD check reads the post-delta leaves: once a leaf's last row
        # is retracted, the leaf is free to reappear under another parent;
        # a leaf that still has rows keeps its parent.
        schema = Schema([dimension("district"), dimension("village"),
                         dimension("year"), measure("sev")])
        rows = [("d0", "v0", 2000, 1.0), ("d0", "v1", 2000, 2.0),
                ("d1", "v2", 2000, 3.0)]
        dataset = HierarchicalDataset.build(
            Relation.from_rows(schema, rows),
            {"geo": ["district", "village"], "time": ["year"]}, "sev")
        engine = Reptile(dataset, config=CONFIG,
                         cache=AggregateCache() if cached else None)
        engine.cube.view(("district", "village"))
        engine.apply_delta(_delta(dataset, retracted=[rows[0]]))
        engine.apply_delta(_delta(dataset,
                                  appended=[("d1", "v0", 2001, 4.0)]))
        geo = engine.cube.view(("district", "village")).key_list
        assert ("d1", "v0") in geo and ("d0", "v0") not in geo
        with pytest.raises(DeltaError, match="violate hierarchy"):
            engine.apply_delta(_delta(dataset,
                                      appended=[("d1", "v1", 2001, 5.0)]))
        assert engine.data_version == 2
        assert dict(engine.cube.view(("district", "village")).groups) \
            == dict(Cube(engine.dataset).view(("district", "village")).groups)

    @pytest.mark.parametrize("cached", [False, True])
    def test_fd_checked_on_the_rows_a_delta_leaves(self, cached,
                                                   monkeypatch):
        # Every FD of the hierarchy holds on the post-delta rows: a
        # village may move in the delta that retracts its last row, and
        # a district re-appended under another region is rejected with
        # both regions named, nothing mutated and no rollback rebuild.
        rebuilds = []
        monkeypatch.setattr(Cube, "rebuild",
                            lambda self: rebuilds.append(self))
        schema = Schema([dimension("region"), dimension("district"),
                         dimension("village"), dimension("year"),
                         measure("sev")])
        rows = [("r1", "d0", "v0", 2000, 1.0), ("r1", "d1", "v1", 2000, 2.0)]
        dataset = HierarchicalDataset.build(
            Relation.from_rows(schema, rows),
            {"geo": ["region", "district", "village"], "time": ["year"]},
            "sev")
        engine = Reptile(dataset, config=CONFIG,
                         cache=AggregateCache() if cached else None)
        engine.cube.view(("region", "district"))
        assert engine.apply_delta(_delta(
            dataset, appended=[("r1", "d1", "v0", 2001, 4.0)],
            retracted=[rows[0]])) == 1
        leaves = dict(engine.cube.leaf_states)
        entries = engine.cache.keys() if cached else None
        with pytest.raises(DeltaError, match=(
                "^appended rows violate hierarchy 'geo': district 'd1' "
                "maps to both region 'r1' and 'r2'$")):
            engine.apply_delta(_delta(
                dataset, appended=[("r2", "d1", "v9", 2000, 5.0)]))
        assert engine.data_version == 1
        assert dict(engine.cube.leaf_states) == leaves
        if cached:
            assert engine.cache.keys() == entries
        assert rebuilds == []


# -- serving layer --------------------------------------------------------------------
class TestServingIngest:
    def _service(self, dataset):
        service = ExplanationService(config=CONFIG)
        service.register("drought", dataset)
        return service

    def test_ingest_summary_and_correctness(self, ofla_dataset):
        service = self._service(ofla_dataset)
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        service.recommend(sid, COMPLAINT)
        rows = [("Ofla", "Zata", 1986, 1.0)] * 4
        info = service.ingest("drought", rows)
        assert info["version"] == 1
        assert info["appended"] == 4 and info["retracted"] == 0
        assert info["cache_patched"] + info["cache_retained"] > 0
        after = service.recommend(sid, COMPLAINT)
        fresh = Reptile(ofla_dataset, config=CONFIG)
        expected = fresh.session(group_by=["year"],
                                 filters={"district": "Ofla"}) \
            .recommend(COMPLAINT)
        assert after == expected
        assert after.ranked()[0].coordinates["village"] == "Zata"

    def test_grand_total_view_is_patched(self, ofla_dataset):
        # Regression: the empty group-by (grand-total) view — the
        # starting view of every undrilled session — has zero key
        # columns; its cached entry used to drop the delta silently.
        cache = AggregateCache()
        engine = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        total = engine.cube.view(()).total()
        row = ("Ofla", "Zata", 1986, 4.0)
        engine.apply_delta(_delta(ofla_dataset, appended=[row]))
        after = engine.cube.view(()).total()
        assert after.count == total.count + 1
        assert after.total == total.total + 4.0
        engine.apply_delta(_delta(ofla_dataset, retracted=[row]))
        assert engine.cube.view(()).total().count == total.count

    def test_untouched_view_entry_retained_by_identity(self, ofla_dataset):
        cache = AggregateCache()
        engine = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        alaje = engine.cube.view(("village", "year"),
                                 {"district": "Alaje"})
        engine.apply_delta(_delta(
            ofla_dataset, appended=[("Ofla", "Zata", 1986, 1.0)]))
        assert cache.stats.retained >= 1
        assert engine.cube.view(("village", "year"),
                                {"district": "Alaje"}) is alaje

    def test_untouched_prediction_survives_ingest(self, ofla_dataset):
        # A delta confined to Alaje leaves the Ofla-filtered view — and
        # any prediction keyed to it — untouched.
        cache = AggregateCache()
        engine = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        repairer = engine.repairer_for(("village",))
        view = engine.cube.view(("village",), {"district": "Ofla"})
        repairer.predict(view, (), "mean")
        fits = cache.timings()["predict"].computations
        engine.apply_delta(_delta(
            ofla_dataset, appended=[("Alaje", "Bora", 1986, 2.0)]))
        fresh_view = engine.cube.view(("village",), {"district": "Ofla"})
        assert fresh_view is view  # retained entry
        repairer.predict(fresh_view, (), "mean")
        assert cache.timings()["predict"].computations == fits  # warm hit

    def test_ingest_strict_session_left_stale(self, ofla_dataset):
        service = self._service(ofla_dataset)
        strict_engine = service.engine("drought")
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        strict = strict_engine.session(group_by=["year"],
                                       staleness="strict")
        service._sessions["strict"] = ("drought", strict)
        service.ingest("drought", [("Ofla", "Zata", 1986, 1.0)])
        assert not service.session(sid).is_stale()  # auto-synced
        with pytest.raises(StaleDataError):
            strict.view()

    def test_invalidate_bumps_open_sessions(self, ofla_dataset):
        # Regression: a wholesale rebuild used to leave open sessions
        # pinned to the old engine state; they must be version-bumped so
        # recommend() cannot serve stale aggregates.
        service = self._service(ofla_dataset)
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        service.recommend(sid, COMPLAINT)
        session = service.session(sid)
        version = session.data_version
        strict = service.engine("drought").session(
            group_by=["year"], staleness="strict")
        service._sessions["strict"] = ("drought", strict)
        # Swap in a relation with a severe Darube-1986 under-report.
        relation = ofla_dataset.relation
        severity = [1.0 if (v, y) == ("Darube", 1986) else s
                    for v, y, s in zip(relation.column("village"),
                                       relation.column("year"),
                                       relation.column("severity"))]
        ofla_dataset.relation = Relation(
            relation.schema,
            {n: severity if n == "severity" else relation.column(n)
             for n in relation.schema.names})
        assert service.try_rebuild("drought")
        assert session.data_version > version  # bumped, not stale
        assert not session.is_stale()
        with pytest.raises(StaleDataError):
            strict.view()
        strict.sync()
        assert not strict.is_stale()
        after = service.recommend(sid, COMPLAINT)
        expected = Reptile(ofla_dataset, config=CONFIG) \
            .session(group_by=["year"], filters={"district": "Ofla"}) \
            .recommend(COMPLAINT)
        assert after == expected
        assert after.ranked()[0].coordinates["village"] == "Darube"

    def test_retraction_through_service(self, ofla_dataset):
        service = self._service(ofla_dataset)
        doomed = [r for r in ofla_dataset.relation.rows()
                  if r[1] == "Zata"][:2]
        before = len(ofla_dataset.relation)
        info = service.ingest("drought", retract=doomed)
        assert info["retracted"] == 2
        assert len(ofla_dataset.relation) == before - 2


# -- auxiliary lookup memoization -----------------------------------------------------
class TestAuxiliaryLookupMemo:
    def test_lookup_is_memoized(self):
        from repro import AuxiliaryDataset
        schema = Schema([dimension("district"), measure("rain")])
        aux = AuxiliaryDataset(
            "sat", Relation.from_rows(schema, [("Ofla", 1.0),
                                               ("Ofla", 3.0),
                                               ("Alaje", 2.0)]),
            ["district"], ["rain"])
        first = aux.lookup()
        assert first == {("Ofla",): {"rain": 2.0},
                         ("Alaje",): {"rain": 2.0}}
        assert aux.lookup() is first  # built once, reused

    def test_mixed_type_keys_still_work_and_memoize(self):
        # 1 and True merge under == exactly as the old row-dict path did.
        from repro import AuxiliaryDataset
        schema = Schema([dimension("k"), measure("m")])
        aux = AuxiliaryDataset(
            "odd", Relation.from_rows(schema, [(1, 4.0), (True, 6.0),
                                               ("x", 2.0)]),
            ["k"], ["m"])
        first = aux.lookup()
        assert first[(1,)] == {"m": 5.0}
        assert first[("x",)] == {"m": 2.0}
        assert aux.lookup() is first


# -- CLI ------------------------------------------------------------------------------
class TestIngestCommand:
    def test_ingest_demo_smoke(self, capsys):
        from repro.cli import main
        assert main(["ingest", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "data version 1" in out
        assert "patched in place" in out
        assert "post-ingest recommendation" in out

    def test_ingest_rows_file(self, tmp_path, capsys):
        from repro.cli import main
        rows = [{"district": "Ofla", "village": "Mehoni", "year": 1986,
                 "severity": 2.0},
                ["Ofla", "Mehoni", 1986, 3.0]]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(rows))
        assert main(["ingest", "--rows", str(path),
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "+2 -0 rows" in out

    def test_ingest_rejects_malformed_rows(self, tmp_path):
        from repro.cli import main
        for bad in ([{"district": "Ofla"}],          # missing columns
                    [["Ofla", "Zata"]],              # wrong width
                    ["not-a-row"],                   # not object/list
                    "not-a-list"):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(SystemExit):
                main(["ingest", "--rows", str(path)])

    def test_ingest_csv_requires_rows(self, tmp_path):
        from repro.cli import main
        csv = tmp_path / "d.csv"
        csv.write_text("a,m\nx,1.0\n")
        with pytest.raises(SystemExit, match="--rows"):
            main(["ingest", "--csv", str(csv), "--hierarchy", "h=a",
                  "--measure", "m"])


# -- HTTP ingest: malformed cells -----------------------------------------------------
def _chunked_dataset(rows: int, seed: int = 3
                     ) -> tuple[HierarchicalDataset, list[tuple]]:
    """The perfbench shape (encoded dimensions, a float64 measure array)
    and its rows, read from the chunks so the relation stays untouched."""
    from repro.datagen import perf
    from repro.relational import dataset_from_chunks
    chunks = list(perf.drought_chunks(rows, seed=seed))
    dataset = dataset_from_chunks(iter(chunks), perf.DROUGHT_HIERARCHIES,
                                  perf.DROUGHT_MEASURE)
    columns = [np.concatenate([c[n] for c in chunks]).tolist()
               for n in dataset.relation.schema.names]
    return dataset, list(zip(*columns))


class TestHTTPIngestMeasureCells:
    @staticmethod
    def _app():
        from repro.serving.server import ServerApp
        service = ExplanationService(config=CONFIG, auto_rebuild=False)
        dataset, rows = _chunked_dataset(2_000)
        service.register("data", dataset)
        return service, ServerApp(service), list(rows[0][:3])

    @pytest.mark.parametrize("column, cell", [
        pytest.param(3, "abc", id="abc"),
        pytest.param(3, {"sev": 1}, id="cell1"),
        pytest.param(3, True, id="measure-bool"),
        pytest.param(3, float("inf"), id="measure-inf"),
        pytest.param(3, float("-inf"), id="measure-neg-inf"),
        pytest.param(3, None, id="measure-null"),
        pytest.param(3, float("nan"), id="measure-nan"),
        pytest.param(1, ["x"], id="leaf-list"),
        pytest.param(0, {"a": 1}, id="new-leaf-ancestor-object"),
        pytest.param(2, ["x"], id="year-list")])
    def test_malformed_measure_is_a_bad_request(self, column, cell,
                                                monkeypatch):
        # A malformed cell in any column is a bad request: 400, nothing
        # mutated, no rollback rebuild, and the dataset stays healthy.
        rebuilds = []
        monkeypatch.setattr(Cube, "rebuild",
                            lambda self: rebuilds.append(self))
        service, app, coords = self._app()
        row = coords + [1.0]
        if column == 0:
            row[1] = "new-village"  # the object is a new leaf's ancestor
        row[column] = cell
        status, _, payload = app.dispatch(
            "POST", "/datasets/data/ingest", {"rows": [row]})
        assert status == 400, payload
        status, _, health = app.dispatch("GET", "/healthz")
        assert health["status"] == "ok"
        assert health["datasets"]["data"]["state"] == "healthy"
        assert service.engine("data").data_version == 0
        assert rebuilds == []

    def test_json_int_measure_keeps_the_float_column(self):
        service, app, coords = self._app()
        status, _, _ = app.dispatch("POST", "/datasets/data/ingest",
                                    {"rows": [coords + [7]]})
        assert status == 200
        relation = service.engine("data").dataset.relation
        column = relation._cols[relation.schema.names[-1]]
        assert column._array is not None
        assert column._array.dtype == np.float64
        status, _, payload = app.dispatch("POST", "/datasets/data/ingest",
                                          {"retract": [coords + [7]]})
        assert status == 200 and payload["retracted"] == 1


# -- the served path keeps the relation pending ---------------------------------------
class TestServedIngestStaysPending:
    ROWS = 100_000
    LAG = 8

    def test_ingest_and_recommend_never_materialize(self, monkeypatch):
        from repro.relational import relation as relation_module
        dataset, base_rows = _chunked_dataset(self.ROWS)
        schema = dataset.relation.schema
        service = ExplanationService(config=CONFIG)
        service.register("data", dataset)
        sid = service.open_session("data", group_by=["district"])
        materialized = []
        real = relation_module._Pending.materialize
        monkeypatch.setattr(relation_module._Pending, "materialize",
                            lambda self: materialized.append(1) or real(self))
        rng = np.random.default_rng(5)
        batches = []
        for i in range(50):
            # Rows land in existing leaves (copies of base coordinates).
            picks = rng.integers(0, self.ROWS, 8)
            batch = [base_rows[j][:3] + (float(rng.integers(0, 100)),)
                     for j in picks.tolist()]
            retract = batches[i - self.LAG] if i >= self.LAG else []
            service.ingest("data", batch, retract=retract)
            batches.append(batch)
            service.recommend(sid, Complaint.too_high(
                {"district": batch[0][0]}, "sum"))
        assert materialized == []
        engine = service.engine("data")
        assert engine.dataset.relation._pending is not None
        kept = [r for batch in batches[-self.LAG:] for r in batch]
        oracle = HierarchicalDataset.build(
            Relation.from_rows(schema, base_rows + kept),
            {h.name: list(h.attributes) for h in dataset.dimensions},
            dataset.measure, validate=False)
        deltaref.assert_groups_equal(engine.cube.leaf_states,
                                     deltaref.rebuilt_leaf_states(oracle))

    def test_failed_ingest_leaves_the_pending_relation(self):
        from repro.robustness.faultinject import FaultInjected, faults
        dataset, rows = _chunked_dataset(2_000)
        schema = dataset.relation.schema
        engine = Reptile(dataset, config=CONFIG)
        first = Delta.from_rows(schema, rows[:3], rows[5:7])
        engine.apply_delta(first)
        committed = engine.dataset.relation
        assert committed._pending is not None
        with faults("ingest.commit=error"):
            with pytest.raises(FaultInjected):
                engine.apply_delta(Delta.from_rows(schema, rows[10:12],
                                                   rows[:1]))
        assert engine.dataset.relation is committed
        expected = deltaref.apply_delta_rows(
            Relation.from_rows(schema, rows), first)
        assert list(committed.rows()) == list(expected.rows())

    def test_concurrent_materialize_and_locate(self, monkeypatch):
        import sys
        import threading
        from repro.relational import relation as relation_module
        dataset, rows = _chunked_dataset(20_000)
        relation = dataset.relation
        extra = Relation.from_rows(relation.schema, rows[:5])
        pending = relation.without_rows([1, 7, 300]) \
            .with_rows_appended(extra).without_rows([0])
        assert pending._pending is not None
        target = Relation.from_rows(relation.schema,
                                    [rows[2], rows[0], rows[4]])
        materialized = []
        real = relation_module._Pending.materialize
        monkeypatch.setattr(relation_module._Pending, "materialize",
                            lambda self: materialized.append(1) or real(self))
        start = threading.Barrier(8)
        results: list = [None] * 8

        def work(i: int) -> None:
            start.wait()
            if i % 2:
                cols = pending._cols
                located = locate_rows(pending, target).tolist()
            else:
                located = locate_rows(pending, target).tolist()
                cols = pending._cols
            results[i] = (located, cols)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None for r in results)
        assert len(materialized) == 1
        assert all(r[0] == results[0][0] for r in results)
        assert all(r[1] is results[0][1] for r in results)
        # Rows 0 and 1 are gone: rows[2] and rows[4] are now rows 0 and
        # 2, and rows[0] matches its appended copy, first of the five.
        assert results[0][0] == [0, 2, len(pending) - 5]
