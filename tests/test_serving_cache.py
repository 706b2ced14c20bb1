"""Serving layer: cache correctness, invalidation, eviction, batching."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import (Complaint, HierarchicalDataset, Relation, Reptile,
                   ReptileConfig, Schema, dimension, measure)
from repro.relational.relation import _Column
from repro.serving import (AggregateCache, CachingCube, ComplaintRequest,
                           ExplanationService, ServiceError,
                           dataset_fingerprint)


CONFIG = ReptileConfig(n_em_iterations=4)
COMPLAINT = Complaint.too_low({"year": 1986}, "mean")


def _recommend(engine: Reptile):
    session = engine.session(group_by=["year"], filters={"district": "Ofla"})
    return session.recommend(COMPLAINT)


# -- cache data structure ------------------------------------------------------------
class TestAggregateCache:
    def test_get_or_compute_memoizes(self):
        cache = AggregateCache()
        calls = []
        value = cache.get_or_compute(("k", "fp"), lambda: calls.append(1) or 41)
        again = cache.get_or_compute(("k", "fp"), lambda: calls.append(1) or 42)
        assert (value, again) == (41, 41)
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_bounds(self):
        cache = AggregateCache(max_entries=3)
        for i in range(10):
            cache.put(("k", "fp", i), i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7
        assert cache.keys() == [("k", "fp", i) for i in (7, 8, 9)]

    def test_lru_recency_is_use_not_insertion(self):
        cache = AggregateCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"
        cache.put(("c",), 3)           # evicts "b", the LRU entry
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3

    def test_unbounded_when_max_entries_none(self):
        cache = AggregateCache(max_entries=None)
        for i in range(100):
            cache.put(("k", i), i)
        assert len(cache) == 100 and cache.stats.evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AggregateCache(max_entries=0)

    def test_invalidate_by_fingerprint(self):
        cache = AggregateCache()
        cache.put(("view", "fp1", "x"), 1)
        cache.put(("predict", "fp1", "y"), 2)
        cache.put(("view", "fp2", "x"), 3)
        assert cache.invalidate("fp1") == 2
        assert cache.keys() == [("view", "fp2", "x")]
        assert cache.stats.invalidations == 2

    def test_timings_record_compute_kinds(self):
        cache = AggregateCache()
        cache.get_or_compute(("view", "fp", 1), lambda: 1)
        cache.get_or_compute(("view", "fp", 2), lambda: 2)
        cache.get_or_compute(("predict", "fp"), lambda: 3)
        timings = cache.timings()
        assert timings["view"].computations == 2
        assert timings["predict"].computations == 1
        assert timings["view"].seconds >= 0.0


# -- fingerprints --------------------------------------------------------------------
class TestFingerprint:
    def test_stable_and_content_addressed(self, ofla_dataset):
        fp1 = dataset_fingerprint(ofla_dataset)
        assert fp1 == dataset_fingerprint(ofla_dataset)  # deterministic
        clone = HierarchicalDataset(
            ofla_dataset.relation, ofla_dataset.dimensions,
            ofla_dataset.measure, validate=False)
        assert dataset_fingerprint(clone) == fp1

    def test_add_auxiliary_changes_fingerprint(self, ofla_dataset):
        # The digest covers the auxiliary registrations, so registering
        # one after a first fingerprint must change it — and to exactly
        # the digest of a dataset built with that auxiliary up front.
        from repro import AuxiliaryDataset
        schema = Schema([dimension("district"), measure("rain")])
        aux = AuxiliaryDataset(
            "sat", Relation.from_rows(schema, [("Ofla", 1.0)]),
            ["district"], ["rain"])
        before = dataset_fingerprint(ofla_dataset)
        ofla_dataset.add_auxiliary(aux)
        after = dataset_fingerprint(ofla_dataset)
        assert after != before
        twin = HierarchicalDataset(ofla_dataset.relation,
                                   ofla_dataset.dimensions, "severity",
                                   validate=False)
        twin.add_auxiliary(aux)
        assert after == dataset_fingerprint(twin)
        assert CachingCube(ofla_dataset, AggregateCache()).fingerprint \
            == after

    def test_auxiliary_contents_are_fingerprinted(self, ofla_dataset):
        from repro import AuxiliaryDataset
        schema = Schema([dimension("district"), measure("rain")])
        a = HierarchicalDataset(ofla_dataset.relation,
                                ofla_dataset.dimensions, "severity",
                                validate=False)
        b = HierarchicalDataset(ofla_dataset.relation,
                                ofla_dataset.dimensions, "severity",
                                validate=False)
        a.add_auxiliary(AuxiliaryDataset(
            "sat", Relation.from_rows(schema, [("Ofla", 1.0)]),
            ["district"], ["rain"]))
        b.add_auxiliary(AuxiliaryDataset(
            "sat", Relation.from_rows(schema, [("Ofla", 9.0)]),
            ["district"], ["rain"]))
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_no_column_copies_on_large_dataset(self):
        # Fingerprinting a 10⁵-row array-backed dataset must hash the
        # measure array / code arrays directly: no column may be decoded
        # into a Python list, and the per-column tokens must be memoized
        # so a second engine construction is O(1) per column.
        n = 100_000
        rng = np.random.default_rng(3)
        districts = np.array([f"d{i:02d}" for i in range(20)])
        relation = Relation(
            Schema([dimension("district"), dimension("year"),
                    measure("severity")]),
            {"district": districts[rng.integers(0, 20, n)],
             "year": 1980 + rng.integers(0, 10, n),
             "severity": rng.normal(size=n)})
        dataset = HierarchicalDataset.build(
            relation, {"geo": ["district"], "time": ["year"]}, "severity",
            validate=False)
        with mock.patch.object(_Column, "values", side_effect=AssertionError(
                "fingerprinting decoded a column into a Python list")):
            fp = dataset_fingerprint(dataset)
            assert dataset_fingerprint(dataset) == fp
        for name in relation.schema.names:
            # memoized for the next engine
            assert relation._cols[name]._token is not None

    def test_token_reuses_interned_encoding(self, ofla_dataset):
        # Once a dimension column is interned (e.g. by a cube build), the
        # fingerprint token is exactly the encoding's memoized hash —
        # no re-hash of the value column.
        relation = ofla_dataset.relation
        enc = relation.encoding("district")
        assert relation.content_token("district") == enc.hash_token()

    def test_different_measure_differs(self, ofla_dataset):
        rng = np.random.default_rng(0)
        base = ofla_dataset.relation
        columns = {name: base.column(name) for name in base.schema.names}
        columns["other"] = rng.normal(size=len(base))
        relation = Relation(list(base.schema) + [measure("other")], columns)
        a = HierarchicalDataset(relation, ofla_dataset.dimensions,
                                "severity", validate=False)
        b = HierarchicalDataset(relation, ofla_dataset.dimensions,
                                "other", validate=False)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


# -- cache-backed engine -------------------------------------------------------------
class TestCachedRecommendations:
    def test_warm_equals_cold_exactly(self, ofla_dataset):
        cold = _recommend(Reptile(ofla_dataset, config=CONFIG))
        cache = AggregateCache()
        _recommend(Reptile(ofla_dataset, config=CONFIG, cache=cache))
        warm = _recommend(Reptile(ofla_dataset, config=CONFIG, cache=cache))
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert warm.best_group.score == cold.best_group.score

    def test_auxiliary_and_lag_plan_cached_equals_uncached(self,
                                                           ofla_dataset):
        """A non-default feature plan on the served path: an auxiliary
        dataset (§3.3.2) plus a lag feature make the cached engine key
        its fits through ``spec_signature``, and it must still rank
        exactly like an uncached engine, before and after an ingest.
        Integer-valued measures keep patched sums bitwise."""
        from repro import AuxiliaryDataset, Delta
        from repro.model.features import FeaturePlan, LagFeature
        rows = [(d, v, y, float(int(s)))
                for d, v, y, s in ofla_dataset.relation.rows()]
        sat = sorted({(v, y) for _, v, y, _ in rows})
        aux = AuxiliaryDataset(
            "sat", Relation.from_rows(
                Schema([dimension("village"), dimension("year"),
                        measure("rain")]),
                [(v, y, float(i % 5)) for i, (v, y) in enumerate(sat)]),
            ["village", "year"], ["rain"])
        plan = FeaturePlan(extra_specs=[LagFeature("year")])
        engines = [
            Reptile(HierarchicalDataset.build(
                Relation.from_rows(ofla_dataset.relation.schema, rows),
                {"geo": ["district", "village"], "time": ["year"]},
                "severity", auxiliary=[aux]),
                feature_plan=plan, config=CONFIG, cache=cache)
            for cache in (None, AggregateCache())]
        delta = [("Ofla", "Zata", 1986, 1.0), ("Ofla", "Mehoni", 1987, 9.0),
                 ("Alaje", "Bora", 1985, 2.0)]
        for step in range(2):
            uncached, cached = (_recommend(e) for e in engines)
            assert cached == uncached
            assert repr(cached) == repr(uncached)
            assert _recommend(engines[1]) == uncached  # served warm
            if step == 0:
                for engine in engines:
                    engine.apply_delta(Delta.from_rows(
                        ofla_dataset.relation.schema, delta))
        assert engines[1].cache.stats.hits > 0

    def test_warm_engine_computes_no_predictions(self, ofla_dataset):
        cache = AggregateCache()
        _recommend(Reptile(ofla_dataset, config=CONFIG, cache=cache))
        computed = cache.timings()["predict"].computations
        _recommend(Reptile(ofla_dataset, config=CONFIG, cache=cache))
        assert cache.timings()["predict"].computations == computed
        assert cache.stats.hits > 0

    def test_caching_cube_is_transparent(self, ofla_dataset):
        plain = Reptile(ofla_dataset, config=CONFIG).cube
        cached = CachingCube(ofla_dataset, AggregateCache())
        view = cached.view(("district", "year"))
        assert view.groups == plain.view(("district", "year")).groups
        assert cached.view(("district", "year")) is view  # served warm

    def test_distinct_configs_do_not_alias(self, ofla_dataset):
        cache = AggregateCache()
        few = Reptile(ofla_dataset,
                      config=ReptileConfig(n_em_iterations=1), cache=cache)
        many = Reptile(ofla_dataset,
                       config=ReptileConfig(n_em_iterations=30), cache=cache)
        assert _recommend(few) != _recommend(many)

    def test_custom_repairer_bypasses_cache(self, ofla_dataset):
        from repro import ModelRepairer
        from repro.core.repair import CustomRepairer
        cache = AggregateCache()
        repairer = CustomRepairer(fn=lambda key, state: {"mean": 5.0})
        engine = Reptile(ofla_dataset, config=CONFIG, repairer=repairer,
                         cache=cache)
        _recommend(engine)
        assert "predict" not in cache.timings()  # never cached, still ran

    def test_new_engine_sees_in_place_mutation(self, ofla_dataset):
        # A fresh engine must hash the data as it is *now*: constructing
        # it after a new relation was swapped in may not reuse the old
        # fingerprint (and with it the stale cache entries).
        cache = AggregateCache()
        stale = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        _recommend(stale)
        relation = ofla_dataset.relation
        severity = list(relation.column("severity"))
        severity[0] += 50.0
        ofla_dataset.relation = Relation(
            relation.schema,
            {n: severity if n == "severity" else relation.column(n)
             for n in relation.schema.names})
        fresh = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        assert fresh.fingerprint != stale.fingerprint
        truth = _recommend(Reptile(ofla_dataset, config=CONFIG))
        assert _recommend(fresh) == truth

    def test_filtered_views_do_not_alias_predictions(self, ofla_dataset):
        # Two views with the same group attributes but different filters
        # must never share a cached prediction.
        engine = Reptile(ofla_dataset, config=CONFIG,
                         cache=AggregateCache())
        repairer = engine.repairer_for(("village",))
        ofla = engine.cube.view(("village",), {"district": "Ofla"})
        alaje = engine.cube.view(("village",), {"district": "Alaje"})
        p_ofla = repairer.predict(ofla, (), "mean")
        p_alaje = repairer.predict(alaje, (), "mean")
        assert set(ofla.groups) != set(alaje.groups)
        assert p_ofla is not p_alaje

    def test_untagged_views_bypass_prediction_cache(self, ofla_dataset):
        # A view built by a plain Cube carries no serving tag; its
        # contents are unknown to the cache, so predictions recompute.
        from repro.relational import Cube
        cache = AggregateCache()
        engine = Reptile(ofla_dataset, config=CONFIG, cache=cache)
        plain = Cube(ofla_dataset).view(("village",), {"district": "Ofla"})
        engine.repairer_for(("village",)).predict(plain, (), "mean")
        assert "predict" not in cache.timings()


# -- engine refresh ------------------------------------------------------------------
class TestIncrementalUnits:
    def test_engine_refresh_drops_session_units(self, ofla_dataset):
        # A relation swapped in wholesale reaches a live session after
        # refresh(): its next view reads the rebuilt cube.
        from repro.relational import Cube
        engine = Reptile(ofla_dataset, config=CONFIG)
        session = engine.session(group_by=["district", "year"])
        before = dict(session.view().groups)
        relation = ofla_dataset.relation
        years = [1988 if year == 1987 else year
                 for year in relation.column("year")]
        ofla_dataset.relation = Relation(
            relation.schema,
            {n: years if n == "year" else relation.column(n)
             for n in relation.schema.names})
        engine.refresh()
        assert not session.is_stale()  # a "sync" session reads it
        assert session.data_version == engine.data_version == 1
        after = dict(session.view().groups)
        assert {year for _, year in after} == {1984, 1985, 1986, 1988}
        assert before != after
        assert after == dict(
            Cube(ofla_dataset).view(("district", "year")).groups)


# -- the explanation service ---------------------------------------------------------
class TestExplanationService:
    def _service(self, dataset) -> ExplanationService:
        service = ExplanationService(config=CONFIG)
        service.register("drought", dataset)
        return service

    def test_session_lifecycle(self, ofla_dataset):
        service = self._service(ofla_dataset)
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        assert sid in service.sessions
        recommendation = service.recommend(sid, COMPLAINT)
        service.drill(sid, recommendation.best_hierarchy)
        assert "village" in service.session(sid).group_by
        service.close_session(sid)
        assert sid not in service.sessions
        with pytest.raises(ServiceError):
            service.session(sid)
        with pytest.raises(ServiceError):
            service.recommend("nope", COMPLAINT)
        with pytest.raises(ServiceError):
            service.engine("nope")
        with pytest.raises(ServiceError):
            service.register("drought", ofla_dataset)

    def test_batch_matches_sequential_and_shares_work(self, ofla_dataset):
        requests = [
            ComplaintRequest(COMPLAINT, ("year",), {"district": "Ofla"}),
            ComplaintRequest(Complaint.too_high({"year": 1985}, "mean"),
                             ("year",), {"district": "Ofla"}),
            ComplaintRequest(COMPLAINT, ("year",), {"district": "Alaje"}),
        ]
        service = self._service(ofla_dataset)
        result = service.submit_batch("drought", requests)
        assert result.n_views == 2
        assert len(result.items) == 3
        # Same complaints one-by-one on an uncached engine agree exactly.
        for request, item in zip(requests, result.items):
            engine = Reptile(ofla_dataset, config=CONFIG)
            session = engine.session(request.group_by, dict(request.filters))
            assert session.recommend(request.complaint) == item.recommendation
        # All three requests share one parallel-view model fit: the
        # complained statistic is "mean" for every request and the
        # parallel view ignores filters, so one "predict" computation
        # serves the whole batch.
        assert service.cache.timings()["predict"].computations == 1
        stats = service.stats()
        assert stats["recommend"]["count"] == 3
        assert stats["cache"]["hit_rate"] > 0.0

    def test_batch_isolates_failing_requests(self, ofla_dataset):
        bad = ComplaintRequest(Complaint.too_low({"village": "Zata"}, "mean"),
                               ("year",), {"district": "Ofla"})
        good = ComplaintRequest(COMPLAINT, ("year",), {"district": "Ofla"})
        service = self._service(ofla_dataset)
        result = service.submit_batch("drought", [bad, good])
        assert result.items[0].recommendation is None
        assert "village" in result.items[0].error
        assert result.items[1].error is None
        assert result.items[1].recommendation.best_group is not None
        assert result.recommendations()[0] is None

    def test_batch_isolates_unhashable_filter_values(self, ofla_dataset):
        bad = ComplaintRequest(COMPLAINT, ("year",),
                               {"district": ["Ofla", "Alaje"]})
        good = ComplaintRequest(COMPLAINT, ("year",), {"district": "Ofla"})
        service = self._service(ofla_dataset)
        result = service.submit_batch("drought", [bad, good])
        assert result.items[0].recommendation is None
        assert "TypeError" in result.items[0].error
        assert result.items[1].error is None
        assert result.items[1].recommendation.best_group is not None

    def test_explicit_auxiliary_extra_spec_does_not_crash(self,
                                                          ofla_dataset):
        from repro import AuxiliaryDataset
        from repro.model.features import AuxiliaryFeature, FeaturePlan
        schema = Schema([dimension("district"), measure("rain")])
        aux = AuxiliaryDataset(
            "sat", Relation.from_rows(schema, [("Ofla", 1.0),
                                               ("Alaje", 2.0)]),
            ["district"], ["rain"])
        ofla_dataset.add_auxiliary(aux)
        plan = FeaturePlan(extra_specs=[AuxiliaryFeature(aux, "rain")])
        engine = Reptile(ofla_dataset, feature_plan=plan, config=CONFIG)
        assert _recommend(engine).best_group is not None

    def test_invalidate_after_mutation_serves_fresh_results(self,
                                                            ofla_dataset):
        service = self._service(ofla_dataset)
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        before = service.recommend(sid, COMPLAINT)
        old_fingerprint = service.engine("drought").fingerprint

        # Plant a severe under-report in one village: retract its
        # Darube-1986 rows and append them back with severity 1.0.
        bad = [row for row in ofla_dataset.relation.rows()
               if row[1] == "Darube" and row[2] == 1986]
        info = service.ingest("drought", rows=[row[:3] + (1.0,)
                                               for row in bad],
                              retract=bad)
        assert info["version"] == 1
        assert service.engine("drought").fingerprint != old_fingerprint

        after = service.recommend(sid, COMPLAINT)
        assert after != before
        fresh = Reptile(ofla_dataset, config=CONFIG)
        expected = fresh.session(group_by=["year"],
                                 filters={"district": "Ofla"}) \
            .recommend(COMPLAINT)
        assert after == expected
        assert after.ranked()[0].coordinates["village"] == "Darube"

    def test_eviction_bounded_service_still_correct(self, ofla_dataset):
        service = ExplanationService(max_entries=2, config=CONFIG)
        service.register("drought", ofla_dataset)
        sid = service.open_session("drought", group_by=["year"],
                                   filters={"district": "Ofla"})
        constrained = service.recommend(sid, COMPLAINT)
        assert len(service.cache) <= 2
        assert constrained == _recommend(Reptile(ofla_dataset, config=CONFIG))


# -- CLI ------------------------------------------------------------------------------
class TestServeCommand:
    def test_serve_demo_smoke(self, capsys):
        from repro.cli import main
        assert main(["serve", "--repeat", "2", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "pass 2 (warm)" in out
        assert "Zata" in out  # the planted error is found

    def test_serve_batch_file(self, tmp_path, capsys):
        import json
        from repro.cli import main
        batch = [{"aggregate": "mean", "direction": "too_low",
                  "coordinates": {"year": 1986}, "group_by": ["year"],
                  "filters": {"district": "Ofla"}, "k": 2}]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["serve", "--batch", str(path),
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 complaints" in out

    def test_serve_rejects_malformed_entries(self, tmp_path, capsys):
        # Each complaint of the shared malformed-input table ends the
        # command with one line and exit status 1 before any pass runs.
        import json
        from repro.cli import main
        from test_request_grammar import BAD_COMPLAINTS, one_line
        for bad in BAD_COMPLAINTS.values():
            path = tmp_path / "bad.json"
            path.write_text(json.dumps([bad]))
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--batch", str(path)])
            one_line(exc, "serve")
        assert "pass 1" not in capsys.readouterr().out

    def test_serve_rejects_non_scalar_filters(self, tmp_path):
        import json
        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "aggregate": "mean", "coordinates": {"year": 1986},
            "filters": {"district": ["Ofla", "Alaje"]}}]))
        with pytest.raises(SystemExit, match="scalar"):
            main(["serve", "--batch", str(path)])

    def test_serve_rejects_hierarchy_without_csv(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--csv"):
            main(["serve", "--hierarchy", "geo=district,village"])

    @pytest.mark.parametrize("command", ["serve", "serve-http", "ingest"])
    @pytest.mark.parametrize("text, reason", [
        (None, "No such file"),
        ("district,village,sev\nOfla,Zata,1.0\n", "no column 'year'"),
        ("district,village,year,sev\nOfla,Zata,1986\n", "line 2 has 3"),
        ("district,village,year,sev\nOfla,Zata,1986,abc\n", "'abc'"),
        ("district,village,year,sev\nOfla,Zata,1986,1.0\n"
         "Alaje,Zata,1987,2.0\n", "FD"),
    ], ids=["missing", "header", "short-row", "measure", "fd"])
    def test_malformed_csv_exits_with_one_line(self, tmp_path, command,
                                               text, reason):
        from repro.cli import main
        path = tmp_path / "data.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--csv", str(path), "--hierarchy",
                  "geo=district,village", "--hierarchy", "time=year",
                  "--measure", "sev"])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"{command}: cannot load {path}: ")
        assert reason in message

    def test_serve_seed_changes_demo(self, capsys):
        from repro.cli import main
        assert main(["serve", "--iterations", "2", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--iterations", "2", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        gains = [l for l in first.splitlines() if "margin gain" in l]
        gains2 = [l for l in second.splitlines() if "margin gain" in l]
        assert gains and gains != gains2

    def test_serve_rejects_bad_cache_capacity(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="cache-entries"):
            main(["serve", "--cache-entries", "0"])

    def test_serve_rejects_bad_direction(self, tmp_path):
        import json
        from repro.cli import main
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"aggregate": "mean",
                                     "direction": "sideways",
                                     "coordinates": {"year": 1986}}]))
        with pytest.raises(SystemExit):
            main(["serve", "--batch", str(path)])
