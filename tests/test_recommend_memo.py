"""The one-shot recommendation memo and what it rests on.

``ExplanationService.submit_batch`` (behind ``POST
/datasets/{d}/recommend``) memoizes whole answers as the
``"recommend"`` kind of the shared :class:`AggregateCache`. The memo
must never change an answer:

* every hit equals a cache-less :class:`Reptile` answer — same keys,
  same order, bitwise-equal scores — over the data at the reported
  version;
* an ingest, a rolled-back failed ingest and a refresh each make the
  next read recompute;
* engines with different configurations never share an answer, and an
  engine whose repair function cannot be fingerprinted bypasses it;
* a request that errors stores nothing, and no caller can change
  another caller's answer.

Two engines over identical rows start with one fingerprint, so an
ingest must name its data by lineage (old fingerprint plus the delta's
rows), not by version number. The reply side is checked too: the
per-type reply body gives the JSON of the generic ``jsonable`` walk,
and each reply leaves in one ``sendall``.

Severities are integer-valued so float sums are bitwise exact.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.robustness.faultinject as fi
from repro import Complaint, Reptile, ReptileConfig
from repro.core.complaint import Direction
from repro.core.ranker import (DrilldownRecommendation, Recommendation,
                               ScoredGroup, score_drilldown)
from repro.core.repair import CustomRepairer, RepairPrediction
from repro.model.features import CustomFeature, FeaturePlan
from repro.relational import (HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.serving import ExplanationService
from repro.serving.health import IngestFailure
from repro.serving.server import (ReptileHTTPServer, ServerApp, jsonable,
                                  recommendation_payload)
from repro.serving.service import ComplaintRequest
from test_ranker_array_properties import (AGGREGATES, DIRECTIONS,
                                          build_view, complaint_for,
                                          group_specs)

CONFIG = ReptileConfig(n_em_iterations=3)
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("severity")])
DISTRICTS = ("d0", "d1", "d2")
YEARS = (2000, 2001, 2002)


def make_rows(seed: int = 0) -> list[tuple]:
    rng = np.random.default_rng(seed)
    return [(d, f"{d}v{v}", y, float(rng.integers(1, 10)))
            for d in DISTRICTS for v in range(3) for y in YEARS
            for _ in range(2)]


def make_dataset(rows=None) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, make_rows() if rows is None else rows),
        HIERARCHIES, "severity")


def uncached(engine: Reptile, config: ReptileConfig = CONFIG) -> Reptile:
    """A cache-less engine over a fresh copy of ``engine``'s rows."""
    rows = list(engine.dataset.relation.rows())
    return Reptile(make_dataset(rows), feature_plan=engine.feature_plan,
                   config=config)


def bits(x: float) -> str:
    return float(x).hex()  # bitwise: tells -0.0 from 0.0, NaN reads 'nan'


def answer(rec: Recommendation) -> tuple:
    """Every field of a recommendation, floats compared bitwise."""
    return (rec.best_hierarchy, tuple(
        (name, r.attribute, bits(r.base_penalty), tuple(
            (g.key, tuple(g.coordinates.items()), bits(g.score),
             bits(g.margin_gain), bits(g.repaired_value),
             tuple((s, bits(v)) for s, v in g.observed.items()),
             tuple((s, bits(v)) for s, v in g.expected.items()))
            for g in r.groups))
        for name, r in rec.per_hierarchy.items()))


def oracle_answer(engine: Reptile, request: ComplaintRequest,
                  config: ReptileConfig = CONFIG) -> tuple:
    return answer(uncached(engine, config).recommend(
        request.complaint, request.group_by, dict(request.filters),
        k=request.k))


def memo_keys(service: ExplanationService) -> list:
    return [k for k in service.cache.keys() if k[0] == "recommend"]


def fills(service: ExplanationService) -> int:
    timing = service.cache.timings().get("recommend")
    return 0 if timing is None else timing.computations


def fresh_service(**kwargs) -> ExplanationService:
    service = ExplanationService(config=CONFIG, **kwargs)
    service.register("data", make_dataset())
    return service


def request(coords: dict, group_by=(), filters=None, aggregate="mean",
            direction=Direction.TOO_LOW, k=None) -> ComplaintRequest:
    target = 5.0 if direction is Direction.TARGET else None
    return ComplaintRequest(Complaint(coords, aggregate, direction, target),
                            tuple(group_by), dict(filters or {}), k=k)


def ask(service: ExplanationService, *requests: ComplaintRequest,
        dataset: str = "data") -> list[Recommendation]:
    result = service.submit_batch(dataset, list(requests))
    assert [item.error for item in result.items] == [None] * len(requests)
    return result.recommendations()


BY_DISTRICT = request({"district": "d0"}, group_by=["district"])


@st.composite
def complaint_requests(draw) -> ComplaintRequest:
    d = draw(st.sampled_from(DISTRICTS))
    y = draw(st.sampled_from(YEARS))
    shape = draw(st.sampled_from(["district", "year", "year-in", "cell",
                                  "total"]))
    if shape == "district":
        coords, group_by, filters = {"district": d}, ["district"], {}
    elif shape == "year":
        coords, group_by, filters = {"year": y}, ["year"], {}
    elif shape == "year-in":
        coords, group_by, filters = {"year": y}, ["year"], {"district": d}
    elif shape == "cell":
        items = [("district", d), ("year", y)]
        coords = dict(draw(st.permutations(items)))
        group_by, filters = ["district", "year"], {}
    else:
        coords, group_by, filters = {}, [], {}
    return request(coords, group_by, filters,
                   aggregate=draw(st.sampled_from(AGGREGATES)),
                   direction=draw(st.sampled_from(DIRECTIONS)),
                   k=draw(st.sampled_from([None, 1, 2, 4])))


class TestHitsEqualUncachedAnswers:
    @given(st.lists(complaint_requests(), min_size=1, max_size=5))
    @settings(max_examples=25)
    def test_every_hit_equals_a_cacheless_answer(self, requests):
        service = fresh_service()
        engine = service.engine("data")
        expected = [oracle_answer(engine, r) for r in requests]
        first = ask(service, *requests)
        filled = fills(service)
        assert 1 <= filled <= len(requests)
        second = ask(service, *requests)
        assert fills(service) == filled  # the second pass is all hits
        for r, want, a, b in zip(requests, expected, first, second):
            assert answer(a) == answer(b) == want
            assert a.complaint is r.complaint and b.complaint is r.complaint

    def test_hit_carries_the_callers_complaint(self):
        service = fresh_service()
        one = request({"district": "d1", "year": 2001},
                      group_by=["district", "year"])
        other = request({"year": 2001, "district": "d1"},
                        group_by=["district", "year"])
        a, = ask(service, one)
        b, = ask(service, other)
        assert fills(service) == 1  # coordinates are order-insensitive
        assert b.complaint is other.complaint
        assert repr(b.complaint) != repr(a.complaint)
        assert answer(a) == answer(b)
        for name, drill in a.per_hierarchy.items():
            assert b.per_hierarchy[name] is drill  # the memoized records

    def test_http_replies_come_from_the_memo(self):
        service = fresh_service()
        app = ServerApp(service)
        body = {"aggregate": "mean", "direction": "too_high",
                "coordinates": {"district": "d2"}, "group_by": ["district"]}
        replies = [app.dispatch("POST", "/datasets/data/recommend",
                                dict(body)) for _ in range(3)]
        assert [status for status, _, _ in replies] == [200] * 3
        assert fills(service) == 1
        assert replies[0][2] == replies[1][2] == replies[2][2]


class TestInvalidation:
    def warm(self, service: ExplanationService) -> None:
        ask(service, BY_DISTRICT)
        ask(service, BY_DISTRICT)
        assert fills(service) == 1 and len(memo_keys(service)) == 1

    def test_ingest_recomputes(self):
        service = fresh_service()
        self.warm(service)
        info = service.ingest("data", [("d0", "d0v0", 2000, 9.0)] * 4)
        assert memo_keys(service) == []  # the patch pass drops the kind
        rec, = ask(service, BY_DISTRICT)
        assert fills(service) == 2
        assert answer(rec) == oracle_answer(service.engine("data"),
                                            BY_DISTRICT)
        assert info["version"] == 1

    def test_rolled_back_ingest_recomputes(self):
        service = fresh_service(auto_rebuild=False)
        self.warm(service)
        fi.inject("ingest.commit", kind="error")
        try:
            with pytest.raises(IngestFailure):
                service.ingest("data", [("d0", "d0v0", 2000, 9.0)])
        finally:
            fi.clear_faults()
        assert memo_keys(service) == []
        rec, = ask(service, BY_DISTRICT)
        assert fills(service) == 2
        engine = service.engine("data")
        assert engine.data_version == 0
        assert answer(rec) == oracle_answer(engine, BY_DISTRICT)

    def test_refresh_recomputes(self):
        service = fresh_service()
        self.warm(service)
        assert service.try_rebuild("data")
        assert memo_keys(service) == []
        rec, = ask(service, BY_DISTRICT)
        assert fills(service) == 2
        assert answer(rec) == oracle_answer(service.engine("data"),
                                            BY_DISTRICT)

    def test_entries_share_the_lru_bound(self):
        service = ExplanationService(max_entries=1, config=CONFIG)
        service.register("data", make_dataset())
        other = request({"district": "d1"}, group_by=["district"])
        # The answer is the last entry a miss stores, so it survives its
        # own views and fits; the next miss evicts it.
        for r, filled in ((BY_DISTRICT, 1), (BY_DISTRICT, 1), (other, 2),
                          (BY_DISTRICT, 3)):
            rec, = ask(service, r)
            assert fills(service) == filled
            assert answer(rec) == oracle_answer(service.engine("data"), r)
        assert len(service.cache) == 1


class TestWhatBypassesOrSplitsTheMemo:
    CONFIGS = [ReptileConfig(n_em_iterations=1),
               ReptileConfig(n_em_iterations=6),
               ReptileConfig(model="linear"),
               ReptileConfig(n_em_iterations=6, top_k=2)]

    def test_engines_with_other_configs_never_share_an_answer(self):
        service = ExplanationService()
        for i, config in enumerate(self.CONFIGS):
            service.register(f"e{i}", make_dataset(), config=config)
        fingerprints = {service.engine(f"e{i}").fingerprint
                        for i in range(len(self.CONFIGS))}
        assert len(fingerprints) == 1  # identical rows
        for i, config in enumerate(self.CONFIGS):
            rec, = ask(service, BY_DISTRICT, dataset=f"e{i}")
            assert answer(rec) == oracle_answer(
                service.engine(f"e{i}"), BY_DISTRICT, config)
        assert fills(service) == len(self.CONFIGS)
        assert len(memo_keys(service)) == len(self.CONFIGS)

    def test_auto_auxiliary_flag_splits_the_memo(self):
        from repro import AuxiliaryDataset
        aux_schema = Schema([dimension("district"), measure("rain")])
        service = ExplanationService()
        for name, flag in (("on", True), ("off", False)):
            dataset = make_dataset()
            dataset.add_auxiliary(AuxiliaryDataset(
                "sat", Relation.from_rows(
                    aux_schema, [("d0", 1.0), ("d1", 4.0), ("d2", 2.0)]),
                ["district"], ["rain"]))
            service.register(name, dataset, config=ReptileConfig(
                n_em_iterations=3, auto_auxiliary=flag))
        probe = request({}, group_by=[])
        for name in ("on", "off"):
            ask(service, probe, dataset=name)
        assert fills(service) == 2

    def test_custom_feature_plan_bypasses(self):
        service = ExplanationService(config=CONFIG)
        plan = FeaturePlan(extra_specs=[CustomFeature(
            "one", ("district",),
            lambda view, target: {k[0]: 1.0 for k in view.groups})])
        service.register("data", make_dataset(), feature_plan=plan)
        a, = ask(service, BY_DISTRICT)
        b, = ask(service, BY_DISTRICT)
        assert memo_keys(service) == [] and fills(service) == 0
        assert answer(a) == answer(b) == oracle_answer(
            service.engine("data"), BY_DISTRICT)

    def test_custom_repairer_bypasses(self):
        service = fresh_service()
        engine = service.engine("data")
        engine.custom_repairer = CustomRepairer(
            fn=lambda key, state: {"mean": 5.0})
        a, = ask(service, BY_DISTRICT)
        b, = ask(service, BY_DISTRICT)
        assert memo_keys(service) == [] and fills(service) == 0
        plain = uncached(engine)
        plain.custom_repairer = engine.custom_repairer
        expected = answer(plain.recommend(BY_DISTRICT.complaint,
                                          BY_DISTRICT.group_by))
        assert answer(a) == answer(b) == expected

    def test_a_failing_request_stores_nothing(self):
        service = fresh_service()
        bad = request({"village": "d0v0"}, group_by=["year"])
        result = service.submit_batch("data", [bad, BY_DISTRICT])
        assert "village" in result.items[0].error
        assert result.items[1].error is None
        assert len(memo_keys(service)) == 1  # only the good answer
        again = service.submit_batch("data", [bad])
        assert again.items[0].error == result.items[0].error
        assert len(memo_keys(service)) == 1

    def test_a_failed_fill_stores_nothing(self):
        service = fresh_service()
        fi.inject("cache.fill", kind="error", hits=(1,))
        try:
            result = service.submit_batch("data", [BY_DISTRICT])
        finally:
            fi.clear_faults()
        assert result.items[0].error is not None
        assert memo_keys(service) == []
        rec, = ask(service, BY_DISTRICT)
        assert answer(rec) == oracle_answer(service.engine("data"),
                                            BY_DISTRICT)
        assert fills(service) == 1


class TestImmutableAnswers:
    def test_no_caller_can_change_another_callers_answer(self):
        service = fresh_service()
        first, = ask(service, BY_DISTRICT)
        before = answer(first)
        hit, = ask(service, BY_DISTRICT)
        name = hit.best_hierarchy
        drill = hit.per_hierarchy[name]
        group = drill.groups[0]
        attempts = [
            lambda: setattr(hit, "per_hierarchy", {}),
            lambda: hit.per_hierarchy.__setitem__(name, None),
            lambda: hit.per_hierarchy.pop(name),
            lambda: setattr(drill, "groups", ()),
            lambda: drill.groups.append(group),
            lambda: setattr(group, "score", 0.0),
            lambda: group.coordinates.__setitem__("village", "elsewhere"),
            lambda: group.observed.__setitem__("mean", 0.0),
            lambda: group.expected.update(mean=0.0),
            lambda: hit.complaint.coordinates.__setitem__("district", "d9"),
        ]
        for attempt in attempts:
            with pytest.raises((TypeError, AttributeError,
                                dataclasses.FrozenInstanceError)):
                attempt()
        third, = ask(service, BY_DISTRICT)
        assert fills(service) == 1
        assert answer(third) == answer(hit) == before


# -- lineage fingerprints ---------------------------------------------------------
VIEWS = [(("district",), {}), (("district", "village"), {}),
         (("year",), {"district": "d0"}), (("year",), {"district": "d1"}),
         (("district", "village", "year"), {})]


def assert_serves_its_own_rows(service: ExplanationService, name: str):
    engine = service.engine(name)
    plain = uncached(engine)
    for group_by, filters in VIEWS:
        assert dict(engine.cube.view(group_by, filters).groups) \
            == dict(plain.cube.view(group_by, filters).groups)
    for r in (BY_DISTRICT, request({"district": "d1"}, ["district"]),
              request({"year": 2001}, ["year"], {"district": "d0"})):
        rec, = ask(service, r, dataset=name)
        assert answer(rec) == answer(plain.recommend(
            r.complaint, r.group_by, dict(r.filters), k=r.k))


def warm_all(service: ExplanationService, name: str) -> None:
    engine = service.engine(name)
    for group_by, filters in VIEWS:
        engine.cube.view(group_by, filters)
    ask(service, BY_DISTRICT, dataset=name)


class TestLineageFingerprints:
    def test_equal_rows_then_different_deltas_never_share(self):
        service = ExplanationService(config=CONFIG)
        for name in ("a", "b"):
            service.register(name, make_dataset())
            warm_all(service, name)
        assert service.engine("a").fingerprint \
            == service.engine("b").fingerprint
        service.ingest("a", [("d0", "d0v1", 2001, 8.0)] * 5)
        service.ingest("b", [("d1", "d1v2", 2000, 3.0)] * 2)
        fa, fb = (service.engine(n).fingerprint for n in ("a", "b"))
        assert fa != fb
        assert fa.split("@")[0] == fb.split("@")[0]  # base@lineage
        for name in ("a", "b"):
            assert_serves_its_own_rows(service, name)

    def test_equal_lineages_keep_sharing(self):
        service = ExplanationService(config=CONFIG)
        delta = [("d2", "d2v0", 2002, 6.0)] * 3
        for name in ("a", "b"):
            service.register(name, make_dataset())
            service.ingest(name, delta)
        assert service.engine("a").fingerprint \
            == service.engine("b").fingerprint
        ask(service, BY_DISTRICT, dataset="a")
        ask(service, BY_DISTRICT, dataset="b")
        assert fills(service) == 1
        assert_serves_its_own_rows(service, "b")

    def test_refresh_never_takes_another_engines_ingest_name(self):
        service = ExplanationService(config=CONFIG)
        for name in ("a", "b"):
            service.register(name, make_dataset())
            warm_all(service, name)
        service.ingest("b", [("d0", "d0v0", 2000, 9.0)] * 6)
        assert service.try_rebuild("a")
        assert service.engine("a").data_version \
            == service.engine("b").data_version == 1
        assert service.engine("a").fingerprint \
            != service.engine("b").fingerprint
        for name in ("a", "b"):
            assert_serves_its_own_rows(service, name)


class TestIntegerMeasureCells:
    def test_integer_ingest_keeps_a_float64_column(self):
        from repro.relational import deltaref
        from repro.relational.delta import Delta
        from repro.relational.shard import dataset_from_chunks
        rows = make_rows()
        chunk = {name: np.asarray([r[i] for r in rows])
                 for i, name in enumerate(SCHEMA.names)}
        dataset = dataset_from_chunks(iter([chunk]), HIERARCHIES,
                                      "severity")
        oracle = dataset_from_chunks(iter([chunk]), HIERARCHIES, "severity")
        engine = Reptile(dataset, config=CONFIG)
        deltas = [Delta.from_rows(SCHEMA, [("d0", "d0v0", 2000, 7),
                                           ("d1", "d1v1", 2001, 2)]),
                  Delta.from_rows(SCHEMA, [("d2", "d2v2", 2002, 4.5)],
                                  [("d0", "d0v0", 2000, 7)])]
        for delta in deltas:
            engine.apply_delta(delta)
            oracle = deltaref.rebuilt_dataset(oracle, [delta])
            relation = engine.dataset.relation
            relation.column("severity")  # materializes the pending rows
            column = relation._cols["severity"]
            assert column._array is not None
            assert column._array.dtype == np.float64
            deltaref.assert_groups_equal(
                engine.cube.leaf_states,
                deltaref.rebuilt_leaf_states(oracle))

    def test_csv_measure_is_a_float64_array(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("district,village,year,severity\n"
                        "d0,d0v0,2000,3\nd0,d0v1,2001,4.5\n")
        relation = Relation.from_csv(str(path), SCHEMA)
        column = relation._cols["severity"]
        assert column._array is not None
        assert column._array.dtype == np.float64
        assert relation.column("severity") == (3.0, 4.5)
        assert relation.column("year") == ("2000", "2001")


# -- the reply: per-type body, one send ------------------------------------------
def walk_payload(recommendation: Recommendation, data_version: int) -> dict:
    """The reply body as the generic ``jsonable`` walk built it."""
    def group(g: ScoredGroup) -> dict:
        return {"key": jsonable(g.key),
                "coordinates": jsonable(g.coordinates),
                "score": jsonable(g.score),
                "margin_gain": jsonable(g.margin_gain),
                "observed": jsonable(g.observed),
                "expected": jsonable(g.expected),
                "repaired_value": jsonable(g.repaired_value)}

    best = recommendation.best_group
    return {
        "data_version": data_version,
        "complaint": repr(recommendation.complaint),
        "best_hierarchy": recommendation.best_hierarchy,
        "best_group": None if best is None else group(best),
        "hierarchies": {
            name: {"attribute": rec.attribute,
                   "base_penalty": jsonable(rec.base_penalty),
                   "groups": [group(g) for g in rec.groups]}
            for name, rec in recommendation.per_hierarchy.items()}}


ODD_FLOATS = st.one_of(st.floats(-50, 50), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0]))
CELLS = st.one_of(
    st.text(max_size=4), st.integers(-5, 5), ODD_FLOATS, st.booleans(),
    st.none(), st.integers(-5, 5).map(np.int64),
    ODD_FLOATS.map(np.float64), st.integers(0, 5).map(np.int32))


@st.composite
def odd_groups(draw) -> ScoredGroup:
    key = tuple(draw(st.lists(CELLS, min_size=1, max_size=3)))
    stats = draw(st.sampled_from([("mean",), ("count", "mean", "std")]))
    return ScoredGroup(
        key, dict(zip(("a", "b", "c"), key)), draw(ODD_FLOATS),
        draw(ODD_FLOATS), {s: draw(ODD_FLOATS) for s in stats},
        {s: draw(ODD_FLOATS) for s in stats}, draw(ODD_FLOATS))


class TestReplyBody:
    @given(group_specs, st.sampled_from(AGGREGATES),
           st.sampled_from(DIRECTIONS), ODD_FLOATS, st.booleans(),
           st.integers(0, 5))
    def test_ranked_records_give_the_walks_json(self, specs, aggregate,
                                                direction, value, nan_key,
                                                version):
        view = build_view(specs, nan_key=nan_key)
        stats = ("count", "mean")
        prediction = RepairPrediction(
            stats, {k: {s: value for s in stats} for k in view.groups})
        complaint = complaint_for(aggregate, direction, target=7.5)
        with np.errstate(invalid="ignore", over="ignore"):
            base, scored = score_drilldown(view, prediction, complaint, k=4)
        rec = Recommendation(complaint, {
            "g": DrilldownRecommendation("g", "g", base, scored),
            "empty": DrilldownRecommendation("empty", "e", float("inf"))})
        assert json.dumps(recommendation_payload(rec, version)) \
            == json.dumps(walk_payload(rec, version))

    @given(st.lists(odd_groups(), max_size=4), st.lists(odd_groups(),
                                                         max_size=3),
           ODD_FLOATS, ODD_FLOATS)
    def test_any_records_give_the_walks_json(self, first, second, p1, p2):
        complaint = Complaint.should_be({"a": np.int64(3)}, "mean", 2.5)
        rec = Recommendation(complaint, {
            "h1": DrilldownRecommendation("h1", "a", p1, first),
            "h2": DrilldownRecommendation("h2", "b", p2, second)})
        assert json.dumps(recommendation_payload(rec, 9)) \
            == json.dumps(walk_payload(rec, 9))


class _CountingSocket:
    """An accepted socket that records the size of every sendall."""

    def __init__(self, sock, sends: list):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingServer(ReptileHTTPServer):
    def __init__(self, address, app):
        super().__init__(address, app)
        self.sends: list[int] = []

    def get_request(self):
        sock, address = super().get_request()
        return _CountingSocket(sock, self.sends), address


class TestOneSendPerReply:
    def test_each_reply_is_one_sendall(self):
        rows = [(f"d{d}", f"d{d}v{v:03d}", 2000 + y, float(1 + (v + y) % 9))
                for d in range(2) for v in range(120) for y in range(2)]
        service = ExplanationService(config=CONFIG)
        service.register("data", make_dataset(rows))
        server = _CountingServer(("127.0.0.1", 0), ServerApp(service))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            sizes = []
            requests = [
                ("POST", "/datasets/data/recommend",
                 {"aggregate": "mean", "coordinates": {"district": "d0"},
                  "group_by": ["district"], "k": 2}),
                ("POST", "/datasets/data/sessions",
                 {"group_by": ["district", "village"], "session_id": "s"}),
                ("GET", "/sessions/s/view", None),
                ("GET", "/healthz", None)]
            for method, path, body in requests:
                before = len(server.sends)
                conn.request(method, path, body=None if body is None
                             else json.dumps(body),
                             headers={"Content-Type": "application/json"})
                reply = conn.getresponse()
                data = reply.read()
                assert reply.status in (200, 201), data
                assert len(server.sends) - before == 1, server.sends
                sizes.append((len(data), server.sends[-1]))
            body_size, sent = sizes[2]
            assert body_size > 8 * 1024  # the view outgrows one buffer
            assert sent > body_size  # status line and headers rode along
        finally:
            conn.close()
            server.shutdown_gracefully(10)
            thread.join(10)
