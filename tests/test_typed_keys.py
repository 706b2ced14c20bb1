"""One cell type per key column, checked where data and requests enter.

Every column but the measure holds cells of one type — ``bool``,
``int``, ``float`` or ``str`` — and never NaN, and the measure holds
numbers. A relation refuses any other cell where it is built
(``EncodingError``/``SchemaError`` naming the column); chunked builds
and auxiliary joins raise ``DatasetError``; ingest raises ``DeltaError``
(HTTP 400, ``data_version`` unchanged, the dataset healthy); complaint
coordinates, filters and drill coordinates answer 400 before any cache
lookup, so an answer with the cache on equals the answer with it off.
The demo dataset's ``year`` column holds ints, its ``district`` and
``village`` columns strings.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Complaint, Delta, DeltaError, Reptile, ReptileConfig
from repro.cli import _demo_dataset
from repro.core.session import DrillSession, SessionError
from repro.relational import (AuxiliaryDataset, DatasetError,
                              EncodingError, HierarchicalDataset, Relation,
                              Schema, SchemaError, dataset_from_chunks,
                              dimension, measure)
from repro.serving import ExplanationService, ServerApp

CONFIG = ReptileConfig(n_em_iterations=2)
COLUMN_TYPES = {"district": str, "village": str, "year": int}
#: Cells that are ==-equal to, or spell, an int year of the demo.
WRONG_YEARS = ["1984", 1984.0, True]
YEARS = list(range(1984, 1990))


def _app(dataset=None) -> tuple[ExplanationService, ServerApp]:
    service = ExplanationService(config=CONFIG, auto_rebuild=False)
    service.register("data", dataset or _demo_dataset())
    return service, ServerApp(service)


def _noted_dataset() -> HierarchicalDataset:
    """The demo dataset plus a str column ``note`` no hierarchy names."""
    demo = _demo_dataset()
    relation = demo.relation
    columns = {n: relation.column(n) for n in relation.schema.names}
    columns["note"] = ["ok"] * len(relation)
    return HierarchicalDataset(
        Relation(list(relation.schema) + ["note"], columns),
        demo.dimensions, demo.measure)


def _version(app: ServerApp) -> int:
    return app.dispatch("GET", "/datasets/data")[2]["data_version"]


def _assert_keys_typed(service: ExplanationService) -> None:
    """Every key of every by-column view has its column's type."""
    cube = service.engine("data").cube
    for column, want in COLUMN_TYPES.items():
        keys = cube.view((column,)).key_list
        assert keys and all(type(k[0]) is want for k in keys), keys


class TestPhantomGroups:
    @pytest.mark.parametrize("year", WRONG_YEARS, ids=repr)
    def test_wrong_typed_year_ingest_answers_400(self, year):
        service, app = _app()
        for body in ({"rows": [["Ofla", "Adishim", year, 5.0]]},
                     {"retract": [["Ofla", "Adishim", year, 5.0]]}):
            status, _, reply = app.dispatch(
                "POST", "/datasets/data/ingest", body)
            assert status == 400 and "'year'" in reply["error"], reply
        assert _version(app) == 0
        assert not service.health.is_degraded("data")
        keys = service.engine("data").cube.view(("year",)).key_list
        assert keys == [(y,) for y in YEARS]
        assert all(type(k[0]) is int for k in keys)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("year", WRONG_YEARS, ids=repr)
    def test_wrong_typed_request_cells_answer_400(self, year, warm):
        service, app = _app()
        by_year = {"aggregate": "mean", "group_by": ["year"],
                   "coordinates": {"year": 1986}}
        filtered = {"aggregate": "mean", "group_by": ["district"],
                    "filters": {"year": 1986},
                    "coordinates": {"district": "Ofla"}}
        status, _, reply = app.dispatch(
            "POST", "/datasets/data/sessions",
            {"session_id": "s", "group_by": ["year"]})
        assert status == 201, reply
        if warm:  # fill the memo and the view cache with the int year
            for body in (by_year, filtered):
                assert app.dispatch("POST", "/datasets/data/recommend",
                                    body)[0] == 200
            status, _, reply = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"session_id": "f", "filters": {"year": 1986}})
            assert status == 201, reply
            assert app.dispatch("GET", "/sessions/f/view")[0] == 200
            assert app.dispatch("POST", "/sessions/s/recommend",
                                {"aggregate": "mean",
                                 "coordinates": {"year": 1986}})[0] == 200
        requests = [
            ("POST", "/datasets/data/recommend",
             dict(by_year, coordinates={"year": year})),
            ("POST", "/datasets/data/recommend",
             dict(filtered, filters={"year": year})),
            ("POST", "/datasets/data/sessions", {"filters": {"year": year}}),
            ("POST", "/sessions/s/recommend",
             {"aggregate": "mean", "coordinates": {"year": year}}),
            ("POST", "/sessions/s/drill",
             {"hierarchy": "geo", "coordinates": {"year": year}}),
        ]
        for method, path, body in requests:
            status, _, reply = app.dispatch(method, path, body)
            assert status == 400 and "'year'" in reply["error"], (path,
                                                                  reply)
        assert _version(app) == 0
        assert app.dispatch("GET", "/sessions/s")[2]["group_by"] == ["year"]
        # The cache-less engine refuses the same cells.
        engine = Reptile(_demo_dataset(), config=CONFIG)
        with pytest.raises(SessionError, match="'year'"):
            engine.recommend(Complaint.too_low({"year": year}, "mean"),
                             group_by=["year"])
        with pytest.raises(SessionError, match="'year'"):
            engine.session(filters={"year": year})

    def test_measure_takes_any_number_cached_or_not(self):
        """The measure is no key column: a JSON ``7`` appends as 7.0 and
        then retracts that row, and an int retracts a row stored as a
        float, on the served engine (whose fingerprint hashed the
        measure's float64 array) and on a cache-less one alike."""
        service, app = _app()
        served = service.engine("data")
        engine = Reptile(_demo_dataset(), config=CONFIG)
        bodies = [{"rows": [["Ofla", "Zata", 1986, 7]]},
                  {"retract": [["Ofla", "Zata", 1986, 7]]},
                  {"rows": [["Alaje", "Bora", 1985, 3.0]]},
                  {"retract": [["Alaje", "Bora", 1985, 3]]}]
        for version, body in enumerate(bodies, start=1):
            status, _, reply = app.dispatch("POST", "/datasets/data/ingest",
                                            body)
            assert status == 200 and reply["version"] == version, reply
            engine.apply_delta(Delta.from_rows(
                engine.dataset.relation.schema, body.get("rows", []),
                body.get("retract", [])))
        assert engine.data_version == len(bodies)
        for bad in ("abc", "7", None):  # refused as a measure, not a row
            status, _, reply = app.dispatch(
                "POST", "/datasets/data/ingest",
                {"retract": [["Ofla", "Zata", 1986, bad]]})
            assert status == 400 and "measure 'severity'" in reply["error"]
        assert _version(app) == len(bodies)
        rows = sorted(served.dataset.relation.rows())
        assert rows == sorted(engine.dataset.relation.rows())
        assert rows == sorted(_demo_dataset().relation.rows())
        assert served.cube.leaf_keys() == engine.cube.leaf_keys()
        for stat in ("count", "total"):
            np.testing.assert_array_equal(
                getattr(served.cube.leaf_stats, stat),
                getattr(engine.cube.leaf_stats, stat))

    def test_cached_from_rows_engine_keeps_a_float_measure(self):
        """The demo is built by ``Relation.from_rows``; under the served
        (cached) engine, fresh measure values append to a float64 tail,
        and the measure column stays an uninterned float64 array."""
        service, app = _app()
        for i in range(4):
            status, _, reply = app.dispatch(
                "POST", "/datasets/data/ingest",
                {"rows": [["Ofla", "Zata", 1986, 7 + i / 8], ["Alaje",
                                                              "Bora", 1985, i]]})
            assert status == 200 and reply["version"] == i + 1, reply
        column = service.engine("data").dataset.relation._cols["severity"]
        assert column._enc is None
        assert column._array.dtype == np.float64
        assert column._array[-2:].tolist() == [7.375, 3.0]

    @pytest.mark.parametrize("cell", [["x", 1], 7, 7.5, True, None],
                             ids=repr)
    def test_cell_outside_every_hierarchy_answers_400(self, cell):
        """A column no hierarchy names is typed too: a list cell or a
        cell of another type appended to it answers 400 naming it, the
        data version stays, and the column stays encoded."""
        service, app = _app(_noted_dataset())
        status, _, reply = app.dispatch(
            "POST", "/datasets/data/ingest",
            {"rows": [["Ofla", "Zata", 1986, 5.0, cell]]})
        assert status == 400 and "'note'" in reply["error"], reply
        assert _version(app) == 0
        assert not service.health.is_degraded("data")
        relation = service.engine("data").dataset.relation
        assert relation.encoding("note").domain == ["ok"]
        assert app.dispatch("POST", "/datasets/data/ingest", {
            "rows": [["Ofla", "Zata", 1986, 5.0, "new"]]})[0] == 200

    def test_numpy_scalars_count_as_their_python_type(self):
        service, app = _app()
        engine = service.engine("data")
        rec = engine.recommend(
            Complaint.too_low({"year": np.int64(1986)}, "mean"),
            group_by=["year"])
        assert rec.best_group is not None
        engine.apply_delta(Delta.from_rows(
            engine.dataset.relation.schema,
            [("Ofla", np.str_("Zata"), np.int64(1986), 5.0)]))
        assert engine.data_version == 1
        _assert_keys_typed(service)


class TestRegistration:
    def test_str_year_auxiliary_raises_dataset_error(self):
        dataset = _demo_dataset()
        schema = Schema([dimension("year"), measure("rain")])
        for name, years in (("str", [str(y) for y in YEARS]),
                            ("float", [float(y) for y in YEARS])):
            aux = AuxiliaryDataset(
                name, Relation.from_rows(schema, [
                    (y, 10.0 * i) for i, y in enumerate(years)]),
                ["year"], ["rain"])
            with pytest.raises(DatasetError,
                               match=f"'year' with {name} cells.*int"):
                dataset.add_auxiliary(aux)
        assert dataset.auxiliary == {}
        ints = AuxiliaryDataset("rain", Relation.from_rows(schema, [
            (y, 10.0 * i) for i, y in enumerate(YEARS)]), ["year"], ["rain"])
        dataset.add_auxiliary(ints)
        assert ints.lookup()[(1985,)] == {"rain": 10.0}

    def test_chunks_giving_a_column_two_types_raise_dataset_error(self):
        def chunk(year):
            return {"district": np.array(["d0"]), "village": np.array(["v0"]),
                    "year": np.array([year]), "sev": np.array([1.0])}

        hierarchies = {"geo": ["district", "village"], "time": ["year"]}
        for other in ("2001", 2001.5, True):
            with pytest.raises(DatasetError, match="'year'"):
                dataset_from_chunks([chunk(2000), chunk(other)],
                                    hierarchies, "sev")
        dataset = dataset_from_chunks([chunk(2000), chunk(np.int32(2001))],
                                      hierarchies, "sev")
        assert dataset.relation.encoding("year").domain == [2000, 2001]

    @pytest.mark.parametrize("years, message", [
        ([1984, "1985"], "int and str"), ([1984, 1985.0], "float and int"),
        ([1984, True], "bool and int"), ([0.5, math.nan], "NaN"),
        ([None, None], "got NoneType"),
    ])
    def test_registration_names_the_column_and_both_types(self, years,
                                                          message):
        # Refused where the relation registration needs is built.
        with pytest.raises(EncodingError, match=f"'year'.*{message}"):
            Relation.from_rows(Schema([dimension("year"), measure("sev")]),
                               [(y, 1.0) for y in years])

    @pytest.mark.parametrize("cell, message", [
        ("7", "'7' is not a number"), (True, "True is not a number"),
        (None, "None is not a number")])
    def test_measure_cell_must_be_a_number(self, cell, message):
        schema = Schema([dimension("year"), measure("sev")])
        with pytest.raises(SchemaError, match=f"measure 'sev'.*{message}"):
            Relation.from_rows(schema, [(1984, 1.0), (1985, cell)])
        with pytest.raises(DeltaError, match=f"measure 'sev'.*{message}"):
            Delta.from_rows(schema, [(1984, cell)])

    def test_measure_must_be_a_measure_attribute(self):
        relation = Relation.from_rows(Schema(["year", "sev"]),
                                      [(1984, 1.0), (1985, 2.0)])
        with pytest.raises(DatasetError, match="'sev' is not a measure"):
            HierarchicalDataset.build(relation, {"time": ["year"]}, "sev")
        with pytest.raises(DatasetError, match="'sev' is not a measure"):
            AuxiliaryDataset("aux", relation, ["year"], ["sev"])


# -- every JSON scalar at every entry point --------------------------------------
JSON_SCALARS = st.one_of(
    st.text(max_size=3), st.integers(1980, 1992),
    st.integers(1980, 1992).map(float),
    st.floats(allow_nan=True, allow_infinity=False), st.booleans(),
    st.none(), st.sampled_from(["Ofla", "Zata", "Adishim"]))
POSITIONS = ("append", "retract", "coordinate", "filter", "session_filter")
#: The cell types each column of the noted dataset takes: the hierarchy
#: columns', the str column no hierarchy names, and the measure's
#: numbers (a bool is none).
CELL_TYPES = {**{c: (t,) for c, t in COLUMN_TYPES.items()},
              "note": (str,), "severity": (int, float)}

_SHARED: list = []


def _shared_app() -> tuple[ExplanationService, ServerApp]:
    if not _SHARED:
        _SHARED.append(_app(_noted_dataset()))
    return _SHARED[0]


def _request(position: str, column: str, cell) -> tuple[str, str, dict]:
    row = {"district": "Ofla", "village": "Adishim", "year": 1986,
           "severity": 5.0, "note": "ok", column: cell}
    if position in ("append", "retract"):
        key = "rows" if position == "append" else "retract"
        return "POST", "/datasets/data/ingest", {key: [row]}
    if position == "coordinate":
        return "POST", "/datasets/data/recommend", {
            "aggregate": "mean", "group_by": [column],
            "coordinates": {column: cell}}
    if position == "filter":
        return "POST", "/datasets/data/recommend", {
            "aggregate": "mean", "group_by": ["district"],
            "filters": {column: cell}, "coordinates": {"district": "Ofla"}}
    return "POST", "/datasets/data/sessions", {"filters": {column: cell}}


@st.composite
def scalar_requests(draw) -> tuple[str, str, object]:
    """A column, a position it can take a cell at (a column no hierarchy
    names, and the measure, only in ingested rows) and a JSON scalar."""
    column = draw(st.sampled_from(sorted(CELL_TYPES)))
    positions = POSITIONS if column in COLUMN_TYPES \
        else ("append", "retract")
    return column, draw(st.sampled_from(positions)), draw(JSON_SCALARS)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scalar_requests())
def test_any_json_scalar_answers_200_only_when_typed(request):
    column, position, cell = request
    service, app = _shared_app()
    before = _version(app)
    typed = type(cell) in CELL_TYPES[column]
    status, _, reply = app.dispatch(*_request(position, column, cell))
    if status in (200, 201):
        assert typed, (position, column, cell)
        if status == 201:
            app.dispatch("DELETE", f"/sessions/{reply['session_id']}")
    else:
        assert status == 400, reply
        assert _version(app) == before
    if not typed:
        assert status == 400 and f"'{column}'" in reply["error"], reply
    assert not service.health.is_degraded("data")
    _assert_keys_typed(service)
    relation = service.engine("data").dataset.relation
    assert relation.encoding("note").cell_type is str
    assert relation.measure_array("severity").dtype == np.float64


# -- sessions: an ingest walks none of them -----------------------------------------
def test_ingest_walks_no_open_session(monkeypatch):
    service, app = _app()
    for i in range(1000):
        service.open_session("data", session_id=f"s{i}", group_by=["year"],
                             staleness="strict" if i % 2 else "sync")
    calls = []
    real_sync = DrillSession.sync
    monkeypatch.setattr(DrillSession, "sync",
                        lambda self: calls.append(self) or real_sync(self))
    status, _, _ = app.dispatch("POST", "/datasets/data/ingest",
                                {"rows": [["Ofla", "Zata", 1986, 5.0]]})
    assert status == 200
    assert app.dispatch("POST", "/datasets/data/refresh")[0] == 200
    assert calls == []
    status, _, info = app.dispatch("GET", "/sessions/s0")
    assert (info["staleness"], info["data_version"], info["stale"]) \
        == ("sync", 2, False)
    status, _, info = app.dispatch("GET", "/sessions/s1")
    assert (info["staleness"], info["data_version"], info["stale"]) \
        == ("strict", 0, True)
    assert app.dispatch("GET", "/sessions/s1/view")[0] == 409
    assert app.dispatch("POST", "/sessions/s1/sync")[0] == 200
    status, _, info = app.dispatch("GET", "/sessions/s1")
    assert (info["data_version"], info["stale"]) == (2, False)
    status, _, view = app.dispatch("GET", "/sessions/s0/view")
    assert status == 200 and view["data_version"] == 2
