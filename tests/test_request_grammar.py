"""One request grammar for both front ends.

``parse_complaint_spec`` and ``parse_delta_rows``
(``repro.serving.server``) read every complaint and every ingested row,
whether it arrives over HTTP (``ServerApp.dispatch``) or from a file
given to ``repro serve --batch`` or ``repro ingest --rows/--retract``.
One table of malformed inputs runs through both: here HTTP answers 400
and the data version does not move, and the CLI tests
(``TestServeCommand``, ``TestIngestCommand``) exit with the one line
``<command>: <reason>`` on every case. A hypothesis property checks that
the grammar answers any JSON value with a request, rows or a
``RequestError``, and nothing else.

Session ids have one source, ``ExplanationService.open_session``: a
generated id skips ids that are open, and a taken explicit id is a
conflict (HTTP 409), never a silent replacement. Every id it accepts,
and every registered dataset name, routes once percent-quoted into one
path segment.
"""

from __future__ import annotations

import json
import math
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReptileConfig
from repro.cli import _demo_dataset, main
from repro.core.complaint import Direction
from repro.serving import ExplanationService, ServerApp
from repro.serving.server import (RequestError, parse_complaint_spec,
                                  parse_delta_rows)
from repro.serving.service import ComplaintRequest, SessionExists

CONFIG = ReptileConfig(n_em_iterations=2)

# -- the malformed-input table (against the CLI's demo dataset) ---------------
COMPLAINT = {"aggregate": "mean", "direction": "too_low",
             "coordinates": {"year": 1986}, "group_by": ["year"],
             "filters": {"district": "Ofla"}}


def _without(key: str) -> dict:
    return {k: v for k, v in COMPLAINT.items() if k != key}


def _should_be(target) -> dict:
    return dict(COMPLAINT, direction="should_be", target=target)


BAD_COMPLAINTS = {
    "k-negative": dict(COMPLAINT, k=-1),  # once ranked 4 of 5 villages
    "k-zero": dict(COMPLAINT, k=0),       # once meant the default k
    "k-string": dict(COMPLAINT, k="2"),
    "k-float": dict(COMPLAINT, k=2.5),
    "k-true": dict(COMPLAINT, k=True),
    "target-true": _should_be(True),      # once served as should-be 1.0
    "target-string": _should_be("abc"),
    "target-nan": _should_be(float("nan")),
    "target-huge-int": _should_be(10 ** 400),
    "no-target": dict(COMPLAINT, direction="should_be"),
    "no-aggregate": _without("aggregate"),
    "no-coordinates": _without("coordinates"),
    "group-by-string": dict(COMPLAINT, group_by="year"),
    "filters-list": dict(COMPLAINT, filters=["district", "Ofla"]),
    "filter-value-list": dict(COMPLAINT, filters={"district": ["Ofla"]}),
    "not-an-object": "not-an-object",
}

# (rows, retract); each is None when the request leaves it out.
BAD_ROWS = {
    "measure-true": ([["Ofla", "Zata", 1986, True]], None),
    "measure-string": ([["Ofla", "Zata", 1986, "7"]], None),  # once 7.0
    "retracted-measure-null": (None, [["Ofla", "Zata", 1986, None]]),
    "list-cell": ([["Ofla", ["Zata"], 1986, 1.0]], None),
    "unmatched-retraction": (None, [["Ofla", "Zata", 1986, 99.5]]),
    "fd-breaking-append": ([["Alaje", "Zata", 1986, 1.0]], None),
    "wrong-width": ([["Ofla", "Zata"]], None),
    "missing-column": ([{"district": "Ofla", "village": "Zata",
                         "year": 1986}], None),
    "not-a-row": (["not-a-row"], None),
    "not-a-list": ("not-a-list", None),
}


@pytest.fixture
def served():
    service = ExplanationService(config=CONFIG, auto_rebuild=False)
    service.register("data", _demo_dataset())
    return service, ServerApp(service)


def one_line(exc: pytest.ExceptionInfo, command: str) -> str:
    """The message of a CLI ``SystemExit``: one line naming the command."""
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message, message
    assert message.startswith(f"{command}: "), message
    return message


@pytest.mark.parametrize("spec", BAD_COMPLAINTS.values(), ids=BAD_COMPLAINTS)
def test_http_rejects_a_malformed_complaint(served, spec):
    service, app = served
    status, _, payload = app.dispatch("POST", "/datasets/data/recommend",
                                      spec)
    assert status == 400, payload
    assert service.engine("data").data_version == 0


@pytest.mark.parametrize("rows, retract", BAD_ROWS.values(), ids=BAD_ROWS)
def test_http_rejects_malformed_rows(served, rows, retract):
    service, app = served
    body = {key: specs for key, specs
            in (("rows", rows), ("retract", retract)) if specs}
    status, _, payload = app.dispatch("POST", "/datasets/data/ingest", body)
    assert status == 400, payload
    assert service.engine("data").data_version == 0
    assert service.health.snapshot()["data"]["state"] == "healthy"


@pytest.mark.parametrize("body", [[], 0, False, "", [1]])
def test_a_body_that_is_not_an_object_answers_400(served, body):
    # A falsy one ([], 0, false, "") once read as {} and opened a session.
    service, app = served
    for path in ("/datasets/data/sessions", "/datasets/data/ingest"):
        status, _, payload = app.dispatch("POST", path, body)
        assert status == 400 and "JSON object" in payload["error"], payload
    assert service.sessions == ()


def test_cli_rejects_a_k_option_below_one():
    for command in ("serve", "ingest", "serve-http"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--k", "0"])
        assert one_line(exc, command) == f"{command}: --k must be >= 1"


# -- session ids --------------------------------------------------------------
class TestSessionIds:
    def test_open_without_id_skips_an_id_taken_by_name(self, served):
        _, app = served
        status, _, _ = app.dispatch("POST", "/datasets/data/sessions",
                                    {"session_id": "data.s1"})
        assert status == 201
        status, _, opened = app.dispatch("POST", "/datasets/data/sessions",
                                         {"group_by": ["year"]})
        assert status == 201, opened
        assert opened["session_id"] == "data.s2"
        assert opened["group_by"] == ["year"]

    def test_a_taken_explicit_id_is_a_conflict(self, served):
        service, app = served
        opened = [app.dispatch("POST", "/datasets/data/sessions", body)
                  for body in ({"session_id": "mine"}, {"group_by": ["year"]})]
        assert [status for status, _, _ in opened] == [201, 201]
        for sid in ("mine", opened[1][2]["session_id"]):  # named, generated
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"session_id": sid, "group_by": ["district"]})
            assert status == 409, payload
            assert "already open" in payload["error"]
        # Neither open session was replaced.
        assert service.session("mine").group_by == ()
        assert service.session(opened[1][2]["session_id"]).group_by \
            == ("year",)

    @pytest.mark.parametrize("sid", ["a?b", "a b", "a%2Fb", "a#b",
                                     "ok.id-1_~"])
    def test_an_id_that_needs_escapes_routes_once_quoted(self, served, sid):
        # Every id open_session accepts is one path segment once quoted;
        # these once opened (201) and then answered 404 on every route.
        service, app = served
        status, _, opened = app.dispatch(
            "POST", "/datasets/data/sessions",
            {"session_id": sid, "group_by": ["year"]})
        assert status == 201 and opened["session_id"] == sid
        path = "/sessions/" + urllib.parse.quote(sid, safe="")
        status, _, info = app.dispatch("GET", path)
        assert status == 200 and info["session_id"] == sid
        status, _, payload = app.dispatch(
            "POST", path + "/recommend",
            {"aggregate": "mean", "coordinates": {"year": 1986}})
        assert status == 200, payload
        assert app.dispatch("DELETE", path) == (200, {}, {"closed": sid})
        assert service.sessions == ()

    def test_a_dataset_name_that_needs_escapes_routes_once_quoted(self):
        service = ExplanationService(config=CONFIG)
        service.register("drought 86/87?", _demo_dataset())
        app = ServerApp(service)
        path = "/datasets/" + urllib.parse.quote("drought 86/87?", safe="")
        status, _, info = app.dispatch("GET", path)
        assert status == 200 and info["name"] == "drought 86/87?"
        status, _, opened = app.dispatch("POST", path + "/sessions", {})
        assert status == 201, opened
        assert opened["dataset"] == "drought 86/87?"
        # The generated id embeds the name, '/' included, and routes too.
        sid = urllib.parse.quote(opened["session_id"], safe="")
        assert app.dispatch("GET", "/sessions/" + sid)[0] == 200

    def test_generated_ids_never_replace_an_open_session(self):
        service = ExplanationService(config=CONFIG)
        service.register("d", _demo_dataset())
        explicit = service.open_session("d", session_id="d.s1",
                                        group_by=["year"])
        generated = [service.open_session("d") for _ in range(3)]
        assert generated == ["d.s2", "d.s3", "d.s4"]
        assert service.session(explicit).group_by == ("year",)
        assert sorted(service.sessions) == ["d.s1", "d.s2", "d.s3", "d.s4"]
        with pytest.raises(SessionExists, match="already open"):
            service.open_session("d", session_id="d.s3")
        for bad in ("", "d/s9", 5):
            with pytest.raises(ValueError, match="without '/'"):
                service.open_session("d", session_id=bad)
        assert len(service.sessions) == 4


# -- the grammar as a property ------------------------------------------------
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
COORDINATES = st.dictionaries(st.sampled_from(["year", "district"]),
                              SCALARS, max_size=2)
SPEC_FIELDS = {
    "aggregate": st.sampled_from(["count", "sum", "mean", "std", "var",
                                  "median"]),
    "direction": st.sampled_from(["too_low", "too_high", "should_be",
                                  "sideways"]),
    "coordinates": COORDINATES,
    "target": st.integers() | st.floats(),
    "group_by": st.lists(st.sampled_from(["year", "district", "village"]),
                         max_size=2),
    "filters": COORDINATES,
    "k": st.integers(min_value=-2, max_value=6),
}
# Complaint-shaped objects (each field absent, plausible, or any JSON
# value), and any JSON value at all.
SPECS = JSON | st.fixed_dictionaries(
    {}, optional={key: values | JSON for key, values in SPEC_FIELDS.items()})
ROW = (st.lists(SCALARS | JSON, min_size=3, max_size=5)
       | st.fixed_dictionaries(
           {}, optional={name: SCALARS | JSON for name in
                         ("district", "village", "year", "severity")}))
ROW_SPECS = JSON | st.none() | st.lists(ROW | JSON, max_size=3)
SCHEMA = _demo_dataset().relation.schema


@settings(max_examples=300)
@given(spec=SPECS)
def test_complaint_grammar_gives_a_request_or_a_request_error(spec):
    try:
        request = parse_complaint_spec(spec)
    except RequestError:
        return
    assert isinstance(request, ComplaintRequest)
    assert request.k is None or (type(request.k) is int and request.k >= 1)
    if request.complaint.direction is Direction.TARGET:
        assert math.isfinite(request.complaint.target)
        assert not isinstance(spec["target"], bool)


@settings(max_examples=300)
@given(specs=ROW_SPECS)
def test_row_grammar_gives_rows_or_a_request_error(specs):
    try:
        rows = parse_delta_rows(specs, SCHEMA, "severity")
    except RequestError:
        return
    assert isinstance(rows, list)
    for row in rows:
        assert type(row) is tuple and len(row) == len(SCHEMA.names)
        assert not isinstance(row[-1], bool)


# -- the routes beyond the grammar as a property ------------------------------
#: Session-shaped bodies: each field absent, plausible, or any JSON value.
SESSION_FIELDS = {
    "session_id": st.sampled_from(["s0", "s1", "a b", "a%2Fb"]),
    "group_by": st.lists(st.sampled_from(["year", "district", "village",
                                          "geo"]), max_size=2),
    "filters": COORDINATES,
    "staleness": st.sampled_from(["sync", "strict", "eventual"]),
    "hierarchy": st.sampled_from(["geo", "time", "year", "nope"]),
    "coordinates": COORDINATES,
}
BODIES = st.none() | SPECS | st.fixed_dictionaries(
    {}, optional={key: values | JSON
                  for key, values in SESSION_FIELDS.items()})
#: The session routes and refresh; ``{}`` stands for the session id.
ROUTES = (("POST", "/datasets/data/sessions"), ("GET", "/sessions/{}"),
          ("GET", "/sessions/{}/view"), ("POST", "/sessions/{}/recommend"),
          ("POST", "/sessions/{}/drill"), ("POST", "/sessions/{}/sync"),
          ("POST", "/sessions/{}/close"), ("DELETE", "/sessions/{}"),
          ("POST", "/datasets/data/refresh"))


def _positions(service: ExplanationService) -> dict:
    return {sid: (service.session(sid).group_by,
                  dict(service.session(sid).filters))
            for sid in service.sessions}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_session_routes_answer_a_4xx_that_changes_nothing(data):
    """Random request sequences over the session routes and refresh, with
    JSON-shaped bodies and ids (open ones, unknown ones, ones that need
    escapes): every answer is 200, 201, 400, 404, 405 or 409, never an
    exception, and a 4xx moves neither the data version nor any open
    session's group-by or filters."""
    service = ExplanationService(config=CONFIG, auto_rebuild=False)
    service.register("data", _demo_dataset())
    app = ServerApp(service)
    for _ in range(data.draw(st.integers(1, 8))):
        method, route = data.draw(st.sampled_from(ROUTES))
        if not data.draw(st.integers(0, 9)):  # now and then another verb
            method = data.draw(st.sampled_from(["GET", "POST", "DELETE",
                                                "PUT"]))
        sid = data.draw(st.sampled_from(list(service.sessions)
                                        + ["s0", "nope", "a b"])
                        | st.text(max_size=3))
        body = data.draw(BODIES)
        path = route.format(urllib.parse.quote(sid, safe=""))
        before = (service.engine("data").data_version, _positions(service))
        status, _, payload = app.dispatch(method, path, body)
        assert status in (200, 201, 400, 404, 405, 409), \
            (method, path, body, payload)
        if status >= 400:
            assert (service.engine("data").data_version,
                    _positions(service)) == before, (method, path, body)
