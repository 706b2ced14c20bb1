"""Concurrency suite for the HTTP serving front end.

Three layers of evidence that concurrent serving is safe:

* **Stress** — N reader threads (views + recommendations) race M ingest
  threads over shared datasets through the real :class:`ServerApp`
  dispatch path. Every response must be internally consistent (all
  aggregates from a single ``data_version`` — checked against a
  per-version oracle built from the recorded deltas), no thread may
  deadlock (hard join timeouts), and the final state must equal the
  ``deltaref`` rebuild-from-scratch oracle bitwise.
* **Deterministic races** — the ``race`` fixture (tests/conftest.py)
  parks threads at named lock-boundary trace points, pinning the
  interleavings that matter: an ingest arriving while a reader is
  mid-drill, writer preference over a reader convoy, and two threads
  racing a first-touch cache fill.
* **Transport** — real-socket HTTP round trips (keep-alive replies
  without the Nagle/delayed-ACK stall, request heads and bodies that
  cannot be framed refused, and a hypothesis framing fuzz writing random
  heads and bodies to the socket), overload answers (429/503 +
  Retry-After), strict staleness over HTTP (409), and graceful shutdown
  draining an in-flight request.
* **Group commit** — cross-request batching pinned at its trace points:
  same-view requests share the queued pass, other views never wait on
  it, a failed pass fails only its own callers, and a queued pass that
  times out frees its key.

Severities are integer-valued so float sums are bitwise exact.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.parse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Complaint, Reptile
from repro.relational import (HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.relational.delta import Delta
from repro.relational.deltaref import apply_delta_rows
from repro.robustness.faultinject import faults
from repro.serving import ExplanationService, ServerApp, serve_http
from repro.serving.concurrency import BatchWindow, LockTimeout

JOIN_TIMEOUT = 30.0


# -- workload helpers ------------------------------------------------------------
def make_dataset(seed: int, districts: int = 2, villages: int = 3,
                 years: int = 3, rows_per_cell: int = 3
                 ) -> HierarchicalDataset:
    rng = np.random.default_rng(seed)
    rows = []
    for d in range(districts):
        for v in range(villages):
            for y in range(years):
                for _ in range(rows_per_cell):
                    rows.append((f"d{d}", f"d{d}v{v}", 2000 + y,
                                 float(rng.integers(1, 10))))
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation, {"geo": ["district", "village"], "time": ["year"]},
        "severity")


def delta_rows(rng: np.random.Generator, tag: str, n: int) -> list[dict]:
    """Appends under a fresh village (FD-safe: new village, one district)."""
    district = f"d{int(rng.integers(0, 2))}"
    village = f"{district}x{tag}"
    return [{"district": district, "village": village,
             "year": int(2000 + rng.integers(0, 3)),
             "severity": float(rng.integers(1, 10))} for _ in range(n)]


def make_app(seed: int, **kwargs) -> ServerApp:
    service = ExplanationService()
    service.register("data", make_dataset(seed))
    return ServerApp(service, **kwargs)


def base_totals(dataset: HierarchicalDataset) -> tuple[int, float]:
    relation = dataset.relation
    return len(relation), float(sum(relation.column("severity")))


def wait_until(predicate, what: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def read_reply(fp) -> tuple[int, dict, dict] | None:
    """One framed reply from the socket file ``fp``: ``(status, headers,
    JSON body)``, interim 1xx replies skipped; None once the server has
    closed the connection. A reply must carry a ``Content-Length`` and
    as many body bytes."""
    while True:
        try:
            line = fp.readline(65537)
        except (ConnectionResetError, BrokenPipeError):
            return None  # closed with unread request bytes still queued
        if not line:
            return None
        version, status = line.split(b" ", 2)[:2]
        assert version == b"HTTP/1.1", line
        headers = {}
        while (field := fp.readline(65537)) != b"\r\n":
            assert field, "the reply ended inside its head"
            name, _, value = field.partition(b":")
            headers[name.decode().lower()] = value.strip().decode()
        if not 100 <= int(status) < 200:
            break
    body = fp.read(int(headers["content-length"]))
    assert len(body) == int(headers["content-length"]), body
    return int(status), headers, json.loads(body)


def run_threads(threads: list[threading.Thread]) -> None:
    """Start, join with a hard deadline, and fail loudly on a hang."""
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"deadlocked threads: {hung}"


class Oracle:
    """Per-``data_version`` expected whole-relation totals.

    Ingest threads register each applied delta under the version the
    server reported; readers then check that the totals of *their*
    response match the cumulative totals at exactly that version — a
    response mixing two versions cannot match any single entry.
    """

    def __init__(self, dataset: HierarchicalDataset):
        self._lock = threading.Lock()
        self._contrib: dict[int, tuple[int, float]] = {}
        self.base = base_totals(dataset)

    def record(self, version: int, rows: list[dict]) -> None:
        add = (len(rows), float(sum(r["severity"] for r in rows)))
        with self._lock:
            assert version not in self._contrib, (
                f"two deltas claimed version {version}")
            self._contrib[version] = add

    def expected(self, version: int) -> tuple[int, float]:
        count, total = self.base
        with self._lock:
            for v, (dc, ds) in self._contrib.items():
                if v <= version:
                    count, total = count + dc, total + ds
        return count, total


def response_totals(payload: dict) -> tuple[int, float]:
    groups = payload["groups"]
    return (sum(g["count"] for g in groups),
            float(sum(g["sum"] for g in groups)))


# -- stress ----------------------------------------------------------------------
class TestStress:
    def _stress(self, seed: int, n_readers: int, n_ingesters: int,
                reads: int, ingests: int, recommend_every: int = 0
                ) -> None:
        app = make_app(seed)
        engine = app.service.engine("data")
        oracle = Oracle(engine.dataset)
        failures: list[str] = []
        deltas: dict[int, list[dict]] = {}
        deltas_lock = threading.Lock()
        deferred: list[tuple[int, tuple[int, float]]] = []

        def check(ok: bool, message: str) -> None:
            if not ok:
                failures.append(message)

        def reader(i: int) -> None:
            status, _, opened = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"group_by": ["district"], "session_id": f"r{i}"})
            check(status == 201, f"open_session -> {status}: {opened}")
            last_version = -1
            for j in range(reads):
                status, _, payload = app.dispatch(
                    "GET", f"/sessions/r{i}/view")
                check(status == 200, f"view -> {status}: {payload}")
                if status != 200:
                    return
                version = payload["data_version"]
                check(version >= last_version,
                      f"session r{i} went backwards: "
                      f"{last_version} -> {version}")
                last_version = version
                got = response_totals(payload)
                if got != oracle.expected(version):
                    # An ingester records its delta only after its call
                    # returns, so the oracle may briefly lag the version
                    # this reader just saw. Re-checked after the join,
                    # once every delta is registered.
                    with deltas_lock:
                        deferred.append((version, got))
                if recommend_every and j % recommend_every == 0:
                    status, _, rec = app.dispatch(
                        "POST", f"/sessions/r{i}/recommend",
                        {"aggregate": "mean", "direction": "too_low",
                         "coordinates": {"district": "d0"}, "k": 2})
                    check(status == 200, f"recommend -> {status}: {rec}")
                    if status == 200:
                        check(rec["data_version"] >= last_version,
                              "recommend saw an older version than the "
                              "session's previous request")
                        last_version = rec["data_version"]

        def ingester(i: int) -> None:
            rng = np.random.default_rng(1000 * seed + i)
            for j in range(ingests):
                rows = delta_rows(rng, f"i{i}n{j}", int(rng.integers(1, 4)))
                status, _, payload = app.dispatch(
                    "POST", "/datasets/data/ingest", {"rows": rows})
                check(status == 200, f"ingest -> {status}: {payload}")
                if status != 200:
                    return
                oracle.record(payload["version"], rows)
                with deltas_lock:
                    deltas[payload["version"]] = rows

        run_threads(
            [threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
             for i in range(n_readers)] +
            [threading.Thread(target=ingester, args=(i,),
                              name=f"ingester-{i}")
             for i in range(n_ingesters)])
        assert not failures, failures[:10]
        torn = [(v, got) for v, got in deferred
                if got != oracle.expected(v)]
        assert not torn, f"torn reads: {torn[:10]}"

        # Final state: the live relation equals the rebuild-from-scratch
        # oracle applying the recorded deltas in version order.
        relation = engine.dataset.relation
        rebuilt = make_dataset(seed).relation
        schema = rebuilt.schema
        for _, rows in sorted(deltas.items()):
            delta = Delta.from_rows(
                schema, [tuple(r[n] for n in schema.names) for r in rows])
            rebuilt = apply_delta_rows(rebuilt, delta)
        assert sorted(map(tuple, relation.rows())) \
            == sorted(map(tuple, rebuilt.rows()))
        # And the served view agrees with the rebuilt rows, group by group.
        status, _, payload = app.dispatch("GET", "/sessions/r0/view")
        assert status == 200
        expected: dict[str, tuple[int, float]] = {}
        for row in rebuilt.rows():
            row = tuple(row)
            c, s = expected.get(row[0], (0, 0.0))
            expected[row[0]] = (c + 1, s + row[3])
        got = {g["key"][0]: (g["count"], g["sum"])
               for g in payload["groups"]}
        assert got == expected

    def test_readers_race_ingesters(self):
        """The full-size stress run: recommends + views vs ingest bursts."""
        self._stress(seed=0, n_readers=4, n_ingesters=2, reads=12,
                     ingests=4, recommend_every=4)

    @pytest.mark.parametrize("seed", range(50))
    def test_many_seeds_views_vs_ingest(self, seed: int):
        """50 distinct schedules of the compact stress workload."""
        self._stress(seed=seed, n_readers=2, n_ingesters=1, reads=4,
                     ingests=2)

    def test_append_then_retract_round_trips(self):
        app = make_app(3)
        rows = delta_rows(np.random.default_rng(3), "rt", 3)
        before = sorted(map(tuple,
                            app.service.engine("data").dataset.relation.rows()))
        status, _, _ = app.dispatch("POST", "/datasets/data/ingest",
                                    {"rows": rows})
        assert status == 200
        status, _, payload = app.dispatch("POST", "/datasets/data/ingest",
                                          {"retract": rows})
        assert status == 200 and payload["retracted"] == 3
        after = sorted(map(tuple,
                           app.service.engine("data").dataset.relation.rows()))
        assert after == before


# -- deterministic races ---------------------------------------------------------
class TestPinnedInterleavings:
    def test_ingest_waits_for_inflight_read(self, race):
        """A reader parked mid-request blocks the writer; the reader's
        response is computed entirely at the pre-ingest version."""
        app = make_app(1)
        app.dispatch("POST", "/datasets/data/sessions",
                     {"group_by": ["district"], "session_id": "r"})
        oracle = Oracle(app.service.engine("data").dataset)
        results: dict[str, object] = {}

        race.gate("rw.read_acquired")
        reader = threading.Thread(
            name="reader",
            target=lambda: results.__setitem__(
                "view", app.dispatch("GET", "/sessions/r/view")))
        reader.start()
        race.wait_parked("rw.read_acquired", 1)

        rows = delta_rows(np.random.default_rng(1), "w", 2)
        writer = threading.Thread(
            name="writer",
            target=lambda: results.__setitem__(
                "ingest", app.dispatch("POST", "/datasets/data/ingest",
                                       {"rows": rows})))
        writer.start()
        lock = app.service.locks.for_dataset("data")
        deadline = time.monotonic() + 5.0
        while lock.writers_waiting < 1:
            assert time.monotonic() < deadline, "writer never reached lock"
            time.sleep(0.002)
        # The writer stands at the lock; the reader still holds it, so
        # the data version cannot have moved.
        assert lock.readers == 1 and not lock.writer_active
        assert app.service.engine("data").data_version == 0
        assert "ingest" not in results

        race.release("rw.read_acquired")
        reader.join(JOIN_TIMEOUT)
        writer.join(JOIN_TIMEOUT)
        assert not reader.is_alive() and not writer.is_alive()

        status, _, view = results["view"]
        assert status == 200 and view["data_version"] == 0
        assert response_totals(view) == oracle.expected(0)
        status, _, ingest = results["ingest"]
        assert status == 200 and ingest["version"] == 1

    def test_writer_preference_over_late_reader(self, race):
        """reader1 holds the lock, a writer waits, reader2 arrives: the
        writer goes first, so reader2 deterministically sees version 1."""
        app = make_app(2)
        for sid in ("r1", "r2"):
            app.dispatch("POST", "/datasets/data/sessions",
                         {"group_by": ["district"], "session_id": sid})
        # Warm both sessions so reader2's request needs no cache fill.
        assert app.dispatch("GET", "/sessions/r1/view")[0] == 200
        assert app.dispatch("GET", "/sessions/r2/view")[0] == 200
        results: dict[str, object] = {}

        race.gate("rw.read_acquired")
        reader1 = threading.Thread(
            name="reader1",
            target=lambda: results.__setitem__(
                "r1", app.dispatch("GET", "/sessions/r1/view")))
        reader1.start()
        race.wait_parked("rw.read_acquired", 1)

        rows = delta_rows(np.random.default_rng(2), "w", 2)
        writer = threading.Thread(
            name="writer",
            target=lambda: results.__setitem__(
                "ingest", app.dispatch("POST", "/datasets/data/ingest",
                                       {"rows": rows})))
        writer.start()
        lock = app.service.locks.for_dataset("data")
        deadline = time.monotonic() + 5.0
        while lock.writers_waiting < 1:
            assert time.monotonic() < deadline, "writer never reached lock"
            time.sleep(0.002)

        read_waits = race.hits("rw.read_wait")
        reader2 = threading.Thread(
            name="reader2",
            target=lambda: results.__setitem__(
                "r2", app.dispatch("GET", "/sessions/r2/view")))
        reader2.start()
        deadline = time.monotonic() + 5.0
        while race.hits("rw.read_wait") < read_waits + 1:
            assert time.monotonic() < deadline, "reader2 never reached lock"
            time.sleep(0.002)

        race.release("rw.read_acquired")
        for t in (reader1, writer, reader2):
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), f"{t.name} hung"

        assert results["r1"][2]["data_version"] == 0
        assert results["ingest"][2]["version"] == 1
        assert results["r2"][2]["data_version"] == 1

    def test_concurrent_first_touch_fill(self, race):
        """Two threads race the same cold cache key: both compute (the
        fill runs unlocked by design), results agree, one entry lands."""
        app = make_app(4)
        for sid in ("a", "b"):
            app.dispatch("POST", "/datasets/data/sessions",
                         {"group_by": ["district"], "session_id": sid})
        results: dict[str, object] = {}

        race.gate("cache.fill", count=2)
        threads = [
            threading.Thread(
                name=f"fill-{sid}",
                target=lambda sid=sid: results.__setitem__(
                    sid, app.dispatch("GET", f"/sessions/{sid}/view")))
            for sid in ("a", "b")]
        for t in threads:
            t.start()
        # Both threads miss (neither has stored yet) and park at the
        # fill boundary — the double-fill interleaving, pinned.
        race.wait_parked("cache.fill", 2)
        race.release("cache.fill", 2)
        for t in threads:
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive()

        assert race.hits("cache.fill") == 2
        sa, _, va = results["a"]
        sb, _, vb = results["b"]
        assert sa == sb == 200
        assert va["groups"] == vb["groups"]
        # Last write wins: exactly one view entry for the shared key.
        view_keys = [k for k in app.service.cache.keys()
                     if isinstance(k, tuple) and k and k[0] == "view"]
        assert len(view_keys) == 1
        # And the key is now warm: no third fill on the next request.
        assert app.dispatch("GET", "/sessions/a/view")[0] == 200
        assert race.hits("cache.fill") == 2


# -- transport, overload, batching, shutdown --------------------------------------
class TestTransport:
    def test_http_round_trip(self):
        service = ExplanationService()
        service.register("data", make_dataset(5))
        server, thread = serve_http(service)
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/datasets/data/sessions",
                         json.dumps({"group_by": ["district"],
                                     "session_id": "web"}))
            reply = conn.getresponse()
            opened = json.loads(reply.read())
            assert reply.status == 201 and opened["session_id"] == "web"
            conn.request("GET", "/sessions/web/view")
            reply = conn.getresponse()
            view = json.loads(reply.read())
            assert reply.status == 200 and view["data_version"] == 0
            assert view["groups"]
            conn.request("GET", "/stats")
            reply = conn.getresponse()
            stats = json.loads(reply.read())
            assert reply.status == 200
            assert stats["endpoints"]["view"]["count"] == 1
            conn.close()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()

    def test_delete_session_over_keep_alive(self):
        """DELETE /sessions/{id} over a real socket closes the session; a
        recommend on it, sent over the same keep-alive connection, answers
        404 and leaves the connection framed for the next request."""
        service = ExplanationService()
        service.register("data", make_dataset(5))
        server, thread = serve_http(service, port=0)
        try:
            url = urllib.parse.urlsplit(server.url)
            assert url.port == server.server_address[1] != 0
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10)
            conn.request("POST", "/datasets/data/sessions",
                         json.dumps({"group_by": ["district"],
                                     "session_id": "gone"}))
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 201
            sock = conn.sock
            conn.request("DELETE", "/sessions/gone")
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read()) == {"closed": "gone"}
            conn.request("POST", "/sessions/gone/recommend",
                         json.dumps({"aggregate": "mean",
                                     "direction": "too_low",
                                     "coordinates": {"district": "d0"}}))
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            assert reply.status == 404 and "error" in payload
            assert reply.getheader("Connection") != "close"
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200
            assert conn.sock is sock  # one connection throughout
            assert service.sessions == ()
            conn.close()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()

    def test_escaped_session_ids_over_keep_alive(self):
        """Ids that need percent-escapes route over a real socket: each
        opens, answers its view at the quoted path and closes, all on
        one keep-alive connection."""
        service = ExplanationService()
        service.register("data", make_dataset(5))
        server, thread = serve_http(service)
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            socks = set()
            for sid in ("a?b", "a b", "a%2Fb", "a#b"):
                conn.request("POST", "/datasets/data/sessions",
                             json.dumps({"group_by": ["district"],
                                         "session_id": sid}))
                reply = conn.getresponse()
                assert reply.status == 201
                assert json.loads(reply.read())["session_id"] == sid
                path = "/sessions/" + urllib.parse.quote(sid, safe="")
                conn.request("GET", path + "/view")
                reply = conn.getresponse()
                view = json.loads(reply.read())
                assert reply.status == 200 and view["groups"], view
                conn.request("DELETE", path)
                reply = conn.getresponse()
                assert reply.status == 200
                assert json.loads(reply.read()) == {"closed": sid}
                socks.add(conn.sock)
            assert len(socks) == 1  # one connection throughout
            assert service.sessions == ()
            conn.close()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()

    def test_keep_alive_reply_over_8k_has_no_ack_stall(self):
        """A reply larger than 8 KiB over one keep-alive connection comes
        back in milliseconds: the accepted socket sets TCP_NODELAY, so
        the body does not wait for the client's delayed ACK of the
        headers (~40 ms with Nagle on, a buffered writer included)."""
        service = ExplanationService()
        service.register("data", make_dataset(12, districts=8, villages=12))
        server, thread = serve_http(service)
        accepted: list[socket.socket] = []
        get_request = server.get_request

        def recording_get_request():
            request, address = get_request()
            accepted.append(request)
            return request, address

        server.get_request = recording_get_request
        seconds = []
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/datasets/data/sessions",
                         json.dumps({"group_by": ["district", "village"],
                                     "session_id": "wide"}))
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 201
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/sessions/wide/view")
                reply = conn.getresponse()
                body = reply.read()
                seconds.append(time.perf_counter() - start)
                assert reply.status == 200 and len(body) > 8192
            nodelay = accepted[0].getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY)
            conn.close()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)
        assert len(accepted) == 1 and nodelay != 0
        assert statistics.median(seconds) < 0.020, seconds

    @pytest.mark.parametrize("framing, body, status, keeps_open", [
        pytest.param(b"Content-Length: -1", b'{"group_by": ["district"]}',
                     400, False, id="negative-length"),
        pytest.param(b"Content-Length: abc", b'{"group_by": ["district"]}',
                     400, False, id="non-numeric-length"),
        pytest.param(b"Transfer-Encoding: chunked",
                     b'1a\r\n{"group_by": ["district"]}\r\n0\r\n\r\n',
                     411, False, id="chunked"),
        pytest.param(b"Content-Length: 1", b"\xff", 400, True,
                     id="non-utf8-body"),
    ])
    def test_unframeable_request_bodies_are_refused(self, framing, body,
                                                    status, keeps_open):
        """A body the handler cannot frame answers 4xx and hangs up (the
        stream cannot be re-synchronised); a framed body that does not
        decode answers 400 and keeps the connection. None opens a
        session."""
        service = ExplanationService()
        service.register("data", make_dataset(13))
        server, thread = serve_http(service)
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=5) as sock:
                sock.sendall(b"POST /datasets/data/sessions HTTP/1.1\r\n"
                             b"Host: test\r\n" + framing + b"\r\n\r\n"
                             + body)
                reply = http.client.HTTPResponse(sock)
                reply.begin()
                payload = json.loads(reply.read())
                assert reply.status == status, payload
                assert "error" in payload
                if keeps_open:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                                 b"Host: test\r\n\r\n")
                    health = http.client.HTTPResponse(sock)
                    health.begin()
                    health.read()
                    assert health.status == 200
                else:
                    assert reply.getheader("Connection") == "close"
                    try:
                        assert sock.recv(1) == b""
                    except ConnectionResetError:
                        pass  # closed with the unread body still queued
            assert service.sessions == ()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)

    @pytest.mark.parametrize("request_line, fields, status", [
        pytest.param(b"POST /datasets/data/sessions", [], 400,
                     id="http-0.9"),
        pytest.param(b"POST /datasets/data/sessions HTTP/2.0", [], 400,
                     id="http-2.0"),
        pytest.param(b"POST /datasets/data/sessions HTTP/1.1 x", [], 400,
                     id="extra-word"),
        pytest.param(b"PUT /datasets/data/sessions HTTP/1.1", [], 405,
                     id="unknown-method"),
        pytest.param(None, [b"X-A: 1", b" folded"], 400, id="obs-fold"),
        pytest.param(None, [b"X-A: 1", b"\tfolded"], 400, id="obs-fold-tab"),
        pytest.param(None, [b"NoColon"], 400, id="no-colon"),
        pytest.param(None, [b"Host : x"], 400, id="space-before-colon"),
        pytest.param(None, [b"Content-Length: 2", b"Content-Length: 3"],
                     400, id="conflicting-lengths"),
        pytest.param(None, [b"X-Long: " + b"a" * 65536], 431,
                     id="long-line"),
        pytest.param(None, [b"X-N: n"] * 100, 431, id="101-lines"),
    ])
    def test_malformed_heads_are_refused(self, request_line, fields,
                                         status):
        """A head the handler will not read answers 4xx with a status
        line, closes the connection and opens no session. At the
        email-parser reader, obs-fold, ``Host : x`` and conflicting
        lengths answered 200 or 201; 99 fields still read."""
        service = ExplanationService()
        service.register("data", make_dataset(15))
        server, thread = serve_http(service)
        body = b'{"group_by": ["district"]}'
        head = [request_line or b"POST /datasets/data/sessions HTTP/1.1",
                *fields, b"Content-Length: %d" % len(body)]
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=10) as sock:
                sock.sendall(b"\r\n".join(head) + b"\r\n\r\n" + body)
                with sock.makefile("rb") as fp:
                    got, headers, payload = read_reply(fp)
                    assert (got, "error" in payload) == (status, True), \
                        payload
                    assert headers["connection"] == "close"
                    assert read_reply(fp) is None
            assert service.sessions == ()
            with socket.create_connection(server.server_address[:2],
                                          timeout=10) as sock:
                sock.sendall(b"\r\n".join(head[:1] + [b"X-N: n"] * 98
                                          + head[-1:]) + b"\r\n\r\n"
                             + body)  # 99 fields and the blank line: read
                with sock.makefile("rb") as fp:
                    got, _, _ = read_reply(fp)
            assert got == (201 if request_line is None else status)
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)

    def test_random_heads_and_bodies_are_framed_or_refused(self):
        """The framing fuzz: random request lines, header fields and
        bodies written to a socket. Each first reply is framed, and a
        2xx or 4xx or a degraded 503; then the connection answers a
        following ``GET /healthz`` or closes. No reply takes longer
        than the 10 s socket timeout, and a refused request opens no
        session."""
        service = ExplanationService()
        service.register("data", make_dataset(14))
        server, thread = serve_http(service)

        @given(raw_requests())
        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def exchange(case):
            data, half_close = case
            before = set(service.sessions)
            with socket.create_connection(server.server_address[:2],
                                          timeout=10) as sock, \
                    sock.makefile("rb") as fp:
                try:
                    sock.sendall(data)
                    if half_close:  # the body is short: end the stream
                        sock.shutdown(socket.SHUT_WR)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # refused and closed before the rest was sent
                replies = [read_reply(fp)]
                assert replies[0] is not None, "closed without a reply"
                if not half_close:
                    try:
                        sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                                     b"Host: t\r\n\r\n")
                    except (BrokenPipeError, ConnectionResetError):
                        pass
                while replies[-1] is not None \
                        and "status" not in replies[-1][2]:
                    assert len(replies) < 4, replies
                    replies.append(read_reply(fp))
            for status, _, payload in filter(None, replies):
                assert 200 <= status < 500 or (
                    status == 503 and payload.get("degraded") is True), \
                    (status, payload)
            opened = set(service.sessions) - before
            assert len(opened) == (replies[0][0] == 201), replies
            for sid in opened:
                service.close_session(sid)

        try:
            exchange()
        finally:
            assert server.shutdown_gracefully(JOIN_TIMEOUT)
            thread.join(JOIN_TIMEOUT)

    def test_graceful_shutdown_drains_inflight_request(self, race):
        service = ExplanationService()
        service.register("data", make_dataset(6))
        server, thread = serve_http(service)
        app = server.app
        host, port = server.server_address[:2]
        app.dispatch("POST", "/datasets/data/sessions",
                     {"group_by": ["district"], "session_id": "s"})
        results: dict[str, object] = {}

        race.gate("cache.fill")

        def slow_request() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/sessions/s/view")
            reply = conn.getresponse()
            results["status"] = reply.status
            results["body"] = json.loads(reply.read())
            conn.close()

        client = threading.Thread(target=slow_request, name="client")
        client.start()
        race.wait_parked("cache.fill", 1)

        done: dict[str, bool] = {}
        stopper = threading.Thread(
            name="stopper",
            target=lambda: done.__setitem__(
                "drained", server.shutdown_gracefully(JOIN_TIMEOUT)))
        stopper.start()
        # Draining now: dispatch-level requests are refused...
        deadline = time.monotonic() + 5.0
        while not app.draining:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        status, headers, _ = app.dispatch("GET", "/sessions/s/view")
        assert status == 503 and "Retry-After" in headers
        # ...but the parked in-flight request completes once released.
        race.release("cache.fill")
        for t in (client, stopper):
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), f"{t.name} hung"
        assert done["drained"] is True
        assert results["status"] == 200
        assert results["body"]["data_version"] == 0
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive()

    def test_overload_answers_429_with_retry_after(self, race):
        app = make_app(7, max_concurrent=1, max_queue=0)
        app.dispatch("POST", "/datasets/data/sessions",
                     {"group_by": ["district"], "session_id": "s"})
        race.gate("cache.fill")
        results: dict[str, object] = {}
        holder = threading.Thread(
            name="holder",
            target=lambda: results.__setitem__(
                "held", app.dispatch("GET", "/sessions/s/view")))
        holder.start()
        race.wait_parked("cache.fill", 1)
        # The single worker slot is occupied and the queue is zero-length:
        # the next query is rejected immediately, cheaply.
        status, headers, payload = app.dispatch("GET", "/sessions/s/view")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert payload["retry_after"] >= 1
        # Health and stats stay available on a saturated server.
        assert app.dispatch("GET", "/healthz")[0] == 200
        assert app.dispatch("GET", "/stats")[0] == 200
        race.release("cache.fill")
        holder.join(JOIN_TIMEOUT)
        assert not holder.is_alive()
        assert results["held"][0] == 200
        assert app.admission.stats()["rejected"] == 1

    def test_queue_timeout_answers_503(self, race):
        app = make_app(8, max_concurrent=1, max_queue=4,
                       queue_timeout=0.05)
        app.dispatch("POST", "/datasets/data/sessions",
                     {"group_by": ["district"], "session_id": "s"})
        race.gate("cache.fill")
        results: dict[str, object] = {}
        holder = threading.Thread(
            name="holder",
            target=lambda: results.__setitem__(
                "held", app.dispatch("GET", "/sessions/s/view")))
        holder.start()
        race.wait_parked("cache.fill", 1)
        status, headers, _ = app.dispatch("GET", "/sessions/s/view")
        assert status == 503 and "Retry-After" in headers
        race.release("cache.fill")
        holder.join(JOIN_TIMEOUT)
        assert not holder.is_alive()
        assert app.admission.stats()["timed_out"] == 1

    def test_strict_session_conflicts_then_syncs_over_http(self):
        app = make_app(10)
        status, _, opened = app.dispatch(
            "POST", "/datasets/data/sessions",
            {"group_by": ["district"], "session_id": "strict",
             "staleness": "strict"})
        assert status == 201 and opened["staleness"] == "strict"
        assert app.dispatch("GET", "/sessions/strict/view")[0] == 200
        rows = delta_rows(np.random.default_rng(10), "s", 2)
        assert app.dispatch("POST", "/datasets/data/ingest",
                            {"rows": rows})[0] == 200
        status, _, payload = app.dispatch("GET", "/sessions/strict/view")
        assert status == 409
        assert payload["pinned"] == 0 and payload["current"] == 1
        status, _, synced = app.dispatch("POST", "/sessions/strict/sync")
        assert status == 200 and synced["data_version"] == 1
        status, _, view = app.dispatch("GET", "/sessions/strict/view")
        assert status == 200 and view["data_version"] == 1

    def test_request_validation(self):
        app = make_app(11)
        assert app.dispatch("GET", "/nope")[0] == 404
        assert app.dispatch("POST", "/healthz")[0] == 405
        assert app.dispatch("GET", "/sessions/ghost/view")[0] == 404
        assert app.dispatch("POST", "/datasets/ghost/ingest",
                            {"rows": []})[0] == 404
        for sid in ("a/b", 5):
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/sessions", {"session_id": sid})
            assert status == 400, (sid, payload)
            assert "'session_id' must be a non-empty string without '/'" \
                in payload["error"], (sid, payload)
        # Session filters map attributes to scalars: a list or an object
        # answers 400 and opens no session.
        for filters in ({"district": ["d0"]}, {"district": {"a": "d0"}}):
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"session_id": "f", "filters": filters})
            assert status == 400 and "filters" in payload["error"], payload
            assert app.dispatch("GET", "/sessions/f")[0] == 404
        status, _, payload = app.dispatch(
            "POST", "/datasets/data/recommend", {"aggregate": "mean"})
        assert status == 400 and "coordinates" in payload["error"]
        # A JSON boolean is not a number: neither a k nor a target. A
        # target must be finite too (JSON NaN/Infinity, or 1e400 -> inf).
        complaint = {"aggregate": "mean", "coordinates": {"district": "d0"},
                     "group_by": ["district"]}
        for extra in ({"k": True},
                      {"direction": "should_be", "target": True},
                      {"direction": "should_be", "target": float("nan")},
                      {"direction": "should_be", "target": float("inf")},
                      {"direction": "should_be", "target": float("-inf")}):
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/recommend", dict(complaint, **extra))
            assert status == 400, (extra, payload)
        status, _, payload = app.dispatch(
            "POST", "/datasets/data/ingest", {})
        assert status == 400
        # A rejected drill answers 400 and leaves the session as it was.
        status, _, before = app.dispatch(
            "POST", "/datasets/data/sessions",
            {"session_id": "v", "group_by": ["district"]})
        assert status == 201
        bad_drills = [{"hierarchy": "geo", "coordinates": {"nonexistent": 1}},
                      {"hierarchy": "geo", "coordinates": {"severity": 1}},
                      {"hierarchy": "geo",
                       "coordinates": {"district": ["d0"]}},
                      {"hierarchy": "geo",
                       "coordinates": {"district": {"a": "d0"}}},
                      ["geo"], "geo", 3, True]
        for body in bad_drills:
            status, _, payload = app.dispatch(
                "POST", "/sessions/v/drill", body)
            assert status == 400, (body, payload)
        status, _, after = app.dispatch("GET", "/sessions/v")
        assert status == 200
        assert (after["group_by"], after["filters"]) \
            == (before["group_by"], before["filters"]) == (["district"], {})
        assert app.dispatch("GET", "/sessions/v/view")[0] == 200
        status, _, payload = app.dispatch(
            "POST", "/sessions/v/recommend",
            {"aggregate": "mean", "coordinates": {"district": "d0"}})
        assert status == 200, payload


# -- raw requests for the framing fuzz ----------------------------------------
FUZZ_BODIES = [b"", b'{"group_by": ["district"]}', b'{"group_by": 3}',
               b"\xff{", b'{"aggregate": "mean", "coordinates": {}}']
FUZZ_FIELDS = [b"X-Ok: fine", b" obs-fold", b"\tobs-fold", b"NoColon",
               b"Host : x", b"X-Long: " + b"a" * 65536,
               b"Transfer-Encoding: chunked", b"Expect: 100-continue",
               b"Connection: close", b"Connection: keep-alive",
               b"content-length: 2", b"Content-Length: 0"]


@st.composite
def raw_requests(draw) -> tuple[bytes, bool]:
    """One request as bytes, and whether the client ends its stream
    after it (when the body is shorter than its declared length, which
    the server would otherwise wait for)."""
    target = draw(st.sampled_from([b"POST /datasets/data/sessions",
                                   b"POST /datasets/data/recommend",
                                   b"GET /healthz"]))
    version = draw(st.sampled_from([b" HTTP/1.1", b" HTTP/1.0", b"",
                                    b" HTTP/0.9", b" HTTP/2.0",
                                    b" HTTP/1.1 extra"]))
    body = draw(st.sampled_from(FUZZ_BODIES))
    fields = [b"Host: test"] + draw(st.lists(st.sampled_from(FUZZ_FIELDS),
                                             max_size=3))
    if draw(st.booleans()):
        fields += [b"X-N: n"] * draw(st.sampled_from([97, 98, 99, 100]))
    declared = draw(st.sampled_from([None, "same", "shorter", "longer"]))
    length = {None: None, "same": len(body), "shorter": len(body) // 2,
              "longer": len(body) + 5}[declared]
    if length is not None:
        fields.append(b"Content-Length: %d" % length)
    fields = draw(st.permutations(fields))
    data = b"\r\n".join([target + version, *fields]) + b"\r\n\r\n" + body
    return data, length is not None and length > len(body)


# -- the remaining routes -----------------------------------------------------------
def make_service_app(seed: int) -> tuple[ExplanationService, ServerApp]:
    """One dataset and no background rebuild: a degraded state stays put."""
    service = ExplanationService(auto_rebuild=False)
    service.register("data", make_dataset(seed))
    return service, ServerApp(service)


def degrade(app: ServerApp) -> None:
    """Fail one ingest at its commit point: the dataset goes degraded."""
    rows = delta_rows(np.random.default_rng(0), "f", 1)
    with faults("ingest.commit=error"):
        status, _, payload = app.dispatch("POST", "/datasets/data/ingest",
                                          {"rows": rows})
    assert status == 503 and payload["degraded"] is True


class TestRoutes:
    def test_dataset_listing_and_detail(self):
        service, app = make_service_app(20)
        status, _, listing = app.dispatch("GET", "/datasets")
        assert status == 200
        want = {"name": "data", "rows": 54, "data_version": 0,
                "measure": "severity",
                "hierarchies": {"geo": ["district", "village"],
                                "time": ["year"]}}
        assert listing == {"datasets": [want]}
        assert app.dispatch("GET", "/datasets/data") == (200, {}, want)
        rows = delta_rows(np.random.default_rng(20), "a", 2)
        assert app.dispatch("POST", "/datasets/data/ingest",
                            {"rows": rows})[0] == 200
        status, _, detail = app.dispatch("GET", "/datasets/data")
        assert status == 200
        assert (detail["rows"], detail["data_version"]) == (56, 1)
        assert app.dispatch("GET", "/datasets/ghost")[0] == 404
        degrade(app)
        status, _, detail = app.dispatch("GET", "/datasets/data")
        assert status == 200 and detail["degraded"] is True
        assert detail["data_version"] == 1
        _, _, listing = app.dispatch("GET", "/datasets")
        assert listing["datasets"][0]["degraded"] is True

    def test_refresh_rebuilds_and_bumps_sessions(self):
        service, app = make_service_app(21)
        for sid, staleness in (("s", "sync"), ("t", "strict")):
            status, _, _ = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"session_id": sid, "group_by": ["district"],
                 "staleness": staleness})
            assert status == 201
        assert app.dispatch("POST", "/sessions/s/recommend", {
            "aggregate": "mean", "coordinates": {"district": "d0"}})[0] == 200
        old = service.engine("data").fingerprint
        assert any(key[1] == old for key in service.cache.keys())
        status, _, payload = app.dispatch("POST", "/datasets/data/refresh")
        assert status == 200
        assert payload == {"dataset": "data", "data_version": 1}
        status, _, info = app.dispatch("GET", "/sessions/s")
        assert (info["data_version"], info["stale"]) == (1, False)
        assert app.dispatch("GET", "/sessions/t/view")[0] == 409
        assert app.dispatch("POST", "/sessions/t/sync")[0] == 200
        status, _, view = app.dispatch("GET", "/sessions/t/view")
        assert status == 200 and view["data_version"] == 1
        assert not any(key[1] == old for key in service.cache.keys())
        health = service.health.for_dataset("data")
        assert (health.state, health.rebuilds) == ("healthy", 0)

    def test_stats_count_session_and_one_shot_recommends(self):
        # Session recommends once skipped the counter: 3 + 1 read 1.
        _, app = make_service_app(29)
        assert app.dispatch("POST", "/datasets/data/sessions",
                            {"session_id": "s",
                             "group_by": ["district"]})[0] == 201
        body = {"aggregate": "mean", "coordinates": {"district": "d0"}}
        for _ in range(3):
            assert app.dispatch("POST", "/sessions/s/recommend",
                                body)[0] == 200
        assert app.dispatch("POST", "/datasets/data/recommend",
                            dict(body, group_by=["district"]))[0] == 200
        status, _, stats = app.dispatch("GET", "/stats")
        assert status == 200 and stats["recommend"]["count"] == 4
        assert stats["recommend"]["seconds"] > 0

    def test_refresh_unknown_dataset_and_wrong_method(self):
        _, app = make_service_app(22)
        assert app.dispatch("POST", "/datasets/ghost/refresh")[0] == 404
        status, headers, _ = app.dispatch("GET", "/datasets/data/refresh")
        assert status == 405 and headers == {"Allow": "POST"}

    def test_failed_refresh_answers_degraded(self):
        service, app = make_service_app(23)
        with faults("serving.rebuild=error"):
            status, headers, payload = app.dispatch(
                "POST", "/datasets/data/refresh")
        assert status == 503 and headers == {"Retry-After": "1"}
        assert payload["degraded"] is True
        assert (payload["dataset"], payload["data_version"]) == ("data", 0)
        assert "FaultInjected" in payload["error"]
        _, _, health = app.dispatch("GET", "/healthz")
        assert health["degraded_datasets"] == ["data"]
        assert health["datasets"]["data"]["state"] == "degraded"
        assert service.engine("data").data_version == 0

    def test_failed_refresh_keeps_the_served_version(self):
        # A rebuild that raises part-way (here: a relation swapped in
        # whose severity column is no measure, so the cube cannot sum
        # it) must leave the engine on the version it served: same data,
        # same data_version.
        service, app = make_service_app(28)
        app.dispatch("POST", "/datasets/data/sessions",
                     {"session_id": "s", "group_by": ["district"]})
        _, _, before = app.dispatch("GET", "/sessions/s/view")
        dataset = service.engine("data").dataset
        relation = dataset.relation
        dataset.relation = Relation(
            Schema([dimension(n) for n in relation.schema.names]),
            {n: relation.column(n) for n in relation.schema.names})
        status, _, payload = app.dispatch("POST", "/datasets/data/refresh")
        assert status == 503 and payload["degraded"] is True
        assert payload["data_version"] == 0
        assert service.engine("data").data_version == 0
        status, _, after = app.dispatch("GET", "/sessions/s/view")
        assert status == 200 and after["degraded"] is True
        assert after["data_version"] == 0
        assert after["groups"] == before["groups"]

    def test_refresh_recovers_a_degraded_dataset(self):
        service, app = make_service_app(24)
        degrade(app)
        assert app.dispatch("POST", "/datasets/data/refresh")[0] == 200
        _, _, health = app.dispatch("GET", "/healthz")
        assert health["status"] == "ok"
        assert health["datasets"]["data"]["state"] == "healthy"
        assert health["datasets"]["data"]["rebuilds"] == 1
        assert health["datasets"]["data"]["data_version"] == 1

    def test_close_session_routes(self):
        _, app = make_service_app(25)
        for sid in ("a", "b"):
            assert app.dispatch("POST", "/datasets/data/sessions",
                                {"session_id": sid})[0] == 201
        assert app.dispatch("DELETE", "/sessions/a") \
            == (200, {}, {"closed": "a"})
        assert app.dispatch("DELETE", "/sessions/a")[0] == 404
        assert app.dispatch("GET", "/sessions/b/close")[0] == 405
        assert app.dispatch("POST", "/sessions/b/close") \
            == (200, {}, {"closed": "b"})
        assert app.dispatch("POST", "/sessions/b/close")[0] == 404
        assert app.dispatch("GET", "/sessions/b")[0] == 404

    @pytest.mark.parametrize("extra, complaint", [
        pytest.param({"direction": "too_high"},
                     Complaint.too_high({"district": "d0"}, "mean"),
                     id="too_high"),
        pytest.param({"direction": "should_be", "target": 9.5},
                     Complaint.should_be({"district": "d0"}, "mean", 9.5),
                     id="should_be")])
    def test_complaint_directions(self, extra, complaint):
        service, app = make_service_app(26)
        body = dict({"aggregate": "mean", "coordinates": {"district": "d0"},
                     "group_by": ["district"]}, **extra)
        status, _, payload = app.dispatch("POST", "/datasets/data/recommend",
                                          body)
        assert status == 200, payload
        want = Reptile(service.engine("data").dataset).recommend(
            complaint, group_by=["district"])
        assert payload["complaint"] == repr(complaint)
        assert payload["best_hierarchy"] == want.best_hierarchy
        assert payload["best_group"]["coordinates"] \
            == want.best_group.coordinates

    def test_should_be_needs_a_target(self):
        _, app = make_service_app(27)
        status, _, payload = app.dispatch(
            "POST", "/datasets/data/recommend",
            {"aggregate": "mean", "direction": "should_be",
             "coordinates": {"district": "d0"}, "group_by": ["district"]})
        assert status == 400 and "target" in payload["error"]

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError,
                                       FloatingPointError])
    def test_a_numeric_failure_in_a_fit_is_a_degraded_503(self, error,
                                                          monkeypatch):
        """A fit that fails numerically is the server's fault, not the
        request's: one-shot and session recommends answer the degraded
        503 (a LinAlgError is a ValueError, which used to read as 400),
        and the dataset's own health is untouched."""
        from repro.model.multilevel import MultilevelModel

        def fail(self, design, ys):
            raise error("SVD did not converge")

        service, app = make_service_app(28)
        monkeypatch.setattr(MultilevelModel, "fit_predict_many", fail)
        body = {"aggregate": "mean", "coordinates": {"district": "d0"}}
        status, headers, payload = app.dispatch(
            "POST", "/datasets/data/recommend",
            dict(body, group_by=["district"]))
        assert status == 503 and payload["degraded"] is True, payload
        assert payload["data_version"] == 0 and "Retry-After" in headers
        sid = app.dispatch("POST", "/datasets/data/sessions",
                           {"group_by": ["district"]})[2]["session_id"]
        status, _, payload = app.dispatch(
            "POST", f"/sessions/{sid}/recommend", body)
        assert status == 503 and payload["degraded"] is True, payload
        assert not service.health.is_degraded("data")


# -- group commit ----------------------------------------------------------------
RECOMMEND_BODY = {"aggregate": "mean", "direction": "too_low",
                  "coordinates": {"year": 2001}, "group_by": ["year"], "k": 2}


def times_ten(items: list) -> list:
    return [item * 10 for item in items]


class TestGroupCommit:
    def test_same_view_requests_share_the_queued_pass(self, race):
        """Requests arriving while a pass for their view runs share the
        next pass: one leads it (``batch.queued``), the rest join it."""
        app = make_app(9)
        followers = 3
        results: list = [None] * (followers + 1)

        def submit(i: int) -> None:
            results[i] = app.dispatch(
                "POST", "/datasets/data/recommend", dict(RECOMMEND_BODY))

        race.gate("batch.execute")
        first = threading.Thread(target=submit, args=(0,), name="first")
        first.start()
        race.wait_parked("batch.execute", 1)
        later = [threading.Thread(target=submit, args=(i,), name=f"later-{i}")
                 for i in range(1, followers + 1)]
        for t in later:
            t.start()
        wait_until(lambda: race.hits("batch.queued")
                   + race.hits("batch.joined") == followers,
                   "the later requests to queue behind the running pass")
        race.release("batch.execute")
        for t in (first, *later):
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), f"{t.name} hung"

        assert [r[0] for r in results] == [200] * (followers + 1)
        payloads = [r[2] for r in results]
        assert all(p["batched"] for p in payloads)
        assert all(p == payloads[0] for p in payloads[1:])
        stats = app.batches.stats()
        assert stats["passes"] == 2
        assert stats["collapsed"] == followers - 1
        assert stats["collapse_ratio"] == pytest.approx(
            (followers - 1) / (followers + 1))
        assert race.hits("batch.queued") == 1

    def test_other_view_runs_while_a_pass_is_parked(self, race):
        app = make_app(14)
        results: dict[str, object] = {}
        race.gate("batch.execute")
        parked = threading.Thread(
            name="parked",
            target=lambda: results.__setitem__("year", app.dispatch(
                "POST", "/datasets/data/recommend", dict(RECOMMEND_BODY))))
        parked.start()
        race.wait_parked("batch.execute", 1)
        other = dict(RECOMMEND_BODY, coordinates={"district": "d0"},
                     group_by=["district"])
        status, _, payload = app.dispatch("POST", "/datasets/data/recommend",
                                          other)
        assert status == 200 and payload["batched"]
        assert "year" not in results
        race.release("batch.execute")
        parked.join(JOIN_TIMEOUT)
        assert not parked.is_alive()
        assert results["year"][0] == 200
        assert race.hits("batch.queued") == race.hits("batch.joined") == 0
        assert app.batches.stats()["passes"] == 2

    def test_execute_failure_reaches_only_its_own_pass(self, race):
        window = BatchWindow()
        passes: list[list] = []
        outcomes: dict[int, object] = {}

        def execute(items: list) -> list:
            passes.append(list(items))
            if len(passes) == 1:
                raise RuntimeError("first pass fails")
            return times_ten(items)

        def call(item: int) -> None:
            try:
                outcomes[item] = window.run("k", item, execute)
            except Exception as exc:
                outcomes[item] = exc

        race.gate("batch.execute")
        threads = [threading.Thread(target=call, args=(i,), name=f"call-{i}")
                   for i in (1, 2, 3)]
        threads[0].start()
        race.wait_parked("batch.execute", 1)
        threads[1].start()
        wait_until(lambda: race.hits("batch.queued") == 1, "a queued pass")
        threads[2].start()
        wait_until(lambda: race.hits("batch.joined") == 1, "a joiner")
        race.release("batch.execute")
        for t in threads:
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), f"{t.name} hung"

        assert isinstance(outcomes[1], RuntimeError)
        assert outcomes[2] == 20 and outcomes[3] == 30
        assert passes == [[1], [2, 3]]
        assert window.stats()["passes"] == 2
        assert window.stats()["collapsed"] == 1

    def test_queued_pass_timeout_fails_its_callers_and_frees_the_key(
            self, race):
        window = BatchWindow()
        outcomes: dict[int, object] = {}

        def call(item: int, timeout: float) -> None:
            try:
                outcomes[item] = window.run("k", item, times_ten, timeout)
            except Exception as exc:
                outcomes[item] = exc

        race.gate("batch.execute")
        race.gate("batch.queued")
        first = threading.Thread(target=call, args=(1, JOIN_TIMEOUT),
                                 name="first")
        first.start()
        race.wait_parked("batch.execute", 1)
        leader = threading.Thread(target=call, args=(2, 0.05), name="leader")
        leader.start()
        race.wait_parked("batch.queued", 1)
        joiner = threading.Thread(target=call, args=(3, JOIN_TIMEOUT),
                                  name="joiner")
        joiner.start()
        wait_until(lambda: race.hits("batch.joined") == 1, "the joiner")
        # The leader now waits 50 ms on the still-parked pass ahead.
        race.release("batch.queued")
        for t in (leader, joiner):
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), f"{t.name} hung"
        assert isinstance(outcomes[2], LockTimeout)
        assert outcomes[3] is outcomes[2]

        race.release("batch.execute")
        first.join(JOIN_TIMEOUT)
        assert not first.is_alive()
        assert outcomes[1] == 10
        # The withdrawn pass left nothing queued: the next request runs
        # at once.
        assert window.run("k", 4, times_ten) == 40
        assert race.hits("batch.queued") == 1
        assert window.stats()["passes"] == 2

    def test_stress_one_pass_per_key_and_every_caller_answered(self):
        """More threads than cores hammer three keys with a tiny thread
        switch interval: no key ever runs two passes at once, every
        caller gets its own result, every request is counted once, and
        no key is left held."""
        window = BatchWindow()
        lock = threading.Lock()
        running: dict[str, int] = {}
        overlaps: list[str] = []
        results: dict[int, int] = {}
        clients, calls = 12, 40

        def execute_for(key: str):
            def execute(items: list) -> list:
                with lock:
                    running[key] = running.get(key, 0) + 1
                    if running[key] > 1:
                        overlaps.append(key)
                time.sleep(0.0005)
                with lock:
                    running[key] -= 1
                return times_ten(items)
            return execute

        def client(i: int) -> None:
            for j in range(calls):
                key, item = f"k{(i + j) % 3}", i * 1000 + j
                results[item] = window.run(key, item, execute_for(key),
                                           JOIN_TIMEOUT)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([threading.Thread(target=client, args=(i,),
                                          name=f"client-{i}")
                         for i in range(clients)])
        finally:
            sys.setswitchinterval(interval)
        assert not overlaps
        assert len(results) == clients * calls
        assert all(got == item * 10 for item, got in results.items())
        stats = window.stats()
        assert stats["passes"] + stats["collapsed"] == clients * calls
        assert not window._running and not window._queued
