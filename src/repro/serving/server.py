"""The concurrent multi-tenant HTTP/JSON front end.

:class:`ServerApp` maps HTTP requests onto an
:class:`~repro.serving.service.ExplanationService` and enforces the
serving policies the in-process API leaves to the caller:

* **Snapshot isolation** — every query endpoint runs under the owning
  dataset's read lock (via ``service.with_session``/``submit_batch``),
  so all aggregates in one response come from a single ``data_version``
  — reported in the response — while ``/ingest`` and ``/refresh`` take
  the exclusive write lock.
* **Cross-request batching** — concurrent ``POST /datasets/{d}/recommend``
  requests hitting the same (group-by, filters) view coalesce by group
  commit (:class:`~repro.serving.concurrency.BatchWindow`): a request
  runs its pass at once unless a pass for its view is already running,
  and requests arriving meanwhile share the next cube/ranker pass (the
  cross-request extension of the service's same-view complaint
  collapsing).
* **Admission control** — a bounded worker pool plus bounded queue;
  overload answers 429/503 with a ``Retry-After`` hint instead of
  queueing without bound.
* **Telemetry** — per-endpoint request counts and p50/p99 latency at
  ``GET /stats``, alongside cache hit rate and batch collapse ratio.

The transport is the stdlib :class:`http.server.ThreadingHTTPServer`
(one handler thread per connection; the admission controller bounds how
many execute at once). A reply's status line, headers and body go out
in one ``sendall``, and accepted sockets set ``TCP_NODELAY``, so no
segment of a reply waits for the client's delayed ACK (~40 ms per
keep-alive request under Nagle). Request bodies need a
``Content-Length``; a malformed one answers 400, a
``Transfer-Encoding`` body 411, and both close the connection.
:meth:`ReptileHTTPServer.shutdown_gracefully` stops accepting, lets
in-flight requests drain, then closes.

Routes (all JSON)::

    GET    /healthz
    GET    /stats
    GET    /datasets
    GET    /datasets/{name}
    POST   /datasets/{name}/sessions   {group_by?, filters?, staleness?,
                                        session_id?}
    POST   /datasets/{name}/recommend  complaint spec (batched per view)
    POST   /datasets/{name}/ingest     {rows?, retract?}
    POST   /datasets/{name}/refresh
    GET    /sessions/{sid}
    GET    /sessions/{sid}/view
    POST   /sessions/{sid}/recommend   complaint spec
    POST   /sessions/{sid}/drill       {hierarchy, coordinates?}
    POST   /sessions/{sid}/sync
    DELETE /sessions/{sid}             (or POST /sessions/{sid}/close)

Complaint spec: ``{"aggregate": "mean", "direction": "too_low",
"coordinates": {...}, "k"?, "target"?}`` plus, on the dataset endpoint,
``"group_by"`` and ``"filters"`` placing the view.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Sequence

import numpy as np

from ..core.complaint import Complaint
from ..core.ranker import Recommendation, ScoredGroup
from ..core.session import SessionError, StaleDataError
from ..relational.cube import GroupView
from ..relational.delta import DeltaError
from .concurrency import (AdmissionController, BatchWindow, LockTimeout,
                          RequestTimeout, ServerOverloaded, Telemetry,
                          trace)
from .health import IngestFailure
from .service import ComplaintRequest, ExplanationService, ServiceError

__all__ = ["RequestError", "ServerApp", "ReptileHTTPServer", "serve_http",
           "parse_complaint_spec"]


class RequestError(ValueError):
    """A malformed request body or path (HTTP 400)."""


# -- JSON helpers ----------------------------------------------------------------
def jsonable(value):
    """Coerce engine values (numpy scalars, tuples, NaN) into JSON types."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


def _finite(value) -> float | None:
    """A float field as JSON: NaN and ±inf become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _cell(value):
    """A key or coordinate cell as JSON: what :func:`jsonable` gives,
    without its generic walk for the common scalar types."""
    cls = type(value)
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if cls is float:
        return value if math.isfinite(value) else None
    return jsonable(value)


def _group_payload(group: ScoredGroup) -> dict:
    return {
        "key": [_cell(v) for v in group.key],
        "coordinates": {a: _cell(v) for a, v in group.coordinates.items()},
        "score": _finite(group.score),
        "margin_gain": _finite(group.margin_gain),
        "observed": {s: _finite(v) for s, v in group.observed.items()},
        "expected": {s: _finite(v) for s, v in group.expected.items()},
        "repaired_value": _finite(group.repaired_value),
    }


def recommendation_payload(recommendation: Recommendation,
                           data_version: int) -> dict:
    """The JSON reply for one recommendation, built field by field from
    the ranker's records (the same JSON :func:`jsonable` would give)."""
    hierarchies = {
        name: {"attribute": rec.attribute,
               "base_penalty": _finite(rec.base_penalty),
               "groups": [_group_payload(g) for g in rec.groups]}
        for name, rec in recommendation.per_hierarchy.items()}
    best_hierarchy = recommendation.best_hierarchy
    best = hierarchies[best_hierarchy]["groups"]
    return {
        "data_version": data_version,
        "complaint": repr(recommendation.complaint),
        "best_hierarchy": best_hierarchy,
        "best_group": best[0] if best else None,
        "hierarchies": hierarchies,
    }


def view_payload(view: GroupView, data_version: int,
                 filters: Mapping) -> dict:
    groups = []
    for key, state in view.groups.items():
        count = int(state.count)
        total = float(state.total)
        groups.append({
            "key": jsonable(key),
            "coordinates": jsonable(dict(zip(view.group_attrs, key))),
            "count": count,
            "sum": jsonable(total),
            "sumsq": jsonable(float(state.sumsq)),
            "mean": jsonable(total / count) if count else None,
        })
    return {
        "data_version": data_version,
        "group_by": list(view.group_attrs),
        "filters": jsonable(dict(filters)),
        "groups": groups,
    }


def _scalar_mapping(mapping, name: str) -> dict:
    """``mapping`` if it maps attribute names to scalars, else 400.

    Filters and coordinates become view keys, so a list or object value
    would make every later query on them unhashable.
    """
    if not isinstance(mapping, dict) or any(
            isinstance(v, (list, dict)) for v in mapping.values()):
        raise RequestError(f"{name!r} must map attributes to scalar values")
    return mapping


def parse_complaint_spec(spec) -> ComplaintRequest:
    """A JSON complaint spec -> :class:`ComplaintRequest` (or 400)."""
    if not isinstance(spec, dict):
        raise RequestError(f"request body must be a JSON object, "
                           f"got {type(spec).__name__}")
    for required in ("aggregate", "coordinates"):
        if required not in spec:
            raise RequestError(f"complaint spec is missing {required!r}")
    for name in ("coordinates", "filters"):
        _scalar_mapping(spec.get(name, {}), name)
    direction = spec.get("direction", "too_low")
    coordinates, aggregate = spec["coordinates"], spec["aggregate"]
    try:
        if direction == "too_low":
            complaint = Complaint.too_low(coordinates, aggregate)
        elif direction == "too_high":
            complaint = Complaint.too_high(coordinates, aggregate)
        elif direction == "should_be":
            if "target" not in spec:
                raise RequestError("should_be complaints need 'target'")
            if isinstance(spec["target"], bool):
                raise RequestError("'target' must be a number")
            complaint = Complaint.should_be(coordinates, aggregate,
                                            float(spec["target"]))
        else:
            raise RequestError(f"unknown direction {direction!r} "
                               f"(use too_low, too_high or should_be)")
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from None
    group_by = spec.get("group_by", ())
    if isinstance(group_by, str) or not all(
            isinstance(a, str) for a in group_by):
        raise RequestError("'group_by' must be a list of attribute names")
    k = spec.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)
                          or k < 1):
        raise RequestError("'k' must be a positive integer")
    return ComplaintRequest(complaint, tuple(group_by),
                            dict(spec.get("filters", {})), k=k)


def _rows_spec(spec, what: str) -> list:
    if spec is None:
        return []
    if not isinstance(spec, list):
        raise RequestError(f"{what!r} must be a JSON list of rows")
    return spec


def _degraded_reply(error: str, dataset: str, data_version: int):
    """503 for a failed ingest or rebuild: the dataset keeps serving its
    last good snapshot, so the body carries the degraded marker and the
    version still served."""
    return 503, {"Retry-After": "1"}, {
        "error": error, "degraded": True, "dataset": dataset,
        "data_version": data_version, "retry_after": 1}


# -- the application -------------------------------------------------------------
class ServerApp:
    """Routes HTTP requests onto an :class:`ExplanationService`.

    Transport-independent: :meth:`dispatch` takes ``(method, path,
    body)`` and returns ``(status, headers, payload)``, so the
    concurrency tests and benchmarks can drive the exact serving logic
    — locks, batching, admission, telemetry — without sockets, while
    :class:`ReptileHTTPServer` puts real HTTP in front of it.
    """

    def __init__(self, service: ExplanationService,
                 max_concurrent: int = 8, max_queue: int = 64,
                 queue_timeout: float = 2.0,
                 request_timeout: float | None = None):
        self.service = service
        self.request_timeout = request_timeout
        self.admission = AdmissionController(max_concurrent, max_queue,
                                             queue_timeout)
        self.batches = BatchWindow()
        self.telemetry = Telemetry()
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._draining = False
        self.started = time.time()

    # -- lifecycle ---------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new work (503) while in-flight requests finish."""
        self._draining = True

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
            return True

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, method: str, path: str, body=None):
        """One request: returns ``(status, headers, payload)``."""
        path = path.split("?", 1)[0].rstrip("/")
        endpoint, handler, args = self._route(method, path)
        if handler is None:
            return endpoint  # _route returned an error triple
        if self._draining and endpoint not in ("healthz", "stats"):
            return 503, {"Retry-After": "1"}, {
                "error": "server is draining", "retry_after": 1}
        with self._inflight_cond:
            self._inflight += 1
        try:
            with self.telemetry.timed(endpoint):
                trace("server.request", endpoint=endpoint)
                if endpoint in _ADMITTED:
                    with self.admission.admit():
                        return self._run_deadlined(endpoint, handler, args,
                                                   body)
                return handler(*args, body)
        except ServerOverloaded as exc:
            retry = int(math.ceil(exc.retry_after))
            return exc.status, {"Retry-After": str(retry)}, {
                "error": str(exc), "retry_after": retry}
        except StaleDataError as exc:
            return 409, {}, {"error": str(exc), "pinned": exc.pinned,
                             "current": exc.current}
        except ServiceError as exc:
            return 404, {}, {"error": str(exc.args[0] if exc.args else exc)}
        except LockTimeout as exc:
            return 503, {"Retry-After": "1"}, {"error": str(exc),
                                               "retry_after": 1}
        except IngestFailure as exc:
            return _degraded_reply(str(exc), exc.dataset, exc.data_version)
        except (RequestError, SessionError, DeltaError, ValueError,
                TypeError) as exc:
            return 400, {}, {"error": str(exc)}
        except Exception as exc:
            # Availability backstop: an unexpected failure (an injected
            # fault, a bug) must answer as a degraded 503, never
            # as a raw 500 — reads of the last good snapshot keep working
            # and the client knows to retry.
            return 503, {"Retry-After": "1"}, {
                "error": f"{type(exc).__name__}: {exc}", "degraded": True,
                "retry_after": 1}
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                if self._inflight == 0:
                    self._inflight_cond.notify_all()

    def _run_deadlined(self, endpoint: str, handler, args, body):
        """Run a handler under the per-request deadline (if configured).

        Threads cannot be cancelled, so the deadline releases the
        *admission slot*, not the computation: the handler keeps running
        on a daemon helper thread (its result discarded, its cache fills
        still useful) while the client gets a 503 + ``Retry-After``
        instead of a worker slot pinned indefinitely.
        """
        timeout = self.request_timeout
        if timeout is None or endpoint not in _DEADLINED:
            return handler(*args, body)
        outcome: list = []

        def run():
            try:
                outcome.append((True, handler(*args, body)))
            except BaseException as exc:  # re-raised on the caller thread
                outcome.append((False, exc))

        worker = threading.Thread(target=run, daemon=True,
                                  name=f"reptile-req-{endpoint}")
        worker.start()
        worker.join(timeout)
        if not outcome:
            raise RequestTimeout(
                f"{endpoint} exceeded the {timeout}s request deadline")
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    def _route(self, method: str, path: str):
        """Resolve a path to ``(endpoint, handler, args)`` or an error."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            return ("healthz", self._healthz, ())
        head = parts[0]
        if head == "healthz" and len(parts) == 1:
            return self._expect(method, "GET", "healthz", self._healthz, ())
        if head == "stats" and len(parts) == 1:
            return self._expect(method, "GET", "stats", self._stats, ())
        if head == "datasets":
            if len(parts) == 1:
                return self._expect(method, "GET", "datasets",
                                    self._datasets, ())
            name = parts[1]
            if len(parts) == 2:
                return self._expect(method, "GET", "dataset",
                                    self._dataset_info, (name,))
            action = parts[2]
            handlers = {"sessions": ("open_session", self._open_session),
                        "recommend": ("batch_recommend",
                                      self._dataset_recommend),
                        "ingest": ("ingest", self._ingest),
                        "refresh": ("refresh", self._refresh)}
            if len(parts) == 3 and action in handlers:
                endpoint, handler = handlers[action]
                return self._expect(method, "POST", endpoint, handler,
                                    (name,))
        if head == "sessions" and len(parts) >= 2:
            sid = parts[1]
            if len(parts) == 2:
                if method == "DELETE":
                    return ("close_session", self._close_session, (sid,))
                return self._expect(method, "GET", "session",
                                    self._session_info, (sid,))
            action = parts[2]
            handlers = {"view": ("view", "GET", self._view),
                        "recommend": ("recommend", "POST", self._recommend),
                        "drill": ("drill", "POST", self._drill),
                        "sync": ("sync", "POST", self._sync),
                        "close": ("close_session", "POST",
                                  self._close_session)}
            if len(parts) == 3 and action in handlers:
                endpoint, want, handler = handlers[action]
                return self._expect(method, want, endpoint, handler, (sid,))
        return (404, {}, {"error": f"unknown route {method} {path!r}"}), \
            None, None

    @staticmethod
    def _expect(method, want, endpoint, handler, args):
        if method != want:
            return (405, {"Allow": want},
                    {"error": f"{endpoint} requires {want}"}), None, None
        return (endpoint, handler, args)

    # -- read-only endpoints -----------------------------------------------------
    def _healthz(self, body=None):
        """Real health: the per-dataset state machine.

        Always 200 — a degraded dataset still *serves* (that is the
        point); the body says what is degraded so orchestrators can act.
        ``status`` is the worst of: draining > degraded > ok.
        """
        datasets = self.service.health.snapshot()
        degraded = sorted(name for name, state in datasets.items()
                          if state["state"] != "healthy")
        status = ("draining" if self._draining
                  else "degraded" if degraded else "ok")
        return 200, {}, jsonable({
            "status": status,
            "uptime_seconds": time.time() - self.started,
            "datasets": datasets,
            "degraded_datasets": degraded,
        })

    def _degraded_marker(self, dataset: str, payload: dict) -> dict:
        """Stamp query payloads of a degraded dataset.

        ``degraded: true`` plus the payload's existing ``data_version``
        tell the client: consistent, but last-good-snapshot, data.
        """
        if self.service.health.is_degraded(dataset):
            payload["degraded"] = True
        return payload

    def _stats(self, body=None):
        return 200, {}, self.stats_payload()

    def stats_payload(self) -> dict:
        stats = self.service.stats()
        stats["endpoints"] = self.telemetry.snapshot()
        stats["admission"] = self.admission.stats()
        stats["batching"] = self.batches.stats()
        stats["draining"] = self._draining
        return jsonable(stats)

    def _datasets(self, body=None):
        names = self.service.datasets
        return 200, {}, {"datasets": [
            self._dataset_row(name) for name in names]}

    def _dataset_row(self, name: str) -> dict:
        engine = self.service.engine(name)
        return self._degraded_marker(name, {
            "name": name,
            "rows": len(engine.dataset.relation),
            "data_version": engine.data_version,
            "measure": engine.dataset.measure,
            "hierarchies": {h.name: list(h.attributes)
                            for h in engine.dataset.dimensions}})

    def _dataset_info(self, name: str, body=None):
        return 200, {}, self._dataset_row(name)

    def _session_info(self, sid: str, body=None):
        session = self.service.session(sid)
        return 200, {}, {
            "session_id": sid,
            "dataset": self.service.session_dataset(sid),
            "group_by": list(session.group_by),
            "filters": jsonable(session.filters),
            "staleness": session.staleness,
            "data_version": session.data_version,
            "stale": session.is_stale(),
        }

    # -- session lifecycle -------------------------------------------------------
    def _open_session(self, name: str, body):
        body = body or {}
        if not isinstance(body, dict):
            raise RequestError("body must be a JSON object")
        group_by = body.get("group_by", ())
        if isinstance(group_by, str) or not all(
                isinstance(a, str) for a in group_by):
            raise RequestError("'group_by' must be a list of attribute "
                               "names")
        filters = _scalar_mapping(body.get("filters") or {}, "filters")
        sid = body.get("session_id")
        if sid is not None and (not isinstance(sid, str) or "/" in sid
                                or not sid):
            raise RequestError("'session_id' must be a non-empty string "
                               "without '/'")
        if sid is None:
            with self._counter_lock:
                self._session_counter += 1
                sid = f"{name}.s{self._session_counter}"
        sid = self.service.open_session(
            name, session_id=sid, group_by=tuple(group_by),
            filters=filters, staleness=body.get("staleness"))
        return 201, {}, self._session_info(sid)[2]

    def _close_session(self, sid: str, body=None):
        self.service.close_session(sid)
        return 200, {}, {"closed": sid}

    # -- queries (read lock, snapshot-isolated) ----------------------------------
    def _view(self, sid: str, body=None):
        (view, filters), version = self.service.with_session(
            sid, lambda session: (session.view(), dict(session.filters)))
        return 200, {}, self._degraded_marker(
            self.service.session_dataset(sid),
            view_payload(view, version, filters))

    def _recommend(self, sid: str, body):
        request = parse_complaint_spec(body)
        if request.group_by or request.filters:
            raise RequestError(
                "session recommend takes no 'group_by'/'filters' — the "
                "session's position defines the view (use POST "
                "/datasets/{name}/recommend for one-shot queries)")
        recommendation, version = self.service.with_session(
            sid, lambda session: session.recommend(request.complaint,
                                                   k=request.k))
        return 200, {}, self._degraded_marker(
            self.service.session_dataset(sid),
            recommendation_payload(recommendation, version))

    def _drill(self, sid: str, body):
        body = body or {}
        if not isinstance(body, dict):
            raise RequestError("body must be a JSON object")
        hierarchy = body.get("hierarchy")
        if not isinstance(hierarchy, str):
            raise RequestError("'hierarchy' must name a hierarchy")
        coordinates = _scalar_mapping(body.get("coordinates") or {},
                                      "coordinates")
        _, version = self.service.with_session(
            sid, lambda session: session.drill(hierarchy, coordinates))
        return 200, {}, dict(self._session_info(sid)[2],
                             data_version=version)

    def _sync(self, sid: str, body=None):
        _, version = self.service.with_session(
            sid, lambda session: session.sync())
        return 200, {}, {"session_id": sid, "data_version": version}

    def _dataset_recommend(self, name: str, body):
        """One-shot recommend; concurrent same-view requests coalesce."""
        request = parse_complaint_spec(body)
        self.service.engine(name)  # unknown dataset -> 404 before batching
        try:
            key = (name, request.view_key())
        except TypeError as exc:
            raise RequestError(f"unhashable view key: {exc}") from None

        def execute(items: list[ComplaintRequest]) -> list:
            result = self.service.submit_batch(name, items)
            return [(item, result.data_version) for item in result.items]

        item, version = self.batches.run(key, request, execute)
        if item.error is not None:
            return 400, {}, {"error": item.error, "data_version": version}
        payload = recommendation_payload(item.recommendation, version)
        payload["batched"] = True
        return 200, {}, self._degraded_marker(name, payload)

    # -- maintenance (write lock) ------------------------------------------------
    def _ingest(self, name: str, body):
        body = body or {}
        if not isinstance(body, dict):
            raise RequestError("body must be a JSON object")
        engine = self.service.engine(name)
        schema = engine.dataset.relation.schema
        measure = engine.dataset.measure
        rows = self._delta_rows(_rows_spec(body.get("rows"), "rows"),
                                schema, measure)
        retract = self._delta_rows(
            _rows_spec(body.get("retract"), "retract"), schema, measure)
        if not rows and not retract:
            raise RequestError("ingest needs 'rows' and/or 'retract'")
        info = self.service.ingest(name, rows, retract=retract)
        return 200, {}, jsonable(info)

    @staticmethod
    def _delta_rows(specs: list, schema, measure: str) -> list[tuple]:
        """Row tuples from JSON row specs.

        A JSON boolean is not a number: a ``true``/``false`` measure cell
        is a bad request. (The engine stores every accepted measure cell,
        a JSON ``7`` included, as a float.)
        """
        names = list(schema.names)
        at = names.index(measure)
        rows = []
        for spec in specs:
            if isinstance(spec, dict):
                missing = [n for n in names if n not in spec]
                if missing:
                    raise RequestError(
                        f"row is missing columns {missing}: {spec!r}")
                row = [spec[n] for n in names]
            elif isinstance(spec, list):
                if len(spec) != len(names):
                    raise RequestError(
                        f"row of width {len(spec)} does not match schema "
                        f"{names}")
                row = list(spec)
            else:
                raise RequestError(
                    f"each row must be an object or a list, got {spec!r}")
            cell = row[at]
            if isinstance(cell, bool):
                raise RequestError(
                    f"measure {measure!r} value {cell!r} is not a number")
            rows.append(tuple(row))
        return rows

    def _refresh(self, name: str, body=None):
        engine = self.service.engine(name)  # 404 on unknown names
        if not self.service.try_rebuild(name):
            error = self.service.health.for_dataset(name).last_error
            return _degraded_reply(
                f"rebuild of {name!r} failed ({error}); still serving "
                f"data version {engine.data_version}", name,
                engine.data_version)
        return 200, {}, {"dataset": name,
                         "data_version": engine.data_version}


#: Endpoints that pass through admission control. Health, stats and the
#: tiny registry reads stay outside so a saturated server remains
#: observable and sheds load cheaply.
_ADMITTED = frozenset({"view", "recommend", "drill", "sync",
                       "batch_recommend", "ingest", "refresh",
                       "open_session"})

#: Endpoints the per-request deadline applies to: read-only queries,
#: where abandoning the computation is safe. Maintenance endpoints
#: (ingest/refresh) are exempt — timing one out mid-commit would leave
#: the client unable to tell whether the delta landed.
_DEADLINED = frozenset({"view", "recommend", "batch_recommend"})


# -- the HTTP transport ----------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shell around :meth:`ServerApp.dispatch`."""

    app: ServerApp  # set on the per-server subclass
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket. _reply sends the header block
    # and the body with one sendall, but a reply larger than one segment
    # still leaves as several segments, and under Nagle the last, partial
    # one would wait for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    quiet = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _handle(self, method: str) -> None:
        if "Transfer-Encoding" in self.headers:
            self._refuse_body(411, "request bodies need a Content-Length; "
                                   "Transfer-Encoding is not supported")
            return
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse_body(400, f"invalid Content-Length {declared!r}")
            return
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        if raw:
            try:
                body = json.loads(raw)
            except ValueError as exc:  # not JSON, or not UTF-8/16/32
                self._reply(400, {}, {"error": f"invalid JSON body: {exc}"})
                return
        else:
            body = None
        try:
            status, headers, payload = self.app.dispatch(method, self.path,
                                                         body)
        except Exception as exc:  # last-resort: never drop the connection
            # dispatch() already converts every failure; only a bug in
            # dispatch itself lands here. Still marked degraded so the
            # availability contract (no non-degraded 5xx) holds.
            status, headers, payload = 500, {}, {
                "error": f"{type(exc).__name__}: {exc}", "degraded": True}
        self._reply(status, headers, payload)

    def _refuse_body(self, status: int, error: str) -> None:
        """Answer a request whose body cannot be framed, then hang up:
        the stream cannot be re-synchronised past it."""
        self.close_connection = True
        self._reply(status, {"Connection": "close"}, {"error": error})

    def _reply(self, status: int, headers: dict, payload: dict) -> None:
        data = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers.items():
                self.send_header(key, value)
            # end_headers() would send the header block on its own: the
            # blank line and the body join it instead, and the unbuffered
            # writer hands all of it to one sendall. (An HTTP/0.9 reply
            # has no header block, so the buffer never started.)
            head = getattr(self, "_headers_buffer", [])
            if head:
                head.append(b"\r\n")
            self.wfile.write(b"".join(head) + data)
            self._headers_buffer = []
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-reply; nothing to salvage

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class ReptileHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server over a :class:`ServerApp`.

    One handler thread per connection (HTTP/1.1 keep-alive reuses it);
    the app's admission controller bounds how many requests *execute*
    concurrently. ``daemon_threads`` keeps a hung client from pinning
    the process; graceful shutdown drains via the app's in-flight
    counter instead.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: ServerApp):
        handler = type("BoundHandler", (_Handler,), {"app": app})
        super().__init__(address, handler)
        self.app = app

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_gracefully(self, timeout: float = 10.0) -> bool:
        """Stop accepting, drain in-flight requests, close the socket.

        New requests arriving while draining get a 503 with Retry-After.
        Returns False if requests were still in flight at the deadline
        (the socket is closed regardless).
        """
        self.app.begin_drain()
        self.shutdown()  # stops serve_forever; open connections live on
        drained = self.app.wait_idle(timeout)
        self.server_close()
        return drained


def serve_http(service: ExplanationService, host: str = "127.0.0.1",
               port: int = 0, *, max_concurrent: int = 8,
               max_queue: int = 64, queue_timeout: float = 2.0,
               request_timeout: float | None = None,
               ) -> tuple[ReptileHTTPServer, threading.Thread]:
    """Start a server in a background thread; returns (server, thread).

    ``port=0`` picks a free port — read it back from ``server.url``.
    Call ``server.shutdown_gracefully()`` to stop.
    """
    app = ServerApp(service, max_concurrent=max_concurrent,
                    max_queue=max_queue, queue_timeout=queue_timeout,
                    request_timeout=request_timeout)
    server = ReptileHTTPServer((host, port), app)
    thread = threading.Thread(target=server.serve_forever,
                              name="reptile-http", daemon=True)
    thread.start()
    return server, thread
