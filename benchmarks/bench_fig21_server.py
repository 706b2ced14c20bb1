"""Figure 21 (repro-only): concurrent serving throughput and latency.

The serving front end multiplexes many analysts over shared datasets:
reads (session views, batched one-shot recommendations) hold a shared
per-dataset read lock while ingest bursts take the exclusive write lock.
This harness drives the real dispatch stack — locks, admission control,
cross-request batching, telemetry, JSON payload shaping; everything
above the socket — with a mixed 90/10 read/ingest workload from many
client threads and holds a throughput/latency floor. A second leg
measures the socket itself: one HTTP ``/recommend`` round trip.

Protocol per scale: CLIENTS threads each issue a fixed request sequence
against one ServerApp (90% reads — views with periodic batched
recommendations — 10% hot-leaf ingests). Every response is checked
in-run for snapshot consistency: its totals must match the cumulative
delta oracle at exactly the ``data_version`` it reports, so a response
mixing two versions fails the run. Afterwards the final served view is
compared bitwise against a *single-threaded oracle*: a fresh service
that applies the recorded deltas sequentially in version order
(integer-valued measure, so float sums are exact). The same workload
also runs single-threaded on its own service: the reported ``speedup``
is single-thread elapsed over concurrent elapsed for identical request
totals.

Keep-alive leg per scale: one client on one keep-alive
``http.client`` connection sends the same warmed one-shot recommend
KEEPALIVE_REQUESTS times, in sequence, to ``serve_http`` on the same
dataset. The ``http-keepalive`` row's ``cold`` is that request list
through ``ServerApp.dispatch`` in process, ``warm`` the same list over
the socket, and ``speedup`` their ratio (below 1: the socket's cost);
p50/p99 are the socket round trips. Every socket reply must equal the
in-process payload.

Acceptance floors (full scale, ≥1e5 rows): sustained throughput
≥ 200 req/s with read p99 ≤ 250 ms, zero rejected requests, and a
keep-alive round-trip p50 ≤ 20 ms (a reply that waits on the client's
delayed ACK takes ~40 ms).
"""

import http.client
import json
import threading
import time

import numpy as np

from repro import HierarchicalDataset, Relation, ReptileConfig, Schema, \
    dimension, measure
from repro.serving import ExplanationService, ServerApp, serve_http

from bench_utils import SMOKE, fmt, report, report_json, smoke

SIZES = smoke([2_000], [100_000])
CLIENTS = smoke(3, 8)
REQUESTS_PER_CLIENT = smoke(10, 250)
N_DISTRICTS = 40
VILLAGES_PER_DISTRICT = 50
N_YEARS = 25
#: Ingests are confined to these districts (late regional reports).
DELTA_DISTRICTS = ("d001", "d002")
KEEPALIVE_REQUESTS = smoke(20, 400)
THROUGHPUT_FLOOR = 200.0   # requests / second, mixed workload
READ_P99_FLOOR = 0.250     # seconds
KEEPALIVE_P50_FLOOR = 0.020  # seconds, one HTTP /recommend round trip

CONFIG = ReptileConfig(n_em_iterations=2)


def _rows(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    d = rng.integers(0, N_DISTRICTS, n)
    v = d * VILLAGES_PER_DISTRICT \
        + rng.integers(0, VILLAGES_PER_DISTRICT, n)  # village → district FD
    districts = np.array([f"d{i:03d}" for i in range(N_DISTRICTS)])
    villages = np.array([f"v{i:05d}" for i in
                         range(N_DISTRICTS * VILLAGES_PER_DISTRICT)])
    return {
        "district": districts[d],
        "village": villages[v],
        "year": 1980 + rng.integers(0, N_YEARS, n),
        # Integer-valued: float sums are exact in any order, so the
        # concurrent run and the serialized oracle must agree bitwise.
        "severity": rng.integers(0, 100, n).astype(float)}


def _dataset(n: int, seed: int = 0) -> HierarchicalDataset:
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    return HierarchicalDataset.build(
        Relation(schema, _rows(n, seed)),
        {"geo": ["district", "village"], "time": ["year"]},
        "severity", validate=False)


def _ingest_bodies(dataset: HierarchicalDataset, client: int,
                   count: int) -> list[dict]:
    """Small append batches to hot leaves of the delta districts."""
    rng = np.random.default_rng(500 + client)
    relation = dataset.relation
    cols = {a: relation.column(a)
            for a in ("district", "village", "year")}
    local = [i for i, d in enumerate(cols["district"])
             if d in DELTA_DISTRICTS]
    bodies = []
    for _ in range(count):
        rows = []
        for i in rng.choice(local, size=3):
            rows.append({"district": cols["district"][i],
                         "village": cols["village"][i],
                         "year": int(cols["year"][i]),
                         "severity": float(rng.integers(0, 100))})
        bodies.append({"rows": rows})
    return bodies


RECOMMEND_BODY = {"aggregate": "mean", "direction": "too_low",
                  "coordinates": {"district": "d001"},
                  "group_by": ["district"], "k": 3}


def _client_plan(n_requests: int) -> list[str]:
    """The per-client request mix: 10% ingest, the rest views with a
    periodic batched one-shot recommend."""
    plan = []
    for j in range(n_requests):
        if j % 10 == 9:
            plan.append("ingest")
        elif j % 5 == 2:
            plan.append("recommend")
        else:
            plan.append("view")
    return plan


def _make_app(n: int) -> ServerApp:
    service = ExplanationService(config=CONFIG)
    service.register("data", _dataset(n))
    return ServerApp(service, max_concurrent=16, max_queue=256,
                     queue_timeout=30.0)


class _Run:
    """One execution of the mixed workload against one app."""

    def __init__(self, app: ServerApp, concurrent: bool):
        self.app = app
        self.concurrent = concurrent
        dataset = app.service.engine("data").dataset
        self.base = (len(dataset.relation),
                     float(sum(dataset.relation.column("severity"))))
        self.plans = {i: _client_plan(REQUESTS_PER_CLIENT)
                      for i in range(CLIENTS)}
        self.bodies = {i: _ingest_bodies(dataset, i,
                                         sum(1 for op in self.plans[i]
                                             if op == "ingest"))
                       for i in range(CLIENTS)}
        self.deltas: dict[int, list[dict]] = {}
        self._deferred: list[tuple[int, tuple[int, float]]] = []
        self.failures: list[str] = []
        self._lock = threading.Lock()
        for i in range(CLIENTS):
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/sessions",
                {"group_by": ["district"], "session_id": f"c{i}"})
            assert status == 201, payload
        # Steady state, matching the fig20 protocol: a live dashboard
        # serves from warm caches; one view + one recommendation + one
        # absorbed delta populate them. Telemetry is reset afterwards so
        # the quantiles measure serving, not first-touch construction.
        assert app.dispatch("GET", "/sessions/c0/view")[0] == 200
        assert app.dispatch("POST", "/datasets/data/recommend",
                            dict(RECOMMEND_BODY))[0] == 200
        warm = _ingest_bodies(dataset, 999, 1)[0]
        status, _, payload = app.dispatch("POST", "/datasets/data/ingest",
                                          warm)
        assert status == 200, payload
        self.deltas[payload["version"]] = warm["rows"]
        assert app.dispatch("POST", "/datasets/data/recommend",
                            dict(RECOMMEND_BODY))[0] == 200
        from repro.serving.concurrency import Telemetry
        app.telemetry = Telemetry()

    def _expected(self, version: int) -> tuple[int, float]:
        count, total = self.base
        with self._lock:
            for v, rows in self.deltas.items():
                if v <= version:
                    count += len(rows)
                    total += float(sum(r["severity"] for r in rows))
        return count, total

    def _check_view(self, payload: dict) -> None:
        got = (sum(g["count"] for g in payload["groups"]),
               float(sum(g["sum"] for g in payload["groups"])))
        version = payload["data_version"]
        if got != self._expected(version):
            # Not necessarily torn: the ingester that produced this
            # version may not have *recorded* its delta yet (it does so
            # after its dispatch returns). Re-verified post-join, when
            # the oracle is complete.
            with self._lock:
                self._deferred.append((version, got))

    def _client(self, i: int) -> None:
        ingests = iter(self.bodies[i])
        for op in self.plans[i]:
            if op == "ingest":
                body = next(ingests)
                status, _, payload = self.app.dispatch(
                    "POST", "/datasets/data/ingest", body)
                if status != 200:
                    self.failures.append(f"ingest -> {status}: {payload}")
                    return
                with self._lock:
                    self.deltas[payload["version"]] = body["rows"]
            elif op == "recommend":
                status, _, payload = self.app.dispatch(
                    "POST", "/datasets/data/recommend",
                    dict(RECOMMEND_BODY))
                if status != 200:
                    self.failures.append(f"recommend -> {status}: {payload}")
                    return
            else:
                status, _, payload = self.app.dispatch(
                    "GET", f"/sessions/c{i}/view")
                if status != 200:
                    self.failures.append(f"view -> {status}: {payload}")
                    return
                self._check_view(payload)

    def execute(self) -> float:
        """Run the workload; returns elapsed wall seconds."""
        if self.concurrent:
            threads = [threading.Thread(target=self._client, args=(i,),
                                        name=f"client-{i}")
                       for i in range(CLIENTS)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(600.0)
            elapsed = time.perf_counter() - start
            assert not any(t.is_alive() for t in threads), \
                "client threads hung"
        else:
            start = time.perf_counter()
            for i in range(CLIENTS):
                self._client(i)
            elapsed = time.perf_counter() - start
        assert not self.failures, self.failures[:10]
        # With every delta recorded the oracle is complete: any deferred
        # observation that still disagrees really was a torn read.
        torn = [(v, got) for v, got in self._deferred
                if got != self._expected(v)]
        assert not torn, f"torn reads: {torn[:10]}"
        return elapsed


def _oracle_final_view(run: _Run, n: int) -> dict:
    """The final district view from a fresh service that applies the
    concurrent run's deltas one at a time, in version order."""
    service = ExplanationService(config=CONFIG)
    service.register("data", _dataset(n))
    sid = service.open_session("data", group_by=["district"])
    for _, rows in sorted(run.deltas.items()):
        service.ingest("data", [tuple(r[a] for a in
                                      ("district", "village", "year",
                                       "severity"))
                                for r in rows])
    view, version = service.with_session(sid, lambda s: s.view())
    return {key: (state.count, state.total, state.sumsq)
            for key, state in view.groups.items()}, version


def _keepalive_leg(n: int) -> dict:
    """The same recommend list in process, then over one keep-alive
    connection; returns the ``http-keepalive`` row."""
    service = ExplanationService(config=CONFIG)
    service.register("data", _dataset(n))
    server, thread = serve_http(service)
    try:
        app = server.app
        # Warm the view and its fit: the leg times serving, not a refit.
        assert app.dispatch("POST", "/datasets/data/recommend",
                            dict(RECOMMEND_BODY))[0] == 200
        start = time.perf_counter()
        for _ in range(KEEPALIVE_REQUESTS):
            status, _, payload = app.dispatch(
                "POST", "/datasets/data/recommend", dict(RECOMMEND_BODY))
            assert status == 200, payload
        in_process = time.perf_counter() - start
        # A memo hit's payload is a Mapping (an EncodedReply), which
        # json.dumps takes only as a dict.
        expected = json.loads(json.dumps(dict(payload)))

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        body = json.dumps(RECOMMEND_BODY)
        latencies = []
        start = time.perf_counter()
        for _ in range(KEEPALIVE_REQUESTS):
            sent = time.perf_counter()
            conn.request("POST", "/datasets/data/recommend", body)
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            latencies.append(time.perf_counter() - sent)
            assert reply.status == 200, payload
            assert payload == expected, "socket reply diverged from dispatch"
        over_socket = time.perf_counter() - start
        conn.close()
    finally:
        assert server.shutdown_gracefully(60.0)
        thread.join(60.0)
    return {
        "op": "http-keepalive", "scale": n, "clients": 1,
        "requests": KEEPALIVE_REQUESTS, "cold": in_process,
        "warm": over_socket, "speedup": in_process / over_socket,
        "p50_seconds": float(np.percentile(latencies, 50)),
        "p99_seconds": float(np.percentile(latencies, 99))}


def test_figure21_server_series(benchmark):
    lines = ["n        clients  req   elapsed(s)  req/s    read-p99(ms)  "
             "ingest-p99(ms)  collapse  speedup"]
    json_rows = []
    total_requests = CLIENTS * REQUESTS_PER_CLIENT
    for n in SIZES:
        # Single-threaded reference: same request totals, one thread.
        st_run = _Run(_make_app(n), concurrent=False)
        st_elapsed = st_run.execute()

        app = _make_app(n)
        run = _Run(app, concurrent=True)
        elapsed = run.execute()
        throughput = total_requests / elapsed

        endpoints = app.telemetry.snapshot()
        read_p99 = max(endpoints[e]["p99_seconds"]
                       for e in ("view", "batch_recommend")
                       if e in endpoints)
        ingest_p99 = endpoints["ingest"]["p99_seconds"]
        admission = app.admission.stats()
        assert admission["rejected"] == 0 and admission["timed_out"] == 0, \
            f"admission shed load mid-benchmark: {admission}"

        # Equality vs the serialized oracle: the final served view must
        # match a fresh engine that ingested the same deltas one by one.
        status, _, final = app.dispatch("GET", "/sessions/c0/view")
        assert status == 200
        oracle_groups, oracle_version = _oracle_final_view(run, n)
        assert final["data_version"] == oracle_version
        served = {tuple(g["key"]): (float(g["count"]), g["sum"], g["sumsq"])
                  for g in final["groups"]}
        assert served == oracle_groups, "served view diverged from the " \
            "single-threaded oracle"

        collapse = app.batches.stats()["collapse_ratio"]
        speedup = st_elapsed / elapsed if elapsed > 0 else float("inf")
        lines.append(
            f"{n:<8d} {CLIENTS:<8d} {total_requests:<5d} {fmt(elapsed)}"
            f"      {throughput:7.1f}  {read_p99 * 1000:12.1f}  "
            f"{ingest_p99 * 1000:14.1f}  {collapse:8.2f}  {speedup:5.2f}x")
        json_rows.append({
            "op": "mixed-90-10", "scale": n, "clients": CLIENTS,
            "requests": total_requests, "cold": st_elapsed,
            "warm": elapsed, "speedup": speedup,
            "throughput_rps": throughput,
            "read_p99_seconds": read_p99,
            "ingest_p99_seconds": ingest_p99,
            "batch_collapse_ratio": collapse})
        if not SMOKE and n >= 100_000:
            assert throughput >= THROUGHPUT_FLOOR, (
                f"throughput {throughput:.1f} req/s < "
                f"{THROUGHPUT_FLOOR} req/s floor at n={n}")
            assert read_p99 <= READ_P99_FLOOR, (
                f"read p99 {read_p99 * 1000:.1f}ms > "
                f"{READ_P99_FLOOR * 1000:.0f}ms floor at n={n}")

    lines += ["", "n        http-keepalive req  dispatch(s)  socket(s)  "
                  "p50(ms)  p99(ms)"]
    for n in SIZES:
        row = _keepalive_leg(n)
        lines.append(
            f"{n:<8d} {row['requests']:<19d} {fmt(row['cold'])}       "
            f"{fmt(row['warm'])}     {row['p50_seconds'] * 1000:7.2f}  "
            f"{row['p99_seconds'] * 1000:7.2f}")
        json_rows.append(row)
        if not SMOKE and n >= 100_000:
            assert row["p50_seconds"] <= KEEPALIVE_P50_FLOOR, (
                f"keep-alive p50 {row['p50_seconds'] * 1000:.1f}ms > "
                f"{KEEPALIVE_P50_FLOOR * 1000:.0f}ms floor at n={n}")
    report("fig21_server", lines)
    report_json("fig21_server", json_rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
