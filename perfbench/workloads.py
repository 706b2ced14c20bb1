"""The benchmark workloads: set-up, warm-up, timed plan and gate.

Every workload runs on ``drought_chunks(rows, seed=seed)`` — 64
districts x 50 villages x 25 years, 80k leaf groups at 1e6 rows — with
the default ``ReptileConfig``, through the public APIs users call. The
plan is a fixed, seeded list of operations whose length is set from
``--seconds`` by a per-workload rate measured on a 2-cpu box, so every
run of a seed sends the same requests (a fixed count, not a fixed
duration). Warm-up brings caches and histories to steady state before
the timed phase, and the correctness gate runs after it.

Each latency percentile covers one request class whose costs cluster:
one recommend round trip on http-read, one ingest-then-recommend
iteration on ingest-mix.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import kernels, relational
from repro.datagen import perf
from repro.serving.server import recommendation_payload, serve_http

#: Set-ups per run; ``setup_s`` is their median (the first one in a
#: process is the slowest).
SETUPS = 3
#: Timed operations per ``--seconds``, measured at this commit on a
#: 2-cpu box: requests (both clients), iterations.
RATES = {"http-read-1e6": 125 / 3, "ingest-mix-1e6": 35 / 6}
MIN_OPS = {"http-read-1e6": 20, "ingest-mix-1e6": 10}
#: HTTP client threads (and persistent connections) on http-read.
CLIENTS = 2
#: Ingest-mix retracts the batch appended this many iterations earlier.
RETRACT_LAG = 8
ROWS_PER_INGEST = 8
HEADERS = {"Content-Type": "application/json"}
DATASET = "data"


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup_s: list[float]
    latencies_ms: dict[str, list[float]]   # request class -> samples
    op_class: str                          # the class latency_* covers
    recommends: int
    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    n_ops: int = 0


def plan_size(workload: str, seconds: float) -> int:
    return max(MIN_OPS[workload], round(RATES[workload] * seconds))


def generate(rows: int, seed: int) -> list[dict]:
    """The seeded input columns, materialized once per run."""
    return list(perf.drought_chunks(rows, seed=seed))


def build_dataset(chunks: list[dict]):
    # Looked up on the module at call time, so a traced run sees it.
    return relational.dataset_from_chunks(
        iter(chunks), perf.DROUGHT_HIERARCHIES, perf.DROUGHT_MEASURE)


def timed_setups(make, teardown) -> tuple[list[float], object]:
    """Run ``make`` SETUPS times; keep the last state, time them all."""
    times, state = [], None
    for _ in range(SETUPS):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return times, state


def column_values(chunks: list[dict], name: str) -> np.ndarray:
    return np.concatenate([c[name] for c in chunks])


# -- the HTTP workloads ----------------------------------------------------------
class Client:
    """One persistent HTTP/1.1 connection; requests carry ``?rid=``."""

    def __init__(self, url_host: str, port: int, tracer=None):
        self.conn = http.client.HTTPConnection(url_host, port, timeout=60)
        self.tracer = tracer

    def post(self, path: str, body: bytes, rid: str, root: str
             ) -> tuple[int, bytes, float]:
        tracer = self.tracer
        if tracer is not None:
            tracer.root(root, rid)
        t0 = time.perf_counter()
        try:
            self.conn.request("POST", f"{path}?rid={rid}", body=body,
                              headers=HEADERS)
            resp = self.conn.getresponse()
            status, data = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # reconnects on the next request
            status, data = 0, repr(exc).encode()
        elapsed = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.end()
        return status, data, elapsed

    def get(self, path: str) -> tuple[int, dict]:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def close(self) -> None:
        self.conn.close()


@dataclass
class Served:
    service: repro.ExplanationService
    server: object
    thread: threading.Thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]


def serve(chunks) -> Served:
    dataset = build_dataset(chunks)
    service = repro.ExplanationService()
    service.register(DATASET, dataset)
    server, thread = serve_http(service)
    return Served(service, server, thread)


def stop(served: Served) -> None:
    served.server.shutdown_gracefully()
    served.thread.join(10)


def counters(served: Served | None = None) -> dict:
    """Program counters the per-layer metrics difference across the
    timed phase: kernel dispatches, cache outcomes, batch passes (the
    serving ones stay 0 without a server)."""
    dispatches = kernels.kernel_stats()["counters"].values()
    out = {kind: sum(c[kind] for c in dispatches)
           for kind in ("fused", "fallback")}
    cache = served.service.stats()["cache"] if served else {}
    batching = served.server.app.batches.stats() if served else {}
    for key in ("hits", "misses", "evictions", "patched", "retained",
                "entries"):
        out[key] = cache.get(key, 0)
    for key in ("passes", "collapsed"):
        out[key] = batching.get(key, 0)
    return out


def _top_k(payload: dict) -> tuple:
    """The checked part of a recommend payload: version and rankings."""
    return (payload["data_version"], payload["best_hierarchy"],
            {name: (h["base_penalty"],
                    [(g["key"], g["score"]) for g in h["groups"]])
             for name, h in payload["hierarchies"].items()})


def served_workload(body):
    """A workload against the HTTP server: set up, run ``body``, stop."""
    def run(chunks, seed, n_ops, tracer=None, corrupt=False) -> Outcome:
        setup_s, served = timed_setups(lambda: serve(chunks), stop)
        if tracer is not None:
            tracer.phase = "warmup"
        try:
            return body(served, chunks, seed, n_ops, tracer, corrupt,
                        setup_s)
        finally:
            stop(served)
    return run


def _request(spec: dict, too_high: bool) -> repro.ComplaintRequest:
    """The in-process form of one hot-view request body."""
    make = repro.Complaint.too_high if too_high else repro.Complaint.too_low
    return repro.ComplaintRequest(make(spec["coordinates"], "mean"),
                                  tuple(spec["group_by"]),
                                  dict(spec.get("filters", {})))


def _http_read(served, chunks, seed, n_ops, tracer, corrupt, setup_s):
    district_col = column_values(chunks, "district")
    year_col = column_values(chunks, "year")
    rng = np.random.default_rng([seed, 3])
    hot = []  # 128 views: per district, by-district and by-year in it
    for d in sorted(set(district_col.tolist())):
        hot.append({"group_by": ["district"], "coordinates": {"district": d}})
        years = np.unique(year_col[district_col == d])
        hot.append({"group_by": ["year"], "filters": {"district": d},
                    "coordinates": {"year": int(years[rng.integers(
                        len(years))])}})
    directions = ("too_low", "too_high")
    bodies = [[json.dumps(dict(spec, aggregate="mean",
                               direction=direction)).encode()
               for direction in directions] for spec in hot]
    per_client = max(1, n_ops // CLIENTS)
    plans = [[(int(rng.integers(len(hot))), int(rng.integers(2)))
              for _ in range(per_client)] for _ in range(CLIENTS)]

    # Warm-up: every hot view (its drill-down views and fits) in
    # process, then a few requests on each persistent connection.
    for spec in hot:
        served.service.submit_batch(DATASET, [_request(spec, False)])
    host, port = served.address
    clients = [Client(host, port, tracer) for _ in range(CLIENTS)]
    path = f"/datasets/{DATASET}/recommend"
    for c, client in enumerate(clients):
        for j in range(4):
            idx, direction = plans[c][j % per_client]
            client.post(path, bodies[idx][direction], f"w{c}.{j}",
                        "op.warmup")

    results: list[list] = [[] for _ in clients]
    start = threading.Barrier(CLIENTS + 1)

    def drive(c: int) -> None:
        client, out = clients[c], results[c]
        start.wait()
        for j, (idx, direction) in enumerate(plans[c]):
            out.append(client.post(path, bodies[idx][direction],
                                   f"c{c}.{j}", "op.request"))

    before = counters(served)
    if tracer is not None:
        tracer.phase = "timed"
    threads = [threading.Thread(target=drive, args=(c,), daemon=True)
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    start.wait()
    wall0 = time.perf_counter()
    for t in threads:
        t.join(170)
    wall = time.perf_counter() - wall0
    if tracer is not None:
        tracer.phase = "gate"
    after = counters(served)
    for client in clients:
        client.close()
    if any(t.is_alive() for t in threads):
        raise RuntimeError("an HTTP client did not finish within 170 s")

    # Gate: each response's top-k equals the in-process submit_batch
    # answer at the same data_version.
    expected: dict[tuple, tuple] = {}
    problems, failed, latencies, ok = [], 0, [], 0
    for c, plan in enumerate(plans):
        for j, ((idx, direction), (status, data, ms)) in enumerate(
                zip(plan, results[c])):
            latencies.append(ms)
            if (idx, direction) not in expected:
                batch = served.service.submit_batch(
                    DATASET, [_request(hot[idx], bool(direction))])
                payload = recommendation_payload(
                    batch.items[0].recommendation, batch.data_version)
                expected[(idx, direction)] = _top_k(
                    json.loads(json.dumps(payload)))
            if status != 200:
                failed += 1
                problems.append(f"client {c} request {j}: HTTP {status}")
                continue
            ok += 1
            got = _top_k(json.loads(data))
            if corrupt and c == 0 and j == 0:
                got = (got[0] + 1,) + got[1:]
            if got != expected[(idx, direction)]:
                failed += 1
                problems.append(f"client {c} request {j}: top-k differs "
                                f"from submit_batch")
    return Outcome(setup_s, {"recommend": latencies}, "recommend",
                   recommends=ok, wall_s=wall,
                   attempted=len(latencies), failed=failed,
                   problems=problems,
                   counters={"before": before, "after": after},
                   n_ops=len(latencies))


def _ingest_mix(served, chunks, seed, n_ops, tracer, corrupt, setup_s):
    district_col = column_values(chunks, "district")
    village_col = column_values(chunks, "village")
    year_col = column_values(chunks, "year")
    sev_col = column_values(chunks, perf.DROUGHT_MEASURE)
    districts = sorted(set(district_col.tolist()))
    rows_of = {d: np.flatnonzero(district_col == d) for d in districts}
    rng = np.random.default_rng([seed, 4])

    def iteration() -> tuple[str, list, int]:
        # Rows land in existing leaves, so appends and the later
        # retracts never add or empty a leaf group.
        d = districts[rng.integers(len(districts))]
        picks = rng.choice(rows_of[d], ROWS_PER_INGEST)
        rows = [[d, str(village_col[i]), int(year_col[i]),
                 float(rng.integers(0, 100))] for i in picks]
        return d, rows, int(rng.integers(2))

    plan = [iteration() for _ in range(RETRACT_LAG + n_ops)]
    host, port = served.address
    client = Client(host, port, tracer)
    status, data, _ = client.post(f"/datasets/{DATASET}/sessions",
                                  b'{"group_by": ["district"]}', "open",
                                  "op.open")
    if status != 201:
        raise RuntimeError(f"opening the session answered {status}")
    sid = json.loads(data)["session_id"]
    # Warm-up: every district's drill-down views, then RETRACT_LAG
    # iterations so each timed ingest also retracts a batch.
    for d in districts:
        served.service.recommend(
            sid, repro.Complaint.too_high({"district": d}, "sum"))
    directions = ("too_low", "too_high")
    acknowledged: list[tuple[list, list]] = []   # (appended, retracted)
    versions: list[int] = []
    problems: list[str] = []
    ingest_ms, recommend_ms, iteration_ms = [], [], []
    failed = attempted = recommends = 0
    before = None
    wall0 = 0.0
    for i, (d, rows, direction) in enumerate(plan):
        timed = i >= RETRACT_LAG
        if timed and before is None:
            before = counters(served)
            if tracer is not None:
                tracer.phase = "timed"
            wall0 = time.perf_counter()
        retract = plan[i - RETRACT_LAG][1] if timed else []
        body = json.dumps({"rows": rows, "retract": retract}).encode()
        status, data, ms_i = client.post(f"/datasets/{DATASET}/ingest", body,
                                         f"i{i}", "op.ingest")
        attempted += timed
        if status == 200:
            acknowledged.append((rows, retract))
            versions.append(json.loads(data)["version"])
        else:
            failed += timed
            problems.append(f"ingest {i}: HTTP {status} {data[:200]!r}")
        body = json.dumps({"aggregate": "sum",
                           "direction": directions[direction],
                           "coordinates": {"district": d}}).encode()
        status, data, ms_r = client.post(f"/sessions/{sid}/recommend", body,
                                         f"r{i}", "op.recommend")
        attempted += timed
        if status != 200:
            failed += timed
            problems.append(f"recommend {i}: HTTP {status}")
        elif versions and json.loads(data)["data_version"] != versions[-1]:
            failed += timed
            problems.append(f"recommend {i}: answered at another version")
        if timed:
            recommends += status == 200
            ingest_ms.append(ms_i)
            recommend_ms.append(ms_r)
            iteration_ms.append(ms_i + ms_r)
    wall = time.perf_counter() - wall0
    if tracer is not None:
        tracer.phase = "gate"
    after = counters(served)

    # Gate: the version counts acknowledged ingests, and the served
    # by-district totals equal base + every acknowledged delta.
    status, info = client.get(f"/sessions/{sid}")
    if corrupt:
        acknowledged[-1][0][0][3] += 1.0
    if status != 200 or info["data_version"] != len(acknowledged) \
            or versions != list(range(1, len(acknowledged) + 1)):
        failed += 1
        problems.append(f"data_version {info.get('data_version')} after "
                        f"{len(acknowledged)} acknowledged ingests")
    count = {d: 0.0 for d in districts}
    total = {d: 0.0 for d in districts}
    codes = np.searchsorted(districts, district_col)
    for d, n, s in zip(districts,
                       np.bincount(codes, minlength=len(districts)),
                       np.bincount(codes, weights=sev_col,
                                   minlength=len(districts))):
        count[d], total[d] = float(n), float(s)
    for appended, retracted in acknowledged:
        for sign, batch in ((1.0, appended), (-1.0, retracted)):
            for row in batch:
                count[row[0]] += sign
                total[row[0]] += sign * row[3]
    status, view = client.get(f"/sessions/{sid}/view")
    served_totals = {g["key"][0]: (float(g["count"]), g["sum"])
                     for g in view.get("groups", [])}
    if status != 200 or served_totals != {d: (count[d], total[d])
                                          for d in districts}:
        failed += 1
        problems.append("by-district totals differ from base + deltas")
    client.close()
    return Outcome(setup_s, {"iteration": iteration_ms, "ingest": ingest_ms,
                             "recommend": recommend_ms}, "iteration",
                   recommends=recommends, wall_s=wall, attempted=attempted,
                   failed=failed, problems=problems,
                   counters={"before": before, "after": after},
                   n_ops=len(iteration_ms))


WORKLOADS = {"http-read-1e6": served_workload(_http_read),
             "ingest-mix-1e6": served_workload(_ingest_mix)}


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as ``statistics.quantiles`` has it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]
