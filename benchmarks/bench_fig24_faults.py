"""Figure 24 (repro-only): availability and recovery under injected faults.

The fault-tolerance claim quantified: a serving stack that suffers
ingest-commit failures and a forced rebuild mid-traffic must keep
answering — reads from the last good snapshot, failures as degraded
503s, never a bare 5xx — and must return to full health on its own.

Protocol per scale: a baseline run (no faults) and a faulted run of the
identical mixed workload (80% one-shot recommends, 20% hot-leaf ingest
bursts from CLIENTS threads). Mid-way through the faulted run a
controller makes the next two ``ingest.commit`` calls fail, then POSTs
a ``/refresh`` so a full rebuild runs under the read/ingest traffic.
A monitor thread samples the dataset's health state at 2ms resolution;
``recovery_seconds`` is the span from the first degraded sample to the
first healthy sample after it (background auto-rebuild does the
recovering — the bench never calls ``try_rebuild`` itself).

Reported per scale: availability (fraction of 2xx responses) for both
runs, the recovery time, and ``speedup`` = baseline elapsed over faulted
elapsed for identical request totals (the throughput cost of surviving
the faults; ~1.0 means fault handling is off the hot path).

Acceptance (every run, smoke included): zero non-degraded 5xx — every
5xx response carries ``degraded: true`` or a ``retry_after`` — and the
post-recovery cube is bitwise-equal to the row-at-a-time rebuild oracle
over the final relation. Full scale adds floors: faulted-run
availability ≥ 0.90 and recovery within 10 s.
"""

import threading
import time

import numpy as np

from repro import HierarchicalDataset, Relation, ReptileConfig, Schema, \
    dimension, measure
import repro.robustness.faultinject as fi
from repro.relational import deltaref
from repro.serving import ExplanationService, ServerApp

from bench_utils import SMOKE, fmt, report, report_json, smoke

SIZES = smoke([2_000], [50_000])
CLIENTS = smoke(3, 6)
REQUESTS_PER_CLIENT = smoke(20, 120)
N_DISTRICTS = 20
VILLAGES_PER_DISTRICT = 25
N_YEARS = 10
AVAILABILITY_FLOOR = 0.90   # faulted run, full scale
RECOVERY_FLOOR_S = 10.0     # full scale

CONFIG = ReptileConfig(n_em_iterations=2)

RECOMMEND_BODY = {"aggregate": "mean", "direction": "too_low",
                  "coordinates": {"district": "d001"},
                  "group_by": ["district"], "k": 3}

_ALLOWED = {200, 400, 409, 503}


def _dataset(n: int, seed: int = 0) -> HierarchicalDataset:
    rng = np.random.default_rng(seed)
    d = rng.integers(0, N_DISTRICTS, n)
    v = d * VILLAGES_PER_DISTRICT \
        + rng.integers(0, VILLAGES_PER_DISTRICT, n)  # village → district FD
    districts = np.array([f"d{i:03d}" for i in range(N_DISTRICTS)])
    villages = np.array([f"v{i:05d}" for i in
                         range(N_DISTRICTS * VILLAGES_PER_DISTRICT)])
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    rows = {"district": districts[d], "village": villages[v],
            "year": 1980 + rng.integers(0, N_YEARS, n),
            # Integer-valued: sums are exact, so the bitwise oracle holds.
            "severity": rng.integers(0, 100, n).astype(float)}
    return HierarchicalDataset.build(
        Relation(schema, rows), {"geo": ["district", "village"],
                                 "time": ["year"]}, "severity",
        validate=False)


def _make_app(n: int) -> ServerApp:
    service = ExplanationService(config=CONFIG, auto_rebuild=True)
    service.register("data", _dataset(n))
    service.health.backoff_base = 0.05  # recover fast once faults clear
    service.health.backoff_cap = 0.5
    return ServerApp(service, max_concurrent=8, max_queue=256,
                     queue_timeout=30.0, request_timeout=30.0)


class _Run:
    """One execution of the mixed workload, optionally with faults."""

    def __init__(self, app: ServerApp, faulted: bool):
        self.app = app
        self.faulted = faulted
        self.responses: list[tuple[int, dict]] = []
        self._lock = threading.Lock()
        self._first_degraded: float | None = None
        self._recovered_at: float | None = None
        self._stop_monitor = threading.Event()

    def _client(self, i: int) -> None:
        rng = np.random.default_rng(100 + i)
        for j in range(REQUESTS_PER_CLIENT):
            if j % 5 == 4:
                village = int(rng.integers(0, VILLAGES_PER_DISTRICT))
                row = ["d001", f"v{VILLAGES_PER_DISTRICT + village:05d}",
                       int(1980 + rng.integers(0, N_YEARS)),
                       float(rng.integers(0, 100))]
                status, _, payload = self.app.dispatch(
                    "POST", "/datasets/data/ingest", {"rows": [row]})
            else:
                status, _, payload = self.app.dispatch(
                    "POST", "/datasets/data/recommend",
                    dict(RECOMMEND_BODY))
            with self._lock:
                self.responses.append((status, payload))

    def _monitor(self) -> None:
        health = self.app.service.health
        while not self._stop_monitor.is_set():
            now = time.perf_counter()
            if health.is_degraded("data"):
                if self._first_degraded is None:
                    self._first_degraded = now
                self._recovered_at = None
            elif self._first_degraded is not None \
                    and self._recovered_at is None:
                self._recovered_at = now
            time.sleep(0.002)

    def _controller(self, traffic_estimate_s: float) -> None:
        """Mid-bench fault burst: failed commits + a forced rebuild."""
        time.sleep(max(0.01, traffic_estimate_s * 0.15))
        fi.inject("ingest.commit", kind="error", hits=(1, 2))
        # Force a full rebuild under traffic. The response may be a clean
        # 200 or a degraded 503 (a failed commit left the dataset to the
        # recovery loop) — both keep the availability contract.
        status, _, payload = self.app.dispatch(
            "POST", "/datasets/data/refresh", {})
        with self._lock:
            self.responses.append((status, payload))

    def execute(self) -> float:
        monitor = threading.Thread(target=self._monitor, daemon=True)
        monitor.start()
        threads = [threading.Thread(target=self._client, args=(i,))
                   for i in range(CLIENTS)]
        extra = []
        start = time.perf_counter()
        for t in threads:
            t.start()
        if self.faulted:
            estimate = 0.2 if SMOKE else 2.0
            controller = threading.Thread(target=self._controller,
                                          args=(estimate,), daemon=True)
            controller.start()
            extra.append(controller)
        for t in threads + extra:
            t.join(600.0)
            assert not t.is_alive(), "benchmark traffic hung"
        elapsed = time.perf_counter() - start
        if self.faulted:
            if not SMOKE:
                # Both injected commit failures fired. At smoke sizes
                # the traffic may end before the controller injects.
                assert fi.fired_counts() == {"ingest.commit": 2}, \
                    fi.fired_counts()
            fi.clear_faults()
            # Recovery is the background rebuild loop's job alone.
            deadline = time.monotonic() + 30.0
            while (self.app.service.health.is_degraded("data")
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert not self.app.service.health.is_degraded("data"), \
                "dataset never recovered after faults cleared"
        self._stop_monitor.set()
        monitor.join(5.0)
        return elapsed

    @property
    def availability(self) -> float:
        ok = sum(1 for status, _ in self.responses if status == 200)
        return ok / len(self.responses) if self.responses else 0.0

    @property
    def recovery_seconds(self) -> float:
        if self._first_degraded is None:
            return 0.0
        if self._recovered_at is None:
            return float("inf")
        return self._recovered_at - self._first_degraded

    def assert_no_bare_5xx(self) -> None:
        for status, payload in self.responses:
            assert status in _ALLOWED, (status, payload)
            if status >= 500:
                assert (payload.get("degraded") is True
                        or payload.get("retry_after") is not None), \
                    (status, payload)


def test_figure24_faults_series(benchmark):
    lines = ["n        clients  req   base(s)   fault(s)  avail-base  "
             "avail-fault  recover(s)  speedup"]
    json_rows = []
    total_requests = CLIENTS * REQUESTS_PER_CLIENT
    for n in SIZES:
        fi.clear_faults()
        baseline = _Run(_make_app(n), faulted=False)
        base_elapsed = baseline.execute()
        baseline.assert_no_bare_5xx()
        assert baseline.availability == 1.0, \
            f"baseline run was not fully available: {baseline.availability}"

        faulted = _Run(_make_app(n), faulted=True)
        fault_elapsed = faulted.execute()
        faulted.assert_no_bare_5xx()
        assert faulted.recovery_seconds != float("inf"), \
            "degraded state never recovered"

        # Bitwise oracle: the post-recovery cube equals a row-at-a-time
        # rebuild over the relation it serves.
        engine = faulted.app.service.engine("data")
        deltaref.assert_groups_equal(
            engine.cube.leaf_states,
            deltaref.rebuilt_leaf_states(engine.dataset))

        speedup = base_elapsed / fault_elapsed if fault_elapsed else 0.0
        lines.append(
            f"{n:<8d} {CLIENTS:<8d} {total_requests:<5d} "
            f"{fmt(base_elapsed)}    {fmt(fault_elapsed)}    "
            f"{baseline.availability:10.3f}  {faulted.availability:11.3f}  "
            f"{faulted.recovery_seconds:10.3f}  {speedup:5.2f}x")
        json_rows.append({
            "op": "faulted-mixed-80-20", "scale": n, "clients": CLIENTS,
            "requests": total_requests, "cold": fault_elapsed,
            "warm": base_elapsed, "speedup": speedup,
            "availability_baseline": baseline.availability,
            "availability_faulted": faulted.availability,
            "recovery_seconds": faulted.recovery_seconds})
        if not SMOKE and n >= 50_000:
            assert faulted.availability >= AVAILABILITY_FLOOR, (
                f"availability {faulted.availability:.3f} < "
                f"{AVAILABILITY_FLOOR} floor at n={n}")
            assert faulted.recovery_seconds <= RECOVERY_FLOOR_S, (
                f"recovery took {faulted.recovery_seconds:.2f}s > "
                f"{RECOVERY_FLOOR_S}s floor at n={n}")
    report("fig24_faults", lines)
    report_json("fig24_faults", json_rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
