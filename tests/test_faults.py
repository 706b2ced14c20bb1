"""Fault-injection and chaos suite for the robustness layer.

Exercises every registered fault point (``pool.submit``, ``pool.result``,
``shm.attach``, ``worker.build``, ``kernel.dispatch``, ``cache.fill``,
``ingest.commit``, ``serving.rebuild``) and pins the recovery contracts:

* the :mod:`repro.robustness.faultinject` registry itself (spec grammar,
  deterministic hit selection, cross-process ``@once`` tokens, the
  ``REPTILE_FAULTS`` environment path, clean teardown);
* the supervised :class:`~repro.relational.shard.ShardWorkerPool`
  (retry + salvage on task errors, respawn after crashes, per-task
  deadlines, ``PoolFailure`` after the budget, the spill build's serial
  fallback keeping results bitwise-equal, no leaked spill files — ever);
* kernel-backend quarantine (a raising fused tier serves plain, the
  quarantine is visible and liftable);
* atomic ingest (a failed commit leaves version, cube, fingerprints and
  cache exactly at the last good snapshot, and the same delta applies
  cleanly afterwards);
* degraded-mode serving (failed ingest answers 503 + ``degraded: true``
  while reads keep serving the old snapshot, recovery through
  foreground and background rebuilds, per-request deadlines);
* 32 seeded chaos schedules — concurrent read/ingest traffic under
  randomly placed faults — asserting the availability invariants: no
  non-degraded 5xx, full recovery, no leaked segments, and the served
  cube bitwise-equal to the row-at-a-time rebuild oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.robustness.faultinject as fi
from repro import (Delta, HierarchicalDataset, Relation, Reptile,
                   ReptileConfig, Schema, dimension, measure)
from repro import kernels
from repro.kernels import plain as plain_kernels
from repro.relational import deltaref
from repro.relational.cube import Cube
from repro.relational.shard import (PoolFailure, ShardWorkerPool,
                                    dataset_from_chunks, leaked_segments,
                                    spill_build_from_chunks)
from repro.robustness.faultinject import (FaultInjected, faults,
                                          parse_spec)
from repro.serving.health import (DEGRADED, HEALTHY, REBUILDING,
                                  HealthRegistry, IngestFailure)
from repro.serving.server import ServerApp
from repro.serving.service import ExplanationService

from chunk_helpers import rows_to_chunks

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}

ROWS = [
    ("d0", "d0-v0", 2000, 1.5),
    ("d1", "d1-v0", 2000, 2.0),
    ("d0", "d0-v1", 2001, -0.5),
    ("d2", "d2-v0", 2001, 4.0),
    ("d1", "d1-v1", 2000, 0.25),
    ("d0", "d0-v0", 2001, 3.0),
    ("d2", "d2-v1", 2000, 8.0),
    ("d1", "d1-v0", 2001, 1.0),
    ("d2", "d2-v0", 2000, 2.5),
    ("d0", "d0-v1", 2000, 0.75),
]

CONFIG = ReptileConfig(n_em_iterations=2, top_k=2)


def _dataset(rows=ROWS) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


def _chunks() -> list[dict]:
    return rows_to_chunks(ROWS, chunk_rows=4)


def _spill_build(spill_dir, pool: ShardWorkerPool):
    return spill_build_from_chunks(_chunks(), HIERARCHIES, "sev",
                                   spill_dir=str(spill_dir), n_shards=3,
                                   pool=pool)


def _assert_spill_bitwise(result, expected: Cube) -> None:
    assert np.array_equal(result.key_codes, expected._key_codes)
    for name in ("count", "total", "sumsq"):
        assert np.array_equal(getattr(result.stats, name),
                              getattr(expected.leaf_stats, name)), name


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends fault-free (token files removed)."""
    fi.clear_faults()
    yield
    fi.clear_faults()


# A picklable worker task with its own fault point exposure: forked pool
# workers inherit specs installed before the pool's first submit.
def _double(x: int) -> int:
    fi.fault_point("worker.build", task=x)
    return 2 * x


# ---------------------------------------------------------------------------
# The fault registry itself


class TestFaultSpecs:
    def test_parse_spec_roundtrip(self):
        specs = parse_spec("cache.fill=error:OSError@2,5; "
                           "pool.submit=delay:0.01;worker.build=crash@once")
        assert [s.point for s in specs] == ["cache.fill", "pool.submit",
                                           "worker.build"]
        assert specs[0].kind == "error" and specs[0].arg == "OSError"
        assert specs[0].hits == (2, 5)
        assert specs[1].kind == "delay" and specs[1].arg == "0.01"
        assert specs[1].hits is None and not specs[1].once
        assert specs[2].kind == "crash" and specs[2].once
        assert specs[2].token is not None

    @pytest.mark.parametrize("bad", [
        "nokind", "p=wat", "p=delay:abc", "p=error@0", "p=error@x",
        "=error",
    ])
    def test_parse_spec_rejects_bad_grammar(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_fires_only_on_chosen_invocations(self):
        fi.inject("cache.fill", kind="error", hits=(2,))
        fi.fault_point("cache.fill")  # invocation 1: clean
        with pytest.raises(FaultInjected):
            fi.fault_point("cache.fill")  # invocation 2: fires
        fi.fault_point("cache.fill")  # invocation 3: clean again
        assert fi.fired_counts() == {"cache.fill": 1}

    def test_named_builtin_exception(self):
        fi.inject("ingest.commit", kind="error", arg="OSError")
        with pytest.raises(OSError):
            fi.fault_point("ingest.commit")

    def test_once_fires_a_single_time(self):
        fi.inject("cache.fill", kind="error", once=True)
        with pytest.raises(FaultInjected):
            fi.fault_point("cache.fill")
        for _ in range(5):
            fi.fault_point("cache.fill")  # token claimed: never again
        assert fi.fired_counts() == {"cache.fill": 1}

    def test_faults_context_restores_clean_state(self):
        with faults("cache.fill=error"):
            with pytest.raises(FaultInjected):
                fi.fault_point("cache.fill")
        fi.fault_point("cache.fill")  # clean after the context
        assert fi.fired_counts() == {}

    def test_env_spec_crashes_fresh_process(self):
        """REPTILE_FAULTS drives processes that never saw install()."""
        env = dict(os.environ,
                   REPTILE_FAULTS="worker.build=crash",
                   PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.robustness.faultinject import fault_point; "
             "fault_point('worker.build')"],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True)
        assert proc.returncode == fi.CRASH_EXIT_CODE

    def test_clear_faults_neutralizes_set_env_var(self, monkeypatch):
        monkeypatch.setenv(fi.ENV_VAR, "cache.fill=error")
        with pytest.raises(FaultInjected):
            fi.fault_point("cache.fill")
        fi.clear_faults()
        fi.fault_point("cache.fill")  # var still set, but neutralized


# ---------------------------------------------------------------------------
# Supervised worker pool


class TestSupervisedPool:
    def _pool(self, **kw) -> ShardWorkerPool:
        kw.setdefault("task_timeout", 30.0)
        kw.setdefault("backoff_base", 0.001)
        kw.setdefault("backoff_cap", 0.002)
        return ShardWorkerPool(2, **kw)

    def test_task_error_is_retried_and_salvaged(self):
        pool = self._pool()
        try:
            fi.inject("worker.build", kind="error", once=True)
            assert pool.run_tasks(_double, [(i,) for i in range(4)]) == \
                [0, 2, 4, 6]
            assert pool.respawns == 0  # an exception does not kill workers
            assert pool.retried_tasks >= 1
            assert pool.task_failures >= 1
        finally:
            pool.shutdown()
        assert pool.leaked_at_shutdown == []

    def test_worker_crash_respawns_pool(self):
        pool = self._pool()
        try:
            fi.inject("worker.build", kind="crash", once=True)
            assert pool.run_tasks(_double, [(i,) for i in range(4)]) == \
                [0, 2, 4, 6]
            assert pool.respawns >= 1
            assert pool.alive()
        finally:
            pool.shutdown()

    def test_deadline_terminates_stuck_worker(self):
        pool = self._pool()
        try:
            fi.inject("worker.build", kind="delay", arg="30", once=True)
            t0 = time.monotonic()
            assert pool.run_tasks(_double, [(i,) for i in range(3)],
                                  timeout=0.5) == [0, 2, 4]
            assert time.monotonic() - t0 < 10.0  # never waited the 30s out
            assert pool.respawns >= 1  # the stuck worker was terminated
            assert any("deadline" in f for f in [pool.last_error or ""])
        finally:
            pool.shutdown()

    def test_budget_exhaustion_raises_poolfailure_then_recovers(self):
        pool = self._pool(retry_budget=1)
        try:
            fi.inject("worker.build", kind="error")  # every invocation
            with pytest.raises(PoolFailure) as err:
                pool.run_tasks(_double, [(0,), (1,)])
            assert err.value.failures  # per-attempt history travels along
            fi.clear_faults()
            # Workers forked before clear_faults inherited the spec;
            # respawn so fresh forks see the cleared registry.
            pool._respawn()
            assert pool.run_tasks(_double, [(5,)]) == [10]
        finally:
            pool.shutdown()

    def test_pool_failure_falls_back_to_bitwise_serial_build(self,
                                                             tmp_path):
        expected = Cube(dataset_from_chunks(_chunks(), HIERARCHIES, "sev"))
        pool = self._pool(retry_budget=0)
        try:
            fi.inject("worker.build", kind="error")
            result = _spill_build(tmp_path, pool)
            assert "fallback" in result.timings
            _assert_spill_bitwise(result, expected)
            assert pool.stats()["task_failures"] >= 1
        finally:
            pool.shutdown()
        assert pool.leaked_at_shutdown == []
        assert leaked_segments() == []
        assert os.listdir(tmp_path) == []

    def test_no_segments_leak_after_injected_crash(self, tmp_path):
        """Regression: a worker crash mid-build must not leak spill files.

        Checks both the in-process registry and the filesystem: every
        block the build spilled is released even though a worker died
        while it was mapped, so the spill directory is empty afterwards.
        """
        expected = Cube(dataset_from_chunks(_chunks(), HIERARCHIES, "sev"))
        pool = self._pool()
        try:
            # Injected before the pool forks, so its workers inherit it.
            fi.inject("worker.build", kind="crash", once=True)
            result = _spill_build(tmp_path, pool)
            assert pool.respawns >= 1  # the crash really fired
            assert "fallback" not in result.timings
            _assert_spill_bitwise(result, expected)
        finally:
            pool.shutdown()
        assert pool.leaked_at_shutdown == []
        assert leaked_segments() == []
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Kernel-backend quarantine


class TestKernelQuarantine:
    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        original = kernels.backend_name()
        yield
        kernels.clear_quarantine()
        kernels.set_backend(original)

    def test_raising_backend_is_quarantined_and_plain_serves(self):
        kernels.set_backend("numpy")
        combined = np.array([3, 1, 3, 0], dtype=np.int64)
        expected = plain_kernels.group_codes(combined, 4)
        fi.inject("kernel.dispatch", kind="error", hits=(1,))
        got = kernels.group_codes(combined, 4)
        # The injected raise was swallowed; the answer is the plain tier's.
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        quarantined = kernels.quarantined_backends()
        assert "numpy" in quarantined
        assert quarantined["numpy"]["kernel"] == "group_codes"
        assert "quarantined" in kernels.kernel_stats()
        # Later calls skip the fused tier entirely (no more fault hits).
        again = kernels.group_codes(combined, 4)
        assert np.array_equal(again[0], expected[0])
        assert fi.fired_counts() == {"kernel.dispatch": 1}

    def test_set_backend_lifts_quarantine(self):
        kernels.set_backend("numpy")
        fi.inject("kernel.dispatch", kind="error", hits=(1,))
        combined = np.array([1, 0, 1], dtype=np.int64)
        kernels.group_codes(combined, 2)
        assert "numpy" in kernels.quarantined_backends()
        kernels.set_backend("numpy")  # the operator forces it back
        assert "numpy" not in kernels.quarantined_backends()
        got = kernels.group_codes(combined, 2)
        expected = plain_kernels.group_codes(combined, 2)
        assert np.array_equal(got[0], expected[0])


# ---------------------------------------------------------------------------
# Atomic ingest


class TestAtomicIngest:
    def test_failed_commit_rolls_back_to_last_good_snapshot(self):
        engine = Reptile(_dataset(), config=CONFIG)
        v0 = engine.data_version
        oracle0 = deltaref.rebuilt_leaf_states(engine.dataset)
        delta = Delta.from_rows(SCHEMA,
                                appended=[("d3", "d3-v0", 2000, 9.0)])
        fi.inject("ingest.commit", kind="error")
        with pytest.raises(FaultInjected):
            engine.apply_delta(delta)
        fi.clear_faults()
        # Nothing moved: version, relation and cube are the old snapshot.
        assert engine.data_version == v0
        deltaref.assert_groups_equal(engine.cube.leaf_states, oracle0)
        # The identical delta applies cleanly afterwards.
        assert engine.apply_delta(delta) == v0 + 1
        oracle1 = deltaref.rebuilt_leaf_states(engine.dataset)
        deltaref.assert_groups_equal(engine.cube.leaf_states, oracle1)
        assert ("d3", "d3-v0", 2000) in engine.cube.leaf_states

    def test_failed_commit_never_leaves_cache_patched(self):
        service, app = _make_app()
        engine = service.engine("data")
        fp0 = engine.fingerprint
        # Warm the cache so the failing ingest has entries to patch.
        status, _ = _request(app, "POST", "/datasets/data/recommend", REC)
        assert status == 200 and len(service.cache) > 0
        fi.inject("ingest.commit", kind="error")
        with pytest.raises(IngestFailure) as err:
            service.ingest("data", rows=[("d3", "d3-v0", 2000, 9.0)])
        fi.clear_faults()
        assert err.value.data_version == 0
        # Fingerprint rolled back; no entry survives under a new version.
        assert engine.fingerprint == fp0
        versioned = [k for k in service.cache.keys()
                     if isinstance(k, tuple) and len(k) > 1
                     and isinstance(k[1], str) and "@" in k[1]]
        assert versioned == []
        # Recovery: the same delta commits and bumps exactly once.
        info = service.ingest("data", rows=[("d3", "d3-v0", 2000, 9.0)])
        assert info["version"] == 1
        assert not service.health.is_degraded("data")


# ---------------------------------------------------------------------------
# Degraded-mode serving


def _make_app(auto_rebuild=False, request_timeout=None, rows=ROWS):
    service = ExplanationService(config=CONFIG, auto_rebuild=auto_rebuild)
    service.register("data", _dataset(rows))
    app = ServerApp(service, max_concurrent=4, max_queue=32,
                    request_timeout=request_timeout)
    return service, app


def _request(app, method, path, body=None):
    status, _headers, payload = app.dispatch(method, path, body)
    return status, payload


REC = {"aggregate": "mean", "direction": "too_low",
       "coordinates": {"year": 2000}, "group_by": ["year"]}


class TestDegradedServing:
    def test_failed_ingest_serves_degraded_not_500(self):
        service, app = _make_app()
        fi.inject("ingest.commit", kind="error")
        status, payload = _request(app, "POST", "/datasets/data/ingest",
                                   {"rows": [["d3", "d3-v0", 2000, 9.0]]})
        fi.clear_faults()
        assert status == 503
        assert payload["degraded"] is True
        assert payload["data_version"] == 0
        assert payload["retry_after"] >= 1
        # Reads keep answering from the old snapshot, marked degraded.
        status, payload = _request(app, "POST",
                                   "/datasets/data/recommend", REC)
        assert status == 200 and payload["degraded"] is True
        health = service.health.for_dataset("data")
        assert health.state == DEGRADED
        assert health.consecutive_failures == 1

    def test_healthz_reflects_state_machine(self):
        service, app = _make_app()
        status, payload = _request(app, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert payload["datasets"]["data"]["state"] == HEALTHY
        fi.inject("ingest.commit", kind="error")
        _request(app, "POST", "/datasets/data/ingest",
                 {"rows": [["d3", "d3-v0", 2000, 9.0]]})
        fi.clear_faults()
        status, payload = _request(app, "GET", "/healthz")
        assert status == 200  # healthz never 500s
        assert payload["status"] == "degraded"
        assert payload["degraded_datasets"] == ["data"]
        assert payload["datasets"]["data"]["last_error"]
        assert service.try_rebuild("data")
        status, payload = _request(app, "GET", "/healthz")
        assert payload["status"] == "ok"
        assert payload["datasets"]["data"]["rebuilds"] == 1

    def test_rebuild_failure_backs_off_and_stays_degraded(self):
        service, app = _make_app()
        service.health.backoff_base = 0.01
        fi.inject("ingest.commit", kind="error")
        _request(app, "POST", "/datasets/data/ingest",
                 {"rows": [["d3", "d3-v0", 2000, 9.0]]})
        fi.clear_faults()
        fi.inject("serving.rebuild", kind="error")
        assert not service.try_rebuild("data")
        fi.clear_faults()
        health = service.health.for_dataset("data")
        assert health.state == DEGRADED
        assert health.consecutive_failures == 2
        # Backoff grows with consecutive failures.
        assert service.health.retry_delay("data") > 0.0
        assert service.try_rebuild("data")
        assert health.state == HEALTHY

    def test_background_rebuild_restores_health(self):
        service, app = _make_app(auto_rebuild=True)
        service.health.backoff_base = 0.005
        service.health.backoff_cap = 0.01
        # Fail the ingest, then let the background loop recover alone.
        fi.inject("ingest.commit", kind="error")
        status, _ = _request(app, "POST", "/datasets/data/ingest",
                             {"rows": [["d3", "d3-v0", 2000, 9.0]]})
        assert status == 503
        fi.clear_faults()
        deadline = time.monotonic() + 30.0
        while (service.health.is_degraded("data")
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert not service.health.is_degraded("data")
        assert service.health.for_dataset("data").rebuilds >= 1
        status, payload = _request(app, "POST",
                                   "/datasets/data/recommend", REC)
        assert status == 200 and "degraded" not in payload

    def test_request_deadline_returns_503_with_retry_after(self):
        service, app = _make_app(request_timeout=0.2)
        fi.inject("cache.fill", kind="delay", arg="2.0", hits=(1,))
        t0 = time.monotonic()
        status, payload = _request(app, "POST",
                                   "/datasets/data/recommend", REC)
        assert status == 503
        assert "deadline" in payload["error"]
        assert payload["retry_after"] >= 1
        assert time.monotonic() - t0 < 2.0  # the slot was released early
        # The delayed fill was a one-shot: the retry answers in time.
        fi.clear_faults()
        time.sleep(2.1)  # let the runaway helper thread finish its fill
        status, payload = _request(app, "POST",
                                   "/datasets/data/recommend", REC)
        assert status == 200

    def test_maintenance_endpoints_are_exempt_from_deadline(self):
        service, app = _make_app(request_timeout=0.05)
        fi.inject("ingest.commit", kind="delay", arg="0.3", hits=(1,))
        status, payload = _request(app, "POST", "/datasets/data/ingest",
                                   {"rows": [["d3", "d3-v0", 2000, 9.0]]})
        # Slow but NOT timed out: the commit's outcome stays knowable.
        assert status == 200
        assert payload["version"] == 1


# ---------------------------------------------------------------------------
# Seeded chaos schedules


#: Serving-layer fault menu: (point, kind, arg). Hits are seeded per run.
_SERVING_MENU = [
    ("cache.fill", "error", None),
    ("cache.fill", "error", "OSError"),
    ("cache.fill", "delay", "0.02"),
    ("ingest.commit", "error", None),
    ("ingest.commit", "error", "OSError"),
    ("serving.rebuild", "error", None),
    ("kernel.dispatch", "error", None),
]

#: Pool-layer fault menu. ``once`` specs cross process boundaries.
_POOL_MENU = [
    ("worker.build", "crash", None, True),
    ("worker.build", "error", None, True),
    ("worker.build", "error", "OSError", True),
    ("worker.build", "delay", "30", True),
    ("shm.attach", "error", None, True),
    ("pool.submit", "error", None, False),
    ("pool.result", "error", None, False),
]

_ALLOWED_STATUSES = {200, 400, 409, 503}


class TestChaosSchedules:
    """≥30 seeded fault schedules under concurrent read/ingest traffic."""

    @pytest.mark.parametrize("seed", range(24))
    def test_serving_chaos(self, seed):
        rng = np.random.default_rng(seed)
        service, app = _make_app(auto_rebuild=False)
        responses: list[tuple[str, int, dict]] = []
        resp_lock = threading.Lock()

        def record(tag, status, payload):
            with resp_lock:
                responses.append((tag, status, payload))

        def reader(worker: int, n: int, years: list[int]):
            for j in range(n):
                body = {"aggregate": "mean", "direction": "too_low",
                        "coordinates": {"year": years[j % len(years)]},
                        "group_by": ["year"]}
                record("read", *_request(app, "POST",
                                         "/datasets/data/recommend", body))

        def ingester(n: int):
            for j in range(n):
                row = [f"d{seed % 3}", f"chaos-{seed}-{j}",
                       2000 + (j % 2), float(j) + 0.5]
                record("ingest", *_request(app, "POST",
                                           "/datasets/data/ingest",
                                           {"rows": [row]}))

        # One to two faults per schedule, seeded placement and timing.
        for _ in range(int(rng.integers(1, 3))):
            point, kind, arg = _SERVING_MENU[
                int(rng.integers(len(_SERVING_MENU)))]
            hits = (tuple(int(h) for h in rng.integers(1, 8, size=2))
                    if rng.random() < 0.7 else None)
            fi.inject(point, kind=kind, arg=arg,
                      hits=tuple(sorted(set(hits))) if hits else None)

        years = [2000, 2001]
        threads = [threading.Thread(target=reader, args=(w, 4, years))
                   for w in range(2)]
        threads.append(threading.Thread(target=ingester, args=(3,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "chaos traffic deadlocked"
        fi.clear_faults()

        # Availability invariant: every failure is a client error or a
        # degraded/retryable 503 — never a bare 5xx.
        for tag, status, payload in responses:
            assert status in _ALLOWED_STATUSES, (tag, status, payload)
            if status >= 500:
                assert (payload.get("degraded") is True
                        or payload.get("retry_after") is not None), \
                    (tag, status, payload)

        # Recovery: bounded rebuild attempts restore full health.
        rebuild_bumps = 0
        for _ in range(5):
            if not service.health.is_degraded("data"):
                break
            if service.try_rebuild("data"):
                rebuild_bumps += 1
        assert not service.health.is_degraded("data")
        status, payload = _request(app, "POST",
                                   "/datasets/data/recommend", REC)
        assert status == 200 and "degraded" not in payload

        # Atomicity accounting: the version moved once per 200 ingest
        # plus once per recovery rebuild — a failed ingest never bumps.
        engine = service.engine("data")
        ok_ingests = sum(1 for tag, status, _ in responses
                         if tag == "ingest" and status == 200)
        assert engine.data_version == ok_ingests + rebuild_bumps

        # Bitwise oracle: the served cube equals a row-at-a-time rebuild
        # of the relation it claims to serve.
        deltaref.assert_groups_equal(
            engine.cube.leaf_states,
            deltaref.rebuilt_leaf_states(engine.dataset))
        assert leaked_segments() == []

    @pytest.mark.parametrize("seed", range(8))
    def test_pool_chaos(self, seed, tmp_path):
        rng = np.random.default_rng(1000 + seed)
        point, kind, arg, once = _POOL_MENU[seed % len(_POOL_MENU)]
        expected = Cube(dataset_from_chunks(_chunks(), HIERARCHIES, "sev"))
        pool = ShardWorkerPool(2, task_timeout=5.0, retry_budget=2,
                               backoff_base=0.001, backoff_cap=0.002)
        try:
            if once:
                fi.inject(point, kind=kind, arg=arg, once=True)
            else:
                fi.inject(point, kind=kind, arg=arg,
                          hits=(int(rng.integers(1, 4)),))
            # Pooled-with-retries or serial fallback: bitwise either way.
            _assert_spill_bitwise(_spill_build(tmp_path, pool), expected)
            fi.clear_faults()
            # The pool (or its respawned successor) still serves builds.
            _assert_spill_bitwise(_spill_build(tmp_path, pool), expected)
            assert pool.stats()["retry_budget"] == 2
        finally:
            pool.shutdown()
        assert pool.leaked_at_shutdown == []
        assert leaked_segments() == []
        assert os.listdir(tmp_path) == []
