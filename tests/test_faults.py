"""Fault-injection and chaos suite for the robustness layer.

Exercises every registered fault point (``cache.fill``,
``ingest.commit``, ``serving.rebuild``) and pins the recovery contracts:

* the :mod:`repro.robustness.faultinject` registry itself (spec grammar,
  deterministic hit selection, fire counts, clean teardown);
* atomic ingest (a failed commit leaves version, cube, fingerprints and
  cache exactly at the last good snapshot, and the same delta applies
  cleanly afterwards);
* degraded-mode serving (failed ingest answers 503 + ``degraded: true``
  while reads keep serving the old snapshot, recovery through
  foreground and background rebuilds, per-request deadlines);
* 32 seeded chaos schedules — concurrent read/ingest traffic under
  randomly placed faults — asserting the availability invariants: no
  non-degraded 5xx, full recovery, and the served cube bitwise-equal to
  the row-at-a-time rebuild oracle.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.robustness.faultinject as fi
from repro import (Delta, HierarchicalDataset, Relation, Reptile,
                   ReptileConfig, Schema, dimension, measure)
from repro.relational import deltaref
from repro.robustness.faultinject import (FaultInjected, faults,
                                          parse_spec)
from repro.serving.health import (DEGRADED, HEALTHY, REBUILDING,
                                  HealthRegistry, IngestFailure)
from repro.serving.server import ServerApp
from repro.serving.service import ExplanationService

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


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends fault-free."""
    fi.clear_faults()
    yield
    fi.clear_faults()


# ---------------------------------------------------------------------------
# The fault registry itself


class TestFaultSpecs:
    def test_parse_spec_roundtrip(self):
        specs = parse_spec("cache.fill=error:OSError@2,5; "
                           "ingest.commit=delay:0.01")
        assert [s.point for s in specs] == ["cache.fill", "ingest.commit"]
        assert specs[0].kind == "error" and specs[0].arg == "OSError"
        assert specs[0].hits == (2, 5)
        assert specs[1].kind == "delay" and specs[1].arg == "0.01"
        assert specs[1].hits is None

    @pytest.mark.parametrize("bad", [
        "nokind", "p=wat", "p=delay:abc", "p=error@0", "p=error@x",
        "=error", "p=crash", "p=error@once",
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

    def test_only_specs_that_act_are_counted(self):
        """Two specs matching one invocation: the first raise ends it."""
        fi.inject("ingest.commit", kind="error", hits=(1,))
        fi.inject("ingest.commit", kind="error", hits=(1,))
        with pytest.raises(FaultInjected):
            fi.fault_point("ingest.commit")
        for _ in range(4):
            fi.fault_point("ingest.commit")
        assert fi.fired_counts() == {"ingest.commit": 1}

    def test_named_builtin_exception(self):
        fi.inject("ingest.commit", kind="error", arg="OSError")
        with pytest.raises(OSError):
            fi.fault_point("ingest.commit")

    def test_faults_context_restores_clean_state(self):
        with faults("cache.fill=error"):
            with pytest.raises(FaultInjected):
                fi.fault_point("cache.fill")
        fi.fault_point("cache.fill")  # clean after the context
        assert fi.fired_counts() == {}


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
]

_ALLOWED_STATUSES = {200, 400, 409, 503}


class TestChaosSchedules:
    """32 seeded fault schedules under concurrent read/ingest traffic."""

    @pytest.mark.parametrize("seed", range(32))
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
