"""Per-dataset health tracking for degraded-mode serving.

The serving stack's availability contract: a failed ingest or rebuild
never takes reads down. :class:`~repro.core.session.Reptile.apply_delta`
already rolls a failed delta back to the last good snapshot; this module
adds the bookkeeping layer on top — which datasets are currently serving
that stale-but-consistent snapshot, why, and when recovery should be
retried. Each dataset moves through a three-state machine::

    healthy ──failure──▶ degraded ──retry due──▶ rebuilding
       ▲                    ▲                        │
       │                    └──────failure───────────┤
       └──────────────────success────────────────────┘

* ``healthy`` — serving live data; ``data_version`` is the last version
  a successful commit or rebuild produced.
* ``degraded`` — a maintenance operation failed; reads keep serving the
  last good snapshot and responses carry ``degraded: true`` plus the
  snapshot's ``data_version``. The next recovery attempt is due at
  ``retry_at`` (capped exponential backoff in ``consecutive_failures``).
* ``rebuilding`` — a recovery rebuild is in flight; still serving the
  snapshot, still marked degraded to clients.

:class:`HealthRegistry` is the thread-safe collection the
:class:`~repro.serving.service.ExplanationService` owns; `/healthz`
serializes :meth:`HealthRegistry.snapshot` verbatim.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["DatasetHealth", "HealthRegistry", "IngestFailure",
           "HEALTHY", "DEGRADED", "REBUILDING"]

HEALTHY = "healthy"
DEGRADED = "degraded"
REBUILDING = "rebuilding"


class IngestFailure(RuntimeError):
    """An infrastructure failure during ingest, after rollback.

    Raised *instead of* the original exception for failures that are the
    service's fault rather than the request's (a failed cache patch, an
    injected fault). The dataset stays up on its last good snapshot:
    ``data_version`` is the version still being served, so the HTTP
    layer can answer 503 + ``degraded: true`` with the snapshot marker
    instead of a raw 500.
    """

    def __init__(self, dataset: str, data_version: int,
                 cause: BaseException):
        super().__init__(
            f"ingest into {dataset!r} failed "
            f"({type(cause).__name__}: {cause}); still serving data "
            f"version {data_version}")
        self.dataset = dataset
        self.data_version = data_version
        self.cause = cause


@dataclass
class DatasetHealth:
    """One dataset's position in the health state machine."""

    dataset: str
    state: str = HEALTHY
    data_version: int = 0          # last version known good
    consecutive_failures: int = 0
    last_error: str | None = None
    last_error_at: float | None = None  # epoch seconds, for operators
    retry_at: float = 0.0          # monotonic deadline for next rebuild
    rebuilds: int = 0              # successful recoveries

    def payload(self) -> dict:
        """The JSON shape served at ``/healthz``."""
        return {
            "state": self.state,
            "data_version": self.data_version,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "last_error_at": self.last_error_at,
            "rebuilds": self.rebuilds,
        }


@dataclass
class HealthRegistry:
    """Thread-safe per-dataset health states with failure backoff."""

    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    clock: object = time.monotonic  # injectable in tests
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)
    _states: dict = field(default_factory=dict, repr=False)

    def for_dataset(self, name: str) -> DatasetHealth:
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = DatasetHealth(name)
            return state

    def mark_healthy(self, name: str, data_version: int,
                     *, recovered: bool = False) -> DatasetHealth:
        """A commit or rebuild succeeded: back to ``healthy``."""
        state = self.for_dataset(name)
        with self._lock:
            state.state = HEALTHY
            state.data_version = int(data_version)
            state.consecutive_failures = 0
            state.retry_at = 0.0
            if recovered:
                state.rebuilds += 1
            return state

    def mark_failed(self, name: str, exc: BaseException) -> DatasetHealth:
        """A maintenance operation failed: ``degraded``, backoff grows."""
        state = self.for_dataset(name)
        with self._lock:
            state.state = DEGRADED
            state.consecutive_failures += 1
            state.last_error = f"{type(exc).__name__}: {exc}"
            state.last_error_at = time.time()
            delay = min(self.backoff_cap,
                        self.backoff_base
                        * 2 ** (state.consecutive_failures - 1))
            state.retry_at = self.clock() + delay
            return state

    def mark_rebuilding(self, name: str) -> DatasetHealth:
        state = self.for_dataset(name)
        with self._lock:
            state.state = REBUILDING
            return state

    def is_degraded(self, name: str) -> bool:
        """Degraded *or* mid-rebuild: responses must carry the marker."""
        with self._lock:
            state = self._states.get(name)
            return state is not None and state.state != HEALTHY

    def retry_delay(self, name: str) -> float:
        """Seconds until the next rebuild attempt is due (>= 0)."""
        with self._lock:
            state = self._states.get(name)
            if state is None or state.state == HEALTHY:
                return 0.0
            return max(0.0, state.retry_at - self.clock())

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {name: state.payload()
                    for name, state in self._states.items()}
