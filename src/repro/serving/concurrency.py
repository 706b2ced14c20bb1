"""Concurrency primitives for the multi-tenant serving front end.

Everything the HTTP server needs to let many analysts query and ingest
against shared datasets simultaneously, built on the stdlib only:

* :class:`ReadWriteLock` / :class:`DatasetLocks` — per-dataset
  reader/writer locks. ``recommend``/``drill``/``view`` hold a shared
  read lock, so they run concurrently *and* under snapshot isolation:
  while any request is in flight, ``ingest``/``refresh`` (exclusive
  writers) cannot move the engine's ``data_version`` under it, so every
  aggregate in one response comes from a single version. Writers are
  preferred — a waiting writer blocks new readers — so a stream of
  cheap reads cannot starve ingestion.
* :class:`BatchWindow` — cross-request batching by group commit. The
  in-process service already collapses same-view complaints inside one
  batch; this extends the idea across concurrent requests: a request for
  a (dataset, view) key with no pass running runs at once, and requests
  that arrive while that pass runs share the next one, answered in one
  cube/ranker pass. No request ever waits on a timer.
* :class:`AdmissionController` — a bounded worker pool plus a bounded
  wait queue. Requests beyond the pool wait briefly; requests beyond
  the queue (or waiting too long) are rejected with a Retry-After hint
  so overload degrades with backpressure instead of collapse.
* :class:`LatencyStats` / :class:`Telemetry` — per-endpoint request
  counts and latency quantiles (p50/p99), served at ``/stats``.
* :func:`trace` — named trace points at every lock boundary. Tests
  install a hook (see the ``race`` fixture in ``tests/conftest.py``)
  to pin thread interleavings deterministically; in production the
  hook is ``None`` and the call is a dict lookup away from free.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator

__all__ = [
    "LockTimeout", "ReadWriteLock", "DatasetLocks", "BatchWindow",
    "AdmissionController", "ServerOverloaded", "RequestTimeout",
    "LatencyStats", "Telemetry", "set_trace_hook", "trace",
]


# -- trace points ----------------------------------------------------------------
#: Installed test hook, or None. Called as ``hook(point, **info)`` from
#: the exact places a thread crosses a lock boundary; a hook that blocks
#: holds the calling thread *at* that boundary, which is how the
#: deterministic race harness pins interleavings.
_TRACE_HOOK: Callable | None = None
_TRACE_HOOK_LOCK = threading.Lock()


def set_trace_hook(hook: Callable | None) -> Callable | None:
    """Install (or clear, with None) the trace hook; returns the old one."""
    global _TRACE_HOOK
    with _TRACE_HOOK_LOCK:
        old, _TRACE_HOOK = _TRACE_HOOK, hook
        return old


def trace(point: str, **info) -> None:
    """Report crossing a named concurrency boundary to the test hook.

    Must never be called while holding an internal condition/lock of the
    caller — a blocking hook would deadlock the primitive itself.
    """
    hook = _TRACE_HOOK
    if hook is not None:
        hook(point, **info)


# -- reader/writer locks ---------------------------------------------------------
class LockTimeout(RuntimeError):
    """A lock acquisition exceeded its deadline (deadlock guard)."""


class ReadWriteLock:
    """A writer-preferred shared/exclusive lock.

    Any number of readers may hold the lock together; a writer holds it
    alone. A *waiting* writer blocks new readers (writer preference), so
    ingestion cannot starve behind a continuous stream of reads. The
    lock is not reentrant — exactly one layer of the serving stack (the
    :class:`~repro.serving.service.ExplanationService` methods) acquires
    it, never nested.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- shared (read) side ------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> None:
        trace("rw.read_wait", lock=self.name)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._writer_active or self._writers_waiting:
                if not self._wait(deadline):
                    raise LockTimeout(
                        f"read lock on {self.name!r} timed out")
            self._readers += 1
        trace("rw.read_acquired", lock=self.name)

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError(
                    f"release_read on {self.name!r} without a reader")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        trace("rw.read_released", lock=self.name)

    # -- exclusive (write) side --------------------------------------------------
    def acquire_write(self, timeout: float | None = None) -> None:
        trace("rw.write_wait", lock=self.name)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    if not self._wait(deadline):
                        raise LockTimeout(
                            f"write lock on {self.name!r} timed out")
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        trace("rw.write_acquired", lock=self.name)

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError(
                    f"release_write on {self.name!r} without the writer")
            self._writer_active = False
            self._cond.notify_all()
        trace("rw.write_released", lock=self.name)

    def _wait(self, deadline: float | None) -> bool:
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - time.monotonic()
        return remaining > 0 and self._cond.wait(remaining)

    # -- observability (tests poll these to sequence interleavings) --------------
    @property
    def readers(self) -> int:
        with self._cond:
            return self._readers

    @property
    def writer_active(self) -> bool:
        with self._cond:
            return self._writer_active

    @property
    def writers_waiting(self) -> int:
        with self._cond:
            return self._writers_waiting

    @contextmanager
    def read(self, timeout: float | None = None) -> Iterator[None]:
        self.acquire_read(timeout)
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self, timeout: float | None = None) -> Iterator[None]:
        self.acquire_write(timeout)
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        with self._cond:
            return (f"ReadWriteLock({self.name!r}, readers={self._readers}, "
                    f"writer={self._writer_active}, "
                    f"waiting_writers={self._writers_waiting})")


class DatasetLocks:
    """One :class:`ReadWriteLock` per registered dataset, created lazily.

    Locks are only ever created, never removed — a dataset name maps to
    the same lock object for the life of the service, so two requests
    can never acquire different locks for one dataset.
    """

    def __init__(self):
        self._locks: dict[str, ReadWriteLock] = {}
        self._registry_lock = threading.Lock()

    def for_dataset(self, name: str) -> ReadWriteLock:
        with self._registry_lock:
            lock = self._locks.get(name)
            if lock is None:
                lock = self._locks[name] = ReadWriteLock(name)
            return lock

    def read(self, name: str, timeout: float | None = None):
        """Context manager: shared access to one dataset."""
        return self.for_dataset(name).read(timeout)

    def write(self, name: str, timeout: float | None = None):
        """Context manager: exclusive access to one dataset."""
        return self.for_dataset(name).write(timeout)


# -- cross-request batching ------------------------------------------------------
class _PendingBatch:
    """One evaluation pass: the requests it answers and its outcome."""

    __slots__ = ("items", "results", "error", "done")

    def __init__(self, item):
        self.items: list = [item]
        self.results: list | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()


class BatchWindow:
    """Coalesce concurrent same-key requests by group commit.

    A request for a key with no pass running runs its pass at once, on
    its own thread. Requests that arrive while a pass for their key runs
    share the *next* pass: the first of them leads it, the rest join it.
    When the running pass finishes, its leader hands the key to the
    queued pass (under ``_lock``, before it signals its own callers), so
    at most one pass per key runs and at most one waits. Nobody waits on
    a timer: a lone request pays nothing, and a burst of same-key
    requests arriving together costs two passes however large it is.

    ``execute`` receives the item list and must return one result per
    item, in order; per-item failures belong *inside* the results (the
    serving layer passes result-or-error records through), while an
    exception from ``execute`` itself is re-raised to every caller of
    that pass, and only that pass.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._running: dict[Hashable, _PendingBatch] = {}
        self._queued: dict[Hashable, _PendingBatch] = {}
        #: Telemetry: evaluation passes run, and requests answered from a
        #: pass some *other* request led (the cross-request savings).
        self.passes = 0
        self.collapsed = 0

    def run(self, key: Hashable, item, execute: Callable[[list], list],
            timeout: float | None = 60.0):
        with self._lock:
            ahead = self._running.get(key)
            batch = None if ahead is None else self._queued.get(key)
            if batch is not None:
                index = len(batch.items)
                batch.items.append(item)
            else:
                batch, index = _PendingBatch(item), 0
                if ahead is None:
                    self._running[key] = batch
                else:
                    self._queued[key] = batch
        if index:
            trace("batch.joined", key=key)
            if not batch.done.wait(timeout):
                raise LockTimeout(
                    f"batched request for {key!r} timed out waiting for "
                    f"its leader")
        else:
            if ahead is not None:
                trace("batch.queued", key=key)
                self._await_turn(key, batch, ahead, timeout)
            self._execute(key, batch, execute)
        if batch.error is not None:
            raise batch.error
        assert batch.results is not None
        return batch.results[index]

    def _await_turn(self, key: Hashable, batch: _PendingBatch,
                    ahead: _PendingBatch, timeout: float | None) -> None:
        """Wait until the pass ahead hands ``key`` to ``batch``.

        On timeout the queued pass is withdrawn and its joiners fail
        with the same :class:`LockTimeout`; nothing stays queued for the
        key, so the next request queues or runs as usual. A hand-off
        that races the deadline wins.
        """
        if ahead.done.wait(timeout):
            return
        with self._lock:
            if self._queued.get(key) is not batch:
                return  # handed off just as the wait expired
            del self._queued[key]
            batch.error = LockTimeout(
                f"batched request for {key!r} timed out waiting for the "
                f"pass ahead of it")
        batch.done.set()
        raise batch.error

    def _execute(self, key: Hashable, batch: _PendingBatch,
                 execute: Callable[[list], list]) -> None:
        # ``batch`` is the running pass: arrivals queue behind it, so its
        # item list is final.
        with self._lock:
            items = batch.items
            self.passes += 1
            self.collapsed += len(items) - 1
        try:
            trace("batch.execute", key=key, n=len(items))
            results = execute(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch execute returned {len(results)} results "
                    f"for {len(items)} items")
            batch.results = results
        except BaseException as exc:
            batch.error = exc
        finally:
            with self._lock:
                queued = self._queued.pop(key, None)
                if queued is None:
                    del self._running[key]
                else:
                    self._running[key] = queued
            batch.done.set()

    def stats(self) -> dict:
        with self._lock:
            served = self.passes + self.collapsed
            return {
                "passes": self.passes,
                "collapsed": self.collapsed,
                "collapse_ratio": (self.collapsed / served) if served else 0.0,
            }


# -- admission control -----------------------------------------------------------
class ServerOverloaded(RuntimeError):
    """The server is saturated; retry after ``retry_after`` seconds.

    ``status`` is the HTTP status the front end should answer with:
    429 when the wait queue is full (too many requests outstanding),
    503 when a queued request timed out or the server is draining.
    """

    def __init__(self, message: str, retry_after: float = 1.0,
                 status: int = 429):
        super().__init__(message)
        self.retry_after = retry_after
        self.status = status


class RequestTimeout(ServerOverloaded):
    """A request ran past the server's per-request deadline.

    Mapped to 503 + ``Retry-After`` like any overload: the admission
    slot is released immediately, so a runaway recommend cannot pin a
    worker slot for the rest of its (abandoned) computation.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message, retry_after=retry_after, status=503)


class AdmissionController:
    """A bounded worker pool with a bounded wait queue.

    At most ``max_concurrent`` requests execute at once; up to
    ``max_queue`` more wait (``queue_timeout`` seconds at most) for a
    slot. Anything beyond that is rejected immediately — the overload
    answer is cheap by design, so a saturated server stays responsive
    enough to shed load.
    """

    def __init__(self, max_concurrent: int = 8, max_queue: int = 32,
                 queue_timeout: float = 2.0):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self.rejected = 0
        self.timed_out = 0
        self.admitted = 0

    def try_enter(self) -> None:
        """Claim an execution slot or raise :class:`ServerOverloaded`."""
        with self._cond:
            if self._active < self.max_concurrent:
                self._active += 1
                self.admitted += 1
                return
            if self._queued >= self.max_queue:
                self.rejected += 1
                raise ServerOverloaded(
                    f"{self._active} active and {self._queued} queued "
                    f"requests; queue limit {self.max_queue} reached",
                    retry_after=self._retry_after_locked(), status=429)
            self._queued += 1
        trace("admission.queued")
        deadline = time.monotonic() + self.queue_timeout
        with self._cond:
            try:
                while self._active >= self.max_concurrent:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self.timed_out += 1
                        raise ServerOverloaded(
                            f"queued for {self.queue_timeout}s without a "
                            f"free worker",
                            retry_after=self._retry_after_locked(),
                            status=503)
                self._active += 1
                self.admitted += 1
            finally:
                self._queued -= 1

    def leave(self) -> None:
        with self._cond:
            if self._active <= 0:
                raise RuntimeError("leave() without a matching try_enter()")
            self._active -= 1
            self._cond.notify()

    def _retry_after_locked(self) -> float:
        backlog = self._queued + max(0, self._active - self.max_concurrent)
        return max(1.0, round(0.1 * (backlog + 1), 1))

    @contextmanager
    def admit(self) -> Iterator[None]:
        self.try_enter()
        try:
            yield
        finally:
            self.leave()

    def stats(self) -> dict:
        with self._cond:
            return {
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "active": self._active,
                "queued": self._queued,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "timed_out": self.timed_out,
            }


# -- latency telemetry -----------------------------------------------------------
class LatencyStats:
    """Latency quantiles over a bounded sample reservoir.

    Samples are kept sorted (insertion is O(log n) search + O(n) move on
    a small array), capped at ``max_samples``; beyond the cap, a random
    ring position is replaced so the reservoir stays representative of
    the whole run without unbounded memory.
    """

    def __init__(self, max_samples: int = 2048):
        self.max_samples = max_samples
        self._sorted: list[float] = []
        self.count = 0
        self.total_seconds = 0.0
        self._lock = threading.Lock()
        self._seed = 0x9E3779B9

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_seconds += seconds
            if len(self._sorted) >= self.max_samples:
                # xorshift step: cheap deterministic pseudo-random victim.
                self._seed ^= (self._seed << 13) & 0xFFFFFFFF
                self._seed ^= self._seed >> 17
                self._seed ^= (self._seed << 5) & 0xFFFFFFFF
                del self._sorted[self._seed % len(self._sorted)]
            bisect.insort(self._sorted, seconds)

    def snapshot(self) -> dict:
        with self._lock:
            n = len(self._sorted)
            if n == 0:
                return {"count": self.count, "mean_seconds": 0.0,
                        "p50_seconds": 0.0, "p99_seconds": 0.0}
            return {
                "count": self.count,
                "mean_seconds": self.total_seconds / self.count,
                "p50_seconds": self._sorted[int(round(0.50 * (n - 1)))],
                "p99_seconds": self._sorted[int(round(0.99 * (n - 1)))],
            }


class Telemetry:
    """Per-endpoint request counters and latency quantiles."""

    def __init__(self):
        self._lock = threading.Lock()
        self._endpoints: dict[str, LatencyStats] = {}
        self._errors: dict[str, int] = {}

    def _stats_for(self, endpoint: str) -> LatencyStats:
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = LatencyStats()
            return stats

    def record(self, endpoint: str, seconds: float,
               error: bool = False) -> None:
        self._stats_for(endpoint).record(seconds)
        if error:
            with self._lock:
                self._errors[endpoint] = self._errors.get(endpoint, 0) + 1

    @contextmanager
    def timed(self, endpoint: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.record(endpoint, time.perf_counter() - start, error=True)
            raise
        self.record(endpoint, time.perf_counter() - start)

    def snapshot(self) -> dict:
        with self._lock:
            endpoints = dict(self._endpoints)
            errors = dict(self._errors)
        out = {}
        for endpoint, stats in sorted(endpoints.items()):
            row = stats.snapshot()
            row["errors"] = errors.get(endpoint, 0)
            out[endpoint] = row
        return out
