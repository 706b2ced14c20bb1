"""The explanation service: many sessions, shared cache, batched queries.

:class:`ExplanationService` is the front-end of the serving layer. It
multiplexes any number of named :class:`~repro.core.session.DrillSession`
objects over registered datasets, routes all of them through one shared
:class:`~repro.serving.cache.AggregateCache`, batches independent
complaints against the same view so the expensive per-view work (roll-up
+ model fits) runs once per view rather than once per complaint, and
exposes operational statistics — cache hit rate, per-stage compute
timings, request counts — for capacity monitoring.

Typical use::

    service = ExplanationService()
    service.register("drought", dataset)
    sid = service.open_session("drought", group_by=["year"],
                               filters={"district": "Ofla"})
    rec = service.recommend(sid, Complaint.too_low({"year": 1986}, "mean"))
    service.drill(sid, rec.best_hierarchy, rec.best_group.coordinates)
    print(service.stats()["cache"]["hit_rate"])
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from ..core.complaint import Complaint
from ..core.ranker import Recommendation
from ..core.session import DrillSession, Reptile, ReptileConfig, check_top_k
from ..model.features import FeaturePlan
from ..relational.dataset import HierarchicalDataset
from ..relational.delta import Delta, DeltaError
from ..robustness.faultinject import fault_point
from .cache import AggregateCache
from .concurrency import DatasetLocks
from .engine import freeze_filters, plan_signature
from .health import HealthRegistry, IngestFailure

R = TypeVar("R")

#: Numeric failures raised inside a fit (``LinAlgError`` is a
#: ``ValueError``): the data or the model failed, not the request, so
#: the HTTP front end answers them as a degraded 503, never a 400.
NUMERIC_FAULTS = (np.linalg.LinAlgError, FloatingPointError)


class ServiceError(KeyError):
    """Raised for unknown dataset or session names."""


class SessionExists(ServiceError):
    """Raised when an explicit session id is already open."""


@dataclass(frozen=True)
class ComplaintRequest:
    """One independent complaint in a batch.

    ``group_by``/``filters`` place the complaint's view exactly as
    :meth:`~repro.core.session.Reptile.session` would; requests sharing a
    view are answered from one shared evaluation pass.
    """

    complaint: Complaint
    group_by: tuple[str, ...] = ()
    filters: Mapping = field(default_factory=dict)
    k: int | None = None

    def view_key(self) -> tuple:
        return (tuple(self.group_by), freeze_filters(self.filters))


class MemoEntry:
    """One ``"recommend"`` cache entry: a memoized answer, and a slot for
    the part of its reply that every hit shares.

    The HTTP front end encodes that part (everything but the caller's
    data version, complaint and markers) when it first sends a hit and
    keeps the bytes here, so the encoding lives and dies with the
    entry: whatever reaps the entry (an ingest, a rebuild, an LRU
    eviction) reaps it too.
    """

    __slots__ = ("recommendation", "encoded")

    def __init__(self, recommendation: Recommendation):
        self.recommendation = recommendation
        self.encoded: bytes | None = None


@dataclass
class BatchItem:
    """One request's outcome inside a :class:`BatchResult`.

    Exactly one of ``recommendation``/``error`` is set: a request that
    raises (bad coordinates, exhausted hierarchies, ...) is reported
    here instead of aborting the rest of the batch. ``fault`` marks an
    error that is no fault of the request (a numeric failure inside a
    fit, :data:`NUMERIC_FAULTS`), and ``memo`` the cache entry a memo
    hit was answered from (None on a miss or a bypass).
    """

    request: ComplaintRequest
    recommendation: Recommendation | None
    seconds: float
    error: str | None = None
    fault: bool = False
    memo: MemoEntry | None = None


@dataclass
class BatchResult:
    """Outcome of :meth:`ExplanationService.submit_batch`, request order."""

    items: list[BatchItem]
    total_seconds: float
    n_views: int  # distinct views the batch collapsed into
    #: The dataset version every item was answered at. The whole batch
    #: runs under one read-lock hold, so this is a single version — no
    #: item can observe a half-applied delta.
    data_version: int | None = None

    def recommendations(self) -> list[Recommendation | None]:
        """Per-request recommendations (None where the request errored)."""
        return [item.recommendation for item in self.items]


class ExplanationService:
    """Serve explanation queries over registered datasets.

    Parameters
    ----------
    max_entries:
        Capacity of the shared :class:`AggregateCache`.
    config:
        Default engine configuration for registered datasets.

    Concurrency contract: every dataset has a reader/writer lock
    (:attr:`locks`). Query methods — :meth:`recommend`, :meth:`drill`,
    :meth:`with_session`, :meth:`submit_batch` — hold the dataset's
    *read* lock for the whole request, so any number run concurrently
    while each observes exactly one ``data_version`` (snapshot
    isolation); the maintenance methods :meth:`ingest` and
    :meth:`try_rebuild` hold the *write* lock, excluding every reader
    while the delta or the rebuild threads through engine and cache.
    Relations are immutable, so these two are the only ways a
    registered dataset's data changes. Requests against
    one session id additionally serialize on the session's own lock, so
    concurrent calls for the same session are safe (they queue). Lock
    ordering is fixed everywhere: dataset lock first, then the service
    registry lock, then the session lock — never the reverse.
    """

    def __init__(self, max_entries: int | None = 4096,
                 config: ReptileConfig | None = None, *,
                 auto_rebuild: bool = True):
        self.cache = AggregateCache(max_entries)
        self.default_config = config
        #: Per-dataset reader/writer locks (shared with the HTTP server).
        self.locks = DatasetLocks()
        #: Per-dataset health states (shared with the HTTP server):
        #: a failed ingest or rebuild marks its dataset degraded here, reads
        #: keep serving the last good snapshot, and a background rebuild
        #: (when ``auto_rebuild``) restores health with capped backoff.
        self.health = HealthRegistry()
        self.auto_rebuild = auto_rebuild
        self._engines: dict[str, Reptile] = {}
        self._sessions: dict[str, tuple[str, DrillSession]] = {}
        self._rebuilders: dict[str, threading.Thread] = {}
        self._rebuild_sleep = time.sleep  # injectable: tests skip waits
        self._lock = threading.RLock()
        self._session_numbers = itertools.count(1)
        self._recommend_count = 0
        self._recommend_seconds = 0.0

    # -- dataset registry ---------------------------------------------------------
    def register(self, name: str, dataset: HierarchicalDataset,
                 feature_plan: FeaturePlan | None = None,
                 config: ReptileConfig | None = None) -> Reptile:
        """Register a dataset under ``name``; returns its engine."""
        self.locks.for_dataset(name)  # create the lock up front
        with self._lock:
            if name in self._engines:
                raise ServiceError(f"dataset {name!r} already registered")
            engine = Reptile(dataset, feature_plan=feature_plan,
                             config=config or self.default_config,
                             cache=self.cache)
            self._engines[name] = engine
            self.health.mark_healthy(name, engine.data_version)
            return engine

    def engine(self, name: str) -> Reptile:
        try:
            return self._engines[name]
        except KeyError:
            raise ServiceError(f"unknown dataset {name!r}") from None

    @property
    def datasets(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._engines)

    # -- session registry ---------------------------------------------------------
    def open_session(self, dataset: str, session_id: str | None = None,
                     group_by: Sequence[str] = (),
                     filters: Mapping | None = None,
                     staleness: str | None = None) -> str:
        """Open a named drill session; returns its id.

        Without ``session_id`` the id is the first ``{dataset}.s{n}``
        not open; an explicit id must be one URL path segment and not
        open (:class:`SessionExists`). Runs under the dataset's read lock
        so the new session pins a fully-applied ``data_version``.
        """
        if session_id is not None and (not isinstance(session_id, str)
                                       or not session_id or "/" in session_id):
            raise ValueError("'session_id' must be a non-empty string "
                             "without '/'")
        engine = self.engine(dataset)
        with self.locks.read(dataset):
            with self._lock:
                if session_id is None:  # skip ids a caller took by name
                    for n in self._session_numbers:
                        session_id = f"{dataset}.s{n}"
                        if session_id not in self._sessions:
                            break
                elif session_id in self._sessions:
                    raise SessionExists(f"session {session_id!r} already open")
                self._sessions[session_id] = (
                    dataset, engine.session(group_by, filters,
                                            staleness=staleness))
                return session_id

    def session(self, session_id: str) -> DrillSession:
        return self._session_entry(session_id)[1]

    def session_dataset(self, session_id: str) -> str:
        """The dataset name a session is bound to."""
        return self._session_entry(session_id)[0]

    def _session_entry(self, session_id: str) -> tuple[str, DrillSession]:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServiceError(f"unknown session {session_id!r}") from None

    def close_session(self, session_id: str) -> None:
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise ServiceError(f"unknown session {session_id!r}")

    @property
    def sessions(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._sessions)

    # -- the serving interface -----------------------------------------------------
    def with_session(self, session_id: str,
                     fn: Callable[[DrillSession], R]) -> tuple[R, int]:
        """Run ``fn(session)`` under snapshot isolation.

        The dataset's read lock is held for the whole call (no ingest
        can interleave), and requests for the same session id serialize
        on the session's own lock. Returns ``(result, data_version)``
        where the version is the one every aggregate ``fn`` touched was
        served at — read while the lock is still held, so it cannot be
        bumped between computing the result and reporting it.
        """
        dataset, session = self._session_entry(session_id)
        with self.locks.read(dataset):
            with session.lock:
                result = fn(session)
                return result, session.data_version

    def recommend(self, session_id: str, complaint: Complaint,
                  k: int | None = None) -> Recommendation:
        """Recommend the next drill-down for one session (timed)."""
        return self.recommend_versioned(session_id, complaint, k)[0]

    def recommend_versioned(self, session_id: str, complaint: Complaint,
                            k: int | None = None
                            ) -> tuple[Recommendation, int]:
        """:meth:`recommend` returning ``(recommendation, data_version)``
        like :meth:`with_session`: the one timed, counted session
        recommend, which ``POST /sessions/{sid}/recommend`` calls too."""
        start = time.perf_counter()
        result = self.with_session(
            session_id, lambda session: session.recommend(complaint, k=k))
        elapsed = time.perf_counter() - start
        with self._lock:
            self._recommend_count += 1
            self._recommend_seconds += elapsed
        return result

    def drill(self, session_id: str, hierarchy: str,
              coordinates: Mapping | None = None) -> DrillSession:
        """Commit a drill-down on one session."""
        session, _ = self.with_session(
            session_id,
            lambda session: session.drill(hierarchy, coordinates))
        return session

    def submit_batch(self, dataset: str,
                     requests: Sequence[ComplaintRequest]) -> BatchResult:
        """Answer many independent complaints in one pass.

        Requests are grouped by their (group-by, filters) view; each
        distinct view gets a single throwaway session, and the view's
        complaints run consecutively against it so the roll-up and the
        per-statistic model fits happen once per view — every complaint
        after the first is answered from the shared cache. Results come
        back in request order. The whole batch runs under one hold of
        the dataset's read lock, so every item is answered at the single
        ``data_version`` reported on the result.

        Whole answers are memoized too, as the cache's ``"recommend"``
        kind (a :class:`MemoEntry`): a request asked before at the same
        data fingerprint skips the session and the ranking sweep. Every
        caller gets the same immutable
        :class:`~repro.core.ranker.Recommendation`, carrying its own
        complaint, and a hit's item names its entry (``memo``).
        """
        engine = self.engine(dataset)
        with self.locks.read(dataset):
            return self._submit_batch_locked(engine, dataset, requests)

    def _submit_batch_locked(self, engine: Reptile, dataset: str,
                             requests: Sequence[ComplaintRequest]
                             ) -> BatchResult:
        start = time.perf_counter()
        by_view: dict[tuple, list[int]] = {}
        items: list[BatchItem | None] = [None] * len(requests)
        for i, request in enumerate(requests):
            try:
                # Construction or hashing raises on unhashable/unsortable
                # filter values; isolate such requests from the batch.
                by_view.setdefault(request.view_key(), []).append(i)
            except TypeError as exc:
                items[i] = BatchItem(request, None, 0.0,
                                     error=f"TypeError: {exc}")
        executed = 0
        for view_key, indices in by_view.items():
            session: DrillSession | None = None

            def rank(request: ComplaintRequest) -> Recommendation:
                nonlocal session
                if session is None:  # built on the view's first miss
                    session = engine.session(request.group_by,
                                             dict(request.filters))
                return session.recommend(request.complaint, k=request.k)

            for i in indices:
                request = requests[i]
                executed += 1
                t0 = time.perf_counter()
                try:
                    # Before the memo: its key reads k=0 as the default,
                    # and compares cells with == (1986.0 finds 1986).
                    check_top_k(request.k)
                    engine.check_cells(request.filters, "filter")
                    engine.check_cells(request.complaint.coordinates,
                                       "complaint coordinate")
                    key = _recommend_key(engine, view_key, request)
                    memo = None
                    if key is None:
                        recommendation = rank(request)
                    else:
                        filled: list[MemoEntry] = []

                        def fill() -> MemoEntry:
                            filled.append(MemoEntry(rank(request)))
                            return filled[0]

                        entry = self.cache.get_or_compute(key, fill)
                        memo = None if filled else entry
                        recommendation = entry.recommendation
                        if recommendation.complaint is not request.complaint:
                            recommendation = replace(
                                recommendation, complaint=request.complaint)
                    items[i] = BatchItem(request, recommendation,
                                         time.perf_counter() - t0,
                                         memo=memo)
                except Exception as exc:  # isolate the failing request
                    items[i] = BatchItem(request, None,
                                         time.perf_counter() - t0,
                                         error=f"{type(exc).__name__}: {exc}",
                                         fault=isinstance(exc,
                                                          NUMERIC_FAULTS))
        with self._lock:
            self._recommend_count += executed
            self._recommend_seconds += time.perf_counter() - start
        return BatchResult(items=list(items),  # type: ignore[arg-type]
                           total_seconds=time.perf_counter() - start,
                           n_views=len(by_view),
                           data_version=engine.data_version)

    # -- maintenance ---------------------------------------------------------------
    def ingest(self, dataset: str, rows: Sequence = (),
               retract: Sequence = ()) -> dict:
        """Apply an append/retract delta to a registered dataset.

        The incremental counterpart of :meth:`try_rebuild`: the delta is
        threaded through the relation, the cube (which checks the
        hierarchy FDs on its merged leaf keys) and the shared cache
        (entries are patched or retained under the new lineage
        fingerprint, not dropped). No open session is touched: a "sync"
        session reads the engine's version, and a strict one raises until
        explicitly synced, instead of silently serving pre-delta
        aggregates. Returns a summary with the new ``data_version`` and
        the cache patch counters.

        Failure semantics: a validation failure (:class:`DeltaError` —
        the *request* is wrong) propagates unchanged with nothing
        mutated. Any other failure is infrastructure: the engine has
        rolled back to the last good snapshot, the dataset is marked
        degraded (background rebuild restores health), and
        :class:`~repro.serving.health.IngestFailure` reports the
        ``data_version`` still being served.
        """
        engine = self.engine(dataset)
        delta = Delta.from_rows(engine.dataset.relation.schema,
                                rows, retract)
        # Exclusive write: every in-flight read of this dataset drains
        # before the delta lands, and no read starts until it has.
        with self.locks.write(dataset):
            before = self.cache.stats
            try:
                version = engine.apply_delta(delta)
            except DeltaError:
                raise  # a bad request, not a sick dataset
            except Exception as exc:
                self._degrade(dataset, exc)
                raise IngestFailure(dataset, engine.data_version,
                                    exc) from exc
            self.health.mark_healthy(
                dataset, version, recovered=self.health.is_degraded(dataset))
            after = self.cache.stats
            return {
                "dataset": dataset,
                "version": version,
                "appended": len(delta.appended),
                "retracted": len(delta.retracted),
                "cache_patched": after.patched - before.patched,
                "cache_retained": after.retained - before.retained,
            }

    # -- degraded mode & recovery --------------------------------------------------
    def _degrade(self, dataset: str, exc: BaseException) -> None:
        """Record a maintenance failure; kick off background recovery."""
        self.health.mark_failed(dataset, exc)
        if self.auto_rebuild:
            self._spawn_rebuild(dataset)

    def try_rebuild(self, dataset: str) -> bool:
        """Rebuild one dataset's engine wholesale; True on success.

        The one wholesale path, for recovery (the background rebuild
        loop) and for the operator's forced rebuild (``POST
        /datasets/{d}/refresh``). Under the write lock the engine
        rebuilds from its committed relation
        (:meth:`~repro.core.session.Reptile.refresh`), the old
        fingerprint's cache entries are dropped, and the version bumps:
        auto-sync sessions read it, strict ones raise until synced. A
        healthy dataset stays ``healthy``
        throughout; a degraded one goes ``rebuilding`` and, on success,
        ``healthy`` with one more recorded rebuild. A failure (the
        ``serving.rebuild`` fault point included) degrades the dataset,
        pushing the next attempt further out on the backoff schedule,
        and returns False.
        """
        engine = self.engine(dataset)
        recovering = self.health.is_degraded(dataset)
        if recovering:
            self.health.mark_rebuilding(dataset)
        try:
            fault_point("serving.rebuild", dataset=dataset)
            with self.locks.write(dataset):
                old_fingerprint = engine.fingerprint
                engine.refresh()
                if old_fingerprint is not None:
                    self.cache.invalidate(old_fingerprint)
        except Exception as exc:
            self._degrade(dataset, exc)
            return False
        self.health.mark_healthy(dataset, engine.data_version,
                                 recovered=recovering)
        return True

    def _spawn_rebuild(self, dataset: str) -> None:
        """Start (at most) one background rebuild thread per dataset."""
        with self._lock:
            thread = self._rebuilders.get(dataset)
            if thread is not None and thread.is_alive():
                return
            thread = threading.Thread(target=self._rebuild_loop,
                                      args=(dataset,), daemon=True,
                                      name=f"reptile-rebuild-{dataset}")
            self._rebuilders[dataset] = thread
            thread.start()

    def _rebuild_loop(self, dataset: str) -> None:
        """Retry recovery on the backoff schedule until healthy.

        Reads keep flowing the whole time (the rebuild itself takes the
        write lock only briefly inside :meth:`try_rebuild`); the loop
        exits as soon as the dataset is healthy — including when a later
        successful ingest restored it first.
        """
        while self.health.is_degraded(dataset):
            delay = self.health.retry_delay(dataset)
            if delay > 0:
                self._rebuild_sleep(delay)
            if not self.health.is_degraded(dataset):
                break
            self.try_rebuild(dataset)

    # -- monitoring ----------------------------------------------------------------
    def stats(self) -> dict:
        """Operational counters: cache behaviour, timings, populations.

        ``ranker`` reports how many scoring sweeps ran on the vectorized
        array path versus the group-at-a-time loop. The counters are
        process-wide (shared across services in one process, not reset
        between requests). A non-zero fallback count means some sweeps
        produced a NaN score — a NaN prediction — which forces the
        reference ordering loop.

        ``kernels`` reports the fused-kernel tier's per-kernel
        fused/fallback dispatch counts under ``counters`` — a fallback is
        a call whose guard dropped it to the plain tier.
        """
        from .. import kernels
        from ..core.ranker import RANKER_STATS
        cache_stats = self.cache.stats
        return {
            "ranker": dict(RANKER_STATS),
            "kernels": kernels.kernel_stats(),
            "cache": {
                "entries": len(self.cache),
                "max_entries": self.cache.max_entries,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "evictions": cache_stats.evictions,
                "invalidations": cache_stats.invalidations,
                "patched": cache_stats.patched,
                "retained": cache_stats.retained,
                "hit_rate": cache_stats.hit_rate,
            },
            "stages": {kind: {"computations": t.computations,
                              "seconds": t.seconds}
                       for kind, t in self.cache.timings().items()},
            "recommend": {"count": self._recommend_count,
                          "seconds": self._recommend_seconds},
            "engines": len(self._engines),
            "sessions": len(self._sessions),
            "health": self.health.snapshot(),
        }

    def __repr__(self) -> str:
        return (f"ExplanationService(datasets={list(self._engines)}, "
                f"sessions={len(self._sessions)}, cache={self.cache!r})")


def _recommend_key(engine: Reptile, view_key: tuple,
                   request: ComplaintRequest) -> tuple | None:
    """The ``"recommend"`` cache key of one request, or None to bypass.

    Everything the answer depends on: the data (the engine fingerprint,
    second as in every kind, so ingest and rebuild reach the entry),
    the view, the complaint (its coordinates as a set: their order does
    not matter), the effective k, and what each drill level's repairer
    is built from — model, EM iterations, auto-auxiliary flag, feature
    plan and the dataset's auxiliary registrations, keyed as
    ``spec_signature`` keys an auxiliary feature (the fingerprint is
    taken at registration, before any later ``add_auxiliary``). A
    custom repairer, or a plan holding a custom feature, cannot be
    fingerprinted, so such an engine bypasses the memo, as
    :class:`~repro.serving.engine.CachingRepairer` bypasses its fits.
    Coordinates that cannot be hashed bypass it too, so the request
    fails exactly as an unmemoized one does.
    """
    plan = plan_signature(engine.feature_plan)
    if engine.fingerprint is None or engine.custom_repairer is not None \
            or plan is None:
        return None
    complaint = request.complaint
    try:
        coordinates = frozenset(complaint.coordinates.items())
    except TypeError:
        return None
    config = engine.config
    auxiliary = tuple(("aux", name, m) for name, aux
                      in engine.dataset.auxiliary.items()
                      for m in aux.measures)
    return ("recommend", engine.fingerprint, view_key, complaint.aggregate,
            complaint.direction, complaint.target, coordinates,
            request.k or config.top_k, config.model,
            config.n_em_iterations, config.auto_auxiliary, plan, auxiliary)
