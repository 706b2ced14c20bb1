"""The aggregate cache backing the serving layer.

Reptile's hot path recomputes three families of results that are pure
functions of the data and the query: group-by roll-ups
(:class:`~repro.relational.cube.GroupView`, kind ``"view"``), per-level
repair predictions (model fits over the parallel groups, kind
``"predict"``) and whole one-shot recommendations (kind
``"recommend"``, filled by
:meth:`~repro.serving.service.ExplanationService.submit_batch`).
:class:`AggregateCache` memoizes all three behind one LRU store keyed by

    (kind, dataset fingerprint, ...position/configuration...)

so repeated and concurrent explanation queries — several complaints about
the same view, a replayed drill-down path, a dashboard re-asking the same
complaint — each pay the expensive computation once. The fingerprint
pins every entry to the exact data contents. Relations are immutable, so
data changes only by ingest, which re-keys the entries it keeps under the
fingerprint :func:`delta_fingerprint` derives, or by a wholesale rebuild,
which hashes the new relation and reclaims the old entries with
:meth:`AggregateCache.invalidate`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, TypeVar

from ..relational.dataset import HierarchicalDataset
from ..relational.delta import Delta
from ..robustness.faultinject import fault_point
from .concurrency import trace

T = TypeVar("T")


@dataclass
class CacheStats:
    """Counters exposed by :meth:`AggregateCache.stats`.

    What the ``stats`` property hands out is a point-in-time *snapshot*
    taken under the cache lock, never the live accounting object: under
    concurrent access a live object showed torn states (a ``hits``
    increment from one thread visible while the matching lookup's other
    counters were not yet, ``hit_rate`` dividing counters captured at
    two different instants), and arithmetic over two reads — the ingest
    path's ``stats.patched - patched0`` — could go backwards.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Entries delta-merged in place by an ingest (touched by the delta).
    patched: int = 0
    #: Entries carried to a new data version untouched (delta missed them).
    retained: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class StageTiming:
    """Accumulated compute cost of one key kind (cache misses only)."""

    computations: int = 0
    seconds: float = 0.0


class AggregateCache:
    """A thread-safe LRU memo table for serving-layer intermediates.

    Parameters
    ----------
    max_entries:
        Upper bound on stored entries; the least recently *used* entry is
        evicted first. ``None`` disables eviction.

    Keys are hashable tuples whose first element names the result kind
    (``"view"``, ``"predict"`` or ``"recommend"``) and whose second
    element is the owning dataset's fingerprint — the convention
    :meth:`invalidate` and :meth:`pop_fingerprint` rely on to reach a
    dataset's entries. All kinds share the one ``max_entries`` bound.
    """

    def __init__(self, max_entries: int | None = 4096):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self._stats = CacheStats()
        self._timings: dict[str, StageTiming] = {}

    # -- mapping protocol ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """Snapshot of stored keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    # -- lookups ------------------------------------------------------------------
    def get(self, key: Hashable, default: T | None = None) -> T | None:
        """Fetch ``key`` (marking it most recently used), or ``default``."""
        with self._lock:
            if key not in self._entries:
                self._stats.misses += 1
                return default
            self._stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]  # type: ignore[return-value]

    def put(self, key: Hashable, value: object) -> None:
        """Store ``key`` as the most recently used entry, evicting LRU."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while (self.max_entries is not None
                   and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``get(key)``, computing and storing the value on a miss.

        The compute call runs outside the lock (model fits can take
        seconds; concurrent queries for *different* keys must not
        serialize on it); concurrent misses for the same key may compute
        twice, last write wins — safe because entries are pure functions
        of their key.
        """
        with self._lock:
            if key in self._entries:
                self._stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
            self._stats.misses += 1
        # First-touch fill: the compute deliberately runs unlocked. The
        # trace point lets the race harness hold two threads right here
        # to pin the concurrent-double-fill interleaving; the fault point
        # lets the chaos suite fail or delay the fill itself (the request
        # must surface the error without poisoning the cache — nothing is
        # stored unless compute() returns).
        trace("cache.fill", key=key)
        fault_point("cache.fill", key=key)
        start = time.perf_counter()
        value = compute()
        elapsed = time.perf_counter() - start
        kind = key[0] if isinstance(key, tuple) and key else "other"
        with self._lock:
            timing = self._timings.setdefault(str(kind), StageTiming())
            timing.computations += 1
            timing.seconds += elapsed
        self.put(key, value)
        return value

    def pop_fingerprint(self, fingerprint: str | None
                        ) -> list[tuple[Hashable, object]]:
        """Remove and return all entries of one dataset fingerprint.

        The delta-ingestion hook: entries come back in LRU order (least
        recently used first) so the caller can patch or retain each one
        under the new lineage fingerprint with recency preserved.
        Neither the removal nor the later re-put counts as an
        invalidation; use :meth:`note_patched` to record the outcome.
        """
        with self._lock:
            popped = [(k, v) for k, v in self._entries.items()
                      if isinstance(k, tuple) and len(k) > 1
                      and k[1] == fingerprint]
            for k, _ in popped:
                del self._entries[k]
            return popped

    def note_patched(self, patched: int, retained: int) -> None:
        """Record the outcome of one delta patch pass (for stats())."""
        with self._lock:
            self._stats.patched += patched
            self._stats.retained += retained

    # -- invalidation -------------------------------------------------------------
    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed to one dataset fingerprint (the second
        key element); returns how many were removed."""
        with self._lock:
            removed = len(self.pop_fingerprint(fingerprint))
            self._stats.invalidations += removed
            return removed

    def clear(self) -> None:
        """Drop every entry and reset statistics."""
        with self._lock:
            self._entries.clear()
            self._stats = CacheStats()
            self._timings.clear()

    # -- introspection ------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """An atomic point-in-time snapshot of the counters.

        Taken under the cache lock, so the fields are mutually
        consistent (``lookups == hits + misses`` always holds on a
        snapshot) and the returned object never changes afterwards —
        two snapshots straddling an operation can be subtracted safely.
        """
        with self._lock:
            return replace(self._stats)

    def timings(self) -> dict[str, StageTiming]:
        """Per-kind compute cost paid on misses (copy)."""
        with self._lock:
            return {k: StageTiming(t.computations, t.seconds)
                    for k, t in self._timings.items()}

    def __repr__(self) -> str:
        s = self._stats
        return (f"AggregateCache(n={len(self)}, max={self.max_entries}, "
                f"hits={s.hits}, misses={s.misses}, "
                f"hit_rate={s.hit_rate:.2f})")


# -- dataset fingerprinting ------------------------------------------------------
def dataset_fingerprint(dataset: HierarchicalDataset) -> str:
    """A stable digest of a dataset's schema, hierarchies, auxiliary
    registrations and contents.

    Cache keys embed this fingerprint, so two datasets with identical
    rows share warm entries while any content change diverts lookups to
    fresh keys. The digest is recomputed on every call, so it always
    covers the dataset's current relation and auxiliary registrations.

    The per-column digests come from ``Relation.content_token``, which
    reuses each key column's dictionary encoding (codes + domain) or
    the measure's raw ``float64`` bytes and memoizes the result on the
    immutable column — so a rehash pays O(1) per column already hashed,
    and no column is decoded just to be fingerprinted.
    """
    digest = hashlib.blake2b(digest_size=16)
    relation = dataset.relation
    digest.update(repr(tuple(relation.schema.names)).encode())
    dims = tuple((h.name, h.attributes) for h in dataset.dimensions)
    digest.update(repr(dims).encode())
    digest.update(repr(dataset.measure).encode())
    for aux_name in sorted(dataset.auxiliary):
        aux = dataset.auxiliary[aux_name]
        digest.update(repr((aux_name, aux.join_on, aux.measures)).encode())
        for column in aux.relation.schema.names:
            digest.update(aux.relation.content_token(column))
    for name in relation.schema.names:
        digest.update(relation.content_token(name))
    return digest.hexdigest()


def delta_fingerprint(fingerprint: str, delta: Delta) -> str:
    """The fingerprint of the data an ingest of ``delta`` makes from the
    data named ``fingerprint``.

    A digest of the lineage — the old fingerprint plus the delta's
    appended and retracted rows — so two engines that start from equal
    data and ingest equal deltas keep sharing warm entries, and engines
    whose lineages differ never share a name, whatever their data
    versions (a version number would name two datasets' first ingests
    alike). The part before ``@``, the registration's content hash, is
    kept: an ingest names its data ``base@lineage``. The rows are
    digested by ``repr``, as the delta typed them (a measure cell as a
    float), so a JSON ``7`` and ``7.0`` name the same data.
    """
    digest = hashlib.blake2b(fingerprint.encode(), digest_size=16)
    digest.update(repr((list(delta.appended.rows()),
                        list(delta.retracted.rows()))).encode())
    return f"{fingerprint.split('@', 1)[0]}@{digest.hexdigest()}"
