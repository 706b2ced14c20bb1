"""AggregateCache boundary behaviour, pinned explicitly.

``test_serving_cache.py`` exercises the cache through the serving stack;
this file pins the data-structure contract on its own: eviction order
exactly at ``max_entries``, recency semantics of every operation,
``invalidate()`` return counts, hit/miss accounting, and the
``pop_fingerprint``/``note_patched`` hooks the delta engine relies on.
"""

from __future__ import annotations

from repro.serving import AggregateCache


class TestEvictionBoundary:
    def test_exactly_at_capacity_no_eviction(self):
        cache = AggregateCache(max_entries=3)
        for i in range(3):
            cache.put(("k", "fp", i), i)
        assert len(cache) == 3
        assert cache.stats.evictions == 0

    def test_one_past_capacity_evicts_exactly_lru(self):
        cache = AggregateCache(max_entries=3)
        for i in range(3):
            cache.put(("k", "fp", i), i)
        cache.put(("k", "fp", 3), 3)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert ("k", "fp", 0) not in cache
        assert cache.keys() == [("k", "fp", i) for i in (1, 2, 3)]

    def test_overwrite_does_not_evict(self):
        cache = AggregateCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # overwrite: size unchanged, "a" now MRU
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.keys() == [("b",), ("a",)]
        cache.put(("c",), 3)
        assert ("b",) not in cache and cache.get(("a",)) == 10

    def test_get_refreshes_recency_get_miss_does_not_insert(self):
        cache = AggregateCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1
        assert cache.get(("zzz",), default="d") == "d"
        assert len(cache) == 2  # miss inserted nothing
        cache.put(("c",), 3)
        assert cache.keys() == [("a",), ("c",)]  # "b" was the LRU

    def test_capacity_one(self):
        cache = AggregateCache(max_entries=1)
        for i in range(5):
            cache.put(("k", i), i)
        assert len(cache) == 1
        assert cache.stats.evictions == 4
        assert cache.get(("k", 4)) == 4

    def test_get_or_compute_respects_capacity(self):
        cache = AggregateCache(max_entries=2)
        for i in range(4):
            assert cache.get_or_compute(("k", "fp", i), lambda i=i: i) == i
        assert len(cache) == 2
        assert cache.stats.evictions == 2


class TestInvalidateReturnCounts:
    def test_empty_cache_returns_zero(self):
        cache = AggregateCache()
        assert cache.invalidate("nope") == 0
        assert cache.stats.invalidations == 0

    def test_per_fingerprint_counts(self):
        cache = AggregateCache()
        cache.put(("view", "fp1", 1), 1)
        cache.put(("hunit", "fp1", 2), 2)
        cache.put(("view", "fp2", 3), 3)
        assert cache.invalidate("fp1") == 2
        assert cache.invalidate("fp1") == 0  # idempotent
        assert cache.invalidate("fp2") == 1
        assert cache.stats.invalidations == 3
        assert len(cache) == 0

    def test_short_keys_never_match_a_fingerprint(self):
        cache = AggregateCache()
        cache.put(("solo",), 1)
        assert cache.invalidate("solo") == 0
        assert len(cache) == 1

    def test_clear_resets_statistics(self):
        cache = AggregateCache()
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.get(("b",))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions,
                stats.invalidations) == (0, 0, 0, 0)


class TestHitMissStats:
    def test_every_lookup_is_counted_once(self):
        cache = AggregateCache()
        cache.get(("a",))                       # miss
        cache.put(("a",), 1)
        cache.get(("a",))                       # hit
        cache.get_or_compute(("b",), lambda: 2)  # miss + compute
        cache.get_or_compute(("b",), lambda: 3)  # hit
        stats = cache.stats
        assert (stats.hits, stats.misses) == (2, 2)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.5

    def test_contains_is_not_a_lookup(self):
        cache = AggregateCache()
        cache.put(("a",), 1)
        assert ("a",) in cache and ("b",) not in cache
        assert cache.stats.lookups == 0

    def test_idle_hit_rate_is_zero(self):
        assert AggregateCache().stats.hit_rate == 0.0


class TestPopFingerprint:
    def test_pop_returns_lru_order_and_removes(self):
        cache = AggregateCache()
        cache.put(("view", "fp", "x"), 1)
        cache.put(("view", "other", "y"), 2)
        cache.put(("hunit", "fp", "z"), 3)
        cache.get(("view", "fp", "x"))  # make it MRU
        popped = cache.pop_fingerprint("fp")
        assert popped == [(("hunit", "fp", "z"), 3),
                          (("view", "fp", "x"), 1)]
        assert cache.keys() == [("view", "other", "y")]
        assert cache.stats.invalidations == 0  # patching, not dropping

    def test_note_patched_accumulates(self):
        cache = AggregateCache()
        cache.note_patched(2, 3)
        cache.note_patched(1, 0)
        assert cache.stats.patched == 3
        assert cache.stats.retained == 3


class TestStatsSnapshotConcurrency:
    """Regression: ``stats`` must be an atomic snapshot, not the live
    accounting object.

    The live object allowed torn multi-counter reads under concurrency
    (``lookups != hits + misses`` mid-increment, ``hit_rate`` dividing
    counters captured at different instants) and made two-read
    arithmetic — the ingest path's ``after.patched - before.patched`` —
    unreliable. These tests hammer the cache from several threads and
    require every snapshot to be internally consistent and immutable.
    """

    def test_snapshot_does_not_track_later_operations(self):
        cache = AggregateCache()
        cache.get(("a",))                 # one miss
        before = cache.stats
        cache.put(("a",), 1)
        cache.get(("a",))                 # one hit
        assert (before.hits, before.misses) == (0, 1)
        after = cache.stats
        assert (after.hits, after.misses) == (1, 1)
        assert after.hits - before.hits == 1  # straddling arithmetic works

    def test_snapshots_consistent_under_concurrent_hammering(self):
        import threading

        cache = AggregateCache(max_entries=64)
        n_threads, n_ops = 4, 300
        start = threading.Barrier(n_threads + 1)
        inconsistent: list[tuple] = []

        def worker(tid: int) -> None:
            start.wait(timeout=30)
            for i in range(n_ops):
                cache.get_or_compute(("k", "fp", tid, i % 80),
                                     lambda: i)

        def observer() -> None:
            start.wait(timeout=30)
            for _ in range(400):
                s = cache.stats
                if s.lookups != s.hits + s.misses:
                    inconsistent.append((s.hits, s.misses, s.lookups))
                rate = s.hit_rate
                if s.lookups and not (0.0 <= rate <= 1.0):
                    inconsistent.append(("rate", rate))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        threads.append(threading.Thread(target=observer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads), "threads hung"
        assert not inconsistent, inconsistent[:5]
        # Exact accounting after the dust settles: every get_or_compute
        # was either a hit or a miss, nothing lost to races on the
        # counters themselves.
        final = cache.stats
        assert final.lookups == n_threads * n_ops
        assert final.hits + final.misses == final.lookups

    def test_mutating_a_snapshot_does_not_corrupt_the_cache(self):
        cache = AggregateCache()
        cache.get(("a",))
        snapshot = cache.stats
        snapshot.misses = 10 ** 6          # a confused caller
        assert cache.stats.misses == 1     # the cache is unaffected
