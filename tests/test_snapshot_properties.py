"""Property tests for session snapshot/staleness semantics.

Hypothesis generates interleavings of ``ingest`` / ``recommend`` /
``view`` / ``sync`` operations against an :class:`ExplanationService`
holding one auto-``sync`` and one ``strict`` session, and checks every
response against a serialized oracle — a dozen lines of Python tracking
the current version, each session's pinned version, and the cumulative
relation totals per version:

* a ``sync`` session never goes backwards in ``data_version`` and always
  answers at the engine's current version;
* a ``strict`` session raises :class:`StaleDataError` *exactly* when a
  delta has landed since its pinned version — never spuriously, never
  silently serving mixed versions — and the error names both versions;
* every answered view's totals equal the oracle's totals at the reported
  version, bitwise (integer-valued measures);
* every one-shot recommend (``submit_batch``, which memoizes whole
  answers) reports the current version and equals a cache-less engine's
  answer over the oracle's rows at that version: same keys, same order,
  bitwise-equal scores.

A second property drives the same operations from two real threads and
checks the invariants that survive nondeterminism: per-session version
monotonicity and single-version response consistency.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complaint import Complaint
from repro.core.session import Reptile, StaleDataError
from repro.relational import (HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.serving import ExplanationService
from repro.serving.service import ComplaintRequest

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("severity")])


def small_rows(seed: int = 0) -> list[tuple]:
    rng = np.random.default_rng(seed)
    rows = []
    for d in range(2):
        for v in range(2):
            for y in (2000, 2001):
                for _ in range(3):
                    rows.append((f"d{d}", f"d{d}v{v}", y,
                                 float(rng.integers(1, 10))))
    return rows


def small_dataset(seed: int = 0, rows=None) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, small_rows(seed) if rows is None
                           else rows),
        {"geo": ["district", "village"], "time": ["year"]}, "severity")


def ranking(recommendation) -> tuple:
    """Each hierarchy's ranked keys and scores, scores bitwise."""
    return tuple((name, rec.attribute, float(rec.base_penalty).hex(),
                  tuple((g.key, float(g.score).hex()) for g in rec.groups))
                 for name, rec in recommendation.per_hierarchy.items())


def view_totals(view) -> tuple[int, float]:
    count = total = 0.0
    for state in view.groups.values():
        count += state.count
        total += state.total
    return int(count), float(total)


def fresh_service() -> tuple[ExplanationService, str, str]:
    service = ExplanationService()
    service.register("data", small_dataset())
    sync_id = service.open_session("data", session_id="auto",
                                   group_by=["district"])
    strict_id = service.open_session("data", session_id="strict",
                                     group_by=["district"],
                                     staleness="strict")
    return service, sync_id, strict_id


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("view"), st.sampled_from(["auto", "strict"]),
                  st.just(0)),
        st.tuples(st.just("recommend"), st.just("auto"), st.just(0)),
        st.tuples(st.just("sync"), st.just("strict"), st.just(0)),
        st.tuples(st.just("oneshot"), st.sampled_from(["d0", "d1"]),
                  st.integers(min_value=1, max_value=3)),
    ),
    min_size=1, max_size=14)


class TestSerializedOracle:
    @given(ops=OPS)
    @settings(max_examples=40)
    def test_interleavings_match_serialized_oracle(self, ops):
        service, sync_id, strict_id = fresh_service()
        dataset = service.engine("data").dataset
        base_count = len(dataset.relation)
        base_total = float(sum(dataset.relation.column("severity")))

        # The oracle: current version, per-version totals, pinned marks.
        current = 0
        totals = {0: (base_count, base_total)}
        rows_at = {0: small_rows()}
        pinned = {"auto": 0, "strict": 0}
        last_answered = {"auto": 0, "strict": 0}
        village_counter = 0

        for op, a, b in ops:
            if op == "ingest":
                village_counter += 1
                rows = [("d0", f"d0new{village_counter}", 2000, float(b))
                        for _ in range(a)]
                info = service.ingest("data", rows)
                current += 1
                count, total = totals[current - 1]
                totals[current] = (count + a, total + a * float(b))
                rows_at[current] = rows_at[current - 1] + rows
                assert info["version"] == current
                # The write bumped the auto-sync session immediately.
                pinned["auto"] = current
            elif op == "view":
                session_id = sync_id if a == "auto" else strict_id
                if a == "strict" and pinned["strict"] != current:
                    try:
                        service.with_session(session_id,
                                             lambda s: s.view())
                    except StaleDataError as exc:
                        assert exc.pinned == pinned["strict"]
                        assert exc.current == current
                    else:
                        raise AssertionError(
                            "strict session served a stale view without "
                            "raising")
                    continue
                view, version = service.with_session(session_id,
                                                     lambda s: s.view())
                assert version == current
                assert view_totals(view) == totals[version]
                assert version >= last_answered[a], (
                    f"session {a} went backwards: "
                    f"{last_answered[a]} -> {version}")
                last_answered[a] = version
                pinned[a] = version
            elif op == "recommend":
                _, version = service.with_session(
                    sync_id, lambda s: s.recommend(
                        Complaint.too_low({"district": "d0"}, "mean"), k=2))
                assert version == current
                assert version >= last_answered["auto"]
                last_answered["auto"] = version
                pinned["auto"] = version
            elif op == "oneshot":
                # Asked twice: the second answer is a memo hit.
                complaint = Complaint.too_low({"district": a}, "mean")
                oracle = Reptile(small_dataset(rows=rows_at[current]))
                expected = ranking(oracle.recommend(
                    complaint, group_by=["district"], k=b))
                for _ in range(2):
                    result = service.submit_batch("data", [ComplaintRequest(
                        complaint, ("district",), k=b)])
                    assert result.data_version == current
                    assert result.items[0].error is None
                    assert ranking(result.items[0].recommendation) \
                        == expected
            else:  # sync the strict session
                _, version = service.with_session(strict_id,
                                                  lambda s: s.sync())
                assert version == current
                pinned["strict"] = current

        # Exactly-once staleness: after syncing, strict serves again.
        service.with_session(strict_id, lambda s: s.sync())
        view, version = service.with_session(strict_id, lambda s: s.view())
        assert version == current
        assert view_totals(view) == totals[current]


class TestConcurrentInvariants:
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           n_reads=st.integers(min_value=1, max_value=6),
           n_ingests=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_threaded_reads_see_single_versions(self, seed, n_reads,
                                                n_ingests):
        service, sync_id, _ = fresh_service()
        dataset = service.engine("data").dataset
        base = (len(dataset.relation),
                float(sum(dataset.relation.column("severity"))))
        contrib: dict[int, tuple[int, float]] = {}
        contrib_lock = threading.Lock()
        deferred: list[tuple[int, tuple[int, float]]] = []
        failures: list[str] = []

        def expected(version: int) -> tuple[int, float]:
            count, total = base
            with contrib_lock:
                for v, (dc, ds) in contrib.items():
                    if v <= version:
                        count, total = count + dc, total + ds
            return count, total

        def reader() -> None:
            last = -1
            for _ in range(n_reads):
                view, version = service.with_session(sync_id,
                                                     lambda s: s.view())
                got = view_totals(view)
                if got != expected(version):
                    # The ingester records its contribution only after
                    # its call returns, so the oracle may briefly lag
                    # the version we just read. Re-check post-join.
                    with contrib_lock:
                        deferred.append((version, got))
                if version < last:
                    failures.append(f"went backwards {last} -> {version}")
                last = version

        def ingester() -> None:
            rng = np.random.default_rng(seed)
            for i in range(n_ingests):
                value = float(rng.integers(1, 9))
                rows = [("d1", f"d1t{seed}n{i}", 2001, value)]
                info = service.ingest("data", rows)
                with contrib_lock:
                    contrib[info["version"]] = (1, value)

        threads = [threading.Thread(target=reader, name="reader"),
                   threading.Thread(target=ingester, name="ingester")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads), "threads hung"
        assert not failures, failures
        torn = [(v, got) for v, got in deferred if got != expected(v)]
        assert not torn, f"torn reads: {torn}"
