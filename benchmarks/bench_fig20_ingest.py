"""Figure 20 (repro-only): delta ingestion vs full refresh.

Live-dashboard workloads receive a trickle of appends and corrections.
The delta-update engine threads each small batch through the relation,
the cube, the hierarchy paths and the serving cache incrementally;
the pre-delta alternative was ``Reptile.refresh()`` — rebuild the leaf
cube, re-hash the fingerprint and throw the whole cache generation away,
so every view and model fit is recomputed.

Protocol per scale: two identical warm engines in steady state — views,
per-district repair predictions and fingerprints populated, one prior
delta absorbed. One then ingests a mixed batch confined to two
reporting districts (appends to existing leaves, appends opening new
leaf paths/domain values, retractions) via ``apply_delta``; the other
applies the same logical change and pays a full ``refresh()``. Both
re-answer the same warm query set: the delta engine patches the touched
entries and *retains* every untouched district's drill view and model
fit, while refresh recomputes all of them. In-run checks assert the two
engines' leaf states and roll-up views are *exactly* equal
(integer-valued measure: float sums are order-independent, so equality
is bitwise), and that the delta engine's relation — appended segments
and retracted rows kept pending, retractions found through the base's
shared key index — materializes to exactly the row-at-a-time oracle's
rows. A trickle leg on a small table then ingests until the pending
rows outnumber the base and the relation compacts, checking the result
against the oracle again. Acceptance floor: delta apply ≥5× faster than
full refresh at ≥1e5 leaf rows with 1e2-row deltas.
"""

import time

import numpy as np
import pytest

from repro import Delta, HierarchicalDataset, Relation, Reptile, \
    ReptileConfig, Schema, dimension, measure
from repro.relational import deltaref
from repro.serving import AggregateCache

from bench_utils import SMOKE, fmt, report, report_json, smoke

SIZES = smoke([2_000], [100_000, 300_000])
DELTA_ROWS = smoke(20, 100)
N_DISTRICTS = 40
VILLAGES_PER_DISTRICT = 50
N_YEARS = 25
FLOOR = 5.0
#: The trickle leg's table: small enough that a few dozen deltas push
#: the pending rows past the base rows, at every scale.
TRICKLE_ROWS = 2_000

CONFIG = ReptileConfig(n_em_iterations=2)
#: The delta is confined to these districts — a batch of late reports
#: and corrections from one reporting region, the live-dashboard norm.
DELTA_DISTRICTS = ("d001", "d002")
#: Districts whose drill-down views (and repair-model predictions) the
#: dashboard holds warm. Only the first two intersect the delta: the
#: rest must survive an ingest untouched — refresh() refits all of them.
WARM_DISTRICTS = tuple(f"d{i:03d}" for i in range(1, 31))
#: The warm query set: coarse roll-ups plus per-district drill views.
VIEWS = [(("district", "year"), None),
         (("district",), None),
         (("year",), None),
         (("village",), {"year": 1984})] +         [(("village", "year"), {"district": d}) for d in WARM_DISTRICTS]


def _rows(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    d = rng.integers(0, N_DISTRICTS, n)
    v = d * VILLAGES_PER_DISTRICT \
        + rng.integers(0, VILLAGES_PER_DISTRICT, n)  # village → district FD
    districts = np.array([f"d{i:03d}" for i in range(N_DISTRICTS)])
    villages = np.array([f"v{i:05d}" for i in
                         range(N_DISTRICTS * VILLAGES_PER_DISTRICT)])
    return {
        "district": districts[d],
        "village": villages[v],
        "year": 1980 + rng.integers(0, N_YEARS, n),
        # Integer-valued: float sums are exact in any order, so the
        # delta-merged and rebuilt states must be identical.
        "severity": rng.integers(0, 100, n).astype(float)}


def _dataset(n: int, seed: int = 0) -> HierarchicalDataset:
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    return HierarchicalDataset.build(
        Relation(schema, _rows(n, seed)),
        {"geo": ["district", "village"], "time": ["year"]},
        "severity", validate=False)


def _make_delta(relation: Relation, n_delta: int, seed: int = 1) -> Delta:
    """A mixed batch confined to :data:`DELTA_DISTRICTS`: appends to hot
    leaves, appends opening new paths/domain values, and retractions.

    Reads ``relation``'s values, so callers pass a relation that is
    already materialized, not the delta engine's pending one.
    """
    rng = np.random.default_rng(seed)
    cols = {a: relation.column(a) for a in relation.schema.names}
    local = [i for i, d in enumerate(cols["district"])
             if d in DELTA_DISTRICTS]
    n_retract = n_delta // 5
    n_new = n_delta // 5
    n_hot = n_delta - n_retract - n_new
    appended = []
    for i in rng.choice(local, size=n_hot):
        appended.append((cols["district"][i], cols["village"][i],
                         cols["year"][i], float(rng.integers(0, 100))))
    for j in range(n_new):
        district = DELTA_DISTRICTS[j % len(DELTA_DISTRICTS)]
        # Namespace new villages per batch: the village → district FD
        # must hold across successive deltas.
        appended.append((district, f"newv-{seed}-{j:03d}",
                         1980 + N_YEARS + j % 3, float(rng.integers(0, 100))))
    retract_idx = rng.choice(local, size=n_retract, replace=False)
    retracted = [(cols["district"][i], cols["village"][i], cols["year"][i],
                  cols["severity"][i]) for i in retract_idx]
    return Delta.from_rows(relation.schema, appended, retracted)


def _warm_engine(n: int) -> Reptile:
    engine = Reptile(_dataset(n), config=CONFIG, cache=AggregateCache())
    for attrs, filters in VIEWS:
        engine.cube.view(attrs, filters)
    return engine


def _query_set(engine: Reptile) -> tuple:
    views = [engine.cube.view(attrs, filters) for attrs, filters in VIEWS]
    # Per-district repair predictions: the expensive model fits a warm
    # dashboard answers complaints from. After an ingest, fits for
    # untouched districts are served from retained cache entries; a
    # refresh() pays every one of them again.
    repairer = engine.repairer_for(("village", "year"))
    predictions = [
        repairer.predict(
            engine.cube.view(("village", "year"), {"district": d}),
            (), "mean")
        for d in WARM_DISTRICTS]
    return views, predictions


def _assert_engines_equal(a: Reptile, b: Reptile) -> None:
    assert dict(a.cube.leaf_states) == dict(b.cube.leaf_states), \
        "leaf states diverged between delta apply and full refresh"
    for attrs, filters in VIEWS:
        assert dict(a.cube.view(attrs, filters).groups) \
            == dict(b.cube.view(attrs, filters).groups), \
            f"view {attrs}/{filters} diverged"


def _apply_change_in_place(dataset: HierarchicalDataset,
                           delta: Delta) -> None:
    """The same logical change, as a wholesale relation swap (what a
    non-incremental deployment does before calling refresh())."""
    from repro.relational.delta import locate_rows
    relation = dataset.relation
    if len(delta.retracted):
        relation = relation.without_rows(locate_rows(relation,
                                                     delta.retracted))
    if len(delta.appended):
        relation = relation.with_rows_appended(delta.appended)
    # Materialize now, untimed: the rebuilt relation is the input a
    # refresh() starts from, not part of what it costs.
    relation._materialize()
    dataset.relation = relation


def _check_trickle_compacts() -> None:
    """Ingest a steady trickle into a small table until the relation
    compacts; its rows must then equal the row-at-a-time oracle's."""
    engine = Reptile(_dataset(TRICKLE_ROWS), config=CONFIG)
    oracle = engine.dataset.relation
    compacted = False
    for seed in range(100, 100 + TRICKLE_ROWS // DELTA_ROWS + 10):
        delta = _make_delta(oracle, DELTA_ROWS, seed=seed)
        engine.apply_delta(delta)
        oracle = deltaref.apply_delta_rows(oracle, delta)
        # Compaction materializes the relation, which becomes the base
        # of the next pending state.
        pending = engine.dataset.relation._pending
        compacted |= pending is None or pending.n_base != TRICKLE_ROWS
    assert compacted, "the pending relation never compacted"
    assert list(engine.dataset.relation.rows()) == list(oracle.rows()), \
        "the compacted relation diverged from the row-at-a-time oracle"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_figure20_series(benchmark):
    lines = ["n        delta  refresh(s)  delta-apply(s)  speedup  "
             "patched  retained"]
    json_rows = []
    floors = []
    for n in SIZES:
        best_delta, best_refresh = float("inf"), float("inf")
        patched = retained = 0
        for _ in range(smoke(1, 3)):
            inc_engine = _warm_engine(n)
            ref_engine = _warm_engine(n)
            # Steady state: dashboards ingest a *trickle* of batches, so
            # both engines absorb one warm-up delta (each via its own
            # mechanism) before the timed batch.
            warmup = _make_delta(ref_engine.dataset.relation, DELTA_ROWS,
                                 seed=9)
            inc_engine.apply_delta(warmup)
            _query_set(inc_engine)
            _apply_change_in_place(ref_engine.dataset, warmup)
            ref_engine.refresh()
            _query_set(ref_engine)
            # Drawn from the refresh side: the same rows, materialized.
            delta = _make_delta(ref_engine.dataset.relation, DELTA_ROWS)
            before = inc_engine.dataset.relation

            _, t_delta = _timed(lambda: (
                inc_engine.apply_delta(delta),
                _query_set(inc_engine)))
            # In-run row check: the maintained relation, materialized,
            # is the oracle's relation row for row.
            assert list(inc_engine.dataset.relation.rows()) == list(
                deltaref.apply_delta_rows(before, delta).rows()), \
                "the delta engine's relation diverged from the oracle"

            _apply_change_in_place(ref_engine.dataset, delta)
            _, t_refresh = _timed(lambda: (
                ref_engine.refresh(),
                _query_set(ref_engine)))

            best_delta = min(best_delta, t_delta)
            best_refresh = min(best_refresh, t_refresh)
            stats = inc_engine.cache.stats
            patched, retained = stats.patched, stats.retained

            # In-run exact-equality: both engines must agree bitwise.
            _assert_engines_equal(inc_engine, ref_engine)

        ratio = best_refresh / best_delta if best_delta > 0 else float("inf")
        lines.append(f"{n:<8d} {DELTA_ROWS:<6d} {fmt(best_refresh)}      "
                     f"{fmt(best_delta)}          {ratio:6.1f}x  "
                     f"{patched:<8d} {retained}")
        json_rows.append({"op": "ingest-vs-refresh", "scale": n,
                          "delta_rows": DELTA_ROWS, "cold": best_refresh,
                          "warm": best_delta, "speedup": ratio,
                          "cache_patched": patched,
                          "cache_retained": retained})
        if n >= 100_000:
            floors.append((n, ratio))
    _check_trickle_compacts()
    report("fig20_ingest", lines)
    report_json("fig20_ingest", json_rows)
    if not SMOKE:
        for n, ratio in floors:
            assert ratio >= FLOOR, \
                f"delta apply at n={n}: {ratio:.1f}x < {FLOOR}x floor"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
