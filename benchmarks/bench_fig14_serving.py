"""Serving layer: cold vs warm recommend latency across drill depths.

The drill-down loop (complain → recommend → drill) is replayed over a
two-hierarchy dataset at depths 0, 1 and 2. "Cold" uses a fresh engine
with no cache; "warm" replays the identical path on a *new* engine that
shares an :class:`~repro.serving.cache.AggregateCache` already populated
by one prior run — the multi-user / replay scenario the serving layer
targets. The series asserts the two paths return exactly equal
recommendations and that the warm path is ≥2x faster at depth ≥2, and
writes one JSON row per depth (``scale`` is the depth).
"""

import time

import numpy as np
import pytest

from repro import Complaint, HierarchicalDataset, Relation, Reptile, \
    ReptileConfig, Schema, dimension, measure
from repro.serving import AggregateCache

from bench_utils import SMOKE, fmt, report, report_json, smoke

N_DISTRICTS = smoke(3, 6)
N_VILLAGES = smoke(3, 8)
YEARS = range(1984, smoke(1987, 1990))
N_MONTHS = smoke(3, 12)
N_EM_ITERATIONS = smoke(2, 20)


def build_dataset() -> HierarchicalDataset:
    """geo: district → village, time: year → month; one planted error."""
    rng = np.random.default_rng(42)
    rows = []
    for d in range(N_DISTRICTS):
        district = f"d{d:02d}"
        for v in range(N_VILLAGES):
            village = f"d{d:02d}v{v:02d}"
            for year in YEARS:
                for m in range(1, N_MONTHS + 1):
                    month = f"{year}-{m:02d}"  # leaf must determine year
                    level = 5.0 + (3.0 if year == 1986 else 0.0)
                    value = float(level + rng.normal(0, 0.8))
                    if district == "d01" and v == 3 and year == 1986:
                        value -= 4.0  # the planted under-report
                    rows.append((district, village, year, month, value))
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), dimension("month"),
                     measure("severity")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation,
        {"geo": ["district", "village"], "time": ["year", "month"]},
        measure="severity")


def run_path(engine: Reptile):
    """Replay the drill loop; per-depth recommendations and latencies."""
    session = engine.session(group_by=["year"])
    complaint = Complaint.too_low({"year": 1986}, "mean")
    recommendations, seconds = [], []
    for depth in range(3):
        start = time.perf_counter()
        recommendation = session.recommend(complaint)
        seconds.append(time.perf_counter() - start)
        recommendations.append(recommendation)
        if depth < 2:
            session.drill(recommendation.best_hierarchy)
    return recommendations, seconds


@pytest.fixture(scope="module")
def dataset() -> HierarchicalDataset:
    return build_dataset()


def _config() -> ReptileConfig:
    return ReptileConfig(n_em_iterations=N_EM_ITERATIONS)


def test_cold_path(benchmark, dataset):
    def cold():
        return run_path(Reptile(dataset, config=_config()))
    recommendations, _ = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert len(recommendations) == 3


def test_warm_path(benchmark, dataset):
    cache = AggregateCache()
    run_path(Reptile(dataset, config=_config(), cache=cache))  # warm it

    def warm():
        return run_path(Reptile(dataset, config=_config(), cache=cache))
    recommendations, _ = benchmark.pedantic(warm, rounds=1, iterations=1)
    assert len(recommendations) == 3


def test_figure14_series(benchmark):
    def sweep():
        data = build_dataset()
        cold = run_path(Reptile(data, config=_config()))
        cache = AggregateCache()
        run_path(Reptile(data, config=_config(), cache=cache))
        warm = run_path(Reptile(data, config=_config(), cache=cache))
        return cold, warm

    cold, warm = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cold_recs, cold_seconds = cold
    warm_recs, warm_seconds = warm

    # Cached results must be exactly what the uncached engine computes.
    assert warm_recs == cold_recs

    lines = ["depth  cold(s)   warm(s)   speedup"]
    json_rows = []
    for depth, (c, w) in enumerate(zip(cold_seconds, warm_seconds)):
        speedup = c / max(w, 1e-9)
        lines.append(f"{depth:<6d} {fmt(c)}    {fmt(w)}    {speedup:6.1f}x")
        json_rows.append({"op": "drill-recommend", "scale": depth,
                          "cold": c, "warm": w, "speedup": speedup})
    total_cold, total_warm = sum(cold_seconds), sum(warm_seconds)
    lines.append(f"total  {fmt(total_cold)}    {fmt(total_warm)}    "
                 f"{total_cold / max(total_warm, 1e-9):6.1f}x")
    report("fig14_serving", lines)
    report_json("fig14_serving", json_rows)

    # Acceptance: ≥2x cold-vs-warm at drill depth ≥ 2.
    if SMOKE:
        return
    assert cold_seconds[2] >= 2.0 * warm_seconds[2], \
        f"depth-2 speedup below 2x: cold={cold_seconds[2]:.4f}s " \
        f"warm={warm_seconds[2]:.4f}s"
