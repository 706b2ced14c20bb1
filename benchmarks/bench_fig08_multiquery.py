"""Figure 8: work-sharing multi-query execution vs an LMFAO-style baseline.

Paper shape: the shared plan computes the full decomposed-aggregate family
(COUNT + the gram-matrix COFs) over 4× faster than independent per-query
execution, mostly thanks to the cross-hierarchy independence optimization
(lazy rank-1 COFs). We sweep attribute cardinality with the paper's
d = 3 hierarchies × t = 3 attributes.

The array-vs-oracle section compares the code-indexed array-native shared
plan against the frozen dict pipeline (``reference_shared_plan``) on a
hierarchy with ≥1e4 leaf paths, with in-run exact-equality checks and a
≥5x speedup floor at full scale.
"""

import pytest

from repro.experiments.perf import (deep_hierarchies, run_multiquery_oracle,
                                    sweep_multiquery)
from repro.factorized.factorizer import Factorizer
from repro.factorized.forder import AttributeOrder
from repro.factorized.multiquery import lmfao_plan, shared_plan

from bench_utils import SMOKE, fmt, oracle_rows, report, report_json, smoke

CARDINALITIES = smoke([8], [20, 40, 80, 160])
#: Leaf paths per hierarchy for the array-vs-oracle floor (≥1e4 full scale).
ORACLE_LEAVES = smoke([50], [2_000, 12_000])
ORACLE_FLOOR = 5.0


def _factorizer(w):
    return Factorizer(AttributeOrder(deep_hierarchies(3, 3, w)))


@pytest.mark.parametrize("w", CARDINALITIES)
def test_shared_plan(benchmark, w):
    factorizer = _factorizer(w)
    benchmark(lambda: shared_plan(factorizer))


@pytest.mark.parametrize("w", CARDINALITIES)
def test_lmfao_plan(benchmark, w):
    factorizer = _factorizer(w)
    benchmark(lambda: lmfao_plan(factorizer))


def test_figure8_series(benchmark):
    timings = benchmark.pedantic(
        lambda: sweep_multiquery(tuple(CARDINALITIES)), rounds=1,
        iterations=1)
    lines = ["w     shared(s)   lmfao(s)   speedup"]
    for t in timings:
        lines.append(f"{t.cardinality:<5d} {fmt(t.shared_seconds)}     "
                     f"{fmt(t.lmfao_seconds)}    {t.speedup:6.1f}x")
    report("fig08_multiquery", lines)
    report_json("fig08_multiquery", [
        {"op": "shared_plan", "scale": t.cardinality,
         "shared": t.shared_seconds, "lmfao": t.lmfao_seconds,
         "speedup": t.speedup} for t in timings])


def test_figure8_array_vs_oracle(benchmark):
    """Array-native shared plan vs the frozen dict pipeline.

    ``run_multiquery_oracle`` asserts exact equality (same key sets,
    bitwise counts) in-run at every scale; the ≥5x floor applies at full
    scale only, where each hierarchy has ≥1e4 leaf paths.
    """
    def sweep():
        return [run_multiquery_oracle(n) for n in ORACLE_LEAVES]

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["rows       op           cold(s)    warm(s)    oracle(s)  "
             "speedup"]
    for t, n_leaves in zip(timings, ORACLE_LEAVES):
        lines.append(f"{t.n_rows:<10d} {t.op:<12s} {fmt(t.cold_seconds)}"
                     f"     {fmt(t.warm_seconds)}     "
                     f"{fmt(t.oracle_seconds)}    {t.speedup:8.1f}x")
        if not SMOKE and n_leaves >= 10_000:
            assert t.speedup >= ORACLE_FLOOR, \
                f"shared plan at {n_leaves} leaves: {t.speedup:.1f}x < " \
                f"{ORACLE_FLOOR}x floor"
    report("fig08_array_vs_oracle", lines)
    report_json("fig08_array_vs_oracle", oracle_rows(timings))
