"""Figure 9: drill-down aggregate maintenance — Static vs Dynamic vs Cache.

Paper shape: Dynamic beats Static by exploiting hierarchy independence
(O(1) rescaling of non-drilled hierarchies); adding the cache removes the
cost of re-evaluating the hierarchy that is never picked (2ndB/3rdB ≈ 0).
Setup as in §5.1.3: two 6-attribute hierarchies, A pre-drilled to depth 3,
B pre-drilled to depth n ∈ {3, 4, 5}; three invocations drilling A.

The array-vs-oracle section runs the same dynamic drill loop twice — once
with the array-native unit builder/combiner, once with the frozen dict
pair from ``reference.py`` — asserts the evaluated aggregates exactly
equal, and holds a ≥5x floor on the incremental recompute at full scale.
"""

import pytest

from repro.experiments.perf import run_drilldown
from repro.factorized.drilldown import DrilldownEngine
from repro.factorized.reference import (assert_aggregate_sets_equal,
                                        reference_combine_units,
                                        reference_hierarchy_unit)

from bench_utils import SMOKE, fmt, report, report_json, smoke

MODES = ["static", "dynamic", "cache"]
DEPTHS = smoke([3], [3, 4, 5])
CARDINALITY = smoke(60, 1500)
#: The oracle-floor scenario runs deeper so per-invocation work dwarfs
#: timer noise; equality is still checked at every scale.
ORACLE_CARDINALITY = smoke(60, 4000)
ORACLE_FLOOR = 5.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("depth_b", DEPTHS)
def test_three_invocations(benchmark, mode, depth_b):
    result = benchmark.pedantic(
        lambda: run_drilldown(mode, depth_b, cardinality=CARDINALITY),
        rounds=1, iterations=1)
    assert len(result.invocation_seconds) == 3


def test_figure9_series(benchmark):
    def sweep():
        rows = []
        for mode in MODES:
            for depth in DEPTHS:
                rows.append(run_drilldown(mode, depth,
                                          cardinality=CARDINALITY))
        return rows

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["mode     depthB  inv1(s)   inv2(s)   inv3(s)   total(s)  "
             "unit-builds"]
    for t in timings:
        inv = [fmt(s) for s in t.invocation_seconds]
        lines.append(f"{t.mode:<8s} {t.depth_b:<7d} {inv[0]}    {inv[1]}    "
                     f"{inv[2]}    {fmt(t.total)}    {t.unit_computations}")
    report("fig09_drilldown", lines)
    # speedup = this mode's total vs the no-reuse Static baseline at the
    # same depth (Static itself reports 1.0): every JSON row across the
    # harnesses carries a speedup field, which `make bench-smoke`
    # enforces via benchmarks/check_smoke.py.
    static_total = {t.depth_b: t.total for t in timings
                    if t.mode == "static"}
    report_json("fig09_drilldown", [
        {"op": f"drill-{t.mode}", "scale": CARDINALITY,
         "depth_b": t.depth_b, "invocations": t.invocation_seconds,
         "total": t.total, "unit_builds": t.unit_computations,
         "speedup": static_total[t.depth_b] / t.total if t.total
         else float("inf")}
        for t in timings])


def test_figure9_array_vs_oracle(benchmark):
    """Incremental drill-down recompute: array-native vs the dict oracle.

    Dynamic mode isolates the §4.4 incremental step — per invocation, only
    the drilled hierarchy's unit is rebuilt and the recombination rescales
    the rest. Equality of the evaluated aggregates is asserted in-run at
    every scale; the ≥5x floor on the recompute applies at full scale.
    """
    oracle_kwargs = {"builder": reference_hierarchy_unit,
                     "combiner": reference_combine_units}

    def compare():
        # Best-of-2: per-invocation work is milliseconds, so one noisy
        # scheduler blip would otherwise dominate the ratio.
        arrays, oracles = [], []
        for _ in range(2):
            arrays.append(run_drilldown(
                "dynamic", 3, cardinality=ORACLE_CARDINALITY))
            oracles.append(run_drilldown(
                "dynamic", 3, cardinality=ORACLE_CARDINALITY,
                **oracle_kwargs))
        return (min(arrays, key=lambda t: t.total),
                min(oracles, key=lambda t: t.total))

    array, oracle = benchmark.pedantic(compare, rounds=1, iterations=1)

    # Exact equality of the evaluated candidate aggregates, both engines.
    from repro.experiments.perf import deep_hierarchies
    paths = deep_hierarchies(2, 6, ORACLE_CARDINALITY)
    depths = {paths[0].name: 3, paths[1].name: 3}
    a_eng = DrilldownEngine(paths, initial_depths=depths, mode="dynamic")
    o_eng = DrilldownEngine(paths, initial_depths=depths, mode="dynamic",
                            **oracle_kwargs)
    for name in a_eng.candidates():
        assert_aggregate_sets_equal(a_eng.evaluate_candidate(name),
                                    o_eng.evaluate_candidate(name))
    a_eng.drill(paths[0].name)
    o_eng.drill(paths[0].name)
    assert_aggregate_sets_equal(a_eng.current_aggregates(),
                                o_eng.current_aggregates())

    speedup = oracle.total / array.total if array.total else float("inf")
    lines = ["mode     cardinality  array(s)   oracle(s)  speedup",
             f"dynamic  {ORACLE_CARDINALITY:<12d} {fmt(array.total)}     "
             f"{fmt(oracle.total)}    {speedup:8.1f}x"]
    if not SMOKE:
        assert speedup >= ORACLE_FLOOR, \
            f"incremental recompute: {speedup:.1f}x < {ORACLE_FLOOR}x floor"
    report("fig09_array_vs_oracle", lines)
    report_json("fig09_array_vs_oracle", [
        {"op": "drilldown-recompute", "scale": ORACLE_CARDINALITY,
         "cold": array.invocation_seconds[0], "warm": array.total,
         "oracle": oracle.total, "speedup": speedup}])
