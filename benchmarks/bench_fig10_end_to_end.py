"""Figure 10: end-to-end runtime on absentee- and COMPAS-shaped workloads.

Paper shape: Reptile's factorised pipeline beats the Matlab/Lapack-style
baseline (materialised matrix + interpreted per-cluster EM loop) by >6×,
with the gap widening as drill-down deepens. A stronger vectorized-dense
baseline (our own extra ablation) is reported alongside.

Row counts are reduced from the published 179K/60.8K by default so the
whole benchmark suite stays minutes-scale; the group-level cross products
(which drive the cost) keep the published cardinalities. Set
REPRO_FULL_SCALE=1 to run the original sizes.
"""

import os

import pytest

from repro.datagen import workloads
from repro.experiments.endtoend import run_absentee, run_compas

from bench_utils import SMOKE, fmt, report, report_json, smoke

FULL = os.environ.get("REPRO_FULL_SCALE") == "1"
ABSENTEE_ROWS = smoke(3_000, None if FULL else 40_000)
COMPAS_ROWS = smoke(1_500, None if FULL else 20_000)
EM_ITERATIONS = smoke(2, 20)
#: The published row counts, which the generators default to.
PUBLISHED_ROWS = {"absentee": workloads.ABSENTEE_ROWS,
                  "compas": workloads.COMPAS_ROWS}


def _describe(result):
    lines = [
        "invocation  candidates              fact(s)   dense(s)  matlab(s)"
        "  vs-matlab",
    ]
    for t in result.invocations:
        cands = ",".join(t.candidates)
        lines.append(
            f"{t.invocation:<11d} {cands:<23s} {fmt(t.factorized_seconds, 3)}"
            f"     {fmt(t.dense_seconds, 3)}     {fmt(t.matlab_seconds, 3)}"
            f"     {t.speedup:6.1f}x")
    lines.append(
        f"TOTAL fact={fmt(result.total_factorized, 3)}s "
        f"dense={fmt(result.total_dense, 3)}s "
        f"matlab={fmt(result.total_matlab, 3)}s "
        f"speedup={result.overall_speedup:.1f}x "
        f"(paper: >6x vs Matlab)")
    return lines


@pytest.mark.parametrize("dataset", ["absentee", "compas"])
def test_end_to_end(benchmark, dataset):
    runner = run_absentee if dataset == "absentee" else run_compas
    rows = ABSENTEE_ROWS if dataset == "absentee" else COMPAS_ROWS
    result = benchmark.pedantic(
        lambda: runner(n_rows=rows, n_iterations=EM_ITERATIONS),
        rounds=1, iterations=1)
    report(f"fig10_{dataset}", _describe(result))
    # One ledger row per invocation: cold is the Matlab-style baseline,
    # warm the factorised pipeline, and the paper claims a >6x speedup.
    report_json(f"fig10_{dataset}", [
        {"op": f"invocation{t.invocation}",
         "scale": rows or PUBLISHED_ROWS[dataset],
         "cold": t.matlab_seconds, "warm": t.factorized_seconds,
         "speedup": t.speedup, "dense": t.dense_seconds, "paper": 6}
        for t in result.invocations])
    # The headline claim: factorised beats the Matlab-style baseline.
    if not SMOKE:  # tiny smoke sizes make the ratio meaningless
        assert result.overall_speedup > 1.0
