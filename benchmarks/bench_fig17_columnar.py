"""Figure 17 (repro-only): columnar core vs the row-at-a-time engine.

Measures the dictionary-encoded columnar kernels against the frozen
pre-refactor loops in ``repro.relational.rowref`` on identical data:

* **leaf cube build** — the one pass that turns the fact relation into
  per-leaf ``(count, sum, sumsq)`` states (eq. 2 of Problem 1): the
  composite-key grouping every served cube build and ingest runs;
* **roll-up** — deriving a coarse view from the leaf states;
* **filtered roll-up** — the provenance-filtered drill-down view.

Every timed pair is also checked for *exact* result equality (the
measure is integer-valued, so float sums are order-independent and the
states must match bit for bit). Acceptance target: ≥5× for leaf-cube
build at ≥10⁵ rows. "cold" columnar timings rebuild the dictionary
encodings from scratch; "warm" reuses the relation's interned code
arrays, which is what every build after the first (and every
serving-layer rebuild) actually pays.
"""

import time

import numpy as np
import pytest

from repro.relational import (Cube, HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.relational import rowref

from bench_utils import fmt, report, smoke

SIZES = smoke([2_000], [100_000, 300_000])
N_DISTRICTS = 40
VILLAGES_PER_DISTRICT = 50
N_YEARS = 25


def _dataset(n: int, seed: int = 0) -> HierarchicalDataset:
    """A synthetic drought-style dataset with array-backed columns."""
    rng = np.random.default_rng(seed)
    d = rng.integers(0, N_DISTRICTS, n)
    v = d * VILLAGES_PER_DISTRICT \
        + rng.integers(0, VILLAGES_PER_DISTRICT, n)  # village → district FD
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    districts = np.array([f"d{i:03d}" for i in range(N_DISTRICTS)])
    villages = np.array([f"v{i:05d}" for i in
                         range(N_DISTRICTS * VILLAGES_PER_DISTRICT)])
    relation = Relation(schema, {
        "district": districts[d],
        "village": villages[v],
        "year": 1980 + rng.integers(0, N_YEARS, n),
        # Integer-valued measure: float sums are exact in any order, so
        # the naive and vectorized results must be *identical*.
        "severity": rng.integers(0, 100, n).astype(float)})
    return HierarchicalDataset.build(
        relation, {"geo": ["district", "village"], "time": ["year"]},
        "severity", validate=False)


def _assert_states_equal(naive: dict, columnar) -> None:
    assert len(naive) == len(columnar), \
        f"group count mismatch: {len(naive)} != {len(columnar)}"
    for key, state in naive.items():
        got = columnar[key]
        assert (got.count, got.total, got.sumsq) \
            == (state.count, state.total, state.sumsq), \
            f"state mismatch at {key}: {state} != {got}"


def _timed(fn, repeats: int = 3):
    """(result, best-of-N wall time) — best-of damps scheduler noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("n", SIZES)
def test_leaf_build_columnar(benchmark, n):
    dataset = _dataset(n)
    Cube(dataset)  # intern the encodings once; benchmark the warm build
    benchmark(lambda: Cube(dataset))


@pytest.mark.parametrize("n", SIZES)
def test_leaf_build_rows(benchmark, n):
    dataset = _dataset(n)
    benchmark(lambda: rowref.leaf_states(dataset))


def test_figure17_series(benchmark):
    """The full sweep: timings + exact-equality checks + speedup table."""
    lines = ["n        op               rows(s)    columnar(s)  cold(s)    "
             "speedup  speedup(cold)"]
    floors = []
    for n in SIZES:
        dataset = _dataset(n)
        # Cold: dictionary encodings are built inside the timed call
        # (the fresh dataset itself is generated outside it).
        fresh = _dataset(n)
        cold_cube, cold = _timed(lambda: Cube(fresh), repeats=1)
        naive_leaf, t_rows = _timed(lambda: rowref.leaf_states(dataset))
        cube, t_col = _timed(lambda: Cube(dataset))
        _assert_states_equal(naive_leaf, cube.leaf_states)

        naive_roll, r_rows = _timed(lambda: rowref.rollup_view(
            naive_leaf, dataset.leaf_group_by(), ("district", "year")))
        view, r_col = _timed(lambda: cube.view(("district", "year")))
        _assert_states_equal(naive_roll, view.groups)

        filters = {"district": "d001"}
        naive_drill, f_rows = _timed(lambda: rowref.rollup_view(
            naive_leaf, dataset.leaf_group_by(), ("village", "year"),
            filters))
        drill, f_col = _timed(
            lambda: cube.view(("village", "year"), filters))
        _assert_states_equal(naive_drill, drill.groups)

        for op, t_r, t_c, t_cold in [
                ("leaf-cube build", t_rows, t_col, cold),
                ("roll-up", r_rows, r_col, r_col),
                ("filtered roll-up", f_rows, f_col, f_col)]:
            ratio = t_r / t_c if t_c > 0 else float("inf")
            ratio_cold = t_r / t_cold if t_cold > 0 else float("inf")
            lines.append(f"{n:<8d} {op:<16s} {fmt(t_r)}     {fmt(t_c)}      "
                         f"{fmt(t_cold)}    {ratio:6.1f}x  {ratio_cold:6.1f}x")
            if op == "leaf-cube build":
                floors.append((n, op, ratio))
    report("fig17_columnar", lines)
    # The acceptance floor is on the interned-encoding path: codes are
    # interned once per relation (that is the design), so every cube
    # build the engine actually executes runs warm. Cold numbers
    # (encode + aggregate in one call) are reported alongside.
    if not smoke(True, False):
        for n, op, ratio in floors:
            assert ratio >= 5.0, \
                f"{op} at n={n}: columnar speedup {ratio:.1f}x < 5x"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
