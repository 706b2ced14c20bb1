"""Figure 23 (repro-only): the fused-kernel tier vs the plain tier.

Times the three registry-dispatched kernels of ``repro.kernels`` —
radix group-by (``group_codes``), scatter-probe join-multiply
(``join_multiply``), and the eq.-3 rank-1 score sweep
(``rank1_sweep``) — in the fused NumPy backend against the frozen
plain tier on identical inputs. Reported per kernel:

* **cold** — first fused call (includes table allocation);
* **warm** — best of repeated calls, vs the plain tier's warm best;
* **bandwidth** — achieved memory traffic over a useful-bytes estimate,
  as a fraction of a STREAM-triad roofline measured in the same run.

Every timed pair is checked **bitwise** (``tobytes`` equality) against
the plain tier in-run, and each kernel is additionally pinned to a
frozen oracle at verification scale: ``np.unique`` row-encoding for the
group-by, ``rowref.countmap_join`` through a real ``CountMap.join`` for
the join, and ``rankref.score_drilldown_ref`` through a real
``score_drilldown`` for the sweep.

Acceptance floor (full scale only): the NumPy-fused tier is ≥2x over
plain at 1e6 keys for at least two of the three kernels.
"""

import time

import numpy as np
import pytest

from repro.core import rankref
from repro.core.complaint import Complaint
from repro.core.ranker import score_drilldown
from repro.core.repair import ModelRepairer
from repro.kernels import numpy_fused, plain
from repro.relational import (Cube, HierarchicalDataset, Relation, Schema,
                              dimension, measure)
from repro.relational.countmap import CountMap
from repro.relational.encoding import combine_codes
from repro.relational import rowref

from bench_utils import fmt, report, report_json, smoke

#: Number of composite keys / drill-down groups per kernel workload.
N_KEYS = smoke(20_000, 1_000_000)
#: Per-column cardinality for the group-by (3 columns).
CARDINALITY = smoke(16, 256)
#: Join key space (right side holds every key exactly once).
JOIN_RADIX = smoke(1 << 12, 1 << 20)
#: Floors: ≥2x on at least this many of the three kernels.
FLOOR_SPEEDUP = 2.0
FLOOR_KERNELS = 2

SWEEP_STATS = ("count", "mean", "std")


def _timed(fn, repeats: int = 3):
    """``(result, cold_seconds, warm_seconds)`` — warm is best-of-N."""
    start = time.perf_counter()
    result = fn()
    cold = time.perf_counter() - start
    warm = cold
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        warm = min(warm, time.perf_counter() - start)
    return result, cold, warm


def _stream_triad_gbps(n: int = N_KEYS) -> float:
    """Measured STREAM-triad roofline: a = b + s*c over n float64."""
    b = np.random.default_rng(0).random(n)
    c = np.random.default_rng(1).random(n)
    a = np.empty(n)

    def triad():
        np.multiply(c, 2.5, out=a)
        np.add(a, b, out=a)

    _, _, warm = _timed(triad, repeats=5)
    return 3 * 8 * n / warm / 1e9


# -- workloads -------------------------------------------------------------------

def _group_workload(rng):
    # Hierarchically-correlated code columns, the Reptile cube shape:
    # the radix space is wide (CARDINALITY³ composite codes — at full
    # scale 2^24, the np.unique band of the plain tier) but functional
    # dependencies between levels keep the *occupied* composites to
    # N_DISTINCT ≪ radix, so the counting tier's scatter footprint
    # stays cache-sized while the sort-based tier still pays the full
    # O(n log n) argsort.
    radix = CARDINALITY ** 3
    n_distinct = smoke(1 << 10, 1 << 16)
    keyset = rng.choice(radix, size=n_distinct, replace=False)
    combined = keyset[rng.integers(0, n_distinct, N_KEYS)]
    cols = [(combined // (CARDINALITY * CARDINALITY)).astype(np.int32),
            ((combined // CARDINALITY) % CARDINALITY).astype(np.int32),
            (combined % CARDINALITY).astype(np.int32)]
    sizes = [CARDINALITY] * 3
    # Useful-traffic estimate (lower bound): the combined keys read
    # twice + gids written once, plus the occupied/lookup tables.
    est_bytes = 24 * N_KEYS + 7 * radix
    return cols, sizes, combined, radix, est_bytes


def _join_workload(rng):
    combined_l = rng.integers(0, JOIN_RADIX, N_KEYS)
    combined_r = rng.permutation(JOIN_RADIX)   # every key once: unique
    left_counts = rng.integers(1, 100, N_KEYS).astype(float)
    right_counts = rng.integers(1, 100, JOIN_RADIX).astype(float)
    n_r = len(combined_r)
    est_bytes = 16 * n_r + 16 * JOIN_RADIX + 16 * N_KEYS + 24 * N_KEYS
    return combined_l, combined_r, left_counts, right_counts, est_bytes


def _sweep_workload(rng):
    n = N_KEYS
    count = rng.integers(2, 50, n).astype(float)
    total = rng.normal(50.0, 10.0, n) * count
    # sumsq ≥ total²/count keeps the sample variance non-negative.
    sumsq = total * total / count + rng.random(n) * count
    parent = (float(count.sum()), float(total.sum()), float(sumsq.sum()))
    k = len(SWEEP_STATS)
    values = np.column_stack([
        rng.integers(2, 50, n).astype(float),          # repaired count
        rng.normal(50.0, 10.0, n),                     # repaired mean
        rng.random(n) * 5.0])                          # repaired std
    valid = np.ones((n, k), dtype=bool)
    valid[:, 2] = rng.random(n) < 0.8   # partial column: where-merge path
    est_bytes = 8 * n * (12 * k + 6)
    return count, total, sumsq, parent, values, valid, est_bytes


# -- oracle pins (verification scale, always run) --------------------------------

def test_group_codes_oracle():
    """combine_codes (kernel-dispatched) == the frozen np.unique encoding."""
    rng = np.random.default_rng(7)
    cols = [rng.integers(0, 9, 700).astype(np.int32) for _ in range(3)]
    gids, key_codes = combine_codes(cols, [9, 9, 9], 700)
    ref_codes, ref_gids = np.unique(np.column_stack(cols), axis=0,
                                    return_inverse=True)
    assert np.array_equal(key_codes, ref_codes)
    assert np.array_equal(gids, ref_gids.reshape(-1))


def test_join_oracle():
    """CountMap.join (kernel-dispatched) == rowref.countmap_join."""
    rng = np.random.default_rng(11)
    left = CountMap(("A", "B"), {
        (f"a{rng.integers(0, 40)}", f"b{i}"): float(rng.integers(1, 5))
        for i in range(200)})
    right = CountMap(("A", "C"), {
        (f"a{i}", f"c{rng.integers(0, 6)}"): float(rng.integers(1, 5))
        for i in range(40)})
    assert left.join(right) == rowref.countmap_join(left, right)


def _small_cube():
    rng = np.random.default_rng(3)
    n_items, rows_per = 400, 3
    item = rng.permutation(np.repeat(np.arange(n_items), rows_per))
    schema = Schema([dimension("block"), dimension("item"),
                     measure("severity")])
    relation = Relation(schema, {
        "block": np.where(item < n_items // 2, "b0", "b1"),
        "item": np.array([f"i{i:05d}" for i in item]),
        "severity": rng.integers(0, 100, n_items * rows_per).astype(float)})
    dataset = HierarchicalDataset.build(
        relation, {"cat": ["block", "item"]}, "severity", validate=False)
    return Cube(dataset)


def test_rank1_sweep_oracle():
    """score_drilldown (kernel-dispatched) == rankref's frozen loop."""
    cube = _small_cube()
    complaint = Complaint.too_low({"block": "b0"}, "sum")
    drill = cube.drilldown_view(("block",), "item", {"block": "b0"})
    parallel = cube.parallel_view(("block",), "item")
    prediction = ModelRepairer(n_iterations=10).predict(
        parallel, ("block",), "sum")
    base, scored = score_drilldown(drill, prediction, complaint)
    ref_base, ref_scored = rankref.score_drilldown_ref(drill, prediction,
                                                       complaint)
    assert base == ref_base and len(scored) == len(ref_scored)
    for got, want in zip(scored, ref_scored):
        assert got.key == want.key and got.score == want.score
        assert got.repaired_value == want.repaired_value


# -- the timed series ------------------------------------------------------------

#: The fused backends timed against the plain tier.
BACKENDS = [("numpy", numpy_fused)]


def _run_group(backend_mod, workload):
    cols, sizes, combined, radix, est_bytes = workload
    plain_res, p_cold, p_warm = _timed(
        lambda: plain.group_codes(combined, radix))
    fused_res, cold, warm = _timed(
        lambda: backend_mod.group_codes(combined, radix))
    assert fused_res is not None, "guard declined at benchmark scale"
    for got, want in zip(fused_res, plain_res):
        assert got.tobytes() == want.tobytes(), "group_codes not bitwise"
    return p_warm, cold, warm, est_bytes


def _run_join(backend_mod, workload):
    combined_l, combined_r, left_counts, right_counts, est_bytes = workload
    plain_res, p_cold, p_warm = _timed(
        lambda: plain.join_multiply(combined_l, combined_r, left_counts,
                                    right_counts, JOIN_RADIX))
    fused_res, cold, warm = _timed(
        lambda: backend_mod.join_multiply(combined_l, combined_r,
                                          left_counts, right_counts,
                                          JOIN_RADIX))
    assert fused_res is not None, "guard declined at benchmark scale"
    for got, want in zip(fused_res, plain_res):
        assert got.tobytes() == want.tobytes(), "join_multiply not bitwise"
    return p_warm, cold, warm, est_bytes


def _run_sweep(backend_mod, workload):
    count, total, sumsq, parent, values, valid, est_bytes = workload
    args = (count, total, sumsq, parent[0], parent[1], parent[2],
            SWEEP_STATS, values, valid, "sum", SWEEP_STATS)
    plain_res, p_cold, p_warm = _timed(lambda: plain.rank1_sweep(*args))
    fused_res, cold, warm = _timed(lambda: backend_mod.rank1_sweep(*args))
    assert fused_res is not None, "guard declined at benchmark scale"
    for got, want in zip(fused_res, plain_res):
        assert got.tobytes() == want.tobytes(), "rank1_sweep not bitwise"
    return p_warm, cold, warm, est_bytes


def _sweep_bound_share(workload, warm: float) -> float:
    """Fraction of the fused sweep wall spent in its six mandatory
    ``float_power`` calls (two per ``from_stats_arrays``, one call per
    repaired statistic).

    Those calls are retained ops shared op-for-op with the plain tier:
    ``float_power(x, 2)`` is *not* bitwise-replaceable by ``x * x``
    (glibc pow lands 1 ulp off ``np.square`` on ~0.04% of float64
    inputs), so under the bitwise contract they bound how far the fused
    sweep can pull ahead — the kernel is compute-bound on mandatory
    arithmetic, not memory-bandwidth-bound (see ``bandwidth_frac``) and
    not materialization-bound.
    """
    count, total, sumsq = workload[0], workload[1], workload[2]
    mean = np.divide(total, count, out=np.zeros_like(total),
                     where=count != 0)
    _, _, t_pow = _timed(lambda: np.float_power(mean, 2))
    return 6 * t_pow / warm if warm > 0 else 0.0


def test_figure23_series(benchmark):
    """The full sweep: timings + bitwise checks + bandwidth fractions."""
    rng = np.random.default_rng(0)
    roofline = _stream_triad_gbps()
    workloads = {
        "group-codes": (_run_group, _group_workload(rng)),
        "join-multiply": (_run_join, _join_workload(rng)),
        "rank1-sweep": (_run_sweep, _sweep_workload(rng)),
    }
    lines = [f"stream-triad roofline: {roofline:.2f} GB/s "
             f"({N_KEYS} keys)",
             "backend  op             plain(s)   cold(s)    warm(s)   "
             "speedup  bw(GB/s)  bw-frac"]
    rows = []
    floors = {}
    for backend, backend_mod in BACKENDS:
        for op, (runner, workload) in workloads.items():
            p_warm, cold, warm, est_bytes = runner(backend_mod, workload)
            speedup = p_warm / warm if warm > 0 else float("inf")
            gbps = est_bytes / warm / 1e9 if warm > 0 else 0.0
            frac = gbps / roofline if roofline > 0 else 0.0
            lines.append(
                f"{backend:<8s} {op:<14s} {fmt(p_warm)}     {fmt(cold)}   "
                f"{fmt(warm)}   {speedup:6.1f}x  {gbps:8.2f}  {frac:7.2f}")
            row = {"op": op, "backend": backend, "scale": N_KEYS,
                   "plain": p_warm, "cold": cold, "warm": warm,
                   "speedup": speedup, "bandwidth_gbps": gbps,
                   "bandwidth_frac": frac, "roofline_gbps": roofline}
            if op == "rank1-sweep" and speedup < FLOOR_SPEEDUP:
                # Below-floor justification (see _sweep_bound_share):
                # the sweep's wall is dominated by retained arithmetic
                # shared bitwise with the plain tier, so < 2x here is a
                # property of the contract, not a missing optimization.
                pow_share = _sweep_bound_share(workloads[op][1], warm)
                row["bound"] = "mandatory-arithmetic"
                row["pow_share_fused"] = pow_share
                lines.append(
                    f"         {'':<14s} rank1-sweep below {FLOOR_SPEEDUP}x"
                    f" by contract: {pow_share:.0%} of the fused wall is"
                    f" float_power retained ops (bitwise-shared with"
                    f" plain); bw-frac {frac:.2f} => compute-bound, not"
                    f" bandwidth/materialization-bound")
            rows.append(row)
            floors.setdefault(backend, []).append((op, speedup))
    report("fig23_kernels", lines)
    report_json("fig23_kernels", rows)
    # Acceptance floor: at full scale each fused tier beats the
    # plain tier ≥2x on at least two of the three kernels.
    if not smoke(True, False):
        for backend, results in floors.items():
            passing = [op for op, s in results if s >= FLOOR_SPEEDUP]
            assert len(passing) >= FLOOR_KERNELS, \
                (f"{backend} tier: only {passing} reached "
                 f"{FLOOR_SPEEDUP}x of {[s for _, s in results]}")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("backend_mod",
                         [m for _, m in BACKENDS],
                         ids=[name for name, _ in BACKENDS])
def test_group_codes_kernel(benchmark, backend_mod):
    workload = _group_workload(np.random.default_rng(0))
    combined, radix = workload[2], workload[3]
    backend_mod.group_codes(combined, radix)   # warm tables
    benchmark(lambda: backend_mod.group_codes(combined, radix))
