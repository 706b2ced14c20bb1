"""Figure 19 (repro-only): array-native recommend path vs the dict path.

Measures one full ``rank_candidates`` invocation — drill-down view,
parallel view, per-statistic repair-model fits, and the eq. 3 scoring
sweep — through the array-native pipeline against the frozen
group-at-a-time reference in ``repro.core.rankref`` on identical cubes:

* **rank-candidates** — the whole §4.5 invocation (what
  ``ExplanationService`` runs per complaint);
* **score-sweep** — the eq. 3 scoring/ranking step alone, on a shared
  prediction;
* **top-k** — the serving configuration (only the analyst-visible groups
  are materialized);
* **leaf design** / **leaf fit** — the repair model's two stages on the
  deepest drought level: the (district, village, year) parallel view of
  1e6 rows (80k groups in 3,200 (district, village) clusters) with the
  ``sum`` complaint's (count, mean) targets. The design build runs
  against ``rankref.build_view_design_ref`` and the 20-iteration EM fit
  against the frozen ``repro.model.emref``.

Every timed pair is checked for *exact* result equality: same group keys,
same scores (bitwise), same ordering, same observed/expected statistics;
the leaf rows check the design matrices and the fitted repair values
bitwise. Each (n, op) and each leaf stage writes one JSON row: ``cold``
is the first call, ``warm`` the best of three, ``oracle`` the frozen
path and ``speedup`` oracle / warm. Acceptance target: ≥5× for
rank-candidates at ≥10⁴ drill-down groups.
"""

import time

import numpy as np
import pytest

from repro.core import rankref
from repro.core.complaint import Complaint
from repro.core.ranker import rank_candidates, score_drilldown
from repro.core.repair import REPAIR_STATISTICS, ModelRepairer
from repro.datagen import perf
from repro.model import emref
from repro.model.features import FeaturePlan, build_view_designs
from repro.model.multilevel import MultilevelModel
from repro.relational import (Cube, HierarchicalDataset, Relation, Schema,
                              dataset_from_chunks, dimension, measure)

from bench_utils import fmt, report, report_json, smoke

#: Drill-down group counts (items under the complained block).
SIZES = smoke([150], [2_000, 12_000])
N_BLOCKS = 2
N_YEARS = 3
ROWS_PER_ITEM = 3
TOP_K = 5
#: Drought rows behind the leaf-level rows (80k leaf groups at 1e6).
LEAF_ROWS = smoke(20_000, 1_000_000)
LEAF_VIEW = ("district", "village", "year")
LEAF_CLUSTERS = ("district", "village")
EM_ITERATIONS = 20


def _dataset(n_drill: int, seed: int = 0) -> HierarchicalDataset:
    """A block→item hierarchy with ``n_drill`` items per block."""
    rng = np.random.default_rng(seed)
    n_items = n_drill * N_BLOCKS
    n = n_items * ROWS_PER_ITEM
    # Every item occurs exactly ROWS_PER_ITEM times, so the drill-down
    # view under one block has exactly n_drill groups.
    item = rng.permutation(np.repeat(np.arange(n_items), ROWS_PER_ITEM))
    block = item // n_drill
    blocks = np.array([f"b{i}" for i in range(N_BLOCKS)])
    items = np.array([f"i{i:06d}" for i in range(n_items)])
    schema = Schema([dimension("block"), dimension("item"),
                     dimension("year"), measure("severity")])
    relation = Relation(schema, {
        "block": blocks[block],
        "item": items[item],
        "year": 2000 + rng.integers(0, N_YEARS, n),
        # Integer-valued measure: float sums are exact in any order.
        "severity": rng.integers(0, 100, n).astype(float)})
    return HierarchicalDataset.build(
        relation, {"cat": ["block", "item"], "time": ["year"]},
        "severity", validate=False)


def _timed(fn, repeats: int = 3):
    """``(result, cold, warm)``: the first call's seconds and the best."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, times[0], min(times)


def _assert_groups_equal(array_groups, ref_groups) -> None:
    assert len(array_groups) == len(ref_groups), \
        f"group count mismatch: {len(array_groups)} != {len(ref_groups)}"
    for ga, gb in zip(array_groups, ref_groups):
        assert ga.key == gb.key, f"order mismatch: {ga.key} != {gb.key}"
        assert ga.score == gb.score, \
            f"score mismatch at {ga.key}: {ga.score} != {gb.score}"
        assert ga.observed == gb.observed and ga.expected == gb.expected, \
            f"statistics mismatch at {ga.key}"


def _recommend_args(cube: Cube, repairer: ModelRepairer):
    complaint = Complaint.too_low({"block": "b0"}, "sum")
    return (cube, ("block",), [("cat", "item")], complaint,
            {"block": "b0"}, repairer)


@pytest.mark.parametrize("n", SIZES)
def test_rank_candidates_array(benchmark, n):
    cube = Cube(_dataset(n))
    repairer = ModelRepairer(n_iterations=10)
    args = _recommend_args(cube, repairer)
    rank_candidates(*args, k=TOP_K)  # warm the interned encodings
    benchmark(lambda: rank_candidates(*args, k=TOP_K))


@pytest.mark.parametrize("n", SIZES)
def test_rank_candidates_ref(benchmark, n):
    cube = Cube(_dataset(n))
    repairer = ModelRepairer(n_iterations=10)
    args = _recommend_args(cube, repairer)
    benchmark.pedantic(lambda: rankref.rank_candidates_ref(*args),
                       rounds=1, iterations=1)


def test_figure19_series(benchmark):
    """The full sweep: timings + exact-equality checks + speedup table."""
    lines = ["n_drill  op                dicts(s)   arrays(s)  speedup"]
    floors = []
    rows = []
    for n in SIZES:
        dataset = _dataset(n)
        cube = Cube(dataset)
        repairer = ModelRepairer(n_iterations=10)
        args = _recommend_args(cube, repairer)

        ref_rec, _, t_ref = _timed(
            lambda: rankref.rank_candidates_ref(*args), repeats=1)
        # The serving configuration (what ExplanationService runs per
        # complaint): the sweep covers every group, ScoredGroup records
        # materialize only for the top-k. The frozen dict path has no such
        # knob — it materializes everything, always.
        rec, c_arr, t_arr = _timed(lambda: rank_candidates(*args, k=TOP_K))
        geo_a = rec.per_hierarchy["cat"]
        geo_r = ref_rec.per_hierarchy["cat"]
        assert geo_a.base_penalty == geo_r.base_penalty
        assert len(geo_r.groups) == n
        _assert_groups_equal(geo_a.groups, geo_r.groups[:TOP_K])
        # Full-list exact equality (every key, score, and rank) is
        # verified on the score sweep below, same run.
        rec_full, c_arr_full, t_arr_full = _timed(
            lambda: rank_candidates(*args))
        _assert_groups_equal(rec_full.per_hierarchy["cat"].groups,
                             geo_r.groups)

        # The scoring sweep alone, over one shared prediction.
        complaint = args[3]
        drill = cube.drilldown_view(("block",), "item", {"block": "b0"})
        parallel = cube.parallel_view(("block",), "item")
        prediction = repairer.predict(parallel, ("block",), "sum")
        (_, ref_scored), _, t_score_ref = _timed(
            lambda: rankref.score_drilldown_ref(drill, prediction,
                                                complaint), repeats=1)
        (_, scored), c_score, t_score = _timed(
            lambda: score_drilldown(drill, prediction, complaint))
        _assert_groups_equal(scored, ref_scored)

        # Serving configuration: materialize only the top-k.
        (_, top), c_topk, t_topk = _timed(
            lambda: score_drilldown(drill, prediction, complaint, k=TOP_K))
        _assert_groups_equal(top, ref_scored[:TOP_K])

        for op, t_r, cold, t_c in [
                ("rank-candidates", t_ref, c_arr, t_arr),
                ("rank-cand. full", t_ref, c_arr_full, t_arr_full),
                ("score-sweep", t_score_ref, c_score, t_score),
                ("score-sweep top-k", t_score_ref, c_topk, t_topk)]:
            ratio = t_r / t_c if t_c > 0 else float("inf")
            lines.append(f"{n:<8d} {op:<17s} {fmt(t_r)}     {fmt(t_c)}    "
                         f"{ratio:6.1f}x")
            rows.append({"op": op, "scale": n, "cold": cold, "warm": t_c,
                         "oracle": t_r, "speedup": ratio})
            if op == "rank-candidates":
                floors.append((n, ratio))
    leaf_lines, leaf_rows = _leaf_level_rows()
    lines += leaf_lines
    rows += leaf_rows
    report("fig19_recommend", lines)
    report_json("fig19_recommend", rows)
    # Acceptance floor: the end-to-end recommend invocation must be ≥5x
    # faster than the frozen dict path at ≥1e4 drill-down groups, with
    # exact result equality (asserted above in the same run).
    if not smoke(True, False):
        for n, ratio in floors:
            if n >= 10_000:
                assert ratio >= 5.0, \
                    f"rank-candidates at n={n}: speedup {ratio:.1f}x < 5x"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _leaf_level_rows() -> tuple[list[str], list[dict]]:
    """The leaf level's design build and EM fit, each against its oracle.

    Cold is the first call on a fresh cube (domain ranks, target sorts
    and design products all computed), warm the best of three; the
    ``emref`` oracle is also the best of three, ``rankref``'s design
    (seconds at 80k groups) one run. Both
    stages are checked bitwise in the same run: the design matrices, y
    and cluster sizes against ``rankref.build_view_design_ref``, the
    fitted repair values against ``emref.fit_predict_multilevel``.
    """
    dataset = dataset_from_chunks(perf.drought_chunks(LEAF_ROWS, seed=7),
                                  perf.DROUGHT_HIERARCHIES,
                                  perf.DROUGHT_MEASURE)
    view = Cube(dataset).view(LEAF_VIEW)
    targets = REPAIR_STATISTICS["sum"]
    plan = FeaturePlan()
    designs, design_cold, design_warm = _timed(
        lambda: build_view_designs(view, targets, plan, LEAF_CLUSTERS))
    refs, _, design_ref = _timed(lambda: [
        rankref.build_view_design_ref(view, t, plan, LEAF_CLUSTERS)
        for t in targets], repeats=1)
    for vd, (keys, y, ref) in zip(designs, refs):
        assert vd.keys == keys, "leaf design: key order differs"
        assert vd.design.x.tobytes() == ref.x.tobytes(), \
            "leaf design: matrix differs from rankref"
        assert vd.y.tobytes() == y.tobytes()
        assert list(vd.design.sizes) == list(ref.sizes)

    model = MultilevelModel(n_iterations=EM_ITERATIONS)
    fitted, fit_cold, fit_warm = _timed(lambda: [
        model.fit_predict_many(vd.design, [vd.y])[0] for vd in designs])
    frozen, _, fit_ref = _timed(lambda: [
        emref.fit_predict_multilevel(ref.x, ref.sizes, ref.z_columns, y,
                                     EM_ITERATIONS)
        for _, y, ref in refs])
    for got, want in zip(fitted, frozen):
        assert got.tobytes() == want.tobytes(), \
            "leaf fit: repair values differ from emref"

    n_groups = len(designs[0].keys)
    clusters = designs[0].design.n_clusters
    lines = ["", f"leaf level: {LEAF_ROWS} rows, {n_groups} groups in "
             f"{clusters} clusters, targets {targets}",
             "op           oracle(s)  cold(s)    warm(s)    speedup"]
    rows = []
    for op, oracle, cold, warm in [
            ("leaf design", design_ref, design_cold, design_warm),
            ("leaf fit", fit_ref, fit_cold, fit_warm)]:
        ratio = oracle / warm if warm > 0 else float("inf")
        lines.append(f"{op:<12s} {fmt(oracle)}     {fmt(cold)}     "
                     f"{fmt(warm)}     {ratio:6.2f}x")
        rows.append({"op": op, "scale": n_groups, "rows": LEAF_ROWS,
                     "clusters": clusters, "cold": cold, "warm": warm,
                     "oracle": oracle, "speedup": ratio})
    return lines, rows
