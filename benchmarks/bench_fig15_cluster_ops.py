"""Figure 15 (Appendix F): per-cluster matrix operations vs a Lapack loop.

Paper shape: batched factorised per-cluster gram/left/right beat the
per-cluster LAPACK loop by 3×/5.8×/6.9× at d = 7 hierarchies; we sweep
d = 1..4 (3 attributes each, w = 10) and expect the same widening gap.
"""

import numpy as np
import pytest

from repro.experiments.perf import (deep_hierarchies, random_feature_matrix,
                                    sweep_cluster_ops)
from repro.factorized.cluster_ops import ClusterOps
from repro.factorized.forder import AttributeOrder

from bench_utils import fmt, report, smoke

DS = smoke([1, 2], [1, 2, 3, 4])


def _ops(d, seed=0):
    rng = np.random.default_rng(seed)
    order = AttributeOrder(deep_hierarchies(d, 3, 10))
    matrix = random_feature_matrix(order, rng)
    return ClusterOps(matrix), matrix, rng


@pytest.mark.parametrize("d", DS)
def test_cluster_grams_factorized(benchmark, d):
    ops, _, _ = _ops(d)
    benchmark(ops.cluster_grams)


@pytest.mark.parametrize("d", DS)
def test_cluster_grams_dense_loop(benchmark, d):
    ops, matrix, _ = _ops(d)
    x = matrix.materialize()
    offsets = ops.offsets

    def loop():
        return [x[offsets[i]:offsets[i + 1]].T @ x[offsets[i]:offsets[i + 1]]
                for i in range(ops.n_clusters)]

    benchmark(loop)


@pytest.mark.parametrize("d", DS)
def test_cluster_right_factorized(benchmark, d):
    ops, matrix, rng = _ops(d)
    b = rng.normal(size=(ops.n_clusters, matrix.n_cols))
    benchmark(lambda: ops.cluster_right(b))


@pytest.mark.parametrize("d", DS)
def test_cluster_right_dense_loop(benchmark, d):
    ops, matrix, rng = _ops(d)
    b = rng.normal(size=(ops.n_clusters, matrix.n_cols))
    x = matrix.materialize()
    offsets = ops.offsets

    def loop():
        return [x[offsets[i]:offsets[i + 1]] @ b[i]
                for i in range(ops.n_clusters)]

    benchmark(loop)


def test_figure15_series(benchmark):
    timings = benchmark.pedantic(lambda: sweep_cluster_ops(max(DS)),
                                 rounds=1, iterations=1)
    lines = ["d  rows    clusters  op     dense-loop(s)  factorized(s)  ratio"]
    for t in timings:
        for op in ("gram", "left", "right"):
            dense = getattr(t, f"{op}_dense")
            fact = getattr(t, f"{op}_factorized")
            ratio = dense / fact if fact > 0 else float("inf")
            lines.append(f"{t.n_hierarchies}  {t.n_rows:<7d} "
                         f"{t.n_clusters:<9d} {op:<6s} {fmt(dense)}       "
                         f"{fmt(fact)}       {ratio:7.1f}")
    report("fig15_cluster_ops", lines)
