"""Figure 7: factorised matrix operations vs Lapack on the dense matrix.

Paper shape: materialization and gram matrix are exponential in the number
of hierarchies d for the dense implementation and ~linear for the
factorised one; left multiplication ≈5× and right ≈1.6× faster at large d.
We sweep d = 1..5 (w = 10 per attribute ⇒ up to 10⁵ dense rows; the
paper's d = 7 ⇒ 10⁷ rows is not feasible in pure Python, the trend is).
"""

import numpy as np
import pytest

from repro.experiments.perf import (flat_hierarchies, random_feature_matrix,
                                    run_matrix_oracle, sweep_matrix_ops)
from repro.factorized.forder import AttributeOrder

from bench_utils import SMOKE, fmt, oracle_rows, report, report_json, smoke

DS = smoke([1, 2], [1, 2, 3, 4, 5])
CARDINALITY = 10
#: The array-vs-oracle floor scenario: d flat hierarchies ⇒ 10^d leaf
#: paths; the full-scale point has ≥1e4 rows, where the ≥5x floor applies.
ORACLE_DS = smoke([2], [4, 5])
ORACLE_FLOOR = 5.0


def _matrix(d, seed=0):
    rng = np.random.default_rng(seed)
    order = AttributeOrder(flat_hierarchies(d, CARDINALITY))
    return random_feature_matrix(order, rng), rng


@pytest.mark.parametrize("d", DS)
def test_gram_factorized(benchmark, d):
    matrix, _ = _matrix(d)
    benchmark(matrix.gram)


@pytest.mark.parametrize("d", DS)
def test_gram_dense(benchmark, d):
    matrix, _ = _matrix(d)
    x = matrix.materialize()
    benchmark(lambda: x.T @ x)


@pytest.mark.parametrize("d", DS)
def test_materialize_dense(benchmark, d):
    matrix, _ = _matrix(d)
    benchmark(matrix.materialize)


@pytest.mark.parametrize("d", DS)
def test_left_multiply_factorized(benchmark, d):
    matrix, rng = _matrix(d)
    a = rng.normal(size=(1, matrix.n_rows))
    benchmark(lambda: matrix.left_multiply(a))


@pytest.mark.parametrize("d", DS)
def test_left_multiply_dense(benchmark, d):
    matrix, rng = _matrix(d)
    a = rng.normal(size=(1, matrix.n_rows))
    x = matrix.materialize()
    benchmark(lambda: a @ x)


@pytest.mark.parametrize("d", DS)
def test_right_multiply_factorized(benchmark, d):
    matrix, rng = _matrix(d)
    b = rng.normal(size=(matrix.n_cols, 1))
    benchmark(lambda: matrix.right_multiply(b))


@pytest.mark.parametrize("d", DS)
def test_right_multiply_dense(benchmark, d):
    matrix, rng = _matrix(d)
    b = rng.normal(size=(matrix.n_cols, 1))
    x = matrix.materialize()
    benchmark(lambda: x @ b)


def test_figure7_series(benchmark):
    """Regenerate the full Figure 7 sweep and record the series."""
    timings = benchmark.pedantic(
        lambda: sweep_matrix_ops(max_hierarchies=max(DS),
                                 cardinality=CARDINALITY),
        rounds=1, iterations=1)
    lines = ["d  rows     op            dense(s)   factorized(s)  ratio"]
    for t in timings:
        for op in ("materialize", "gram", "left", "right"):
            dense = getattr(t, f"{op}_dense")
            fact = getattr(t, f"{op}_factorized")
            ratio = dense / fact if fact > 0 else float("inf")
            lines.append(f"{t.n_hierarchies}  {t.n_rows:<8d} {op:<13s} "
                         f"{fmt(dense)}     {fmt(fact)}        {ratio:8.1f}")
    json_rows = [{"op": op, "scale": t.n_rows,
                  "dense": getattr(t, f"{op}_dense"),
                  "array": getattr(t, f"{op}_factorized"),
                  "speedup": getattr(t, f"{op}_dense")
                  / getattr(t, f"{op}_factorized")
                  if getattr(t, f"{op}_factorized") > 0 else float("inf")}
                 for t in timings
                 for op in ("materialize", "gram", "left", "right")]
    report("fig07_matrix_ops", lines)
    report_json("fig07_matrix_ops", json_rows)


def test_figure7_array_vs_oracle(benchmark):
    """Array-native matrix path vs the frozen reference.py oracle.

    In-run equality checks (bitwise vs the dict-path build, allclose vs
    the Appendix E pseudocode) always run — smoke mode included; the ≥5x
    speedup floor on gram/left/right applies at full scale only, where the
    matrix has ≥1e4 leaf paths.
    """
    def sweep():
        return [t for d in ORACLE_DS
                for t in run_matrix_oracle(d, CARDINALITY)]

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["rows     op     cold(s)    warm(s)    oracle(s)  speedup"]
    for t in timings:
        lines.append(f"{t.n_rows:<8d} {t.op:<6s} {fmt(t.cold_seconds)}     "
                     f"{fmt(t.warm_seconds)}     {fmt(t.oracle_seconds)}"
                     f"    {t.speedup:8.1f}x")
        if not SMOKE and t.n_rows >= 10_000 and t.op in ("gram", "left",
                                                         "right"):
            assert t.speedup >= ORACLE_FLOOR, \
                f"{t.op} at {t.n_rows} rows: {t.speedup:.1f}x < " \
                f"{ORACLE_FLOOR}x floor"
    report("fig07_array_vs_oracle", lines)
    report_json("fig07_array_vs_oracle", oracle_rows(timings))
