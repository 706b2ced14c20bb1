"""Micro-benchmark runners for §5.1 (Figures 7, 8, 9 and 15).

Each function returns structured timing rows so the pytest-benchmark
harnesses (and EXPERIMENTS.md) can print the same series the paper plots.
The figures sweep structural parameters — number of hierarchies d,
attributes per hierarchy t, attribute cardinality w — over synthetic
BCNF hierarchy tables: :func:`chain_paths` builds one hierarchy with
``n_leaves`` leaf values whose ancestors fan out by a fixed branching
factor, which is all those benchmarks need.
The dense comparison points use numpy — which *is* LAPACK-backed — over
the materialised matrix, mirroring the paper's Lapack baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..factorized.cluster_ops import ClusterOps
from ..factorized.drilldown import DrilldownEngine
from ..factorized.factorizer import Factorizer
from ..factorized.forder import AttributeOrder, HierarchyPaths
from ..factorized.matrix import FactorizedMatrix, FeatureColumn
from ..factorized.multiquery import lmfao_plan, shared_plan
from ..factorized.reference import (assert_aggregate_sets_equal,
                                    dict_path_matrix, reference_gram,
                                    reference_left_multiply,
                                    reference_right_multiply,
                                    reference_shared_plan)


def chain_paths(name: str, n_attrs: int, n_leaves: int,
                branching: int | None = None) -> HierarchyPaths:
    """A hierarchy of ``n_attrs`` levels with ``n_leaves`` leaf paths.

    Ancestor values at level ℓ group the leaves into contiguous runs of
    ``branching^(n_attrs−1−ℓ)`` — a balanced tree when branching divides
    evenly; the default branching spreads levels geometrically.
    """
    if branching is None:
        branching = max(2, int(round(n_leaves ** (1.0 / max(n_attrs, 1)))))
    attrs = [f"{name}_a{lvl}" for lvl in range(n_attrs)]
    paths = []
    for leaf in range(n_leaves):
        path = []
        for lvl in range(n_attrs):
            span = branching ** (n_attrs - 1 - lvl)
            path.append(f"{name}{lvl}_{leaf // span:06d}")
        # Guarantee leaf uniqueness regardless of branching arithmetic.
        path[-1] = f"{name}{n_attrs - 1}_{leaf:06d}"
        paths.append(tuple(path))
    return HierarchyPaths(name, attrs, paths)


def flat_hierarchies(n_hierarchies: int, cardinality: int) -> list[HierarchyPaths]:
    """Figure 7/15 structure: d hierarchies of one attribute each."""
    return [chain_paths(f"h{i}", 1, cardinality)
            for i in range(n_hierarchies)]


def deep_hierarchies(n_hierarchies: int, n_attrs: int,
                     cardinality: int) -> list[HierarchyPaths]:
    """Figure 8/9 structure: d hierarchies × t attributes, w leaf values."""
    return [chain_paths(f"h{i}", n_attrs, cardinality)
            for i in range(n_hierarchies)]


def random_feature_matrix(order: AttributeOrder, rng: np.random.Generator,
                          columns_per_attribute: int = 1) -> FactorizedMatrix:
    """Random feature columns per attribute (the benchmark matrices).

    Figure 7 uses ``columns_per_attribute=3`` to match the paper's
    10^d × 3·d matrix shape — three featurizations share one attribute's
    block structure, which is where the factorised operators share work.
    """
    cols = []
    for attr in order.attributes:
        dom = order.ordered_domain(attr)
        for k in range(columns_per_attribute):
            cols.append(FeatureColumn(
                attr, f"f{k}_{attr}",
                {v: float(x)
                 for v, x in zip(dom, rng.standard_normal(len(dom)))}))
    return FactorizedMatrix(order, cols)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------- Figure 7


@dataclass
class MatrixOpTiming:
    """One Figure 7 data point: factorized vs dense per operation."""

    n_hierarchies: int
    n_rows: int
    materialize_dense: float
    materialize_factorized: float
    gram_dense: float
    gram_factorized: float
    left_dense: float
    left_factorized: float
    right_dense: float
    right_factorized: float


def run_matrix_ops(n_hierarchies: int, cardinality: int = 10,
                   seed: int = 0) -> MatrixOpTiming:
    """Figure 7: one sweep point with d single-attribute hierarchies.

    Three feature columns per attribute reproduce the paper's
    10^d × 3·d matrix shape.
    """
    rng = np.random.default_rng(seed)
    order = AttributeOrder(flat_hierarchies(n_hierarchies, cardinality))
    matrix = random_feature_matrix(order, rng, columns_per_attribute=3)
    n, m = matrix.shape

    t_mat_f = _timed(
        lambda: random_feature_matrix(order, rng, columns_per_attribute=3))
    dense_holder = {}

    def materialize():
        dense_holder["x"] = matrix.materialize()

    t_mat_d = _timed(materialize)
    x = dense_holder["x"]

    t_gram_d = _timed(lambda: x.T @ x)
    t_gram_f = _timed(matrix.gram)

    a = rng.normal(size=(1, n))
    t_left_d = _timed(lambda: a @ x)
    t_left_f = _timed(lambda: matrix.left_multiply(a))

    b = rng.normal(size=(m, 1))
    t_right_d = _timed(lambda: x @ b)
    t_right_f = _timed(lambda: matrix.right_multiply(b))

    return MatrixOpTiming(n_hierarchies, n, t_mat_d, t_mat_f, t_gram_d,
                          t_gram_f, t_left_d, t_left_f, t_right_d, t_right_f)


def sweep_matrix_ops(max_hierarchies: int = 5, cardinality: int = 10,
                     seed: int = 0) -> list[MatrixOpTiming]:
    return [run_matrix_ops(d, cardinality, seed)
            for d in range(1, max_hierarchies + 1)]


@dataclass
class OracleOpTiming:
    """Array-native path vs the frozen reference-oracle implementation."""

    op: str
    n_rows: int
    cold_seconds: float    # array path, memo-less first run
    warm_seconds: float    # array path, memoized repeat run
    oracle_seconds: float  # frozen pre-array implementation

    @property
    def speedup(self) -> float:
        return self.oracle_seconds / self.warm_seconds \
            if self.warm_seconds else float("inf")


def run_matrix_oracle(n_hierarchies: int, cardinality: int = 10,
                      seed: int = 0) -> list[OracleOpTiming]:
    """Figure 7 extension: array-native ops vs the frozen oracle.

    For matrix *build*, cold constructs the feature arrays from scratch
    (fresh columns, no memo) and warm rebuilds from memoized columns; the
    oracle is the pre-array per-value loop build (``dict_path_matrix``),
    checked **bitwise** against the array build. For gram / left / right
    multiplication, the oracle is the Appendix E pseudocode
    (``reference_*``), checked with ``np.allclose`` (summation order
    differs); the array result must also match the dict-path build's
    result bitwise.
    """
    rng = np.random.default_rng(seed)
    order = AttributeOrder(flat_hierarchies(n_hierarchies, cardinality))
    matrix = random_feature_matrix(order, rng, columns_per_attribute=3)
    n = order.n_rows
    out: list[OracleOpTiming] = []

    def fresh_columns():
        return [FeatureColumn(c.attribute, c.name, c.mapping, c.default)
                for c in matrix.columns]

    cols = fresh_columns()
    t_build_cold = _timed(lambda: FactorizedMatrix(order, cols))
    t_build_warm = _timed(lambda: FactorizedMatrix(order, matrix.columns))
    clone_holder = {}

    def build_oracle():
        clone_holder["m"] = dict_path_matrix(matrix)

    t_build_oracle = _timed(build_oracle)
    clone = clone_holder["m"]
    for ci in range(matrix.n_cols):
        assert np.array_equal(matrix.domain_features(ci),
                              clone.domain_features(ci))
    for hi in range(len(order.hierarchies)):
        assert np.array_equal(matrix.leaf_features(hi),
                              clone.leaf_features(hi))
    out.append(OracleOpTiming("build", n, t_build_cold, t_build_warm,
                              t_build_oracle))

    a = rng.normal(size=(1, n))
    b = rng.normal(size=(matrix.n_cols, 1))
    cases = [
        ("gram", lambda m: m.gram(), lambda m: reference_gram(m)),
        ("left", lambda m: m.left_multiply(a),
         lambda m: reference_left_multiply(m, a)),
        ("right", lambda m: m.right_multiply(b),
         lambda m: reference_right_multiply(m, b)),
    ]
    for op, array_fn, oracle_fn in cases:
        cold_matrix = FactorizedMatrix(order, fresh_columns())
        t_cold = _timed(lambda: array_fn(cold_matrix))
        got_holder = {}
        t_warm = _timed(lambda: got_holder.setdefault("x", array_fn(matrix)))
        got = got_holder["x"]
        ref_holder = {}
        t_oracle = _timed(
            lambda: ref_holder.setdefault("x", oracle_fn(matrix)))
        # Bitwise vs the dict-path build; allclose vs the pseudocode oracle
        # (the incremental Algorithm 4 reference accumulates rounding over
        # n rows, so the tolerance is absolute-dominated).
        assert np.array_equal(got, array_fn(clone)), op
        assert np.allclose(got, ref_holder["x"], rtol=1e-7, atol=1e-9), op
        out.append(OracleOpTiming(op, n, t_cold, t_warm, t_oracle))
    return out


# ---------------------------------------------------------------- Figure 8


@dataclass
class MultiQueryTiming:
    """One Figure 8 data point: shared plan vs LMFAO-style baseline."""

    cardinality: int
    shared_seconds: float
    lmfao_seconds: float

    @property
    def speedup(self) -> float:
        return self.lmfao_seconds / self.shared_seconds \
            if self.shared_seconds else float("inf")


def run_multiquery(cardinality: int, n_hierarchies: int = 3,
                   n_attrs: int = 3) -> MultiQueryTiming:
    order = AttributeOrder(
        deep_hierarchies(n_hierarchies, n_attrs, cardinality))
    factorizer = Factorizer(order)
    t_shared = _timed(lambda: shared_plan(factorizer))
    t_lmfao = _timed(lambda: lmfao_plan(factorizer))
    return MultiQueryTiming(cardinality, t_shared, t_lmfao)


def sweep_multiquery(cardinalities=(20, 40, 80, 160)) -> list[MultiQueryTiming]:
    return [run_multiquery(w) for w in cardinalities]


def run_multiquery_oracle(n_leaves: int, n_hierarchies: int = 2,
                          n_attrs: int = 3) -> OracleOpTiming:
    """Figure 8 extension: array-native shared plan vs the frozen dict plan.

    Cold runs the first array plan (level encodings built on the fly),
    warm repeats it over the warmed structure; the oracle is
    ``reference_shared_plan`` — the pre-array dict pipeline — and the two
    results are asserted exactly equal in-run (same key sets, bitwise
    counts).
    """
    order = AttributeOrder(
        deep_hierarchies(n_hierarchies, n_attrs, n_leaves))
    factorizer = Factorizer(order)
    got_holder = {}
    t_cold = _timed(
        lambda: got_holder.setdefault("x", shared_plan(factorizer)))
    t_warm = _timed(lambda: shared_plan(factorizer))
    ref_holder = {}
    t_oracle = _timed(
        lambda: ref_holder.setdefault("x", reference_shared_plan(factorizer)))
    assert_aggregate_sets_equal(got_holder["x"], ref_holder["x"])
    return OracleOpTiming("shared_plan", order.n_rows, t_cold, t_warm,
                          t_oracle)


# ---------------------------------------------------------------- Figure 9


@dataclass
class DrilldownTiming:
    """One Figure 9 data point: three invocations under one mode."""

    mode: str
    depth_b: int
    invocation_seconds: list[float]
    unit_computations: int

    @property
    def total(self) -> float:
        return sum(self.invocation_seconds)


def run_drilldown(mode: str, depth_b: int, n_attrs: int = 6,
                  cardinality: int = 200,
                  n_invocations: int = 3, **engine_kwargs) -> DrilldownTiming:
    """Figure 9: drill A n_invocations times with B pre-drilled to depth_b.

    Hierarchy A starts at depth 3 (as in §5.1.3); the engine evaluates all
    candidates per invocation, then commits A. ``engine_kwargs`` pass
    through to :class:`DrilldownEngine` — the oracle benchmark swaps in the
    frozen dict ``builder``/``combiner`` pair.
    """
    paths = deep_hierarchies(2, n_attrs, cardinality)
    a, b = paths[0], paths[1]
    engine = DrilldownEngine([a, b],
                             initial_depths={a.name: 3, b.name: depth_b},
                             mode=mode, **engine_kwargs)
    times = []
    for _ in range(n_invocations):
        times.append(_timed(engine.evaluate_all))
        engine.drill(a.name)
    return DrilldownTiming(mode, depth_b, times, engine.unit_computations)


# ---------------------------------------------------------------- Figure 15


@dataclass
class ClusterOpTiming:
    """One Figure 15 data point: per-cluster ops factorized vs dense loop."""

    n_hierarchies: int
    n_rows: int
    n_clusters: int
    gram_dense: float
    gram_factorized: float
    left_dense: float
    left_factorized: float
    right_dense: float
    right_factorized: float


def run_cluster_ops(n_hierarchies: int, n_attrs: int = 3,
                    cardinality: int = 10, seed: int = 0) -> ClusterOpTiming:
    """Figure 15: per-cluster gram / left / right multiplication."""
    rng = np.random.default_rng(seed)
    order = AttributeOrder(
        deep_hierarchies(n_hierarchies, n_attrs, cardinality))
    matrix = random_feature_matrix(order, rng)
    ops = ClusterOps(matrix)
    x = matrix.materialize()
    offsets = ops.offsets
    n_clusters = ops.n_clusters
    m = matrix.n_cols

    def dense_grams():
        return [x[offsets[i]:offsets[i + 1]].T @ x[offsets[i]:offsets[i + 1]]
                for i in range(n_clusters)]

    t_gram_d = _timed(dense_grams)
    t_gram_f = _timed(ops.cluster_grams)

    v = rng.normal(size=order.n_rows)

    def dense_left():
        return [x[offsets[i]:offsets[i + 1]].T @ v[offsets[i]:offsets[i + 1]]
                for i in range(n_clusters)]

    t_left_d = _timed(dense_left)
    t_left_f = _timed(lambda: ops.cluster_left(v))

    b = rng.normal(size=(n_clusters, m))

    def dense_right():
        return [x[offsets[i]:offsets[i + 1]] @ b[i]
                for i in range(n_clusters)]

    t_right_d = _timed(dense_right)
    t_right_f = _timed(lambda: ops.cluster_right(b))

    return ClusterOpTiming(n_hierarchies, order.n_rows, n_clusters, t_gram_d,
                           t_gram_f, t_left_d, t_left_f, t_right_d, t_right_f)


def sweep_cluster_ops(max_hierarchies: int = 4, **kw) -> list[ClusterOpTiming]:
    return [run_cluster_ops(d, **kw) for d in range(1, max_hierarchies + 1)]
