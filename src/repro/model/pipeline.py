"""The factorised model-training pipeline (§4.5 "Putting It All Together").

Glue between the data layer and the factorised backend: build the
feature-mapped :class:`FactorizedMatrix` for a drill-down level, align the
target statistic of the observed groups with the matrix's row order
(absent parallel groups default to 0, the worst-case setting of §5.1.4),
and train either backend. This is the code path the end-to-end runtime
experiment (Figure 10) measures.

:class:`FactorizedDesign` is evaluation code: the served system fits
only :class:`~repro.model.backends.DenseDesign`, whose EM
``repro.model.emref`` freezes bitwise, and no served module imports
this one.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..factorized.cluster_ops import ClusterOps
from ..factorized.factorizer import Factorizer
from ..factorized.forder import AttributeOrder
from ..factorized.matrix import FactorizedMatrix, FeatureColumn
from ..relational.cube import GroupView
from .backends import DenseDesign
from .multilevel import MultilevelFit, MultilevelModel


class FactorizedDesign:
    """Design over a :class:`FactorizedMatrix`; X is never materialised."""

    def __init__(self, matrix: FactorizedMatrix,
                 z_columns: Sequence[int] | None = None):
        self.matrix = matrix
        self.z_columns = list(range(matrix.n_cols)) if z_columns is None \
            else list(z_columns)
        self._cluster_ops = ClusterOps(matrix, self.z_columns)
        self.offsets = self._cluster_ops.offsets
        self._gram_cache: np.ndarray | None = None
        self._cluster_gram_cache: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def m(self) -> int:
        return self.matrix.n_cols

    @property
    def r(self) -> int:
        return len(self.z_columns)

    @property
    def n_clusters(self) -> int:
        return self._cluster_ops.n_clusters

    def gram(self) -> np.ndarray:
        # The EM loop asks repeatedly; XᵀX is data-only, so cache it
        # (the "precompute XᵀX and Z_iᵀZ_i" note of Appendix D).
        if self._gram_cache is None:
            self._gram_cache = self.matrix.gram()
        return self._gram_cache

    def xt_v(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.left_multiply(np.asarray(v)[None, :])[0]

    def x_beta(self, beta: np.ndarray) -> np.ndarray:
        return self.matrix.right_multiply(np.asarray(beta))

    def cluster_grams(self) -> np.ndarray:
        if self._cluster_gram_cache is None:
            self._cluster_gram_cache = self._cluster_ops.cluster_grams()
        return self._cluster_gram_cache

    def cluster_zt_v(self, v: np.ndarray) -> np.ndarray:
        return self._cluster_ops.cluster_left(v)

    def z_b(self, b: np.ndarray) -> np.ndarray:
        return self._cluster_ops.cluster_right(b)

    def cluster_sizes(self) -> np.ndarray:
        return self._cluster_ops.cluster_sizes().astype(float)

    def cluster_sq_norms(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.add.reduceat(v * v, self.offsets[:-1])


def feature_columns_from_view(order: AttributeOrder, view: GroupView,
                              target: str, min_groups: int = 1,
                              include_intercept: bool = True
                              ) -> list[FeatureColumn]:
    """Main-effect feature columns (§3.3.1) as factorised value maps.

    One column per attribute in the order, mapping each value to the
    median target statistic of the observed groups carrying it, plus an
    intercept column. ``min_groups`` applies the same leak guard as the
    dense featurizer (use 2 for accuracy work; 1 reproduces the raw
    featurization for performance runs).
    """
    all_stats = [s.statistic(target) for s in view.groups.values()]
    overall = statistics.median(all_stats) if all_stats else 0.0
    columns: list[FeatureColumn] = []
    if include_intercept:
        # Constant column: empty mapping + default=1.0 (O(1) memory).
        columns.append(FeatureColumn(
            order.attributes[0], "intercept", {}, default=1.0))
    for attr in order.attributes:
        pos = view.group_attrs.index(attr)
        per_value: dict = {}
        for key, state in view.groups.items():
            per_value.setdefault(key[pos], []).append(state.statistic(target))
        mapping = {}
        for v in order.ordered_domain(attr):
            vals = per_value.get(v, [])
            mapping[v] = statistics.median(vals) if len(vals) >= min_groups \
                else overall
        columns.append(FeatureColumn(attr, f"main:{attr}", mapping,
                                     default=overall))
    return columns


def y_vector(order: AttributeOrder, view: GroupView, statistic: str,
             default: float = 0.0) -> np.ndarray:
    """Target statistic aligned with the matrix's row order.

    Every matrix row is a (possibly empty) parallel group; groups absent
    from the data take ``default`` — the §5.1.4 worst case where the
    training set includes the full cross product.
    """
    positions = [view.group_attrs.index(a) for a in order.attributes]
    y = np.full(order.n_rows, float(default))
    for key, state in view.groups.items():
        matrix_key = tuple(key[p] for p in positions)
        y[order.row_index(matrix_key)] = state.statistic(statistic)
    return y


@dataclass
class TrainedLevel:
    """One drill-down level's matrix, targets, and fitted model."""

    order: AttributeOrder
    matrix: FactorizedMatrix
    y: np.ndarray
    fit: MultilevelFit
    design: object

    def predictions(self) -> np.ndarray:
        return MultilevelModel.predict(self.design, self.fit)


def _resolve_inputs(order, view, statistic, columns, y):
    cols = list(columns) if columns is not None else \
        feature_columns_from_view(order, view, statistic)
    if y is None:
        y = y_vector(order, view, statistic)
    return cols, y


def train_factorized(order: AttributeOrder, view: GroupView, statistic: str,
                     n_iterations: int = 20,
                     columns: Sequence[FeatureColumn] | None = None,
                     y: np.ndarray | None = None) -> TrainedLevel:
    """Train over the f-representation (never materialises X)."""
    cols, y = _resolve_inputs(order, view, statistic, columns, y)
    matrix = FactorizedMatrix(order, cols)
    design = FactorizedDesign(matrix)
    fit = MultilevelModel(n_iterations=n_iterations).fit(design, y)
    return TrainedLevel(order, matrix, y, fit, design)


def train_dense(order: AttributeOrder, view: GroupView, statistic: str,
                n_iterations: int = 20,
                columns: Sequence[FeatureColumn] | None = None,
                y: np.ndarray | None = None) -> TrainedLevel:
    """Vectorized dense baseline: materialise X, train with batched numpy.

    Stronger than the paper's Matlab baseline (see :func:`train_matlab`);
    reported as an extra ablation point.
    """
    cols, y = _resolve_inputs(order, view, statistic, columns, y)
    matrix = FactorizedMatrix(order, cols)
    x = matrix.materialize()
    sizes = Factorizer(order).cluster_sizes().astype(int)
    design = DenseDesign(x, sizes)
    fit = MultilevelModel(n_iterations=n_iterations).fit(design, y)
    return TrainedLevel(order, matrix, y, fit, design)


def train_matlab(order: AttributeOrder, view: GroupView, statistic: str,
                 n_iterations: int = 20,
                 columns: Sequence[FeatureColumn] | None = None,
                 y: np.ndarray | None = None) -> TrainedLevel:
    """The paper's Matlab/Lapack baseline (§5.1.4): materialised matrix,
    interpreted per-cluster EM loop."""
    from .matlab_style import MatlabStyleEM
    cols, y = _resolve_inputs(order, view, statistic, columns, y)
    matrix = FactorizedMatrix(order, cols)
    x = matrix.materialize()
    sizes = Factorizer(order).cluster_sizes().astype(int)
    fit = MatlabStyleEM(n_iterations=n_iterations).fit(x, y, sizes)
    design = DenseDesign(x, sizes)
    return TrainedLevel(order, matrix, y, fit, design)
