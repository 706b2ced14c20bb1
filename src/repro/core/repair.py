"""Model-based repair functions ``f_repair`` (§3.2, Problem 1).

A repair function maps a drill-down group to its *expected* aggregate
statistics. Reptile's default fits one model per base statistic over the
parallel groups (§3.2) and predicts every group's expectation; repairing a
group replaces the chosen statistics of its :class:`AggState` with the
predictions, after which the parent aggregate is recomputed through ``G``
(eq. 3).

Which statistics a repair touches depends on the complaint's aggregate
(footnote 4: composites are decomposed and modelled separately):

========== ======================
complaint  repaired statistics
========== ======================
count      count
mean       mean
sum        count, mean
std / var  mean, std
========== ======================

:class:`RepairPrediction` is array-native: the predictions live in one
``(n_groups, n_statistics)`` matrix indexed by group id, with the group
keys alongside. The ``{key: {statistic: value}}`` mapping remains
available (``predicted``/:meth:`~RepairPrediction.expected`) as a view
of the matrix, in ``statistics`` order. A prediction may still be
*constructed* from such a mapping (custom repair functions do): the
constructor encodes it into the matrix once, so the ranker only ever
reads arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..relational.aggregates import AggState
from ..relational.cube import GroupView
from ..model.features import FeaturePlan, ViewDesign, build_view_designs
from ..model.linear import LinearModel
from ..model.multilevel import MultilevelModel

logger = logging.getLogger(__name__)

#: Default statistics each complaint aggregate repairs.
REPAIR_STATISTICS: dict[str, tuple[str, ...]] = {
    "count": ("count",),
    "sum": ("count", "mean"),
    "mean": ("mean",),
    "std": ("mean", "std"),
    "var": ("mean", "std"),
}

#: Statistics whose repaired values cannot be negative.
NON_NEGATIVE = {"count", "std", "var"}


class RepairAlignmentError(KeyError):
    """A repair was requested for a group the prediction does not cover."""


class RepairPrediction:
    """Expected statistics for every group of a drill-down level.

    Parameters
    ----------
    statistics:
        The modelled statistics, in repair-application order.
    predicted:
        Mapping form ``{key: {statistic: value}}``, encoded into
        ``matrix`` and its presence ``mask`` on construction. Every
        statistic it names must be one of ``statistics`` (else
        :class:`ValueError`); :meth:`expected` and :meth:`repair_state`
        then report and apply them in ``statistics`` order, whatever the
        order of the per-key dict. Mutually exclusive with
        ``keys``/``matrix``.
    keys:
        Group keys, aligned with the matrix rows (array form).
    matrix:
        ``(len(keys), len(statistics))`` prediction matrix; column ``j``
        holds the predictions for ``statistics[j]``.
    strict:
        When True, asking for a group the prediction does not cover raises
        :class:`RepairAlignmentError` instead of silently treating the
        repair as a no-op; when False the miss is logged once. The model
        repairer predicts every parallel group, so a miss on the drill
        path always indicates a key-alignment bug.
    """

    __slots__ = ("statistics", "keys", "matrix", "mask", "strict",
                 "_row_of", "_warned")

    def __init__(self, statistics: tuple[str, ...],
                 predicted: Mapping[tuple, Mapping[str, float]] | None = None,
                 *, keys: list[tuple] | None = None,
                 matrix: np.ndarray | None = None,
                 mask: np.ndarray | None = None,
                 strict: bool = False):
        self.statistics = tuple(statistics)
        self.strict = strict
        self._row_of: dict[tuple, int] | None = None
        self._warned = False
        if predicted is not None:
            if keys is not None or matrix is not None:
                raise ValueError("pass either a mapping or keys+matrix, "
                                 "not both")
            rows = {tuple(k): v for k, v in predicted.items()}
            self.keys = list(rows)
            n, s = len(self.keys), len(self.statistics)
            self.matrix = np.full((n, s), np.nan)
            self.mask = np.zeros((n, s), dtype=bool)
            for i, (key, per_key) in enumerate(rows.items()):
                unknown = [stat for stat in per_key
                           if stat not in self.statistics]
                if unknown:
                    raise ValueError(
                        f"prediction for group {key!r} names statistic "
                        f"{unknown[0]!r}, which is not one of "
                        f"{self.statistics}")
                for j, stat in enumerate(self.statistics):
                    if stat in per_key:
                        self.matrix[i, j] = float(per_key[stat])
                        self.mask[i, j] = True
        else:
            if keys is None or matrix is None:
                raise ValueError("array form needs both keys and matrix")
            self.keys = list(keys)
            self.matrix = np.asarray(matrix, dtype=float)
            if self.matrix.shape != (len(self.keys), len(self.statistics)):
                raise ValueError(
                    f"prediction matrix has shape {self.matrix.shape}, "
                    f"expected ({len(self.keys)}, {len(self.statistics)})")
            self.mask = np.ones(self.matrix.shape, dtype=bool) \
                if mask is None else np.asarray(mask, dtype=bool)

    @classmethod
    def from_arrays(cls, statistics: Sequence[str], keys: list[tuple],
                    matrix: np.ndarray, strict: bool = True
                    ) -> "RepairPrediction":
        """Array-native constructor (alignment asserted, strict default)."""
        return cls(tuple(statistics), keys=keys, matrix=matrix,
                   strict=strict)

    # -- mapping-compatible access ----------------------------------------------
    @property
    def predicted(self) -> dict[tuple, dict[str, float]]:
        """The ``{key: {statistic: value}}`` view (materialized)."""
        return {key: self.expected(key) for key in self.keys}

    def row_of(self) -> dict[tuple, int]:
        if self._row_of is None:
            self._row_of = {k: i for i, k in enumerate(self.keys)}
        return self._row_of

    def _miss(self, key: tuple) -> dict:
        if self.strict:
            raise RepairAlignmentError(
                f"no prediction for group {key!r}: the repair would be a "
                f"silent no-op (prediction covers {len(self.keys)} groups)")
        if not self._warned:
            self._warned = True
            logger.warning(
                "repair prediction has no entry for group %r; treating the "
                "repair as a no-op (further misses not logged)", key)
        return {}

    def expected(self, key: tuple) -> dict[str, float]:
        """The group's predicted statistics, in ``statistics`` order."""
        key = tuple(key)
        row = self.row_of().get(key)
        if row is None:
            return self._miss(key)
        return {stat: float(self.matrix[row, j])
                for j, stat in enumerate(self.statistics)
                if self.mask[row, j]}

    def repair_state(self, key: tuple, state: AggState) -> AggState:
        """``f_repair``: the group's state with statistics replaced."""
        out = state
        for stat, value in self.expected(key).items():
            out = out.with_statistic(stat, value)
        return out

    # -- array access (the ranker's fast path) ----------------------------------
    def array_form(self, keys: Sequence[tuple]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Prediction rows aligned to ``keys``: ``(values, valid)``.

        ``values`` is ``(len(keys), n_statistics)`` with the prediction
        for each requested group (0 where absent) and ``valid`` the
        matching presence mask; the ranker applies the columns in
        ``statistics`` order, as :meth:`repair_state` does. A strict
        prediction raises :class:`RepairAlignmentError` for a key it
        does not cover.
        """
        row_of = self.row_of()
        idx = np.asarray([row_of.get(tuple(k), -1) for k in keys],
                         dtype=np.int64)
        present = idx >= 0
        if self.strict and not present.all():
            missing = [k for k, ok in zip(keys, present) if not ok]
            raise RepairAlignmentError(
                f"no prediction for {len(missing)} group(s), e.g. "
                f"{missing[0]!r}")
        if not len(self.keys):
            # Nothing predicted: every repair is a no-op (there is no row
            # 0 to even gather from).
            shape = (len(idx), len(self.statistics))
            return np.zeros(shape), np.zeros(shape, dtype=bool)
        safe = np.where(present, idx, 0)
        values = np.where(present[:, None], self.matrix[safe], 0.0)
        valid = self.mask[safe] & present[:, None]
        values = np.where(valid, values, 0.0)
        return values, valid

    def __repr__(self) -> str:
        return (f"RepairPrediction(statistics={self.statistics}, "
                f"n_groups={len(self.keys)})")


@dataclass
class ModelRepairer:
    """The default, model-backed repair function.

    Parameters
    ----------
    feature_plan:
        Featurization; default is main effects of every view attribute
        (auxiliary features are appended by the session).
    model:
        "multilevel" (default) or "linear" — the ablation knob of §5.2.
    n_iterations:
        EM iterations for the multi-level model.
    statistics:
        Override of the statistic set to model/repair.
    """

    feature_plan: FeaturePlan = field(default_factory=FeaturePlan)
    model: str = "multilevel"
    n_iterations: int = 20
    statistics: tuple[str, ...] | None = None

    def statistics_for(self, aggregate: str) -> tuple[str, ...]:
        if self.statistics is not None:
            return self.statistics
        return REPAIR_STATISTICS[aggregate]

    def predict(self, parallel: GroupView, cluster_attrs: Sequence[str],
                aggregate: str) -> RepairPrediction:
        """Fit one model per statistic over the parallel groups (§3.2).

        The statistics' designs share one structural pass (cluster sort,
        run lengths, key index); statistics whose design matrices come out
        identical additionally share one data factorization through
        ``fit_predict_many``. The result is an array-backed strict
        prediction: one matrix column per statistic, rows aligned with
        the design's group keys.
        """
        if self.model not in ("linear", "multilevel"):
            raise ValueError(f"unknown model kind {self.model!r}")
        stats = self.statistics_for(aggregate)
        designs = build_view_designs(parallel, stats, self.feature_plan,
                                     cluster_attrs)
        matrix = np.empty((len(designs[0].keys), len(stats)))
        for bucket in self._design_buckets(designs):
            fitted = self._fit_bucket(designs[bucket[0]],
                                      [designs[j].y for j in bucket])
            for j, values in zip(bucket, fitted):
                if stats[j] in NON_NEGATIVE:
                    values = np.maximum(values, 0.0)
                matrix[:, j] = values
        return RepairPrediction.from_arrays(stats, designs[0].keys, matrix)

    @staticmethod
    def _design_buckets(designs: list[ViewDesign]) -> list[list[int]]:
        """Group statistic indices whose design matrices are identical."""
        buckets: list[list[int]] = []
        for j, vd in enumerate(designs):
            for bucket in buckets:
                lead = designs[bucket[0]].design
                if lead.z_columns == vd.design.z_columns \
                        and np.array_equal(lead.x, vd.design.x):
                    bucket.append(j)
                    break
            else:
                buckets.append([j])
        return buckets

    def _fit_bucket(self, vd: ViewDesign, ys: list[np.ndarray]
                    ) -> list[np.ndarray]:
        if self.model == "linear":
            return LinearModel().fit_predict_many(vd.design, ys)
        return MultilevelModel(
            n_iterations=self.n_iterations).fit_predict_many(vd.design, ys)


@dataclass
class CustomRepairer:
    """A user-provided repair function (Problem 1 allows any ``f_repair``).

    ``fn(key, state) -> {statistic: expected value}``.
    """

    fn: object
    statistics: tuple[str, ...] = ("mean",)

    def statistics_for(self, aggregate: str) -> tuple[str, ...]:
        return self.statistics

    def predict(self, parallel: GroupView, cluster_attrs: Sequence[str],
                aggregate: str) -> RepairPrediction:
        predicted = {key: dict(self.fn(key, state))
                     for key, state in parallel.groups.items()}
        return RepairPrediction(self.statistics, predicted)
