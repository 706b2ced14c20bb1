"""Distributive aggregation functions and their merge function ``G``.

Reptile (§3.1, Appendix A) requires that the complained aggregate be a
*distributive set* of functions: given a partition of ``R`` into subsets
``R_1..R_J``, there must exist ``G`` with ``F(R) = G(F(R_1), ..., F(R_J))``.

We represent each group's aggregate by a compact sufficient-statistics state
``(count, sum, sumsq)`` from which COUNT, SUM, MEAN, STD (and VAR) are all
derived. Merging states implements ``G`` exactly as spelled out in
Appendix A:

* ``G_count = Σ count_j``
* ``G_mean  = Σ count_j · mean_j / Σ count_j``
* ``G_std`` via the pooled-variance identity.

The engine uses these states everywhere: the roll-up cube, complaint
evaluation, and the "repair one group then recompute the parent" step of
Problem 1 (eq. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Names of the base statistics every AggState exposes.
BASE_STATISTICS = ("count", "sum", "mean", "std", "var")

#: Aggregates that are composites of base statistics (footnote 3: e.g.
#: SUM = MEAN × COUNT). Maps name -> the base statistics it decomposes into.
COMPOSITE_STATISTICS: dict[str, tuple[str, ...]] = {
    "count": ("count",),
    "sum": ("mean", "count"),
    "mean": ("mean",),
    "std": ("std",),
    "var": ("std",),
}


class AggregateError(ValueError):
    """Raised for unknown statistics or invalid aggregate states."""


@dataclass(frozen=True)
class AggState:
    """Sufficient statistics of one group: ``(count, sum, sumsq)``.

    All distributive statistics used in the paper are derived from these
    three numbers. States are immutable; updates create new states.
    """

    count: float = 0.0
    total: float = 0.0
    sumsq: float = 0.0

    # -- constructors -----------------------------------------------------------
    @classmethod
    def of(cls, values: Sequence[float] | np.ndarray) -> "AggState":
        """State of a leaf group holding ``values``."""
        arr = np.asarray(values, dtype=float)
        return cls(float(arr.size), float(arr.sum()),
                   float(np.square(arr).sum()))

    @classmethod
    def from_stats(cls, count: float, mean: float, std: float = 0.0) -> "AggState":
        """Build a state from (count, mean, std) — the inverse of summaries.

        Uses the population-style identity ``sumsq = count·(std² + mean²)``
        adjusted for the sample std convention used by :meth:`std`.
        """
        count = float(count)
        total = count * float(mean)
        if count > 1:
            sumsq = (count - 1) * float(std) ** 2 + count * float(mean) ** 2
        else:
            sumsq = count * float(mean) ** 2
        return cls(count, total, sumsq)

    # -- derived statistics -------------------------------------------------------
    @property
    def sum(self) -> float:
        return self.total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def var(self) -> float:
        """Sample variance (ddof=1); 0 for groups of size ≤ 1."""
        if self.count <= 1:
            return 0.0
        v = (self.sumsq - self.total * self.total / self.count) / (self.count - 1)
        return max(v, 0.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.var)

    def statistic(self, name: str) -> float:
        """Value of the named statistic (one of :data:`BASE_STATISTICS`)."""
        if name not in BASE_STATISTICS:
            raise AggregateError(f"unknown statistic {name!r}")
        return float(getattr(self, name))

    def is_empty(self) -> bool:
        return self.count == 0

    # -- algebra (this is G) ------------------------------------------------------
    def merge(self, other: "AggState") -> "AggState":
        """``G`` applied to two partial states (associative, commutative)."""
        return AggState(self.count + other.count,
                        self.total + other.total,
                        self.sumsq + other.sumsq)

    def __add__(self, other: "AggState") -> "AggState":
        return self.merge(other)

    def remove(self, other: "AggState") -> "AggState":
        """Inverse merge: subtract a child state from an aggregate state.

        Used by the deletion-based Sensitivity baseline and by the ranker's
        incremental "replace one group" update.
        """
        return AggState(self.count - other.count,
                        self.total - other.total,
                        self.sumsq - other.sumsq)

    def replace(self, old: "AggState", new: "AggState") -> "AggState":
        """State after swapping child ``old`` for ``new`` (eq. 3 of Problem 1)."""
        return self.remove(old).merge(new)

    # -- repairs ------------------------------------------------------------------
    def with_statistic(self, name: str, value: float) -> "AggState":
        """A repaired copy with one statistic set to ``value``.

        * ``count``: rescale count, keeping mean and std.
        * ``mean``:  shift values, keeping count and std.
        * ``sum``:   adjust mean, keeping count and std.
        * ``std``/``var``: rescale spread around the mean.
        """
        if name == "count":
            return AggState.from_stats(max(value, 0.0), self.mean, self.std)
        if name == "mean":
            return AggState.from_stats(self.count, value, self.std)
        if name == "sum":
            mean = value / self.count if self.count else 0.0
            return AggState.from_stats(self.count, mean, self.std)
        if name == "std":
            return AggState.from_stats(self.count, self.mean, max(value, 0.0))
        if name == "var":
            return AggState.from_stats(self.count, self.mean,
                                       math.sqrt(max(value, 0.0)))
        raise AggregateError(f"unknown statistic {name!r}")


class GroupStats:
    """Sufficient statistics of *many* groups, struct-of-arrays.

    The columnar counterpart of a ``{key: AggState}`` map: three aligned
    float arrays (``count``, ``total``, ``sumsq``) indexed by group id.
    Leaf-cube construction fills one with three ``np.bincount`` calls and
    a roll-up to a coarser level is three more — ``G`` applied to whole
    levels at once. :meth:`state` exposes one group as an ordinary
    :class:`AggState`, which is how the public Mapping views keep the old
    object-per-group API alive on top of this layout.
    """

    __slots__ = ("count", "total", "sumsq")

    def __init__(self, count: np.ndarray, total: np.ndarray,
                 sumsq: np.ndarray):
        self.count = count
        self.total = total
        self.sumsq = sumsq

    @classmethod
    def from_groups(cls, gids: np.ndarray, n_groups: int,
                    values: np.ndarray) -> "GroupStats":
        """Leaf states of ``n_groups`` groups: one bincount per statistic."""
        values = np.asarray(values, dtype=float)
        return cls(
            np.bincount(gids, minlength=n_groups).astype(float),
            np.bincount(gids, weights=values, minlength=n_groups),
            np.bincount(gids, weights=values * values, minlength=n_groups))

    def __len__(self) -> int:
        return len(self.count)

    def state(self, i: int) -> AggState:
        """Group ``i`` as an :class:`AggState` (a cheap scalar view)."""
        return AggState(float(self.count[i]), float(self.total[i]),
                        float(self.sumsq[i]))

    def select(self, indices: np.ndarray) -> "GroupStats":
        """Row subset (boolean mask or index array)."""
        return GroupStats(self.count[indices], self.total[indices],
                          self.sumsq[indices])

    def merge_by(self, gids: np.ndarray, n_groups: int) -> "GroupStats":
        """``G`` over groups-of-groups: gids maps each row to its parent."""
        return GroupStats(
            np.bincount(gids, weights=self.count, minlength=n_groups),
            np.bincount(gids, weights=self.total, minlength=n_groups),
            np.bincount(gids, weights=self.sumsq, minlength=n_groups))

    def total_state(self) -> AggState:
        """``G`` over every group — the parent aggregate."""
        return AggState(float(self.count.sum()), float(self.total.sum()),
                        float(self.sumsq.sum()))

    def sequential_total(self) -> AggState:
        """``G`` over every group, accumulated left to right.

        Bitwise-identical to ``merge_states(states)`` over the same groups
        in order (``np.cumsum`` adds sequentially; ``np.sum`` pairs), which
        is what the array ranker needs to reproduce the dict path exactly.
        """
        if not len(self.count):
            return AggState()
        return AggState(float(np.cumsum(self.count)[-1]),
                        float(np.cumsum(self.total)[-1]),
                        float(np.cumsum(self.sumsq)[-1]))

    def statistic_array(self, name: str) -> np.ndarray:
        """Per-group values of one base statistic, vectorized.

        Element ``i`` is bitwise-equal to ``self.state(i).statistic(name)``.
        """
        if name == "count":
            return self.count
        if name == "sum":
            return self.total
        if name == "mean":
            return mean_array(self.count, self.total)
        if name == "var":
            return var_array(self.count, self.total, self.sumsq)
        if name == "std":
            return np.sqrt(var_array(self.count, self.total, self.sumsq))
        raise AggregateError(f"unknown statistic {name!r}")

    def __repr__(self) -> str:
        return f"GroupStats(n={len(self)})"


# -- array kernels (the vectorized counterparts of AggState) -------------------
#
# Every function here is an elementwise transliteration of the scalar
# AggState method of the same name. The array ranker relies on them being
# *bitwise* identical per element: each IEEE operation appears in the same
# order as the scalar code, squares go through ``np.float_power`` (C pow,
# matching Python's ``**``; numpy's ``arr ** 2`` lowers to a multiply that
# can differ in the last ulp), and guarded divisions reproduce the
# ``if count`` fallbacks with masked ``np.divide``.


def mean_array(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Vectorized :attr:`AggState.mean` (0 where the count is 0)."""
    return np.divide(total, count, out=np.zeros_like(total),
                     where=count != 0)


def var_array(count: np.ndarray, total: np.ndarray,
              sumsq: np.ndarray) -> np.ndarray:
    """Vectorized :attr:`AggState.var` (sample variance, 0 for n ≤ 1)."""
    big = count > 1
    safe = np.where(big, count, 1.0)
    v = (sumsq - total * total / safe) / np.where(big, count - 1, 1.0)
    return np.where(big, np.maximum(v, 0.0), 0.0)


def from_stats_arrays(count: np.ndarray, mean: np.ndarray, std: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`AggState.from_stats`: ``(count, total, sumsq)``."""
    count = np.asarray(count, dtype=float)
    total = count * mean
    sq_mean = np.float_power(mean, 2)
    sumsq = np.where(count > 1,
                     (count - 1) * np.float_power(std, 2) + count * sq_mean,
                     count * sq_mean)
    return count, total, sumsq


def with_statistic_arrays(count: np.ndarray, total: np.ndarray,
                          sumsq: np.ndarray, name: str, values: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`AggState.with_statistic` over whole levels.

    The fused-kernel tier carries a bitwise-synced variant of this chain
    (``kernels.numpy_fused._with_statistic_lean`` skips the dead
    mean/std preamble per branch) — a change to any branch here must
    land in both, or the kernel property suite's fused-vs-plain equality
    gate will fail.
    """
    mean = mean_array(count, total)
    std = np.sqrt(var_array(count, total, sumsq))
    if name == "count":
        return from_stats_arrays(np.maximum(values, 0.0), mean, std)
    if name == "mean":
        return from_stats_arrays(count, values, std)
    if name == "sum":
        new_mean = np.divide(values, count, out=np.zeros_like(total),
                             where=count != 0)
        return from_stats_arrays(count, new_mean, std)
    if name == "std":
        return from_stats_arrays(count, mean, np.maximum(values, 0.0))
    if name == "var":
        return from_stats_arrays(count, mean,
                                 np.sqrt(np.maximum(values, 0.0)))
    raise AggregateError(f"unknown statistic {name!r}")


def evaluate_composite_arrays(statistic: str, count: np.ndarray,
                              total: np.ndarray, sumsq: np.ndarray
                              ) -> np.ndarray:
    """Vectorized :func:`evaluate_composite` over ``(count, total, sumsq)``."""
    decompose(statistic)  # validates the name
    if statistic == "count":
        return count
    if statistic == "sum":
        return total
    if statistic == "mean":
        return mean_array(count, total)
    if statistic == "var":
        return var_array(count, total, sumsq)
    if statistic == "std":
        return np.sqrt(var_array(count, total, sumsq))
    raise AggregateError(f"unknown composite statistic {statistic!r}")


def merge_states(states: Iterable[AggState]) -> AggState:
    """``G`` over an arbitrary collection of partial states."""
    out = AggState()
    for s in states:
        out = out.merge(s)
    return out


def decompose(statistic: str) -> tuple[str, ...]:
    """Base statistics a (possibly composite) aggregate decomposes into.

    Footnote 4: when the complaint's aggregate is composite (e.g. SUM),
    Reptile fits one model per base statistic.
    """
    try:
        return COMPOSITE_STATISTICS[statistic]
    except KeyError:
        raise AggregateError(f"unknown statistic {statistic!r}") from None


def evaluate_composite(statistic: str, state: AggState) -> float:
    """Value of a possibly-composite statistic on a state."""
    decompose(statistic)  # validates the name
    return state.statistic(statistic)
