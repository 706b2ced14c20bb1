"""Ranking drill-down groups by complaint resolution (Problem 1).

For a candidate hierarchy H with next attribute A, the ranker:

1. computes the drill-down view ``V' = drilldown(V, t_c, H)`` (the
   complaint tuple's provenance grouped one level deeper),
2. obtains expected statistics for every group from the repair function
   (fitted over all *parallel groups*, §3.2),
3. for each group ``t ∈ V'`` forms ``t'_c = G(V' ∖ {t} ∪ {f_repair(t)})``
   (eq. 3) and scores it by ``f_comp(t'_c)``,
4. returns groups ranked ascending by score (ties broken toward larger
   repairs), along with the *margin gain* — how much the penalty improved
   versus not repairing anything (the quantity mapped in Figure 18).

:func:`rank_candidates` runs this for every hierarchy that can still be
drilled and picks ``(H*, t*)`` of eq. 1.

The scoring sweep is array-native: the drill-down view's
:class:`~repro.relational.aggregates.GroupStats` arrays and the repair
prediction's matrix are combined through the fused-kernel tier
(``kernels.rank1_sweep`` — the "replace one group" parent update of
eq. 3 is a rank-1 adjustment on the ``(count, sum, sumsq)`` arrays,
identical bitwise in the fused and plain tiers) — then one
``np.lexsort`` ranks every candidate and :class:`ScoredGroup` records
are materialized only for the returned top-k. Results are exactly equal
(same keys, same scores, same ordering) to the frozen group-at-a-time
reference in :mod:`repro.core.rankref`, which the property tests
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .. import kernels
from ..relational.aggregates import AggState
from ..relational.cube import Cube, GroupView
from .complaint import Complaint
from .repair import ModelRepairer, RepairPrediction

#: Instrumentation: how many scoring sweeps ran vectorized vs through the
#: group-at-a-time loop, which runs only when a NaN prediction poisons a
#: score. The serving layer surfaces these in its stats endpoint.
RANKER_STATS = {"array": 0, "fallback": 0}


# The three result records are immutable all the way down (frozen
# records, tuples, read-only mappings): the serving layer memoizes whole
# recommendations and hands one object to every caller that asks the
# same question, so no caller may change another caller's answer.
@dataclass(frozen=True)
class ScoredGroup:
    """One drill-down group with its repair outcome."""

    key: tuple
    coordinates: Mapping
    score: float              # f_comp after repairing this group
    margin_gain: float        # base penalty − score (bigger = better)
    observed: Mapping         # observed base statistics
    expected: Mapping         # model-expected statistics
    repaired_value: float     # parent aggregate after the repair

    def __post_init__(self):
        for name in ("coordinates", "observed", "expected"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name))))


@dataclass(frozen=True)
class DrilldownRecommendation:
    """Ranked groups for one candidate hierarchy."""

    hierarchy: str
    attribute: str
    base_penalty: float       # f_comp with no repair
    groups: tuple[ScoredGroup, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def best(self) -> ScoredGroup | None:
        return self.groups[0] if self.groups else None

    def top(self, k: int) -> tuple[ScoredGroup, ...]:
        return self.groups[:k]


@dataclass(frozen=True)
class Recommendation:
    """Result of one Reptile invocation across all candidate hierarchies."""

    complaint: Complaint
    per_hierarchy: Mapping[str, DrilldownRecommendation]

    def __post_init__(self):
        object.__setattr__(self, "per_hierarchy",
                           MappingProxyType(dict(self.per_hierarchy)))

    @property
    def best_hierarchy(self) -> str:
        """H* of eq. 1: the hierarchy whose best repair scores lowest.

        Equal-scoring hierarchies tie-break on name so the winner does not
        depend on candidate insertion order.
        """
        def rank(h: str) -> tuple[float, str]:
            best = self.per_hierarchy[h].best
            return (best.score if best else float("inf"), h)

        return min(self.per_hierarchy, key=rank)

    @property
    def best_group(self) -> ScoredGroup:
        """t* of eq. 1."""
        return self.per_hierarchy[self.best_hierarchy].best

    def ranked(self, hierarchy: str | None = None
               ) -> tuple[ScoredGroup, ...]:
        h = hierarchy or self.best_hierarchy
        return self.per_hierarchy[h].groups


def score_drilldown(drill_view: GroupView, prediction: RepairPrediction,
                    complaint: Complaint,
                    observed_stats: Sequence[str] = ("count", "mean", "std"),
                    k: int | None = None,
                    ) -> tuple[float, list[ScoredGroup]]:
    """Score every group of one drill-down view (steps 3–4 above).

    With ``k`` set, only the top-k :class:`ScoredGroup` records are
    materialized (the sweep itself always covers every group).
    """
    keys, stats = drill_view.key_list, drill_view.stats
    parent = stats.sequential_total()
    base_penalty = complaint.penalty_of_state(parent)
    if not keys:
        return base_penalty, []
    values, valid = prediction.array_form(keys)

    # f_repair + eq. 3 + tie-break sizes, through the kernel tier: apply
    # each repaired statistic in order to the running (count, total,
    # sumsq) arrays, adjust the parent rank-1 with one group replaced,
    # and accumulate Σ |expected − observed| per group. Both tiers are
    # bitwise-equal to the inline chain this replaced.
    repaired_values, sizes = kernels.rank1_sweep(
        stats.count, stats.total, stats.sumsq, parent.count, parent.total,
        parent.sumsq, prediction.statistics, values, valid,
        complaint.aggregate, observed_stats)
    scores = complaint.penalty_values(repaired_values)

    if np.isnan(scores).any() or np.isnan(sizes).any():
        # A NaN prediction poisons its group's score; np.lexsort would
        # park NaNs last while the reference's comparison sort leaves
        # them where failed comparisons happen to put them. The loop IS
        # the reference algorithm, so exact-ordering equality holds.
        RANKER_STATS["fallback"] += 1
        scored = _score_loop(drill_view, prediction, complaint, parent,
                             base_penalty, observed_stats)
        return base_penalty, scored if k is None else scored[:k]
    RANKER_STATS["array"] += 1

    order = np.lexsort((-np.abs(sizes), scores))
    if k is not None:
        order = order[:k]

    scored: list[ScoredGroup] = []
    for i in order:
        state = stats.state(i)
        score = float(scores[i])
        scored.append(ScoredGroup(
            key=keys[i],
            coordinates=drill_view.coordinates(keys[i]),
            score=score,
            margin_gain=base_penalty - score,
            observed={s: state.statistic(s) for s in observed_stats},
            expected=prediction.expected(keys[i]),
            repaired_value=float(repaired_values[i])))
    return base_penalty, scored


def _score_loop(drill_view: GroupView, prediction: RepairPrediction,
                complaint: Complaint, parent: AggState, base_penalty: float,
                observed_stats: Sequence[str]) -> list[ScoredGroup]:
    """Group-at-a-time scoring, for sweeps with a NaN score or size."""
    scored: list[ScoredGroup] = []
    for key, state in drill_view.groups.items():
        repaired = prediction.repair_state(key, state)
        new_parent = parent.replace(state, repaired)
        score = complaint.penalty_of_state(new_parent)
        scored.append(ScoredGroup(
            key=key,
            coordinates=drill_view.coordinates(key),
            score=score,
            margin_gain=base_penalty - score,
            observed={s: state.statistic(s) for s in observed_stats},
            expected=prediction.expected(key),
            repaired_value=_composite(complaint, new_parent)))
    scored.sort(key=lambda g: (g.score, -abs(_repair_size(g))))
    return scored


def _composite(complaint: Complaint, state: AggState) -> float:
    from ..relational.aggregates import evaluate_composite
    return evaluate_composite(complaint.aggregate, state)


def _repair_size(group: ScoredGroup) -> float:
    """Tie-breaker: total relative change the repair applies."""
    total = 0.0
    for stat, expected in group.expected.items():
        observed = group.observed.get(stat, 0.0)
        total += abs(expected - observed)
    return total


def rank_candidate(cube: Cube, group_attrs: Sequence[str], next_attr: str,
                   hierarchy: str, complaint: Complaint,
                   provenance: Mapping, repairer: ModelRepairer,
                   k: int | None = None) -> DrilldownRecommendation:
    """Rank one candidate hierarchy's drill-down groups."""
    drill_view = cube.drilldown_view(group_attrs, next_attr, provenance)
    if not drill_view.groups:
        return DrilldownRecommendation(hierarchy, next_attr,
                                       base_penalty=float("inf"))
    parallel = cube.parallel_view(group_attrs, next_attr)
    prediction = repairer.predict(parallel, cluster_attrs=group_attrs,
                                  aggregate=complaint.aggregate)
    base_penalty, scored = score_drilldown(drill_view, prediction, complaint,
                                           k=k)
    return DrilldownRecommendation(hierarchy, next_attr, base_penalty, scored)


def rank_candidates(cube: Cube, group_attrs: Sequence[str],
                    candidates: Sequence[tuple[str, str]],
                    complaint: Complaint, provenance: Mapping,
                    repairer: ModelRepairer,
                    k: int | None = None) -> Recommendation:
    """One full Reptile invocation over all candidate hierarchies (§4.5).

    Every candidate shares the complaint's arrays; ``k`` bounds how many
    :class:`ScoredGroup` records are materialized per hierarchy (the
    serving path passes its top-k so only what the analyst sees is built).
    """
    per_hierarchy = {}
    for hierarchy, next_attr in candidates:
        per_hierarchy[hierarchy] = rank_candidate(
            cube, group_attrs, next_attr, hierarchy, complaint, provenance,
            repairer, k=k)
    if not per_hierarchy:
        raise ValueError("no candidate hierarchies left to drill")
    return Recommendation(complaint, per_hierarchy)
