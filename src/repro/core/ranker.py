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
identical bitwise on every backend) — then one ``np.lexsort`` ranks
every candidate and :class:`ScoredGroup` records are materialized only
for the returned top-k. Results are exactly equal (same keys, same scores, same
ordering) to the frozen group-at-a-time reference in
:mod:`repro.core.rankref`, which the property tests enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .. import kernels
from ..relational.aggregates import AggState, GroupStats, merge_states
from ..relational.cube import Cube, GroupView, StatesMap
from .complaint import Complaint
from .repair import ModelRepairer, RepairPrediction

#: Instrumentation: how many scoring sweeps ran vectorized vs through the
#: group-at-a-time fallback (non-replayable hand-built predictions). The
#: serving layer surfaces these in its stats endpoint.
RANKER_STATS = {"array": 0, "fallback": 0}


@dataclass(frozen=True)
class ScoredGroup:
    """One drill-down group with its repair outcome."""

    key: tuple
    coordinates: dict
    score: float              # f_comp after repairing this group
    margin_gain: float        # base penalty − score (bigger = better)
    observed: dict            # observed base statistics
    expected: dict            # model-expected statistics
    repaired_value: float     # parent aggregate after the repair


@dataclass
class DrilldownRecommendation:
    """Ranked groups for one candidate hierarchy."""

    hierarchy: str
    attribute: str
    base_penalty: float       # f_comp with no repair
    groups: list[ScoredGroup] = field(default_factory=list)

    @property
    def best(self) -> ScoredGroup | None:
        return self.groups[0] if self.groups else None

    def top(self, k: int) -> list[ScoredGroup]:
        return self.groups[:k]


@dataclass
class Recommendation:
    """Result of one Reptile invocation across all candidate hierarchies."""

    complaint: Complaint
    per_hierarchy: dict[str, DrilldownRecommendation]

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

    def ranked(self, hierarchy: str | None = None) -> list[ScoredGroup]:
        h = hierarchy or self.best_hierarchy
        return self.per_hierarchy[h].groups


def _view_stats(drill_view: GroupView) -> tuple[list, GroupStats]:
    """The view's groups as ``(keys, struct-of-arrays)``.

    Cube-built views expose the arrays directly; hand-built dict views are
    lifted into arrays once (cheaper than looping per group per statistic
    further down).
    """
    groups = drill_view.groups
    if isinstance(groups, StatesMap):
        return groups.key_list, groups.stats
    keys = list(groups)
    count = np.asarray([groups[k].count for k in keys], dtype=float)
    total = np.asarray([groups[k].total for k in keys], dtype=float)
    sumsq = np.asarray([groups[k].sumsq for k in keys], dtype=float)
    return keys, GroupStats(count, total, sumsq)


def score_drilldown(drill_view: GroupView, prediction: RepairPrediction,
                    complaint: Complaint,
                    observed_stats: Sequence[str] = ("count", "mean", "std"),
                    k: int | None = None,
                    ) -> tuple[float, list[ScoredGroup]]:
    """Score every group of one drill-down view (steps 3–4 above).

    With ``k`` set, only the top-k :class:`ScoredGroup` records are
    materialized (the sweep itself always covers every group).
    """
    keys, stats = _view_stats(drill_view)
    if not keys:
        parent = merge_states(drill_view.groups.values())
        return complaint.penalty_of_state(parent), []
    parent = stats.sequential_total()
    base_penalty = complaint.penalty_of_state(parent)
    arrays = prediction.array_form(keys)
    if arrays is None:
        RANKER_STATS["fallback"] += 1
        scored = _score_loop(drill_view, prediction, complaint, parent,
                             base_penalty, observed_stats)
        return base_penalty, scored if k is None else scored[:k]
    RANKER_STATS["array"] += 1
    values, valid = arrays

    # f_repair + eq. 3 + tie-break sizes, through the kernel tier: apply
    # each repaired statistic in order to the running (count, total,
    # sumsq) arrays, adjust the parent rank-1 with one group replaced,
    # and accumulate Σ |expected − observed| per group. All backends are
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
        RANKER_STATS["array"] -= 1
        RANKER_STATS["fallback"] += 1
        scored = _score_loop(drill_view, prediction, complaint, parent,
                             base_penalty, observed_stats)
        return base_penalty, scored if k is None else scored[:k]

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
            expected=dict(prediction.expected(keys[i])),
            repaired_value=float(repaired_values[i])))
    return base_penalty, scored


def _score_loop(drill_view: GroupView, prediction: RepairPrediction,
                complaint: Complaint, parent: AggState, base_penalty: float,
                observed_stats: Sequence[str]) -> list[ScoredGroup]:
    """Group-at-a-time fallback for non-replayable predictions."""
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
            expected=dict(prediction.expected(key)),
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
