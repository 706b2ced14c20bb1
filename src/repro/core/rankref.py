"""Frozen dict-based reference of the recommend path (pre-array semantics).

This module freezes the group-at-a-time implementation of the §3.2/§4.5
recommendation pipeline exactly as it ran before the array-native refactor:
per-group Python loops over ``{key: AggState}`` mappings for feature
building, design construction, repair prediction, and drill-down scoring.
Its model fits run through the frozen :mod:`repro.model.emref`, not the
live trainers. It mirrors :mod:`repro.relational.rowref` one layer up,
and exists for the same two reasons:

* **ground truth** — the property tests
  (``tests/test_ranker_array_properties.py``) assert that the array ranker
  produces *exactly* the results these loops produce — same keys, same
  scores (bitwise), same ordering;
* **benchmarking** — ``benchmarks/bench_fig19_recommend.py`` measures the
  array path's speedup against these loops on identical cubes.

Nothing in the engine itself calls into this module; do not "optimize" it.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..model import emref
from ..model.features import (BuiltFeature, FeatureError, FeaturePlan,
                              FeatureSet, LagFeature, MainEffectFeature)
from ..relational.aggregates import AggState, merge_states
from ..relational.cube import Cube, GroupView
from .complaint import Complaint
from .ranker import DrilldownRecommendation, Recommendation, ScoredGroup
from .repair import NON_NEGATIVE, ModelRepairer, RepairPrediction


# -- feature building (the pre-vectorization per-group loops) ------------------

def _orderable(key: tuple) -> tuple:
    return tuple((type(v).__name__, v) for v in key)


def _build_main_effect(spec: MainEffectFeature, view: GroupView,
                       target: str) -> BuiltFeature:
    import statistics
    pos = view.group_attrs.index(spec.attribute)
    per_value: dict = {}
    for key, state in view.groups.items():
        per_value.setdefault(key[pos], []).append(state.statistic(target))
    overall = statistics.median(
        [s.statistic(target) for s in view.groups.values()]) \
        if view.groups else 0.0
    mapping = {v: statistics.median(vals) if len(vals) >= spec.min_groups
               else overall
               for v, vals in per_value.items()}
    return BuiltFeature(f"main:{spec.attribute}", (spec.attribute,),
                        mapping, default=overall)


def _build_lag(spec: LagFeature, view: GroupView, target: str) -> BuiltFeature:
    import statistics
    pos = view.group_attrs.index(spec.attribute)
    per_value: dict = {}
    for key, state in view.groups.items():
        per_value.setdefault(key[pos], []).append(state.statistic(target))
    medians = {v: statistics.median(vals) for v, vals in per_value.items()}
    overall = statistics.median(
        [s.statistic(target) for s in view.groups.values()]) \
        if view.groups else 0.0
    mapping = {}
    for v in medians:
        try:
            lagged = v - spec.lag
        except TypeError:
            raise FeatureError(
                f"lag feature needs numeric attribute, got {v!r}") from None
        mapping[v] = medians.get(lagged, overall)
    return BuiltFeature(f"lag{spec.lag}:{spec.attribute}",
                        (spec.attribute,), mapping, default=overall)


def _build_spec(spec, view: GroupView, target: str) -> BuiltFeature:
    if type(spec) is MainEffectFeature:
        return _build_main_effect(spec, view, target)
    if type(spec) is LagFeature:
        return _build_lag(spec, view, target)
    return spec.build(view, target)


def _standardized(built: BuiltFeature, keys: list) -> BuiltFeature:
    values = np.asarray([built.mapping.get(k, built.default) for k in keys],
                        dtype=float)
    mean = float(values.mean()) if len(values) else 0.0
    std = float(values.std()) if len(values) else 1.0
    if std < 1e-12:
        std = 1.0
    mapping = {k: (v - mean) / std for k, v in built.mapping.items()}
    return BuiltFeature(built.name, built.attributes, mapping,
                        default=(built.default - mean) / std)


def build_features_ref(view: GroupView, target: str,
                       plan: FeaturePlan) -> FeatureSet:
    """The pre-array ``FeaturePlan.build``: per-group loops throughout."""
    features: list[BuiltFeature] = []
    keys = list(view.groups)
    for spec in plan.realised_specs(view):
        if not spec.applicable(view):
            continue
        built = _build_spec(spec, view, target)
        if plan.standardize:
            feature_keys = [built.key_of(view.group_attrs, k) for k in keys]
            built = _standardized(built, feature_keys)
        features.append(built)
    if not features and not plan.intercept:
        raise FeatureError("no applicable features and no intercept")
    return FeatureSet(tuple(view.group_attrs), features,
                      intercept=plan.intercept,
                      random_effects=plan.random_effects)


# -- design building (per-row value_for loops) ---------------------------------

class RefDesign(NamedTuple):
    """The raw arrays :mod:`repro.model.emref` fits over."""

    x: np.ndarray
    sizes: list
    z_columns: list


def build_view_design_ref(view: GroupView, target: str, plan: FeaturePlan,
                          cluster_attrs: Sequence[str]):
    """The pre-array ``build_view_design``: Python sort + per-row rows."""
    cluster_attrs = tuple(cluster_attrs)
    for a in cluster_attrs:
        if a not in view.group_attrs:
            raise FeatureError(f"cluster attribute {a!r} not in view")
    positions = [view.group_attrs.index(a) for a in cluster_attrs]

    def cluster_key(key: tuple) -> tuple:
        return tuple(key[p] for p in positions)

    keys = sorted(view.groups,
                  key=lambda k: (_orderable(cluster_key(k)), _orderable(k)))
    if not keys:
        raise FeatureError("cannot build a design over an empty view")
    sizes: list[int] = []
    prev = object()
    for k in keys:
        ck = cluster_key(k)
        if ck != prev:
            sizes.append(0)
            prev = ck
        sizes[-1] += 1

    feature_set = build_features_ref(view, target, plan)
    n = len(keys)
    x = np.empty((n, feature_set.n_columns))
    col = 0
    if feature_set.intercept:
        x[:, 0] = 1.0
        col = 1
    for f in feature_set.features:
        x[:, col] = [f.value_for(view.group_attrs, k) for k in keys]
        col += 1
    y = np.asarray([view.groups[k].statistic(target) for k in keys])
    return keys, y, RefDesign(x, sizes, feature_set.z_indices())


# -- repair prediction (dict building) -----------------------------------------

def predict_ref(repairer: ModelRepairer, parallel: GroupView,
                cluster_attrs: Sequence[str],
                aggregate: str) -> RepairPrediction:
    """The pre-array ``ModelRepairer.predict``: one model per statistic,
    results gathered into nested per-key dicts."""
    stats = repairer.statistics_for(aggregate)
    per_stat: dict[str, dict[tuple, float]] = {}
    for stat in stats:
        keys, y, design = build_view_design_ref(
            parallel, stat, repairer.feature_plan, cluster_attrs)
        if repairer.model == "linear":
            fitted = emref.fit_predict_linear(design.x, y)
        elif repairer.model == "multilevel":
            fitted = emref.fit_predict_multilevel(
                design.x, design.sizes, design.z_columns, y,
                repairer.n_iterations)
        else:
            raise ValueError(f"unknown model kind {repairer.model!r}")
        if stat in NON_NEGATIVE:
            fitted = np.maximum(fitted, 0.0)
        per_stat[stat] = {key: float(fitted[i]) for i, key in enumerate(keys)}
    predicted: dict[tuple, dict[str, float]] = {}
    for key in parallel.groups:
        predicted[key] = {s: per_stat[s][key] for s in stats}
    return RepairPrediction(stats, predicted)


# -- scoring (the group-at-a-time loop of eq. 3) -------------------------------

def score_drilldown_ref(drill_view: GroupView,
                        prediction: RepairPrediction,
                        complaint: Complaint,
                        observed_stats: Sequence[str] = ("count", "mean",
                                                         "std"),
                        ) -> tuple[float, list[ScoredGroup]]:
    """The pre-array ``score_drilldown``: one Python iteration per group."""
    from ..relational.aggregates import evaluate_composite
    parent = merge_states(drill_view.groups.values())
    base_penalty = complaint.penalty_of_state(parent)
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
            repaired_value=evaluate_composite(complaint.aggregate,
                                              new_parent)))

    def repair_size(group: ScoredGroup) -> float:
        total = 0.0
        for stat, expected in group.expected.items():
            observed = group.observed.get(stat, 0.0)
            total += abs(expected - observed)
        return total

    scored.sort(key=lambda g: (g.score, -abs(repair_size(g))))
    return base_penalty, scored


def rank_candidate_ref(cube: Cube, group_attrs: Sequence[str],
                       next_attr: str, hierarchy: str, complaint: Complaint,
                       provenance: Mapping, repairer: ModelRepairer,
                       ) -> DrilldownRecommendation:
    """One candidate hierarchy through the frozen dict pipeline."""
    drill_view = cube.drilldown_view(group_attrs, next_attr, provenance)
    if not drill_view.groups:
        return DrilldownRecommendation(hierarchy, next_attr,
                                       base_penalty=float("inf"))
    parallel = cube.parallel_view(group_attrs, next_attr)
    prediction = predict_ref(repairer, parallel, group_attrs,
                             complaint.aggregate)
    base_penalty, scored = score_drilldown_ref(drill_view, prediction,
                                               complaint)
    return DrilldownRecommendation(hierarchy, next_attr, base_penalty, scored)


def rank_candidates_ref(cube: Cube, group_attrs: Sequence[str],
                        candidates: Sequence[tuple[str, str]],
                        complaint: Complaint, provenance: Mapping,
                        repairer: ModelRepairer) -> Recommendation:
    """One full invocation through the frozen dict pipeline."""
    per_hierarchy = {}
    for hierarchy, next_attr in candidates:
        per_hierarchy[hierarchy] = rank_candidate_ref(
            cube, group_attrs, next_attr, hierarchy, complaint, provenance,
            repairer)
    if not per_hierarchy:
        raise ValueError("no candidate hierarchies left to drill")
    return Recommendation(complaint, per_hierarchy)
