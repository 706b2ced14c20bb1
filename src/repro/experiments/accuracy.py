"""Synthetic accuracy experiments (§5.2, Figures 11 and 12).

For each trial a fresh dataset is generated, one (or more) groups are
corrupted, a complaint about the parent aggregate is submitted, and each
approach nominates its top group. Accuracy is the fraction of trials
whose nominated group is a true error.

* :func:`run_condition` — Figure 11: one corrupted group per trial, the
  six error conditions, approaches {Reptile, Raw, Sensitivity, Support}.
* :func:`run_ablation` — Figure 12: two true errors plus one
  false-positive group corrupted in the opposite direction, approaches
  {Reptile, Outlier}; shows the value of the complaint's direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (OutlierBaseline, RawBaseline, SensitivityBaseline,
                         SupportBaseline)
from ..core.complaint import Complaint
from ..core.repair import ModelRepairer
from ..core.ranker import score_drilldown
from ..datagen.errors import (CONDITIONS, ErrorKind, ErrorSpec, corrupt)
from ..datagen.synthetic import SyntheticConfig, make_auxiliary, make_dataset
from ..model.features import AuxiliaryFeature, FeaturePlan
from ..relational.cube import Cube
from ..relational.dataset import HierarchicalDataset

#: Statistic targeted by each error kind (for auxiliary-table generation).
_KIND_STAT = {
    ErrorKind.MISSING: "count",
    ErrorKind.DUPLICATION: "count",
    ErrorKind.DRIFT_UP: "mean",
    ErrorKind.DRIFT_DOWN: "mean",
}


def _complaint_for(aggregate: str, direction: str) -> Complaint:
    coords: dict = {}
    if direction == "high":
        return Complaint.too_high(coords, aggregate)
    return Complaint.too_low(coords, aggregate)


def _corrupted_dataset(base: HierarchicalDataset, specs, rng
                       ) -> HierarchicalDataset:
    report = corrupt(base.relation, specs, base.measure)
    corrupted = HierarchicalDataset.build(
        report.relation, {"dim": ["group"]}, "value", validate=False)
    for aux in base.auxiliary.values():
        corrupted.add_auxiliary(aux)
    return corrupted


def _reptile_plan(dataset: HierarchicalDataset) -> FeaturePlan:
    extra = [AuxiliaryFeature(aux, m)
             for aux in dataset.auxiliary.values() for m in aux.measures]
    return FeaturePlan(extra_specs=extra)


def reptile_top_group(dataset: HierarchicalDataset, complaint: Complaint,
                      model: str = "multilevel",
                      n_iterations: int = 10) -> tuple:
    """Reptile's top group for a one-level drill-down on ``dataset``."""
    cube = Cube(dataset)
    drill = cube.view(("group",))
    repairer = ModelRepairer(feature_plan=_reptile_plan(dataset), model=model,
                             n_iterations=n_iterations)
    prediction = repairer.predict(drill, cluster_attrs=(), aggregate=complaint.aggregate)
    _, scored = score_drilldown(drill, prediction, complaint)
    return scored[0].key


@dataclass
class ConditionResult:
    """Accuracy of every approach under one condition and correlation."""

    condition: str
    rho: float
    accuracy: dict[str, float] = field(default_factory=dict)


def run_condition(condition: str, rho: float, n_trials: int = 50,
                  seed: int = 0, n_iterations: int = 8,
                  approaches: tuple[str, ...] = ("reptile", "raw",
                                                 "sensitivity", "support"),
                  config: SyntheticConfig | None = None) -> ConditionResult:
    """Figure 11: accuracy of each approach for one (condition, ρ) cell."""
    kinds, (aggregate, direction) = CONDITIONS[condition]
    rng = np.random.default_rng(seed)
    hits = {a: 0 for a in approaches}
    for _ in range(n_trials):
        base = make_dataset(rng, config)
        stats_needed = sorted({_KIND_STAT[k] for k in kinds})
        for stat in stats_needed:
            base.add_auxiliary(make_auxiliary(base, stat, rho, rng))
        groups = sorted(set(base.relation.column("group")))
        bad = groups[int(rng.integers(len(groups)))]
        specs = [ErrorSpec(kind, {"group": bad}) for kind in kinds]
        dataset = _corrupted_dataset(base, specs, rng)
        complaint = _complaint_for(aggregate, direction)

        cube = Cube(dataset)
        drill = cube.view(("group",))
        if "reptile" in hits:
            top = reptile_top_group(dataset, complaint,
                                    n_iterations=n_iterations)
            hits["reptile"] += top == (bad,)
        if "raw" in hits:
            top = RawBaseline().best(dataset.relation, ("group",), "value",
                                     complaint)
            hits["raw"] += top == (bad,)
        if "sensitivity" in hits:
            top = SensitivityBaseline().best(drill, complaint)
            hits["sensitivity"] += top == (bad,)
        if "support" in hits:
            top = SupportBaseline().best(drill, complaint)
            hits["support"] += top == (bad,)
    return ConditionResult(condition, rho,
                           {a: hits[a] / n_trials for a in approaches})


#: Figure 12's three multi-error conditions:
#: name -> (true error kinds, false-positive kinds, complaint).
ABLATION_CONDITIONS = {
    "Missing+Duplication (count)": (
        (ErrorKind.MISSING,), (ErrorKind.DUPLICATION,), ("count", "low")),
    "Decrease+Increase (mean)": (
        (ErrorKind.DRIFT_DOWN,), (ErrorKind.DRIFT_UP,), ("mean", "low")),
    "All (sum)": (
        (ErrorKind.MISSING, ErrorKind.DRIFT_DOWN),
        (ErrorKind.DUPLICATION, ErrorKind.DRIFT_UP), ("sum", "low")),
}


def run_ablation(condition: str, rho: float, n_trials: int = 50,
                 seed: int = 0, n_iterations: int = 8,
                 config: SyntheticConfig | None = None) -> ConditionResult:
    """Figure 12: Reptile vs Outlier with 2 true errors + 1 false positive."""
    true_kinds, false_kinds, (aggregate, direction) = \
        ABLATION_CONDITIONS[condition]
    rng = np.random.default_rng(seed)
    hits = {"reptile": 0, "outlier": 0}
    for _ in range(n_trials):
        base = make_dataset(rng, config)
        stats_needed = sorted({_KIND_STAT[k]
                               for k in true_kinds + false_kinds})
        for stat in stats_needed:
            base.add_auxiliary(make_auxiliary(base, stat, rho, rng))
        groups = sorted(set(base.relation.column("group")))
        chosen = rng.choice(len(groups), size=3, replace=False)
        true_groups = [groups[int(chosen[0])], groups[int(chosen[1])]]
        false_group = groups[int(chosen[2])]
        specs = [ErrorSpec(kind, {"group": g})
                 for g in true_groups for kind in true_kinds]
        specs += [ErrorSpec(kind, {"group": false_group})
                  for kind in false_kinds]
        dataset = _corrupted_dataset(base, specs, rng)
        complaint = _complaint_for(aggregate, direction)

        cube = Cube(dataset)
        drill = cube.view(("group",))
        top = reptile_top_group(dataset, complaint, n_iterations=n_iterations)
        hits["reptile"] += top in {(g,) for g in true_groups}

        repairer = ModelRepairer(feature_plan=_reptile_plan(dataset),
                                 n_iterations=n_iterations)
        outlier = OutlierBaseline(repairer)
        top = outlier.best(drill, drill, cluster_attrs=(),
                           aggregate=aggregate)
        hits["outlier"] += top in {(g,) for g in true_groups}
    return ConditionResult(condition, rho,
                           {a: h / n_trials for a, h in hits.items()})
