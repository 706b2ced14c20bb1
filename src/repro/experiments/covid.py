"""COVID-19 case study runner (§5.3, Figure 13, Tables 1–2).

For every issue of Tables 1–2: simulate the panel, inject the issue,
submit the complaint at the immediately higher geographical level on the
complaint day, and check whether each approach's top recommendation is the
erroneous location. Reptile uses 1-day and 7-day lag features (Appendix L)
on top of the default main effects.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines import SensitivityBaseline, SupportBaseline
from ..core.complaint import Complaint
from ..core.session import Reptile, ReptileConfig
from ..datagen.covid import (ALL_ISSUES, COMPLAINT_DAY, CovidIssue,
                             apply_issue, global_panel, us_panel)
from ..model.features import CustomFeature, FeaturePlan
from ..relational.cube import GroupView


def _lag_builder(location_attr: str, lag: int):
    """Custom feature: the location's value ``lag`` days earlier (App. L)."""

    def build(view: GroupView, target: str) -> dict:
        day_pos = view.group_attrs.index("day")
        loc_pos = view.group_attrs.index(location_attr)
        stat = {(k[loc_pos], k[day_pos]): view.groups[k].statistic(target)
                for k in view.groups}
        per_loc: dict = {}
        for (loc, _), v in stat.items():
            per_loc.setdefault(loc, []).append(v)
        loc_median = {loc: statistics.median(vs) for loc, vs in per_loc.items()}
        return {(loc, d): stat.get((loc, d - lag), loc_median[loc])
                for (loc, d) in stat}

    return build


def covid_feature_plan(location_attr: str) -> FeaturePlan:
    """Default main effects plus 1-day and 7-day lags (Appendix L)."""
    lags = [CustomFeature(f"lag{lag}_{location_attr}",
                          (location_attr, "day"),
                          _lag_builder(location_attr, lag))
            for lag in (1, 7)]
    return FeaturePlan(extra_specs=lags)


@dataclass
class IssueResult:
    """Per-issue outcome for every approach."""

    issue: CovidIssue
    hits: dict[str, bool] = field(default_factory=dict)
    reptile_seconds: float = 0.0


def run_issue(issue: CovidIssue, seed: int = 0,
              n_iterations: int = 10) -> IssueResult:
    """Simulate, corrupt, complain, and evaluate one issue."""
    rng = np.random.default_rng(seed)
    if issue.region is None:
        dataset = apply_issue(us_panel(rng), issue, "state")
        location_attr = "state"
        group_by = ["day"]
        coords = {"day": COMPLAINT_DAY}
    else:
        dataset = apply_issue(global_panel(rng), issue, "country")
        location_attr = "country"
        group_by = ["region", "day"]
        coords = {"region": issue.region, "day": COMPLAINT_DAY}
    complaint = (Complaint.too_low(coords, "sum")
                 if issue.direction == "low"
                 else Complaint.too_high(coords, "sum"))

    engine = Reptile(dataset, feature_plan=covid_feature_plan(location_attr),
                     config=ReptileConfig(n_em_iterations=n_iterations))
    session = engine.session(group_by=group_by)

    start = time.perf_counter()
    recommendation = session.recommend(complaint)
    elapsed = time.perf_counter() - start
    top = recommendation.per_hierarchy["location"].best
    result = IssueResult(issue, reptile_seconds=elapsed)
    result.hits["reptile"] = (
        top is not None
        and top.coordinates[location_attr] == issue.location)

    drill_view = engine.cube.drilldown_view(
        tuple(group_by), location_attr, session.provenance(complaint))
    loc_pos = drill_view.group_attrs.index(location_attr)
    for name, baseline in (("sensitivity", SensitivityBaseline()),
                           ("support", SupportBaseline())):
        best = baseline.best(drill_view, complaint)
        result.hits[name] = best[loc_pos] == issue.location
    return result


@dataclass
class CaseStudySummary:
    """Figure 13: accuracy and runtime per approach, plus per-issue rows."""

    results: list[IssueResult]

    def accuracy(self, approach: str) -> float:
        return sum(r.hits[approach] for r in self.results) / len(self.results)

    def mean_runtime(self) -> float:
        return sum(r.reptile_seconds for r in self.results) / len(self.results)

    def table_rows(self) -> list[tuple]:
        """(issue id, description, reptile, sensitivity, support) rows."""
        return [(r.issue.issue_id, r.issue.description,
                 r.hits["reptile"], r.hits["sensitivity"], r.hits["support"])
                for r in self.results]


def run_case_study(issues=ALL_ISSUES, seed: int = 0,
                   n_iterations: int = 10) -> CaseStudySummary:
    """Run every issue (Tables 1–2) and summarise (Figure 13)."""
    results = []
    for k, issue in enumerate(issues):
        results.append(run_issue(issue, seed=seed + k,
                                 n_iterations=n_iterations))
    return CaseStudySummary(results)
