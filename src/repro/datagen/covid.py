"""COVID-19 case-study simulator (§5.3, Appendix L, Tables 1–2).

The paper evaluates Reptile on 30 resolved data-quality issues of the JHU
CSSE COVID-19 repository (16 US, 14 global). The raw data and GitHub issues
are not redistributable, so this module simulates panels with the same
structure — daily counts per location with trend, weekly seasonality and
noise — and re-injects each issue by its documented *category* and
approximate magnitude:

* missing reports / backlog / over- & under-reporting / definition changes
  are strong one-day (or onward) distortions → detectable;
* typos, small backlogs and small decreases are below the panel's natural
  variation → the four "subtle" failures of the paper's error analysis;
* "missing source" / day-shift issues distort *every* day → the five
  "prevalent" failures (the lag features are corrupted too, so no model
  can single the location out).

Ground truth (issue id, location, category, complaint direction, and
whether the paper's Reptile caught it) follows Tables 1 and 2 exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..relational.dataset import HierarchicalDataset
from ..relational.relation import Relation
from ..relational.schema import Schema, dimension, measure

#: Day index the complaints target (leaves ≥ 7 days of lag history).
COMPLAINT_DAY = 35
N_DAYS = 45


class IssueKind(enum.Enum):
    MISSING_REPORTS = "missing reports"        # day value collapses
    BACKLOG = "backlog"                        # day value spikes
    OVER_REPORTED = "over reported"            # day value inflated
    UNDER_REPORTED = "under reported"          # day value deflated
    DEFINITION_CHANGE = "definition altered"   # level shift from day onward
    TYPO = "typo"                              # tiny distortion (subtle)
    SMALL_BACKLOG = "small backlog"            # tiny spike (subtle)
    SMALL_DECREASE = "small decrease"          # tiny dip (subtle)
    PREVALENT_MISSING = "missing source"       # all days deflated (prevalent)
    DAY_SHIFT = "day shift"                    # all days shifted (prevalent)


#: Multiplier/behaviour per kind, applied at the complaint day.
_DAY_FACTORS = {
    IssueKind.MISSING_REPORTS: 0.35,
    IssueKind.BACKLOG: 2.6,
    IssueKind.OVER_REPORTED: 1.8,
    IssueKind.UNDER_REPORTED: 0.6,
    IssueKind.DEFINITION_CHANGE: 1.6,
    IssueKind.TYPO: 1.015,
    IssueKind.SMALL_BACKLOG: 1.02,
    IssueKind.SMALL_DECREASE: 0.985,
}

PREVALENT_KINDS = (IssueKind.PREVALENT_MISSING, IssueKind.DAY_SHIFT)
SUBTLE_KINDS = (IssueKind.TYPO, IssueKind.SMALL_BACKLOG,
                IssueKind.SMALL_DECREASE)


@dataclass(frozen=True)
class CovidIssue:
    """One resolved JHU data issue (a row of Table 1 or 2)."""

    issue_id: str
    description: str
    location: str
    kind: IssueKind
    direction: str            # complaint direction at the parent level
    expected_detected: bool   # the RP column of Tables 1–2
    region: str | None = None  # global issues only

    @property
    def prevalent(self) -> bool:
        return self.kind in PREVALENT_KINDS


US_ISSUES: tuple[CovidIssue, ...] = (
    CovidIssue("3572", "Texas confirmed missing reports", "Texas",
               IssueKind.MISSING_REPORTS, "low", True),
    CovidIssue("3521", "Arizona death methodology altered", "Arizona",
               IssueKind.DEFINITION_CHANGE, "high", True),
    CovidIssue("3482", "Washington missing reports", "Washington",
               IssueKind.MISSING_REPORTS, "low", True),
    CovidIssue("3476", "Utah missing source", "Utah",
               IssueKind.PREVALENT_MISSING, "low", False),
    CovidIssue("3468", "New York death missing reports", "New York",
               IssueKind.MISSING_REPORTS, "low", True),
    CovidIssue("3466", "Montana missing reports", "Montana",
               IssueKind.MISSING_REPORTS, "low", True),
    CovidIssue("3456", "North Dakota confirmed backlog", "North Dakota",
               IssueKind.BACKLOG, "high", True),
    CovidIssue("3451", "Iowa death missing reports", "Iowa",
               IssueKind.MISSING_REPORTS, "low", True),
    CovidIssue("3449", "Arizona test over reported", "Arizona",
               IssueKind.OVER_REPORTED, "high", True),
    CovidIssue("3448", "Washington death wrongly reported", "Washington",
               IssueKind.UNDER_REPORTED, "low", True),
    CovidIssue("3441", "Albany confirmed day shift", "Albany",
               IssueKind.DAY_SHIFT, "high", False),
    CovidIssue("3438", "Ohio confirmed backlog", "Ohio",
               IssueKind.BACKLOG, "high", True),
    CovidIssue("3424", "Massachusetts confirmed backlog", "Massachusetts",
               IssueKind.SMALL_BACKLOG, "high", False),
    CovidIssue("3416", "Nevada death over reported", "Nevada",
               IssueKind.OVER_REPORTED, "high", True),
    CovidIssue("3414", "Eureka death over reported", "Eureka",
               IssueKind.OVER_REPORTED, "high", True),
    CovidIssue("3402", "Washington confirmed typo", "Washington",
               IssueKind.TYPO, "high", False),
)

GLOBAL_ISSUES: tuple[CovidIssue, ...] = (
    CovidIssue("3623", "Germany recovered over reported", "Germany",
               IssueKind.OVER_REPORTED, "high", True, region="Europe"),
    CovidIssue("3618", "Quebec death missing source", "Quebec",
               IssueKind.PREVALENT_MISSING, "low", False, region="Americas"),
    CovidIssue("3578", "US recovery nullified", "United States",
               IssueKind.MISSING_REPORTS, "low", True, region="Americas"),
    CovidIssue("3567", "India confirmed missing reports", "India",
               IssueKind.MISSING_REPORTS, "low", True, region="Asia"),
    CovidIssue("3546", "Thailand confirmed missing source", "Thailand",
               IssueKind.PREVALENT_MISSING, "low", False, region="Asia"),
    CovidIssue("3538a", "Mexico confirmed definition altered", "Mexico",
               IssueKind.DEFINITION_CHANGE, "high", True, region="Americas"),
    CovidIssue("3538b", "Mexico confirmed missing reports", "Mexico",
               IssueKind.MISSING_REPORTS, "low", True, region="Americas"),
    CovidIssue("3518", "Sweden death missing source", "Sweden",
               IssueKind.PREVALENT_MISSING, "low", False, region="Europe"),
    CovidIssue("3498", "Alberta missing source", "Alberta",
               IssueKind.PREVALENT_MISSING, "low", False, region="Americas"),
    CovidIssue("3494", "UK death missing reports", "United Kingdom",
               IssueKind.MISSING_REPORTS, "low", True, region="Europe"),
    CovidIssue("3471", "Turkey confirmed definition altered", "Turkey",
               IssueKind.DEFINITION_CHANGE, "high", True, region="Asia"),
    CovidIssue("3423", "Afghanistan confirmed wrongly reported",
               "Afghanistan", IssueKind.SMALL_DECREASE, "low", False,
               region="Asia"),
    CovidIssue("3413", "France missing reports", "France",
               IssueKind.MISSING_REPORTS, "low", True, region="Europe"),
    CovidIssue("3408", "Kazakhstan confirmed over reported", "Kazakhstan",
               IssueKind.OVER_REPORTED, "high", True, region="Asia"),
)

ALL_ISSUES = US_ISSUES + GLOBAL_ISSUES

_US_STATES = ["Texas", "Arizona", "Washington", "Utah", "New York",
              "Montana", "North Dakota", "Iowa", "Nevada", "Eureka",
              "Albany", "Massachusetts", "Ohio", "California", "Florida",
              "Georgia", "Colorado", "Oregon", "Kansas", "Vermont",
              "Maine", "Idaho", "Alabama", "Virginia", "Missouri",
              "Indiana", "Wisconsin", "Minnesota", "Tennessee", "Kentucky"]

_GLOBAL_LOCATIONS = {
    "Americas": ["United States", "Mexico", "Quebec", "Alberta", "Brazil",
                 "Argentina", "Chile", "Peru", "Colombia", "Cuba",
                 "Ecuador", "Panama"],
    "Europe": ["Germany", "Sweden", "United Kingdom", "France", "Italy",
               "Spain", "Poland", "Norway", "Finland", "Greece",
               "Portugal", "Austria"],
    "Asia": ["India", "Thailand", "Turkey", "Afghanistan", "Kazakhstan",
             "Japan", "Vietnam", "Nepal", "Mongolia", "Malaysia",
             "Indonesia", "Philippines"],
    "Africa": ["Nigeria", "Egypt", "Kenya", "Ghana", "Morocco", "Ethiopia",
               "Senegal", "Tunisia", "Uganda", "Zambia", "Botswana",
               "Rwanda"],
}


def _panel_values(locations: list[str], n_days: int,
                  rng: np.random.Generator) -> dict[tuple[str, int], float]:
    """Daily counts: per-location level × national trend × weekday × noise."""
    weekday = np.array([1.0, 1.05, 1.1, 1.08, 1.0, 0.75, 0.65])
    trend = np.cumsum(rng.normal(0.01, 0.01, size=n_days))
    trend = np.exp(trend - trend[0])
    values: dict[tuple[str, int], float] = {}
    for loc in locations:
        base = float(np.exp(rng.normal(6.5, 0.8)))
        local = np.exp(rng.normal(0.0, 0.05, size=n_days))
        for d in range(n_days):
            values[(loc, d)] = max(
                1.0, base * trend[d] * weekday[d % 7] * local[d])
    return values


def us_panel(rng: np.random.Generator,
             n_days: int = N_DAYS) -> HierarchicalDataset:
    """US-shaped panel: (state, day) daily counts."""
    values = _panel_values(_US_STATES, n_days, rng)
    rows = [(loc, d, round(v)) for (loc, d), v in values.items()]
    schema = Schema([dimension("state"), dimension("day"), measure("cases")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation, {"location": ["state"], "time": ["day"]}, "cases")


def global_panel(rng: np.random.Generator,
                 n_days: int = N_DAYS) -> HierarchicalDataset:
    """Global-shaped panel: (region, country, day) daily counts."""
    rows = []
    for region, countries in _GLOBAL_LOCATIONS.items():
        values = _panel_values(countries, n_days, rng)
        rows.extend((region, loc, d, round(v))
                    for (loc, d), v in values.items())
    schema = Schema([dimension("region"), dimension("country"),
                     dimension("day"), measure("cases")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation, {"location": ["region", "country"], "time": ["day"]},
        "cases")


def apply_issue(dataset: HierarchicalDataset, issue: CovidIssue,
                location_attr: str, day: int = COMPLAINT_DAY
                ) -> HierarchicalDataset:
    """Inject one issue into the panel's measure column."""
    relation = dataset.relation
    locs = relation.column(location_attr)
    days = relation.column("day")
    cases = list(relation.column(dataset.measure))
    by_day = {}
    for i, (loc, d) in enumerate(zip(locs, days)):
        if loc == issue.location:
            by_day[d] = i

    if issue.kind is IssueKind.PREVALENT_MISSING:
        for d, i in by_day.items():
            cases[i] = round(cases[i] * 0.85)
    elif issue.kind is IssueKind.DAY_SHIFT:
        shifted = {d: cases[by_day[d - 1]] for d in by_day if d - 1 in by_day}
        for d, v in shifted.items():
            cases[by_day[d]] = v
    elif issue.kind is IssueKind.DEFINITION_CHANGE:
        factor = _DAY_FACTORS[issue.kind]
        for d, i in by_day.items():
            if d >= day:
                cases[i] = round(cases[i] * factor)
    elif issue.kind is IssueKind.BACKLOG:
        backlog = sum(cases[by_day[d]] for d in (day - 2, day - 1)
                      if d in by_day)
        cases[by_day[day]] = round(cases[by_day[day]] + 0.8 * backlog)
    else:
        factor = _DAY_FACTORS[issue.kind]
        cases[by_day[day]] = round(cases[by_day[day]] * factor)

    cols = {name: relation.column(name)
            for name in relation.schema.names}
    cols[dataset.measure] = cases
    corrupted = Relation(relation.schema, cols)
    hierarchies = {h.name: list(h.attributes) for h in dataset.dimensions}
    return HierarchicalDataset.build(corrupted, hierarchies, dataset.measure,
                                     validate=False)
