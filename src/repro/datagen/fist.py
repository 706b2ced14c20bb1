"""FIST drought-survey case study simulator (§5.4, Appendix M).

Columbia's Financial Instruments Sector Team collects farmer-reported
drought severity (1–10) per village and year in Ethiopia, cross-referenced
against satellite rainfall estimates. The study data and the three human
experts are not reproducible, so this module simulates:

* a (region → district → village) × year severity panel whose drought
  years are region-correlated, with rainfall auxiliary data that inversely
  tracks true drought severity;
* the 22 expert complaints as scripted scenarios whose injected ground
  truth mirrors the error classes the study surfaced: planting/harvest
  year confusion, misremembered events, non-drought years reported severe,
  and missing survey records;
* the two designed failures of Appendix M — an inherently ambiguous
  region-wide complaint, and a standard-deviation complaint caused by two
  districts corrupted symmetrically, where repairing either one alone
  cannot lower the std (the parabola argument of Appendix M).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..relational.dataset import AuxiliaryDataset, HierarchicalDataset
from ..relational.relation import Relation
from ..relational.schema import Schema, dimension, measure

N_REGIONS = 4
N_DISTRICTS = 3     # per region
N_VILLAGES = 6      # per district
YEARS = tuple(range(2000, 2018))
FARMERS_MIN, FARMERS_MAX = 5, 12


class ScenarioKind(enum.Enum):
    YEAR_SHIFT = "year shift"              # harvest-year confusion
    EXAGGERATED = "exaggerated severity"   # non-drought year reported severe
    MISREMEMBER = "misremembered drought"  # drought year reported mild
    MISSING = "missing records"            # survey records lost
    AMBIGUOUS = "ambiguous"                # region-wide drift (failure)
    TWO_DISTRICT_STD = "two-district std"  # symmetric corruption (failure)


@dataclass(frozen=True)
class FistScenario:
    """One scripted complaint with its injected ground truth."""

    scenario_id: int
    kind: ScenarioKind
    region: str
    year: int
    district: str | None        # ground-truth district (None for ambiguous)
    second_district: str | None  # the TWO_DISTRICT_STD partner
    aggregate: str               # complained statistic
    direction: str               # 'high' | 'low'
    expected_resolved: bool      # per §5.4: 20 of 22 resolve


@dataclass
class FistWorld:
    """The clean panel plus everything needed to build scenarios."""

    dataset: HierarchicalDataset
    drought: dict[tuple[str, int], float]   # (region, year) -> severity lift
    regions: list[str]
    districts: dict[str, list[str]]          # region -> districts
    villages: dict[str, list[str]]           # district -> villages


def region_name(i: int) -> str:
    return f"R{i:02d}"


def district_name(region: str, j: int) -> str:
    return f"{region}-D{j:02d}"


def village_name(district: str, k: int) -> str:
    return f"{district}-V{k:02d}"


def make_world(rng: np.random.Generator) -> FistWorld:
    """Generate the clean drought panel and its rainfall auxiliary data."""
    regions = [region_name(i) for i in range(N_REGIONS)]
    districts = {r: [district_name(r, j) for j in range(N_DISTRICTS)]
                 for r in regions}
    villages = {d: [village_name(d, k) for k in range(N_VILLAGES)]
                for r in regions for d in districts[r]}

    # Region-year drought lift: a few severe years per region.
    drought: dict[tuple[str, int], float] = {}
    for r in regions:
        for y in YEARS:
            severe = rng.random() < 0.25
            drought[(r, y)] = (3.0 + rng.normal(0, 0.4)) if severe \
                else rng.normal(0, 0.4)

    rows = []
    rain_rows = []
    for r in regions:
        region_base = 4.0 + rng.normal(0, 0.3)
        for d in districts[r]:
            district_off = rng.normal(0, 0.3)
            # Districts respond to drought with different sensitivity —
            # the cluster-specific slope that multi-level models capture
            # and global fixed effects cannot (Appendix K).
            district_sens = max(0.2, rng.normal(1.0, 0.35))
            for v in villages[d]:
                village_off = rng.normal(0, 0.3)
                for y in YEARS:
                    level = region_base + district_off + village_off \
                        + district_sens * drought[(r, y)]
                    n_farmers = int(rng.integers(FARMERS_MIN, FARMERS_MAX + 1))
                    reports = np.clip(
                        level + rng.normal(0, 0.8, size=n_farmers), 1.0, 10.0)
                    rows.extend((r, d, v, y, float(s)) for s in reports)
                    # Rainfall inversely tracks the drought lift.
                    rain = 600.0 - 90.0 * drought[(r, y)] \
                        + rng.normal(0, 30.0)
                    rain_rows.append((d, v, y, max(rain, 10.0)))

    schema = Schema([dimension("region"), dimension("district"),
                     dimension("village"), dimension("year"),
                     measure("severity")])
    relation = Relation.from_rows(schema, rows)
    dataset = HierarchicalDataset.build(
        relation,
        {"geo": ["region", "district", "village"], "time": ["year"]},
        "severity")

    rain_schema = Schema([dimension("district"), dimension("village"),
                          dimension("year"), measure("rainfall")])
    rain_rel = Relation.from_rows(rain_schema, rain_rows)
    dataset.add_auxiliary(AuxiliaryDataset(
        "sensing_village", rain_rel, join_on=("village", "year"),
        measures=("rainfall",)))
    dataset.add_auxiliary(AuxiliaryDataset(
        "sensing_district", rain_rel, join_on=("district", "year"),
        measures=("rainfall",)))
    return FistWorld(dataset, drought, regions, districts, villages)


def make_scenarios(world: FistWorld,
                   rng: np.random.Generator) -> list[FistScenario]:
    """The 22 scripted complaints (20 resolvable + 2 designed failures)."""
    severe_years = {r: [y for y in YEARS if world.drought[(r, y)] > 2.0]
                    for r in world.regions}
    mild_years = {r: [y for y in YEARS if world.drought[(r, y)] < 1.0]
                  for r in world.regions}

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    scenarios: list[FistScenario] = []
    sid = 0
    # 6 year shifts: records reported one year late → count too low.
    for _ in range(6):
        r = pick(world.regions)
        y = pick([y for y in YEARS[:-1]])
        d = pick(world.districts[r])
        scenarios.append(FistScenario(sid, ScenarioKind.YEAR_SHIFT, r, y, d,
                                      None, "count", "low", True))
        sid += 1
    # 5 exaggerations: mild year reported severe → mean too high.
    for _ in range(5):
        r = pick(world.regions)
        y = pick(mild_years[r] or list(YEARS))
        d = pick(world.districts[r])
        scenarios.append(FistScenario(sid, ScenarioKind.EXAGGERATED, r, y, d,
                                      None, "mean", "high", True))
        sid += 1
    # 5 misrememberings: severe year reported mild → mean too low.
    for _ in range(5):
        r = pick(world.regions)
        y = pick(severe_years[r] or list(YEARS))
        d = pick(world.districts[r])
        scenarios.append(FistScenario(sid, ScenarioKind.MISREMEMBER, r, y, d,
                                      None, "mean", "low", True))
        sid += 1
    # 4 missing-record scenarios → count too low.
    for _ in range(4):
        r = pick(world.regions)
        y = pick(list(YEARS))
        d = pick(world.districts[r])
        scenarios.append(FistScenario(sid, ScenarioKind.MISSING, r, y, d,
                                      None, "count", "low", True))
        sid += 1
    # 1 ambiguous region-wide drift (expected failure, Appendix M).
    r = pick(world.regions)
    y = pick(severe_years[r] or list(YEARS))
    scenarios.append(FistScenario(sid, ScenarioKind.AMBIGUOUS, r, y, None,
                                  None, "mean", "low", False))
    sid += 1
    # 1 two-district symmetric std corruption (expected failure, Appendix M).
    r = pick(world.regions)
    y = pick(mild_years[r] or list(YEARS))
    d1, d2 = world.districts[r][0], world.districts[r][1]
    scenarios.append(FistScenario(sid, ScenarioKind.TWO_DISTRICT_STD, r, y,
                                  d1, d2, "std", "high", False))
    sid += 1
    return scenarios


def apply_scenario(world: FistWorld, scenario: FistScenario,
                   rng: np.random.Generator) -> HierarchicalDataset:
    """Inject one scenario's error into a copy of the clean panel."""
    relation = world.dataset.relation
    region = relation.column("region")
    district = relation.column("district")
    year = list(relation.column("year"))
    severity = list(relation.column("severity"))

    def rows_of(d: str, y: int) -> list[int]:
        return [i for i in range(len(relation))
                if district[i] == d and year[i] == y]

    keep = list(range(len(relation)))
    kind = scenario.kind
    if kind is ScenarioKind.YEAR_SHIFT:
        for i in rows_of(scenario.district, scenario.year):
            if rng.random() < 0.6:
                year[i] = scenario.year + 1
    elif kind is ScenarioKind.EXAGGERATED:
        for i in rows_of(scenario.district, scenario.year):
            severity[i] = float(min(10.0, severity[i] + 3.0))
    elif kind is ScenarioKind.MISREMEMBER:
        for i in rows_of(scenario.district, scenario.year):
            severity[i] = float(max(1.0, severity[i] - 3.0))
    elif kind is ScenarioKind.MISSING:
        drop = set()
        for i in rows_of(scenario.district, scenario.year):
            if rng.random() < 0.6:
                drop.add(i)
        keep = [i for i in keep if i not in drop]
    elif kind is ScenarioKind.AMBIGUOUS:
        for d in world.districts[scenario.region]:
            for i in rows_of(d, scenario.year):
                severity[i] = float(max(1.0, severity[i] - 2.0))
    elif kind is ScenarioKind.TWO_DISTRICT_STD:
        # Both districts shifted the SAME way: with 2 of the region's 3
        # districts corrupted, repairing either one alone leaves the
        # between-district variance unchanged (Appendix M's parabola).
        for i in rows_of(scenario.district, scenario.year):
            severity[i] = float(min(10.0, severity[i] + 2.5))
        for i in rows_of(scenario.second_district, scenario.year):
            severity[i] = float(min(10.0, severity[i] + 2.5))
    else:
        raise ValueError(f"unknown scenario kind {kind}")

    cols = {name: relation.column(name)
            for name in relation.schema.names}
    cols["year"] = year
    cols["severity"] = severity
    corrupted = Relation(relation.schema, cols)._take(
        np.asarray(keep, dtype=np.int64))
    dataset = HierarchicalDataset.build(
        corrupted,
        {"geo": ["region", "district", "village"], "time": ["year"]},
        "severity", validate=False)
    for aux in world.dataset.auxiliary.values():
        dataset.add_auxiliary(aux)
    return dataset
