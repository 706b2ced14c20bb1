"""Election-results dataset (Appendices K and N, Figures 16 and 18).

A state → county panel shaped like the 2020 US presidential results: each
county has a persistent partisan lean, so its 2016 vote share is a strong
predictor of its 2020 share — the auxiliary feature that separates model 1
(default features) from model 2 (+2016 share) in the Appendix N case study.

Rows represent ballot batches: each county contributes ``total/batch``
rows whose measure is the county's 2020 share plus batch noise, so
COUNT ∝ total votes and MEAN ≈ share — letting SUM complaints combine both
signals exactly as the paper describes ("Reptile also takes into account
the total votes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..relational.dataset import AuxiliaryDataset, HierarchicalDataset
from ..relational.relation import Relation
from ..relational.schema import Schema, dimension, measure

N_STATES = 6
N_COUNTIES = 20        # per state
BATCH = 2000.0         # ballots per row


@dataclass
class VoteWorld:
    """The generated panel plus per-county ground truth."""

    dataset: HierarchicalDataset
    share_2016: dict[str, float]
    share_2020: dict[str, float]
    totals_2020: dict[str, float]
    states: list[str]
    counties: dict[str, list[str]]  # state -> counties
    focus_state: str                # the "Georgia" of the case study


def make_world(rng: np.random.Generator,
               n_states: int = N_STATES,
               n_counties: int = N_COUNTIES) -> VoteWorld:
    states = [f"S{i:02d}" for i in range(n_states)]
    counties = {s: [f"{s}-C{j:03d}" for j in range(n_counties)]
                for s in states}
    share_2016: dict[str, float] = {}
    share_2020: dict[str, float] = {}
    totals: dict[str, float] = {}

    rows = []
    aux_rows = []
    for s in states:
        state_lean = rng.normal(0.0, 0.05)
        state_swing = rng.normal(-0.01, 0.01)
        # How strongly 2016 leans carry into 2020 varies by state — the
        # cluster-specific slope that favours multi-level models (App. K).
        state_slope = max(0.3, rng.normal(1.0, 0.25))
        for c in counties[s]:
            lean = float(np.clip(0.5 + state_lean + rng.normal(0, 0.12),
                                 0.05, 0.95))
            s16 = float(np.clip(lean + rng.normal(0, 0.015), 0.02, 0.98))
            s20 = float(np.clip(0.5 + state_lean
                                + state_slope * (lean - 0.5 - state_lean)
                                + state_swing + rng.normal(0, 0.015),
                                0.02, 0.98))
            total = float(np.exp(rng.normal(10.0, 0.9)))
            share_2016[c] = s16
            share_2020[c] = s20
            totals[c] = total
            n_batches = max(3, int(round(total / BATCH)))
            shares = np.clip(s20 + rng.normal(0, 0.01, size=n_batches),
                             0.0, 1.0)
            rows.extend((s, c, float(v)) for v in shares)
            aux_rows.append((c, s16, total))

    schema = Schema([dimension("state"), dimension("county"),
                     measure("share")])
    relation = Relation.from_rows(schema, rows)
    dataset = HierarchicalDataset.build(
        relation, {"geo": ["state", "county"]}, "share")

    aux_schema = Schema([dimension("county"), measure("share_2016"),
                         measure("total_2016")])
    aux_rel = Relation.from_rows(aux_schema, aux_rows)
    dataset.add_auxiliary(AuxiliaryDataset(
        "election_2016", aux_rel, join_on=("county",),
        measures=("share_2016", "total_2016")))
    return VoteWorld(dataset, share_2016, share_2020, totals, states,
                     counties, focus_state=states[0])


def inject_missing_ballots(world: VoteWorld, counties: list[str],
                           fraction: float = 0.5) -> HierarchicalDataset:
    """Appendix N's missing-record variant: drop ballot batches.

    Halving a county's rows halves its COUNT (≈ total votes) while leaving
    its MEAN (share) intact, shifting the SUM-based margin gains.
    """
    relation = world.dataset.relation
    county_col = relation.column("county")
    victims = set(counties)
    seen: dict[str, int] = {}
    keep = []
    for i, c in enumerate(county_col):
        if c in victims:
            seen[c] = seen.get(c, 0) + 1
            if seen[c] % int(round(1 / fraction)) == 0:
                continue
        keep.append(i)
    corrupted = relation._take(np.asarray(keep, dtype=np.int64))
    dataset = HierarchicalDataset.build(
        corrupted, {"geo": ["state", "county"]}, "share", validate=False)
    for aux in world.dataset.auxiliary.values():
        dataset.add_auxiliary(aux)
    return dataset
