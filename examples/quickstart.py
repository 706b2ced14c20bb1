"""Quickstart: find a planted data error with one complaint.

Builds a small drought-survey dataset (Example 1's shape: districts →
villages × years), plants a systematic under-reporting error in one
village, submits a "mean severity is too low" complaint about the
affected district-year, and lets Reptile recommend where to drill.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (Complaint, HierarchicalDataset, Relation, Reptile,
                   ReptileConfig, Schema, dimension, measure)


def build_dataset(rng: np.random.Generator) -> HierarchicalDataset:
    """Farmer-reported severity per (district, village, year)."""
    villages = {"Ofla": ["Adishim", "Darube", "Dinka", "Fala", "Zata"],
                "Alaje": ["Bora", "Chelena", "Dela", "Emba"]}
    rows = []
    for district, names in villages.items():
        for village in names:
            for year in range(1984, 1990):
                drought = 3.0 if year == 1986 else 0.0
                level = 5.0 + drought + rng.normal(0, 0.3)
                for _ in range(int(rng.integers(6, 12))):
                    severity = float(np.clip(level + rng.normal(0, 0.8),
                                             1, 10))
                    # The planted error: Zata's 1986 reports are ~4 points
                    # too low (farmers misremembered the drought year).
                    if village == "Zata" and year == 1986:
                        severity = max(1.0, severity - 4.0)
                    rows.append((district, village, year, severity))
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation, {"geo": ["district", "village"], "time": ["year"]},
        measure="severity")


def main() -> None:
    rng = np.random.default_rng(0)
    dataset = build_dataset(rng)
    print(dataset)

    engine = Reptile(dataset, config=ReptileConfig(n_em_iterations=10))

    # The analyst looks at annual statistics for Ofla and notices 1986's
    # mean severity looks too low given the drought they remember.
    session = engine.session(group_by=["year"], filters={"district": "Ofla"})
    print("\nAnnual view for Ofla:")
    view = session.view()
    for key in sorted(view.groups):
        coords = view.coordinates(key)
        state = view.groups[key]
        print(f"  {coords['year']}: mean={state.mean:5.2f} "
              f"count={state.count:4.0f} std={state.std:4.2f}")

    complaint = Complaint.too_low({"year": 1986}, "mean")
    print(f"\nComplaint: {complaint}")

    recommendation = session.recommend(complaint, k=3)
    print(f"Recommended drill-down hierarchy: "
          f"{recommendation.best_hierarchy!r}")
    print("Top groups (score = complaint after repairing the group):")
    for group in recommendation.ranked():
        print(f"  {dict(group.coordinates)}  observed mean="
              f"{group.observed['mean']:5.2f}  expected="
              f"{group.expected['mean']:5.2f}  margin gain="
              f"{group.margin_gain:6.3f}")

    top = recommendation.best_group
    assert top.coordinates["village"] == "Zata", "should find the plant!"
    print(f"\n=> Reptile points at {top.coordinates['village']!r}, "
          f"the village with the planted error.")


if __name__ == "__main__":
    main()
