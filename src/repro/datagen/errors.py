"""Group-wise error injection (§5.2.1 "Error Generation").

The error classes evaluated in Figures 11–12:

* **Missing** — delete half of a group's rows (COUNT too low);
* **Dup** — duplicate half of a group's rows (COUNT too high);
* **↑ / ↓ drift** — shift all of a group's measure values by ±δ (default 5,
  the paper's "subtle systematic value error");
* combinations (Missing+↓, Dup+↑) complained about through SUM.

Each injector takes and returns a :class:`Relation`; :func:`corrupt`
applies a list of :class:`ErrorSpec` and reports what it did, giving the
benchmarks their ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..relational.relation import Relation

DEFAULT_DRIFT = 5.0
DEFAULT_FRACTION = 0.5


class ErrorKind(enum.Enum):
    MISSING = "missing"
    DUPLICATION = "duplication"
    DRIFT_UP = "drift_up"
    DRIFT_DOWN = "drift_down"


@dataclass(frozen=True)
class ErrorSpec:
    """One injected error: a kind applied to one group."""

    kind: ErrorKind
    group: Mapping  # {attribute: value} identifying the group
    magnitude: float = DEFAULT_DRIFT     # drift delta (ignored for rows)
    fraction: float = DEFAULT_FRACTION   # row fraction (ignored for drift)


def _group_indices(relation: Relation, group: Mapping) -> list[int]:
    checks = [(attr, value) for attr, value in group.items()]
    cols = {attr: relation.column(attr) for attr, _ in checks}
    return [i for i in range(len(relation))
            if all(cols[a][i] == v for a, v in checks)]


def inject_missing(relation: Relation, group: Mapping,
                   fraction: float = DEFAULT_FRACTION) -> Relation:
    """Delete the first ``fraction`` of the group's rows."""
    idx = _group_indices(relation, group)
    drop = set(idx[:int(len(idx) * fraction)])
    keep = np.asarray([i for i in range(len(relation)) if i not in drop],
                      dtype=np.int64)
    return relation._take(keep)


def inject_duplicates(relation: Relation, group: Mapping,
                      fraction: float = DEFAULT_FRACTION) -> Relation:
    """Duplicate the first ``fraction`` of the group's rows."""
    idx = _group_indices(relation, group)
    extra = idx[:int(len(idx) * fraction)]
    order = np.concatenate([np.arange(len(relation), dtype=np.int64),
                            np.asarray(extra, dtype=np.int64)])
    return relation._take(order)


def inject_drift(relation: Relation, group: Mapping, measure: str,
                 delta: float) -> Relation:
    """Shift the group's measure values by ``delta`` (±)."""
    idx = set(_group_indices(relation, group))
    values = list(relation.column(measure))
    for i in idx:
        values[i] = values[i] + delta
    cols = {name: relation.column(name)
            for name in relation.schema.names}
    cols[measure] = values
    return Relation(relation.schema, cols)


def apply_error(relation: Relation, spec: ErrorSpec, measure: str) -> Relation:
    if spec.kind is ErrorKind.MISSING:
        return inject_missing(relation, spec.group, spec.fraction)
    if spec.kind is ErrorKind.DUPLICATION:
        return inject_duplicates(relation, spec.group, spec.fraction)
    if spec.kind is ErrorKind.DRIFT_UP:
        return inject_drift(relation, spec.group, measure, +spec.magnitude)
    if spec.kind is ErrorKind.DRIFT_DOWN:
        return inject_drift(relation, spec.group, measure, -spec.magnitude)
    raise ValueError(f"unknown error kind {spec.kind}")


@dataclass
class CorruptionReport:
    """What :func:`corrupt` injected, for ground-truth bookkeeping."""

    relation: Relation
    specs: list[ErrorSpec] = field(default_factory=list)

    def true_groups(self) -> list[tuple]:
        """Corrupted group keys (values in spec order)."""
        return [tuple(s.group.values()) for s in self.specs]


def corrupt(relation: Relation, specs: Sequence[ErrorSpec],
            measure: str) -> CorruptionReport:
    """Apply every spec in order and return the corrupted relation."""
    out = relation
    for spec in specs:
        out = apply_error(out, spec, measure)
    return CorruptionReport(out, list(specs))


#: The six §5.2.2 error conditions: name -> (error kinds, complaint spec).
#: The complaint spec is (aggregate, direction) where direction follows the
#: ground truth (missing lowers COUNT, drift-up raises MEAN, ...).
CONDITIONS: dict[str, tuple[tuple[ErrorKind, ...], tuple[str, str]]] = {
    "Missing (count)": ((ErrorKind.MISSING,), ("count", "low")),
    "Dup (count)": ((ErrorKind.DUPLICATION,), ("count", "high")),
    "Increase (mean)": ((ErrorKind.DRIFT_UP,), ("mean", "high")),
    "Decrease (mean)": ((ErrorKind.DRIFT_DOWN,), ("mean", "low")),
    "Missing+Decrease (sum)": ((ErrorKind.MISSING, ErrorKind.DRIFT_DOWN),
                               ("sum", "low")),
    "Dup+Increase (sum)": ((ErrorKind.DUPLICATION, ErrorKind.DRIFT_UP),
                           ("sum", "high")),
}
