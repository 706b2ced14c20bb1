"""Row-at-a-time rebuild-from-scratch reference for the delta engine.

This module freezes the *semantics* of applying a delta: retract the
earliest ``==``-matching base rows (bag multiplicity, every column must
match, NaN never matches), then append the new rows, then rebuild every
derived structure from the resulting rows as if the engine had been
constructed on them. The property tests assert that the incremental
path — ``Relation.with_rows_appended`` / ``Cube.apply_delta`` /
``Reptile.apply_delta`` and the serving cache patches — produces exactly
what these loops produce (bitwise on counts and, for exactly-representable
measure sums, on totals and sums of squares).

Nothing in the engine calls into this module; do not "optimize" it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .dataset import HierarchicalDataset
from .delta import Delta, DeltaError
from .relation import Relation
from . import rowref

Key = tuple


def apply_delta_rows(relation: Relation, delta: Delta) -> Relation:
    """The delta applied by per-row Python loops on materialized tuples."""
    if delta.schema.names != relation.schema.names:
        raise DeltaError("delta schema does not match the relation")
    rows = [tuple(r) for r in relation.rows()]
    taken: set[int] = set()
    for target in delta.retracted.rows():
        for i, row in enumerate(rows):
            if i in taken:
                continue
            try:
                hit = len(row) == len(target) and all(
                    a == b for a, b in zip(row, target))
            except (TypeError, ValueError):
                hit = False
            if hit:
                taken.add(i)
                break
        else:
            raise DeltaError(
                f"retracted row {tuple(target)!r} matches no base row")
    rows = [row for i, row in enumerate(rows) if i not in taken]
    rows.extend(tuple(r) for r in delta.appended.rows())
    return Relation.from_rows(relation.schema, rows)


def rebuilt_dataset(dataset: HierarchicalDataset,
                    deltas: Iterable[Delta]) -> HierarchicalDataset:
    """A fresh dataset over the rows after applying ``deltas`` in order.

    Hierarchy validation runs: post-delta rows that break any hierarchy
    FD make the rebuild raise, mirroring the delta path's rejection.
    """
    relation = dataset.relation
    for delta in deltas:
        relation = apply_delta_rows(relation, delta)
    return HierarchicalDataset(relation, dataset.dimensions,
                               dataset.measure,
                               auxiliary=list(dataset.auxiliary.values()))


def rebuilt_leaf_states(dataset: HierarchicalDataset) -> dict:
    """Leaf states rebuilt from scratch with the pre-columnar loops."""
    return rowref.leaf_states(dataset)


def rebuilt_view(dataset: HierarchicalDataset, group_attrs: Sequence[str],
                 filters=None) -> dict:
    """One group-by view rebuilt from scratch (loops all the way down)."""
    return rowref.rollup_view(rowref.leaf_states(dataset),
                              dataset.leaf_group_by(), tuple(group_attrs),
                              filters)


def state_signature(state) -> tuple:
    """An AggState as a hashable, bitwise-exact triple."""
    return (state.count, state.total, state.sumsq)


def group_signature(groups) -> dict:
    """A ``{key: AggState}``-like mapping as comparable signatures.

    Keys are rendered through ``repr`` so NaN-bearing keys (equal only
    by identity) can be compared across independently built mappings:
    two sides agree iff they hold the same multiset of
    ``(repr(key), (count, total, sumsq))`` pairs.
    """
    out: dict = {}
    for key, state in groups.items():
        sig = (repr(key), state_signature(state))
        out[sig] = out.get(sig, 0) + 1
    return out


def assert_groups_equal(incremental, rebuilt) -> None:
    """Exact group-level equality, tolerant of NaN keys and key order."""
    a, b = group_signature(incremental), group_signature(rebuilt)
    assert a == b, (
        f"group mismatch: only-incremental="
    f"{sorted(set(a) - set(b))[:5]} only-rebuilt={sorted(set(b) - set(a))[:5]}")
