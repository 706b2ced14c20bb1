"""Row-at-a-time reference implementations of the hot relational kernels.

This module freezes the pre-columnar semantics of the engine: every
function here is the per-row Python-loop implementation that
:class:`~repro.relational.relation.Relation` and
:class:`~repro.relational.cube.Cube` used before the dictionary-encoded
core landed. (The counted relations need no copy here: the dict
:class:`~repro.relational.countmap.CountMap` runs only its §2.2 loops,
so it is itself the reference ``EncodedCountMap`` is checked against.)
They exist for two reasons:

* **ground truth** — the property tests assert that the vectorized
  kernels produce exactly the results these loops produce on random
  inputs;
* **benchmarking** — ``benchmarks/bench_fig17_columnar.py`` measures the
  columnar speedup against these loops on identical data.

Nothing in the engine itself calls into this module; do not "optimize"
it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .aggregates import AggState
from .relation import Key, Relation


def group_rows(relation: Relation, names: Sequence[str]
               ) -> dict[Key, list[int]]:
    """Per-row loop building ``{key: [row indices]}``."""
    groups: dict[Key, list[int]] = {}
    for i, key in enumerate(relation.key_tuples(list(names))):
        groups.setdefault(key, []).append(i)
    return groups


def group_measure(relation: Relation, names: Sequence[str], measure: str
                  ) -> dict[Key, np.ndarray]:
    col = relation.measure_array(measure)
    return {key: col[idx]
            for key, idx in group_rows(relation, names).items()}


def group_states(relation: Relation, names: Sequence[str], measure: str
                 ) -> dict[Key, AggState]:
    """One :class:`AggState` object per group, the old leaf-cube pass."""
    col = relation.measure_array(measure)
    return {key: AggState.of(col[idx])
            for key, idx in group_rows(relation, names).items()}


def leaf_states(dataset) -> dict[Key, AggState]:
    """The pre-columnar ``Cube.__init__`` body."""
    return group_states(dataset.relation, list(dataset.leaf_group_by()),
                        dataset.measure)


def rollup_view(leaf: Mapping[Key, AggState], leaf_attrs: Sequence[str],
                group_attrs: Sequence[str],
                filters: Mapping[str, Any] | None = None
                ) -> dict[Key, AggState]:
    """The pre-columnar ``Cube.view`` loop over leaf states."""
    leaf_attrs = tuple(leaf_attrs)
    positions = [leaf_attrs.index(a) for a in group_attrs]
    checks = [(leaf_attrs.index(a), v) for a, v in (filters or {}).items()]
    out: dict[Key, AggState] = {}
    for leaf_key, state in leaf.items():
        if any(leaf_key[i] != v for i, v in checks):
            continue
        key = tuple(leaf_key[p] for p in positions)
        prev = out.get(key)
        out[key] = state if prev is None else prev.merge(state)
    return out


def filter_equals(relation: Relation, conditions: Mapping[str, Any]
                  ) -> Relation:
    """Per-row equality scan."""
    if not conditions:
        return relation
    keep = None
    for name, value in conditions.items():
        col = relation.key_tuples([name])
        matches = {i for i, (v,) in enumerate(col) if v == value}
        keep = matches if keep is None else keep & matches
    rows = [relation.row(i) for i in sorted(keep or ())]
    return Relation.from_rows(relation.schema, rows)
