"""Deltas: append/retract batches threaded through every engine layer.

A :class:`Delta` is a pair of small relations over the base schema —
rows to append and rows to retract. The delta-update engine applies one
to every derived structure *incrementally* instead of rebuilding:

* the relation records the delta in O(delta): it shares its parent's
  column storage, keeps appended rows as a tail (each batch encoded at
  append time against the extended domains, old codes untouched) and
  retracted rows as sorted dead positions, and materializes whole
  columns only when a reader needs them, or when the pending rows
  outnumber the base rows (compaction, amortized O(1) per row);
* :func:`locate_rows` finds retracted rows through a composite-key
  index over the base rows, built once per base and shared by every
  relation derived from it, plus a scan of the appended tail;
* the cube bincounts only the delta batch and merges the leaf stats,
  retractions entering as negative counts, then checks every hierarchy
  FD on the merged leaf keys, the rule registration checks on rows;
* the serving cache patches or retains entries instead of dropping a
  whole fingerprint generation.

Retraction semantics: each retracted row must match an existing base row
on **every** column: a measure compares as a float (both sides are typed
``float64`` when the relations are built, so a retracted ``7`` finds a
stored ``7.0``), and a key cell must have its column's cell type (a
retracted ``1984.0`` in an int year is a :class:`DeltaError`). Duplicate
rows are a bag — retracting removes the earliest matches in storage
order. A retraction that cannot be matched raises :class:`DeltaError`
before anything is mutated. The frozen row-at-a-time counterpart of this
contract lives in :mod:`repro.relational.deltaref`; property tests
assert both agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .encoding import EncodingError, comparable_keys
from .relation import Relation
from .schema import Schema, SchemaError


class DeltaError(ValueError):
    """Raised for malformed deltas or unmatchable retractions."""


@dataclass(frozen=True)
class Delta:
    """Appended and retracted leaf rows, both over the base schema."""

    appended: Relation
    retracted: Relation

    @classmethod
    def from_rows(cls, schema: Schema | Sequence,
                  appended: Iterable[Sequence] = (),
                  retracted: Iterable[Sequence] = ()) -> "Delta":
        """Build a delta from plain row tuples, each column typed as
        ``schema`` says (:class:`Relation`); a cell its column cannot
        take raises :class:`DeltaError` naming the column."""
        sides = []
        for side, rows in (("appended", appended), ("retracted", retracted)):
            try:
                sides.append(Relation.from_rows(schema, rows))
            except (EncodingError, SchemaError) as exc:
                raise DeltaError(f"{side} rows: {exc}") from None
        return cls(*sides)

    def __post_init__(self) -> None:
        if self.appended.schema != self.retracted.schema:
            raise DeltaError("append and retract schemas differ")

    @property
    def schema(self) -> Schema:
        return self.appended.schema

    def is_empty(self) -> bool:
        return not len(self.appended) and not len(self.retracted)

    def check_against(self, schema: Schema) -> None:
        """Raise unless this delta targets ``schema``."""
        if self.schema != schema:
            ours, theirs = ([f"{a.name}:{a.kind.value}" for a in s]
                            for s in (self.schema, schema))
            raise DeltaError(f"delta schema {ours} does not match "
                             f"relation schema {theirs}")


def locate_rows(relation: Relation, retracted: Relation) -> np.ndarray:
    """Base row indices matching each retracted row (bag semantics).

    Matches on every column; for duplicated rows the *earliest* matching
    rows in storage order are taken, one per retracted occurrence.
    Two-phase: the key columns, stored as codes, find the candidate rows,
    and the measures are compared as floats per candidate. Candidates
    come from a composite-key index over the base rows
    (:class:`~repro.relational.encoding.KeyIndex`), built on the first
    retraction and shared by every relation derived from that base, plus
    a vectorized scan of the rows appended since; retracted rows are
    skipped. A relation with pending appends and retractions is never
    materialized.

    Raises :class:`DeltaError` for a retracted key cell of another type
    than its column's, or when any retraction finds no row left.
    """
    if not len(retracted):
        return np.empty(0, dtype=np.int64)
    storage = relation._storage()
    keyed = [n for n, col in storage.columns.items() if col.head is not None]
    rest = [n for n, col in storage.columns.items() if col.head is None]
    heads = [storage.columns[n].head for n in keyed]
    # Retracted values are looked up per column: a value absent from the
    # current domain cannot identify any row, and one that cannot be a
    # cell of the column (another type) is a bad request.
    n_ret = len(retracted)
    ret_codes = []
    missing = np.zeros(n_ret, dtype=bool)
    for head, name in zip(heads, keyed):
        codes = np.zeros(n_ret, dtype=np.int64)
        for i, value in enumerate(retracted.column(name)):
            try:
                code = head.code_of(value)
            except EncodingError as exc:
                raise DeltaError(
                    f"retracted {name!r} cell {value!r}: {exc}") from None
            if code is None:
                missing[i] = True
            else:
                codes[i] = code
        ret_codes.append(codes)
    if missing.any():
        i = int(np.flatnonzero(missing)[0])
        raise DeltaError(
            f"retracted row {retracted.row(i)!r} matches no base row")
    if keyed:
        candidates = _candidates(storage, keyed, heads, ret_codes)
    else:
        live = storage.live()
        candidates = [np.arange(storage.n_base + storage.n_tail)
                      if live is None else live] * n_ret
    positions = np.unique(np.concatenate(candidates))
    rest_values = {n: dict(zip(positions.tolist(),
                               storage.columns[n].cells(positions,
                                                        storage.n_base)))
                   for n in rest}
    taken: set[int] = set()
    out: list[int] = []
    ret_rest = {n: retracted.column(n) for n in rest}
    for i, rows in enumerate(candidates):
        hit = None
        exhausted = False
        for idx in rows.tolist():
            if all(rest_values[n][idx] == ret_rest[n][i] for n in rest):
                if idx in taken:
                    exhausted = True  # a copy exists but is spoken for
                    continue
                hit = idx
                break
        if hit is None:
            raise DeltaError(
                f"retracted row {retracted.row(i)!r} "
                + ("exceeds the base multiplicity" if exhausted
                   else "matches no base row"))
        taken.add(hit)
        out.append(hit)
    return np.sort(storage.logical(np.asarray(out, dtype=np.int64)))


def _candidates(storage, keyed: list[str], heads: list,
                ret_codes: list[np.ndarray]) -> list[np.ndarray]:
    """Live physical rows matching each retracted row's keyed codes.

    Base rows come from the base's shared key index, appended rows from
    a vectorized scan of the tail; either way ascending, so the caller's
    first acceptable candidate is the earliest match.
    """
    base_rows = storage.key_index(keyed).rows(ret_codes)
    if storage.n_tail:
        # One gather per keyed column narrows the tail to the rows whose
        # every code some retraction names; only those few are keyed.
        named_everywhere = np.ones(storage.n_tail, dtype=bool)
        for name, head, codes in zip(keyed, heads, ret_codes):
            named = np.zeros(head.cardinality, dtype=bool)
            named[codes] = True
            named_everywhere &= np.take(named, storage.columns[name].tail)
        hits = np.flatnonzero(named_everywhere)
        hit_keys, ret_keys = comparable_keys(
            [storage.columns[n].tail[hits] for n in keyed], ret_codes,
            [h.cardinality for h in heads])
        by_key: dict[int, list[int]] = {}
        for pos, key in zip((hits + storage.n_base).tolist(),
                            hit_keys.tolist()):
            by_key.setdefault(key, []).append(pos)
        base_rows = [np.concatenate([rows, np.asarray(by_key[key],
                                                      dtype=np.int64)])
                     if key in by_key else rows
                     for rows, key in zip(base_rows, ret_keys.tolist())]
    dead = storage.dead
    if not len(dead):
        return base_rows
    live = []
    for rows in base_rows:
        slot = np.minimum(np.searchsorted(dead, rows), len(dead) - 1)
        live.append(rows[dead[slot] != rows])
    return live
