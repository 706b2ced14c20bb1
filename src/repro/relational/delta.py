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
on **every** column (``==`` per cell, so the measure's ``7`` finds
``7.0``, but a key cell must have its column's cell type: a retracted
``1984.0`` in an int year is a :class:`DeltaError`). Duplicate rows are
a bag — retracting removes the earliest matches in storage order. A
retraction that cannot be matched raises :class:`DeltaError` before
anything is mutated. The frozen row-at-a-time counterpart of this
contract lives in :mod:`repro.relational.deltaref`; property tests
assert both agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .encoding import EncodingError, comparable_keys
from .relation import Relation
from .schema import Schema


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
        """Build a delta from plain row tuples."""
        return cls(Relation.from_rows(schema, appended),
                   Relation.from_rows(schema, retracted))

    def __post_init__(self) -> None:
        if self.appended.schema.names != self.retracted.schema.names:
            raise DeltaError("append and retract schemas differ")

    @property
    def schema(self) -> Schema:
        return self.appended.schema

    def is_empty(self) -> bool:
        return not len(self.appended) and not len(self.retracted)

    def check_against(self, schema: Schema) -> None:
        """Raise unless this delta targets ``schema``."""
        if self.schema.names != schema.names:
            raise DeltaError(
                f"delta schema {list(self.schema.names)} does not match "
                f"relation schema {list(schema.names)}")


def locate_rows(relation: Relation, retracted: Relation,
                keys: Collection[str] = ()) -> np.ndarray:
    """Base row indices matching each retracted row (bag semantics).

    Matches on every column; for duplicated rows the *earliest* matching
    rows in storage order are taken, one per retracted occurrence.
    Two-phase: the columns stored as codes (the dimensions the engine
    has interned) find the candidate rows, and the other columns
    (typically the measure) are compared per candidate — so retraction
    never dictionary-encodes a measure column just to throw the encoding
    away. Candidates come from a composite-key index over the base rows
    (:class:`~repro.relational.encoding.KeyIndex`), built on the first
    retraction and shared by every relation derived from that base, plus
    a vectorized scan of the rows appended since; retracted rows are
    skipped. A relation with pending appends and retractions is never
    materialized. A cold relation, with no column interned yet, interns
    what it can first (if nothing, every live row is a candidate).

    A retracted cell of a ``keys`` column (a dataset's hierarchy
    attributes) must have that column's cell type, and a key column of
    a cold relation must intern (:class:`EncodingError` otherwise); any
    other column is compared with ``==``, so it takes any cell. Raises
    :class:`DeltaError` for a retracted key cell of another type, or
    when any retraction finds no row left.
    """
    if not len(retracted):
        return np.empty(0, dtype=np.int64)
    names = list(relation.schema.names)
    storage = relation._storage()
    keyed = storage.encoded()
    if not keyed:  # a cold relation: intern what can be interned
        for n in names:
            try:
                relation.encoding(n)
            except EncodingError:
                if n in keys:
                    raise
        storage = relation._storage()
        keyed = storage.encoded()
    rest = [n for n in names if n not in keyed]
    heads = [storage.columns[n].head for n in keyed]
    # Retracted values are looked up per column: a value absent from the
    # current domain cannot identify any row, and one that cannot be a
    # cell of a key column (another type, NaN) is a bad request.
    n_ret = len(retracted)
    ret_codes = []
    missing = np.zeros(n_ret, dtype=bool)
    for head, name in zip(heads, keyed):
        codes = np.zeros(n_ret, dtype=np.int64)
        for i, value in enumerate(retracted.column(name)):
            try:
                code = head.code_of(value)
            except EncodingError as exc:
                if name in keys:
                    raise DeltaError(
                        f"retracted {name!r} cell {value!r}: {exc}") from None
                code = head.find(value)
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
            ok = True
            for n in rest:
                try:
                    ok = rest_values[n][idx] == ret_rest[n][i]
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    break
            if ok:
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
