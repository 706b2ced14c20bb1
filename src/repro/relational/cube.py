"""Distributive roll-up cube over a hierarchical dataset.

Reptile repeatedly evaluates group-by views at different drill-down levels
(eq. 2 of Problem 1). Because all supported aggregates are distributive
(Appendix A), every view can be derived from a single pass over the data.

The cube is columnar end to end: one vectorized composite-key pass over
the encoded dimension columns assigns every record a *leaf* group id, and
three ``np.bincount`` calls fill a struct-of-arrays
:class:`~repro.relational.aggregates.GroupStats` with each leaf's
``(count, sum, sumsq)``. Rolling up to a coarser level is another
composite-key pass over the leaf key codes plus one ``GroupStats.merge_by``
— ``G`` applied to whole levels at once — and provenance filtering
(``drilldown`` replaces R with the provenance of the complaint tuple) is a
boolean mask over the leaf code matrix. The public API is unchanged:
views still expose a ``{key: AggState}`` mapping, materialized lazily as a
view into the stats arrays (:class:`StatesMap`).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .aggregates import AggState, GroupStats
from .dataset import HierarchicalDataset
from .delta import Delta, DeltaError
from .encoding import (DictEncoding, EncodingError, combine_codes,
                       comparable_keys, decode_keys, factorize)
from .hierarchy import fd_violation

Key = tuple


class StatesMap(MappingABC):
    """A read-only ``{key: AggState}`` view into :class:`GroupStats`.

    Keeps the object-per-group API of the row engine without storing one
    object per group: ``AggState`` instances are created on access from
    the underlying stats arrays.
    """

    __slots__ = ("_keys", "_stats", "_pos")

    def __init__(self, keys: list[Key], stats: GroupStats):
        self._keys = keys
        self._stats = stats
        self._pos: dict[Key, int] | None = None

    @property
    def stats(self) -> GroupStats:
        """The underlying struct-of-arrays block."""
        return self._stats

    @property
    def key_list(self) -> list[Key]:
        """The decoded group keys, in group-id (= array row) order."""
        return self._keys

    def _positions(self) -> dict[Key, int]:
        if self._pos is None:
            self._pos = {k: i for i, k in enumerate(self._keys)}
        return self._pos

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._positions()

    def __getitem__(self, key: Key) -> AggState:
        return self._stats.state(self._positions()[key])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MappingABC):
            return dict(self) == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StatesMap(n={len(self)})"


@dataclass(frozen=True)
class GroupView:
    """A group-by view: attribute names + per-group aggregate states.

    The result of ``γ_{group_attrs, F}(σ_filters(R))`` with all base
    statistics available per group.

    Every view carries the *array-backed form*: the ``(n_groups, k)``
    matrix of encoded key codes plus the per-attribute
    :class:`~repro.relational.encoding.DictEncoding` objects, aligned with
    the :class:`GroupStats` rows behind ``groups`` (a :class:`StatesMap`).
    The recommend path (design build, repair prediction, ranking) reads
    these arrays and nothing else; the ``{key: AggState}`` mapping stays
    the compatibility API. The cube builds both at once. A view built by
    hand from a ``{key: AggState}`` mapping is encoded once, on
    construction: each key column is factorized in iteration order, the
    states become a :class:`GroupStats` block, and the keys stay as given.
    """

    group_attrs: tuple[str, ...]
    groups: Mapping[Key, AggState]
    key_codes: "np.ndarray | None" = field(default=None, compare=False,
                                           repr=False)
    encodings: "tuple[DictEncoding, ...] | None" = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.key_codes is not None:
            return
        keys = list(self.groups)
        states = [self.groups[k] for k in keys]
        stats = GroupStats(*(np.array([getattr(s, name) for s in states],
                                      dtype=float)
                             for name in ("count", "total", "sumsq")))
        encs = tuple(factorize([k[j] for k in keys])
                     for j in range(len(self.group_attrs)))
        codes = np.empty((len(keys), len(encs)), dtype=np.int32)
        for j, enc in enumerate(encs):
            codes[:, j] = enc.codes
        object.__setattr__(self, "groups", StatesMap(keys, stats))
        object.__setattr__(self, "key_codes", codes)
        object.__setattr__(self, "encodings", encs)

    @property
    def stats(self) -> GroupStats:
        """The struct-of-arrays stats block, one row per group."""
        return self.groups.stats

    @property
    def key_list(self) -> list[Key]:
        """Group keys in array-row order (= ``groups`` iteration order)."""
        return self.groups.key_list

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.groups)

    def state(self, key: Key) -> AggState:
        return self.groups.get(tuple(key), AggState())

    def total(self) -> AggState:
        """``G`` over all groups — the parent aggregate."""
        return self.groups.stats.total_state()

    def keys_matching(self, conditions: Mapping[str, object]) -> list[Key]:
        """Group keys consistent with equality conditions on view attrs."""
        checks = [(self.group_attrs.index(a), v) for a, v in conditions.items()
                  if a in self.group_attrs]
        return [k for k in self.groups
                if all(k[i] == v for i, v in checks)]

    def coordinates(self, key: Key) -> dict[str, object]:
        """The group key as an ``{attribute: value}`` mapping."""
        return dict(zip(self.group_attrs, key))


@dataclass(frozen=True, eq=False)
class CubeDelta:
    """One applied delta, summarized in the cube's (extended) code space.

    ``key_codes``/``stats`` are the distinct touched leaf keys with their
    *signed* stat deltas (retractions enter as negative counts) — exactly
    what the serving layer needs to patch cached views without seeing the
    raw rows.
    """

    key_codes: np.ndarray
    stats: GroupStats
    encodings: tuple[DictEncoding, ...]

    def matching_mask(self, positions_values: list[tuple[int, object]]
                      ) -> np.ndarray:
        """Which delta leaves satisfy ``leaf_attr[i] == value`` filters."""
        mask = np.ones(len(self.key_codes), dtype=bool)
        for i, value in positions_values:
            code = self.encodings[i].code_of(value)
            if code is None:
                return np.zeros(len(self.key_codes), dtype=bool)
            mask &= self.key_codes[:, i] == code
        return mask


def merge_stats_blocks(key_codes: np.ndarray, stats: GroupStats,
                       delta_codes: np.ndarray, delta_stats: GroupStats,
                       sizes: Sequence[int]
                       ) -> tuple[np.ndarray, GroupStats, np.ndarray | None,
                                  np.ndarray]:
    """Merge signed delta groups into an aligned (key block, stats) pair.

    The shared kernel behind ``Cube.apply_delta`` and the serving layer's
    cached-view patching: matched keys add their deltas in place, unseen
    keys append at the end, keys whose count reaches zero are dropped.
    Raises :class:`~repro.relational.delta.DeltaError` — before touching
    anything — if a count would go negative (retraction of rows that are
    not there). Returns ``(codes, stats, kept, added)`` where ``kept``
    indexes the surviving old rows (None when all survive in place) and
    ``added`` is the key-code block of the groups that appeared.
    """
    u, k = key_codes.shape
    if k == 0:
        # The grand-total view: every row (at most one per side — the
        # delta grouping already collapsed on the empty key) shares the
        # () key. comparable_keys would return length-0 key arrays here
        # and silently drop the delta.
        base_keys = np.zeros(u, dtype=np.int64)
        dkeys = np.zeros(len(delta_codes), dtype=np.int64)
    else:
        base_keys, dkeys = comparable_keys(
            [key_codes[:, j] for j in range(k)],
            [delta_codes[:, j] for j in range(k)], sizes)
    order = np.argsort(base_keys)  # keys are distinct: any sort kind
    sorted_keys = base_keys[order]
    pos = np.searchsorted(sorted_keys, dkeys)
    matched = (pos < u)
    if matched.any():
        matched[matched] = sorted_keys[pos[matched]] == dkeys[matched]
    rows = order[pos[matched]]
    fresh = ~matched
    if (delta_stats.count[fresh] < 0).any():
        raise DeltaError("retraction of leaf rows that are not present")
    # astype(float): an all-filtered-out view's bincounts can come back
    # integer-typed; the merged block is float like every other stats
    # block.
    count = stats.count.astype(float, copy=True)
    count[rows] += delta_stats.count[matched]
    if (count < 0).any():
        raise DeltaError("retraction exceeds a leaf group's row count")
    total = stats.total.astype(float, copy=True)
    sumsq = stats.sumsq.astype(float, copy=True)
    total[rows] += delta_stats.total[matched]
    sumsq[rows] += delta_stats.sumsq[matched]
    add_mask = fresh & (delta_stats.count > 0)
    added = delta_codes[add_mask]
    dropped = count == 0
    kept: np.ndarray | None = None
    if dropped.any():
        kept = np.flatnonzero(~dropped)
        key_codes = key_codes[kept]
        count, total, sumsq = count[kept], total[kept], sumsq[kept]
    if len(added):
        key_codes = np.concatenate([key_codes, added])
        count = np.concatenate([count, delta_stats.count[add_mask]])
        total = np.concatenate([total, delta_stats.total[add_mask]])
        sumsq = np.concatenate([sumsq, delta_stats.sumsq[add_mask]])
    return key_codes, GroupStats(count, total, sumsq), kept, added


class Cube:
    """Leaf-level aggregate states with distributive roll-up.

    Parameters
    ----------
    dataset:
        The hierarchical dataset to summarize. One vectorized pass over
        its relation computes the leaf stats block; every view after that
        is an array roll-up.
    """

    def __init__(self, dataset: HierarchicalDataset):
        self.dataset = dataset
        self.leaf_attrs: tuple[str, ...] = dataset.leaf_group_by()
        self._build()

    def _build(self) -> None:
        """One vectorized pass over the relation into the leaf stats block.

        Everything else in the cube only touches the
        ``_encodings``/``_key_codes``/``_stats`` arrays this produces.
        They are assigned together at the end, so a build that raises
        leaves the previous block whole.
        """
        relation = self.dataset.relation
        gidx = relation.group_index(list(self.leaf_attrs))
        stats = GroupStats.from_groups(
            gidx.gids, gidx.n_groups,
            relation.measure_array(self.dataset.measure))
        self._encodings: tuple[DictEncoding, ...] = gidx.encodings
        self._key_codes = gidx.key_codes
        self._stats = stats
        self._keys: list[Key] | None = None

    def rebuild(self) -> None:
        """Recompute the leaf block from the current relation, in place.

        The refresh path: after the dataset's relation is swapped the cube
        re-derives everything while keeping its identity (sessions and
        serving engines hold references to the cube object).
        """
        self.leaf_attrs = self.dataset.leaf_group_by()
        self._build()

    def __len__(self) -> int:
        return len(self._key_codes)

    def leaf_keys(self) -> list[Key]:
        """Distinct leaf keys, decoded once and cached."""
        if self._keys is None:
            self._keys = decode_keys(self._key_codes, self._encodings)
        return self._keys

    def cell_types(self) -> dict[str, type | None]:
        """Each leaf attribute's key cell type (None before a row)."""
        return {a: e.cell_type for a, e in zip(self.leaf_attrs,
                                               self._encodings)}

    @property
    def leaf_stats(self) -> GroupStats:
        """The leaf-level struct-of-arrays stats block."""
        return self._stats

    @property
    def leaf_states(self) -> Mapping[Key, AggState]:
        return StatesMap(self.leaf_keys(), self._stats)

    def apply_delta(self, delta: Delta) -> CubeDelta:
        """Merge a delta batch into the leaf stats — no full rebuild.

        Only the delta rows are encoded and bincounted: the dimension
        encodings extend their domains (old codes stay valid), the small
        signed stats block merges into the leaf arrays via one
        searchsorted pass, groups whose count reaches zero drop out.
        Retraction granularity is the leaf group: a retraction must not
        drive any group's count negative. The merged leaf block must
        keep every hierarchy FD (:meth:`_check_fds`), and every delta cell
        must extend its attribute's domain (a cell of another type than
        its column's cannot be a group key). Each
        failure raises :class:`DeltaError` with the
        cube untouched: nothing is assigned until every check passes.
        Returns the :class:`CubeDelta` summary the upper layers patch
        themselves with.
        """
        delta.check_against(self.dataset.relation.schema)
        appended, retracted = delta.appended, delta.retracted
        n_app, n_ret = len(appended), len(retracted)
        # Extend each leaf attribute's encoding with the delta's values.
        new_encs: list[DictEncoding] = []
        columns: list[np.ndarray] = []
        for i, attr in enumerate(self.leaf_attrs):
            enc = self._encodings[i]
            try:
                ext, app_codes = enc.extend_domain(
                    appended.column(attr) if n_app else ())
                ext, ret_codes = ext.extend_domain(
                    retracted.column(attr) if n_ret else ())
            except EncodingError as exc:
                raise DeltaError(f"{attr!r} cell cannot be a group key: "
                                 f"{exc}") from None
            new_encs.append(ext)
            columns.append(np.concatenate([app_codes, ret_codes]))
        sizes = [e.cardinality for e in new_encs]
        sign = np.concatenate([np.ones(n_app), -np.ones(n_ret)])
        values = np.concatenate([
            appended.measure_array(self.dataset.measure) if n_app
            else np.empty(0),
            retracted.measure_array(self.dataset.measure) if n_ret
            else np.empty(0)])
        gids, delta_codes = combine_codes(columns, sizes, n_app + n_ret)
        delta_stats = GroupStats(
            np.bincount(gids, weights=sign, minlength=len(delta_codes)),
            np.bincount(gids, weights=sign * values,
                        minlength=len(delta_codes)),
            np.bincount(gids, weights=sign * values * values,
                        minlength=len(delta_codes)))
        key_codes, stats, _, added = merge_stats_blocks(
            self._key_codes, self._stats, delta_codes, delta_stats, sizes)
        if len(added):
            self._check_fds(key_codes, new_encs, added)
        self._encodings = tuple(new_encs)
        self._key_codes = key_codes
        self._stats = stats
        self._keys = None  # decoded-key cache is stale
        return CubeDelta(delta_codes, delta_stats, self._encodings)

    def _check_fds(self, key_codes: np.ndarray,
                   encodings: Sequence[DictEncoding],
                   added: np.ndarray) -> None:
        """Raise :class:`DeltaError` unless every hierarchy FD
        ``A_{i+1} → A_i`` holds on the merged leaf block ``key_codes``.

        Registration's rule (:func:`~.hierarchy.fd_violation`), over
        leaf keys instead of rows. The leaves that were already there
        satisfy every FD, so a violation needs an ``added`` leaf: only
        the leaves sharing a child code with one are checked. A leaf
        whose last row the same delta retracted is gone, so its child
        may reappear under another parent.
        """
        for h in self.dataset.dimensions:
            for parent, child in zip(h.attributes, h.attributes[1:]):
                p = self.leaf_attrs.index(parent)
                c = self.leaf_attrs.index(child)
                named = np.zeros(encodings[c].cardinality, dtype=bool)
                named[added[:, c]] = True
                rows = np.flatnonzero(named[key_codes[:, c]])
                parents, children = key_codes[rows, p], key_codes[rows, c]
                bad = fd_violation(parents, children, len(named))
                if bad is None:
                    continue
                first = int(np.argmax(children == children[bad]))
                domain = encodings[p].domain
                raise DeltaError(
                    f"appended rows violate hierarchy {h.name!r}: {child} "
                    f"{encodings[c].domain[children[bad]]!r} maps to both "
                    f"{parent} {domain[parents[first]]!r} and "
                    f"{domain[parents[bad]]!r}")

    def view(self, group_attrs: Sequence[str],
             filters: Mapping[str, object] | None = None) -> GroupView:
        """Roll up to ``group_attrs``, keeping only leaves matching ``filters``.

        ``filters`` may reference any dimension attribute (not only grouped
        ones) — that is exactly the provenance filter of a drill-down on a
        complaint tuple.
        """
        group_attrs = tuple(group_attrs)
        positions = [self.leaf_attrs.index(a) for a in group_attrs]
        key_codes, stats = self._key_codes, self._stats
        mask: np.ndarray | None = None
        for attr, value in (filters or {}).items():
            i = self.leaf_attrs.index(attr)
            code = self._encodings[i].code_of(value)
            if code is None:
                hit = np.zeros(len(key_codes), dtype=bool)
            else:
                hit = key_codes[:, i] == code
            mask = hit if mask is None else mask & hit
        if mask is not None:
            idx = np.flatnonzero(mask)
            key_codes = key_codes[idx]
            stats = stats.select(idx)
        encs = [self._encodings[p] for p in positions]
        gids, out_codes = combine_codes(
            [key_codes[:, p] for p in positions],
            [e.cardinality for e in encs], len(key_codes))
        out_stats = stats.merge_by(gids, len(out_codes))
        keys = decode_keys(out_codes, encs)
        return GroupView(group_attrs, StatesMap(keys, out_stats),
                         key_codes=out_codes, encodings=tuple(encs))

    def group_state(self, coordinates: Mapping[str, object]) -> AggState:
        """Aggregate state of the single group identified by ``coordinates``."""
        attrs = tuple(coordinates)
        view = self.view(attrs)
        return view.state(tuple(coordinates[a] for a in attrs))

    def drilldown_view(self, group_attrs: Sequence[str], next_attr: str,
                       complaint_coords: Mapping[str, object]) -> GroupView:
        """The paper's ``drilldown(V, t, H)`` (Example 7).

        Adds ``next_attr`` to the group-by and restricts the input to the
        provenance of the complaint tuple (its coordinate filter).
        """
        attrs = tuple(group_attrs) + (next_attr,)
        return self.view(attrs, filters=dict(complaint_coords))

    def parallel_view(self, group_attrs: Sequence[str], next_attr: str
                      ) -> GroupView:
        """All parallel groups at the drilled level (§3.2, training data)."""
        return self.view(tuple(group_attrs) + (next_attr,))
