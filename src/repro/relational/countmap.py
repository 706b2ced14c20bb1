"""Counted relations and the f-representation operators of §2.2.

A :class:`CountMap` is a relation annotated with multiplicities: a mapping
from tuple to count, ``{(v1, ..., vk): c}``. Section 2.2 of the paper defines
two operators over counted relations, which we implement verbatim:

* **join-multiply** ``(R ⨝ T)[t] = R[π_S1(t)] · T[π_S2(t)]`` — counts of
  matching tuples multiply through a natural join;
* **marginalize** ``(⊕_X R)[t] = Σ { R[t1] | π_{S1∖{X}}(t1) = t }`` — sum the
  counts of tuples that agree on everything but ``X``.

Early marginalization (Example 5) — pushing ``⊕`` through ``⨝`` when the
marginalized attribute is not referenced later — is a rewrite the multi-query
planner applies; the operators here just provide the algebra.

The two classes split the work. :class:`CountMap` runs the operators as
the plain dict loops of the definitions above and nothing else: it is
the reference the array form is checked against, and no served module
imports it. :class:`EncodedCountMap` is the array form the factorised
§4 pipeline computes with.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .. import kernels
from .encoding import (_RADIX_LIMIT, combine_codes, combine_radix,
                       comparable_keys)

Key = tuple


class CountMapError(ValueError):
    """Raised on schema mismatches between counted relations."""


class CountMap:
    """A counted relation: schema + ``{tuple: multiplicity}``.

    Tuples follow the schema's attribute order. Counts are floats so the
    drill-down optimizer's scalar "zoom" rescaling (Appendix J) composes
    cleanly with exact integer counts.
    """

    __slots__ = ("schema", "data")

    def __init__(self, schema: Iterable[str], data: Mapping[Key, float] | None = None):
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise CountMapError(f"duplicate attributes in schema {self.schema}")
        self.data: dict[Key, float] = dict(data or {})

    # -- constructors -------------------------------------------------------------
    @classmethod
    def unary(cls, attribute: str, values: Iterable, count: float = 1.0) -> "CountMap":
        """``{(v): count}`` for every value — the paper's unary relation."""
        return cls((attribute,), {(v,): count for v in values})

    @classmethod
    def from_rows(cls, schema: Iterable[str], rows: Iterable[Key]) -> "CountMap":
        """Counted relation from a bag of rows (count = multiplicity)."""
        out = cls(schema)
        for row in rows:
            out.add(tuple(row), 1.0)
        return out

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.data)

    def __getitem__(self, key: Key) -> float:
        return self.data.get(tuple(key), 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMap):
            return NotImplemented
        if set(self.schema) != set(other.schema):
            return False
        # Compare under a common attribute order.
        other_aligned = other.reorder(self.schema)
        a = {k: v for k, v in self.data.items() if v != 0}
        b = {k: v for k, v in other_aligned.data.items() if v != 0}
        return a == b

    def __repr__(self) -> str:
        return f"CountMap({list(self.schema)}, n={len(self.data)})"

    def add(self, key: Key, count: float) -> None:
        key = tuple(key)
        if len(key) != len(self.schema):
            raise CountMapError(
                f"tuple width {len(key)} does not match schema {self.schema}")
        self.data[key] = self.data.get(key, 0.0) + count

    def total(self) -> float:
        """Sum of all multiplicities (marginalize everything)."""
        return float(sum(self.data.values()))

    def reorder(self, schema: Iterable[str]) -> "CountMap":
        """Same counted relation under a different attribute order."""
        schema = tuple(schema)
        if set(schema) != set(self.schema):
            raise CountMapError(
                f"cannot reorder {self.schema} as {schema}")
        pos = [self.schema.index(a) for a in schema]
        return CountMap(schema,
                        {tuple(k[p] for p in pos): v for k, v in self.data.items()})

    # -- operators (§2.2) -----------------------------------------------------------
    def join(self, other: "CountMap") -> "CountMap":
        """Join-multiply ``self ⨝ other``.

        Counts multiply on matching join keys. With disjoint schemas this
        is the (counted) cartesian product.
        """
        shared = tuple(a for a in self.schema if a in other.schema)
        out_schema = self.schema + tuple(
            a for a in other.schema if a not in shared)
        out = CountMap(out_schema)
        if not shared:
            for lk, lc in self.data.items():
                for rk, rc in other.data.items():
                    out.add(lk + rk, lc * rc)
            return out
        left_pos = [self.schema.index(a) for a in shared]
        right_pos = [other.schema.index(a) for a in shared]
        right_rest = [i for i in range(len(other.schema)) if i not in right_pos]
        index: dict[Key, list[tuple[Key, float]]] = {}
        for rk, rc in other.data.items():
            jk = tuple(rk[p] for p in right_pos)
            rest = tuple(rk[p] for p in right_rest)
            index.setdefault(jk, []).append((rest, rc))
        for lk, lc in self.data.items():
            jk = tuple(lk[p] for p in left_pos)
            for rest, rc in index.get(jk, ()):
                out.add(lk + rest, lc * rc)
        return out

    def marginalize(self, attribute: str) -> "CountMap":
        """``⊕_attribute self``: sum counts over one attribute."""
        if attribute not in self.schema:
            raise CountMapError(
                f"attribute {attribute!r} not in schema {self.schema}")
        drop = self.schema.index(attribute)
        out_schema = tuple(a for i, a in enumerate(self.schema) if i != drop)
        out = CountMap(out_schema)
        for key, count in self.data.items():
            out.add(key[:drop] + key[drop + 1:], count)
        return out

    def marginalize_all(self, attributes: Iterable[str]) -> "CountMap":
        """Marginalize a set of attributes (order-insensitive)."""
        out = self
        for a in attributes:
            out = out.marginalize(a)
        return out

    def project_keep(self, attributes: Iterable[str]) -> "CountMap":
        """Marginalize everything *except* ``attributes``."""
        keep = set(attributes)
        return self.marginalize_all([a for a in self.schema if a not in keep])

    def scale(self, factor: float) -> "CountMap":
        """All multiplicities times a scalar — the O(1) "zoom" of Appendix J.

        (The caller is expected to keep the scalar symbolic where possible;
        this method materializes it when a concrete map is required.)
        """
        return CountMap(self.schema, {k: v * factor for k, v in self.data.items()})

    def as_unary_dict(self) -> dict:
        """For unary maps: ``{value: count}``."""
        if len(self.schema) != 1:
            raise CountMapError(f"not a unary count map: schema {self.schema}")
        return {k[0]: v for k, v in self.data.items()}


class EncodedCountMap:
    """A counted relation in code-indexed array form (§4.2–§4.4 hot path).

    Keys are stored as one ``int32`` code column per attribute (codes index
    into a shared, ordered ``domain`` list) plus one aligned float count
    vector — a COO layout. Unary maps whose codes are ``0..|dom|-1`` are the
    dense per-attribute vectors the factorized aggregate family consists
    of; binary COFs stay sparse code-pair arrays. Every operator here is
    an array kernel (sort-merge joins through ``kernels.join_multiply``,
    ``bincount`` marginalization) at every size, with no dict round-trip;
    :class:`CountMap`'s dict loops are the reference it must equal.

    Invariants: code tuples are distinct (inputs with unique keys stay
    unique through join/marginalize), and ``domains`` entries are plain
    Python lists shared by reference — two maps over the same attribute of
    one :class:`~repro.factorized.forder.HierarchyPaths` share the *same*
    list object, so joins skip domain alignment entirely.
    """

    __slots__ = ("schema", "domains", "key_codes", "counts", "_positions",
                 "_index")

    def __init__(self, schema: Iterable[str], domains: Sequence[list],
                 key_codes: Sequence[np.ndarray], counts: np.ndarray):
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise CountMapError(f"duplicate attributes in schema {self.schema}")
        self.domains: tuple[list, ...] = tuple(domains)
        self.key_codes: tuple[np.ndarray, ...] = tuple(
            np.asarray(c, dtype=np.int32).reshape(-1) for c in key_codes)
        self.counts: np.ndarray = np.asarray(counts, dtype=float).reshape(-1)
        if len(self.domains) != len(self.schema) \
                or len(self.key_codes) != len(self.schema):
            raise CountMapError(
                f"schema {self.schema} needs one domain and one code column "
                f"per attribute")
        for c in self.key_codes:
            if len(c) != len(self.counts):
                raise CountMapError("code columns misaligned with counts")
        self._positions: list[dict | None] = [None] * len(self.schema)
        self._index: dict | None = None

    # -- constructors -------------------------------------------------------------
    @classmethod
    def _make(cls, schema: tuple[str, ...], domains: tuple[list, ...],
              key_codes: tuple[np.ndarray, ...],
              counts: np.ndarray) -> "EncodedCountMap":
        """Trusted constructor for kernel outputs (invariants hold by
        construction; skips the public constructor's validation passes)."""
        out = object.__new__(cls)
        out.schema = schema
        out.domains = domains
        out.key_codes = key_codes
        out.counts = counts
        out._positions = [None] * len(schema)
        out._index = None
        return out

    @classmethod
    def dense_unary(cls, attribute: str, domain: list,
                    counts: np.ndarray | None = None) -> "EncodedCountMap":
        """``{domain[k]: counts[k]}`` with codes ``0..|dom|-1`` (dense)."""
        n = len(domain)
        if counts is None:
            counts = np.ones(n)
        return cls._make((attribute,), (domain,),
                         (np.arange(n, dtype=np.int32),),
                         np.asarray(counts, dtype=float))

    @classmethod
    def from_countmap(cls, cm: CountMap,
                      domains: Sequence[list]) -> "EncodedCountMap":
        """Encode a dict counted relation against the given domains."""
        positions = [{v: i for i, v in enumerate(d)} for d in domains]
        n = len(cm.data)
        codes = [np.empty(n, dtype=np.int32) for _ in cm.schema]
        counts = np.empty(n)
        for row, (key, count) in enumerate(cm.data.items()):
            for j, v in enumerate(key):
                try:
                    codes[j][row] = positions[j][v]
                except KeyError:
                    raise CountMapError(
                        f"value {v!r} not in domain of "
                        f"{cm.schema[j]!r}") from None
            counts[row] = count
        return cls(cm.schema, domains, codes, counts)

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.keys())

    def __repr__(self) -> str:
        return f"EncodedCountMap({list(self.schema)}, n={len(self.counts)})"

    def _position_of(self, j: int, value) -> int | None:
        if self._positions[j] is None:
            self._positions[j] = {v: i for i, v in enumerate(self.domains[j])}
        return self._positions[j].get(value)

    def __getitem__(self, key: Key) -> float:
        key = tuple(key)
        if len(key) != len(self.schema):
            raise CountMapError(
                f"tuple width {len(key)} does not match schema {self.schema}")
        codes = []
        for j, v in enumerate(key):
            code = self._position_of(j, v)
            if code is None:
                return 0.0
            codes.append(code)
        if self._index is None:
            self._index = {k: i for i, k in enumerate(
                zip(*[c.tolist() for c in self.key_codes]))} \
                if self.schema else {(): 0 for _ in self.counts[:1]}
        row = self._index.get(tuple(codes))
        return 0.0 if row is None else float(self.counts[row])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedCountMap):
            return self.to_countmap() == other.to_countmap()
        if isinstance(other, CountMap):
            return self.to_countmap() == other
        return NotImplemented

    # -- decoding -----------------------------------------------------------------
    def keys(self) -> list[Key]:
        """Decoded key tuples, in storage order."""
        if not self.schema:
            return [()] * len(self.counts)
        columns = []
        for domain, codes in zip(self.domains, self.key_codes):
            arr = np.empty(len(domain), dtype=object)
            arr[:] = domain
            columns.append(arr[codes])
        return list(zip(*columns))

    def items(self) -> Iterator[tuple[Key, float]]:
        return zip(self.keys(), self.counts.tolist())

    def to_countmap(self) -> CountMap:
        """Decode to the dict form (interop / equality checks)."""
        return CountMap(self.schema, dict(self.items()))

    def as_unary_dict(self) -> dict:
        """For unary maps: ``{value: count}``."""
        if len(self.schema) != 1:
            raise CountMapError(f"not a unary count map: schema {self.schema}")
        return dict(zip((self.domains[0][c] for c in self.key_codes[0]),
                        self.counts.tolist()))

    def dense_counts(self) -> np.ndarray:
        """For unary maps: counts scattered over the full domain."""
        if len(self.schema) != 1:
            raise CountMapError(f"not a unary count map: schema {self.schema}")
        out = np.zeros(len(self.domains[0]))
        out[self.key_codes[0]] = self.counts
        return out

    # -- operators (§2.2, array kernels) --------------------------------------------
    def total(self) -> float:
        return float(self.counts.sum())

    def scale(self, factor: float) -> "EncodedCountMap":
        """All multiplicities times a scalar (Appendix J zoom)."""
        return EncodedCountMap._make(self.schema, self.domains,
                                     self.key_codes, self.counts * factor)

    def reorder(self, schema: Iterable[str]) -> "EncodedCountMap":
        schema = tuple(schema)
        if set(schema) != set(self.schema):
            raise CountMapError(f"cannot reorder {self.schema} as {schema}")
        pos = [self.schema.index(a) for a in schema]
        return EncodedCountMap._make(
            schema, tuple(self.domains[p] for p in pos),
            tuple(self.key_codes[p] for p in pos), self.counts)

    def join(self, other: "EncodedCountMap") -> "EncodedCountMap":
        """Join-multiply ``self ⨝ other`` as a sort-merge over codes."""
        shared = tuple(a for a in self.schema if a in other.schema)
        rest = [i for i, a in enumerate(other.schema) if a not in shared]
        out_schema = self.schema + tuple(other.schema[i] for i in rest)
        out_domains = self.domains + tuple(other.domains[i] for i in rest)
        if not shared:
            nl, nr = len(self.counts), len(other.counts)
            counts = np.repeat(self.counts, nr) * np.tile(other.counts, nl)
            codes = tuple([np.repeat(c, nr) for c in self.key_codes]
                          + [np.tile(other.key_codes[i], nl) for i in rest])
            return EncodedCountMap._make(out_schema, out_domains, codes,
                                         counts)
        left_pos = [self.schema.index(a) for a in shared]
        right_pos = [other.schema.index(a) for a in shared]
        sizes = [len(self.domains[p]) for p in left_pos]
        valid = np.ones(len(other.counts), dtype=bool)
        right_shared = []
        for lp, rp in zip(left_pos, right_pos):
            if self.domains[lp] is other.domains[rp]:
                right_shared.append(other.key_codes[rp].astype(np.int64))
                continue
            # Distinct domain objects: remap right codes into left space.
            remap = np.empty(len(other.domains[rp]), dtype=np.int64)
            for j, v in enumerate(other.domains[rp]):
                code = self._position_of(lp, v)
                remap[j] = -1 if code is None else code
            mapped = remap[other.key_codes[rp]]
            valid &= mapped >= 0
            right_shared.append(mapped)
        ridx0 = np.flatnonzero(valid)
        radix = 1
        for s in sizes:
            radix *= max(int(s), 1)
        if radix < _RADIX_LIMIT:
            combined_l = combine_radix(
                [self.key_codes[p] for p in left_pos], sizes)
            combined_r = combine_radix(
                [c[ridx0] for c in right_shared], sizes)
            key_space = radix
        else:
            # Mixed-radix would overflow int64: re-encode the occupied key
            # combinations densely with one row-wise unique over both sides
            # (ids < nl + nr, so the merge below is unaffected).
            stacked = np.vstack(
                [np.column_stack([self.key_codes[p].astype(np.int64)
                                  for p in left_pos]),
                 np.column_stack([c[ridx0] for c in right_shared])])
            _, inverse = np.unique(stacked, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            combined_l = inverse[:len(self.counts)]
            combined_r = inverse[len(self.counts):]
            key_space = len(self.counts) + len(ridx0)
        l_idx, r_pos, counts = kernels.join_multiply(
            combined_l, combined_r, self.counts,
            other.counts[ridx0], key_space)
        r_idx = ridx0[r_pos]
        codes = tuple([c[l_idx] for c in self.key_codes]
                      + [other.key_codes[i][r_idx] for i in rest])
        return EncodedCountMap._make(out_schema, out_domains, codes, counts)

    def merge_delta(self, delta: "EncodedCountMap",
                    domains: Sequence[list] | None = None
                    ) -> "EncodedCountMap":
        """Counts of a small ``delta`` map merged in; zero keys dropped.

        The delta-maintenance kernel: one ``searchsorted`` of the sorted
        delta keys into this map's stored code columns — matched keys add
        their counts in place, unseen keys append, keys whose count
        reaches exactly zero drop out (retraction). ``domains`` (default:
        this map's own) must extend each stored domain as a *prefix*, so
        the stored codes stay valid without a re-encode; delta codes are
        remapped by value when their domain object differs. Unlike
        :meth:`join`/:meth:`marginalize` this mutates nothing — a new map
        shares the untouched column arrays where possible.
        """
        if delta.schema != self.schema:
            raise CountMapError(
                f"delta schema {delta.schema} does not match {self.schema}")
        target = tuple(domains) if domains is not None else self.domains
        if len(target) != len(self.schema):
            raise CountMapError("one target domain per attribute required")
        delta_codes: list[np.ndarray] = []
        positions: list[dict | None] = [None] * len(target)
        for j, dom in enumerate(target):
            if len(dom) < len(self.domains[j]):
                raise CountMapError(
                    f"target domain of {self.schema[j]!r} does not extend "
                    f"the stored domain")
            if delta.domains[j] is dom:
                delta_codes.append(delta.key_codes[j].astype(np.int64))
                continue
            if positions[j] is None:
                positions[j] = {v: i for i, v in enumerate(dom)}
            table = positions[j]
            remap = np.empty(len(delta.domains[j]), dtype=np.int64)
            for i, v in enumerate(delta.domains[j]):
                code = table.get(v)
                if code is None:
                    raise CountMapError(
                        f"delta value {v!r} missing from the target domain "
                        f"of {self.schema[j]!r}")
                remap[i] = code
            delta_codes.append(remap[delta.key_codes[j]])
        sizes = [len(d) for d in target]
        if self.schema:
            base_keys, dkeys = comparable_keys(
                [c for c in self.key_codes], delta_codes, sizes)
        else:
            base_keys = np.zeros(len(self.counts), dtype=np.int64)
            dkeys = np.zeros(len(delta.counts), dtype=np.int64)
        u = len(base_keys)
        order = np.argsort(base_keys, kind="stable")
        pos = np.searchsorted(base_keys[order], dkeys)
        matched = pos < u
        if matched.any():
            matched[matched] = base_keys[order][pos[matched]] \
                == dkeys[matched]
        rows = order[pos[matched]]
        counts = self.counts.copy()
        counts[rows] += delta.counts[matched]
        fresh = ~matched
        keep = counts != 0
        out_codes = [c for c in self.key_codes]
        if not keep.all():
            idx = np.flatnonzero(keep)
            counts = counts[idx]
            out_codes = [c[idx] for c in out_codes]
        if fresh.any():
            counts = np.concatenate([counts, delta.counts[fresh]])
            out_codes = [
                np.concatenate([c, d[fresh].astype(np.int32)])
                for c, d in zip(out_codes, delta_codes)]
        return EncodedCountMap._make(self.schema, target,
                                     tuple(out_codes), counts)

    def marginalize(self, attribute: str) -> "EncodedCountMap":
        """``⊕_attribute self`` via composite group ids + one bincount."""
        if attribute not in self.schema:
            raise CountMapError(
                f"attribute {attribute!r} not in schema {self.schema}")
        drop = self.schema.index(attribute)
        kept = [i for i in range(len(self.schema)) if i != drop]
        out_schema = tuple(self.schema[i] for i in kept)
        out_domains = tuple(self.domains[i] for i in kept)
        if not kept:
            if not len(self.counts):
                return EncodedCountMap._make((), (), (), np.empty(0))
            return EncodedCountMap._make((), (), (),
                                         np.asarray([self.counts.sum()]))
        gids, key_codes = combine_codes(
            [self.key_codes[i] for i in kept],
            [len(self.domains[i]) for i in kept], len(self.counts))
        sums = np.bincount(gids, weights=self.counts,
                           minlength=len(key_codes))
        return EncodedCountMap._make(
            out_schema, out_domains,
            tuple(key_codes[:, j] for j in range(len(kept))), sums)

    def marginalize_all(self, attributes: Iterable[str]) -> "EncodedCountMap":
        out = self
        for a in attributes:
            out = out.marginalize(a)
        return out

    def project_keep(self, attributes: Iterable[str]) -> "EncodedCountMap":
        keep = set(attributes)
        return self.marginalize_all([a for a in self.schema if a not in keep])


def join_all(maps: Iterable[CountMap]) -> CountMap:
    """Left-deep join-multiply of several counted relations."""
    maps = list(maps)
    if not maps:
        raise CountMapError("join_all of zero relations")
    out = maps[0]
    for m in maps[1:]:
        out = out.join(m)
    return out


def aggregate_query(relations: Iterable[CountMap],
                    group_by: Iterable[str]) -> CountMap:
    """``γ_{group_by, COUNT}(R_1 ⋈ ... ⋈ R_n)`` — the naive plan.

    Joins everything, then marginalizes attributes not in ``group_by``.
    Used as the no-optimization reference that the multi-query planner and
    the factorized closed forms are validated against.
    """
    joined = join_all(relations)
    keep = set(group_by)
    return joined.marginalize_all([a for a in joined.schema if a not in keep])


def aggregate_query_early(relations: Iterable[CountMap],
                          group_by: Iterable[str]) -> CountMap:
    """Same query with early marginalization (Example 5).

    Before and after each join, marginalizes attributes that are not
    grouped, not a pending join key (shared with the accumulator or any
    later relation), and therefore dead — the classic aggregation
    push-down.
    """
    relations = list(relations)
    keep = set(group_by)

    def live_later(position: int) -> set[str]:
        out: set[str] = set()
        for r in relations[position:]:
            out |= set(r.schema)
        return out

    def prune(rel: CountMap, position: int, partner: CountMap | None = None
              ) -> CountMap:
        alive = keep | live_later(position)
        if partner is not None:
            alive |= set(partner.schema)
        dead = [a for a in rel.schema if a not in alive]
        return rel.marginalize_all(dead)

    out = prune(relations[0], 1)
    for i, rel in enumerate(relations[1:], start=1):
        out = out.join(prune(rel, i + 1, partner=out))
        out = prune(out, i + 1)
    return out
