"""Multi-query execution of the decomposed aggregates (§4.3, Appendix I).

Two planners produce the full family {TOTAL_a, COUNT_a, COF_{a,b}}:

* :func:`shared_plan` — the paper's work-sharing plan (Algorithm 10):
  within each hierarchy, COUNT maps are built leaf-up with each level
  reusing the previous one, COF chains extend previously computed COFs,
  and cross-hierarchy COFs stay *lazy* rank-1 products (the §4.3
  independence optimization). Each stored relation is touched O(t) times.

* :func:`lmfao_plan` — an LMFAO-style baseline: every aggregate is computed
  as its own join-aggregate query (with early marginalization, which LMFAO
  also performs) and cross-hierarchy COFs are fully materialised. Correct
  but with no cross-query sharing — the Figure 8 comparison point.

Both planners are **array-native**: the counted relations flow through
them as code-indexed :class:`~repro.relational.countmap.EncodedCountMap`
arrays (dense per-attribute vectors for unary COUNT maps, COO code-pair
arrays for binary COFs), so join-multiply, marginalization, and COF chain
extension are ``searchsorted``/``bincount`` kernels with no dict
round-trips at any size. The pre-array dict pipeline is frozen verbatim in
:mod:`repro.factorized.reference` (``reference_shared_plan`` etc.) as the
property-test oracle; results are exactly equal, key set for key set.

The per-hierarchy work is factored into :class:`HierarchyAggregates` units
so the drill-down engine (§4.4) can recompute only the drilled hierarchy's
unit and combine the rest in O(1) per aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..relational.countmap import EncodedCountMap, aggregate_query_early
from .aggregates import CrossCOF
from .factorizer import Factorizer
from .forder import AttributeOrder, HierarchyPaths


@dataclass
class AggregateSet:
    """All decomposed aggregates of one attribute order.

    ``counts`` and same-hierarchy ``cofs`` hold code-indexed
    :class:`~repro.relational.countmap.EncodedCountMap` arrays on the
    production path (plain dict ``CountMap`` on the frozen oracle path);
    cross-hierarchy ``cofs`` stay lazy :class:`CrossCOF` factors under the
    shared plan. Both forms answer ``[...]``/``as_unary_dict`` alike.
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    cofs: dict[tuple[str, str], object] = field(default_factory=dict)

    def count_dict(self, attribute: str) -> dict:
        return self.counts[attribute].as_unary_dict()

    def cof_value(self, a: str, b: str, va, vb) -> float:
        return self.cofs[(a, b)][(va, vb)]


@dataclass
class HierarchyAggregates:
    """One hierarchy's within-hierarchy aggregate unit.

    Everything global is a scalar multiple of these: leaf-count maps per
    attribute, ancestor/descendant COF chains, the hierarchy's leaf total,
    and the attribute domains in path order. On the production path the
    maps are :class:`~repro.relational.countmap.EncodedCountMap` arrays
    keyed on the hierarchy's level encodings; the §4.4 drill recombination
    then rescales raw count vectors without ever decoding a key.
    """

    name: str
    attributes: tuple[str, ...]
    within_counts: dict
    within_cofs: dict[tuple[str, str], object]
    h_total: float
    ordered_domains: dict[str, list]

    def count_vector(self, attribute: str) -> np.ndarray:
        """Within counts aligned with ``ordered_domains[attribute]``."""
        return self.within_counts[attribute].dense_counts()


def hierarchy_unit(paths: HierarchyPaths) -> HierarchyAggregates:
    """Compute one hierarchy's unit with the shared leaf-up plan.

    This is the expensive O(t²·w) building block that the drill-down
    optimizer recomputes only for the drilled hierarchy. Every step is an
    array kernel over the hierarchy's level encodings: the leaf-up COUNT
    chain is join-multiply + marginalize (a ``bincount`` per level), and
    each COF chain extension is one gather/``bincount`` pair.
    """
    factorizer = Factorizer(AttributeOrder([paths]))
    attrs = paths.attributes
    within: dict[str, EncodedCountMap] = {}
    leaf = attrs[-1]
    within[leaf] = factorizer.encoded_relation_for(leaf).project_keep([leaf])
    for i in range(len(attrs) - 2, -1, -1):
        child = attrs[i + 1]
        rel = factorizer.encoded_relation_for(child)  # schema [B_i, B_{i+1}]
        within[attrs[i]] = rel.join(within[child]).marginalize(child)

    cofs: dict[tuple[str, str], EncodedCountMap] = {}
    for j in range(1, len(attrs)):
        bj = attrs[j]
        chain = factorizer.encoded_relation_for(bj).join(within[bj])
        cofs[(attrs[j - 1], bj)] = chain
        for i in range(j - 2, -1, -1):
            mid = attrs[i + 1]
            rel = factorizer.encoded_relation_for(mid)
            chain = rel.join(cofs[(mid, bj)]).marginalize(mid)
            cofs[(attrs[i], bj)] = chain

    h_total = within[attrs[0]].total()
    domains = {a: paths.level_domain(level)
               for level, a in enumerate(attrs)}
    return HierarchyAggregates(paths.name, attrs, within, cofs, h_total,
                               domains)


def merge_unit_delta(old: HierarchyAggregates,
                     delta: HierarchyAggregates) -> HierarchyAggregates:
    """``old ∪ delta`` for disjoint leaf-path sets (append-only ingest).

    Every map in a hierarchy unit is additive over disjoint path sets, so
    a unit for the *new* paths alone merges into the stored unit with
    :meth:`~repro.relational.countmap.EncodedCountMap.merge_delta` —
    the O(new paths) patch the drill-down cache applies instead of an
    O(all paths) rebuild. Domains extend append-style: old values keep
    their positions (and codes), new values go to the end, so the merged
    unit's maps differ from a rebuilt unit's only in domain *order*
    (both answer every lookup identically).
    """
    if old.name != delta.name or old.attributes != delta.attributes:
        raise ValueError(
            f"cannot merge unit of {delta.name!r}{delta.attributes} into "
            f"{old.name!r}{old.attributes}")
    merged_domains: dict[str, list] = {}
    for a in old.attributes:
        dom = list(old.ordered_domains[a])
        present = set()
        try:
            present = set(dom)
        except TypeError:
            pass
        for v in delta.ordered_domains[a]:
            try:
                new = v not in present
            except TypeError:
                new = all(v is not u and v != u for u in dom)
            if new:
                dom.append(v)
                try:
                    present.add(v)
                except TypeError:
                    pass
        merged_domains[a] = dom
    within = {a: old.within_counts[a].merge_delta(
                  delta.within_counts[a], domains=(merged_domains[a],))
              for a in old.attributes}
    cofs = {pair: cof.merge_delta(
                delta.within_cofs[pair],
                domains=(merged_domains[pair[0]], merged_domains[pair[1]]))
            for pair, cof in old.within_cofs.items()}
    return HierarchyAggregates(old.name, old.attributes, within, cofs,
                               old.h_total + delta.h_total, merged_domains)


def combine_units(units: list[HierarchyAggregates]) -> AggregateSet:
    """Assemble global aggregates from per-hierarchy units.

    Within-hierarchy maps are rescaled by the leaf totals of later
    hierarchies (independence, §4.3); cross-hierarchy COFs stay lazy
    rank-1 products over the units' dense count vectors — the §4.4
    recombination is pure array arithmetic.
    """
    result = AggregateSet()
    h_totals = [u.h_total for u in units]
    after = _suffix_products(h_totals)

    for hi, unit in enumerate(units):
        for a in unit.attributes:
            result.counts[a] = unit.within_counts[a].scale(after[hi + 1])
            result.totals[a] = h_totals[hi] * after[hi + 1]
        for pair, cof in unit.within_cofs.items():
            result.cofs[pair] = cof.scale(after[hi + 1])

    for hi, ua in enumerate(units):
        for hj in range(hi + 1, len(units)):
            ub = units[hj]
            between = 1.0
            for hk in range(hi + 1, hj):
                between *= h_totals[hk]
            scale = between * after[hj + 1]
            for a in ua.attributes:
                wa = ua.count_vector(a)
                for b in ub.attributes:
                    result.cofs[(a, b)] = CrossCOF(
                        left_values=tuple(ua.ordered_domains[a]),
                        left_counts=wa,
                        right_values=tuple(ub.ordered_domains[b]),
                        right_counts=ub.count_vector(b),
                        scale=float(scale))
    return result


def shared_plan(factorizer: Factorizer) -> AggregateSet:
    """Work-sharing multi-query plan for the whole aggregate family."""
    return combine_units([hierarchy_unit(h)
                          for h in factorizer.order.hierarchies])


def lmfao_plan(factorizer: Factorizer) -> AggregateSet:
    """Independent-query baseline (early marginalization, no sharing).

    Every COUNT and COF is computed as a standalone join-aggregate over the
    relations in its scope; cross-hierarchy COFs are materialised as
    explicit counted relations. The relations flow through the same
    encoded-array kernels as the shared plan — the baseline differs only
    in plan structure, not storage format.
    """
    order = factorizer.order
    result = AggregateSet()
    attrs = order.attributes

    for a in attrs:
        rels = _scope_relations(factorizer, [a])
        result.counts[a] = aggregate_query_early(rels, [a])
        result.totals[a] = aggregate_query_early(rels, []).total()

    for i, a in enumerate(attrs):
        for b in attrs[i + 1:]:
            rels = _scope_relations(factorizer, [a, b])
            result.cofs[(a, b)] = aggregate_query_early(rels, [a, b])
    return result


def _scope_relations(factorizer: Factorizer, targets: list[str]
                     ) -> list[EncodedCountMap]:
    """Relations needed for a suffix aggregate grouped by ``targets``.

    The suffix matrix from the earliest target spans: the deeper part of
    that attribute's own hierarchy and every later hierarchy in full.
    """
    order = factorizer.order
    first = min(targets, key=lambda t: order.info(t).position)
    fi = order.info(first)
    rels: list[EncodedCountMap] = []
    h = order.hierarchies[fi.hierarchy_index]
    rels.append(factorizer.encoded_relation_for(first).project_keep([first]))
    for level in range(fi.level + 1, len(h.attributes)):
        rels.append(factorizer.encoded_relation_for(h.attributes[level]))
    for hi in range(fi.hierarchy_index + 1, len(order.hierarchies)):
        rels.extend(factorizer.encoded_relations_of_hierarchy(hi))
    return rels


def _suffix_products(h_totals: list[float]) -> list[float]:
    """``after[i] = Π_{j ≥ i} h_totals[j]`` with ``after[len] = 1``."""
    after = [1.0] * (len(h_totals) + 1)
    for i in range(len(h_totals) - 1, -1, -1):
        after[i] = after[i + 1] * h_totals[i]
    return after
