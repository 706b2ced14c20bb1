"""The Factorizer: f-representation storage and interfaces (Appendix C).

Stores the factorised attribute matrix as per-hierarchy sorted relations
(the BCNF decomposition of the hierarchy tables) and exposes the two
interfaces the matrix operators consume:

* **Relation interface** — for the least specific attribute of a hierarchy,
  a unary counted relation enumerating its values; for every other
  attribute, a binary counted relation connecting it to its parent
  attribute. These feed the multi-query aggregate planner.
* **Row iterator** (Algorithm 1) — walks the (never materialised) attribute
  matrix in row order, yielding only the *difference* from the previous
  row. Right multiplication and the per-cluster operators build on it.

Clusters (§3.2, Appendix F): rows agreeing on every attribute except the
most specific attribute of the last hierarchy form one cluster; they are
adjacent in row order, so clusters are described by an offsets array.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..relational.countmap import CountMap, EncodedCountMap
from .forder import AttributeOrder, FactorizationError


class Factorizer:
    """F-representation storage over an :class:`AttributeOrder`."""

    def __init__(self, order: AttributeOrder):
        self.order = order
        self._encoded: dict[str, EncodedCountMap] = {}

    # -- relation interface (Appendix C.2) -----------------------------------------
    def relation_for(self, attribute: str) -> CountMap:
        """The stored relation that introduces ``attribute``.

        Unary ``R[A]`` for a hierarchy root; binary ``R[parent, A]``
        otherwise (sorted-map semantics, every multiplicity 1). This is the
        dict form consumed by the frozen oracle plans in
        :mod:`repro.factorized.reference`; the production planners run on
        :meth:`encoded_relation_for`.
        """
        info = self.order.info(attribute)
        h = self.order.hierarchies[info.hierarchy_index]
        if info.level == 0:
            return CountMap.unary(attribute, h.ordered_domain[0])
        parent = h.attributes[info.level - 1]
        pairs = {(p[info.level - 1], p[info.level]) for p in h.paths}
        return CountMap((parent, attribute), {pair: 1.0 for pair in pairs})

    def encoded_relation_for(self, attribute: str) -> EncodedCountMap:
        """The stored relation in code-indexed array form (memoized).

        Same counted relation as :meth:`relation_for`, keyed on the
        hierarchy's level encodings: a dense unary vector for a hierarchy
        root, distinct ``(parent code, child code)`` COO pairs otherwise.
        """
        hit = self._encoded.get(attribute)
        if hit is not None:
            return hit
        info = self.order.info(attribute)
        h = self.order.hierarchies[info.hierarchy_index]
        if info.level == 0:
            rel = EncodedCountMap.dense_unary(attribute, h.level_domain(0))
        else:
            parent = h.attributes[info.level - 1]
            pdom = h.level_domain(info.level - 1)
            cdom = h.level_domain(info.level)
            combined = h.level_codes(info.level - 1).astype(np.int64) \
                * len(cdom) + h.level_codes(info.level)
            uniq = np.unique(combined)
            rel = EncodedCountMap(
                (parent, attribute), (pdom, cdom),
                ((uniq // len(cdom)).astype(np.int32),
                 (uniq % len(cdom)).astype(np.int32)),
                np.ones(len(uniq)))
        self._encoded[attribute] = rel
        return rel

    def relations(self) -> list[CountMap]:
        """All stored relations, in attribute order."""
        return [self.relation_for(a) for a in self.order.attributes]

    def relations_of_hierarchy(self, hierarchy_index: int) -> list[CountMap]:
        h = self.order.hierarchies[hierarchy_index]
        return [self.relation_for(a) for a in h.attributes]

    def encoded_relations_of_hierarchy(self, hierarchy_index: int
                                       ) -> list[EncodedCountMap]:
        h = self.order.hierarchies[hierarchy_index]
        return [self.encoded_relation_for(a) for a in h.attributes]

    # -- row iterator (Algorithm 1) ---------------------------------------------------
    def row_iterator(self) -> Iterator[dict]:
        """Yield per-row *updates*: ``{attribute: new value}``.

        The first yield carries the full first row; each subsequent yield
        carries only attributes whose value changed — the ``end``-set
        propagation of Algorithm 1 falls out of comparing consecutive
        hierarchy paths.
        """
        order = self.order
        hs = order.hierarchies
        idx = [0] * len(hs)
        first = {}
        for h in hs:
            for level, a in enumerate(h.attributes):
                first[a] = h.paths[0][level]
        yield first
        n = order.n_rows
        for _ in range(1, n):
            update: dict = {}
            # Odometer increment: last hierarchy spins fastest.
            for hi in range(len(hs) - 1, -1, -1):
                h = hs[hi]
                old_path = h.paths[idx[hi]]
                idx[hi] += 1
                carried = idx[hi] == h.n_leaves
                if carried:
                    idx[hi] = 0
                new_path = h.paths[idx[hi]]
                for level, a in enumerate(h.attributes):
                    if old_path[level] != new_path[level]:
                        update[a] = new_path[level]
                if not carried:
                    break
            yield update

    def materialized_rows(self) -> list[tuple]:
        """Full rows reconstructed from the iterator (test helper)."""
        attrs = self.order.attributes
        current: dict = {}
        rows = []
        for update in self.row_iterator():
            current.update(update)
            rows.append(tuple(current[a] for a in attrs))
        return rows

    # -- cluster structure (Appendix F) ----------------------------------------------
    def cluster_sizes(self) -> np.ndarray:
        """Rows per cluster, in row order.

        The intra-cluster attribute is the most specific attribute of the
        last hierarchy; clusters are runs of rows constant on everything
        else.
        """
        last = self.order.hierarchies[-1]
        if len(last.attributes) == 1:
            within = np.asarray([last.n_leaves], dtype=float)
        else:
            within = last.leaf_counts[len(last.attributes) - 2]
        before = int(self.order.leaf_product_before(len(self.order.hierarchies) - 1))
        return np.tile(within, before)

    def cluster_offsets(self) -> np.ndarray:
        """Start offsets of each cluster plus a final sentinel (length G+1)."""
        sizes = self.cluster_sizes()
        out = np.zeros(len(sizes) + 1, dtype=int)
        np.cumsum(sizes.astype(int), out=out[1:])
        return out

    @property
    def intra_attribute(self) -> str:
        """The cluster-varying attribute (leaf of the last hierarchy)."""
        return self.order.hierarchies[-1].attributes[-1]

    def inter_attributes(self) -> tuple[str, ...]:
        """Attributes constant within each cluster."""
        intra = self.intra_attribute
        return tuple(a for a in self.order.attributes if a != intra)

    def cluster_keys(self) -> list[tuple]:
        """Inter-attribute value tuples of each cluster, in cluster order."""
        order = self.order
        last = order.hierarchies[-1]
        earlier = order.hierarchies[:-1]
        if len(last.attributes) == 1:
            last_prefixes: list[tuple] = [()]
        else:
            starts = last.run_starts[len(last.attributes) - 2]
            last_prefixes = [last.paths[s][:-1] for s in starts]
        keys: list[tuple] = []
        earlier_paths = _cartesian_paths(earlier)
        for prefix in earlier_paths:
            for lp in last_prefixes:
                keys.append(prefix + lp)
        return keys

    def __repr__(self) -> str:
        return f"Factorizer({self.order!r})"


def _cartesian_paths(hierarchies: Sequence) -> list[tuple]:
    """Cartesian product of hierarchy paths, in row order."""
    keys: list[tuple] = [()]
    for h in hierarchies:
        keys = [k + p for k in keys for p in h.paths]
    return keys


def check_row_order(factorizer: Factorizer) -> None:
    """Assert iterator order matches :meth:`AttributeOrder.row_key` order.

    Raises on mismatch; used in tests and as a debugging aid.
    """
    rows = factorizer.materialized_rows()
    for r, row in enumerate(rows):
        expected = factorizer.order.row_key(r)
        if row != expected:
            raise FactorizationError(
                f"row {r}: iterator produced {row!r}, expected {expected!r}")
