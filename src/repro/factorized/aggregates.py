"""Decomposed count aggregates TOTAL, COUNT, COF (§4.2.1).

These three aggregate families fully describe the redundancy structure of
the factorised attribute matrix and are the building blocks of every matrix
operation:

* ``TOTAL_a``   — row count of the suffix matrix starting at attribute ``a``;
* ``COUNT_a``   — per-value counts inside that suffix;
* ``COF_{a,b}`` — pairwise co-occurrence counts for ``a`` before ``b``.

This module provides *closed-form* evaluation straight from the
:class:`AttributeOrder` structure (exploiting the FD tree within a
hierarchy and independence across hierarchies). The multi-query planner in
:mod:`repro.factorized.multiquery` computes the same results through the
paper's shared aggregation plan (Algorithm 10); tests assert they agree.

The key optimization of §4.2.2/§4.3 is embodied in :class:`CrossCOF`: when
``a`` and ``b`` live in different hierarchies their COF is a rank-1
cartesian product and is **never materialised** — callers consume the two
factor vectors and a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forder import AttributeOrder, FactorizationError


@dataclass(frozen=True)
class CrossCOF:
    """Lazy rank-1 COF for attributes of *different* hierarchies.

    ``COF[v_a, v_b] = scale · left[v_a] · right[v_b]`` where the factor
    vectors are aligned with the attributes' ordered domains.
    """

    left_values: tuple
    left_counts: np.ndarray
    right_values: tuple
    right_counts: np.ndarray
    scale: float

    def __getitem__(self, pair: tuple) -> float:
        va, vb = pair
        try:
            i = self.left_values.index(va)
            j = self.right_values.index(vb)
        except ValueError:
            return 0.0
        return float(self.scale * self.left_counts[i] * self.right_counts[j])

    def materialize(self) -> dict[tuple, float]:
        """Explicit ``{(v_a, v_b): count}`` — quadratic; tests only."""
        out = {}
        for i, va in enumerate(self.left_values):
            for j, vb in enumerate(self.right_values):
                out[(va, vb)] = float(
                    self.scale * self.left_counts[i] * self.right_counts[j])
        return out

    def weighted_sum(self, f_left: np.ndarray, f_right: np.ndarray) -> float:
        """``Σ COF[v_a,v_b]·f_left[v_a]·f_right[v_b]`` without materialising."""
        return float(self.scale
                     * (self.left_counts @ f_left)
                     * (self.right_counts @ f_right))


@dataclass(frozen=True)
class PairCOF:
    """Materialised COF for attributes of the *same* hierarchy.

    Stored sparsely: only pairs on a common root-to-leaf path have nonzero
    counts (``b`` under ``a``), so the size is the domain of ``b``.
    """

    pairs: dict

    def __getitem__(self, pair: tuple) -> float:
        return float(self.pairs.get(tuple(pair), 0.0))

    def materialize(self) -> dict[tuple, float]:
        return dict(self.pairs)


class DecomposedAggregates:
    """Closed-form TOTAL/COUNT/COF over an :class:`AttributeOrder`."""

    def __init__(self, order: AttributeOrder):
        self.order = order

    def total(self, attribute: str) -> float:
        return self.order.total(attribute)

    def grand_total(self) -> float:
        """TOTAL of the first attribute = number of matrix rows."""
        return float(self.order.n_rows)

    def count(self, attribute: str) -> dict:
        return self.order.count_map(attribute)

    def cof(self, a: str, b: str) -> PairCOF | CrossCOF:
        """``COF_{a,b}`` with ``a`` strictly before ``b`` in attribute order."""
        ia, ib = self.order.info(a), self.order.info(b)
        if ia.position >= ib.position:
            raise FactorizationError(
                f"COF requires {a!r} before {b!r} in attribute order")
        if ia.hierarchy_index == ib.hierarchy_index:
            return self._same_hierarchy_cof(a, b)
        return self._cross_hierarchy_cof(a, b)

    def _same_hierarchy_cof(self, a: str, b: str) -> PairCOF:
        ia, ib = self.order.info(a), self.order.info(b)
        h = self.order.hierarchies[ia.hierarchy_index]
        after = self.order.leaf_product_after(ia.hierarchy_index)
        # Each leaf under (v_a, v_b) contributes `after` suffix rows; group
        # leaves by the (ancestor-at-level-a, value-at-level-b) pair.
        pairs: dict[tuple, float] = {}
        for path in h.paths:
            key = (path[ia.level], path[ib.level])
            pairs[key] = pairs.get(key, 0.0) + after
        return PairCOF(pairs)

    def _cross_hierarchy_cof(self, a: str, b: str) -> CrossCOF:
        ia, ib = self.order.info(a), self.order.info(b)
        # COF[v_a, v_b] counts suffix-from-a rows with both values fixed:
        #   leaves_within(v_a) · Π_{between} L_h · leaves_within(v_b) · Π_{after b} L_h
        between = 1.0
        for hi in range(ia.hierarchy_index + 1, ib.hierarchy_index):
            between *= self.order.hierarchies[hi].n_leaves
        after_b = self.order.leaf_product_after(ib.hierarchy_index)
        return CrossCOF(
            left_values=tuple(self.order.ordered_domain(a)),
            left_counts=self.order.counts_within(a),
            right_values=tuple(self.order.ordered_domain(b)),
            right_counts=self.order.counts_within(b),
            scale=float(between * after_b))

    def all_pairs(self) -> dict[tuple[str, str], PairCOF | CrossCOF]:
        """Every COF pair ``(a before b)`` — the quadratic family of §5.1.3."""
        attrs = self.order.attributes
        out: dict[tuple[str, str], PairCOF | CrossCOF] = {}
        for i, a in enumerate(attrs):
            for b in attrs[i + 1:]:
                out[(a, b)] = self.cof(a, b)
        return out
