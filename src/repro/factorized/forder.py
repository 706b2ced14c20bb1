"""Attribute ordering and path structure of the factorised matrix (§3.4).

The factorised feature matrix is a tree: one level per attribute, hierarchies
concatenated in a chosen *hierarchy order* (the drill-down hierarchy last),
attributes within a hierarchy ordered least → most specific. The fully
materialised matrix is the cartesian product, across hierarchies, of each
hierarchy's root-to-leaf paths, sorted lexicographically.

:class:`HierarchyPaths` stores one hierarchy's sorted paths plus the derived
per-level run structure; :class:`AttributeOrder` combines hierarchies and
answers the structural queries every factorised operator needs: ordered
domains, suffix counts (COUNT_A), totals (TOTAL_A) and repetition factors
(TOTAL_{A_d} / TOTAL_{A_p} in Algorithm 2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..relational.dataset import HierarchicalDataset
from ..relational.hierarchy import Hierarchy


class FactorizationError(ValueError):
    """Raised for malformed path sets or unknown attributes."""


class HierarchyPaths:
    """One hierarchy's sorted root-to-leaf paths and run structure.

    Parameters
    ----------
    name:
        Hierarchy name.
    attributes:
        Attribute names, least specific first.
    paths:
        Distinct root-to-leaf value tuples. They are deduplicated and
        sorted; the functional dependency (leaf determines ancestors) is
        validated.
    """

    def __init__(self, name: str, attributes: Sequence[str],
                 paths: Iterable[tuple], _presorted: bool = False):
        self.name = name
        self.attributes = tuple(attributes)
        depth = len(self.attributes)
        if _presorted:
            # Trusted internal path (see :meth:`extend`): the caller
            # guarantees sortedness, uniqueness and the FD.
            uniq = list(paths)
        else:
            uniq = sorted({tuple(p) for p in paths}, key=_path_sort_key)
            for p in uniq:
                if len(p) != depth:
                    raise FactorizationError(
                        f"path {p!r} does not match attributes "
                        f"{self.attributes}")
            leaves = [p[-1] for p in uniq]
            if len(set(leaves)) != len(leaves):
                raise FactorizationError(
                    f"hierarchy {name!r}: leaf values are not unique, the "
                    f"FD leaf → ancestors is violated")
        if not uniq:
            raise FactorizationError(f"hierarchy {name!r} has no paths")
        self.paths: list[tuple] = uniq
        self.n_leaves = len(uniq)
        self._path_pos: dict[tuple, int] | None = None
        # Per-level dictionary encodings (lazy): the code-indexed substrate
        # of the array-native aggregate plan. See :meth:`level_domain`.
        self._level_encodings: list[tuple[list, np.ndarray]] | None = None
        # Run structure per level (lazy, see :meth:`_runs`): a delta
        # ingest may extend paths whose derived units are patched from
        # the cache, never rebuilt — the O(paths · depth) run scan is
        # deferred until something actually walks the structure.
        self._runs: tuple[list[list], list[np.ndarray],
                          list[np.ndarray]] | None = None

    def _run_structure(self) -> tuple[list[list], list[np.ndarray],
                                      list[np.ndarray]]:
        """Contiguous runs of equal path-prefixes per level (memoized).

        ``ordered_domain[l]`` lists level-l values in path order;
        ``leaf_counts[l][k]`` is the number of leaves under
        ``ordered_domain[l][k]``; ``run_starts[l][k]`` its first path.
        """
        if self._runs is None:
            ordered_domain: list[list] = []
            leaf_counts: list[np.ndarray] = []
            run_starts: list[np.ndarray] = []
            for level in range(len(self.attributes)):
                values, counts, starts = [], [], []
                prev_prefix = object()
                for i, p in enumerate(self.paths):
                    prefix = p[:level + 1]
                    if prefix != prev_prefix:
                        values.append(p[level])
                        counts.append(0)
                        starts.append(i)
                        prev_prefix = prefix
                    counts[-1] += 1
                ordered_domain.append(values)
                leaf_counts.append(np.asarray(counts, dtype=float))
                run_starts.append(np.asarray(starts, dtype=int))
            self._runs = (ordered_domain, leaf_counts, run_starts)
        return self._runs

    @property
    def ordered_domain(self) -> list[list]:
        return self._run_structure()[0]

    @property
    def leaf_counts(self) -> list[np.ndarray]:
        return self._run_structure()[1]

    @property
    def run_starts(self) -> list[np.ndarray]:
        return self._run_structure()[2]

    @classmethod
    def from_relation(cls, hierarchy: Hierarchy,
                      relation) -> "HierarchyPaths":
        """Paths observed in a relation, via its encoded columns.

        The distinct root-to-leaf tuples come out of one composite-key
        pass over the interned code arrays.
        """
        paths = relation.group_index(list(hierarchy.attributes)).keys()
        return cls(hierarchy.name, hierarchy.attributes, paths)

    def __len__(self) -> int:
        return self.n_leaves

    def __repr__(self) -> str:
        return (f"HierarchyPaths({self.name!r}, attrs={list(self.attributes)}, "
                f"n_leaves={self.n_leaves})")

    def path_values(self, level: int) -> list:
        """Level-``level`` value of every path, in path order (with repeats)."""
        return [p[level] for p in self.paths]

    def _encode_levels(self) -> list[tuple[list, np.ndarray]]:
        """Dictionary-encode every level's path values (memoized).

        Per level: ``(domain, codes)`` where ``domain`` lists the distinct
        level values in first-occurrence (path) order and ``codes[i]`` is
        the domain index of path ``i``'s value. Equal values that appear
        under *different* parents share one code — the same ``==``-merge a
        dict keyed on values performs — so the array plan and the dict
        oracle agree on key sets exactly (NaN values hash equal but compare
        unequal, keeping each NaN object its own code, as in a dict).
        """
        if self._level_encodings is None:
            encs: list[tuple[list, np.ndarray]] = []
            for level in range(len(self.attributes)):
                values = self.ordered_domain[level]
                if len(set(values)) == len(values):
                    # Distinct run values (the usual case): the run
                    # structure is the encoding — one repeat, no loop.
                    # The domain *is* the ordered_domain list, so memo
                    # tables keyed on domain identity are shared with it.
                    codes = np.repeat(
                        np.arange(len(values), dtype=np.int32),
                        self.leaf_counts[level].astype(np.int64))
                    encs.append((values, codes))
                    continue
                table: dict = {}
                domain: list = []
                codes = np.empty(self.n_leaves, dtype=np.int32)
                for i, p in enumerate(self.paths):
                    v = p[level]
                    code = table.setdefault(v, len(domain))
                    codes[i] = code
                    if code == len(domain):
                        domain.append(v)
                encs.append((domain, codes))
            self._level_encodings = encs
        return self._level_encodings

    def level_domain(self, level: int) -> list:
        """Distinct level-``level`` values, first-occurrence order.

        The returned list object is stable across calls — callers key
        memo tables (e.g. ``FeatureColumn.feature_array``) on its identity.
        """
        return self._encode_levels()[level][0]

    def level_codes(self, level: int) -> np.ndarray:
        """Per-path codes into :meth:`level_domain` (``int32``, n_leaves)."""
        return self._encode_levels()[level][1]

    def path_position(self, path: tuple) -> int:
        """Index of a root-to-leaf path (cached hash lookup)."""
        if self._path_pos is None:
            self._path_pos = {p: i for i, p in enumerate(self.paths)}
        try:
            return self._path_pos[tuple(path)]
        except KeyError:
            raise FactorizationError(
                f"path {path!r} not in hierarchy {self.name!r}") from None

    def extend(self, new_paths: Iterable[tuple]) -> "HierarchyPaths":
        """This hierarchy plus additional root-to-leaf paths (ingestion).

        Deduplicates against the existing paths and validates the
        leaf → ancestors FD incrementally (a delta whose new rows
        contradict an existing path's ancestry raises
        :class:`FactorizationError` instead of silently forking the
        hierarchy). The already-sorted path list is merged in place of a
        full re-sort, so a delta step costs O(new · log + paths), not
        O(paths · log paths). Returns ``self`` unchanged when nothing is
        new.
        """
        existing = set(self.paths)
        depth = len(self.attributes)
        fresh = sorted({tuple(p) for p in new_paths} - existing,
                       key=_path_sort_key)
        if not fresh:
            return self
        leaves = {p[-1] for p in self.paths}
        merged = list(self.paths)
        for p in fresh:
            if len(p) != depth:
                raise FactorizationError(
                    f"path {p!r} does not match attributes "
                    f"{self.attributes}")
            if p[-1] in leaves:
                raise FactorizationError(
                    f"hierarchy {self.name!r}: leaf values are not "
                    f"unique, the FD leaf → ancestors is violated")
            leaves.add(p[-1])
            bisect.insort(merged, p, key=_path_sort_key)
        return HierarchyPaths(self.name, self.attributes, merged,
                              _presorted=True)

    def restrict(self, depth: int) -> "HierarchyPaths":
        """The hierarchy truncated to its first ``depth`` attributes.

        Used while drilling down: before hierarchy H is drilled to level
        ``depth`` only its prefix participates in the matrix. The distinct
        prefixes are read off the precomputed run structure (every distinct
        prefix starts a run at its level), so a drill-step truncation is
        O(prefixes), not O(leaf paths) — the §4.4 unit swap never rescans
        the full path set.
        """
        if not 1 <= depth <= len(self.attributes):
            raise FactorizationError(
                f"depth {depth} out of range for hierarchy {self.name!r}")
        prefixes = {self.paths[s][:depth] for s in self.run_starts[depth - 1]}
        return HierarchyPaths(self.name, self.attributes[:depth], prefixes)


def _path_sort_key(path: tuple) -> tuple:
    """Sort key tolerant of mixed value types within a level."""
    return tuple((type(v).__name__, v) for v in path)


@dataclass(frozen=True)
class AttributeInfo:
    """Location of one attribute inside an :class:`AttributeOrder`."""

    name: str
    hierarchy_index: int
    level: int
    position: int  # global position in attribute order


class AttributeOrder:
    """Hierarchies in matrix order plus derived structural quantities.

    Notation bridge to the paper (§4.2.1): with attributes ordered
    ``A_n .. A_1`` left to right,

    * ``total(a)``      = TOTAL_a  — rows of the suffix matrix from ``a``;
    * ``counts(a)``     = COUNT_a  — per-value counts inside that suffix;
    * ``repetition(a)`` = TOTAL_{A_n} / TOTAL_a — how many times the suffix
      block repeats in the full matrix.
    """

    def __init__(self, hierarchies: Sequence[HierarchyPaths]):
        if not hierarchies:
            raise FactorizationError("attribute order needs ≥1 hierarchy")
        names = [h.name for h in hierarchies]
        if len(set(names)) != len(names):
            raise FactorizationError(f"duplicate hierarchy names: {names}")
        self.hierarchies: tuple[HierarchyPaths, ...] = tuple(hierarchies)
        self._attrs: list[AttributeInfo] = []
        self._by_name: dict[str, AttributeInfo] = {}
        pos = 0
        for hi, h in enumerate(self.hierarchies):
            for level, a in enumerate(h.attributes):
                if a in self._by_name:
                    raise FactorizationError(f"attribute {a!r} appears twice")
                info = AttributeInfo(a, hi, level, pos)
                self._attrs.append(info)
                self._by_name[a] = info
                pos += 1
        sizes = [h.n_leaves for h in self.hierarchies]
        # before/after leaf-count products per hierarchy index.
        self._before = np.ones(len(sizes) + 1)
        for i, s in enumerate(sizes):
            self._before[i + 1] = self._before[i] * s
        self._after = np.ones(len(sizes) + 1)
        for i in range(len(sizes) - 1, -1, -1):
            self._after[i] = self._after[i + 1] * sizes[i]
        self.n_rows = int(self._after[0])

    @classmethod
    def from_dataset(cls, dataset: HierarchicalDataset,
                     hierarchy_order: Sequence[str] | None = None,
                     depths: Mapping[str, int] | None = None
                     ) -> "AttributeOrder":
        """Build from observed data, optionally truncating hierarchies.

        ``hierarchy_order`` picks the hierarchy sequence (drill-down
        hierarchy last); ``depths`` truncates each hierarchy to its first
        *k* attributes (0 ⇒ hierarchy omitted entirely).
        """
        order = list(hierarchy_order or dataset.dimensions.names)
        out: list[HierarchyPaths] = []
        for name in order:
            h = dataset.dimensions[name]
            paths = HierarchyPaths.from_relation(h, dataset.relation)
            depth = (depths or {}).get(name, len(h.attributes))
            if depth == 0:
                continue
            if depth < len(h.attributes):
                paths = paths.restrict(depth)
            out.append(paths)
        return cls(out)

    # -- attribute lookups --------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attrs)

    @property
    def n_attributes(self) -> int:
        return len(self._attrs)

    def info(self, attribute: str) -> AttributeInfo:
        try:
            return self._by_name[attribute]
        except KeyError:
            raise FactorizationError(f"unknown attribute {attribute!r}") from None

    # -- structural quantities -----------------------------------------------------
    def leaf_product_before(self, hierarchy_index: int) -> float:
        """Product of leaf counts of hierarchies strictly before index."""
        return float(self._before[hierarchy_index])

    def leaf_product_after(self, hierarchy_index: int) -> float:
        """Product of leaf counts of hierarchies strictly after index."""
        return float(self._after[hierarchy_index + 1])

    def total(self, attribute: str) -> float:
        """TOTAL_a: number of rows of the suffix matrix from ``a``."""
        info = self.info(attribute)
        h = self.hierarchies[info.hierarchy_index]
        return h.n_leaves * self.leaf_product_after(info.hierarchy_index)

    def repetition(self, attribute: str) -> float:
        """TOTAL_{A_n} / TOTAL_a: repetitions of ``a``'s suffix block."""
        return self.leaf_product_before(self.info(attribute).hierarchy_index)

    def ordered_domain(self, attribute: str) -> list:
        """Values of ``a`` in row order (each once, ancestor-grouped)."""
        info = self.info(attribute)
        return self.hierarchies[info.hierarchy_index].ordered_domain[info.level]

    def counts(self, attribute: str) -> np.ndarray:
        """COUNT_a aligned with :meth:`ordered_domain` (suffix counts)."""
        info = self.info(attribute)
        h = self.hierarchies[info.hierarchy_index]
        return (h.leaf_counts[info.level]
                * self.leaf_product_after(info.hierarchy_index))

    def counts_within(self, attribute: str) -> np.ndarray:
        """Leaf counts of ``a`` *within its own hierarchy* only."""
        info = self.info(attribute)
        return self.hierarchies[info.hierarchy_index].leaf_counts[info.level]

    def count_map(self, attribute: str) -> dict:
        """COUNT_a as ``{value: count}`` (values are unique by the FD)."""
        return dict(zip(self.ordered_domain(attribute),
                        self.counts(attribute).tolist()))

    # -- row decoding ---------------------------------------------------------------
    def row_key(self, row: int) -> tuple:
        """Attribute values of matrix row ``row`` (full-width key)."""
        if not 0 <= row < self.n_rows:
            raise FactorizationError(f"row {row} out of range")
        out: list = []
        for hi, h in enumerate(self.hierarchies):
            after = int(self._after[hi + 1])
            idx = (row // after) % h.n_leaves
            out.extend(h.paths[idx])
        return tuple(out)

    def row_keys(self) -> list[tuple]:
        """All row keys in row order. O(n·d) — test/small-input use only."""
        return [self.row_key(r) for r in range(self.n_rows)]

    def row_index(self, key: Sequence) -> int:
        """Inverse of :meth:`row_key`."""
        key = tuple(key)
        row = 0
        offset = 0
        for h in self.hierarchies:
            path = key[offset:offset + len(h.attributes)]
            offset += len(h.attributes)
            row = row * h.n_leaves + h.path_position(path)
        return row

    def reorder(self, hierarchy_order: Sequence[str]) -> "AttributeOrder":
        """Same data under a different hierarchy order (§3.4)."""
        by_name = {h.name: h for h in self.hierarchies}
        if set(hierarchy_order) != set(by_name):
            raise FactorizationError(
                f"order {list(hierarchy_order)} does not cover hierarchies "
                f"{sorted(by_name)}")
        return AttributeOrder([by_name[n] for n in hierarchy_order])

    def __repr__(self) -> str:
        parts = ", ".join(f"{h.name}={list(h.attributes)}" for h in self.hierarchies)
        return f"AttributeOrder({parts}, n_rows={self.n_rows})"
