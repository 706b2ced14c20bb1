"""Drill-down maintenance of decomposed aggregates (§4.4, Appendix J).

Each Reptile invocation evaluates *every* candidate hierarchy: it
tentatively drills each one level deeper, which changes the factorised
matrix and therefore the aggregate family. Recomputing everything from
scratch per candidate ("Static") wastes work; the paper exploits hierarchy
independence:

* the drilled hierarchy's within-aggregates must be recomputed (O(t²·w)),
* every *other* hierarchy's globals only change by a scalar factor
  (``TOTAL'_{D_v} / TOTAL_{D_v}``), an O(1) "zoom" update ("Dynamic"),
* and because a candidate that is *not* chosen will be evaluated again
  identically on the next invocation, its freshly computed unit can be
  cached keyed on (hierarchy, depth) ("Cache + Dynamic", §5.1.3).

:class:`DrilldownEngine` implements all three modes; Figure 9's benchmark
invokes it repeatedly and measures the work per mode. Instrumentation
(`unit_computations`) counts the expensive unit builds so tests can assert
the sharing behaviour exactly.

The production drill loop applies the same reuse and ordering rules
through :func:`~repro.factorized.multiquery.plan_units` (see
``DrillSession.aggregates``); a change to either rule must land in both
implementations.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .forder import FactorizationError, HierarchyPaths
from .multiquery import (AggregateSet, HierarchyAggregates, combine_units,
                         hierarchy_unit, merge_unit_delta)

MODES = ("static", "dynamic", "cache")


class DrilldownEngine:
    """Maintains decomposed aggregates across drill-down invocations.

    Parameters
    ----------
    full_paths:
        The *fully specific* paths of every hierarchy, in hierarchy order.
        Drilling truncates/extends views of these.
    initial_depths:
        How many attributes of each hierarchy are initially revealed
        (must be ≥ 1 so every hierarchy participates in the matrix).
    mode:
        "static", "dynamic" or "cache" (see module docstring).
    builder / combiner:
        The unit build and recombination implementations. Default to the
        array-native :func:`~repro.factorized.multiquery.hierarchy_unit` /
        :func:`~repro.factorized.multiquery.combine_units`; the Figure 9
        benchmark passes the frozen dict-oracle pair from
        :mod:`repro.factorized.reference` to measure the array speedup on
        identical plan structure.
    """

    def __init__(self, full_paths: Sequence[HierarchyPaths],
                 initial_depths: Mapping[str, int] | None = None,
                 mode: str = "cache",
                 builder: Callable[[HierarchyPaths], HierarchyAggregates]
                 = hierarchy_unit,
                 combiner: Callable[[list], AggregateSet] = combine_units):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self._builder = builder
        self._combiner = combiner
        self.full_paths: dict[str, HierarchyPaths] = {
            p.name: p for p in full_paths}
        if len(self.full_paths) != len(full_paths):
            raise FactorizationError("duplicate hierarchy names")
        self._order_names: list[str] = [p.name for p in full_paths]
        self.depths: dict[str, int] = {}
        for name, paths in self.full_paths.items():
            depth = (initial_depths or {}).get(name, 1)
            if not 1 <= depth <= len(paths.attributes):
                raise FactorizationError(
                    f"initial depth {depth} invalid for hierarchy {name!r}")
            self.depths[name] = depth
        # Instrumentation: how many expensive unit builds have run.
        self.unit_computations = 0
        # (hierarchy, depth) -> truncated HierarchyPaths (mode-independent).
        self._truncated_cache: dict[tuple[str, int], HierarchyPaths] = {}
        # Current units (dynamic/cache modes keep these warm).
        self._units: dict[str, HierarchyAggregates] = {}
        self._cache: dict[tuple[str, int], HierarchyAggregates] = {}
        # Units built while evaluating candidates this invocation; a commit
        # of the evaluated hierarchy reuses them instead of recomputing.
        self._evaluated: dict[tuple[str, int], HierarchyAggregates] = {}
        # Instrumentation: cached units patched in place by ingest_paths
        # (each one an O(new paths) merge instead of a full unit build).
        self.unit_patches = 0
        if self.mode != "static":
            for name in self._order_names:
                self._units[name] = self._compute_unit(name, self.depths[name])

    # -- unit computation -------------------------------------------------------------
    def _truncated(self, name: str, depth: int) -> HierarchyPaths:
        """Truncated path structure, memoized per (hierarchy, depth).

        Truncation is independent of drill state and mode, so candidates
        re-evaluated across invocations (the never-picked hierarchy of
        §5.1.3) reuse the structure — and, with it, the memoized level
        encodings the array-native unit builder gathers from.
        """
        paths = self.full_paths[name]
        if depth == len(paths.attributes):
            return paths
        key = (name, depth)
        hit = self._truncated_cache.get(key)
        if hit is None:
            hit = self._truncated_cache[key] = paths.restrict(depth)
        return hit

    def _compute_unit(self, name: str, depth: int) -> HierarchyAggregates:
        if self.mode == "cache":
            key = (name, depth)
            if key in self._cache:
                return self._cache[key]
            unit = self._build_unit(name, depth)
            self._cache[key] = unit
            return unit
        return self._build_unit(name, depth)

    def _build_unit(self, name: str, depth: int) -> HierarchyAggregates:
        self.unit_computations += 1
        return self._builder(self._truncated(name, depth))

    # -- delta ingestion ----------------------------------------------------------------
    def ingest_paths(self, name: str, new_paths) -> int:
        """Extend hierarchy ``name`` with new root-to-leaf paths.

        Memo entries are *patched*, not dropped: every cached or live
        unit of ``name`` whose depth actually gains prefixes is merged
        with a unit built from the new paths alone
        (:func:`~repro.factorized.multiquery.merge_unit_delta`); units
        of other hierarchies — and depths the delta does not reach —
        are retained untouched. Returns the number of genuinely new
        full-depth paths.
        """
        if name not in self.full_paths:
            raise FactorizationError(f"unknown hierarchy {name!r}")
        old_full = self.full_paths[name]
        extended = old_full.extend(new_paths)
        if extended is old_full:
            return 0
        known = set(old_full.paths)
        fresh = [p for p in extended.paths if p not in known]
        self.full_paths[name] = extended
        # Patch the truncated-structure memo for this hierarchy only.
        for key in [k for k in self._truncated_cache if k[0] == name]:
            self._truncated_cache[key] = extended.restrict(key[1])
        delta_units: dict[int, HierarchyAggregates | None] = {}

        def delta_unit(depth: int) -> HierarchyAggregates | None:
            """Unit over the prefixes new at ``depth`` (None: no change)."""
            if depth not in delta_units:
                old_prefixes = set(
                    old_full.paths if depth == len(old_full.attributes)
                    else old_full.restrict(depth).paths)
                added = {p[:depth] for p in fresh} - old_prefixes
                delta_units[depth] = None if not added else hierarchy_unit(
                    HierarchyPaths(name, extended.attributes[:depth], added))
            return delta_units[depth]

        for (n, depth), unit in list(self._cache.items()):
            if n != name:
                continue  # other hierarchies' entries stay warm untouched
            patch = delta_unit(depth)
            if patch is not None:
                self._cache[(n, depth)] = merge_unit_delta(unit, patch)
                self.unit_patches += 1
        if name in self._units:
            patch = delta_unit(self.depths[name])
            if patch is not None:
                if self.mode == "cache":
                    self._units[name] = self._cache[(name, self.depths[name])] \
                        if (name, self.depths[name]) in self._cache \
                        else merge_unit_delta(self._units[name], patch)
                else:
                    self._units[name] = merge_unit_delta(self._units[name],
                                                         patch)
                    self.unit_patches += 1
        self._evaluated.clear()  # tentative units may predate the delta
        return len(fresh)

    # -- candidate evaluation -----------------------------------------------------------
    def candidates(self) -> list[str]:
        """Hierarchies that can still be drilled one level deeper."""
        return [n for n in self._order_names
                if self.depths[n] < len(self.full_paths[n].attributes)]

    def evaluate_candidate(self, name: str) -> AggregateSet:
        """Aggregates of the matrix with ``name`` drilled one level deeper.

        The candidate hierarchy moves to the end of the hierarchy order
        (§3.4: the drill-down hierarchy is ordered last).
        """
        if name not in self.full_paths:
            raise FactorizationError(f"unknown hierarchy {name!r}")
        new_depth = self.depths[name] + 1
        if new_depth > len(self.full_paths[name].attributes):
            raise FactorizationError(f"hierarchy {name!r} is fully drilled")
        order_names = [n for n in self._order_names if n != name] + [name]
        units = []
        for n in order_names:
            if n == name:
                unit = self._compute_unit(n, new_depth)
                if self.mode != "static":
                    self._evaluated[(n, new_depth)] = unit
                units.append(unit)
            elif self.mode == "static":
                units.append(self._compute_unit(n, self.depths[n]))
            else:
                units.append(self._units[n])
        return self._combiner(units)

    def evaluate_all(self) -> dict[str, AggregateSet]:
        """One Reptile invocation: evaluate every candidate drill-down."""
        return {name: self.evaluate_candidate(name)
                for name in self.candidates()}

    # -- committing a drill --------------------------------------------------------------
    def drill(self, name: str) -> None:
        """Commit the user's choice: hierarchy ``name`` gains one level."""
        new_depth = self.depths[name] + 1
        if new_depth > len(self.full_paths[name].attributes):
            raise FactorizationError(f"hierarchy {name!r} is fully drilled")
        self.depths[name] = new_depth
        self._order_names = [n for n in self._order_names if n != name] + [name]
        if self.mode != "static":
            evaluated = self._evaluated.get((name, new_depth))
            self._units[name] = evaluated if evaluated is not None \
                else self._compute_unit(name, new_depth)
            self._evaluated.clear()

    def current_aggregates(self) -> AggregateSet:
        """Aggregates of the committed state (no tentative drill)."""
        units = []
        for n in self._order_names:
            if self.mode == "static":
                units.append(self._compute_unit(n, self.depths[n]))
            else:
                units.append(self._units[n])
        return self._combiner(units)
