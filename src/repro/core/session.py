"""The Reptile engine and its iterative drill-down session (§2.1, §4.5).

:class:`Reptile` is initialised with a :class:`HierarchicalDataset` (plus
optional feature/model configuration). A :class:`DrillSession` then tracks
the analyst's position — current group-by level and accumulated coordinate
filters — and, per complaint, recommends the next drill-down hierarchy and
the top-K groups to inspect, exactly the loop of the FIST walkthrough:
complain → recommend → drill → repeat.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..factorized.forder import HierarchyPaths
from ..factorized.multiquery import (AggregateSet, HierarchyAggregates,
                                     combine_units, hierarchy_unit,
                                     plan_units)
from ..model.features import AuxiliaryFeature, FeaturePlan
from ..relational.cube import Cube, CubeDelta, GroupView
from ..relational.dataset import HierarchicalDataset
from ..relational.delta import Delta, DeltaError, locate_rows
from ..relational.encoding import decode_keys
from ..relational.hierarchy import DrillState
from ..robustness.faultinject import fault_point
from .complaint import Complaint
from .ranker import Recommendation, rank_candidates
from .repair import ModelRepairer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.cache import AggregateCache

#: Session staleness policies: how a session reacts when the engine's
#: data has moved past the version the session last synchronized with.
STALENESS_POLICIES = ("sync", "strict")


class SessionError(ValueError):
    """Raised for invalid session operations."""


class StaleDataError(SessionError):
    """A strict session touched data newer than its pinned version.

    Carries the session's pinned ``data_version`` and the engine's
    ``current`` version so serving front ends can report both (the HTTP
    server maps this to a 409 with the two versions in the body).
    """

    def __init__(self, message: str, pinned: int | None = None,
                 current: int | None = None):
        super().__init__(message)
        self.pinned = pinned
        self.current = current


@dataclass
class ReptileConfig:
    """Engine configuration.

    Parameters
    ----------
    model:
        "multilevel" (default) or "linear".
    n_em_iterations:
        EM iterations for the multi-level model (paper: 20).
    top_k:
        Groups reported per recommendation.
    auto_auxiliary:
        Automatically add features from registered auxiliary datasets when
        the drill-down level contains their join attributes (§3.3.2).

    The cube is always built in one vectorized pass over the relation;
    inputs too large for one in-memory relation go through
    :func:`~repro.relational.shard.spill_build_from_chunks` instead.
    """

    model: str = "multilevel"
    n_em_iterations: int = 20
    top_k: int = 5
    auto_auxiliary: bool = True
    #: Default per-session staleness policy: "sync" fast-forwards a
    #: session automatically when the engine ingested newer data;
    #: "strict" raises :class:`StaleDataError` until an explicit
    #: :meth:`DrillSession.sync`.
    staleness: str = "sync"


class Reptile:
    """The explanation engine: data in, drill-down recommendations out."""

    def __init__(self, dataset: HierarchicalDataset,
                 feature_plan: FeaturePlan | None = None,
                 config: ReptileConfig | None = None,
                 repairer: ModelRepairer | None = None,
                 cache: "AggregateCache | None" = None):
        self.dataset = dataset
        self.config = config or ReptileConfig()
        self.feature_plan = feature_plan or FeaturePlan()
        self.cache = cache
        self.fingerprint: str | None = None
        if cache is not None:
            from ..serving.cache import dataset_fingerprint
            from ..serving.engine import CachingCube
            # refresh=True: never trust a fingerprint memoized before an
            # in-place mutation — a fresh engine must hash what the data
            # says *now*, or it would silently serve pre-mutation entries.
            self.fingerprint = dataset_fingerprint(dataset, refresh=True)
            self.cube: Cube = CachingCube(dataset, cache, self.fingerprint)
        else:
            self.cube = Cube(dataset)
        self._repairer = repairer
        self._full_paths: dict[str, HierarchyPaths] | None = None
        # Monotonically increasing data version: bumped by every
        # apply_delta() and refresh(). Sessions pin the version they last
        # synchronized with and fast-forward through the delta log.
        self.data_version = 0
        # Per version bump: the set of hierarchy names whose path
        # structure changed (None = everything, a full refresh). Bounded:
        # entries older than _LOG_LIMIT versions are compacted away and
        # sessions pinned before the floor resync in full.
        self._delta_log: list[tuple[int, frozenset[str] | None]] = []
        self._log_floor = 0
        # Instrumentation: hierarchy-unit builds actually executed (after
        # any cache hit) — the expensive §4.4 recomputations.
        self.unit_builds = 0

    def repairer_for(self, group_attrs: Sequence[str]) -> ModelRepairer:
        """The repair function for a drill-down level.

        Starts from the configured plan and appends auxiliary features that
        became applicable at this level. With a serving cache attached the
        repairer is wrapped so per-view predictions are memoized.
        """
        repairer = self._base_repairer(group_attrs)
        if self.cache is not None:
            from ..serving.engine import CachingRepairer
            return CachingRepairer(repairer, self.cache)
        return repairer

    def _base_repairer(self, group_attrs: Sequence[str]) -> ModelRepairer:
        if self._repairer is not None:
            return self._repairer
        plan = self.feature_plan
        if self.config.auto_auxiliary:
            extra = list(plan.extra_specs)
            for aux in self.dataset.applicable_auxiliary(group_attrs):
                for measure in aux.measures:
                    spec = AuxiliaryFeature(aux, measure)
                    if spec not in extra:
                        extra.append(spec)
            plan = replace(plan, extra_specs=extra)
        return ModelRepairer(feature_plan=plan, model=self.config.model,
                             n_iterations=self.config.n_em_iterations)

    # -- decomposed aggregates (§4.4) ---------------------------------------------------
    def full_paths(self) -> dict[str, HierarchyPaths]:
        """Fully specific root-to-leaf paths of every hierarchy (memoized)."""
        if self._full_paths is None:
            self._full_paths = {
                h.name: HierarchyPaths.from_relation(h, self.dataset.relation)
                for h in self.dataset.dimensions}
        return self._full_paths

    def build_unit(self, paths: HierarchyPaths) -> HierarchyAggregates:
        """One hierarchy's aggregate unit, via the serving cache if present."""
        def compute() -> HierarchyAggregates:
            self.unit_builds += 1
            return hierarchy_unit(paths)
        if self.cache is None:
            return compute()
        key = ("hunit", self.fingerprint, paths.name, paths.attributes)
        return self.cache.get_or_compute(key, compute)

    def refresh(self) -> None:
        """Re-read the dataset after an arbitrary in-place mutation.

        The full-invalidation path (contrast :meth:`apply_delta`):
        rebuilds the cube's leaf states, recomputes the fingerprint (so
        cached entries for the old contents can no longer be hit), and
        drops memoized hierarchy paths; the data version bumps with an
        everything-changed log entry, so live sessions discard all their
        reusable aggregate units on their next synchronization.
        """
        self._full_paths = None
        self.data_version += 1
        self._log_version(self.data_version, None)
        if self.cache is not None:
            base = self.cube.refresh()
            self.fingerprint = f"{base}@{self.data_version}"
            self.cube.fingerprint = self.fingerprint
        else:
            # In place: everything holding a cube reference stays valid.
            self.cube.rebuild()

    #: Delta-log entries kept; a trickle of ingests must not grow the
    #: engine without bound. Sessions stale by more than this many
    #: versions simply resync everything.
    _LOG_LIMIT = 256

    def touched_since(self, version: int) -> frozenset[str] | None:
        """Hierarchies whose paths changed after ``version`` (None = all)."""
        if version < self._log_floor:
            return None  # history compacted away: resync in full
        names: set[str] = set()
        for v, touched in self._delta_log:
            if v <= version:
                continue
            if touched is None:
                return None
            names |= touched
        return frozenset(names)

    def _log_version(self, version: int,
                     touched: frozenset[str] | None) -> None:
        self._delta_log.append((version, touched))
        if len(self._delta_log) > self._LOG_LIMIT:
            dropped = self._delta_log[:-self._LOG_LIMIT]
            self._delta_log = self._delta_log[-self._LOG_LIMIT:]
            self._log_floor = dropped[-1][0]

    def apply_delta(self, delta: Delta) -> int:
        """Ingest a delta batch incrementally; returns the new version.

        The "maintain continuously" path: instead of a full
        :meth:`refresh`, the delta's rows are threaded through every
        layer — the relation appends/retracts with copy-on-write columns,
        the cube merges a bincount of just the delta batch, hierarchy
        paths extend with the new root-to-leaf paths, and (with a serving
        cache attached) cached views and units are patched or retained
        under the new versioned fingerprint rather than invalidated.
        Sessions pinned to an older version fast-forward via
        :meth:`DrillSession.sync`. Raises
        :class:`~repro.relational.delta.DeltaError` — with nothing
        mutated — when a retraction matches no remaining base row.

        Ingest is atomic: any exception between the first state mutation
        and the commit (the ``ingest.commit`` fault point sits right
        before it) triggers :meth:`_rollback_delta`, so an observer never
        sees the cube or cache patched to a version the engine does not
        report. The relation itself is copy-on-write (``new_rel`` is
        built aside and swapped in at commit), so it needs no rollback.
        """
        relation = self.dataset.relation
        delta.check_against(relation.schema)
        if delta.is_empty():
            return self.data_version
        paths = self.full_paths()  # memoize *pre*-delta paths to patch
        self._validate_delta_paths(delta, paths)
        # Validate retractions at row granularity before touching state.
        removed_idx = locate_rows(relation, delta.retracted) \
            if len(delta.retracted) else None
        version = self.data_version + 1
        old_fp = self.fingerprint
        new_fp: str | None = None
        if self.cache is not None:
            base = (self.fingerprint or "").split("@", 1)[0]
            new_fp = f"{base}@{version}"
        cube_delta: CubeDelta
        try:
            if self.cache is not None:
                cube_delta, touched = self._apply_delta_cached(delta, paths,
                                                               new_fp)
                self.fingerprint = new_fp
            else:
                cube_delta = self.cube.apply_delta(delta)
                touched = self._patch_paths(cube_delta)
            new_rel = relation
            if removed_idx is not None:
                new_rel = new_rel.without_rows(removed_idx)
            if len(delta.appended):
                new_rel = new_rel.with_rows_appended(delta.appended)
            fault_point("ingest.commit", version=version)
        except Exception:
            self._rollback_delta(old_fp, new_fp)
            raise
        self.dataset.relation = new_rel
        self.data_version = version
        self._log_version(version, frozenset(touched))
        return version

    def _rollback_delta(self, old_fp: str | None,
                        new_fp: str | None) -> None:
        """Undo a partially applied delta; the engine re-reads committed
        state.

        The relation was never swapped, so rebuilding the cube from it
        restores the pre-delta leaf arrays bitwise (the build kernels are
        deterministic). Cache entries the failed delta already re-keyed
        under ``new_fp`` are dropped; entries popped from ``old_fp``
        during patching are simply lost — a cold cache, not a wrong one.
        Memoized hierarchy paths recompute lazily from the relation.
        """
        self._full_paths = None
        self.cube.rebuild()
        if self.cache is not None:
            self.cube.fingerprint = old_fp
            self.fingerprint = old_fp
            if new_fp is not None:
                self.cache.invalidate(new_fp)

    def _apply_delta_cached(self, delta: Delta,
                            paths: dict[str, HierarchyPaths],
                            new_fp: str) -> tuple[CubeDelta, set[str]]:
        """Cube delta + cache patching under the new versioned fingerprint."""
        from ..serving.engine import patch_cache_for_delta
        old_fp = self.cube.fingerprint
        cube_delta = self.cube.apply_delta(delta)
        self.cube.fingerprint = new_fp
        old_paths = dict(paths)
        touched = self._patch_paths(cube_delta)
        patch_cache_for_delta(
            self.cache, old_fp, new_fp, cube_delta,
            self.cube.leaf_attrs, touched, old_paths, self._full_paths)
        return cube_delta, touched

    def _validate_delta_paths(self, delta: Delta,
                              paths: dict[str, HierarchyPaths]) -> None:
        """Reject appends violating the leaf → ancestors FD, pre-mutation."""
        if not len(delta.appended):
            return
        for h in self.dataset.dimensions:
            leaf_to_path = {p[-1]: p for p in paths[h.name].paths}
            cols = [delta.appended.column_values(a) for a in h.attributes]
            for path in zip(*cols):
                known = leaf_to_path.setdefault(path[-1], path)
                if known != path:
                    raise DeltaError(
                        f"appended rows violate hierarchy {h.name!r}: leaf "
                        f"{path[-1]!r} maps to both {known!r} and {path!r}")

    def _patch_paths(self, cube_delta: CubeDelta) -> set[str]:
        """Patch memoized hierarchy paths from a cube delta.

        Hierarchies the delta did not touch keep their
        :class:`HierarchyPaths` object (and with it every identity-keyed
        memo downstream); touched hierarchies extend with the new
        root-to-leaf paths, or — when a retraction emptied leaf groups —
        recompute from the cube's surviving leaf keys, which is
        O(leaf groups), never O(rows). Returns the touched names.
        """
        assert self._full_paths is not None
        leaf_attrs = self.cube.leaf_attrs
        touched: set[str] = set()
        for h in self.dataset.dimensions:
            positions = [leaf_attrs.index(a) for a in h.attributes]
            old = self._full_paths[h.name]
            known = set(old.paths)
            encs = [cube_delta.encodings[p] for p in positions]
            new_paths: set[tuple] = set()
            if len(cube_delta.added):
                decoded = decode_keys(
                    np.unique(cube_delta.added[:, positions], axis=0), encs)
                new_paths = {p for p in decoded if p not in known}
            lost_paths: set[tuple] = set()
            if len(cube_delta.removed):
                # A dropped leaf group may have been a path's last
                # witness: one sorted-membership pass over the surviving
                # leaf keys finds the paths that actually vanished.
                vanished = self.cube.vanished_keys(
                    positions,
                    np.unique(cube_delta.removed[:, positions], axis=0))
                lost_paths = {p for p in decode_keys(vanished, encs)
                              if p in known}
            if lost_paths:
                self._full_paths[h.name] = HierarchyPaths(
                    h.name, h.attributes, (known - lost_paths) | new_paths)
                touched.add(h.name)
            elif new_paths:
                self._full_paths[h.name] = old.extend(new_paths)
                touched.add(h.name)
        return touched

    def session(self, group_by: Sequence[str] = (),
                filters: Mapping | None = None,
                staleness: str | None = None) -> "DrillSession":
        """Start an exploration session at the given group-by level.

        Filtering a hierarchy attribute implies that level is already
        drilled (Example 7: the view "District=Ofla, Year" sits at the
        district level of geography, so the next geo drill is village).
        The effective group-by is the union of hierarchy prefixes implied
        by ``group_by`` and ``filters``. ``staleness`` overrides the
        engine's default policy for this session (see
        :data:`STALENESS_POLICIES`).
        """
        filters = dict(filters or {})
        depths: dict[str, int] = {h.name: 0 for h in self.dataset.dimensions}
        for attr in list(group_by) + list(filters):
            h = self.dataset.dimensions.hierarchy_of(attr)
            depths[h.name] = max(depths[h.name], h.level(attr) + 1)
        effective: list[str] = []
        for h in self.dataset.dimensions:
            effective.extend(h.prefix(depths[h.name]))
        state = DrillState.from_groupby(self.dataset.dimensions, effective)
        return DrillSession(self, state, filters, staleness=staleness)

    def recommend(self, complaint: Complaint,
                  group_by: Sequence[str] = (),
                  filters: Mapping | None = None,
                  k: int | None = None) -> Recommendation:
        """One-shot recommendation without an explicit session."""
        return self.session(group_by, filters).recommend(complaint, k=k)


class DrillSession:
    """Tracks the analyst's position in the drill-down workflow.

    Every session pins the engine ``data_version`` it last synchronized
    with. When the engine ingests deltas (or refreshes wholesale), the
    session's staleness policy decides what happens on its next query:
    ``"sync"`` (default) fast-forwards automatically via :meth:`sync`,
    re-merging only what the pending deltas touched; ``"strict"`` raises
    :class:`StaleDataError` until :meth:`sync` is called explicitly —
    for callers that must never mix results across data versions inside
    one analysis step.
    """

    def __init__(self, engine: Reptile, state: DrillState, filters: dict,
                 staleness: str | None = None):
        self.engine = engine
        self.state = state
        self.filters = filters
        self.history: list[Recommendation] = []
        # A session is single-writer: its drill state, filters, history
        # and reusable units all mutate per request. Concurrent serving
        # front ends serialize requests for one session id on this lock
        # (the session itself never acquires it — no nesting).
        self.lock = threading.RLock()
        policy = staleness or engine.config.staleness
        if policy not in STALENESS_POLICIES:
            raise SessionError(
                f"staleness must be one of {STALENESS_POLICIES}, "
                f"got {policy!r}")
        self.staleness = policy
        # Incrementally maintained per-hierarchy aggregate units (§4.4):
        # hierarchy name -> HierarchyAggregates at the current drill depth.
        self._units: dict[str, HierarchyAggregates] = {}
        # Hierarchy order of the factorised matrix; each committed drill
        # moves the drilled hierarchy to the end (§3.4).
        self._unit_order: list[str] = [h.name
                                       for h in engine.dataset.dimensions]
        # The engine data version this session last synchronized with.
        self.data_version = engine.data_version
        # Units this session could not reuse from its previous state.
        self.unit_computations = 0

    # -- staleness --------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the engine ingested data this session has not seen."""
        return self.data_version != self.engine.data_version

    def sync(self) -> "DrillSession":
        """Fast-forward to the engine's current data version.

        Re-merges only the deltas applied since the pinned version: a
        hierarchy untouched by every pending delta keeps its reusable
        §4.4 aggregate unit; touched (or wholesale-refreshed) hierarchies
        drop theirs and are rebuilt — normally straight from the patched
        serving cache — on the next :meth:`aggregates`.
        """
        if not self.is_stale():
            return self
        touched = self.engine.touched_since(self.data_version)
        if touched is None:
            self._units = {}
        else:
            for name in touched:
                self._units.pop(name, None)
        self.data_version = self.engine.data_version
        return self

    def _ensure_fresh(self) -> None:
        if not self.is_stale():
            return
        if self.staleness == "strict":
            raise StaleDataError(
                f"session pinned at data version {self.data_version} but "
                f"the engine is at {self.engine.data_version}; call "
                f"sync() to fast-forward",
                pinned=self.data_version,
                current=self.engine.data_version)
        self.sync()

    # -- views ------------------------------------------------------------------------
    @property
    def group_by(self) -> tuple[str, ...]:
        return self.state.group_by()

    def view(self) -> GroupView:
        """The current aggregate view the analyst is looking at."""
        self._ensure_fresh()
        return self.engine.cube.view(self.group_by, filters=self.filters)

    def aggregates(self) -> AggregateSet:
        """Decomposed aggregates {TOTAL, COUNT, COF} of the current state.

        Maintained incrementally per §4.4: after a :meth:`drill`, only the
        drilled hierarchy's :class:`HierarchyAggregates` unit is
        recomputed; every other hierarchy's unit is reused and merely
        rescaled inside :func:`~repro.factorized.multiquery.combine_units`.
        ``unit_computations`` counts the non-reused units for tests and
        instrumentation. The same §4.4 rules power the Figure 9 benchmark's
        :class:`~repro.factorized.drilldown.DrilldownEngine` (which adds
        tentative candidate evaluation and per-mode accounting) — a change
        to the reuse or ordering rule must land in both.
        """
        def counting_builder(paths: HierarchyPaths) -> HierarchyAggregates:
            self.unit_computations += 1
            return self.engine.build_unit(paths)
        self._ensure_fresh()
        units = plan_units(self.engine.full_paths(), self.state.depths,
                           self._unit_order, self._units,
                           builder=counting_builder)
        self._units = units
        return combine_units([units[n] for n in self._unit_order
                              if n in units])

    def reset_aggregates(self) -> None:
        """Forget reusable units (call after the dataset was mutated)."""
        self._units = {}
        self.data_version = self.engine.data_version

    # -- the complaint loop -------------------------------------------------------------
    def provenance(self, complaint: Complaint) -> dict:
        """Coordinate filter identifying the complaint tuple's provenance."""
        coords = dict(self.filters)
        for attr, value in complaint.coordinates.items():
            if attr not in self.group_by and attr not in self.filters:
                raise SessionError(
                    f"complaint coordinate {attr!r} is not a grouped or "
                    f"filtered attribute of this session")
            coords[attr] = value
        return coords

    def recommend(self, complaint: Complaint,
                  k: int | None = None) -> Recommendation:
        """Recommend the next drill-down hierarchy and its top groups."""
        self._ensure_fresh()
        candidates = [(h.name, attr) for h, attr in self.state.candidates()]
        if not candidates:
            raise SessionError("every hierarchy is fully drilled down")
        repairer = self.engine.repairer_for(
            self.group_by + tuple(a for _, a in candidates))
        top_k = k or self.engine.config.top_k
        # k is threaded into the ranker so the array sweep materializes
        # ScoredGroup records only for the groups the analyst will see.
        recommendation = rank_candidates(
            self.engine.cube, self.group_by, candidates, complaint,
            self.provenance(complaint), repairer, k=top_k)
        for rec in recommendation.per_hierarchy.values():
            rec.groups = rec.top(top_k)
        self.history.append(recommendation)
        return recommendation

    def drill(self, hierarchy: str,
              coordinates: Mapping | None = None) -> "DrillSession":
        """Commit a drill-down, optionally zooming into chosen coordinates.

        ``coordinates`` (e.g. the complaint tuple's key, or a recommended
        group's coordinates) become part of the session filter, mirroring
        the provenance replacement of Example 7.
        """
        self._ensure_fresh()
        self.state = self.state.drill(hierarchy)
        if coordinates:
            for attr, value in coordinates.items():
                self.filters[attr] = value
        # §4.4 maintenance: only the drilled hierarchy's unit is stale;
        # it also moves to the end of the matrix's hierarchy order (§3.4).
        self._units.pop(hierarchy, None)
        if hierarchy in self._unit_order:
            self._unit_order.remove(hierarchy)
            self._unit_order.append(hierarchy)
        return self

    def __repr__(self) -> str:
        return (f"DrillSession(group_by={list(self.group_by)}, "
                f"filters={self.filters})")
