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

from ..model.features import AuxiliaryFeature, FeaturePlan
from ..relational.cube import Cube, GroupView
from ..relational.dataset import HierarchicalDataset
from ..relational.delta import Delta, DeltaError, locate_rows
from ..relational.hierarchy import DrillState
from ..relational.relation import Relation
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
    inputs that arrive as column chunks are encoded without a row image
    by :func:`~repro.relational.shard.dataset_from_chunks`.
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
            self.fingerprint = dataset_fingerprint(dataset)
            self.cube: Cube = CachingCube(dataset, cache, self.fingerprint)
        else:
            self.cube = Cube(dataset)
        #: The repair function passed at construction, or None: every
        #: drill level then gets a ModelRepairer from ``config`` and
        #: ``feature_plan``.
        self.custom_repairer = repairer
        # Monotonically increasing data version: bumped by every
        # apply_delta() and refresh(). Sessions pin the version they last
        # synchronized with (see DrillSession.is_stale).
        self.data_version = 0

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
        if self.custom_repairer is not None:
            return self.custom_repairer
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

    def refresh(self) -> None:
        """Rebuild from ``dataset.relation``, wholesale.

        The recovery path, and the path for a relation swapped in whole
        (contrast :meth:`apply_delta`): rebuilds the cube's leaf states
        in place, so everything holding a cube reference stays valid,
        and re-hashes the fingerprint (so cached entries for the old
        contents can no longer be hit). The data version bumps, so live
        sessions see the new data after their next synchronization. A
        rebuild that raises changes none of this: the engine keeps
        serving its previous version.
        """
        self.cube.rebuild()
        self.data_version += 1
        if self.cache is not None:
            from ..serving.cache import dataset_fingerprint
            self.fingerprint = \
                f"{dataset_fingerprint(self.dataset)}@{self.data_version}"
            self.cube.fingerprint = self.fingerprint

    def apply_delta(self, delta: Delta) -> int:
        """Ingest a delta batch incrementally; returns the new version.

        The "maintain continuously" path: instead of a full
        :meth:`refresh`, the delta's rows are threaded through every
        layer — the relation appends/retracts with copy-on-write columns,
        the cube merges a bincount of just the delta batch and checks
        every hierarchy FD on the merged leaf keys, and (with a serving
        cache attached) cached views and model fits are patched, retained
        or dropped under the new lineage fingerprint rather than
        invalidated wholesale. Sessions pinned to an older version
        fast-forward via :meth:`DrillSession.sync`. Raises
        :class:`~repro.relational.delta.DeltaError` — with nothing
        mutated — when a retraction matches no remaining base row, the
        post-delta rows break a hierarchy FD, or an appended row carries
        a non-scalar dimension cell or a measure that is not a finite
        number.

        Ingest is atomic. ``Cube.apply_delta`` assigns nothing until its
        checks pass, so a rejected delta needs no rollback. Any exception
        after it and up to the commit (the ``ingest.commit`` fault point
        sits right before it) triggers :meth:`_rollback_delta`, so an
        observer never sees the cube or cache patched to a version the
        engine does not report. The relation itself is copy-on-write
        (``new_rel`` is built aside and swapped in at commit), so it
        needs no rollback.
        """
        relation = self.dataset.relation
        delta.check_against(relation.schema)
        if delta.is_empty():
            return self.data_version
        self._validate_delta_cells(delta)
        delta = self._float_measure(delta)
        # Validate retractions at row granularity before touching state.
        removed_idx = locate_rows(relation, delta.retracted) \
            if len(delta.retracted) else None
        old_fp = self.fingerprint
        new_fp: str | None = None
        if self.cache is not None:
            from ..serving.cache import delta_fingerprint
            new_fp = delta_fingerprint(old_fp, delta)
        cube_delta = self.cube.apply_delta(delta)
        version = self.data_version + 1
        try:
            if self.cache is not None:
                from ..serving.engine import patch_cache_for_delta
                self.cube.fingerprint = self.fingerprint = new_fp
                patch_cache_for_delta(self.cache, old_fp, new_fp, cube_delta,
                                      self.cube.leaf_attrs)
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
        return version

    def _rollback_delta(self, old_fp: str | None,
                        new_fp: str | None) -> None:
        """Undo a delta the cube already merged; the engine re-reads
        committed state.

        The relation was never swapped, so rebuilding the cube from it
        restores the pre-delta leaf arrays bitwise (the build kernels are
        deterministic). Cache entries the failed delta already re-keyed
        under ``new_fp`` are dropped; entries popped from ``old_fp``
        during patching are simply lost — a cold cache, not a wrong one.
        """
        self.cube.rebuild()
        if self.cache is not None:
            self.cube.fingerprint = old_fp
            self.fingerprint = old_fp
            if new_fp is not None:
                self.cache.invalidate(new_fp)

    def _validate_delta_cells(self, delta: Delta) -> None:
        """Reject appended dimension cells that cannot be group keys (a
        list or an object), pre-mutation: a bad request, not a fault."""
        if not len(delta.appended):
            return
        for attr in self.dataset.dimensions.attributes():
            try:
                set(delta.appended.column(attr))
            except TypeError as exc:
                raise DeltaError(f"appended {attr!r} cell is not a "
                                 f"scalar: {exc}") from None

    def _float_measure(self, delta: Delta) -> Delta:
        """``delta`` with its appended measure cells as a float64 array.

        Rejects, pre-mutation, appended measure cells the cube cannot
        convert to a finite float: a malformed cell is a bad request,
        not a fault. NaN (what a JSON ``null`` decodes to) is rejected
        with ±inf: a NaN row could never be retracted (NaN matches no
        cell) and would poison every fit over its groups. The accepted
        cells are stored as the floats the cube sums, so an integer cell
        (what a JSON ``7`` decodes to) appends to a float64 measure
        column as float64 and never turns it into a Python list.
        """
        appended = delta.appended
        if not len(appended):
            return delta
        measure = self.dataset.measure
        try:
            values = appended.measure_array(measure)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DeltaError(
                f"appended measure {measure!r} is not "
                f"numeric: {exc}") from None
        if not np.isfinite(values).all():
            raise DeltaError(
                f"appended measure {measure!r} is not "
                f"finite: NaN or ±inf in an appended row")
        columns = {name: values if name == measure else appended.column(name)
                   for name in appended.schema.names}
        return Delta(Relation.from_encoded(appended.schema, columns),
                     delta.retracted)

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
    ``"sync"`` (default) fast-forwards automatically via :meth:`sync`;
    ``"strict"`` raises :class:`StaleDataError` until :meth:`sync` is
    called explicitly — for callers that must never mix results across
    data versions inside one analysis step. A session holds no derived
    data of its own: every view and fit comes from the engine's cube
    (and serving cache), which the engine keeps current.
    """

    def __init__(self, engine: Reptile, state: DrillState, filters: dict,
                 staleness: str | None = None):
        self.engine = engine
        self.state = state
        self.filters = filters
        self.history: list[Recommendation] = []
        # A session is single-writer: its drill state, filters and
        # history all mutate per request. Concurrent serving front ends
        # serialize requests for one session id on this lock (the
        # session itself never acquires it — no nesting).
        self.lock = threading.RLock()
        policy = staleness or engine.config.staleness
        if policy not in STALENESS_POLICIES:
            raise SessionError(
                f"staleness must be one of {STALENESS_POLICIES}, "
                f"got {policy!r}")
        self.staleness = policy
        # The engine data version this session last synchronized with.
        self.data_version = engine.data_version

    # -- staleness --------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the engine ingested data this session has not seen."""
        return self.data_version != self.engine.data_version

    def sync(self) -> "DrillSession":
        """Fast-forward to the engine's current data version.

        Only the pinned version moves: the session's next view or
        recommend reads the engine's cube, which every ingest and
        refresh already brought up to date.
        """
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
        self.history.append(recommendation)
        return recommendation

    def drill(self, hierarchy: str,
              coordinates: Mapping | None = None) -> "DrillSession":
        """Commit a drill-down, optionally zooming into chosen coordinates.

        ``coordinates`` (e.g. the complaint tuple's key, or a recommended
        group's coordinates) become part of the session filter, mirroring
        the provenance replacement of Example 7. Every coordinate must
        name a hierarchy attribute; a rejected drill changes nothing.
        """
        self._ensure_fresh()
        coordinates = dict(coordinates or {})
        for attr in coordinates:
            self.engine.dataset.dimensions.hierarchy_of(attr)
        self.state = self.state.drill(hierarchy)
        self.filters.update(coordinates)
        return self

    def __repr__(self) -> str:
        return (f"DrillSession(group_by={list(self.group_by)}, "
                f"filters={self.filters})")
