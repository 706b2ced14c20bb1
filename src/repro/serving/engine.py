"""Cache-backed wrappers for the engine's hot-path computations.

Two memoized layers make a warm :class:`~repro.core.session.Reptile`
fast:

* :class:`CachingCube` — group-by roll-ups. Every ``view()`` result is a
  pure function of (data, group attributes, filters); the wrapper keys it
  as ``("view", fingerprint, group_attrs, filters)`` so drill-down,
  parallel and provenance views are each rolled up once.
* :class:`CachingRepairer` — repair predictions. A prediction depends on
  the parallel view plus the repairer's configuration, *not* on the
  complaint coordinates, so every complaint against the same view (and
  every replay of a drill path) shares one model fit. Repairers whose
  configuration cannot be fingerprinted (custom callables) bypass the
  cache rather than risk a stale hit.

Both layers cache the *array-backed* objects of the recommend path: a
memoized :class:`~repro.relational.cube.GroupView` carries its
``GroupStats`` block plus encoded key codes, and a memoized
:class:`~repro.core.repair.RepairPrediction` is the
``(statistics, matrix)`` container — so every complaint batched against
the same view reuses one set of arrays end to end, and the array ranker
never rebuilds per-group dicts between requests.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.repair import ModelRepairer, RepairPrediction
from ..factorized.forder import HierarchyPaths
from ..factorized.multiquery import hierarchy_unit, merge_unit_delta
from ..model.features import (AuxiliaryFeature, CustomFeature, FeaturePlan,
                              LagFeature, MainEffectFeature)
from ..relational.cube import (Cube, CubeDelta, GroupView, StatesMap,
                               merge_stats_blocks)
from ..relational.dataset import HierarchicalDataset
from ..relational.encoding import combine_codes, decode_keys
from .cache import AggregateCache, dataset_fingerprint

#: Attribute attached to every GroupView a :class:`CachingCube` returns;
#: holds the view's full cache key so downstream caches can identify the
#: exact view (data fingerprint, group attributes *and* filters). Views
#: without it (built by a plain Cube) are opaque and bypass caching.
_VIEW_KEY_ATTR = "_serving_view_key"


def freeze_filters(filters: Mapping | None) -> tuple:
    """Filters as a hashable, order-insensitive cache-key component."""
    return tuple(sorted((filters or {}).items(), key=lambda kv: kv[0]))


def spec_signature(spec: object) -> tuple | None:
    """A hashable fingerprint of one feature spec, or None if opaque.

    Auxiliary features are identified by dataset name and measure — the
    registration is immutable (:class:`~repro.relational.dataset.AuxiliaryDataset`
    is frozen) and names are unique per dataset. Custom features embed
    arbitrary callables, so they cannot be fingerprinted.
    """
    if isinstance(spec, MainEffectFeature):
        return ("main", spec.attribute, spec.min_groups)
    if isinstance(spec, LagFeature):
        return ("lag", spec.attribute, spec.lag)
    if isinstance(spec, AuxiliaryFeature):
        return ("aux", spec.auxiliary.name, spec.measure)
    if isinstance(spec, CustomFeature):
        return None
    return None


def plan_signature(plan: FeaturePlan) -> tuple | None:
    """A hashable fingerprint of a feature plan, or None if opaque."""
    parts: list[tuple | str] = []
    for group in (plan.specs, plan.extra_specs):
        if group is None:
            parts.append("defaults")
            continue
        sigs = []
        for spec in group:
            sig = spec_signature(spec)
            if sig is None:
                return None
            sigs.append(sig)
        parts.append(tuple(sigs))
    return (tuple(parts), plan.intercept, plan.standardize,
            plan.random_effects)


def repairer_signature(repairer: object) -> tuple | None:
    """A hashable fingerprint of a repair function, or None if opaque."""
    if not isinstance(repairer, ModelRepairer):
        return None
    plan_sig = plan_signature(repairer.feature_plan)
    if plan_sig is None:
        return None
    return ("model-repairer", repairer.model, repairer.n_iterations,
            repairer.statistics, plan_sig)


class CachingCube(Cube):
    """The memoizing cube (drop-in :class:`Cube`).

    ``drilldown_view`` and ``parallel_view`` route through the overridden
    :meth:`view`, so the whole recommend path hits the cache. Call
    :meth:`refresh` after mutating the dataset in place.
    """

    def __init__(self, dataset: HierarchicalDataset, cache: AggregateCache,
                 fingerprint: str | None = None):
        Cube.__init__(self, dataset)
        self.cache = cache
        self.fingerprint = fingerprint or dataset_fingerprint(dataset)

    def view(self, group_attrs: Sequence[str],
             filters: Mapping[str, object] | None = None) -> GroupView:
        key = ("view", self.fingerprint, tuple(group_attrs),
               freeze_filters(filters))
        view = self.cache.get_or_compute(
            key, lambda: Cube.view(self, group_attrs, filters))
        # GroupView is a frozen dataclass; tag it with its own cache key
        # so CachingRepairer can key predictions to this exact view.
        object.__setattr__(view, _VIEW_KEY_ATTR, key)
        return view

    def refresh(self) -> str:
        """Re-read the (mutated) dataset; returns the new fingerprint.

        One rebuild, one new fingerprint: the service holds the dataset's
        exclusive lock across this call, so readers only ever observe the
        pre- or post-rebuild version. Old entries stay keyed to the old
        fingerprint — harmless for correctness; reclaim them with
        ``cache.invalidate(old_fp)``.
        """
        self.rebuild()
        self.fingerprint = dataset_fingerprint(self.dataset, refresh=True)
        return self.fingerprint


def patch_view(view: GroupView, cube_delta: CubeDelta,
               leaf_attrs: Sequence[str], group_attrs: tuple[str, ...],
               delta_mask: np.ndarray) -> GroupView | None:
    """Delta-merge a cached view in place of recomputing its roll-up.

    ``delta_mask`` selects the delta leaves passing the view's filters
    (the caller already applied them); they are rolled up to
    ``group_attrs`` and merged into the view's stats block with the same
    kernel the cube itself uses. Returns None when the view carries no
    array form (cannot be patched — drop it).
    """
    if view.key_codes is None or view.encodings is None:
        return None
    positions = [list(leaf_attrs).index(a) for a in group_attrs]
    encs = [cube_delta.encodings[p] for p in positions]
    sizes = [e.cardinality for e in encs]
    selected = np.flatnonzero(delta_mask)
    stats = cube_delta.stats.select(selected)
    gids, delta_codes = combine_codes(
        [cube_delta.key_codes[selected, p] for p in positions],
        sizes, len(selected))
    delta_stats = stats.merge_by(gids, len(delta_codes))
    old_stats = view.groups.stats if isinstance(view.groups, StatesMap) \
        else None
    if old_stats is None:
        return None
    merged_codes, merged_stats, kept, added, _ = merge_stats_blocks(
        view.key_codes, old_stats, delta_codes, delta_stats, sizes)
    old_keys = view.key_list
    keys = old_keys if kept is None else [old_keys[i] for i in kept]
    if len(added):
        keys = list(keys) + decode_keys(added, encs)
    return GroupView(group_attrs, StatesMap(keys, merged_stats),
                     key_codes=merged_codes, encodings=tuple(encs))


def patch_cache_for_delta(cache: AggregateCache, old_fp: str | None,
                          new_fp: str, cube_delta: CubeDelta,
                          leaf_attrs: Sequence[str],
                          touched: set[str],
                          old_paths: Mapping[str, HierarchyPaths],
                          new_paths: Mapping[str, HierarchyPaths]) -> None:
    """Carry one fingerprint generation of cache entries across a delta.

    Replaces wholesale invalidation: every entry keyed to ``old_fp`` is
    re-keyed under the new versioned fingerprint — *retained* as-is when
    the delta cannot have changed it, *patched* by a delta merge when it
    can, and dropped only when no incremental update exists (a model
    refit, a hierarchy that lost paths). LRU recency is preserved.
    """
    leaf_positions = {a: i for i, a in enumerate(leaf_attrs)}
    # Per touched hierarchy: the genuinely new full paths (append-only),
    # or None when paths were also removed (units cannot be patched).
    fresh_paths: dict[str, list[tuple] | None] = {}
    for name in touched:
        old = old_paths[name]
        known = set(old.paths)
        fresh = [p for p in new_paths[name].paths if p not in known]
        removed_any = len(new_paths[name].paths) != len(old.paths) + len(fresh)
        fresh_paths[name] = None if removed_any else fresh

    def view_mask(frozen_filters) -> np.ndarray:
        return cube_delta.matching_mask(
            [(leaf_positions[a], v) for a, v in frozen_filters
             if a in leaf_positions])

    patched = retained = dropped = 0
    for key, value in cache.pop_fingerprint(old_fp):
        kind = key[0] if isinstance(key, tuple) and key else None
        new_key = (kind, new_fp) + tuple(key[2:])
        if kind == "view":
            group_attrs, frozen_filters = key[2], key[3]
            mask = view_mask(frozen_filters)
            if not mask.any():
                fresh_view = value  # untouched: keep the very object
                retained += 1
            else:
                fresh_view = patch_view(value, cube_delta, leaf_attrs,
                                        group_attrs, mask)
                if fresh_view is None:
                    dropped += 1
                    continue
                patched += 1
            object.__setattr__(fresh_view, _VIEW_KEY_ATTR, new_key)
            cache.put(new_key, fresh_view)
        elif kind == "hunit":
            name, attributes = key[2], key[3]
            if name not in touched:
                cache.put(new_key, value)
                retained += 1
                continue
            fresh = fresh_paths[name]
            if fresh is None:  # paths were removed: no incremental form
                dropped += 1
                continue
            depth = len(attributes)
            old = old_paths[name]
            base = old.paths if depth == len(old.attributes) \
                else old.restrict(depth).paths
            added = {p[:depth] for p in fresh} - set(base)
            if not added:
                cache.put(new_key, value)
                retained += 1
                continue
            delta_unit = hierarchy_unit(
                HierarchyPaths(name, attributes, added))
            cache.put(new_key, merge_unit_delta(value, delta_unit))
            patched += 1
        elif kind == "predict":
            # key[3] is the view's (group_attrs, filters) suffix; a
            # prediction only depends on its view's contents, so it
            # survives exactly when that view is untouched.
            frozen_filters = key[3][1] if len(key) > 3 and len(key[3]) > 1 \
                else ()
            if view_mask(frozen_filters).any():
                dropped += 1  # the fit's inputs changed: recompute
                continue
            cache.put(new_key, value)
            retained += 1
        else:
            dropped += 1  # unknown kind: recompute rather than risk it
    cache.note_patched(patched, retained)


class CachingRepairer:
    """Wraps a repair function, memoizing whole-view predictions.

    The cache key covers everything a prediction depends on: the view's
    own cache key (dataset fingerprint + group attributes + filters, as
    tagged by :meth:`CachingCube.view`), the cluster attributes, the
    modelled statistics, and the inner repairer's configuration
    signature. A view carrying no tag (built by a plain ``Cube``) has
    unknown contents and bypasses the cache rather than risk aliasing
    two differently-filtered views.
    """

    def __init__(self, inner, cache: AggregateCache):
        self.inner = inner
        self.cache = cache

    def statistics_for(self, aggregate: str) -> tuple[str, ...]:
        return self.inner.statistics_for(aggregate)

    def predict(self, parallel: GroupView, cluster_attrs: Sequence[str],
                aggregate: str) -> RepairPrediction:
        signature = repairer_signature(self.inner)
        view_key = getattr(parallel, _VIEW_KEY_ATTR, None)
        if signature is None or view_key is None:
            return self.inner.predict(parallel, cluster_attrs, aggregate)
        # view_key[1] is the view's dataset fingerprint — kept as the
        # second element so invalidate(fingerprint) reaps these entries.
        key = ("predict", view_key[1], signature, view_key[2:],
               tuple(cluster_attrs), self.inner.statistics_for(aggregate))
        return self.cache.get_or_compute(
            key, lambda: self.inner.predict(parallel, cluster_attrs,
                                            aggregate))

    def __repr__(self) -> str:
        return f"CachingRepairer({self.inner!r})"
