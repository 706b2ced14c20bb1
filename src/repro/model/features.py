"""Feature generation for the repair model (§3.3, Appendices B and H).

Reptile featurizes drill-down *groups*, not raw records. Every feature is
a mapping from attribute value(s) to a float:

* **Main effects** (§3.3.1) — each categorical attribute value is replaced
  by the median target statistic of the groups carrying that value (the
  anomaly-detection featurization of [28, 50]); numeric features are
  centered and normalized.
* **Auxiliary features** (§3.3.2) — measures of a registered auxiliary
  dataset, keyed on its join attributes, included once the drill-down
  level contains all join attributes.
* **Custom features** (§3.3.3) — user-supplied ``q(A, Y) → {value: float}``
  functions; :class:`LagFeature` implements the paper's "previous year's
  severity" example.
* **Random effects** (§3.3.4) — ``FeaturePlan(random_effects=[...])``
  restricts which features enter Z; default Z = X.

:func:`build_view_design` turns a :class:`GroupView` into a cluster-sorted
dense design (the accuracy-experiment path); the same
:class:`BuiltFeature` mappings convert to factorised
:class:`~repro.factorized.matrix.FeatureColumn` objects for the
performance path.
"""

from __future__ import annotations

import abc
import bisect
import operator
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..relational.cube import GroupView
from ..relational.dataset import AuxiliaryDataset
from .backends import DenseDesign


class FeatureError(ValueError):
    """Raised for inapplicable or malformed feature specifications."""


class BuiltFeature:
    """A realised feature: value(s) of ``attributes`` → float.

    Two interchangeable backings. The classic form carries the
    ``mapping`` dict directly. Single-attribute features built against an
    encoded view instead carry a per-domain-code value ``table`` aligned
    with the encoding's domain — element ``i`` equals
    ``float(mapping.get(domain[i], default))`` bit for bit — and
    materialize ``mapping`` lazily: at fine-grained levels the dict is
    hundreds of thousands of entries that the design path (which gathers
    straight from the table) never reads.
    """

    __slots__ = ("name", "attributes", "default", "_mapping", "_domain",
                 "_table")

    def __init__(self, name: str, attributes: tuple[str, ...],
                 mapping: dict | None = None, default: float = 0.0, *,
                 domain: list | None = None,
                 table: np.ndarray | None = None):
        if mapping is None and table is None:
            mapping = {}
        self.name = name
        self.attributes = attributes
        self.default = default
        self._mapping = mapping
        self._domain = domain
        self._table = table

    @property
    def mapping(self) -> dict:
        """The value → float dict (materialized from the table on
        first access; absent domain values read ``default`` either way)."""
        if self._mapping is None:
            self._mapping = {v: float(x)
                             for v, x in zip(self._domain, self._table)}
        return self._mapping

    def domain_table(self, enc) -> np.ndarray | None:
        """The per-domain-code table when it aligns with ``enc``, else None.

        Identity on the domain *list* (shared, append-only across
        ``take`` views) plus a length check against in-place growth.
        """
        if self._table is not None and self._domain is enc.domain \
                and len(self._table) == len(enc.domain):
            return self._table
        return None

    def key_of(self, view_attrs: Sequence[str], group_key: tuple):
        positions = [view_attrs.index(a) for a in self.attributes]
        if len(positions) == 1:
            return group_key[positions[0]]
        return tuple(group_key[p] for p in positions)

    def value_for(self, view_attrs: Sequence[str], group_key: tuple) -> float:
        return float(self.mapping.get(self.key_of(view_attrs, group_key),
                                      self.default))

    def standardized_from(self, values: np.ndarray) -> "BuiltFeature":
        """Centered/normalized copy; ``values`` are the per-group feature
        values (one per view group, in view order)."""
        mean = float(values.mean()) if len(values) else 0.0
        std = float(values.std()) if len(values) else 1.0
        if std < 1e-12:
            std = 1.0
        default = (self.default - mean) / std
        if self._table is not None:
            # Elementwise (v - mean) / std on the float64 table performs
            # the same IEEE operations as the per-key Python loop below.
            return BuiltFeature(self.name, self.attributes, None, default,
                                domain=self._domain,
                                table=(self._table - mean) / std)
        mapping = {k: (v - mean) / std for k, v in self.mapping.items()}
        return BuiltFeature(self.name, self.attributes, mapping, default)


#: Per-(view, target) memo of the target statistic: its array, one
#: stable value sort of it and the overall median. Every feature of one
#: design build reads the same entry, and each is a function of the
#: array alone, so sharing is bitwise-free. The strong view reference
#: pins the id; FIFO-capped.
_VIEW_TARGET_CACHE: dict[tuple[int, str], tuple] = {}
_VIEW_TARGET_CACHE_MAX = 32


@dataclass(frozen=True)
class _TargetValues:
    """One view's target statistic, sorted once for every median."""

    vals: np.ndarray             # per group, in view order
    order: np.ndarray | None     # stable value argsort; None on NaN
    overall: float               # statistics.median of vals (0.0 if none)


def _target_values(view: GroupView, target: str) -> _TargetValues:
    key = (id(view), target)
    hit = _VIEW_TARGET_CACHE.get(key)
    if hit is not None and hit[0] is view:
        return hit[1]
    vals = view.stats.statistic_array(target)
    if not len(vals):
        entry = _TargetValues(vals, None, 0.0)
    elif np.isnan(vals).any():
        # NaN has no place in a value order: Python's sort decides.
        entry = _TargetValues(vals, None, statistics.median(vals.tolist()))
    else:
        order = np.argsort(vals, kind="stable")
        overall = _sorted_medians(vals[order], np.array([0]),
                                  np.array([len(vals)]))
        entry = _TargetValues(vals, order, overall.item())
    while len(_VIEW_TARGET_CACHE) >= _VIEW_TARGET_CACHE_MAX:
        _VIEW_TARGET_CACHE.pop(next(iter(_VIEW_TARGET_CACHE)))
    _VIEW_TARGET_CACHE[key] = (view, entry)
    return entry


def _sorted_medians(vals: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray) -> np.ndarray:
    """``statistics.median`` of each ascending run ``vals[s:e]``.

    The middle value, or the halved sum of the two middle values — the
    same IEEE operations ``statistics.median`` performs on the sorted
    list, so the results are bitwise-equal.
    """
    lengths = ends - starts
    mid = starts + lengths // 2
    out = vals[mid]
    even = np.flatnonzero(lengths % 2 == 0)
    out[even] = (vals[mid[even] - 1] + vals[mid[even]]) / 2
    return out


def _per_value_runs(view: GroupView, tv: _TargetValues, pos: int):
    """Per-attribute-value runs of the target statistic.

    A stable argsort of the attribute's codes, taken in the shared value
    order, so each run holds its value's groups sorted by the target
    (ties in view order, as Python's stable sort leaves them). On NaN
    there is no value order and each run is in view order. Returns
    ``(sorted codes, run starts, run ends, sorted values)``.
    """
    rows = tv.order
    codes = view.key_codes[:, pos] if rows is None \
        else view.key_codes[rows, pos]
    by_code = np.argsort(_radix_key(codes, view.encodings[pos].cardinality),
                         kind="stable")
    sorted_codes = codes[by_code]
    sorted_vals = tv.vals[by_code if rows is None else rows[by_code]]
    if len(sorted_codes):
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_codes)]])
    else:
        starts = ends = np.empty(0, dtype=np.int64)
    return sorted_codes, starts, ends, sorted_vals


def _radix_key(codes: np.ndarray, bound: int) -> np.ndarray:
    """``codes`` (each in ``[0, bound)``) as ``uint16`` when they fit.

    A stable sort orders equal keys by position, so it is one
    permutation whatever the key dtype, and numpy's stable argsort and
    ``np.lexsort`` take a radix sort on 16-bit keys: about 8× faster
    than on 32- or 64-bit ones at 3,200 keys.
    """
    return codes.astype(np.uint16) if bound <= 1 << 16 else codes


def _run_medians(tv: _TargetValues, sorted_vals: np.ndarray,
                 starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``statistics.median`` of each run of :func:`_per_value_runs`."""
    if tv.order is not None:
        return _sorted_medians(sorted_vals, starts, ends)
    return np.asarray([statistics.median(sorted_vals[s:e].tolist())
                       for s, e in zip(starts, ends)], dtype=float)


class FeatureSpec(abc.ABC):
    """Declarative feature; :meth:`build` realises it against a view."""

    @abc.abstractmethod
    def build(self, view: GroupView, target: str) -> BuiltFeature:
        """Realise the feature for ``view`` predicting statistic ``target``."""

    def applicable(self, view: GroupView) -> bool:
        """Whether the view's group-by level supports this feature."""
        return True


@dataclass
class MainEffectFeature(FeatureSpec):
    """Median target statistic per attribute value (§3.3.1).

    A value backed by fewer than ``min_groups`` groups maps to the overall
    median instead: its per-value median would just echo the group's own
    statistic back as a feature (a target leak that makes every prediction
    equal its observation and defeats the repair).
    """

    attribute: str
    min_groups: int = 2

    def applicable(self, view: GroupView) -> bool:
        return self.attribute in view.group_attrs

    def build(self, view: GroupView, target: str) -> BuiltFeature:
        if not self.applicable(view):
            raise FeatureError(
                f"attribute {self.attribute!r} not in view "
                f"{view.group_attrs}")
        pos = view.group_attrs.index(self.attribute)
        enc = view.encodings[pos]
        tv = _target_values(view, target)
        sorted_codes, starts, ends, sorted_vals = _per_value_runs(view, tv,
                                                                  pos)
        overall = tv.overall
        # Values backed by fewer than min_groups groups never need a
        # median (they map to the overall one) — the common case at
        # fine-grained levels, where every run is a singleton. The result
        # is a per-domain-code table (absent values also read ``overall``,
        # the mapping's default); the mapping dict materializes only if
        # someone asks.
        table = np.full(len(enc.domain), float(overall))
        backed = np.flatnonzero(ends - starts >= self.min_groups)
        table[sorted_codes[starts[backed]]] = _run_medians(
            tv, sorted_vals, starts[backed], ends[backed])
        return BuiltFeature(f"main:{self.attribute}", (self.attribute,),
                            default=overall, domain=enc.domain, table=table)


@dataclass
class AuxiliaryFeature(FeatureSpec):
    """One measure of an auxiliary dataset, keyed on its join attrs (§3.3.2)."""

    auxiliary: AuxiliaryDataset
    measure: str

    def applicable(self, view: GroupView) -> bool:
        return set(self.auxiliary.join_on) <= set(view.group_attrs)

    def build(self, view: GroupView, target: str) -> BuiltFeature:
        if self.measure not in self.auxiliary.measures:
            raise FeatureError(
                f"{self.measure!r} is not a measure of auxiliary dataset "
                f"{self.auxiliary.name!r}")
        lookup = self.auxiliary.lookup()
        single = len(self.auxiliary.join_on) == 1
        mapping = {}
        values = []
        for key, measures in lookup.items():
            mkey = key[0] if single else key
            mapping[mkey] = measures[self.measure]
            values.append(measures[self.measure])
        default = statistics.median(values) if values else 0.0
        return BuiltFeature(f"aux:{self.auxiliary.name}.{self.measure}",
                            tuple(self.auxiliary.join_on), mapping,
                            default=default)


@dataclass
class LagFeature(FeatureSpec):
    """Target statistic of the group at ``value − lag`` (§3.3.3 example).

    The attribute's values must support subtraction (years, day indexes).
    Groups whose lagged value is absent fall back to the overall median.
    """

    attribute: str
    lag: int = 1

    def applicable(self, view: GroupView) -> bool:
        return self.attribute in view.group_attrs

    def build(self, view: GroupView, target: str) -> BuiltFeature:
        pos = view.group_attrs.index(self.attribute)
        tv = _target_values(view, target)
        sorted_codes, starts, ends, sorted_vals = _per_value_runs(view, tv,
                                                                  pos)
        values = view.encodings[pos].objects[sorted_codes[starts]].tolist()
        medians = dict(zip(values, _run_medians(tv, sorted_vals, starts,
                                                ends).tolist()))
        overall = tv.overall
        mapping = {}
        for v in medians:
            try:
                lagged = v - self.lag
            except TypeError:
                raise FeatureError(
                    f"lag feature needs numeric attribute, got {v!r}") from None
            mapping[v] = medians.get(lagged, overall)
        return BuiltFeature(f"lag{self.lag}:{self.attribute}",
                            (self.attribute,), mapping, default=overall)


@dataclass
class CustomFeature(FeatureSpec):
    """User-provided ``q(A, Y) → {value: feature}`` (§3.3.3).

    ``builder(view, target)`` returns the value → float mapping.
    """

    name: str
    attributes: tuple[str, ...]
    builder: Callable[[GroupView, str], Mapping]
    default: float = 0.0

    def applicable(self, view: GroupView) -> bool:
        return set(self.attributes) <= set(view.group_attrs)

    def build(self, view: GroupView, target: str) -> BuiltFeature:
        mapping = dict(self.builder(view, target))
        return BuiltFeature(f"custom:{self.name}", tuple(self.attributes),
                            mapping, default=self.default)


@dataclass
class FeatureSet:
    """Realised features plus the intercept, ready to become a matrix."""

    view_attrs: tuple[str, ...]
    features: list[BuiltFeature]
    intercept: bool = True
    random_effects: tuple[str, ...] | None = None

    @property
    def column_names(self) -> list[str]:
        names = ["intercept"] if self.intercept else []
        return names + [f.name for f in self.features]

    @property
    def n_columns(self) -> int:
        return len(self.features) + (1 if self.intercept else 0)

    def design_rows(self, keys: Sequence[tuple]) -> np.ndarray:
        """Dense (len(keys) × m) design matrix for the given group keys."""
        n = len(keys)
        out = np.empty((n, self.n_columns))
        col = 0
        if self.intercept:
            out[:, 0] = 1.0
            col = 1
        for f in self.features:
            out[:, col] = [f.value_for(self.view_attrs, k) for k in keys]
            col += 1
        return out

    def z_indices(self) -> list[int]:
        """Column indices of the random-effects matrix Z (§3.3.4)."""
        if self.random_effects is None:
            return list(range(self.n_columns))
        wanted = set(self.random_effects)
        unknown = wanted - set(self.column_names)
        if unknown:
            raise FeatureError(f"unknown random-effect columns {sorted(unknown)}")
        return [i for i, name in enumerate(self.column_names) if name in wanted]


@dataclass
class FeaturePlan:
    """Which features to build, and how (§3.3).

    ``specs=None`` means "main effect of every view attribute" — the
    paper's default featurization. ``extra_specs`` are appended to the
    defaults; passing explicit ``specs`` replaces them entirely.
    """

    specs: list[FeatureSpec] | None = None
    extra_specs: list[FeatureSpec] = field(default_factory=list)
    intercept: bool = True
    standardize: bool = True
    random_effects: tuple[str, ...] | None = None

    def realised_specs(self, view: GroupView) -> list[FeatureSpec]:
        if self.specs is not None:
            base = list(self.specs)
        else:
            base = [MainEffectFeature(a) for a in view.group_attrs]
        return base + list(self.extra_specs)

    def build(self, view: GroupView, target: str) -> FeatureSet:
        features: list[BuiltFeature] = []
        keys: list | None = None
        for spec in self.realised_specs(view):
            if not spec.applicable(view):
                continue
            built = spec.build(view, target)
            if self.standardize:
                values = _feature_column(view, built)
                if values is None:
                    if keys is None:
                        keys = list(view.groups)
                    feature_keys = [built.key_of(view.group_attrs, k)
                                    for k in keys]
                    values = np.asarray(
                        [built.mapping.get(k, built.default)
                         for k in feature_keys], dtype=float)
                built = built.standardized_from(values)
            features.append(built)
        if not features and not self.intercept:
            raise FeatureError("no applicable features and no intercept")
        return FeatureSet(tuple(view.group_attrs), features,
                          intercept=self.intercept,
                          random_effects=self.random_effects)


@dataclass
class ViewDesign:
    """A cluster-sorted dense design over a view's groups."""

    keys: list[tuple]
    y: np.ndarray
    design: DenseDesign
    feature_set: FeatureSet
    cluster_attrs: tuple[str, ...]
    _row_of: dict[tuple, int] | None = None

    @property
    def row_of(self) -> dict[tuple, int]:
        """Key → row index, built lazily: only explanation rendering
        looks design rows up by key, and at fine-grained levels the dict
        costs more than the whole model fit."""
        if self._row_of is None:
            self._row_of = {k: i for i, k in enumerate(self.keys)}
        return self._row_of


def _feature_column(view: GroupView, built: BuiltFeature,
                    perm: np.ndarray | None = None) -> np.ndarray | None:
    """Per-group values of one built feature via encoded-domain lookup.

    One ``float(mapping.get(...))`` per *domain value* followed by a code
    gather replaces the per-group ``value_for`` loop; element ``i`` is
    bitwise-equal to ``built.value_for(view.group_attrs, keys[i])``.
    Features that already carry an aligned :meth:`~BuiltFeature.
    domain_table` skip even the per-domain loop and gather straight from
    it. ``perm`` reorders the rows (the design's cluster sort). None when
    the feature reads more than one attribute.
    """
    if len(built.attributes) != 1 \
            or built.attributes[0] not in view.group_attrs:
        return None
    pos = view.group_attrs.index(built.attributes[0])
    enc = view.encodings[pos]
    domain_arr = built.domain_table(enc)
    if domain_arr is None:
        mapping, default = built.mapping, built.default
        domain_arr = np.asarray([float(mapping.get(v, default))
                                 for v in enc.domain], dtype=float)
    codes = view.key_codes[:, pos]
    if perm is not None:
        codes = codes[perm]
    return domain_arr[codes]


#: Domain-rank memo keyed by domain-list identity. Safe because
#: encodings share (never copy) their domain list across ``take`` views
#: and ``extend_domain`` only ever *appends* — the length check catches
#: an in-place extension, and holding the list strongly pins its id.
#: Bounded: oldest entries evicted past the cap.
_DOMAIN_RANK_CACHE: dict[int, tuple[list, int, "np.ndarray | None"]] = {}
_DOMAIN_RANK_CACHE_MAX = 128

#: Value types whose ``(type name, value)`` keys are totally ordered
#: (NaN aside): one sorted arrangement exists, so inserting new values
#: into a sorted prefix gives the order a full re-sort would.
_TOTAL_TYPES = frozenset((bool, int, float, str))


def _domain_ranks(enc) -> np.ndarray | None:
    """Code→rank table reproducing :func:`_orderable` order, or ``None``.

    For a non-``sort_friendly`` encoding (chunk-streamed domains append
    out of order) the Python key sort can still be replayed as a lexsort
    when every domain value has a *strict* position in the
    ``(type name, value)`` order: sort the domain once, assign ranks, and
    gather. Declines (``None``) on NaN values (not a total order under
    ``<``), on ``_orderable`` ties between distinct domain values (the
    Python sort would resolve those through later key columns; a rank
    table would not) and on a lossy encoding (see
    :meth:`~repro.relational.encoding.DictEncoding.sort_friendly`).
    Memoized per domain list — every view built over the same dataset
    shares the table — and a domain grown by ``extend_domain`` extends
    its prefix's table (:func:`_extended_ranks`) where it can.
    """
    if enc.lossy:
        return None
    domain = enc.domain
    hit = _DOMAIN_RANK_CACHE.get(id(domain))
    if hit is not None and hit[0] is domain and hit[1] == len(domain):
        return hit[2]
    ranks = _extended_ranks(domain)
    if ranks is None:
        ranks = _sorted_ranks(domain)
    while len(_DOMAIN_RANK_CACHE) >= _DOMAIN_RANK_CACHE_MAX:
        _DOMAIN_RANK_CACHE.pop(next(iter(_DOMAIN_RANK_CACHE)))
    _DOMAIN_RANK_CACHE[id(domain)] = (domain, len(domain), ranks)
    return ranks


def _sorted_ranks(domain: list) -> np.ndarray | None:
    """The rank table of one full ``_orderable`` sort (the decline rules
    of :func:`_domain_ranks`)."""
    ranks: np.ndarray | None = np.empty(len(domain), dtype=np.int64)
    try:
        order = sorted(range(len(domain)),
                       key=lambda i: _orderable((domain[i],)))
        prev = None
        for rank, i in enumerate(order):
            v = domain[i]
            if isinstance(v, float) and v != v:
                ranks = None
                break
            cur = _orderable((v,))
            if prev is not None and not prev < cur:
                ranks = None   # tie between distinct values: decline
                break
            prev = cur
            ranks[i] = rank
    except TypeError:          # unorderable mixed values
        ranks = None
    return ranks


def _extended_ranks(domain: list) -> np.ndarray | None:
    """The rank table of ``domain`` from a memoized table of its prefix.

    Finds a memoized table whose domain is a strict prefix of ``domain``
    (element identity), sorts only the new values and inserts them by
    binary search: old ranks shift by the number of new values inserted
    before them. A domain holds each value once (``==``-equal values of
    one type share a code), so values of :data:`_TOTAL_TYPES` never tie.
    ``None`` when no such prefix is memoized, when a value is not of a
    :data:`_TOTAL_TYPES` type or when a new value is NaN;
    :func:`_sorted_ranks` then decides, declines included.
    """
    n = len(domain)
    for old, length, old_ranks in \
            reversed(list(_DOMAIN_RANK_CACHE.values())):
        if old_ranks is not None and 0 < length < n \
                and domain[length - 1] is old[length - 1] \
                and all(map(operator.is_, domain[:length], old[:length])):
            break
    else:
        return None
    new = domain[length:]
    if not set(map(type, domain)) <= _TOTAL_TYPES \
            or any(v != v for v in new):
        return None
    keys = [_orderable((v,)) for v in new]
    order = sorted(range(len(new)), key=keys.__getitem__)
    by_rank = np.empty(length, dtype=np.int64)
    by_rank[old_ranks] = np.arange(length)
    prefix = np.empty(length, dtype=object)
    prefix[:] = old[:length]
    ranked = prefix[by_rank]
    slots = np.asarray([bisect.bisect_left(ranked, keys[j],
                                           key=lambda v: _orderable((v,)))
                        for j in order], dtype=np.int64)
    ranks = np.empty(n, dtype=np.int64)
    ranks[:length] = old_ranks + np.searchsorted(slots, old_ranks,
                                                 side="right")
    ranks[length + np.asarray(order, dtype=np.int64)] = \
        slots + np.arange(len(new))
    return ranks


def _sort_permutation(view: GroupView, keys: list,
                      cluster_positions: list[int]) -> np.ndarray:
    """Row permutation of the design's cluster sort.

    ``np.lexsort`` over the encoded key codes when every encoding is
    :meth:`~repro.relational.encoding.DictEncoding.sort_friendly` (code
    order then equals the ``(type name, value)`` order of
    :func:`_orderable`), or over :func:`_domain_ranks` tables when the
    domains merely *rank* cleanly (chunk-streamed encodings); otherwise
    the Python sort over the keys — same permutation every way.
    """
    n = len(keys)
    codes, encs = view.key_codes, view.encodings
    if codes.shape[1] == 0:
        return np.arange(n, dtype=np.int64)
    if all(e.sort_friendly() for e in encs):
        columns = [_radix_key(codes[:, j], e.cardinality)
                   for j, e in enumerate(encs)]
        order_cols = [columns[p] for p in cluster_positions] + columns
        return np.lexsort(tuple(reversed(order_cols)))
    rank_tables = [_domain_ranks(e) for e in encs]
    if all(r is not None for r in rank_tables):
        ranked = [_radix_key(r[codes[:, j]], len(r))
                  for j, r in enumerate(rank_tables)]
        order_cols = [ranked[p] for p in cluster_positions] + ranked
        return np.lexsort(tuple(reversed(order_cols)))

    def sort_key(i: int) -> tuple:
        k = keys[i]
        ck = tuple(k[p] for p in cluster_positions)
        return (_orderable(ck), _orderable(k))

    return np.asarray(sorted(range(n), key=sort_key), dtype=np.int64)


def _cluster_sizes(view: GroupView, cluster_positions: list[int],
                   perm: np.ndarray) -> list[int]:
    """Run lengths of consecutive equal cluster keys, in sorted order.

    Vectorized over the encoded key codes (code equality is value
    equality, including the same-NaN-object case a tuple compare
    resolves by identity).
    """
    if not cluster_positions:
        return [len(perm)]
    codes = view.key_codes[perm][:, cluster_positions]
    change = np.any(codes[1:] != codes[:-1], axis=1)
    edges = np.concatenate([[0], np.flatnonzero(change) + 1, [len(perm)]])
    return np.diff(edges).tolist()


def build_view_designs(view: GroupView, targets: Sequence[str],
                       plan: FeaturePlan, cluster_attrs: Sequence[str]
                       ) -> list[ViewDesign]:
    """One cluster-sorted dense design per target statistic.

    The structural work — the cluster sort, the cluster run lengths, the
    key→row index — is computed once and shared by every target; only the
    (target-dependent) feature values and y vector are built per target.
    Both are vectorized: single-attribute feature columns come from
    encoded-domain lookups (no per-row ``value_for`` calls) and y from
    :meth:`~repro.relational.aggregates.GroupStats.statistic_array`.
    """
    cluster_attrs = tuple(cluster_attrs)
    for a in cluster_attrs:
        if a not in view.group_attrs:
            raise FeatureError(f"cluster attribute {a!r} not in view")
    positions = [view.group_attrs.index(a) for a in cluster_attrs]
    keys = view.key_list  # view iteration order — what perm/row_of assume
    if not keys:
        raise FeatureError("cannot build a design over an empty view")
    perm = _sort_permutation(view, keys, positions)
    keys_sorted = [keys[i] for i in perm]
    sizes = _cluster_sizes(view, positions, perm)

    designs: list[ViewDesign] = []
    for target in targets:
        feature_set = plan.build(view, target)
        x = np.empty((len(keys_sorted), feature_set.n_columns))
        col = 0
        if feature_set.intercept:
            x[:, 0] = 1.0
            col = 1
        for built in feature_set.features:
            column = _feature_column(view, built, perm)
            if column is None:
                column = [built.value_for(view.group_attrs, k)
                          for k in keys_sorted]
            x[:, col] = column
            col += 1
        y = view.stats.statistic_array(target)[perm]
        design = DenseDesign(x, sizes, z_columns=feature_set.z_indices())
        designs.append(ViewDesign(keys=keys_sorted, y=y, design=design,
                                  feature_set=feature_set,
                                  cluster_attrs=cluster_attrs))
    return designs


def build_view_design(view: GroupView, target: str, plan: FeaturePlan,
                      cluster_attrs: Sequence[str]) -> ViewDesign:
    """Dense design over a view's groups, clustered by ``cluster_attrs``.

    Rows are the view's groups sorted so each cluster (distinct
    ``cluster_attrs`` value combination — the parent groups of §3.2) is a
    contiguous run; ``y`` is the target statistic per group.
    """
    return build_view_designs(view, (target,), plan, cluster_attrs)[0]


def _orderable(key: tuple) -> tuple:
    """Sort key tolerant of mixed types across attributes."""
    return tuple((type(v).__name__, v) for v in key)
