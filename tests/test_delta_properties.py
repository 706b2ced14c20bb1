"""Delta-update engine ≡ rebuild-from-scratch oracle (hypothesis).

Every property threads randomly generated append/retract deltas through
the incremental path — ``Cube.apply_delta``, ``Reptile.apply_delta``,
patched serving-cache entries — and asserts *exact* equality against the
frozen row-at-a-time rebuild in :mod:`repro.relational.deltaref`: same
key sets, bitwise
counts, and bitwise totals/sums of squares (measures are dyadic
rationals, so float sums are order-independent and must match bit for
bit). Covered shapes: appends to existing groups, new dimension values,
new leaf paths, NaN dimension keys (a typed error with the cube
untouched), retractions (down to emptying groups
and removing whole paths), and drill/ingest interleavings. The relation
itself is checked too: its deferred appends and retractions must
materialize bitwise to what the eager operators build.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (Complaint, Delta, DeltaError, HierarchicalDataset,
                   Relation, Reptile, ReptileConfig, Schema, dimension,
                   measure)
from repro.relational import DatasetError, deltaref
from repro.relational.cube import Cube
from repro.relational.delta import locate_rows
from repro.relational.relation import _Column
from repro.relational.encoding import (DictEncoding, EncodingError,
                                       factorize)
from repro.serving import AggregateCache

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
CONFIG = ReptileConfig(n_em_iterations=1)

#: One shared NaN object: rows drawn with it form a single group (dict
#: identity semantics), exactly as the row engine grouped them.
NAN = float("nan")

DISTRICTS = ("d0", "d1", "d2")
NEW_DISTRICTS = ("n0", "n1")

# Dyadic measures: every sum is exactly representable, so incremental
# and rebuilt accumulations must agree bitwise.
measures = st.integers(-8, 24).map(lambda v: v / 2.0)


def _village(district: str, i: int) -> str:
    return f"{district}-v{i}"


def _row(draw, districts, village_range, years):
    d = draw(st.sampled_from(districts))
    v = _village(d, draw(st.integers(0, village_range - 1)))
    return (d, v, draw(st.sampled_from(years)), draw(measures))


@st.composite
def evolutions(draw, max_deltas: int = 3, allow_nan: bool = False):
    """A base row set plus a sequence of valid deltas over it (with
    ``allow_nan``, each delta as its appended and retracted row lists:
    a NaN year cannot be typed into a :class:`Delta`)."""
    years = [2000, 2001] + ([NAN] if allow_nan else [])
    base = [_row(draw, DISTRICTS, 2, years)
            for _ in range(draw(st.integers(1, 12)))]
    current = list(base)
    deltas = []
    for _ in range(draw(st.integers(1, max_deltas))):
        new_years = years + [2002]
        appends = [_row(draw, DISTRICTS + NEW_DISTRICTS, 4, new_years)
                   for _ in range(draw(st.integers(0, 5)))]
        # Retractions must name matchable rows: draw them from the
        # current contents, skipping NaN-keyed rows (never matchable).
        candidates = [r for r in current if not math.isnan(r[2])]
        n_retract = draw(st.integers(0, min(3, len(candidates))))
        retracts = []
        if n_retract:
            idx = draw(st.lists(
                st.integers(0, len(candidates) - 1), min_size=n_retract,
                max_size=n_retract, unique=True))
            retracts = [candidates[i] for i in idx]
        for r in retracts:
            current.remove(r)
        current.extend(appends)
        if not current:  # keep at least one row so the cube stays valid
            keep = _row(draw, DISTRICTS, 2, [2000])
            appends = appends + [keep]
            current.append(keep)
        deltas.append((appends, retracts))
    if allow_nan:
        return base, deltas
    return base, [Delta.from_rows(SCHEMA, *rows) for rows in deltas]


def _dataset(rows) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


def _rebuilt(base, deltas) -> HierarchicalDataset:
    return deltaref.rebuilt_dataset(_dataset(base), deltas)


def _assert_views_match(cube: Cube, oracle_ds: HierarchicalDataset) -> None:
    """Leaf states and a spread of roll-ups, incl. provenance filters."""
    deltaref.assert_groups_equal(
        cube.leaf_states, deltaref.rebuilt_leaf_states(oracle_ds))
    view_specs = [((), None), (("district",), None), (("year",), None),
                  (("district", "year"), None),
                  (("village", "year"), {"district": "d0"}),
                  (("village",), {"year": 2002}),
                  ((), {"district": "d0"})]
    for attrs, filters in view_specs:
        deltaref.assert_groups_equal(
            cube.view(attrs, filters).groups,
            deltaref.rebuilt_view(oracle_ds, attrs, filters))


@given(evolutions())
def test_cube_apply_delta_matches_rebuild(evolution):
    base, deltas = evolution
    cube = Cube(_dataset(base))
    for delta in deltas:
        cube.apply_delta(delta)
    _assert_views_match(cube, _rebuilt(base, deltas))


@given(evolutions(allow_nan=True))
def test_cube_delta_with_nan_keys_matches_rebuild(evolution):
    """NaN is not a key cell: a relation refuses a NaN year where it is
    built, so registration never sees one, and a delta appending one
    raises DeltaError before the cube sees it, which still matches the
    rebuild of the deltas it accepted."""
    base, drawn = evolution
    if any(math.isnan(r[2]) for r in base):
        with pytest.raises(EncodingError, match="'year'"):
            _dataset(base)
        return
    cube = Cube(_dataset(base))
    deltas = []
    for appends, retracts in drawn:
        if any(math.isnan(r[2]) for r in appends):
            with pytest.raises(DeltaError, match="'year'"):
                Delta.from_rows(SCHEMA, appends, retracts)
            break  # later deltas were drawn on top of this one
        delta = Delta.from_rows(SCHEMA, appends, retracts)
        cube.apply_delta(delta)
        deltas.append(delta)
    oracle_ds = _rebuilt(base, deltas)
    deltaref.assert_groups_equal(
        cube.leaf_states, deltaref.rebuilt_leaf_states(oracle_ds))
    deltaref.assert_groups_equal(
        cube.view(("year",)).groups,
        deltaref.rebuilt_view(oracle_ds, ("year",)))


@given(evolutions())
def test_engine_apply_delta_matches_rebuild(evolution):
    base, deltas = evolution
    engine = Reptile(_dataset(base), config=CONFIG)
    for delta in deltas:
        engine.apply_delta(delta)
    oracle_ds = _rebuilt(base, deltas)
    # Empty deltas are no-ops: the version advances once per real delta.
    assert engine.data_version == sum(1 for d in deltas if not d.is_empty())
    _assert_views_match(engine.cube, oracle_ds)
    # The relation itself evolved: a *fresh* engine over it agrees too.
    rebuilt_rel = deltaref.rebuilt_leaf_states(
        HierarchicalDataset(engine.dataset.relation,
                            engine.dataset.dimensions, "sev"))
    deltaref.assert_groups_equal(Cube(engine.dataset).leaf_states,
                                 rebuilt_rel)


# -- the FD rule: ingest rejects what re-registration rejects -------------------------
#
# A string-valued three-level geo hierarchy, so an append can break the
# intermediate FD (district → region) as well as the leaf one, and a
# delta can retract a village's rows and re-append it elsewhere at once.

GEO3_SCHEMA = Schema([dimension("region"), dimension("district"),
                      dimension("village"), dimension("year"),
                      measure("sev")])
GEO3_HIERARCHIES = {"geo": ["region", "district", "village"],
                    "time": ["year"]}
REGIONS = ("r0", "r1")
GEO3_DISTRICTS = ("d0", "d1", "d2")
VILLAGES = ("v0", "v1", "v2", "v3")


def _geo3_dataset(rows) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(GEO3_SCHEMA, rows), GEO3_HIERARCHIES, "sev")


@st.composite
def geo3_bases(draw):
    """FD-consistent rows: each village in one district, each district
    in one region."""
    region_of = {d: draw(st.sampled_from(REGIONS)) for d in GEO3_DISTRICTS}
    district_of = {v: draw(st.sampled_from(GEO3_DISTRICTS))
                   for v in VILLAGES}
    villages = draw(st.lists(st.sampled_from(VILLAGES), min_size=1,
                             max_size=8))
    return [(region_of[district_of[v]], district_of[v], v,
             draw(st.sampled_from((2000, 2001))), draw(measures))
            for v in villages]


@st.composite
def geo3_deltas(draw, rows):
    """A delta over ``rows``: appends whose district and region each
    follow the current rows or are drawn free (which may break an FD),
    retractions of current rows, and sometimes a move — retract some or
    all of one village's rows and re-append the village under a freely
    drawn district, in the same delta."""
    district_of = {r[2]: r[1] for r in rows}
    region_of = {r[1]: r[0] for r in rows}

    def path(village, district=None):
        if district is None:
            district = district_of.get(village) \
                if village in district_of and draw(st.booleans()) \
                else draw(st.sampled_from(GEO3_DISTRICTS + ("d9",)))
        region = region_of.get(district) \
            if district in region_of and draw(st.booleans()) \
            else draw(st.sampled_from(REGIONS))
        return (region, district, village,
                draw(st.sampled_from((2000, 2001))), draw(measures))

    appends, retracts = [], []
    left = list(rows)
    if draw(st.booleans()):
        village = draw(st.sampled_from(sorted(district_of)))
        mine = [r for r in left if r[2] == village]
        retracts = mine[:draw(st.integers(1, len(mine)))]
        for r in retracts:
            left.remove(r)
        appends.append(path(village, draw(st.sampled_from(GEO3_DISTRICTS))))
    for _ in range(draw(st.integers(0, 3))):
        appends.append(path(draw(st.sampled_from(VILLAGES + ("v9",)))))
    for _ in range(draw(st.integers(0, max(len(left) - 1, 0)))):
        r = draw(st.sampled_from(left))
        left.remove(r)
        retracts.append(r)
    return appends, retracts


@given(geo3_bases(), st.data())
def test_fd_rejection_matches_rebuild(base, data):
    """``Reptile.apply_delta`` raises DeltaError exactly when
    re-registering the post-delta rows (``deltaref.rebuilt_dataset``)
    fails an FD, cached or not. A rejected delta changes no version,
    leaf state or cache entry, and never rebuilds the cube."""
    engines = [Reptile(_geo3_dataset(base), config=CONFIG, cache=cache)
               for cache in (None, AggregateCache())]
    rebuilds = []
    for engine in engines:
        real = engine.cube.rebuild
        engine.cube.rebuild = \
            lambda real=real: rebuilds.append(1) or real()
        engine.cube.view(("region", "district"))  # a warm cache entry
    oracle_ds = _geo3_dataset(base)
    rows = list(base)
    for _ in range(data.draw(st.integers(1, 3))):
        appends, retracts = data.draw(geo3_deltas(rows))
        delta = Delta.from_rows(GEO3_SCHEMA, appends, retracts)
        try:
            oracle_ds = deltaref.rebuilt_dataset(oracle_ds, [delta])
        except DatasetError:
            for engine in engines:
                version, fingerprint = engine.data_version, engine.fingerprint
                leaves = deltaref.group_signature(engine.cube.leaf_states)
                entries = None if engine.cache is None \
                    else engine.cache.keys()
                with pytest.raises(DeltaError, match="violate hierarchy"):
                    engine.apply_delta(delta)
                assert engine.data_version == version
                assert engine.fingerprint == fingerprint
                assert deltaref.group_signature(
                    engine.cube.leaf_states) == leaves
                if engine.cache is not None:
                    assert engine.cache.keys() == entries
            continue
        for engine in engines:
            engine.apply_delta(delta)
            deltaref.assert_groups_equal(
                engine.cube.leaf_states,
                deltaref.rebuilt_leaf_states(oracle_ds))
        rows = [tuple(r) for r in oracle_ds.relation.rows()]
    assert rebuilds == []


def _outcome(session, complaint):
    """A recommendation, or the error it raised (compared by value)."""
    try:
        return session.recommend(complaint, k=3)
    except Exception as exc:  # both engines must fail alike
        return type(exc).__name__, str(exc)


@given(evolutions(max_deltas=2))
def test_interleaved_drill_and_ingest(evolution):
    """recommend → ingest → drill → recommend: a cached engine, whose
    views are patched across each ingest, ranks exactly like an
    uncached one over the same data — same groups in the same order."""
    base, deltas = evolution
    complaints = [Complaint.too_low({"district": base[0][0]}, "mean"),
                  Complaint.too_high({"district": base[0][0]}, "sum")]
    sessions = [Reptile(_dataset(base), config=CONFIG, cache=cache)
                .session(group_by=["district"])
                for cache in (None, AggregateCache())]
    for complaint in complaints:
        assert _outcome(sessions[0], complaint) \
            == _outcome(sessions[1], complaint)
    for i, delta in enumerate(deltas):
        for session in sessions:
            session.engine.apply_delta(delta)
            if i == 0:
                session.drill("time")
        for complaint in complaints:
            assert _outcome(sessions[0], complaint) \
                == _outcome(sessions[1], complaint)


@given(evolutions(max_deltas=2))
def test_cached_views_patched_not_rebuilt(evolution):
    """Warm CachingCube views survive ingest bitwise-correct."""
    base, deltas = evolution
    cache = AggregateCache()
    engine = Reptile(_dataset(base), config=CONFIG, cache=cache)
    view_specs = [((), None), (("district", "year"), None),
                  (("village", "year"), {"district": "d0"})]
    for attrs, filters in view_specs:
        engine.cube.view(attrs, filters)  # warm the entries pre-delta
    for delta in deltas:
        engine.apply_delta(delta)
    oracle_ds = _rebuilt(base, deltas)
    misses_before = cache.stats.misses
    for attrs, filters in view_specs:
        view = engine.cube.view(attrs, filters)
        deltaref.assert_groups_equal(
            view.groups, deltaref.rebuilt_view(oracle_ds, attrs, filters))
        # Group order too: the ranker and the model fit read views in
        # order, so a patched view lists its groups as a fresh roll-up.
        fresh = Cube(engine.dataset).view(attrs, filters)
        assert view.key_codes.tolist() == fresh.key_codes.tolist()
        assert view.key_list == fresh.key_list
    # Every post-ingest view above was served from a patched/retained
    # entry — no recomputation, hence no new cache misses.
    assert cache.stats.misses == misses_before
    if any(not d.is_empty() for d in deltas):
        assert cache.stats.patched + cache.stats.retained > 0


@given(evolutions())
def test_versioned_fingerprints_never_alias(evolution):
    base, deltas = evolution
    engine = Reptile(_dataset(base), config=CONFIG, cache=AggregateCache())
    seen = {engine.fingerprint}
    for delta in deltas:
        engine.apply_delta(delta)
        if not delta.is_empty():
            assert engine.fingerprint not in seen
        assert engine.cube.fingerprint == engine.fingerprint
        seen.add(engine.fingerprint)


# -- the maintained relation ≡ the eager one ------------------------------------------
#
# ``with_rows_appended``/``without_rows`` defer their work (shared base
# storage, an appended tail, dead positions). The reference is the eager
# code those operators replaced, a mask-and-take retraction and an append
# that concatenates codes over the extended domain (floats for the
# measure). Every column of the maintained relation, and of the same
# sequence materialized after every step, must equal it bitwise
# (representation, code dtype and bytes, domain values with their types,
# ``domain_sorted``, array dtype and bytes), and the rows must equal the
# frozen row-at-a-time oracle.

REL_SCHEMA = Schema([dimension("a"), dimension("b"), measure("x")])
#: Values a delta names: mostly plain ones, and now and then one new to
#: the domain. The dimensions a and b keep one cell type each; the
#: measure x now and then gets an int (stored as a float) or a NaN
#: (which no retraction matches).
A_VALUES = (("p", "q", "r", "s"), ())
B_VALUES = ((1, 2, 3), (0, 7))
X_VALUES = ((0.5, 1.0, 2.0), (7, NAN))


def _cell(draw, values) -> object:
    plain, odd = values
    if odd and not draw(st.integers(0, 7)):
        return draw(st.sampled_from(odd))
    return draw(st.sampled_from(plain))


def _eager_without(relation: Relation, indices) -> Relation:
    mask = np.ones(len(relation), dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = False
    return relation._take(np.flatnonzero(mask))


def _eager_appended(relation: Relation, other: Relation) -> Relation:
    """The eager append: a key column's codes concatenated over its
    extended domain, a measure's float arrays concatenated."""
    cols, deltas = relation._cols, other._cols
    out = {}
    for n in relation.schema.names:
        col, delta = cols[n], deltas[n]
        if col._enc is None:
            out[n] = _Column(array=np.concatenate([col._array,
                                                   delta._array]))
            continue
        extended, codes = col._enc.extend_domain(delta.values())
        out[n] = _Column(enc=DictEncoding(
            np.concatenate([col._enc.codes, codes]), extended.domain,
            extended.domain_sorted))
    return Relation._from_cols(relation.schema, out,
                               len(relation) + len(other))


def _objects(values) -> list:
    return [(type(v).__name__, repr(v)) for v in values]


def _signature(relation: Relation, name: str) -> tuple:
    """A column's representation and contents, bit for bit."""
    col = relation._cols[name]
    sig = []
    if col._enc is not None:
        enc = col._enc
        sig.append(("enc", enc.codes.dtype.str, enc.codes.tobytes(),
                    _objects(enc.domain), enc.domain_sorted))
    if col._array is not None:
        sig.append(("array", col._array.dtype.str, col._array.tobytes()))
    return tuple(sig)


def _locate(relation: Relation, retracted: Relation):
    try:
        return locate_rows(relation, retracted).tolist()
    except DeltaError as exc:
        return str(exc)


@st.composite
def relation_histories(draw):
    """A base relation spec and deltas, each with the column a reader
    reads after it (if any)."""
    shape = draw(st.sampled_from(("rows", "typed")))
    n = draw(st.integers(0, 14))
    base = [(draw(st.sampled_from(("p", "q", "r"))),
             draw(st.sampled_from((1, 2))),
             _cell(draw, X_VALUES) if shape == "rows"
             else draw(st.sampled_from((0.5, 1.0, 2.0))))
            for _ in range(n)]
    rows = list(base)
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        appends = [(_cell(draw, A_VALUES), _cell(draw, B_VALUES),
                    _cell(draw, X_VALUES))
                   for _ in range(draw(st.integers(0, 4)))]
        retracts = []
        for _ in range(draw(st.integers(0, 3))):
            if rows and draw(st.integers(0, 4)):
                retracts.append(rows[draw(st.integers(0, len(rows) - 1))])
            else:  # unmatchable, or one copy too many
                retracts.append((_cell(draw, A_VALUES),
                                 _cell(draw, B_VALUES),
                                 _cell(draw, X_VALUES)))
        # Sometimes a reader reads a column mid-history, which
        # materializes a pending relation: later appends start over.
        reader = draw(st.none() | st.sampled_from(REL_SCHEMA.names))
        steps.append((Delta.from_rows(REL_SCHEMA, appends, retracts),
                      reader))
        rows = rows + appends
    return shape, base, steps


def _base_relation(shape: str, base: list) -> Relation:
    if shape == "rows":
        return Relation.from_rows(REL_SCHEMA, base)
    # The perfbench/dataset_from_chunks shape: encoded dimensions
    # adopted as DictEncodings, the measure a float64 array.
    cols = list(zip(*base)) if base else [(), (), ()]
    b = factorize(np.array(cols[1], dtype=np.int64))
    return Relation.from_encoded(REL_SCHEMA, {
        "a": factorize(np.array(cols[0], dtype="<U1")), "b": b,
        "x": np.array(cols[2], dtype=np.float64)})


def _rows_repr(relation: Relation) -> list:
    return [repr(r) for r in relation.rows()]


def _same_rows(relation: Relation, oracle: Relation) -> bool:
    """Storage-order row equality by ``==``, NaN equal to NaN (a typed
    array stores an appended ``7`` as ``7.0``, so the oracle's row
    objects can differ in type but not in value)."""
    def same(a, b):
        return a == b or (a != a and b != b)
    return len(relation) == len(oracle) and all(
        len(r) == len(o) and all(same(a, b) for a, b in zip(r, o))
        for r, o in zip(relation.rows(), oracle.rows()))


@settings(max_examples=150)
@given(relation_histories())
def test_maintained_relation_matches_eager(history):
    shape, base, steps = history
    lazy = _base_relation(shape, base)
    stepwise = _base_relation(shape, base)
    eager = _base_relation(shape, base)
    oracle = Relation.from_rows(REL_SCHEMA, base)
    for delta, reader in steps:
        located = [_locate(r, delta.retracted) if len(delta.retracted)
                   else [] for r in (lazy, stepwise, eager)]
        assert located[0] == located[1] == located[2]
        if isinstance(located[0], str):
            # An unmatchable retraction: the oracle refuses it too, and
            # nothing changes.
            try:
                deltaref.apply_delta_rows(oracle, delta)
            except DeltaError:
                continue
            raise AssertionError(f"oracle accepted {delta!r}: "
                                 f"{located[0]}")
        oracle = deltaref.apply_delta_rows(oracle, delta)
        if len(delta.retracted):
            lazy = lazy.without_rows(located[0])
            stepwise = stepwise.without_rows(located[0])
            stepwise._materialize()  # after every step
            eager = _eager_without(eager, located[0])
        if len(delta.appended):
            lazy = lazy.with_rows_appended(delta.appended)
            stepwise = stepwise.with_rows_appended(delta.appended)
            stepwise._materialize()
            eager = _eager_appended(eager, delta.appended)
        if reader is not None:
            read = [_objects(relation.column(reader))
                    for relation in (lazy, stepwise, eager)]
            assert read[0] == read[1] == read[2]
        pending = lazy._pending
        # Compaction: deferred rows never outnumber the base rows.
        assert pending is None \
            or pending.n_tail + len(pending.dead) <= pending.n_base
    assert len(lazy) == len(eager) == len(oracle)
    for name in REL_SCHEMA.names:
        want = _signature(eager, name)
        assert _signature(lazy, name) == want, name
        assert _signature(stepwise, name) == want, name
        assert lazy.content_token(name) == eager.content_token(name)
        assert stepwise.content_token(name) == eager.content_token(name)
    assert _rows_repr(lazy) == _rows_repr(eager)
    assert _same_rows(lazy, oracle)


@given(st.integers(0, 8),
       st.lists(st.integers(-12, 12), max_size=6),
       st.booleans())
def test_without_rows_index_rules_match_eager(n, indices, nested):
    """Negative, duplicate and out-of-range indices: same rows removed,
    or the same exception, as the eager mask-and-take."""
    relation = Relation.from_rows(REL_SCHEMA,
                                  [("p", i, float(i)) for i in range(n)])
    arg = [indices] if nested else indices
    try:
        want = _rows_repr(_eager_without(relation, arg))
    except IndexError as exc:
        want = (type(exc), str(exc))
    try:
        got = _rows_repr(relation.without_rows(arg))
    except IndexError as exc:
        got = (type(exc), str(exc))
    assert got == want


def test_derived_relations_stay_isolated():
    """Siblings never see each other's rows, and the base keeps its own."""
    base = Relation.from_rows(REL_SCHEMA, [("p", 1, 0.5), ("q", 2, 1.0),
                                           ("r", 1, 2.0)])
    base.encoding("a")
    left = base.with_rows_appended(
        Relation.from_rows(REL_SCHEMA, [("s", 3, 7.0)]))
    right = base.without_rows([0])
    assert list(left.rows()) == [("p", 1, 0.5), ("q", 2, 1.0),
                                 ("r", 1, 2.0), ("s", 3, 7.0)]
    assert list(right.rows()) == [("q", 2, 1.0), ("r", 1, 2.0)]
    assert list(base.rows()) == [("p", 1, 0.5), ("q", 2, 1.0),
                                 ("r", 1, 2.0)]


def test_key_index_covers_radix_overflow():
    """Four 2**16-value domains overflow the int64 mixed radix: the index
    densifies the keys and finds the same rows in the same order."""
    domain = list(range(1 << 16))
    codes = np.array([[0, 5, 9, 1], [3, 3, 3, 3], [0, 5, 9, 1],
                      [7, 0, 0, 2], [0, 5, 9, 1]], dtype=np.int32)
    schema = Schema([dimension(f"c{j}") for j in range(4)] + [measure("x")])
    columns = {f"c{j}": DictEncoding(codes[:, j].copy(), domain, True)
               for j in range(4)}
    columns["x"] = np.ones(len(codes))
    relation = Relation.from_encoded(schema, columns)
    repeated = Relation.from_rows(schema, [(0, 5, 9, 1, 1.0)] * 2)
    assert locate_rows(relation, repeated).tolist() == [0, 2]
    # Through the shared index of a pending relation: row 0 is dead, and
    # an appended copy sits in the tail.
    pending = relation.without_rows([0]).with_rows_appended(
        Relation.from_rows(schema, [(0, 5, 9, 1, 1.0)]))
    assert locate_rows(pending, repeated).tolist() == [1, 3]
    triple = Relation.from_rows(schema, [(0, 5, 9, 1, 1.0)] * 4)
    with pytest.raises(DeltaError, match="exceeds the base multiplicity"):
        locate_rows(pending, triple)
