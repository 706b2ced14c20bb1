"""A sharded cube build leaves every recommendation bitwise-unchanged.

Recommendations run on the one serial path whatever the cube's shard
layout, so a ``ReptileConfig(shards=N)`` engine — built in-process or
through a real worker pool — must answer exactly like the unsharded
one. Shard counts 1/2/7 make empty shards routine; NaN keys exercise
the domain-rank decline path of the design sort, which is also checked
against the frozen Python-sort oracle in :mod:`repro.core.rankref`.
The out-of-core pieces — spilled shared-code blocks and
``spill_build_from_chunks`` — must round-trip bitwise through their
memory maps, including across a worker-pool respawn.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HierarchicalDataset, Relation, Schema, dimension, measure
from repro.core.complaint import Complaint
from repro.core.rankref import build_view_design_ref
from repro.core.session import Reptile, ReptileConfig
from repro.datagen.perf import (DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                                drought_chunks)
from repro.model.features import FeaturePlan, build_view_design
from repro.relational import Cube, dataset_from_chunks
from repro.relational.aggregates import GroupStats
from repro.relational.shard import (ShardedCube, SharedCodes,
                                    merge_shard_blocks,
                                    shutdown_worker_pools,
                                    spill_build_from_chunks)

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
NAN = float("nan")
DISTRICTS = ("d0", "d1", "d2")
SHARD_COUNTS = (1, 2, 7)

#: Dyadic measures: every float sum is exact, so any summation order
#: must agree bitwise.
measures = st.integers(-8, 24).map(lambda v: v / 2.0)

#: Rows that are always present, so the complaint's district exists and
#: every hierarchy has at least two levels' worth of structure.
BASE_ROWS = [("d0", "d0-v0", 2000, 1.0), ("d0", "d0-v1", 2001, 3.5),
             ("d1", "d1-v0", 2000, 2.0), ("d1", "d1-v1", 2001, 0.5)]


def _row(draw, districts, years):
    d = draw(st.sampled_from(districts))
    v = f"{d}-v{draw(st.integers(0, 2))}"
    return (d, v, draw(st.sampled_from(years)), draw(measures))


@st.composite
def relations(draw):
    extra = [_row(draw, DISTRICTS, [2000, 2001])
             for _ in range(draw(st.integers(0, 12)))]
    return BASE_ROWS + extra


def _dataset(rows) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


def _assert_recommendations_equal(got, ref) -> None:
    assert set(got.per_hierarchy) == set(ref.per_hierarchy)
    for name, want in ref.per_hierarchy.items():
        have = got.per_hierarchy[name]
        assert have.attribute == want.attribute, name
        assert have.base_penalty == want.base_penalty, name
        assert len(have.groups) == len(want.groups), name
        for a, b in zip(have.groups, want.groups):
            assert a.key == b.key, (name, b.key)
            assert a.coordinates == b.coordinates, (name, b.key)
            assert a.score == b.score, (name, b.key)
            assert a.margin_gain == b.margin_gain, (name, b.key)
            assert a.repaired_value == b.repaired_value, (name, b.key)
            assert a.observed == b.observed, (name, b.key)
            assert a.expected == b.expected, (name, b.key)


# -- leaf-block merges ---------------------------------------------------------

class TestBlockMerges:
    @settings(deadline=None)
    @given(relations(), st.sampled_from((2, 5, 7)))
    def test_merge_tolerates_empty_shard_blocks(self, rows, n_shards):
        """Empty blocks (leading, interleaved, trailing) are no-ops."""
        dataset = _dataset(rows)
        sharded = ShardedCube(dataset, n_shards=n_shards)
        cube = Cube(dataset)
        sizes = [e.cardinality for e in sharded._encodings]
        k = cube._key_codes.shape[1]
        empty = (np.empty((0, k), dtype=sharded._key_codes.dtype),
                 GroupStats(np.zeros(0), np.zeros(0), np.zeros(0)))
        blocks = [empty]
        for block in sharded.shard_blocks:
            blocks.extend([block, empty])
        key_codes, stats = merge_shard_blocks(blocks, sizes)
        assert np.array_equal(key_codes, cube._key_codes)
        for name in ("count", "total", "sumsq"):
            assert np.array_equal(getattr(stats, name),
                                  getattr(cube.leaf_stats, name)), name


# -- design sorts vs the Python-sort oracle -----------------------------------

class TestDesignProducts:
    def test_chunk_streamed_design_matches_python_sort_oracle(self):
        """Chunk-streamed domains (not sort-friendly) take the
        domain-rank lexsort; the design must equal the frozen Python-sort
        oracle exactly."""
        # The second chunk introduces values that sort *before* the
        # first chunk's (extend_domain appends, so the union domain
        # comes out unsorted).
        chunks = [
            {"district": np.array(["d2", "d2", "d1", "d1"]),
             "village": np.array(["d2-v1", "d2-v0", "d1-v0", "d1-v1"]),
             "year": np.array([2001, 2000, 2001, 2000]),
             "sev": np.array([2.0, 1.5, 0.5, 3.0])},
            {"district": np.array(["d0", "d1", "d0"]),
             "village": np.array(["d0-v1", "d1-v1", "d0-v0"]),
             "year": np.array([2000, 2001, 2000]),
             "sev": np.array([1.0, 2.5, 4.0])},
        ]
        dataset = dataset_from_chunks(chunks, HIERARCHIES, "sev")
        cube = Cube(dataset)
        view = cube.view(("district", "village"))
        enc = view.encodings[0]
        assert not enc.sort_friendly()  # the path under test
        vd = build_view_design(view, "mean", FeaturePlan(), ("district",))
        ref_keys, ref_y, ref_design = build_view_design_ref(
            view, "mean", FeaturePlan(), ("district",))
        assert vd.keys == ref_keys
        assert np.array_equal(vd.design.x, ref_design.x)
        assert np.array_equal(vd.y, ref_y)
        assert list(vd.design.sizes) == list(ref_design.sizes)

    def test_nan_domain_design_matches_python_sort_oracle(self):
        """NaN domain values decline the rank table; the Python-sort
        fallback must still match the oracle."""
        rows = BASE_ROWS + [("d2", NAN, 2000, 2.0), ("d2", NAN, 2001, 4.0)]
        cube = Cube(_dataset(rows))
        view = cube.view(("district", "village"))
        vd = build_view_design(view, "mean", FeaturePlan(), ("district",))
        ref_keys, ref_y, ref_design = build_view_design_ref(
            view, "mean", FeaturePlan(), ("district",))
        assert vd.keys == ref_keys
        assert np.array_equal(vd.design.x, ref_design.x)
        assert np.array_equal(vd.y, ref_y)


# -- spill-mode round trips ----------------------------------------------------

class TestSpillRoundTrips:
    def test_shared_codes_spill_mmap_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"c0": rng.integers(0, 9, 64).astype(np.int32),
                  "c1": rng.integers(0, 5, 64).astype(np.int32),
                  "m": rng.normal(size=64)}
        owner = SharedCodes.pack(arrays, directory=str(tmp_path), spill=True)
        try:
            assert owner.handle.kind == "mmap"
            view = SharedCodes.attach(owner.handle)
            for name, arr in arrays.items():
                assert np.array_equal(np.asarray(view.arrays[name]), arr), \
                    name
            view.release()
        finally:
            owner.release()
        assert not os.listdir(tmp_path), "spill files not reclaimed"

    def test_spill_build_bitwise_across_pool_respawn(self, tmp_path):
        """Two spill builds — with a pool shutdown (forced respawn) in
        between — both bitwise-equal to the one-process Cube."""
        def chunks():
            return drought_chunks(4_000, 1_000, seed=3)

        def build():
            return spill_build_from_chunks(
                chunks(), DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                spill_dir=str(tmp_path), n_shards=3, workers=2)

        try:
            first = build()
            shutdown_worker_pools()
            second = build()
        finally:
            shutdown_worker_pools()
        cube = Cube(dataset_from_chunks(chunks(), DROUGHT_HIERARCHIES,
                                        DROUGHT_MEASURE, validate=False))
        for label, result in (("first", first), ("respawned", second)):
            assert np.array_equal(result.key_codes, cube._key_codes), label
            for name in ("count", "total", "sumsq"):
                assert np.array_equal(getattr(result.stats, name),
                                      getattr(cube.leaf_stats, name)), \
                    (label, name)
        assert not os.listdir(tmp_path), "spill files not reclaimed"


# -- end-to-end recommendations ------------------------------------------------

class TestParallelRecommend:
    @settings(deadline=None, max_examples=25)
    @given(relations(), st.sampled_from(SHARD_COUNTS))
    def test_sharded_recommend_bitwise_equals_serial(self, rows, shards):
        dataset = _dataset(rows)
        complaint = Complaint.too_low({"district": "d0"}, "mean")
        serial = Reptile(dataset, config=ReptileConfig())
        sharded = Reptile(dataset, config=ReptileConfig(shards=shards))
        _assert_recommendations_equal(
            sharded.recommend(complaint, group_by=("district",)),
            serial.recommend(complaint, group_by=("district",)))

    def test_recommend_with_nan_keys_and_empty_shards(self):
        rows = BASE_ROWS + [(NAN, NAN, 2000, 2.0), ("d2", "d2-v0", NAN, 4.0),
                            ("d2", "d2-v0", 2001, 0.25)]
        dataset = _dataset(rows)
        complaint = Complaint.too_low({"district": "d0"}, "mean")
        serial = Reptile(dataset, config=ReptileConfig())
        sharded = Reptile(dataset, config=ReptileConfig(shards=7))
        _assert_recommendations_equal(
            sharded.recommend(complaint, group_by=("district",)),
            serial.recommend(complaint, group_by=("district",)))

    def test_recommend_with_real_worker_pool(self):
        """A cube built through a real 2-process pool: the serial
        recommend over it must still be bitwise-equal."""
        rows = [(f"d{i % 3}", f"d{i % 3}-v{i % 4}", 2000 + i % 3,
                 (i % 11) / 2.0) for i in range(64)]
        dataset = _dataset(rows)
        complaint = Complaint.too_low({"district": "d0"}, "mean")
        try:
            serial = Reptile(dataset, config=ReptileConfig())
            sharded = Reptile(dataset,
                              config=ReptileConfig(shards=3, workers=2))
            timings = sharded.cube.timings
            assert "fallback" not in timings, timings.get("fallback")
            assert os.getpid() not in timings["worker_pids"]
            _assert_recommendations_equal(
                sharded.recommend(complaint, group_by=("district",)),
                serial.recommend(complaint, group_by=("district",)))
        finally:
            shutdown_worker_pools()
