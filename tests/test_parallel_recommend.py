"""Leaf-block merges, design sorts and the spill tier's round trips.

Per-shard leaf blocks built over a hierarchy-prefix partition of the
relation — shard counts 2/5/7 make empty shards routine — must merge
back into exactly the one-pass cube's block. NaN keys exercise the
domain-rank decline path of the design sort, which is checked against
the frozen Python-sort oracle in :mod:`repro.core.rankref`. The
out-of-core pieces — spilled shard blocks and
``spill_build_from_chunks`` — must round-trip bitwise through their
memory maps, including across a worker-pool respawn.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HierarchicalDataset, Relation, Schema, dimension, measure
from repro.core.rankref import build_view_design_ref
from repro.datagen.perf import (DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                                drought_chunks)
from repro.model.features import FeaturePlan, build_view_design
from repro.relational import Cube, dataset_from_chunks
from repro.relational.aggregates import GroupStats
from repro.relational.shard import (SharedCodes, ShardSpillWriter,
                                    _build_block_arrays, leaked_segments,
                                    merge_shard_blocks,
                                    shutdown_worker_pools,
                                    spill_build_from_chunks)

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
NAN = float("nan")
DISTRICTS = ("d0", "d1", "d2")

#: Dyadic measures: every float sum is exact, so any summation order
#: must agree bitwise.
measures = st.integers(-8, 24).map(lambda v: v / 2.0)

#: Rows that are always present, so every hierarchy has at least two
#: levels' worth of structure.
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


# -- leaf-block merges ---------------------------------------------------------

class TestBlockMerges:
    @settings(deadline=None)
    @given(relations(), st.sampled_from((2, 5, 7)))
    def test_merge_tolerates_empty_shard_blocks(self, rows, n_shards):
        """Empty blocks (leading, interleaved, trailing) are no-ops."""
        dataset = _dataset(rows)
        cube = Cube(dataset)
        relation = dataset.relation
        encodings = [relation.encoding(a) for a in cube.leaf_attrs]
        sizes = [e.cardinality for e in encodings]
        measure_values = relation.measure_array(dataset.measure)
        k = cube._key_codes.shape[1]
        empty = (np.empty((0, k), dtype=cube._key_codes.dtype),
                 GroupStats(np.zeros(0), np.zeros(0), np.zeros(0)))
        # Partition by district code, as the spill build does: every leaf
        # group lives wholly in one shard.
        assign = encodings[0].codes % n_shards
        blocks = [empty]
        for s in range(n_shards):
            rows_s = np.flatnonzero(assign == s)
            key_codes, stats, _ = _build_block_arrays(
                [e.codes[rows_s] for e in encodings],
                measure_values[rows_s], sizes)
            blocks.extend([(key_codes, stats), empty])
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
        writer = ShardSpillWriter(str(tmp_path), n_shards=2)
        # Two appends to shard 1: the file keeps append order.
        writer.append(1, {name: arr[:40] for name, arr in arrays.items()})
        writer.append(1, {name: arr[40:] for name, arr in arrays.items()})
        empty_owner, owner = writer.finish()
        try:
            assert owner.handle.kind == "spill"
            assert empty_owner.arrays == {}
            view = SharedCodes.attach(owner.handle)
            for name, arr in arrays.items():
                assert np.array_equal(np.asarray(view.arrays[name]), arr), \
                    name
            view.release()
            assert os.listdir(tmp_path), "a non-owner released the files"
        finally:
            empty_owner.release()
            owner.release()
        assert not os.listdir(tmp_path), "spill files not reclaimed"
        assert leaked_segments() == []

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
