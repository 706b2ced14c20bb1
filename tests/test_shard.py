"""Sharded parallel cube build: unit coverage for the sharding layer.

Pins down (1) ``DictEncoding.merge`` union semantics — shard 0's codes
survive verbatim, NaN domain entries match by object identity, and
cross-type ``==``-equal merges flag the union lossy; (2) the
shared-memory column blocks (pack/attach roundtrip, mmap fallback,
owner-side release); (3) ``merge_shard_blocks`` canonical ordering;
(4) ``ShardedCube`` bitwise equality against the single-process
``Cube`` across shard counts, including empty shards and a real
process pool; (5) owning-shard delta routing with patch counters; and
(6) the upward wiring: ``Relation.from_encoded``, chunked dataset
construction, ``ReptileConfig(shards=...)``, service ingest's
``shards_touched``, and the CLI flags.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro import (Delta, HierarchicalDataset, Relation, Reptile,
                   ReptileConfig, Schema, dimension, measure)
from repro.cli import build_parser
from repro.relational import deltaref
from repro.relational.cube import Cube
from repro.relational.encoding import DictEncoding, factorize
from repro.relational.shard import (SharedCodes, ShardedCube, ShardError,
                                    dataset_from_chunks,
                                    encode_columns_chunked,
                                    leaked_segments, merge_shard_blocks,
                                    shutdown_worker_pools)
from repro.serving import CachingShardedCube, ExplanationService

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
NAN = float("nan")

ROWS = [
    ("d0", "d0-v0", 2000, 1.5),
    ("d1", "d1-v0", 2000, 2.0),
    ("d0", "d0-v1", 2001, -0.5),
    ("d2", "d2-v0", 2001, 4.0),
    ("d1", "d1-v1", 2000, 0.25),
    ("d0", "d0-v0", 2001, 3.0),
    ("d2", "d2-v1", 2000, 8.0),
    ("d1", "d1-v0", 2001, 1.0),
]


def _dataset(rows=ROWS) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


def _assert_cubes_bitwise(actual: Cube, expected: Cube) -> None:
    assert np.array_equal(actual._key_codes, expected._key_codes)
    assert actual._key_codes.dtype == expected._key_codes.dtype
    for name in ("count", "total", "sumsq"):
        a = getattr(actual.leaf_stats, name)
        b = getattr(expected.leaf_stats, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name


def _block_map(key_codes, stats):
    return {tuple(int(c) for c in row):
            (stats.count[i], stats.total[i], stats.sumsq[i])
            for i, row in enumerate(key_codes)}


# ---------------------------------------------------------------------------
# DictEncoding.merge


class TestDictEncodingMerge:
    def test_first_shard_codes_survive_verbatim(self):
        a = factorize(np.array(["x", "y", "x"], dtype=object))
        b = factorize(np.array(["y", "z"], dtype=object))
        merged, remaps = DictEncoding.merge([a, b])
        assert merged.domain[:a.cardinality] == list(a.domain)
        assert np.array_equal(merged.codes, a.codes)
        assert np.array_equal(remaps[0], np.arange(a.cardinality))

    def test_remaps_reexpress_each_shard_in_union_space(self):
        parts = [np.array(vals, dtype=object)
                 for vals in (["x", "y"], ["z", "y"], ["w"])]
        encs = [factorize(p) for p in parts]
        merged, remaps = DictEncoding.merge(encs)
        assert set(merged.domain) == {"x", "y", "z", "w"}
        for part, enc, remap in zip(parts, encs, remaps):
            decoded = [merged.domain[c] for c in remap[enc.codes]]
            assert decoded == list(part)

    def test_union_codes_match_single_pass_factorize(self):
        # First-appearance order across concatenated chunks is exactly
        # the single-pass factorize order, so chunked encoding is not
        # merely consistent — it is code-for-code identical.
        parts = [["a", "b", "a"], ["c", "b"], ["d", "a", "c"]]
        encs = [factorize(np.array(p, dtype=object)) for p in parts]
        merged, remaps = DictEncoding.merge(encs)
        chunked = np.concatenate([r[e.codes] for r, e in zip(remaps, encs)])
        single = factorize(np.array(sum(parts, []), dtype=object))
        assert list(merged.domain) == list(single.domain)
        assert np.array_equal(chunked, single.codes)

    def test_nan_matches_by_object_identity(self):
        # The same NaN object appearing in two shards is one domain
        # entry; a distinct NaN object is its own entry — dict-key
        # semantics, same as factorize's dict path.
        other_nan = float("nan")
        a = factorize(np.array([NAN, "x"], dtype=object))
        b = factorize(np.array(["x", NAN], dtype=object))
        merged, remaps = DictEncoding.merge([a, b])
        nan_entries = [v for v in merged.domain
                       if isinstance(v, float) and math.isnan(v)]
        assert len(nan_entries) == 1
        c = factorize(np.array([other_nan], dtype=object))
        merged2, _ = DictEncoding.merge([a, c])
        nan_entries2 = [v for v in merged2.domain
                        if isinstance(v, float) and math.isnan(v)]
        assert len(nan_entries2) == 2

    def test_cross_type_equal_values_flag_lossy(self):
        a = factorize(np.array([1, 2], dtype=object))
        b = factorize(np.array([1.0], dtype=object))
        merged, remaps = DictEncoding.merge([a, b])
        assert merged.lossy
        # the float folded into int 1's existing code
        assert remaps[1][b.codes[0]] == 0
        assert merged.domain == [1, 2]

    def test_lossy_input_marks_union(self):
        a = factorize(np.array(["x"], dtype=object))
        b = factorize(np.array(["y"], dtype=object))
        b.lossy = True
        merged, _ = DictEncoding.merge([a, b])
        assert merged.lossy

    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            DictEncoding.merge([])


# ---------------------------------------------------------------------------
# Shared-memory blocks


class TestSharedCodes:
    ARRAYS = {"c0": np.array([0, 1, 2, 1], dtype=np.int32),
              "c1": np.array([3, 3, 0, 1], dtype=np.int32),
              "m": np.array([0.5, 1.25, -2.0, 8.0])}

    def test_pack_attach_roundtrip(self):
        block = SharedCodes.pack(self.ARRAYS)
        try:
            attached = SharedCodes.attach(block.handle)
            try:
                for name, arr in self.ARRAYS.items():
                    got = attached.arrays[name]
                    assert np.array_equal(got, arr)
                    assert got.dtype == arr.dtype
            finally:
                attached.release()
        finally:
            block.release()

    def test_mmap_fallback_roundtrip(self, tmp_path):
        prepared, layout, size = SharedCodes._layout(self.ARRAYS)
        block = SharedCodes._pack_mmap(prepared, layout, size,
                                       str(tmp_path))
        try:
            assert block.handle.kind == "mmap"
            attached = SharedCodes.attach(block.handle)
            for name, arr in self.ARRAYS.items():
                assert np.array_equal(attached.arrays[name], arr)
            attached.release()
        finally:
            block.release()
        assert not list(tmp_path.iterdir())  # owner unlinked the file

    def test_views_are_64_byte_aligned(self):
        _, layout, _ = SharedCodes._layout(self.ARRAYS)
        assert all(off % 64 == 0 for _, _, _, off in layout)


# ---------------------------------------------------------------------------
# Block merge


class TestMergeShardBlocks:
    def test_restores_lexicographic_order(self):
        cube = Cube(_dataset())
        keys, stats = cube._key_codes, cube.leaf_stats
        sizes = [e.cardinality for e in cube._encodings]
        # Split rows odd/even — deliberately interleaved key ranges.
        blocks = [(keys[0::2], stats.select(np.arange(0, len(keys), 2))),
                  (keys[1::2], stats.select(np.arange(1, len(keys), 2)))]
        merged_keys, merged_stats = merge_shard_blocks(blocks, sizes)
        assert np.array_equal(merged_keys, keys)
        assert np.array_equal(merged_stats.count, stats.count)
        assert np.array_equal(merged_stats.total, stats.total)

    def test_empty_blocks_are_skipped(self):
        cube = Cube(_dataset())
        sizes = [e.cardinality for e in cube._encodings]
        empty = (np.empty((0, 3), dtype=np.int32),
                 type(cube.leaf_stats)(np.zeros(0), np.zeros(0),
                                       np.zeros(0)))
        merged_keys, _ = merge_shard_blocks(
            [empty, (cube._key_codes, cube.leaf_stats), empty], sizes)
        assert np.array_equal(merged_keys, cube._key_codes)

    def test_requires_a_block(self):
        with pytest.raises(ShardError):
            merge_shard_blocks([], [2, 2])


# ---------------------------------------------------------------------------
# ShardedCube: build equality


class TestShardedBuild:
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_bitwise_equal_to_single_process(self, n_shards):
        dataset = _dataset()
        _assert_cubes_bitwise(ShardedCube(dataset, n_shards=n_shards),
                              Cube(dataset))

    def test_more_shards_than_districts_leaves_empty_shards(self):
        dataset = _dataset()
        sc = ShardedCube(dataset, n_shards=11)
        assert sc.shard_sizes().count(0) >= 8  # only 3 districts
        _assert_cubes_bitwise(sc, Cube(dataset))

    def test_partition_attr_defaults_to_first_hierarchy_root(self):
        sc = ShardedCube(_dataset(), n_shards=2)
        assert sc.partition_attr == "district"

    def test_explicit_partition_attr(self):
        dataset = _dataset()
        sc = ShardedCube(dataset, n_shards=3, partition_attr="year")
        _assert_cubes_bitwise(sc, Cube(dataset))

    def test_rejects_non_leaf_partition_attr(self):
        with pytest.raises(ShardError):
            ShardedCube(_dataset(), n_shards=2, partition_attr="sev")

    @pytest.mark.parametrize("kwargs", [{"n_shards": 0}, {"n_shards": -2},
                                        {"workers": -1}])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ShardError):
            ShardedCube(_dataset(), **kwargs)

    def test_nan_partition_keys_build(self):
        rows = ROWS + [(NAN, "no-district", 2000, 7.0),
                       (NAN, "no-district", 2001, 1.0)]
        dataset = _dataset(rows)
        _assert_cubes_bitwise(ShardedCube(dataset, n_shards=4),
                              Cube(dataset))

    def test_views_match_single_process(self):
        dataset = _dataset()
        sc = ShardedCube(dataset, n_shards=3)
        cube = Cube(dataset)
        for attrs, filters in [((), None), (("district",), None),
                               (("village", "year"), {"district": "d0"})]:
            deltaref.assert_groups_equal(sc.view(attrs, filters).groups,
                                         cube.view(attrs, filters).groups)

    def test_rebuild_keeps_identity_and_equality(self):
        dataset = _dataset()
        sc = ShardedCube(dataset, n_shards=3)
        before = id(sc)
        sc.rebuild()
        assert id(sc) == before
        _assert_cubes_bitwise(sc, Cube(dataset))

    def test_timings_recorded(self):
        sc = ShardedCube(_dataset(), n_shards=3)
        for key in ("partition_s", "build_wall_s", "merge_s",
                    "worker_busy_s"):
            assert key in sc.timings


class TestShardedPoolBuild:
    @pytest.mark.parametrize("spill", [False, True],
                             ids=["shared-memory", "spill-dir"])
    def test_process_pool_build_is_bitwise_equal(self, spill, tmp_path,
                                                 monkeypatch):
        packed = []
        pack = SharedCodes.pack.__func__

        def recording_pack(cls, arrays, directory=None, *, spill=False):
            block = pack(cls, arrays, directory, spill=spill)
            packed.append(block.handle)
            return block

        monkeypatch.setattr(SharedCodes, "pack", classmethod(recording_pack))
        dataset = _dataset()
        try:
            sc = ShardedCube(dataset, n_shards=3, workers=2,
                             spill_dir=str(tmp_path) if spill else None)
            assert sc.timings.get("fallback") is None, sc.timings
            # real out-of-process workers did the shard builds
            assert any(pid != os.getpid()
                       for pid in sc.timings["worker_pids"])
            _assert_cubes_bitwise(sc, Cube(dataset))
        finally:
            shutdown_worker_pools()
        spilled = [h.kind == "mmap"
                   and os.path.dirname(h.name) == str(tmp_path)
                   for h in packed]
        assert packed and spilled == [spill] * len(packed)
        assert os.listdir(tmp_path) == []
        assert leaked_segments() == []


# ---------------------------------------------------------------------------
# Delta routing


class TestDeltaRouting:
    def _delta(self, district="d1"):
        return Delta.from_rows(
            SCHEMA,
            appended=[(district, f"{district}-v0", 2000, 2.5),
                      (district, f"{district}-v9", 2002, 1.0)],
            retracted=[(district, f"{district}-v0", 2000,
                        2.0 if district == "d1" else 1.5)])

    def test_single_district_delta_touches_one_shard(self):
        sc = ShardedCube(_dataset(), n_shards=4)
        untouched_before = [sc.shard_blocks[s] for s in (0, 2, 3)]
        sc.apply_delta(self._delta("d1"))
        assert sc.shard_patches == [0, 1, 0, 0]
        # untouched shard blocks were not even rebuilt (same objects)
        for (codes_a, stats_a), (codes_b, stats_b) in zip(
                untouched_before, [sc.shard_blocks[s] for s in (0, 2, 3)]):
            assert codes_a is codes_b and stats_a is stats_b

    def test_global_arrays_match_single_process_incremental(self):
        dataset = _dataset()
        sc = ShardedCube(dataset, n_shards=4)
        cube = Cube(dataset)
        for district in ("d1", "d0", "d9"):  # d9: new partition value
            delta = self._delta(district) if district != "d9" else \
                Delta.from_rows(SCHEMA, [("d9", "d9-v0", 2003, 5.0)])
            sc.apply_delta(delta)
            cube.apply_delta(delta)
            _assert_cubes_bitwise(sc, cube)

    def test_shard_blocks_still_partition_the_global_arrays(self):
        sc = ShardedCube(_dataset(), n_shards=3)
        sc.apply_delta(self._delta("d2"))
        sizes = [e.cardinality for e in sc._encodings]
        merged_keys, merged_stats = merge_shard_blocks(sc.shard_blocks,
                                                       sizes)
        # after a delta the global arrays append fresh keys at the end,
        # so compare as mappings, not positionally
        assert _block_map(merged_keys, merged_stats) == \
            _block_map(sc._key_codes, sc.leaf_stats)

    def test_matches_rebuild_oracle(self):
        base = _dataset()
        sc = ShardedCube(base, n_shards=3)
        delta = self._delta("d0")
        sc.apply_delta(delta)
        oracle = deltaref.rebuilt_dataset(base, [delta])
        deltaref.assert_groups_equal(sc.leaf_states,
                                     deltaref.rebuilt_leaf_states(oracle))


# ---------------------------------------------------------------------------
# Chunked encoding and Relation.from_encoded


class TestChunkedConstruction:
    CHUNKS = [
        {"district": np.array(["d0", "d1"], dtype=object),
         "village": np.array(["d0-v0", "d1-v0"], dtype=object),
         "year": np.array([2000, 2000], dtype=object),
         "sev": np.array([1.5, 2.0])},
        {"district": np.array(["d0", "d2"], dtype=object),
         "village": np.array(["d0-v1", "d2-v0"], dtype=object),
         "year": np.array([2001, 2000], dtype=object),
         "sev": np.array([-0.5, 4.0])},
    ]
    FLAT_ROWS = [("d0", "d0-v0", 2000, 1.5), ("d1", "d1-v0", 2000, 2.0),
                 ("d0", "d0-v1", 2001, -0.5), ("d2", "d2-v0", 2000, 4.0)]

    def test_encode_columns_chunked_decodes_to_original_values(self):
        # Code spaces may differ from a single factorize pass (which
        # sorts sortable domains) — the invariant is that the union
        # decodes every row back to its original value, with chunk 0's
        # domain surviving as the prefix.
        columns, n = encode_columns_chunked(
            self.CHUNKS, ["district", "village", "year"], "sev")
        assert n == 4
        for attr in ("district", "village", "year"):
            whole = np.concatenate([c[attr] for c in self.CHUNKS])
            enc = columns[attr]
            assert [enc.domain[c] for c in enc.codes] == list(whole)
            assert len(set(enc.domain)) == len(enc.domain)
            chunk0 = factorize(self.CHUNKS[0][attr])
            assert list(enc.domain[:chunk0.cardinality]) == \
                list(chunk0.domain)
        assert np.array_equal(columns["sev"],
                              np.array([1.5, 2.0, -0.5, 4.0]))

    def test_relation_from_encoded_roundtrip(self):
        columns, _ = encode_columns_chunked(
            self.CHUNKS, ["district", "village", "year"], "sev")
        relation = Relation.from_encoded(SCHEMA, columns)
        flat = Relation.from_rows(SCHEMA, self.FLAT_ROWS)
        assert list(relation.rows()) == list(flat.rows())

    def test_dataset_from_chunks_builds_equal_cube(self):
        # Code spaces differ (chunked keeps first-appearance order,
        # from_rows sorts), so compare decoded groups — and bitwise
        # between sharded and unsharded over the *same* dataset.
        dataset = dataset_from_chunks(self.CHUNKS, HIERARCHIES, "sev")
        flat = _dataset(self.FLAT_ROWS)
        deltaref.assert_groups_equal(
            Cube(dataset).leaf_states, Cube(flat).leaf_states)
        _assert_cubes_bitwise(ShardedCube(dataset, n_shards=3),
                              Cube(dataset))


# ---------------------------------------------------------------------------
# Engine, serving and CLI wiring


class TestUpwardWiring:
    def test_reptile_config_selects_sharded_cube(self):
        dataset = _dataset()
        engine = Reptile(dataset, config=ReptileConfig(
            n_em_iterations=1, shards=3))
        assert isinstance(engine.cube, ShardedCube)
        plain = Reptile(_dataset(), config=ReptileConfig(n_em_iterations=1))
        assert not isinstance(plain.cube, ShardedCube)
        _assert_cubes_bitwise(engine.cube, plain.cube)

    def test_engine_refresh_keeps_sharded_cube(self):
        engine = Reptile(_dataset(), config=ReptileConfig(
            n_em_iterations=1, shards=2))
        cube = engine.cube
        engine.refresh()
        assert engine.cube is cube  # rebuilt in place, not replaced

    def test_service_ingest_reports_shards_touched(self):
        service = ExplanationService()
        service.register("drought", _dataset(),
                         config=ReptileConfig(n_em_iterations=1, shards=4))
        engine = service.engine("drought")
        assert isinstance(engine.cube, CachingShardedCube)
        summary = service.ingest(
            "drought", rows=[("d1", "d1-v7", 2002, 3.0)])
        assert summary["shards_touched"] == [1]
        plain = ExplanationService()
        plain.register("drought", _dataset(),
                       config=ReptileConfig(n_em_iterations=1))
        assert "shards_touched" not in plain.ingest(
            "drought", rows=[("d1", "d1-v7", 2002, 3.0)])

    def test_sharded_engine_answers_match_unsharded(self):
        sharded = Reptile(_dataset(), config=ReptileConfig(
            n_em_iterations=1, shards=3))
        plain = Reptile(_dataset(), config=ReptileConfig(n_em_iterations=1))
        view_s = sharded.cube.view(("district",))
        view_p = plain.cube.view(("district",))
        deltaref.assert_groups_equal(view_s.groups, view_p.groups)

    @pytest.mark.parametrize("command", ["serve", "serve-http", "ingest"])
    def test_cli_accepts_shard_flags(self, command):
        args = build_parser().parse_args(
            [command, "--shards", "4", "--shard-workers", "2"])
        assert args.shards == 4
        assert args.shard_workers == 2

    def test_cli_shard_flags_default_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 0
        assert args.shard_workers == 0
