"""Chunked construction and the spill build: unit coverage.

Pins down (1) ``DictEncoding.merge`` union semantics — shard 0's codes
survive verbatim, NaN domain entries match by object identity, and
cross-type ``==``-equal merges flag the union lossy; (2)
``merge_shard_blocks`` canonical ordering; (3)
``spill_build_from_chunks`` bitwise equality against the one-pass
``Cube`` across shard counts and partition attributes, including empty
shards and a real process pool; (4) a failed chunk stream leaving no
spill file behind; and (5) ``Relation.from_encoded``, chunked dataset
construction, and the CLI rejecting the removed shard flags.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro import HierarchicalDataset, Relation, Schema, dimension, measure
from repro.cli import build_parser
from repro.relational import deltaref
from repro.relational.cube import Cube
from repro.relational.encoding import DictEncoding, factorize
from repro.relational.shard import (ShardError, dataset_from_chunks,
                                    encode_columns_chunked,
                                    leaked_segments, merge_shard_blocks,
                                    shutdown_worker_pools,
                                    spill_build_from_chunks)

from chunk_helpers import rows_to_chunks

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


def _chunks(rows=ROWS) -> list[dict]:
    return rows_to_chunks(rows, chunk_rows=3)


def _spill_build(spill_dir, rows=ROWS, **kwargs):
    return spill_build_from_chunks(_chunks(rows), HIERARCHIES, "sev",
                                   spill_dir=str(spill_dir), **kwargs)


def _one_pass(rows=ROWS) -> Cube:
    return Cube(dataset_from_chunks(_chunks(rows), HIERARCHIES, "sev"))


def _assert_spill_bitwise(result, expected: Cube) -> None:
    assert np.array_equal(result.key_codes, expected._key_codes)
    assert result.key_codes.dtype == expected._key_codes.dtype
    for name in ("count", "total", "sumsq"):
        a = getattr(result.stats, name)
        b = getattr(expected.leaf_stats, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name


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
# Spill build: equality with the one-pass cube


class TestShardedBuild:
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_bitwise_equal_to_single_process(self, n_shards, tmp_path):
        _assert_spill_bitwise(_spill_build(tmp_path, n_shards=n_shards),
                              _one_pass())
        assert os.listdir(tmp_path) == []

    def test_more_shards_than_districts_leaves_empty_shards(self, tmp_path):
        result = _spill_build(tmp_path, n_shards=11)
        assert result.shard_rows.count(0) >= 8  # only 3 districts
        _assert_spill_bitwise(result, _one_pass())

    def test_partition_attr_defaults_to_first_hierarchy_root(self,
                                                             tmp_path):
        result = _spill_build(tmp_path, n_shards=2)
        district = result.encodings[0]
        expected = [0, 0]
        for row in ROWS:
            expected[district.code_of(row[0]) % 2] += 1
        assert result.shard_rows == expected

    def test_explicit_partition_attr(self, tmp_path):
        result = _spill_build(tmp_path, n_shards=3, partition_attr="year")
        _assert_spill_bitwise(result, _one_pass())

    def test_rejects_non_leaf_partition_attr(self, tmp_path):
        with pytest.raises(ShardError):
            _spill_build(tmp_path, n_shards=2, partition_attr="sev")

    @pytest.mark.parametrize("kwargs", [{"n_shards": 0}, {"n_shards": -2},
                                        {"partition_attr": "nowhere"}])
    def test_rejects_bad_configuration(self, kwargs, tmp_path):
        with pytest.raises(ShardError):
            _spill_build(tmp_path, **kwargs)
        assert os.listdir(tmp_path) == []

    def test_nan_partition_keys_build(self, tmp_path):
        rows = ROWS + [(NAN, "no-district", 2000, 7.0),
                       (NAN, "no-district", 2001, 1.0)]
        _assert_spill_bitwise(_spill_build(tmp_path, rows, n_shards=4),
                              _one_pass(rows))

    def test_timings_recorded(self, tmp_path):
        result = _spill_build(tmp_path, n_shards=3)
        for key in ("stream_s", "build_wall_s", "merge_s",
                    "worker_busy_s"):
            assert key in result.timings


class TestShardedPoolBuild:
    def test_process_pool_build_is_bitwise_equal(self, tmp_path):
        try:
            result = _spill_build(tmp_path, n_shards=3, workers=2)
            assert result.timings.get("fallback") is None, result.timings
            # real out-of-process workers did the shard builds
            assert any(pid != os.getpid()
                       for pid in result.timings["worker_pids"])
            _assert_spill_bitwise(result, _one_pass())
        finally:
            shutdown_worker_pools()
        assert os.listdir(tmp_path) == []
        assert leaked_segments() == []


def _failing_stream():
    chunks = _chunks()
    yield chunks[0]
    yield chunks[1]
    raise OSError("chunk source went away")


def _stream_missing_a_column():
    chunks = _chunks()
    del chunks[1]["year"]
    return chunks


class TestFailedStream:
    """A chunk stream that raises leaves no spill file behind."""

    @pytest.mark.parametrize("make, error", [
        (_failing_stream, OSError), (_stream_missing_a_column, KeyError)],
        ids=["iterator-error", "missing-column"])
    def test_failed_stream_removes_spill_files(self, make, error,
                                               tmp_path):
        with pytest.raises(error):
            spill_build_from_chunks(make(), HIERARCHIES, "sev",
                                    spill_dir=str(tmp_path), n_shards=3)
        assert os.listdir(tmp_path) == []
        assert leaked_segments() == []


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

    def test_dataset_from_chunks_builds_equal_cube(self, tmp_path):
        # Code spaces differ (chunked keeps first-appearance order,
        # from_rows sorts), so compare decoded groups — and bitwise
        # between the spill build and the one-pass cube over the *same*
        # chunks.
        dataset = dataset_from_chunks(self.CHUNKS, HIERARCHIES, "sev")
        flat = _dataset(self.FLAT_ROWS)
        deltaref.assert_groups_equal(
            Cube(dataset).leaf_states, Cube(flat).leaf_states)
        _assert_spill_bitwise(
            spill_build_from_chunks(self.CHUNKS, HIERARCHIES, "sev",
                                    spill_dir=str(tmp_path), n_shards=3),
            Cube(dataset))


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.parametrize("command", ["serve", "serve-http", "ingest"])
@pytest.mark.parametrize("flag", ["--shards", "--shard-workers",
                                  "--spill-dir"])
def test_cli_rejects_removed_shard_flags(command, flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, flag, "2"])
    assert "unrecognized arguments" in capsys.readouterr().err
