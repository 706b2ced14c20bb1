"""Chunked construction: unit coverage.

Pins down (1) ``DictEncoding.merge`` union semantics — the first
encoding's codes survive verbatim, and NaN cells and inputs of two cell
types raise ``EncodingError`` (a chunked build's ``DatasetError``); (2)
``encode_columns_chunked``, ``Relation.from_encoded`` and
``dataset_from_chunks`` against the row-built relation; and (3) the CLI
rejecting removed flags. ``tests/test_shard_properties.py`` checks
``dataset_from_chunks`` on random chunkings against the rebuild oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HierarchicalDataset, Relation, Schema, dimension, measure
from repro.cli import build_parser
from repro.relational import deltaref
from repro.relational.cube import Cube
from repro.relational import DatasetError
from repro.relational.encoding import DictEncoding, EncodingError, factorize
from repro.relational.shard import (dataset_from_chunks,
                                    encode_columns_chunked)

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
NAN = float("nan")


def _dataset(rows) -> HierarchicalDataset:
    return HierarchicalDataset.build(
        Relation.from_rows(SCHEMA, rows), HIERARCHIES, "sev")


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
        # NaN is not a key cell, one shared object or not: no shard
        # encodes it, so no merge has to decide whether two NaNs match.
        for cells in ([NAN, 0.5], [NAN, NAN], [float("nan")]):
            with pytest.raises(EncodingError, match="NaN"):
                factorize(np.array(cells, dtype=object))
        with pytest.raises(DatasetError, match="'year'"):
            dataset_from_chunks(
                [dict(chunk, year=np.array([2000.0, NAN]))
                 for chunk in TestChunkedConstruction.CHUNKS],
                HIERARCHIES, "sev")

    def test_cross_type_equal_values_flag_lossy(self):
        # 1 and 1.0 are ==-equal cells of two types: a merge of an int
        # and a float domain raises instead of folding one into the other.
        a = factorize(np.array([1, 2], dtype=object))
        b = factorize(np.array([1.0], dtype=object))
        with pytest.raises(EncodingError, match="float.*int"):
            DictEncoding.merge([a, b])
        with pytest.raises(EncodingError, match="bool.*int"):
            DictEncoding.merge([a, factorize([True])])

    def test_lossy_input_marks_union(self):
        # A union holds its inputs' one cell type, and an empty input (no
        # type yet) joins any.
        a = factorize(np.array(["x"], dtype=object))
        b = factorize(np.array(["y"], dtype=object))
        merged, _ = DictEncoding.merge([factorize([]), a, b])
        assert merged.cell_type is str and merged.domain == ["x", "y"]

    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            DictEncoding.merge([])


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
        # from_rows sorts), so compare decoded groups.
        dataset = dataset_from_chunks(self.CHUNKS, HIERARCHIES, "sev")
        flat = _dataset(self.FLAT_ROWS)
        deltaref.assert_groups_equal(
            Cube(dataset).leaf_states, Cube(flat).leaf_states)

    def test_list_columns_keep_their_value_objects(self):
        # A list column is encoded as it is, keeping its value objects.
        # One with two cell types ([1, "x"], which np.asarray would turn
        # into ["1", "x"]) is refused, naming the column.
        mixed = {"district": [1, "x"], "village": ["1-v0", "x-v0"],
                 "year": [2000, 2001], "sev": [1.0, 2.0]}
        with pytest.raises(DatasetError, match="'district'.*int and str"):
            dataset_from_chunks([mixed], HIERARCHIES, "sev")
        chunk = {"district": [1, 2, 1], "village": [10, 20, 11],
                 "year": [2000, 2001, 2000], "sev": [1.0, 2.0, 3.0]}
        rows = list(zip(*(chunk[name] for name in SCHEMA.names)))
        dataset = dataset_from_chunks([chunk], HIERARCHIES, "sev")
        flat = _dataset(rows)
        for attr in ("district", "village", "year"):
            got = dataset.relation.encoding(attr).domain
            want = flat.relation.encoding(attr).domain
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
        deltaref.assert_groups_equal(
            Cube(dataset).leaf_states, Cube(flat).leaf_states)
        assert len(dataset.relation.filter_equals({"district": 1})) == 2


# ---------------------------------------------------------------------------
# CLI


REMOVED_FLAGS = [(command, flag)
                 for flag in ("--shards", "--shard-workers", "--spill-dir")
                 for command in ("serve", "serve-http", "ingest")]
REMOVED_FLAGS.append(("serve-http", "--batch-window"))


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{flag}-{command}")
    for command, flag in REMOVED_FLAGS])
def test_cli_rejects_removed_shard_flags(command, flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, flag, "2"])
    assert "unrecognized arguments" in capsys.readouterr().err
