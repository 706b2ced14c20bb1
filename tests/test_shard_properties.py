"""Spill build ≡ one-pass cube over the same chunks (hypothesis).

Every property streams randomly generated relations, cut into random
chunks, through :func:`~repro.relational.shard.spill_build_from_chunks`
(``workers=0``: the serial one-shard-at-a-time loop) — shard counts
1/2/7 (7 usually exceeds the district cardinality, so empty shards are
routine), NaN partition keys, every leaf attribute as the partition
attribute — and asserts *bitwise* equality against the one-pass
:class:`Cube` over ``dataset_from_chunks`` of the same chunks: identical
key-code arrays and identical count/total/sumsq bits (measures are
dyadic rationals, so float sums are order-independent). Every build
must also leave its spill directory empty.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.cube import Cube
from repro.relational.shard import (dataset_from_chunks, leaked_segments,
                                    spill_build_from_chunks)

from chunk_helpers import DIMENSIONS, rows_to_chunks

HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}

#: One shared NaN object: rows drawn with it form a single group (dict
#: identity semantics) and a single, valid partition key.
NAN = float("nan")

DISTRICTS = ("d0", "d1", "d2")
SHARD_COUNTS = (1, 2, 7)

# Dyadic measures: every sum is exactly representable, so spilled and
# one-pass accumulations must agree bitwise.
measures = st.integers(-8, 24).map(lambda v: v / 2.0)


def _village(district, i: int) -> str:
    return f"{district}-v{i}"


def _row(draw, districts, village_range, years):
    d = draw(st.sampled_from(districts))
    v = _village(d, draw(st.integers(0, village_range - 1)))
    return (d, v, draw(st.sampled_from(years)), draw(measures))


@st.composite
def relations(draw, allow_nan: bool = False):
    districts = DISTRICTS + ((NAN,) if allow_nan else ())
    years = [2000, 2001] + ([NAN] if allow_nan else [])
    return [_row(draw, districts, 3, years)
            for _ in range(draw(st.integers(1, 16)))]


def _assert_spill_bitwise(rows, chunk_rows: int, n_shards: int,
                          partition_attr: str | None = None) -> None:
    chunks = rows_to_chunks(rows, chunk_rows)
    cube = Cube(dataset_from_chunks(chunks, HIERARCHIES, "sev"))
    with tempfile.TemporaryDirectory() as spill_dir:
        result = spill_build_from_chunks(
            chunks, HIERARCHIES, "sev", spill_dir=spill_dir,
            n_shards=n_shards, workers=0, partition_attr=partition_attr)
        assert os.listdir(spill_dir) == []
    assert leaked_segments() == []
    assert np.array_equal(result.key_codes, cube._key_codes)
    for name in ("count", "total", "sumsq"):
        assert np.array_equal(getattr(result.stats, name),
                              getattr(cube.leaf_stats, name)), name
    assert sum(result.shard_rows) == result.n_rows == len(rows)


@given(relations(), st.sampled_from(SHARD_COUNTS), st.integers(1, 6))
def test_sharded_build_bitwise_equals_single_process(rows, n_shards,
                                                     chunk_rows):
    _assert_spill_bitwise(rows, chunk_rows, n_shards)


@given(relations(allow_nan=True), st.sampled_from(SHARD_COUNTS),
       st.integers(1, 6))
def test_sharded_build_with_nan_partition_keys(rows, n_shards, chunk_rows):
    _assert_spill_bitwise(rows, chunk_rows, n_shards)


@given(relations(), st.sampled_from(DIMENSIONS),
       st.sampled_from(SHARD_COUNTS), st.integers(1, 6))
def test_any_leaf_attribute_partitions_correctly(rows, attr, n_shards,
                                                 chunk_rows):
    _assert_spill_bitwise(rows, chunk_rows, n_shards, partition_attr=attr)
