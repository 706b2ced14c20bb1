"""Figure 25 (repro-only): the out-of-core spill build.

``spill_build_from_chunks`` streams 1e8 rows into per-shard on-disk
column files and builds the leaf block shard-at-a-time over memory
maps. The coordinator never holds more than one chunk plus one shard's
decoded image plus the merged stats. Peak RSS is a per-process
high-water mark, so the spill leg runs first; the acceptance check is
that the *1e7* all-in-one-image build, run afterwards, pushes the
process high-water mark **above** the spill leg's — i.e. an out-of-core
build 10x the rows costs less coordinator memory than one materialized
image. A small spill build is also checked bitwise against the
single-process ``Cube``.

Acceptance floor (full scale only): the RSS ordering above.
"""

import os
import shutil
import tempfile
import time

import numpy as np

from repro.datagen.perf import (DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                                drought_chunks)
from repro.relational import (Cube, Relation, Schema, dataset_from_chunks,
                              dimension, measure, shutdown_worker_pools)
from repro.relational.shard import spill_build_from_chunks

from bench_utils import (SMOKE, fmt, peak_rss_bytes, report, report_json,
                         smoke)

CHUNK_ROWS = smoke(1_000, 1_000_000)
N_SHARDS = smoke(3, 8)
WORKERS = smoke(2, min(8, os.cpu_count() or 1))
#: Out-of-core leg: spill-mode rows vs the one-image RSS baseline rows.
SPILL_ROWS = smoke(6_000, 100_000_000)
BASELINE_ROWS = smoke(3_000, 10_000_000)
#: Scale of the spill-vs-Cube bitwise equality check (needs one image).
SPILL_ORACLE_ROWS = smoke(3_000, 1_000_000)

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure(DROUGHT_MEASURE)])

_RSS_MARKS: dict[str, int] = {}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _chunks(n):
    return drought_chunks(n, CHUNK_ROWS, seed=0)


def _one_image_build(n):
    """The all-columns-resident baseline the spill leg is measured against."""
    parts = {name: [] for name in SCHEMA.names}
    for chunk in _chunks(n):
        for name in SCHEMA.names:
            parts[name].append(np.asarray(chunk[name]))
    columns = {name: np.concatenate(arrs) for name, arrs in parts.items()}
    del parts
    relation = Relation(SCHEMA, columns)
    del columns
    from repro.relational import HierarchicalDataset
    dataset = HierarchicalDataset.build(relation, DROUGHT_HIERARCHIES,
                                        DROUGHT_MEASURE, validate=False)
    return Cube(dataset)


def test_figure25_spill_build(benchmark):
    """1e8-row out-of-core build; RSS must stay below the 1e7 one-image
    baseline that runs after it (monotone high-water ⇒ the baseline must
    visibly *raise* the mark the spill leg left)."""
    lines = ["op               rows        wall(s)   rows/s     rss(MB)"]
    json_rows = []
    spill_dir = tempfile.mkdtemp(prefix="repro-fig25-spill-")
    try:
        # Bitwise gate first (small): spilled blocks == one-process Cube.
        oracle_n = SPILL_ORACLE_ROWS
        result = spill_build_from_chunks(
            _chunks(oracle_n), DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
            spill_dir=spill_dir, n_shards=N_SHARDS, workers=WORKERS)
        cube = Cube(dataset_from_chunks(_chunks(oracle_n),
                                        DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                                        validate=False))
        assert np.array_equal(result.key_codes, cube._key_codes), \
            "spill build: key blocks differ from Cube"
        for stat in ("count", "total", "sumsq"):
            assert np.array_equal(getattr(result.stats, stat),
                                  getattr(cube.leaf_stats, stat)), \
                f"spill build: {stat} not bitwise-equal to Cube"

        # The out-of-core leg (runs before any one-image build).
        result, t_spill = _timed(lambda: spill_build_from_chunks(
            _chunks(SPILL_ROWS), DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
            spill_dir=spill_dir, n_shards=N_SHARDS, workers=WORKERS))
        assert result.n_rows == SPILL_ROWS
        rss_spill = peak_rss_bytes()
        _RSS_MARKS["spill"] = rss_spill
        leftovers = os.listdir(spill_dir)
        assert not leftovers, f"spill files not reclaimed: {leftovers}"
        lines.append(f"spill-build      {SPILL_ROWS:<11d} {fmt(t_spill)}   "
                     f"{SPILL_ROWS / t_spill:9.0f}  {rss_spill / 1e6:9.1f}")

        # The one-image baseline at a tenth of the rows.
        _, t_image = _timed(lambda: _one_image_build(BASELINE_ROWS))
        rss_image = peak_rss_bytes()
        _RSS_MARKS["one-image"] = rss_image
        lines.append(f"one-image-build  {BASELINE_ROWS:<11d} {fmt(t_image)}   "
                     f"{BASELINE_ROWS / t_image:9.0f}  {rss_image / 1e6:9.1f}")

        # Per-row throughput of the spill build relative to the one-image
        # build (the two legs run at different scales).
        throughput_ratio = (SPILL_ROWS / t_spill) / (BASELINE_ROWS / t_image) \
            if t_spill and t_image else 0.0
        json_rows.append({
            "op": "spill-build", "scale": SPILL_ROWS, "cold": t_spill,
            "warm": t_spill, "speedup": throughput_ratio,
            "shards": N_SHARDS, "workers": WORKERS,
            "stream_s": result.timings.get("stream_s"),
            "build_wall_s": result.timings.get("build_wall_s"),
            "merge_s": result.timings.get("merge_s"),
            "fallback": result.timings.get("fallback"),
            "peak_rss_bytes": rss_spill})
        json_rows.append({
            "op": "one-image-build", "scale": BASELINE_ROWS, "cold": t_image,
            "warm": t_image,
            "speedup": rss_image / rss_spill if rss_spill else 0.0,
            "peak_rss_bytes": rss_image})
        if not SMOKE:
            assert rss_image > rss_spill, (
                f"one-image build at {BASELINE_ROWS} rows peaked at "
                f"{rss_image / 1e6:.0f}MB, not above the {SPILL_ROWS}-row "
                f"spill build's {rss_spill / 1e6:.0f}MB high-water mark")
    finally:
        shutdown_worker_pools()
        shutil.rmtree(spill_dir, ignore_errors=True)
    report("fig25_spill_build", lines)
    report_json("fig25_spill_build", json_rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

