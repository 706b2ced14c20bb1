"""Figure 22 (repro-only): chunked cube construction at 1e6–1e7 rows.

The coordinator of a chunked build never holds a row-object image, or
even full value arrays. This harness drives that pipeline end to end at
1e6–1e7 rows and sets it against the all-in-one-image build:

* **chunked datagen** — ``drought_chunks`` streams ``{column: array}``
  chunks and ``dataset_from_chunks`` encodes them incrementally
  (per-chunk factorize + ``DictEncoding.merge``);
* **one-pass build** — the ``Cube`` built on the chunked dataset, timed
  as the best of ``REPS`` builds;
* **one image** — the alternative that materializes every column as one
  concatenated value array and pays the cold whole-column encode.

Reported per scale: the chunked encode and one-pass build seconds, the
one-image build seconds, and the coordinator's peak RSS for the chunked
pipeline vs the all-in-one-image build. Acceptance floor (full scale
only): at 1e7 rows the all-in-one image must push peak RSS well above
the chunked coordinator's high-water mark.
"""

import time

import numpy as np

from repro.datagen.perf import (DROUGHT_HIERARCHIES, DROUGHT_MEASURE,
                                drought_chunks)
from repro.relational import (Cube, Relation, Schema, dataset_from_chunks,
                              dimension, measure)

from bench_utils import (SMOKE, fmt, peak_rss_bytes, report, report_json,
                         smoke)

SIZES = smoke([3_000], [1_000_000, 10_000_000])
CHUNK_ROWS = smoke(1_000, 1_000_000)
REPS = smoke(1, 3)
#: The chunked-vs-one-image RSS floor applies from this scale up.
RSS_SCALE = 10_000_000

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure(DROUGHT_MEASURE)])


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _chunks(n):
    return drought_chunks(n, CHUNK_ROWS, seed=0)


def _one_image_build(n):
    """The alternative to chunked loading: full value columns in one image.

    Materializes every column as one concatenated value array (what a
    non-streaming loader holds) and pays the cold whole-column encode —
    the memory shape the chunked coordinator is measured against.
    """
    parts = {name: [] for name in SCHEMA.names}
    for chunk in _chunks(n):
        for name in SCHEMA.names:
            parts[name].append(np.asarray(chunk[name]))
    columns = {name: np.concatenate(arrs) for name, arrs in parts.items()}
    del parts
    relation = Relation(SCHEMA, columns)
    del columns
    dataset = _as_dataset(relation)
    return Cube(dataset)


def _as_dataset(relation):
    from repro.relational import HierarchicalDataset
    return HierarchicalDataset.build(relation, DROUGHT_HIERARCHIES,
                                     DROUGHT_MEASURE, validate=False)


def test_figure22_series(benchmark):
    lines = ["n         encode(s)  build(s)  1image(s)  rss-chunked(MB)  "
             "rss-1image(MB)"]
    json_rows = []
    rss_floors = []
    for n in SIZES:
        # -- chunked coordinator + one-pass build ---------------------------
        dataset, t_encode = _timed(
            lambda: dataset_from_chunks(_chunks(n), DROUGHT_HIERARCHIES,
                                        DROUGHT_MEASURE, validate=False))
        best_build = min(_timed(lambda: Cube(dataset))[1]
                         for _ in range(REPS))
        rss_chunked = peak_rss_bytes()

        # -- the all-in-one-image alternative -------------------------------
        _, t_one_image = _timed(lambda: _one_image_build(n))
        rss_one_image = peak_rss_bytes()

        rss_ratio = rss_one_image / rss_chunked if rss_chunked else 0.0
        lines.append(
            f"{n:<9d} {fmt(t_encode)}     {fmt(best_build)}    "
            f"{fmt(t_one_image)}     {rss_chunked / 1e6:12.1f}     "
            f"{rss_one_image / 1e6:10.1f}")
        json_rows.append({
            "op": "one-image-build", "scale": n, "cold": t_one_image,
            "warm": best_build,
            "speedup": t_one_image / best_build if best_build else 0.0,
            "encode_s": t_encode, "rss_ratio": rss_ratio,
            "peak_rss_bytes": rss_one_image})
        if n >= RSS_SCALE:
            rss_floors.append((n, rss_chunked, rss_one_image))
    report("fig22_sharded", lines)
    report_json("fig22_sharded", json_rows)
    if not SMOKE:
        for n, rss_chunked, rss_one_image in rss_floors:
            assert rss_one_image >= 1.5 * rss_chunked, (
                f"n={n}: one-image peak RSS {rss_one_image / 1e6:.0f}MB is "
                f"not well above the chunked coordinator's "
                f"{rss_chunked / 1e6:.0f}MB high-water mark")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
