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
  concatenated value array and pays the cold whole-column encode;
* **encode** — the whole-column encode of the dimension columns, cold
  through ``factorize_by_sort`` (``np.unique`` sorts every row) and warm
  through ``factorize`` (fixed-width strings take the hashed path). An
  ``encode-distinct`` row does the same for one column of all-distinct
  ``<U10`` strings in sorted order, the shape where hashing loses. Every
  encode is checked bitwise against the ``np.unique`` result, in smoke
  mode too.

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
from repro.relational.encoding import factorize, factorize_by_sort

from bench_utils import (SMOKE, fmt, peak_rss_bytes, report, report_json,
                         smoke)

SIZES = smoke([3_000], [1_000_000, 10_000_000])
CHUNK_ROWS = smoke(1_000, 1_000_000)
REPS = smoke(1, 3)
#: Rows of the all-distinct ``<U10`` column of the encode-distinct row.
DISTINCT_ROWS = smoke(3_000, 1_000_000)
#: The chunked-vs-one-image RSS floor applies from this scale up.
RSS_SCALE = 10_000_000

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure(DROUGHT_MEASURE)])
DIMENSIONS = [a for attrs in DROUGHT_HIERARCHIES.values() for a in attrs]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _chunks(n):
    return drought_chunks(n, CHUNK_ROWS, seed=0)


def _whole_columns(n, names=SCHEMA.names):
    """Every column in ``names`` as one concatenated value array."""
    parts = {name: [] for name in names}
    for chunk in _chunks(n):
        for name in names:
            parts[name].append(np.asarray(chunk[name]))
    return {name: np.concatenate(arrs) for name, arrs in parts.items()}


def _one_image_build(n):
    """The alternative to chunked loading: full value columns in one image.

    Materializes every column as one concatenated value array (what a
    non-streaming loader holds) and pays the cold whole-column encode —
    the memory shape the chunked coordinator is measured against.
    """
    relation = Relation(SCHEMA, _whole_columns(n))
    dataset = _as_dataset(relation)
    return Cube(dataset)


def _encode_row(op, n, columns):
    """Whole-column encode: cold = ``np.unique``, warm = ``factorize``.

    Each side is the best of ``REPS`` runs, summed over ``columns``; the
    two encodings must agree bitwise (codes, domain values and types).
    """
    cold = warm = 0.0
    for name, values in columns.items():
        want, t_cold = min((_timed(lambda: factorize_by_sort(values))
                            for _ in range(REPS)), key=lambda r: r[1])
        got, t_warm = min((_timed(lambda: factorize(values))
                           for _ in range(REPS)), key=lambda r: r[1])
        assert got.codes.dtype == want.codes.dtype \
            and np.array_equal(got.codes, want.codes), \
            f"{op} n={n} {name}: codes differ from np.unique"
        assert got.domain == want.domain and [type(v) for v in got.domain] \
            == [type(v) for v in want.domain], \
            f"{op} n={n} {name}: domain differs from np.unique"
        assert got.domain_sorted == want.domain_sorted
        cold += t_cold
        warm += t_warm
    return {"op": op, "scale": n, "cold": cold, "warm": warm,
            "speedup": cold / warm if warm else 0.0,
            "peak_rss_bytes": peak_rss_bytes()}


def _distinct_strings(n):
    """``n`` distinct ``<U10`` strings, already in sorted order.

    The hashed path's worst case: it pays for the hashes and then sorts
    ``n`` representatives in hash order, while ``np.unique`` sorts input
    that is already sorted.
    """
    return np.array([f"{i:010d}" for i in range(n)])


def _as_dataset(relation):
    from repro.relational import HierarchicalDataset
    return HierarchicalDataset.build(relation, DROUGHT_HIERARCHIES,
                                     DROUGHT_MEASURE, validate=False)


def test_figure22_series(benchmark):
    lines = ["n         encode(s)  build(s)  1image(s)  rss-chunked(MB)  "
             "rss-1image(MB)"]
    json_rows = []
    encode_rows = []
    rss_floors = []
    for n in SIZES:
        # -- chunked coordinator + one-pass build ---------------------------
        dataset, t_encode = _timed(
            lambda: dataset_from_chunks(_chunks(n), DROUGHT_HIERARCHIES,
                                        DROUGHT_MEASURE))
        best_build = min(_timed(lambda: Cube(dataset))[1]
                         for _ in range(REPS))
        rss_chunked = peak_rss_bytes()

        # -- the all-in-one-image alternative -------------------------------
        cube, t_one_image = _timed(lambda: _one_image_build(n))
        rss_one_image = peak_rss_bytes()
        del cube, dataset

        # -- whole-column encode: np.unique vs factorize --------------------
        encode_rows.append(
            _encode_row("encode", n, _whole_columns(n, DIMENSIONS)))

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
    encode_rows.append(_encode_row(
        "encode-distinct", DISTINCT_ROWS,
        {"distinct": _distinct_strings(DISTINCT_ROWS)}))
    lines.append("op               n         np.unique(s)  factorize(s)  "
                 "speedup")
    for row in encode_rows:
        lines.append(f"{row['op']:<16} {row['scale']:<9d} {fmt(row['cold'])}"
                     f"        {fmt(row['warm'])}        "
                     f"{row['speedup']:.2f}")
    json_rows.extend(encode_rows)
    report("fig22_sharded", lines)
    report_json("fig22_sharded", json_rows)
    if not SMOKE:
        for n, rss_chunked, rss_one_image in rss_floors:
            assert rss_one_image >= 1.5 * rss_chunked, (
                f"n={n}: one-image peak RSS {rss_one_image / 1e6:.0f}MB is "
                f"not well above the chunked coordinator's "
                f"{rss_chunked / 1e6:.0f}MB high-water mark")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
