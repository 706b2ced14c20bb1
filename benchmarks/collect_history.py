"""Collate the machine-readable benchmark rows into BENCH_HISTORY.json.

Every harness persists its series to ``benchmarks/out/<name>.json`` via
``bench_utils.report_json``. This script flattens those files into one
repo-root ``BENCH_HISTORY.json`` — one record per (figure, op, scale)
row with the fields the cross-PR perf tracking reads: ``fig`` (the
harness name), ``op``, ``scale``, ``cold`` and ``warm`` (seconds),
``speedup``, ``peak_rss_bytes`` and ``cpu_count``. Smoke rows
(``benchmarks/out/smoke/``) are excluded — their timings are a
does-it-still-run gate, not measurements.

Usage::

    python benchmarks/collect_history.py           # rewrite BENCH_HISTORY.json
    python benchmarks/collect_history.py --check   # verify it parses, print a summary

Exits non-zero when no full-scale JSON series exist (nothing to track)
or a file is malformed.
"""

from __future__ import annotations

import glob
import json
import os
import sys

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
HISTORY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_HISTORY.json")

#: The fields every history record carries (missing values become None
#: rather than dropping the record — a hole in the series is visible,
#: a silently skipped row is not).
FIELDS = ("op", "scale", "cold", "warm", "speedup", "peak_rss_bytes",
          "cpu_count")


def collect() -> list[dict]:
    records: list[dict] = []
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as f:
            payload = json.load(f)
        if payload.get("smoke"):
            continue
        for row in payload.get("rows", []):
            if not isinstance(row, dict):
                raise ValueError(f"{name}: non-object row {row!r}")
            record = {"fig": name}
            record.update({field: row.get(field) for field in FIELDS})
            records.append(record)
    return records


def main(argv: list[str]) -> int:
    try:
        records = collect()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"collect_history: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"collect_history: no full-scale series under {OUT_DIR} — "
              f"run `make bench` first", file=sys.stderr)
        return 1
    figs = sorted({r["fig"] for r in records})
    if "--check" not in argv:
        with open(HISTORY_PATH, "w") as f:
            json.dump({"rows": records}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"collect_history: wrote {len(records)} rows from "
              f"{len(figs)} figures to {os.path.normpath(HISTORY_PATH)}")
    else:
        print(f"collect_history: {len(records)} rows across {figs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
