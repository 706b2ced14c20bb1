"""Steadiness and traced-run reports over ``perfbench/run.py``.

Run from the root of a checkout::

    python3 perfbench/report.py steady --runs 10 --first-seed 1
    python3 perfbench/report.py steady --runs 10 --first-seed 101 \\
        --compare .perfbench/steady-1.json
    python3 perfbench/report.py trace --seed 7919

``steady`` runs every workload ``--runs`` times, one seed per round and
the workload order reversed every other round, then prints each
end-to-end metric's median, quartiles and spread (IQR over median)
against its bound from ``BENCHMARK.json``; ``--compare`` also prints
how far each median moved from an earlier set. ``trace`` makes one
untraced and one traced run per workload on the same seed and prints
every per-layer metric, the trace overhead (traced minus untraced
p50 latency) and the share of timed wall time covered by named spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int
             ) -> tuple[dict, float]:
    """One run of the ``BENCHMARK.json`` command: (result, wall seconds)."""
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} failed its gate:\n"
                           f"{proc.stdout[-2000:]}")
    return result, wall


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args) -> int:
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    values = {w: {m: [] for m in metrics} for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result, wall = run_once(w, args.first_seed + r, seconds, 0)
            walls[w].append(wall)
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"round {r + 1} {w} seed {args.first_seed + r}: "
                  f"{wall:.1f} s", flush=True)
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["values"]
    worst = 0.0
    for w in workloads:
        print(f"\n{w}  (mean run {statistics.mean(walls[w]):.1f} s)")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}"
              + ("   drift" if earlier else ""))
        for m, info in metrics.items():
            q1, med, q3 = quartiles(values[w][m])
            spread = (q3 - q1) / med
            ratio = spread / info["bound"]
            if m != "setup_s":
                worst = max(worst, ratio)
            line = (f"  {m:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                    f"{spread:>9.4f}{info['bound']:>7.2f}{ratio:>8.3f}")
            if earlier:
                old = statistics.median(earlier[w][m])
                worse = (med - old) / old
                if info["better"] == "higher":
                    worse = -worse
                line += f"  {worse:+.4f} {'ok' if worse <= info['bound'] else 'WORSE'}"
            print(line)
    projected = (4 * max(statistics.mean(v) for v in walls.values())
                 + 22 * sum(statistics.mean(v) for v in walls.values()))
    print(f"\nworst spread/bound (setup_s excluded): {worst:.3f} "
          f"(target below 0.333)")
    print(f"projected time of 4 + 22 runs per workload: {projected:.0f} s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{args.first_seed}.json")
    with open(path, "w") as f:
        json.dump({"first_seed": args.first_seed, "values": values,
                   "walls": walls}, f, indent=1)
    print(f"values written to {path}")
    return 0


def trace(args) -> int:
    bench = spec()
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["per_layer"]]
    tables = {}
    for w in (x["name"] for x in bench["workloads"]):
        plain, _ = run_once(w, args.seed, seconds, 0)
        traced, _ = run_once(w, args.seed, seconds, 1)
        tables[w] = (plain["metrics"], traced["metrics"])
    workloads = list(tables)
    print(f"{'per-layer metric':<30}" + "".join(f"{w:>18}" for w in workloads))
    for name in names:
        print(f"{name:<30}" + "".join(
            f"{tables[w][1][name]['value']:>18.4f}" for w in workloads))
    overhead = []
    for w in workloads:
        plain, traced = tables[w]
        base = plain["latency_p50_ms"]["value"]
        extra = traced["trace.latency_p50_ms"]["value"] - base
        overhead.append(f"{extra:>+11.2f} ms {100 * extra / base:+5.1f}%")
    print(f"{'trace overhead (p50)':<30}" + "".join(
        f"{o:>18}" for o in overhead))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("steady", help="run-to-run spread per metric")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", help="an earlier steady-*.json")
    p = sub.add_parser("trace", help="per-layer table plus overhead")
    p.add_argument("--seed", type=int, default=7919)
    args = parser.parse_args(argv)
    return steady(args) if args.mode == "steady" else trace(args)


if __name__ == "__main__":
    sys.exit(main())
