"""Reptile's benchmark: seeded serving workloads on 1e6 drought rows.

Run from the root of a checkout::

    python3 perfbench/run.py --workload http-read-1e6 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same plan with every layer boundary wrapped and
reports the per-layer metrics instead (spans are written to
``.perfbench/`` in the checkout). Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run whose answers fail the
correctness gate prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Per-layer metrics (``--trace 1``). ``*_ms`` are self times per timed
#: operation (request or iteration), except the set-up
#: ones (inclusive, per set-up) and ``core.recommend_ms`` (inclusive);
#: counts are totals over the timed phase.
SELF_MS = ["relational.view", "relational.delta", "relational.rows",
           "model.design", "model.fit", "core.sweep", "core.apply_delta",
           "kernels.rank1_sweep", "kernels.group_codes", "kernels.join_probe",
           "serving.dispatch", "serving.batch_wait",
           "serving.admission_wait", "serving.payload", "serving.lock_wait",
           "serving.patch", "runtime.gc"]
SETUP_MS = ["relational.encode", "relational.cube_build",
            "serving.fingerprint"]
PER_LAYER_UNITS = dict(
    [(f"{n}_ms", "ms") for n in SETUP_MS + SELF_MS]
    + [("core.recommend_ms", "ms"), ("serving.transport_ms", "ms"),
       ("relational.view_calls", "count"), ("model.fit_calls", "count"),
       ("model.fit_rows", "count"), ("kernels.fused_calls", "count"),
       ("kernels.fallback_calls", "count"),
       ("factorized.unit_builds", "count"),
       ("serving.batch_collapse_ratio", "ratio"),
       ("serving.cache_hit_rate", "ratio"), ("serving.cache_hits", "count"),
       ("serving.cache_misses", "count"),
       ("serving.cache_evictions", "count"),
       ("serving.cache_patched", "count"),
       ("serving.cache_retained", "count"),
       ("serving.cache_entries", "count"),
       ("runtime.gc_collections", "count"),
       ("trace.latency_p50_ms", "ms"), ("trace.span_coverage", "ratio")])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="input rows (smaller for smoke runs)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one answer before the gate (self-test)")
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path; refuse any other."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported repro from {repro.__file__}, not {SRC}")


def end_to_end(outcome) -> dict:
    from workloads import percentile
    lat = outcome.latencies_ms[outcome.op_class]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "recommend_rps": (outcome.recommends / outcome.wall_s, "1/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p70_ms": (percentile(lat, 70), "ms"),
    }


def per_layer(tracer, outcome) -> dict:
    from tracer import span_metrics
    from workloads import percentile
    values = span_metrics(tracer, outcome.n_ops, len(outcome.setup_s),
                          SELF_MS, SETUP_MS)
    after = outcome.counters["after"]
    d = {k: v - outcome.counters["before"][k] for k, v in after.items()}
    lookups, served = d["hits"] + d["misses"], d["passes"] + d["collapsed"]
    values.update({
        "kernels.fused_calls": d["fused"],
        "kernels.fallback_calls": d["fallback"],
        "serving.cache_hit_rate": d["hits"] / lookups if lookups else 0.0,
        "serving.cache_hits": d["hits"],
        "serving.cache_misses": d["misses"],
        "serving.cache_evictions": d["evictions"],
        "serving.cache_patched": d["patched"],
        "serving.cache_retained": d["retained"],
        "serving.cache_entries": after["entries"],
        "serving.batch_collapse_ratio": d["collapsed"] / served
        if served else 0.0,
        "trace.latency_p50_ms": percentile(
            outcome.latencies_ms[outcome.op_class], 50),
    })
    return {name: (values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def report_lines(workload, outcome) -> list[str]:
    """Per request class: p50 and the highest percentile with >=10
    samples beyond it, with the sample count."""
    from workloads import percentile
    lines = [f"workload {workload}: {outcome.n_ops} timed operations, "
             f"{outcome.wall_s:.2f} s timed, set-ups "
             + ", ".join(f"{s:.3f}" for s in outcome.setup_s) + " s"]
    for cls, samples in outcome.latencies_ms.items():
        n = len(samples)
        tails = [q for q in (99, 90, 75) if n * (100 - q) / 100 >= 10]
        for q in [50] + tails[:1]:
            lines.append(f"  {cls}_p{q}_ms = {percentile(samples, q):.3f} ms"
                         f"  (n={n})")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    lines.append(f"  error_rate = {rate:.6f} ratio  "
                 f"({outcome.failed} of {outcome.attempted})")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracer import Tracer, install_layer_wrappers
        tracer = Tracer()
        install_layer_wrappers(tracer)
    chunks = workloads.generate(args.rows, args.seed)
    n_ops = workloads.plan_size(args.workload, args.seconds)
    outcome = workloads.WORKLOADS[args.workload](
        chunks, args.seed, n_ops, tracer=tracer, corrupt=args.corrupt)
    for line in report_lines(args.workload, outcome):
        print(line)
    if tracer is not None:
        tracer.uninstall()
        metrics = per_layer(tracer, outcome)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir,
                             f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans)
        print(f"  {len(tracer.spans)} spans written to {spans}")
    else:
        metrics = end_to_end(outcome)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in outcome.problems[:20]:
        print(f"GATE: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
