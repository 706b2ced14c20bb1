"""Command-line interface: paper experiments plus the batch server.

Usage::

    python -m repro list                  # available commands
    python -m repro covid                 # Figure 13 + Tables 1-2
    python -m repro fist                  # §5.4 user study
    python -m repro accuracy --rho 0.8    # one Figure 11 sweep row
    python -m repro aic                   # Figure 16
    python -m repro vote                  # Figure 18
    python -m repro endtoend --rows 20000 # Figure 10 (reduced rows)
    python -m repro perf                  # Figure 7 matrix-op ratios
    python -m repro serve                 # cached batch serving demo
    python -m repro serve --batch b.json --csv data.csv \\
        --hierarchy geo=district,village --hierarchy time=year \\
        --measure severity

Each experiment command prints the same series the corresponding
benchmark records; ``serve`` answers a batch of complaints through the
:class:`~repro.serving.service.ExplanationService` and reports cache hit
rates and per-stage timings. See docs/cli.md for the full reference.
"""

from __future__ import annotations

import argparse
import json
import sys

from .relational.delta import DeltaError
from .serving.server import (RequestError, parse_complaint_spec,
                             parse_delta_rows)


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from .datagen.errors import CONDITIONS
    from .experiments.accuracy import run_condition
    approaches = ("reptile", "raw", "sensitivity", "support")
    print(f"rho={args.rho}, {args.trials} trials per condition")
    print("condition                     " +
          "  ".join(f"{a:>11s}" for a in approaches))
    for condition in CONDITIONS:
        res = run_condition(condition, args.rho, n_trials=args.trials,
                            seed=args.seed, n_iterations=args.iterations)
        print(f"{condition:<29s} " +
              "  ".join(f"{res.accuracy[a]:>11.2f}" for a in approaches))
    return 0


def _cmd_covid(args: argparse.Namespace) -> int:
    from .experiments.covid import run_case_study
    summary = run_case_study(seed=args.seed, n_iterations=args.iterations)
    for approach in ("reptile", "sensitivity", "support"):
        print(f"{approach:<13s} accuracy {summary.accuracy(approach):.3f}")
    print(f"mean runtime {summary.mean_runtime():.3f}s")
    for issue_id, description, rp, st_, sp in summary.table_rows():
        marks = "".join("x" if hit else "." for hit in (rp, st_, sp))
        print(f"  {issue_id:<6s} {description:<45s} {marks}")
    return 0


def _cmd_fist(args: argparse.Namespace) -> int:
    from .experiments.fist import run_study
    summary = run_study(seed=args.seed, n_iterations=args.iterations)
    print(f"resolved {summary.n_resolved}/{summary.n_complaints} "
          f"(paper: 20/22); agreement "
          f"{summary.agreement_with_paper():.2f}")
    for r in summary.results:
        s = r.scenario
        print(f"  #{s.scenario_id:<3d} {s.kind.value:<22s} "
              f"gt={s.district} top={r.top_district} resolved={r.resolved}")
    return 0


def _cmd_aic(args: argparse.Namespace) -> int:
    from .experiments.model_quality import MODEL_NAMES, run_all
    results = run_all(seed=args.seed, n_iterations=args.iterations)
    print("dataset  " + "  ".join(f"{m:>13s}" for m in MODEL_NAMES))
    for name, r in results.items():
        print(f"{name:<8s} " + "  ".join(f"{r.deltas[m]:>13.1f}"
                                         for m in MODEL_NAMES))
    return 0


def _cmd_vote(args: argparse.Namespace) -> int:
    from .experiments.vote import run_study
    study = run_study(seed=args.seed, n_iterations=args.iterations)
    print(f"model1 top-5: {study.model1.top()}")
    print(f"model2 top-5: {study.model2.top()}")
    print(f"corr(model2 gain, -swing) = "
          f"{study.gain_swing_correlation():.3f}")
    return 0


def _cmd_endtoend(args: argparse.Namespace) -> int:
    from .experiments.endtoend import run_absentee, run_compas
    for name, runner in (("absentee", run_absentee), ("compas", run_compas)):
        result = runner(n_rows=args.rows, n_iterations=args.iterations)
        print(f"{name}: factorized {result.total_factorized:.2f}s, "
              f"matlab-style {result.total_matlab:.2f}s, "
              f"speedup {result.overall_speedup:.1f}x")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from .experiments.perf import sweep_matrix_ops
    print("d  rows     gram-ratio  left-ratio  right-ratio  mat-ratio")
    for t in sweep_matrix_ops(max_hierarchies=args.hierarchies):
        print(f"{t.n_hierarchies}  {t.n_rows:<8d} "
              f"{t.gram_dense / max(t.gram_factorized, 1e-12):>9.1f} "
              f"{t.left_dense / max(t.left_factorized, 1e-12):>10.1f} "
              f"{t.right_dense / max(t.right_factorized, 1e-12):>11.1f} "
              f"{t.materialize_dense / max(t.materialize_factorized, 1e-12):>10.1f}")
    return 0


# -- batch serving -----------------------------------------------------------------
def _demo_dataset(seed: int = 0):
    """The quickstart drought dataset: a planted error in Zata's 1986."""
    import numpy as np

    from .relational.dataset import HierarchicalDataset
    from .relational.relation import Relation
    from .relational.schema import Schema, dimension, measure

    rng = np.random.default_rng(seed)
    villages = {"Ofla": ["Adishim", "Darube", "Dinka", "Fala", "Zata"],
                "Alaje": ["Bora", "Chelena", "Dela", "Emba"]}
    rows = []
    for district, names in villages.items():
        for village in names:
            for year in range(1984, 1990):
                drought = 3.0 if year == 1986 else 0.0
                level = 5.0 + drought + rng.normal(0, 0.3)
                for _ in range(int(rng.integers(6, 12))):
                    severity = float(np.clip(level + rng.normal(0, 0.8),
                                             1, 10))
                    if village == "Zata" and year == 1986:
                        severity = max(1.0, severity - 4.0)
                    rows.append((district, village, year, severity))
    schema = Schema([dimension("district"), dimension("village"),
                     dimension("year"), measure("severity")])
    relation = Relation.from_rows(schema, rows)
    return HierarchicalDataset.build(
        relation, {"geo": ["district", "village"], "time": ["year"]},
        measure="severity")


def _demo_batch() -> list[dict]:
    """Complaints against the demo dataset; two share a view."""
    return [
        {"aggregate": "mean", "direction": "too_low",
         "coordinates": {"year": 1986},
         "group_by": ["year"], "filters": {"district": "Ofla"}},
        {"aggregate": "std", "direction": "too_high",
         "coordinates": {"year": 1986},
         "group_by": ["year"], "filters": {"district": "Ofla"}},
        {"aggregate": "mean", "direction": "too_low",
         "coordinates": {"year": 1986},
         "group_by": ["year"], "filters": {"district": "Alaje"}},
    ]


def _load_csv_dataset(args: argparse.Namespace):
    from .relational.dataset import HierarchicalDataset
    from .relational.relation import Relation
    from .relational.schema import Schema, dimension, measure

    hierarchies: dict[str, list[str]] = {}
    for spec in args.hierarchy or ():
        name, _, attrs = spec.partition("=")
        if not attrs:
            raise SystemExit(f"{args.command}: bad --hierarchy {spec!r} "
                             f"(want name=attr1,attr2)")
        hierarchies[name] = attrs.split(",")
    if not hierarchies or not args.measure:
        raise SystemExit(f"{args.command}: --csv needs --hierarchy and "
                         f"--measure")
    names = [a for attrs in hierarchies.values() for a in attrs]
    schema = Schema([dimension(a) for a in names] + [measure(args.measure)])
    try:
        relation = Relation.from_csv(args.csv, schema)
        return HierarchicalDataset.build(relation, hierarchies, args.measure)
    except (OSError, ValueError) as exc:  # SchemaError, DatasetError too
        raise SystemExit(f"{args.command}: cannot load {args.csv}: {exc}")


def _read_json_list(args: argparse.Namespace, path: str, what: str) -> list:
    """The JSON list in a ``--batch``/``--rows``/``--retract`` file."""
    try:
        with open(path) as f:
            specs = json.load(f)
    except OSError as exc:
        raise SystemExit(f"{args.command}: cannot read {what} file: {exc}")
    except ValueError as exc:  # not JSON, or not text
        raise SystemExit(f"{args.command}: {what} file is not valid JSON: "
                         f"{exc}")
    if not isinstance(specs, list):
        raise SystemExit(f"{args.command}: {what} file must hold a JSON list")
    return specs


def _serving_setup(args: argparse.Namespace):
    """The dataset (``--csv`` or the demo) registered as ``data`` on a
    service configured from the command's options."""
    from .core.session import ReptileConfig
    from .serving.service import ExplanationService

    max_entries = getattr(args, "cache_entries", 4096)  # ingest has none
    for option, value in (("--cache-entries", max_entries), ("--k", args.k)):
        if value < 1:
            raise SystemExit(f"{args.command}: {option} must be >= 1")
    if args.csv:
        dataset = _load_csv_dataset(args)
    elif args.hierarchy or args.measure:
        raise SystemExit(f"{args.command}: --hierarchy/--measure only apply "
                         f"with --csv (no dataset file was given)")
    else:
        dataset = _demo_dataset(seed=args.seed)
    service = ExplanationService(
        max_entries=max_entries,
        config=ReptileConfig(n_em_iterations=args.iterations, top_k=args.k))
    service.register("data", dataset)
    print(f"{dataset!r}")
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    specs = _read_json_list(args, args.batch, "batch") if args.batch \
        else _demo_batch()
    requests = [parse_complaint_spec(spec) for spec in specs]
    service = _serving_setup(args)
    print(f"batch: {len(requests)} complaints")

    for run in range(args.repeat):
        result = service.submit_batch("data", requests)
        label = "cold" if run == 0 else "warm"
        print(f"\npass {run + 1} ({label}): {result.total_seconds:.3f}s "
              f"over {result.n_views} distinct view(s)")
        if run == 0:
            for item in result.items:
                if item.error is not None:
                    print(f"  {item.request.complaint} -> error: "
                          f"{item.error}")
                    continue
                best = item.recommendation.best_group
                if best is None:
                    print(f"  {item.request.complaint} -> no drill-down "
                          f"groups match these coordinates")
                    continue
                print(f"  {item.request.complaint} -> drill "
                      f"{item.recommendation.best_hierarchy!r}, "
                      f"best group {dict(best.coordinates)} "
                      f"(margin gain {best.margin_gain:.3f})")

    stats = service.stats()
    cache = stats["cache"]
    print(f"\ncache: {cache['entries']} entries, "
          f"{cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.2f}), "
          f"{cache['evictions']} evictions")
    for kind, timing in sorted(stats["stages"].items()):
        print(f"  stage {kind:<9s} {timing['computations']:>4d} "
              f"computations  {timing['seconds']:.3f}s")
    rec = stats["recommend"]
    print(f"  recommend       {rec['count']:>4d} requests      "
          f"{rec['seconds']:.3f}s")
    return 0


def _demo_delta() -> list[dict]:
    """Appends for the demo dataset: fresh severe drought reports from a
    village the base data has never seen."""
    return [{"district": "Ofla", "village": "Mehoni", "year": 1986,
             "severity": 2.0} for _ in range(4)]


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from .core.complaint import Complaint

    service = _serving_setup(args)
    if args.csv and not args.rows:
        raise SystemExit("ingest: --csv needs --rows FILE")
    engine = service.engine("data")
    schema, measure = engine.dataset.relation.schema, engine.dataset.measure
    appended = parse_delta_rows(
        _read_json_list(args, args.rows, "rows") if args.rows
        else _demo_delta(), schema, measure)
    retracted = parse_delta_rows(
        _read_json_list(args, args.retract, "retract") if args.retract
        else None, schema, measure)

    # Warm the serving state the way a live dashboard would: an open
    # session with a recommendation in flight.
    sid = None
    if not args.csv:
        sid = service.open_session("data", group_by=["year"],
                                   filters={"district": "Ofla"})
        service.recommend(sid, Complaint.too_low({"year": 1986}, "mean"))

    start = time.perf_counter()
    info = service.ingest("data", appended, retract=retracted)
    elapsed = time.perf_counter() - start
    print(f"ingested +{info['appended']} -{info['retracted']} rows in "
          f"{elapsed:.4f}s -> data version {info['version']}")
    print(f"cache: {info['cache_patched']} entries patched in place, "
          f"{info['cache_retained']} retained, "
          f"{len(service.cache)} total")
    print(f"relation now holds {len(engine.dataset.relation)} rows")

    if sid is not None:
        session = service.session(sid)
        session.sync()  # a no-op here: auto-sync sessions fast-forward
        rec = service.recommend(sid, Complaint.too_low({"year": 1986},
                                                       "mean"))
        best = rec.best_group
        if best is None:
            print("post-ingest recommendation: no matching groups")
        else:
            print(f"post-ingest recommendation: drill "
                  f"{rec.best_hierarchy!r}, best group "
                  f"{dict(best.coordinates)} "
                  f"(margin gain {best.margin_gain:.3f})")
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import time

    from .serving.server import ServerApp, ReptileHTTPServer

    app = ServerApp(_serving_setup(args), max_concurrent=args.workers,
                    max_queue=args.queue,
                    request_timeout=args.request_timeout)
    server = ReptileHTTPServer((args.host, args.port), app)
    host, port = server.server_address[:2]
    print(f"serving dataset 'data' on http://{host}:{port} "
          f"({args.workers} workers, queue {args.queue})")
    print("try:")
    print(f"  curl http://{host}:{port}/healthz")
    print(f"  curl -X POST http://{host}:{port}/datasets/data/recommend "
          f"-d '{{\"aggregate\": \"mean\", \"direction\": \"too_low\", "
          f"\"coordinates\": {{\"year\": 1986}}, "
          f"\"group_by\": [\"year\"]}}'")
    print("Ctrl-C drains in-flight requests and exits.")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining...")
        start = time.perf_counter()
        drained = server.shutdown_gracefully(timeout=args.drain_timeout)
        verb = "drained" if drained else "gave up draining"
        print(f"{verb} after {time.perf_counter() - start:.2f}s")
        stats = app.stats_payload()
        for endpoint, row in sorted(stats["endpoints"].items()):
            print(f"  {endpoint:<16s} {row['count']:>6d} requests  "
                  f"p50 {row['p50_seconds'] * 1000:.1f}ms  "
                  f"p99 {row['p99_seconds'] * 1000:.1f}ms")
        cache = stats["cache"]
        print(f"  cache hit rate {cache['hit_rate']:.2f}, "
              f"batch collapse ratio "
              f"{stats['batching']['collapse_ratio']:.2f}")
    return 0


COMMANDS = {
    "accuracy": (_cmd_accuracy, "Figure 11 synthetic-accuracy sweep"),
    "covid": (_cmd_covid, "Figure 13 + Tables 1-2 COVID case study"),
    "fist": (_cmd_fist, "§5.4 FIST user-study replay"),
    "aic": (_cmd_aic, "Figure 16 model-quality ΔAIC"),
    "vote": (_cmd_vote, "Figure 18 vote case study"),
    "endtoend": (_cmd_endtoend, "Figure 10 end-to-end runtime"),
    "perf": (_cmd_perf, "Figure 7 matrix-operation ratios"),
    "serve": (_cmd_serve, "answer a complaint batch via the caching service"),
    "serve-http": (_cmd_serve_http,
                   "serve explanation queries over a concurrent HTTP API"),
    "ingest": (_cmd_ingest,
               "apply an append/retract delta without a full rebuild"),
}

EPILOGS = {
    "accuracy": """\
Replays the §5.2.1 synthetic sweep: for each error condition, plants an
error, complains about the affected group, and scores how often each
approach ranks the planted group first. Prints one row per condition with
per-approach accuracy at the chosen correlation strength --rho.

example:
  python -m repro accuracy --rho 0.8 --trials 20""",
    "covid": """\
Runs the Figure 13 / Tables 1-2 COVID case study: replays the recorded
data issues, reports per-approach accuracy, mean runtime, and an x/. grid
of which approach surfaced each issue.

example:
  python -m repro covid --iterations 10""",
    "fist": """\
Replays the §5.4 FIST user-study scenarios: each scenario's complaint is
submitted and the top-ranked district is compared with the ground truth,
printing per-scenario resolution and overall agreement with the paper.

example:
  python -m repro fist""",
    "aic": """\
Figure 16 model quality: fits each candidate model family per dataset and
prints ΔAIC versus the best (lower is better, 0 marks the winner).

example:
  python -m repro aic --iterations 10""",
    "vote": """\
Figure 18 vote case study: two model configurations rank precincts; also
prints the correlation between model-2 margin gains and vote swing.

example:
  python -m repro vote""",
    "endtoend": """\
Figure 10 end-to-end runtime on the absentee and compas workloads:
factorized versus materialised Matlab-style training, with the overall
speedup. --rows subsamples for a quicker run.

example:
  python -m repro endtoend --rows 20000""",
    "perf": """\
Figure 7 matrix-operation cost ratios (dense / factorized) for gram,
left-multiply, right-multiply and materialize while sweeping the number
of one-attribute hierarchies up to --hierarchies.

example:
  python -m repro perf --hierarchies 4""",
    "serve": """\
Answers a batch of independent complaints through the serving layer:
complaints sharing a (group-by, filters) view are answered from one
shared roll-up + model-fit pass, and every pass after the first is served
warm from the aggregate cache. Prints per-complaint recommendations, then
cache hit rate and per-stage timings. With no --csv/--batch a built-in
demo dataset (the quickstart drought survey) and batch are used.

batch JSON: a list of objects with keys (the request grammar of
docs/cli.md, shared with POST /datasets/{d}/recommend)
  aggregate    count | sum | mean | std | var
  direction    too_low | too_high | should_be  (should_be needs "target",
               a finite number)
  coordinates  {attr: value} identifying the complained tuple
  group_by     view group-by attributes (optional)
  filters      view filters (optional)
  k            per-request top-k override, a positive integer (optional)
A malformed entry exits with status 1 and one line, "serve: <reason>".

examples:
  python -m repro serve --repeat 2
  python -m repro serve --batch batch.json --csv survey.csv \\
      --hierarchy geo=district,village --hierarchy time=year \\
      --measure severity""",
    "serve-http": """\
Starts a threaded HTTP/JSON server over the explanation service: many
sessions across many datasets run concurrently under per-dataset
reader/writer locks (queries share a read lock and see one data version
per response; ingest takes the exclusive write lock), same-view one-shot
recommends that arrive while one is computing share its next pass,
and a bounded worker pool + queue answers overload with 429/503 +
Retry-After. GET /stats reports per-endpoint p50/p99 latency, cache hit
rate and the batch collapse ratio. Ctrl-C drains in-flight requests
before exiting. With no --csv the built-in demo drought dataset is
registered as 'data'.

endpoints:
  GET  /healthz, /stats, /datasets, /datasets/{d}
  POST /datasets/{d}/sessions            open a session
  POST /datasets/{d}/recommend           one-shot complaint (batched)
  POST /datasets/{d}/ingest              append/retract rows
  POST /datasets/{d}/refresh             rebuild from the committed relation
  GET  /sessions/{s}[/view]              session info / current view
  POST /sessions/{s}/recommend|drill|sync|close

examples:
  python -m repro serve-http --port 8080 --workers 8
  curl -X POST localhost:8080/datasets/data/recommend \\
      -d '{"aggregate": "mean", "direction": "too_low",
           "coordinates": {"year": 1986}, "group_by": ["year"],
           "filters": {"district": "Ofla"}}'""",
    "ingest": """\
Applies an append/retract delta through the incremental delta-update
engine: the relation extends its encoded columns, the cube merges a
bincount of just the delta batch and checks the hierarchy FDs on the
merged leaf keys, and cached aggregates are patched or retained under
a new lineage fingerprint — no full rebuild, no wholesale cache
invalidation. Open sessions fast-forward to the new data version.
Prints the ingest timing, the cache patch counters, and (for the demo
dataset) a post-ingest recommendation.

rows JSON: a list of rows, each either an object keyed by column name
  {"district": "Ofla", "village": "Mehoni", "year": 1986,
   "severity": 2.0}
or a list in schema order. --retract takes the same format; each
retracted row must match an existing row on every column. A malformed
row or a delta the data refuses exits with status 1 and one line,
"ingest: <reason>".

examples:
  python -m repro ingest
  python -m repro ingest --rows new_rows.json --retract corrections.json \\
      --csv survey.csv --hierarchy geo=district,village \\
      --hierarchy time=year --measure severity""",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reptile reproduction experiment runner and server")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available commands")
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(
            name, help=help_text, description=help_text,
            epilog=EPILOGS.get(name),  # tolerate a command with no epilog
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        p.add_argument("--iterations", type=int, default=10,
                       help="EM iterations (default 10)")
        if name == "accuracy":
            p.add_argument("--rho", type=float, default=0.8,
                           help="auxiliary correlation strength")
            p.add_argument("--trials", type=int, default=20,
                           help="trials per condition")
        if name == "endtoend":
            p.add_argument("--rows", type=int, default=20000,
                           help="rows per workload")
        if name == "perf":
            p.add_argument("--hierarchies", type=int, default=4,
                           help="max hierarchies to sweep to")
        if name == "serve":
            p.add_argument("--batch", metavar="FILE",
                           help="JSON batch file (default: demo batch)")
        if name in ("serve", "serve-http", "ingest"):
            p.add_argument("--csv", metavar="FILE",
                           help="CSV dataset (default: demo dataset)")
            p.add_argument("--hierarchy", action="append", metavar="NAME=A,B",
                           help="hierarchy spec for --csv (repeatable)")
            p.add_argument("--measure", help="measure column for --csv")
            p.add_argument("--k", type=int, default=5,
                           help="top groups per recommendation")
        if name == "serve":
            p.add_argument("--repeat", type=int, default=1,
                           help="serve the batch N times (warm passes "
                                "show the cache, default 1)")
        if name in ("serve", "serve-http"):
            p.add_argument("--cache-entries", type=int, default=4096,
                           help="aggregate-cache capacity")
        if name == "serve-http":
            p.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
            p.add_argument("--port", type=int, default=8080,
                           help="bind port, 0 picks a free one "
                                "(default 8080)")
            p.add_argument("--workers", type=int, default=8,
                           help="max concurrently executing requests")
            p.add_argument("--queue", type=int, default=64,
                           help="max requests waiting for a worker")
            p.add_argument("--drain-timeout", type=float, default=10.0,
                           metavar="SECONDS",
                           help="graceful-shutdown drain budget")
            p.add_argument("--request-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-request deadline for read endpoints; "
                                "over-deadline requests get 503 + "
                                "retry_after (default: no deadline)")
        if name == "ingest":
            p.add_argument("--rows", metavar="FILE",
                           help="JSON rows to append (default: demo delta)")
            p.add_argument("--retract", metavar="FILE",
                           help="JSON rows to retract")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        for name, (_, help_text) in COMMANDS.items():
            print(f"{name:<10s} {help_text}")
        return 0
    handler, _ = COMMANDS[args.command]
    try:
        return handler(args)
    except (RequestError, DeltaError) as exc:
        # Malformed input (a batch entry, a row, a delta the data
        # refuses) is the user's to fix: one line and exit status 1.
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
