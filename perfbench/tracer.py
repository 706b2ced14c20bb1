"""In-memory span recorder for the traced benchmark run.

Spans are opened around calls into each layer's public functions, from
the benchmark's own files: a function is wrapped at the name its caller
looks up at call time — a class attribute such as ``Cube.view``, or
every ``repro`` module global bound to a function such as
``build_view_designs`` (each importing module holds its own binding).
Nothing inside ``src/`` changes.

A span records its name, start, end, parent span, request id and self
time (its duration minus the time its same-thread child spans cover).
Garbage-collector pauses, reported through ``gc.callbacks``, become
``runtime.gc`` child spans of whatever span the collecting thread was
in, so no layer's self time includes them. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    self_s: float
    phase: str
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder with per-thread span stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._roots: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, rid: str | None = None,
              parent: int | None = None) -> None:
        """Open a span; the parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
            if rid is None:
                rid = stack[-1][2]
        # Frame: [id, name, rid, parent, start, child seconds, rows].
        stack.append([next(self._ids), name, rid, parent,
                      time.perf_counter(), 0.0, 0])

    def end(self, rows: int = 0) -> Span:
        end = time.perf_counter()
        stack = self._stack()
        sid, name, rid, parent, start, child, _ = stack.pop()
        span = Span(sid, name, start, end, parent, rid,
                    end - start - child, self.phase, rows)
        self.spans.append(span)
        if stack:
            stack[-1][5] += end - start
        return span

    def root(self, name: str, rid: str) -> None:
        """Open a per-operation root span that other threads can join."""
        self.begin(name, rid=rid)
        self._roots[rid] = self._stack()[-1][0]

    def root_of(self, rid: str | None) -> int | None:
        return None if rid is None else self._roots.get(rid)

    # -- wrapping --------------------------------------------------------------
    def _traced(self, name: str, fn, rows=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            n = 0
            try:
                if rows is not None:
                    n = rows(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.end(n)
        return traced

    def wrap_attr(self, owner: type, attr: str, name: str, rows=None) -> None:
        """Trace ``owner.attr`` (a function defined on the class)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self._traced(name, original, rows))
        self._patches.append((owner, attr, original))

    def wrap_global(self, fn, name: str, rows=None) -> None:
        """Trace every ``repro`` module global bound to ``fn``."""
        traced = self._traced(name, fn, rows)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{fn.__qualname__} is bound nowhere in repro")

    def wrap_dispatch(self, owner: type) -> None:
        """Trace ``ServerApp.dispatch``, joining the client's root span.

        The client sends its request id as a ``?rid=`` query, which the
        server's router strips; the span's parent is the client thread's
        root span for that id, so transport time is the root's duration
        minus this span's.
        """
        original = owner.__dict__["dispatch"]
        tracer = self

        @functools.wraps(original)
        def dispatch(app, method, path, body=None):
            rid = path.partition("?rid=")[2] or None
            tracer.begin("serving.dispatch", rid=rid,
                         parent=tracer.root_of(rid))
            try:
                return original(app, method, path, body)
            finally:
                tracer.end()
        owner.dispatch = dispatch
        self._patches.append((owner, "dispatch", original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.begin("runtime.gc")
        else:
            self.end()

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "rid": s.rid,
                    "self_s": s.self_s, "phase": s.phase,
                    "rows": s.rows}) + "\n")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are made from."""
    from repro import kernels
    from repro.core import ranker
    from repro.core.session import DrillSession, Reptile
    from repro.factorized import multiquery
    from repro.model import features
    from repro.model.multilevel import MultilevelModel
    from repro.relational import delta, shard
    from repro.relational.cube import Cube
    from repro.relational.relation import Relation
    from repro.serving import cache, engine, server
    from repro.serving.concurrency import (AdmissionController, BatchWindow,
                                           ReadWriteLock)

    def target_rows(args, kwargs) -> int:
        ys = args[2] if len(args) > 2 else kwargs["ys"]
        return sum(len(y) for y in ys)

    tracer.wrap_global(shard.dataset_from_chunks, "relational.encode")
    tracer.wrap_attr(Cube, "__init__", "relational.cube_build")
    tracer.wrap_global(cache.dataset_fingerprint, "serving.fingerprint")
    tracer.wrap_attr(Cube, "view", "relational.view")
    tracer.wrap_attr(Cube, "apply_delta", "relational.delta")
    tracer.wrap_attr(Relation, "with_rows_appended", "relational.rows")
    tracer.wrap_attr(Relation, "without_rows", "relational.rows")
    tracer.wrap_global(delta.locate_rows, "relational.rows")
    tracer.wrap_global(features.build_view_designs, "model.design")
    tracer.wrap_attr(MultilevelModel, "fit_predict_many", "model.fit",
                     rows=target_rows)
    tracer.wrap_attr(DrillSession, "recommend", "core.recommend")
    tracer.wrap_global(ranker.score_drilldown, "core.sweep")
    tracer.wrap_attr(Reptile, "apply_delta", "core.apply_delta")
    tracer.wrap_global(kernels.rank1_sweep, "kernels.rank1_sweep")
    tracer.wrap_global(kernels.group_codes, "kernels.group_codes")
    tracer.wrap_global(kernels.join_probe, "kernels.join_probe")
    tracer.wrap_global(multiquery.hierarchy_unit, "factorized.unit_build")
    tracer.wrap_global(multiquery.merge_unit_delta, "factorized.unit_build")
    tracer.wrap_dispatch(server.ServerApp)
    tracer.wrap_attr(BatchWindow, "run", "serving.batch_wait")
    tracer.wrap_attr(AdmissionController, "try_enter",
                     "serving.admission_wait")
    tracer.wrap_global(server.recommendation_payload, "serving.payload")
    tracer.wrap_attr(ReadWriteLock, "acquire_read", "serving.lock_wait")
    tracer.wrap_attr(ReadWriteLock, "acquire_write", "serving.lock_wait")
    tracer.wrap_global(engine.patch_cache_for_delta, "serving.patch")
    tracer.install_gc()


def span_metrics(tracer: Tracer, n_ops: int, n_setups: int,
                 self_ms: list[str], setup_ms: list[str]) -> dict:
    """Per-layer values from the recorded spans.

    ``self_ms`` layers: self time per timed operation. ``setup_ms``
    layers: inclusive time per set-up. Transport is each HTTP request's
    client-observed duration minus its ``serving.dispatch`` span; span
    coverage is the share of the operations' wall time that their
    direct child spans (any thread) cover.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    setup_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    timed = [s for s in tracer.spans if s.phase == "timed"]
    roots = {s.id: s for s in timed if s.name.startswith("op.")}
    covered = {sid: 0.0 for sid in roots}
    dispatched = {sid: 0.0 for sid in roots}
    for s in tracer.spans:
        if s.phase == "setup" and s.name in setup_ms:
            setup_s[s.name] = setup_s.get(s.name, 0.0) + s.duration
    for s in timed:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.rows
        if s.parent in covered:
            covered[s.parent] += s.duration
            if s.name == "serving.dispatch":
                dispatched[s.parent] += s.duration
    per_op = 1e3 / max(n_ops, 1)
    out = {f"{n}_ms": self_s.get(n, 0.0) * per_op for n in self_ms}
    out.update({f"{n}_ms": setup_s.get(n, 0.0) * 1e3 / max(n_setups, 1)
                for n in setup_ms})
    transport = sum(r.duration - dispatched[sid]
                    for sid, r in roots.items() if dispatched[sid])
    wall = sum(r.duration for r in roots.values())
    out.update({
        "core.recommend_ms": inclusive.get("core.recommend", 0.0) * per_op,
        "serving.transport_ms": transport * per_op,
        "relational.view_calls": calls.get("relational.view", 0),
        "model.fit_calls": calls.get("model.fit", 0),
        "model.fit_rows": rows.get("model.fit", 0),
        "factorized.unit_builds": calls.get("factorized.unit_build", 0),
        "runtime.gc_collections": calls.get("runtime.gc", 0),
        "trace.span_coverage": sum(covered.values()) / wall if wall else 0.0,
    })
    return out
