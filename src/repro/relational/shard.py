"""Chunked construction and the out-of-core spill build.

Every Reptile aggregate is distributive, so an in-memory relation's leaf
block is one vectorized pass (:class:`~repro.relational.cube.Cube`). This
module covers the inputs that never exist as one in-memory image:

* :func:`dataset_from_chunks` streams ``{column: array}`` chunks into a
  dataset: each chunk is factorized independently and the per-chunk
  domains are unioned with :meth:`DictEncoding.merge`, so the
  coordinator holds ``int32`` codes plus the measure, never a
  value-object image;
* :func:`spill_build_from_chunks` never builds the relation at all: rows
  are routed by a **hierarchy-prefix partition key** (by default the
  root attribute of the first hierarchy) into per-shard on-disk column
  files. The partition attribute is part of every leaf key, so each
  leaf group lives wholly in one shard — per-shard ``np.bincount``
  accumulates the same values in the same row order as the one-pass
  build, making per-group stats bitwise identical. Shards are built one
  at a time in-process or by the supervised :class:`ShardWorkerPool`
  over read-only memory maps, and the small per-shard
  ``(key_codes, GroupStats)`` blocks fold together through
  :func:`~repro.relational.cube.merge_stats_blocks`; a final
  ``np.lexsort`` restores the exact key order of the one-pass build.
"""

from __future__ import annotations

import atexit
import glob
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..robustness.faultinject import fault_point
from .aggregates import GroupStats
from .cube import merge_stats_blocks
from .dataset import HierarchicalDataset
from .encoding import DictEncoding, combine_codes, factorize
from .relation import Relation
from .schema import Schema, dimension, measure as measure_attr


class ShardError(ValueError):
    """Raised for invalid shard configuration (bad counts, non-leaf
    partition attribute, mismatched block layouts)."""


# ---------------------------------------------------------------------------
# Spilled column blocks


@dataclass(frozen=True)
class BlockHandle:
    """A picklable reference to one spilled shard block.

    ``name`` is the path prefix of the block's files (one streamed file
    per array, written by :class:`ShardSpillWriter`); ``kind`` is
    ``"spill"``. ``layout`` lists ``(name, dtype_str, length)`` per array.
    """

    kind: str
    name: str
    layout: tuple[tuple[str, str, int], ...]


def _spill_path(prefix: str, array_name: str) -> str:
    return f"{prefix}.{array_name}.bin"


# Every spilled block is registered here until its owner releases it. A
# worker crash cannot leak silently: the name stays in the registry,
# tests assert it empty after recovery, and the atexit sweep unlinks
# stragglers eagerly instead of leaving spill files behind.
_SEGMENTS_LOCK = threading.Lock()
_LIVE_SEGMENTS: dict[str, str] = {}  # block name -> kind


def _register_segment(handle: BlockHandle) -> None:
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS[handle.name] = handle.kind


def _unregister_segment(handle: BlockHandle) -> None:
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS.pop(handle.name, None)


def leaked_segments() -> list[tuple[str, str]]:
    """``(name, kind)`` of every spilled-but-unreleased block."""
    with _SEGMENTS_LOCK:
        return sorted(_LIVE_SEGMENTS.items())


def purge_leaked_segments() -> list[str]:
    """Unlink every registered block still alive; returns their names.

    Only safe when no build is in flight (shutdown, test teardown): a
    healthy build's blocks are registered too, between spill and
    release.
    """
    purged: list[str] = []
    for name, _ in leaked_segments():
        for path in glob.glob(name + ".*.bin"):
            try:
                os.unlink(path)
            except OSError:
                pass
        with _SEGMENTS_LOCK:
            _LIVE_SEGMENTS.pop(name, None)
        purged.append(name)
    return purged


def _map_spill(handle: BlockHandle) -> dict[str, np.ndarray]:
    """Read-only memory maps of a spilled block's files."""
    views: dict[str, np.ndarray] = {}
    for name, dtype, length in handle.layout:
        if length:
            views[name] = np.memmap(_spill_path(handle.name, name),
                                    dtype=dtype, mode="r", shape=(length,))
        else:
            # An empty file cannot be memory-mapped; an empty shard's
            # columns are plain empty arrays.
            views[name] = np.empty(0, dtype=dtype)
    return views


class SharedCodes:
    """Named 1-D arrays of one spilled shard block.

    :meth:`ShardSpillWriter.finish` returns the owner blocks; workers
    ``attach()`` by handle and see zero-copy memory maps. The owner's
    ``release()`` unlinks the files.
    """

    def __init__(self, handle: BlockHandle, arrays: dict[str, np.ndarray],
                 owner: bool = False):
        self.handle = handle
        self.arrays: dict[str, np.ndarray] | None = arrays
        self._owner = owner

    @classmethod
    def attach(cls, handle: BlockHandle) -> "SharedCodes":
        fault_point("shm.attach", name=handle.name, kind=handle.kind)
        return cls(handle, _map_spill(handle))

    def release(self) -> None:
        """Drop the views; the owner also unlinks the files."""
        self.arrays = None
        if self._owner:
            for name, _, length in self.handle.layout:
                if length:
                    try:
                        os.unlink(_spill_path(self.handle.name, name))
                    except OSError:
                        pass
            _unregister_segment(self.handle)
            self._owner = False


class ShardSpillWriter:
    """Stream rows into per-shard on-disk column files (the spill tier).

    ``append(shard, arrays)`` appends each named array to that shard's
    per-column file, preserving append order — callers feed rows in
    global row order, so each shard's columns come out exactly as the
    in-memory ``codes[shard_rows]`` gather would produce them. The
    coordinator's resident cost is one chunk, never a shard image.

    ``finish()`` returns one owner :class:`SharedCodes` per shard over
    read-only memory maps of the files. The blocks are registered until
    released (or :func:`purge_leaked_segments`); :meth:`discard` is the
    failure path that removes every file before ``finish()``.
    """

    def __init__(self, directory: str, n_shards: int):
        if n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {n_shards}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.n_shards = int(n_shards)
        fd, marker = tempfile.mkstemp(prefix="repro-spill-", suffix=".dir",
                                      dir=directory)
        os.close(fd)
        os.unlink(marker)
        self._prefix = marker[:-len(".dir")]
        self._files: dict[tuple[int, str], object] = {}
        self._meta: list[dict[str, tuple[str, int]]] = [
            {} for _ in range(self.n_shards)]
        self._finished = False

    def _shard_prefix(self, shard: int) -> str:
        return f"{self._prefix}-s{shard}"

    def append(self, shard: int, arrays: Mapping[str, np.ndarray]) -> None:
        if self._finished:
            raise ShardError("spill writer already finished")
        if not 0 <= shard < self.n_shards:
            raise ShardError(f"shard {shard} out of range")
        meta = self._meta[shard]
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            dtype_str, length = meta.get(name, (arr.dtype.str, 0))
            if dtype_str != arr.dtype.str:
                raise ShardError(
                    f"spill column {name!r} changed dtype from {dtype_str} "
                    f"to {arr.dtype.str}")
            f = self._files.get((shard, name))
            if f is None:
                f = self._files[(shard, name)] = open(
                    _spill_path(self._shard_prefix(shard), name), "wb")
            arr.tofile(f)
            meta[name] = (dtype_str, length + len(arr))

    def finish(self) -> list[SharedCodes]:
        """Close the files; one owner :class:`SharedCodes` per shard."""
        if self._finished:
            raise ShardError("spill writer already finished")
        self._finished = True
        for f in self._files.values():
            f.close()
        blocks: list[SharedCodes] = []
        for shard, meta in enumerate(self._meta):
            layout = tuple((name, dtype_str, length)
                           for name, (dtype_str, length) in meta.items())
            handle = BlockHandle("spill", self._shard_prefix(shard), layout)
            _register_segment(handle)
            blocks.append(SharedCodes(handle, _map_spill(handle),
                                      owner=True))
        return blocks

    def discard(self) -> None:
        """Close and unlink every file this writer opened.

        The failure path of a stream that raised before its blocks were
        handed out: nothing is left on disk or in the leak registry.
        """
        self._finished = True
        for (shard, name), f in self._files.items():
            f.close()
            try:
                os.unlink(_spill_path(self._shard_prefix(shard), name))
            except OSError:
                pass
        self._files.clear()
        with _SEGMENTS_LOCK:
            for shard in range(self.n_shards):
                _LIVE_SEGMENTS.pop(self._shard_prefix(shard), None)


# ---------------------------------------------------------------------------
# Per-shard build kernel (runs in workers and in the serial fallback)


def _build_block_arrays(code_columns: Sequence[np.ndarray],
                        measure_values: np.ndarray, sizes: Sequence[int]
                        ) -> tuple[np.ndarray, GroupStats, float]:
    """One shard's leaf block: the exact single-process kernel on a slice.

    Uses the same ``combine_codes`` + ``GroupStats.from_groups`` pair as
    ``Cube._build`` so per-group results are bitwise identical to the
    global pass restricted to this shard's rows.
    """
    t0 = time.perf_counter()
    gids, key_codes = combine_codes(list(code_columns), list(sizes),
                                    len(measure_values))
    stats = GroupStats.from_groups(gids, len(key_codes), measure_values)
    return key_codes, stats, time.perf_counter() - t0


def _worker_build(handle: BlockHandle, k: int, sizes: Sequence[int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             float, int]:
    """Worker entry: attach, aggregate, detach. Returns plain arrays."""
    fault_point("worker.build", block=handle.name)
    block = SharedCodes.attach(handle)
    try:
        arrays = block.arrays
        cols = [arrays[f"c{j}"] for j in range(k)]
        key_codes, stats, busy = _build_block_arrays(cols, arrays["m"], sizes)
        del cols, arrays
        return (key_codes, stats.count, stats.total, stats.sumsq, busy,
                os.getpid())
    finally:
        block.release()


# ---------------------------------------------------------------------------
# Persistent worker pool


class PoolFailure(RuntimeError):
    """The supervised pool exhausted its retry budget.

    Carries the per-attempt failure history so the serial fallback record
    in ``timings["fallback"]`` says *why* the pool gave up.
    """

    def __init__(self, message: str, failures: Sequence[str] = ()):
        super().__init__(message)
        self.failures = list(failures)


class ShardWorkerPool:
    """A supervised, lazily-started, reusable process pool for shard builds.

    Kept alive across builds (via :func:`worker_pool`) so repeated
    builds pay process start-up once. On top of the bare
    executor it supervises every task (the chaos suite drives each path
    through :mod:`repro.robustness`):

    * **per-task deadline** — ``task_timeout`` seconds per result wait; a
      stuck worker is terminated and its task retried instead of hanging
      the coordinator forever;
    * **crash detection** — an abruptly dead worker (segfault, OOM kill,
      injected ``os._exit``) surfaces as ``BrokenProcessPool``; the
      executor is torn down and respawned with capped exponential backoff
      (``backoff_base * 2**attempt``, capped at ``backoff_cap``);
    * **retry budget** — shard builds are pure functions of the spilled
      blocks, so resubmitting a failed task is always safe; after
      ``retry_budget`` extra rounds :class:`PoolFailure` propagates and
      :func:`spill_build_from_chunks` falls back to its bitwise-identical
      serial loop;
    * **partial-result salvage** — results collected before a crash are
      kept; only the failed tasks re-run.
    """

    def __init__(self, workers: int, *, task_timeout: float | None = None,
                 retry_budget: int = 2, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0):
        if workers < 1:
            raise ShardError(f"worker pool needs >= 1 worker, got {workers}")
        if retry_budget < 0:
            raise ShardError(f"retry budget must be >= 0, got {retry_budget}")
        self.workers = int(workers)
        self.task_timeout = task_timeout
        self.retry_budget = int(retry_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.respawns = 0
        self.retried_tasks = 0
        self.tasks_ok = 0
        self.task_failures = 0
        self.last_error: str | None = None
        self.leaked_at_shutdown: list[str] = []
        self._executor: ProcessPoolExecutor | None = None
        self._sleep = time.sleep  # injectable: chaos tests skip real waits

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def alive(self) -> bool:
        """True when an executor exists and is not broken."""
        executor = self._executor
        return executor is not None and not getattr(executor, "_broken",
                                                    False)

    def _respawn(self) -> None:
        """Tear the executor down hard; the next round starts fresh.

        ``shutdown(wait=False)`` alone leaves a deadline-overrunning
        worker running, so live processes are terminated first.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self.respawns += 1

    def run_tasks(self, fn, argtuples: Iterable[tuple], *,
                  timeout: float | None = None) -> list:
        """Run ``fn(*args)`` for each tuple; results in submission order.

        Pure-task contract: ``fn`` must be safe to re-execute, because
        failed tasks are retried on a respawned pool.
        """
        args = list(argtuples)
        timeout = self.task_timeout if timeout is None else timeout
        results: list = [None] * len(args)
        pending = list(range(len(args)))
        failures: list[str] = []
        for attempt in range(self.retry_budget + 1):
            if not pending:
                break
            if attempt:
                self._sleep(min(self.backoff_cap,
                                self.backoff_base * 2 ** (attempt - 1)))
            broken = False
            futures: dict[int, object] = {}
            try:
                executor = self._ensure()
                for i in pending:
                    fault_point("pool.submit", task=i, attempt=attempt)
                    futures[i] = executor.submit(fn, *args[i])
            except Exception as exc:
                failures.append(f"submit: {type(exc).__name__}: {exc}")
                broken = isinstance(exc, BrokenProcessPool)
            failed: list[int] = [i for i in pending if i not in futures]
            for i, future in futures.items():
                try:
                    fault_point("pool.result", task=i, attempt=attempt)
                    value = future.result(timeout=timeout)
                except FutureTimeout:
                    failures.append(f"task[{i}]: deadline of {timeout}s "
                                    f"exceeded")
                    failed.append(i)
                    broken = True  # the worker is stuck: kill and respawn
                except BrokenProcessPool as exc:
                    failures.append(f"task[{i}]: worker died "
                                    f"({exc or 'process pool broken'})")
                    failed.append(i)
                    broken = True
                except Exception as exc:
                    failures.append(f"task[{i}]: {type(exc).__name__}: {exc}")
                    failed.append(i)
                else:
                    results[i] = value
                    self.tasks_ok += 1
            pending = sorted(failed)
            if pending:
                self.task_failures += len(pending)
                self.last_error = failures[-1] if failures else None
                if attempt < self.retry_budget:
                    self.retried_tasks += len(pending)
                if broken or not self.alive():
                    self._respawn()
        if pending:
            raise PoolFailure(
                f"{len(pending)} shard task(s) failed after "
                f"{self.retry_budget + 1} attempt(s): {failures[-1]}",
                failures)
        return results

    def stats(self) -> dict:
        """Supervision counters."""
        return {
            "workers": self.workers,
            "alive": self.alive(),
            "respawns": self.respawns,
            "retried_tasks": self.retried_tasks,
            "tasks_ok": self.tasks_ok,
            "task_failures": self.task_failures,
            "retry_budget": self.retry_budget,
            "task_timeout": self.task_timeout,
            "last_error": self.last_error,
        }

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # Leak gate: with no build in flight, every spilled block must
        # have been released. Tests assert this list is empty.
        self.leaked_at_shutdown = [name for name, _ in leaked_segments()]


_POOLS: dict[int, ShardWorkerPool] = {}


def worker_pool(workers: int) -> ShardWorkerPool:
    """The shared persistent pool for ``workers`` processes."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ShardWorkerPool(workers)
    return pool


def shutdown_worker_pools() -> None:
    """Stop every shared pool (atexit, and explicit in tests/benches).

    With every pool stopped no build can be in flight, so any block
    still registered is a leak — sweep it eagerly rather than leaving
    spill files behind.
    """
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()
    purge_leaked_segments()


atexit.register(shutdown_worker_pools)


# ---------------------------------------------------------------------------
# Merge


def merge_shard_blocks(blocks: Sequence[tuple[np.ndarray, GroupStats]],
                       sizes: Sequence[int]
                       ) -> tuple[np.ndarray, GroupStats]:
    """Fold per-shard blocks into one canonical leaf block.

    Shards hold disjoint key sets, so the fold through
    :func:`merge_stats_blocks` only ever appends; the final ``lexsort``
    restores the exact key order ``combine_codes`` produces in the
    single-process build, making the merged arrays bitwise comparable.
    """
    if not blocks:
        raise ShardError("merge_shard_blocks() needs at least one block")
    key_codes, stats = blocks[0]
    for delta_codes, delta_stats in blocks[1:]:
        if not len(delta_codes):
            continue
        key_codes, stats, _, _, _ = merge_stats_blocks(
            key_codes, stats, delta_codes, delta_stats, sizes)
    n, k = key_codes.shape
    if n and k:
        order = np.lexsort(tuple(key_codes[:, j]
                                 for j in range(k - 1, -1, -1)))
        if not np.array_equal(order, np.arange(n)):
            key_codes = np.ascontiguousarray(key_codes[order])
            stats = stats.select(order)
    return key_codes, stats


# ---------------------------------------------------------------------------
# Chunked encoding: build relations without a row-object image


def encode_columns_chunked(chunks: Iterable[Mapping[str, np.ndarray]],
                           attrs: Sequence[str], measure_name: str
                           ) -> tuple[dict, int]:
    """Stream ``{name: array}`` chunks into encoded columns.

    Each chunk is factorized independently, then the per-chunk domains are
    unioned with :meth:`DictEncoding.merge` (chunk 0's codes survive
    verbatim) and the remapped code chunks concatenated. The coordinator
    holds only ``int32`` codes plus the ``float64`` measure — never a
    full value-object image. Returns ``(columns, n_rows)`` ready for
    :meth:`Relation.from_encoded`.
    """
    chunk_encs: dict[str, list[DictEncoding]] = {a: [] for a in attrs}
    measure_parts: list[np.ndarray] = []
    for chunk in chunks:
        for a in attrs:
            chunk_encs[a].append(factorize(np.asarray(chunk[a])))
        measure_parts.append(np.asarray(chunk[measure_name], dtype=float))
    columns: dict = {}
    for a in attrs:
        encs = chunk_encs[a]
        if not encs:
            columns[a] = DictEncoding(np.empty(0, dtype=np.int32), [],
                                      domain_sorted=True)
            continue
        merged, remaps = DictEncoding.merge(encs)
        codes = np.concatenate(
            [remap[enc.codes] for remap, enc in zip(remaps, encs)])
        column = DictEncoding(codes.astype(np.int32, copy=False),
                              merged.domain, merged.domain_sorted,
                              lossy=merged.lossy)
        column._positions = merged._positions
        columns[a] = column
    measure_col = (np.concatenate(measure_parts) if measure_parts
                   else np.empty(0))
    columns[measure_name] = measure_col
    return columns, int(len(measure_col))


def dataset_from_chunks(chunks: Iterable[Mapping[str, np.ndarray]],
                        hierarchies: Mapping[str, Sequence[str]],
                        measure_name: str, *, validate: bool = True
                        ) -> HierarchicalDataset:
    """A :class:`HierarchicalDataset` streamed from column chunks."""
    attrs = [a for hier in hierarchies.values() for a in hier]
    columns, _ = encode_columns_chunked(chunks, attrs, measure_name)
    schema = Schema([dimension(a) for a in attrs]
                    + [measure_attr(measure_name)])
    relation = Relation.from_encoded(schema, columns)
    return HierarchicalDataset.build(relation, dict(hierarchies),
                                     measure_name, validate=validate)


@dataclass
class SpillBuildResult:
    """Leaf block of an out-of-core build: same arrays as a cube's.

    ``key_codes``/``stats`` are bitwise-equal to what
    ``Cube(dataset_from_chunks(...))`` produces over the same chunks;
    ``encodings`` carry the union domains (with empty code columns — the
    out-of-core path never materialises a row image).
    """

    key_codes: np.ndarray
    stats: GroupStats
    encodings: tuple[DictEncoding, ...]
    attrs: tuple[str, ...]
    n_rows: int
    shard_rows: list[int]
    timings: dict


def spill_build_from_chunks(chunks: Iterable[Mapping[str, np.ndarray]],
                            hierarchies: Mapping[str, Sequence[str]],
                            measure_name: str, *, spill_dir: str,
                            n_shards: int = 2, workers: int = 0,
                            partition_attr: str | None = None,
                            pool: ShardWorkerPool | None = None
                            ) -> SpillBuildResult:
    """Stream chunks straight into spilled shard blocks, then build.

    The 1e8-row tier: each chunk is factorized, folded into the running
    union encoding (an incremental :meth:`DictEncoding.merge` — old codes
    never change because :meth:`DictEncoding.extend_domain` appends, so
    the streamed codes are bitwise-identical to the batch encoder's), and
    its rows are routed to their owning shard's on-disk column files in
    global row order. The coordinator's residency is one chunk plus the
    union domains plus the merged leaf block — never a full column, never
    more than one shard's decoded image (the per-shard build kernel's
    working set). Workers (or the serial one-shard-at-a-time loop)
    memory-map the spill files read-only.
    """
    attrs = [a for hier in hierarchies.values() for a in hier]
    if partition_attr is None:
        partition_attr = next(iter(hierarchies.values()))[0]
    if partition_attr not in attrs:
        raise ShardError(
            f"partition attribute {partition_attr!r} is not a leaf "
            f"attribute of {attrs}")
    part_pos = attrs.index(partition_attr)
    k = len(attrs)
    timings: dict = {"n_shards": n_shards, "workers": workers}

    t0 = time.perf_counter()
    writer = ShardSpillWriter(spill_dir, n_shards)
    accs: dict[str, DictEncoding | None] = {a: None for a in attrs}
    n_rows = 0
    shard_rows = [0] * n_shards
    try:
        for chunk in chunks:
            chunk_codes: list[np.ndarray] = []
            for a in attrs:
                enc = factorize(np.asarray(chunk[a]))
                acc = accs[a]
                if acc is None:
                    # Chunk 0 seeds the union; its codes survive verbatim
                    # (DictEncoding.merge's remaps[0] is the identity).
                    accs[a] = DictEncoding(np.empty(0, dtype=np.int32),
                                           enc.domain, enc.domain_sorted,
                                           lossy=enc.lossy)
                    accs[a]._positions = enc._positions
                    codes = enc.codes
                else:
                    acc, remap = acc.extend_domain(enc.domain)
                    acc.lossy = acc.lossy or enc.lossy
                    accs[a] = acc
                    codes = remap[enc.codes]
                chunk_codes.append(codes.astype(np.int32, copy=False))
            m = np.asarray(chunk[measure_name], dtype=float)
            assign = chunk_codes[part_pos].astype(np.int64) % n_shards
            for s in range(n_shards):
                sel = np.flatnonzero(assign == s)
                if not len(sel):
                    continue
                arrays = {f"c{j}": chunk_codes[j][sel] for j in range(k)}
                arrays["m"] = m[sel]
                writer.append(s, arrays)
                shard_rows[s] += len(sel)
            n_rows += len(m)
        blocks = writer.finish()
    except BaseException:
        writer.discard()
        raise
    timings["stream_s"] = time.perf_counter() - t0

    encodings = tuple(
        accs[a] if accs[a] is not None
        else DictEncoding(np.empty(0, dtype=np.int32), [],
                          domain_sorted=True)
        for a in attrs)
    sizes = [e.cardinality for e in encodings]
    jobs = [s for s in range(n_shards) if shard_rows[s]]
    try:
        results: dict[int, tuple[np.ndarray, GroupStats]] | None = None
        if pool is None and workers > 0:
            pool = worker_pool(min(workers, max(n_shards, 1)))
        if pool is not None and jobs:
            t1 = time.perf_counter()
            try:
                raw = pool.run_tasks(
                    _worker_build,
                    [(blocks[s].handle, k, list(sizes)) for s in jobs])
            except PoolFailure as exc:
                timings["fallback"] = f"{type(exc).__name__}: {exc}"
            else:
                results = {}
                busy, pids = [], []
                for s, (key_codes, count, total, sumsq, elapsed,
                        pid) in zip(jobs, raw):
                    results[s] = (key_codes, GroupStats(count, total, sumsq))
                    busy.append(elapsed)
                    pids.append(pid)
                timings["build_wall_s"] = time.perf_counter() - t1
                timings["worker_busy_s"] = busy
                timings["worker_pids"] = pids
        if results is None:
            # Serial out-of-core loop: exactly one shard's decoded image
            # is live at a time (the memmapped views page in on demand
            # and drop with the block's temporaries).
            t1 = time.perf_counter()
            results = {}
            busy = []
            for s in jobs:
                arrays = blocks[s].arrays
                cols = [arrays[f"c{j}"] for j in range(k)]
                key_codes, stats, elapsed = _build_block_arrays(
                    cols, np.asarray(arrays["m"]), sizes)
                results[s] = (key_codes, stats)
                busy.append(elapsed)
            timings["build_wall_s"] = time.perf_counter() - t1
            timings["worker_busy_s"] = busy
            timings["worker_pids"] = [os.getpid()] * len(jobs)
    finally:
        for block in blocks:
            block.release()

    empty_block = (np.empty((0, k), dtype=np.int32),
                   GroupStats(np.zeros(0), np.zeros(0), np.zeros(0)))
    t2 = time.perf_counter()
    all_blocks = [results.get(s, empty_block) for s in range(n_shards)]
    key_codes, stats = merge_shard_blocks(all_blocks, sizes)
    timings["merge_s"] = time.perf_counter() - t2
    return SpillBuildResult(key_codes, stats, encodings, tuple(attrs),
                            n_rows, shard_rows, timings)
