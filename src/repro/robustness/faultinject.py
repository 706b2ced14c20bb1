"""Deterministic fault-point registry.

The recovery machinery added for production serving — the supervised
shard worker pool, kernel-backend quarantine, the atomic ingest commit,
degraded-mode serving — is exercised through *named fault points*: call
sites sprinkled through the stack in the style of the serving layer's
trace hooks (``repro.serving.concurrency.trace``), each a single cheap
call in production::

    fault_point("pool.submit", task=3)

Registered points (the chaos suite drives every one of them):

========================  =====================================================
``pool.submit``           coordinator submits one shard task to the pool
``pool.result``           coordinator collects one shard task result
``shm.attach``            a worker memory-maps one spilled shard block
``worker.build``          a worker starts one shard build (in-process)
``kernel.dispatch``       a fused kernel backend is about to run
``cache.fill``            a cache miss is about to compute its value
``ingest.commit``         an ingest is about to commit relation + version
``serving.rebuild``       a degraded dataset starts a recovery rebuild
========================  =====================================================

Faults are *specs* attached to a point. Each spec has a kind:

* ``error[:ExcName]`` — raise (default :class:`FaultInjected`; any
  builtin exception name works, e.g. ``error:OSError``);
* ``crash`` — ``os._exit(66)``: an abrupt worker death, the thing
  ``BrokenProcessPool`` recovery exists for;
* ``delay:seconds`` — sleep, for deadline/timeout paths.

and fires deterministically: on chosen 1-based invocation numbers of its
point (``@2`` or ``@1,3``), on every invocation (no ``@``), or at most
once across *all* processes (``@once`` — a temp-file token shared by
forked workers, so "crash the first build, then recover" is expressible
even though each worker counts its own invocations).

Two sources feed the registry: :func:`install`/:func:`inject` (tests;
forked pool workers inherit programmatic specs installed before the
fork) and the ``REPTILE_FAULTS`` environment variable, re-read lazily in
every process so freshly spawned workers honour it too. Spec strings are
``;``-separated entries::

    REPTILE_FAULTS="worker.build=crash@once;cache.fill=error@2"

Nothing here imports numpy or any repro module: the registry must be
importable from the lowest layers (shard pool, kernel dispatch) without
creating cycles.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FaultInjected", "FaultSpec", "clear_faults", "fault_point", "faults",
    "fired_counts", "inject", "install", "parse_spec", "reset_counters",
]

#: Environment variable holding a fault spec string.
ENV_VAR = "REPTILE_FAULTS"

#: Exit code used by ``crash`` faults — distinctive in worker post-mortems.
CRASH_EXIT_CODE = 66


class FaultInjected(RuntimeError):
    """The default exception raised by an ``error`` fault.

    Picklable (plain message argument), so a worker-process fault
    travels back to the coordinator through the shard worker pool intact.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, what, and on which invocations."""

    point: str
    kind: str = "error"              # "error" | "crash" | "delay"
    arg: str | None = None           # exception name / delay seconds
    hits: tuple[int, ...] | None = None  # 1-based invocations; None = all
    once: bool = False               # at most one fire across processes
    token: str | None = field(default=None, compare=False)

    def token_path(self) -> str | None:
        if not self.once:
            return None
        return os.path.join(tempfile.gettempdir(),
                            f"reptile-fault-{self.token}.tok")


_lock = threading.Lock()
_specs: dict[str, list[FaultSpec]] = {}     # programmatic installs
_env_specs: dict[str, list[FaultSpec]] = {}  # parsed from ENV_VAR
_env_state: tuple[int, str] | None = None    # (pid, raw value) last parsed
_counts: dict[str, int] = {}                 # per-process invocation counts
_fired: dict[str, int] = {}                  # per-process fire counts
_token_counter = 0


def _exception_for(arg: str | None) -> BaseException:
    if arg:
        exc_type = getattr(__builtins__, arg, None) if not isinstance(
            __builtins__, dict) else __builtins__.get(arg)
        if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
            return exc_type(f"injected fault ({arg})")
    return FaultInjected(f"injected fault{f' ({arg})' if arg else ''}")


def _new_token(seed: str) -> str:
    """A token shared by every process forked after this call."""
    global _token_counter
    _token_counter += 1
    raw = f"{os.getpid()}-{_token_counter}-{seed}"
    return hashlib.sha1(raw.encode()).hexdigest()[:16]


def parse_spec(text: str) -> list[FaultSpec]:
    """Parse a ``point=kind[:arg][@hits]`` spec string into specs.

    Entries are ``;``-separated; ``hits`` is ``once`` or a ``,``-list of
    1-based invocation numbers. Raises ``ValueError`` on bad grammar.
    """
    specs: list[FaultSpec] = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        point, sep, rest = entry.partition("=")
        point = point.strip()
        if not sep or not point:
            raise ValueError(f"bad fault entry {entry!r} "
                             f"(want point=kind[:arg][@hits])")
        rest, _, hits_text = rest.partition("@")
        kind, _, arg = rest.partition(":")
        kind = (kind or "error").strip()
        if kind not in ("error", "crash", "delay"):
            raise ValueError(f"unknown fault kind {kind!r} in {entry!r}")
        arg = arg.strip() or None
        if kind == "delay":
            try:
                float(arg or "")
            except ValueError:
                raise ValueError(
                    f"delay fault needs numeric seconds: {entry!r}") from None
        hits: tuple[int, ...] | None = None
        once = False
        hits_text = hits_text.strip()
        if hits_text == "once":
            once = True
        elif hits_text:
            try:
                hits = tuple(sorted(int(h) for h in hits_text.split(",")))
            except ValueError:
                raise ValueError(f"bad hit list {hits_text!r} in "
                                 f"{entry!r}") from None
            if any(h < 1 for h in hits):
                raise ValueError(f"hits are 1-based: {entry!r}")
        token = None
        if once:
            # Env-parsed tokens must agree across independently spawned
            # processes, so they derive from the entry text itself (plus
            # an optional nonce for run isolation), not from a pid.
            nonce = os.environ.get("REPTILE_FAULTS_NONCE", "")
            token = hashlib.sha1(f"{entry}|{nonce}".encode()).hexdigest()[:16]
        specs.append(FaultSpec(point, kind, arg, hits, once, token))
    return specs


def install(text: str) -> list[FaultSpec]:
    """Parse and activate a spec string (programmatic registry)."""
    specs = parse_spec(text)
    with _lock:
        for spec in specs:
            _specs.setdefault(spec.point, []).append(spec)
    return specs


def inject(point: str, kind: str = "error", arg: str | None = None,
           hits: tuple[int, ...] | None = None,
           once: bool = False) -> FaultSpec:
    """Activate one fault programmatically; returns the installed spec."""
    if kind not in ("error", "crash", "delay"):
        raise ValueError(f"unknown fault kind {kind!r}")
    token = _new_token(point) if once else None
    spec = FaultSpec(point, kind, arg, tuple(sorted(hits)) if hits else None,
                     once, token)
    with _lock:
        _specs.setdefault(point, []).append(spec)
    return spec


def _remove_tokens(specs: dict[str, list[FaultSpec]]) -> None:
    for entries in specs.values():
        for spec in entries:
            path = spec.token_path()
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass


def clear_faults() -> None:
    """Deactivate every fault and reset counters (token files removed).

    The environment registry is neutralized for the *current* value of
    ``REPTILE_FAULTS`` too: a still-set variable is not re-parsed until
    it changes (or the process changes), so tests that cleared faults
    stay fault-free.
    """
    global _env_state
    with _lock:
        _remove_tokens(_specs)
        _remove_tokens(_env_specs)
        _specs.clear()
        _env_specs.clear()
        _env_state = (os.getpid(), os.environ.get(ENV_VAR, ""))
        _counts.clear()
        _fired.clear()


def reset_counters() -> None:
    """Zero invocation/fire counters without touching installed specs."""
    with _lock:
        _counts.clear()
        _fired.clear()


def fired_counts() -> dict[str, int]:
    """Per-point count of faults actually fired in this process."""
    with _lock:
        return dict(_fired)


@contextmanager
def faults(text: str):
    """Context manager: install a spec string, restore clean state after.

    Restores an *empty* registry on exit (the chaos-suite convention:
    one schedule per context), removing any token files the specs
    created.
    """
    install(text)
    try:
        yield
    finally:
        clear_faults()


def _refresh_env_specs() -> None:
    """Re-parse ``REPTILE_FAULTS`` when the process or the value changed.

    Lazily called from :func:`fault_point`, so a freshly forked/spawned
    worker picks the variable up without any coordination — and a parent
    that already parsed it does not double-register in the child (the
    recorded ``(pid, value)`` state is inherited by fork and only a
    *change* triggers a re-parse, which replaces the env registry
    wholesale).
    """
    global _env_state
    raw = os.environ.get(ENV_VAR, "")
    state = (os.getpid(), raw)
    if _env_state == state:
        return
    with _lock:
        if _env_state == state:
            return
        _env_specs.clear()
        if raw:
            try:
                parsed = parse_spec(raw)
            except ValueError:
                parsed = []  # a bad env spec must never break production
            for spec in parsed:
                _env_specs.setdefault(spec.point, []).append(spec)
        _env_state = state


def fault_point(point: str, **info) -> None:
    """Report reaching a named fault point; maybe injects a fault.

    With nothing installed this is two dict lookups and an env read —
    cheap enough for every call site that is not an inner loop. ``info``
    is advisory (mirrors the trace-hook calling convention).
    """
    _refresh_env_specs()
    if not _specs and not _env_specs:
        return
    actions: list[FaultSpec] = []
    with _lock:
        matching = _specs.get(point, ()) or ()
        env_matching = _env_specs.get(point, ()) or ()
        if not matching and not env_matching:
            return
        count = _counts.get(point, 0) + 1
        _counts[point] = count
        for spec in list(matching) + list(env_matching):
            if spec.hits is not None and count not in spec.hits:
                continue
            if spec.once:
                path = spec.token_path()
                try:
                    # O_EXCL create = atomic claim; a second process (or
                    # invocation) loses the race and skips the fault.
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.close(fd)
                except OSError:
                    continue
            _fired[point] = _fired.get(point, 0) + 1
            actions.append(spec)
    for spec in actions:  # act outside the lock: sleep/raise/exit
        if spec.kind == "delay":
            time.sleep(float(spec.arg or 0.0))
        elif spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        else:
            raise _exception_for(spec.arg)
