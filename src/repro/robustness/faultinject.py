"""Deterministic fault-point registry.

The recovery machinery of the serving stack — the atomic ingest commit,
degraded-mode serving — is exercised through *named fault points*: call
sites threaded through the stack in the style of the serving layer's
trace hooks (``repro.serving.concurrency.trace``), each a single cheap
call in production::

    fault_point("ingest.commit", version=3)

Registered points (the chaos suite drives every one of them):

========================  =====================================================
``cache.fill``            a cache miss is about to compute its value
``ingest.commit``         an ingest is about to commit relation + version
``serving.rebuild``       a degraded dataset starts a recovery rebuild
========================  =====================================================

Faults are *specs* attached to a point. Each spec has a kind:

* ``error[:ExcName]`` — raise (default :class:`FaultInjected`; any
  builtin exception name works, e.g. ``error:OSError``);
* ``delay:seconds`` — sleep, for deadline/timeout paths.

and fires deterministically: on chosen 1-based invocation numbers of its
point (``@2`` or ``@1,3``, counted per process), or on every invocation
(no ``@``). When several specs match one invocation they act in
install order until the first error raises; only the specs that acted
count as fired.

Faults are installed in-process with :func:`inject`, :func:`install` or
the :func:`faults` context manager. Spec strings are ``;``-separated
entries::

    faults("ingest.commit=error@1,2;cache.fill=error:OSError@2")

Nothing here imports numpy or any repro module: the registry must be
importable from the lowest layers without creating cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "FaultInjected", "FaultSpec", "clear_faults", "fault_point", "faults",
    "fired_counts", "inject", "install", "parse_spec",
]

#: The fault kinds a spec may name.
KINDS = ("error", "delay")


class FaultInjected(RuntimeError):
    """The default exception raised by an ``error`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, what, and on which invocations."""

    point: str
    kind: str = "error"              # "error" | "delay"
    arg: str | None = None           # exception name / delay seconds
    hits: tuple[int, ...] | None = None  # 1-based invocations; None = all


_lock = threading.Lock()
_specs: dict[str, list[FaultSpec]] = {}  # installed specs, per point
_counts: dict[str, int] = {}             # per-process invocation counts
_fired: dict[str, int] = {}              # per-process fire counts


def _exception_for(arg: str | None) -> BaseException:
    if arg:
        exc_type = getattr(__builtins__, arg, None) if not isinstance(
            __builtins__, dict) else __builtins__.get(arg)
        if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
            return exc_type(f"injected fault ({arg})")
    return FaultInjected(f"injected fault{f' ({arg})' if arg else ''}")


def parse_spec(text: str) -> list[FaultSpec]:
    """Parse a ``point=kind[:arg][@hits]`` spec string into specs.

    Entries are ``;``-separated; ``hits`` is a ``,``-list of 1-based
    invocation numbers. Raises ``ValueError`` on bad grammar.
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
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {entry!r}")
        arg = arg.strip() or None
        if kind == "delay":
            try:
                float(arg or "")
            except ValueError:
                raise ValueError(
                    f"delay fault needs numeric seconds: {entry!r}") from None
        hits: tuple[int, ...] | None = None
        hits_text = hits_text.strip()
        if hits_text:
            try:
                hits = tuple(sorted(int(h) for h in hits_text.split(",")))
            except ValueError:
                raise ValueError(f"bad hit list {hits_text!r} in "
                                 f"{entry!r}") from None
            if any(h < 1 for h in hits):
                raise ValueError(f"hits are 1-based: {entry!r}")
        specs.append(FaultSpec(point, kind, arg, hits))
    return specs


def install(text: str) -> list[FaultSpec]:
    """Parse and activate a spec string (programmatic registry)."""
    specs = parse_spec(text)
    with _lock:
        for spec in specs:
            _specs.setdefault(spec.point, []).append(spec)
    return specs


def inject(point: str, kind: str = "error", arg: str | None = None,
           hits: tuple[int, ...] | None = None) -> FaultSpec:
    """Activate one fault programmatically; returns the installed spec."""
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    spec = FaultSpec(point, kind, arg, tuple(sorted(hits)) if hits else None)
    with _lock:
        _specs.setdefault(point, []).append(spec)
    return spec


def clear_faults() -> None:
    """Deactivate every fault and reset counters."""
    with _lock:
        _specs.clear()
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
    one schedule per context).
    """
    install(text)
    try:
        yield
    finally:
        clear_faults()


def fault_point(point: str, **info) -> None:
    """Report reaching a named fault point; maybe injects a fault.

    With nothing installed this is one dict truth test — cheap enough
    for every call site that is not an inner loop. ``info`` is advisory
    (mirrors the trace-hook calling convention).
    """
    if not _specs:
        return
    actions: list[FaultSpec] = []
    with _lock:
        matching = _specs.get(point)
        if not matching:
            return
        count = _counts.get(point, 0) + 1
        _counts[point] = count
        for spec in matching:
            if spec.hits is not None and count not in spec.hits:
                continue
            _fired[point] = _fired.get(point, 0) + 1
            actions.append(spec)
            if spec.kind == "error":
                break  # the raise ends the invocation: later specs never act
    for spec in actions:  # act outside the lock: sleep/raise
        if spec.kind == "delay":
            time.sleep(float(spec.arg or 0.0))
        else:
            raise _exception_for(spec.arg)
