"""Backend registry and dispatch for the fused-kernel tier.

The tier has two interchangeable backends, bitwise-equal on every kernel
(the property suite and the fig23 harness enforce it):

* ``plain`` — the pre-kernel-tier NumPy code paths, frozen verbatim.
  Every other backend's guard failure lands here, so the engine can
  never produce a result the plain tier would not.
* ``numpy`` — fused pure-NumPy fast paths (radix/counting group-by,
  scatter-probe join, workspace-reusing rank-1 sweep). The default
  production tier; requires nothing beyond NumPy.

Selection: the ``REPTILE_KERNELS`` environment variable (read once, at
first dispatch) or :func:`set_backend`. Values:

* ``auto`` (default) / ``numpy`` — the fused NumPy tier;
* ``plain`` / ``off`` — disable the fused tier entirely.

Every public kernel wrapper counts its dispatches in
:data:`KERNEL_STATS`: ``fused`` when the active backend's fast path ran,
``fallback`` when a guard (radix too wide, non-unique probe keys, …)
dropped the call to the plain tier. The serving layer surfaces the
counters at ``/stats``.
"""

from __future__ import annotations

import os
import threading
import time

#: Env var selecting the backend (read lazily on first dispatch).
ENV_VAR = "REPTILE_KERNELS"

#: Recognized backend names. "off" is an alias of "plain".
BACKEND_NAMES = ("auto", "numpy", "plain", "off")

#: Per-kernel dispatch counters (process-wide, like RANKER_STATS).
KERNEL_STATS: dict[str, dict[str, int]] = {
    "group_codes": {"fused": 0, "fallback": 0},
    "join_probe": {"fused": 0, "fallback": 0},
    "join_multiply": {"fused": 0, "fallback": 0},
    "rank1_sweep": {"fused": 0, "fallback": 0},
}

_lock = threading.Lock()
_active: str | None = None   # resolved backend name, None = not yet resolved
_requested: str | None = None  # explicit set_backend override
# A fused backend that *raised* (not a guard decline — those return None)
# is quarantined: every later dispatch skips it and runs the plain tier,
# because a backend that crashed once mid-request cannot be trusted not
# to crash the next request. Surfaced in kernel_stats()/healthz; cleared
# explicitly (operator action or set_backend).
_quarantined: dict[str, dict] = {}


class KernelBackendError(ValueError):
    """Raised for unknown backend names."""


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested name to the concrete backend that will run.

    ``None`` reads :data:`ENV_VAR` (default ``auto``). The result is
    ``plain`` or ``numpy``.
    """
    if name is None:
        name = os.environ.get(ENV_VAR, "") or "auto"
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise KernelBackendError(
            f"unknown kernel backend {name!r} (choose from "
            f"{', '.join(BACKEND_NAMES)})")
    if name == "off":
        return "plain"
    if name == "auto":
        return "numpy"
    return name


def backend_name() -> str:
    """The active backend, resolving it on first use."""
    global _active
    if _active is None:
        with _lock:
            if _active is None:
                _active = resolve_backend(_requested)
    return _active


def set_backend(name: str | None) -> str:
    """Force the backend for this process (``None`` = back to the env).

    Returns the resolved name. Used by the CLI ``--kernels`` flag and by
    the tests/benchmarks to pin a tier; resolution errors (an unknown
    name) surface immediately rather than at first dispatch.
    """
    global _active, _requested
    with _lock:
        resolved = resolve_backend(name)
        _requested = name
        _active = resolved
        # Forcing a backend is an operator decision: it lifts any
        # quarantine on that backend so it can be re-tried deliberately.
        _quarantined.pop(resolved, None)
    return resolved


def kernel_stats() -> dict:
    """Snapshot of the dispatch counters plus the backend name.

    ``backend`` reports the *resolved* tier only if resolution already
    happened; observing it never forces a resolution.
    """
    return {
        "backend": _active if _active is not None else "unresolved",
        "counters": {k: dict(v) for k, v in KERNEL_STATS.items()},
        "quarantined": quarantined_backends(),
    }


def quarantine_backend(backend: str, kernel: str,
                       exc: BaseException) -> dict:
    """Mark a fused backend unusable after it raised mid-dispatch."""
    info = {
        "kernel": kernel,
        "error": f"{type(exc).__name__}: {exc}",
        "at": time.time(),
    }
    with _lock:
        _quarantined[backend] = info
    return info


def is_quarantined(backend: str) -> bool:
    return backend in _quarantined


def quarantined_backends() -> dict[str, dict]:
    """Snapshot of quarantined backends and why (for /stats, /healthz)."""
    with _lock:
        return {name: dict(info) for name, info in _quarantined.items()}


def clear_quarantine(backend: str | None = None) -> None:
    """Lift quarantine for one backend (or all with ``None``)."""
    with _lock:
        if backend is None:
            _quarantined.clear()
        else:
            _quarantined.pop(backend, None)


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (tests and benchmarks)."""
    for counts in KERNEL_STATS.values():
        counts["fused"] = 0
        counts["fallback"] = 0


def _count(kernel: str, fused: bool) -> None:
    KERNEL_STATS[kernel]["fused" if fused else "fallback"] += 1
