"""Registry-dispatched fused-kernel tier (ROADMAP open item 2).

Three hot loops of the factorized evaluation pipeline — the composite-key
group-by behind ``combine_codes``, the join-multiply behind
``EncodedCountMap.join`` / ``merge_join_indices``, and the eq.-3 rank-1
score sweep behind ``score_drilldown`` — dispatch through this package.
Backends:

======== ==============================================================
plain    the pre-tier NumPy code, frozen (:mod:`repro.kernels.plain`)
numpy    fused pure-NumPy fast paths (:mod:`repro.kernels.numpy_fused`)
======== ==============================================================

Selection is ``REPTILE_KERNELS`` (``auto``/``numpy``/``plain``/``off``)
or :func:`set_backend`; ``auto`` resolves to ``numpy``. Every kernel
result is bitwise-equal across backends — a fused backend whose guard
declines returns ``None`` and the call falls through to the plain tier,
counted in :data:`KERNEL_STATS` and surfaced at ``/stats``.

Call sites bind this package as a module (``from .. import kernels``)
rather than importing names from it, which keeps the
relational ↔ kernels import cycle one-way at definition time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..robustness.faultinject import fault_point
from . import numpy_fused, plain
from .dispatch import (BACKEND_NAMES, ENV_VAR, KERNEL_STATS,
                       KernelBackendError, _count, backend_name,
                       clear_quarantine, is_quarantined, kernel_stats,
                       quarantine_backend, quarantined_backends,
                       reset_kernel_stats, resolve_backend, set_backend)

__all__ = [
    "BACKEND_NAMES", "ENV_VAR", "KERNEL_STATS", "KernelBackendError",
    "backend_name", "clear_quarantine", "group_codes", "join_multiply",
    "join_probe", "kernel_stats", "quarantined_backends", "rank1_sweep",
    "reset_kernel_stats", "resolve_backend", "set_backend",
]


def _fused_module():
    """The active fused backend module, or None when tier is plain.

    A quarantined backend (one that raised mid-dispatch) reads as plain:
    the engine keeps serving on the frozen code path until an operator
    lifts the quarantine or forces the backend back with set_backend.
    """
    backend = backend_name()
    if is_quarantined(backend):
        return None
    if backend == "numpy":
        return numpy_fused
    return None


def _try_fused(kernel: str, args: tuple):
    """Run the fused backend for one kernel; None = use the plain tier.

    Guard declines (the fused function returning None) stay what they
    were: a counted fallback. An *exception* is different — a fused tier
    must never take a request down, so the raise is swallowed, the
    backend quarantined, and the plain tier serves this and every later
    call. ``kernel.dispatch`` is the chaos suite's injection point for
    exactly that path.
    """
    fused = _fused_module()
    if fused is None:
        return None
    backend = backend_name()
    try:
        fault_point("kernel.dispatch", kernel=kernel, backend=backend)
        return getattr(fused, kernel)(*args)
    except Exception as exc:
        quarantine_backend(backend, kernel, exc)
        return None


def group_codes(combined: np.ndarray, radix: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group ids + sorted distinct keys for mixed-radix int64 keys."""
    result = _try_fused("group_codes", (combined, radix))
    if result is not None:
        _count("group_codes", True)
        return result
    _count("group_codes", False)
    return plain.group_codes(combined, radix)


def join_probe(combined_l: np.ndarray, combined_r: np.ndarray,
               radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join probe: ``(l_idx, r_pos)`` in stable sort-merge order."""
    result = _try_fused("join_probe", (combined_l, combined_r, radix))
    if result is not None:
        _count("join_probe", True)
        return result
    _count("join_probe", False)
    return plain.join_probe(combined_l, combined_r, radix)


def join_multiply(combined_l: np.ndarray, combined_r: np.ndarray,
                  left_counts: np.ndarray, right_counts: np.ndarray,
                  radix: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equi-join probe fused with the per-pair count product."""
    result = _try_fused("join_multiply", (combined_l, combined_r,
                                          left_counts, right_counts, radix))
    if result is not None:
        _count("join_multiply", True)
        return result
    _count("join_multiply", False)
    return plain.join_multiply(combined_l, combined_r, left_counts,
                               right_counts, radix)


def rank1_sweep(count: np.ndarray, total: np.ndarray, sumsq: np.ndarray,
                parent_count: float, parent_total: float,
                parent_sumsq: float, statistics: Sequence[str],
                values: np.ndarray, valid: np.ndarray, aggregate: str,
                observed_stats: Sequence[str]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Eq.-3 rank-1 score sweep: ``(repaired_values, sizes)``."""
    result = _try_fused("rank1_sweep", (count, total, sumsq, parent_count,
                                        parent_total, parent_sumsq,
                                        statistics, values, valid,
                                        aggregate, observed_stats))
    if result is not None:
        _count("rank1_sweep", True)
        return result
    _count("rank1_sweep", False)
    return plain.rank1_sweep(count, total, sumsq, parent_count,
                             parent_total, parent_sumsq, statistics,
                             values, valid, aggregate, observed_stats)
