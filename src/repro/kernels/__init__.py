"""The fused-kernel tier.

Three hot loops of the factorized evaluation pipeline — the composite-key
group-by behind ``combine_codes``, the join-multiply behind
``EncodedCountMap.join``, and the eq.-3 rank-1 score sweep behind
``score_drilldown`` — run through this package. ``join_probe``, the
probe half of the join without the count product, has no caller in the
package; it stays dispatched and counted as a kernel of its own. Each
kernel has two bitwise-equal implementations:

======== ==============================================================
fused    pure-NumPy fast paths (:mod:`repro.kernels.numpy_fused`)
plain    the pre-tier NumPy code, frozen (:mod:`repro.kernels.plain`)
======== ==============================================================

Every call runs the fused function first. Its guard returns ``None``
when the input is outside its fast path (radix beyond the table budget,
duplicate probe keys); the call then runs the plain function. Which one
ran depends on the input alone, and each call is counted in
:data:`KERNEL_STATS` (``fused`` or ``fallback``), surfaced at ``/stats``.
An exception from a fused function propagates exactly as the plain
tier's would.

Call sites bind this package as a module (``from .. import kernels``)
rather than importing names from it, which keeps the
relational ↔ kernels import cycle one-way at definition time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import numpy_fused, plain

__all__ = [
    "KERNEL_STATS", "group_codes", "join_multiply", "join_probe",
    "kernel_stats", "rank1_sweep", "reset_kernel_stats",
]

#: Per-kernel dispatch counters (process-wide, like RANKER_STATS).
KERNEL_STATS: dict[str, dict[str, int]] = {
    "group_codes": {"fused": 0, "fallback": 0},
    "join_probe": {"fused": 0, "fallback": 0},
    "join_multiply": {"fused": 0, "fallback": 0},
    "rank1_sweep": {"fused": 0, "fallback": 0},
}


def kernel_stats() -> dict:
    """Snapshot of the per-kernel fused/fallback dispatch counters."""
    return {"counters": {k: dict(v) for k, v in KERNEL_STATS.items()}}


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (tests and benchmarks)."""
    for counts in KERNEL_STATS.values():
        counts["fused"] = 0
        counts["fallback"] = 0


def _dispatch(kernel: str, *args):
    """Run ``kernel`` fused, or plain when the fused guard declines."""
    result = getattr(numpy_fused, kernel)(*args)
    if result is not None:
        KERNEL_STATS[kernel]["fused"] += 1
        return result
    KERNEL_STATS[kernel]["fallback"] += 1
    return getattr(plain, kernel)(*args)


def group_codes(combined: np.ndarray, radix: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group ids + sorted distinct keys for mixed-radix int64 keys."""
    return _dispatch("group_codes", combined, radix)


def join_probe(combined_l: np.ndarray, combined_r: np.ndarray,
               radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join probe: ``(l_idx, r_pos)`` in stable sort-merge order."""
    return _dispatch("join_probe", combined_l, combined_r, radix)


def join_multiply(combined_l: np.ndarray, combined_r: np.ndarray,
                  left_counts: np.ndarray, right_counts: np.ndarray,
                  radix: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equi-join probe fused with the per-pair count product."""
    return _dispatch("join_multiply", combined_l, combined_r, left_counts,
                     right_counts, radix)


def rank1_sweep(count: np.ndarray, total: np.ndarray, sumsq: np.ndarray,
                parent_count: float, parent_total: float,
                parent_sumsq: float, statistics: Sequence[str],
                values: np.ndarray, valid: np.ndarray, aggregate: str,
                observed_stats: Sequence[str]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Eq.-3 rank-1 score sweep: ``(repaired_values, sizes)``."""
    return _dispatch("rank1_sweep", count, total, sumsq, parent_count,
                     parent_total, parent_sumsq, statistics, values, valid,
                     aggregate, observed_stats)
