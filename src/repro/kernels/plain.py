"""The plain tier: pre-kernel-tier NumPy code paths, frozen verbatim.

These are the exact operations the relational/core layers ran before the
fused-kernel tier existed — the ``np.unique``-based composite group-by,
the stable argsort + double-``searchsorted`` sort-merge join, and the
eq.-3 score sweep written as one ufunc chain. They serve two roles:

1. the fallback the fused tier's guards drop into, and
2. the equality gate — every fused result must be bitwise-equal to the
   plain result, which the property suite and fig23 check in-run (the
   plain tier itself is pinned to the frozen oracles ``rowref``,
   ``rankref``, ``factorized/reference.py`` and ``deltaref`` by the
   pre-existing test suites).

Do not "optimize" this module; that is what
:mod:`repro.kernels.numpy_fused` is for.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..relational.aggregates import (evaluate_composite_arrays,
                                     with_statistic_arrays)


def group_codes(combined: np.ndarray, radix: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique group ids of mixed-radix keys: ``(gids, uniq)``.

    ``gids[i]`` is the rank of ``combined[i]`` among the distinct keys in
    ascending key order; ``uniq`` is those distinct keys, sorted. The
    dense counting-sort path (small radix) and the ``np.unique`` path
    (anything else) are exactly the two branches ``combine_codes`` always
    had.
    """
    n_rows = len(combined)
    if radix <= max(8 * n_rows, 1 << 16):
        # Dense-radix fast path: counting sort beats np.unique's argsort.
        occupied = np.zeros(radix, dtype=bool)
        occupied[combined] = True
        uniq = np.flatnonzero(occupied)
        lookup = np.empty(radix, dtype=np.int64)
        lookup[uniq] = np.arange(len(uniq), dtype=np.int64)
        gids = lookup[combined]
        return gids, uniq
    uniq, gids = np.unique(combined, return_inverse=True)
    return gids.reshape(-1), uniq


def join_probe(combined_l: np.ndarray, combined_r: np.ndarray,
               radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Matching row pairs of an equi-join over comparable int64 keys.

    Returns ``(l_idx, r_pos)``: for every match, the left row index and
    the *position into* ``combined_r`` (callers map positions through
    their own validity filters). Left rows appear in ascending order;
    within one left row, right matches keep their original order — the
    stable sort-merge contract the row paths were validated against.
    """
    from ..relational.encoding import expand_ranges
    r_order = np.argsort(combined_r, kind="stable")
    r_sorted = combined_r[r_order]
    starts = np.searchsorted(r_sorted, combined_l, side="left")
    ends = np.searchsorted(r_sorted, combined_l, side="right")
    counts = ends - starts
    l_idx = np.repeat(np.arange(len(combined_l), dtype=np.int64), counts)
    r_pos = r_order[expand_ranges(starts, counts)]
    return l_idx, r_pos


def join_multiply(combined_l: np.ndarray, combined_r: np.ndarray,
                  left_counts: np.ndarray, right_counts: np.ndarray,
                  radix: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join-multiply: the probe of :func:`join_probe` plus the count
    product per emitted pair: ``(l_idx, r_pos, products)``.

    ``right_counts`` is aligned with ``combined_r`` (the caller already
    applied its validity filter to both).
    """
    l_idx, r_pos = join_probe(combined_l, combined_r, radix)
    products = left_counts[l_idx] * right_counts[r_pos]
    return l_idx, r_pos, products


def rank1_sweep(count: np.ndarray, total: np.ndarray, sumsq: np.ndarray,
                parent_count: float, parent_total: float,
                parent_sumsq: float, statistics: Sequence[str],
                values: np.ndarray, valid: np.ndarray, aggregate: str,
                observed_stats: Sequence[str]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The eq.-3 score sweep: ``(repaired_values, sizes)`` per group.

    For every group: apply the repaired statistics in order to its
    ``(count, total, sumsq)`` state, form the parent with that one group
    replaced (a rank-1 adjustment), and evaluate the complained
    composite on it. ``sizes`` is the tie-break magnitude
    ``Σ_j |values[:, j] − observed_j|`` over the valid predictions,
    where ``observed_j`` is the group's own statistic when ``stat`` is in
    ``observed_stats`` and ``0.0`` otherwise.

    This is the exact ufunc chain ``score_drilldown`` ran inline before
    the kernel tier; the fused tier must match it bitwise.
    """
    r_count, r_total, r_sumsq = count, total, sumsq
    for j, stat in enumerate(statistics):
        ok = valid[:, j]
        if not ok.any():
            continue
        nc, nt, nq = with_statistic_arrays(r_count, r_total, r_sumsq,
                                           stat, values[:, j])
        r_count = np.where(ok, nc, r_count)
        r_total = np.where(ok, nt, r_total)
        r_sumsq = np.where(ok, nq, r_sumsq)

    p_count = (parent_count - count) + r_count
    p_total = (parent_total - total) + r_total
    p_sumsq = (parent_sumsq - sumsq) + r_sumsq
    repaired_values = evaluate_composite_arrays(aggregate, p_count,
                                                p_total, p_sumsq)

    sizes = np.zeros(len(count))
    for j, stat in enumerate(statistics):
        observed = evaluate_composite_arrays(stat, count, total, sumsq) \
            if stat in observed_stats else 0.0
        sizes = np.where(valid[:, j],
                         sizes + np.abs(values[:, j] - observed), sizes)
    return repaired_values, sizes
