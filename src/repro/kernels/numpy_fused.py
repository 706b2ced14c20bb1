"""The fused pure-NumPy tier: fewer passes, zero new dependencies.

Three dtype-specialized fast paths, each bitwise-equal to
:mod:`repro.kernels.plain` (identical IEEE operations in identical
order; what changes is which *dead* operations are skipped and how many
intermediates are materialized):

* :func:`group_codes` — int64 radix group-by by counting instead of
  sorting. The plain tier only counts when the radix is within ``8n``;
  this tier raises the ceiling to a fixed table budget, turning the
  ``np.unique`` (argsort) band between ``8n`` and ``2^24`` into two
  O(n + radix) scatter/gather passes.
* :func:`join_probe` / :func:`join_multiply` — when every right-side key
  is distinct (the common shape for factorized per-attribute vectors),
  the stable argsort + double ``searchsorted`` sort-merge collapses into
  one scatter and one gather against a radix-sized position table.
* :func:`rank1_sweep` — the eq.-3 sweep with the dead preamble of each
  ``with_statistic`` branch skipped (the plain chain always derives
  mean *and* std even when the branch uses only one), the
  ``np.where`` merges elided when a statistic is valid for every group
  (``where(True, x, y) ≡ x``), and the rank-1 parent adjustment done
  with in-place adds. Same operations on every reachable element, so
  results are bit-for-bit identical.

Every function returns ``None`` when its guard declines (radix beyond
the table budget, duplicate probe keys); :mod:`repro.kernels` then runs
the plain tier and counts a fallback.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..relational.aggregates import (AggregateError,
                                     evaluate_composite_arrays,
                                     from_stats_arrays, mean_array,
                                     var_array)

#: Largest radix for which the counting paths allocate their tables
#: (~2^24 entries ≈ 134 MB of int64 scratch at the ceiling). Beyond it
#: the scatter tables would thrash memory worse than the sort they
#: replace, so the guard declines and the plain tier runs.
DENSE_RADIX_MAX = 1 << 24


def group_codes(combined: np.ndarray, radix: int
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """Counting-sort group-by; None when the radix exceeds the budget.

    Same two scatter/gather passes as the plain tier's dense branch, but
    with an ``int32`` rank table (group ranks are bounded by the row
    count, so the narrow table always fits — the widening cast at the
    end reproduces the plain tier's ``int64`` gids bit for bit) and both
    radix-sized tables kept in a per-thread workspace: allocating them
    fresh per call costs a page fault per touched page, which dominates
    the kernel once the radix outgrows the row count. The occupied table
    is re-zeroed by memset on every call, so a dirty workspace can never
    leak state between calls; at the ceiling the workspace retains
    ~``5 * DENSE_RADIX_MAX`` bytes per group-by-running thread.
    """
    n_rows = len(combined)
    if radix > max(8 * n_rows, DENSE_RADIX_MAX):
        return None
    occupied, lookup = _group_workspace(radix)
    occupied[combined] = True
    uniq = np.flatnonzero(occupied)
    lookup[uniq] = np.arange(len(uniq), dtype=np.int32)
    gids = lookup[combined].astype(np.int64)
    return gids, uniq


_workspaces = threading.local()


def _group_workspace(radix: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's ``(occupied, lookup)`` tables, zeroed/sized."""
    occupied = getattr(_workspaces, "occupied", None)
    if occupied is None or len(occupied) < radix:
        occupied = _workspaces.occupied = np.zeros(radix, dtype=bool)
        _workspaces.lookup = np.empty(radix, dtype=np.int32)
    else:
        occupied = occupied[:radix]
        occupied[:] = False
    return occupied, _workspaces.lookup[:radix]


def _probe_table(combined_r: np.ndarray, radix: int) -> np.ndarray | None:
    """Scatter-probe table ``row_of[key] = position``; None on guards.

    Declines when the radix exceeds the table budget or any right key
    occurs more than once (the scatter would silently drop matches).
    """
    n_right = len(combined_r)
    if radix > DENSE_RADIX_MAX or n_right == 0:
        return None
    row_of = np.full(radix, -1, dtype=np.int64)
    positions = np.arange(n_right, dtype=np.int64)
    row_of[combined_r] = positions
    # Duplicate keys overwrite earlier positions; detect via one gather.
    if not np.array_equal(row_of[combined_r], positions):
        return None
    return row_of


def join_probe(combined_l: np.ndarray, combined_r: np.ndarray,
               radix: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Scatter-probe equi-join for unique right keys; None on guards.

    With at most one match per left row, the plain sort-merge emits left
    rows in ascending order with that single match each — exactly what
    one gather through the position table produces.
    """
    row_of = _probe_table(combined_r, radix)
    if row_of is None:
        return None
    matches = row_of[combined_l]
    l_idx = np.flatnonzero(matches >= 0)
    r_pos = matches[l_idx]
    return l_idx, r_pos


def join_multiply(combined_l: np.ndarray, combined_r: np.ndarray,
                  left_counts: np.ndarray, right_counts: np.ndarray,
                  radix: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Probe + count product in one go; None on guards."""
    probed = join_probe(combined_l, combined_r, radix)
    if probed is None:
        return None
    l_idx, r_pos = probed
    products = left_counts[l_idx] * right_counts[r_pos]
    return l_idx, r_pos, products


def _with_statistic_lean(count: np.ndarray, total: np.ndarray,
                         sumsq: np.ndarray, name: str, values: np.ndarray
                         ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                                    dict[str, np.ndarray]]:
    """``with_statistic_arrays`` minus the dead preamble.

    The plain helper always derives both mean and std before branching;
    each branch consumes at most one of them. Skipping the unused
    derivation removes several full passes (including a sqrt and the
    var chain) without touching any operation whose result is kept, so
    the outputs stay bitwise-identical.

    Returns ``((count, total, sumsq), derived)`` where ``derived`` maps
    the composite statistics this branch happened to evaluate on its
    *input* state (``mean``/``var``/``std``) to the arrays it computed.
    :func:`rank1_sweep` reuses them for the observed-statistic pass when
    the input state was still the pristine child state — same function,
    same inputs, so the reuse is bitwise-free.
    """
    if name == "count":
        mean = mean_array(count, total)
        var = var_array(count, total, sumsq)
        std = np.sqrt(var)
        return (from_stats_arrays(np.maximum(values, 0.0), mean, std),
                {"mean": mean, "var": var, "std": std})
    if name == "mean":
        var = var_array(count, total, sumsq)
        std = np.sqrt(var)
        return (from_stats_arrays(count, values, std),
                {"var": var, "std": std})
    if name == "sum":
        var = var_array(count, total, sumsq)
        std = np.sqrt(var)
        new_mean = np.divide(values, count, out=np.zeros_like(total),
                             where=count != 0)
        return (from_stats_arrays(count, new_mean, std),
                {"var": var, "std": std})
    if name == "std":
        mean = mean_array(count, total)
        return (from_stats_arrays(count, mean, np.maximum(values, 0.0)),
                {"mean": mean})
    if name == "var":
        mean = mean_array(count, total)
        return (from_stats_arrays(count, mean,
                                  np.sqrt(np.maximum(values, 0.0))),
                {"mean": mean})
    raise AggregateError(f"unknown statistic {name!r}")


def rank1_sweep(count: np.ndarray, total: np.ndarray, sumsq: np.ndarray,
                parent_count: float, parent_total: float,
                parent_sumsq: float, statistics: Sequence[str],
                values: np.ndarray, valid: np.ndarray, aggregate: str,
                observed_stats: Sequence[str]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Fused eq.-3 sweep (no guard: applicable at every size)."""
    r_count, r_total, r_sumsq = count, total, sumsq
    pristine: dict[str, np.ndarray] = {"count": count, "sum": total}
    for j, stat in enumerate(statistics):
        ok = valid[:, j]
        if not ok.any():
            continue
        on_pristine = (r_count is count and r_total is total
                       and r_sumsq is sumsq)
        (nc, nt, nq), derived = _with_statistic_lean(
            r_count, r_total, r_sumsq, stat, values[:, j])
        if on_pristine:
            # Derived on the untouched child state: cacheable for the
            # observed-statistic pass below (identical inputs through
            # the identical helpers give bitwise-identical arrays).
            pristine.update(derived)
        if ok.all():
            # where(all-True, new, old) is new, elementwise and bitwise;
            # skip the three full-array merge copies.
            r_count, r_total, r_sumsq = nc, nt, nq
        else:
            r_count = np.where(ok, nc, r_count)
            r_total = np.where(ok, nt, r_total)
            r_sumsq = np.where(ok, nq, r_sumsq)

    # (parent − child) + repaired, with the second add in place: one
    # fresh array per statistic instead of two, identical op order.
    p_count = parent_count - count
    p_count += r_count
    p_total = parent_total - total
    p_total += r_total
    p_sumsq = parent_sumsq - sumsq
    p_sumsq += r_sumsq
    repaired_values = evaluate_composite_arrays(aggregate, p_count,
                                                p_total, p_sumsq)

    sizes = np.zeros(len(count))
    for j, stat in enumerate(statistics):
        ok = valid[:, j]
        if stat not in observed_stats:
            observed = 0.0
        elif stat in pristine:
            observed = pristine[stat]
        else:
            observed = evaluate_composite_arrays(stat, count, total, sumsq)
        diff = np.abs(values[:, j] - observed)
        if ok.all():
            sizes += diff
        else:
            sizes = np.where(ok, sizes + diff, sizes)
    return repaired_values, sizes
