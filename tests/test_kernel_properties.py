"""Property tests: the fused-kernel backend ≡ the frozen plain tier.

The kernel-tier contract is *bitwise* equality: for any input, the fused
backend either declines (returns ``None``; the dispatcher falls back) or
produces ``tobytes()``-identical arrays to ``repro.kernels.plain`` —
which the pre-existing suites pin to the frozen row/rank oracles. The
properties here drive all three kernels of the NumPy-fused tier across
dtypes, NaN domains, empty inputs, single-group views, and radix
products straddling the ``int64``-overflow guard.

Also covers the dispatch in :mod:`repro.kernels` itself: a default call
runs fused, a guard decline runs plain and counts a fallback, a fused
kernel that raises leaves later calls on the fused tier, and the
counters are exposed through ``ExplanationService.stats()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import numpy_fused, plain
from repro.relational.aggregates import AggregateError
from repro.relational.encoding import _RADIX_LIMIT, combine_codes

BACKENDS = [pytest.param(numpy_fused, id="numpy")]

SWEEP_STATS = ("count", "mean", "std")


def _assert_bitwise(fused_result, plain_result, label: str) -> None:
    assert len(fused_result) == len(plain_result)
    for got, want in zip(fused_result, plain_result):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype, \
            f"{label}: dtype {got.dtype} != {want.dtype}"
        assert got.tobytes() == want.tobytes(), f"{label}: not bitwise"


# -- strategies ------------------------------------------------------------------

@st.composite
def keyed_arrays(draw):
    """``(combined, radix)`` with empty/single-key/dense/sparse shapes."""
    radix = draw(st.sampled_from([1, 2, 7, 64, 1 << 16, (1 << 16) + 3,
                                  1 << 20]))
    n = draw(st.integers(0, 50))
    shape = draw(st.sampled_from(["uniform", "single", "extremes"]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if shape == "single" and n:
        combined = np.full(n, int(rng.integers(0, radix)), dtype=np.int64)
    elif shape == "extremes" and n:
        combined = rng.choice([0, radix - 1], size=n).astype(np.int64)
    else:
        combined = rng.integers(0, radix, n)
    return combined, radix


@st.composite
def join_inputs(draw):
    """Left/right keys + counts; right side may hold duplicate keys."""
    radix = draw(st.sampled_from([1, 5, 256, 1 << 16]))
    nl = draw(st.integers(0, 40))
    nr = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2 ** 16))
    unique_right = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if unique_right:
        nr = min(nr, radix)
        combined_r = rng.permutation(radix)[:nr]
    else:
        combined_r = rng.integers(0, radix, nr)
    combined_l = rng.integers(0, radix, nl)
    left_counts = rng.integers(1, 9, nl).astype(float)
    right_counts = rng.integers(1, 9, nr).astype(float)
    return combined_l, combined_r, left_counts, right_counts, radix


@st.composite
def sweep_inputs(draw):
    """Group stats + a prediction matrix with NaN/invalid/edge groups."""
    n = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2 ** 16))
    with_nan = draw(st.booleans())
    validity = draw(st.sampled_from(["all", "none", "mixed"]))
    rng = np.random.default_rng(seed)
    # count 0/1 groups exercise every guard branch of mean/var.
    count = rng.integers(0, 6, n).astype(float)
    total = np.round(rng.normal(10.0, 5.0, n) * count, 3)
    sumsq = np.where(count > 0, total * total / np.maximum(count, 1.0)
                     + rng.integers(0, 20, n), 0.0)
    parent = (float(count.sum()), float(total.sum()), float(sumsq.sum()))
    k = len(SWEEP_STATS)
    values = np.round(rng.normal(5.0, 3.0, (n, k)), 3)
    if with_nan and n:
        values[rng.integers(0, n), rng.integers(0, k)] = np.nan
    if validity == "all":
        valid = np.ones((n, k), dtype=bool)
    elif validity == "none":
        valid = np.zeros((n, k), dtype=bool)
    else:
        valid = rng.random((n, k)) < 0.6
    return count, total, sumsq, parent, values, valid


# -- kernel properties -----------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=keyed_arrays())
def test_group_codes_bitwise(backend, data):
    combined, radix = data
    fused = backend.group_codes(combined, radix)
    if fused is None:
        return   # guard declined: the dispatcher would run plain
    _assert_bitwise(fused, plain.group_codes(combined, radix),
                    "group_codes")


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=join_inputs())
def test_join_kernels_bitwise(backend, data):
    combined_l, combined_r, left_counts, right_counts, radix = data
    fused = backend.join_probe(combined_l, combined_r, radix)
    if fused is not None:
        _assert_bitwise(fused, plain.join_probe(combined_l, combined_r,
                                                radix), "join_probe")
    fused = backend.join_multiply(combined_l, combined_r, left_counts,
                                  right_counts, radix)
    if fused is not None:
        _assert_bitwise(
            fused, plain.join_multiply(combined_l, combined_r,
                                       left_counts, right_counts, radix),
            "join_multiply")


def test_numpy_join_declines_duplicate_right_keys():
    combined_r = np.array([3, 3, 5], dtype=np.int64)
    combined_l = np.array([3, 5], dtype=np.int64)
    assert numpy_fused.join_probe(combined_l, combined_r, 8) is None
    # ...and the dispatcher still returns the plain result.
    l_idx, r_pos = kernels.join_probe(combined_l, combined_r, 8)
    want_l, want_r = plain.join_probe(combined_l, combined_r, 8)
    assert np.array_equal(l_idx, want_l) and np.array_equal(r_pos, want_r)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=sweep_inputs())
def test_rank1_sweep_bitwise(backend, data):
    count, total, sumsq, parent, values, valid = data
    args = (count, total, sumsq, parent[0], parent[1], parent[2],
            SWEEP_STATS, values, valid, "sum", ("count", "mean", "std"))
    fused = backend.rank1_sweep(*args)
    if fused is None:
        return
    _assert_bitwise(fused, plain.rank1_sweep(*args), "rank1_sweep")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("aggregate", ["count", "sum", "mean", "std",
                                       "var"])
def test_rank1_sweep_aggregates_bitwise(backend, aggregate):
    rng = np.random.default_rng(5)
    n, k = 17, 3
    count = rng.integers(0, 6, n).astype(float)
    total = rng.normal(10.0, 5.0, n) * count
    sumsq = np.where(count > 0,
                     total * total / np.maximum(count, 1.0) + 1.0, 0.0)
    values = rng.normal(5.0, 3.0, (n, k))
    valid = rng.random((n, k)) < 0.7
    args = (count, total, sumsq, float(count.sum()), float(total.sum()),
            float(sumsq.sum()), SWEEP_STATS, values, valid, aggregate,
            ("mean",))
    fused = backend.rank1_sweep(*args)
    assert fused is not None
    _assert_bitwise(fused, plain.rank1_sweep(*args), "rank1_sweep")


# -- the int64-overflow guard straddle -------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), overflow=st.booleans())
def test_combine_codes_straddles_radix_limit(seed, overflow):
    """combine_codes agrees across tiers on both sides of the guard.

    Just under ``_RADIX_LIMIT`` the kernel tier dispatches; at or above
    it the pre-kernel ``np.unique(axis=0)`` branch runs for both tiers.
    Outputs must be identical either way; the plain tier is forced by
    making the fused function decline.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    huge = 1 << 30
    # Two huge domains give radix 2^60 (just under the 2^62 guard); the
    # third size pushes it to exactly 2^62 (at the guard) or leaves it.
    third = 4 if overflow else 1
    sizes = [huge, huge, third]
    radix = sizes[0] * sizes[1] * sizes[2]
    assert (radix >= _RADIX_LIMIT) == overflow
    cols = [rng.integers(0, 50, n).astype(np.int32) for _ in range(2)]
    cols.append(rng.integers(0, third, n).astype(np.int32))
    fused = combine_codes(cols, sizes, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numpy_fused, "group_codes", lambda combined, radix: None)
        forced_plain = combine_codes(cols, sizes, n)
    _assert_bitwise(fused, forced_plain, "combine_codes")


# -- dispatch, counters, stats ---------------------------------------------------

@pytest.fixture
def fresh_counters():
    kernels.reset_kernel_stats()
    yield
    kernels.reset_kernel_stats()


def test_default_dispatch_is_fused(fresh_counters):
    combined = np.array([1, 0, 1], dtype=np.int64)
    kernels.group_codes(combined, 4)
    assert kernels.KERNEL_STATS["group_codes"] == {"fused": 1,
                                                   "fallback": 0}


def test_fused_error_propagates_and_dispatch_stays_fused(fresh_counters):
    """A raising fused kernel raises what plain raises, and nothing more:
    the next call still runs the fused tier."""
    n = 3
    args = (np.ones(n), np.full(n, 2.0), np.full(n, 5.0), 3.0, 6.0, 15.0,
            ("median",), np.ones((n, 1)), np.ones((n, 1), dtype=bool),
            "sum", ())
    with pytest.raises(AggregateError):
        plain.rank1_sweep(*args)
    with pytest.raises(AggregateError):
        kernels.rank1_sweep(*args)
    kernels.group_codes(np.array([1, 0, 1], dtype=np.int64), 4)
    assert kernels.KERNEL_STATS["group_codes"] == {"fused": 1,
                                                   "fallback": 0}


def test_counters_track_guard_fallback(fresh_counters):
    dup_r = np.array([2, 2], dtype=np.int64)
    lhs = np.array([2], dtype=np.int64)
    kernels.join_multiply(lhs, dup_r, np.ones(1), np.ones(2), 4)
    assert kernels.KERNEL_STATS["join_multiply"] == {"fused": 0,
                                                     "fallback": 1}
    stats = kernels.kernel_stats()
    assert stats["counters"]["join_multiply"]["fallback"] == 1
    # Snapshots are copies: mutating one must not corrupt the counters.
    stats["counters"]["join_multiply"]["fallback"] = 99
    assert kernels.KERNEL_STATS["join_multiply"]["fallback"] == 1


def test_service_stats_expose_kernels(fresh_counters):
    from repro.serving.service import ExplanationService

    stats = ExplanationService().stats()
    assert set(stats["kernels"]) == {"counters"}
    assert set(stats["kernels"]["counters"]) == set(kernels.KERNEL_STATS)
