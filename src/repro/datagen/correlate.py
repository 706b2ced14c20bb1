"""Rank-correlation induction, Iman & Conover [23] (§5.2.1).

The accuracy experiments need auxiliary measures with a *tunable, weak*
correlation (ρ ∈ [0.6, 1.0]) to the true group statistics. Following the
paper, we use the distribution-free Iman–Conover procedure: build scores
``ρ·s(t) + √(1−ρ²)·z`` from the van der Waerden scores of the target's
ranks, then reorder the auxiliary sample so its ranks match the scores'
ranks. The auxiliary marginal distribution is preserved exactly; only the
rank order changes.
"""

from __future__ import annotations

import math

import numpy as np


def van_der_waerden_scores(values: np.ndarray) -> np.ndarray:
    """Normal scores Φ⁻¹(rank / (n+1)) of a sample."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    ranks = np.empty(n)
    ranks[np.argsort(values, kind="stable")] = np.arange(1, n + 1)
    return _norm_ppf(ranks / (n + 1))


def induce_correlation(target: np.ndarray, sample: np.ndarray, rho: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Reorder ``sample`` to have rank correlation ≈ ``rho`` with ``target``.

    Parameters
    ----------
    target:
        The vector the output should correlate with (not modified).
    sample:
        Values whose marginal distribution the output keeps.
    rho:
        Desired rank correlation in [-1, 1].
    rng:
        Randomness source for the independent component.
    """
    target = np.asarray(target, dtype=float)
    sample = np.asarray(sample, dtype=float)
    if target.shape != sample.shape:
        raise ValueError(
            f"target {target.shape} and sample {sample.shape} differ")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [-1, 1], got {rho}")
    n = len(target)
    if n == 0:
        return sample.copy()
    scores = (rho * van_der_waerden_scores(target)
              + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.standard_normal(n))
    # Place the k-th smallest sample value at the position of the k-th
    # smallest score.
    score_order = np.argsort(scores, kind="stable")
    out = np.empty(n)
    out[score_order] = np.sort(sample)
    return out


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (no scipy dependency at runtime)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ra = np.empty(len(a))
    rb = np.empty(len(b))
    ra[np.argsort(a, kind="stable")] = np.arange(len(a))
    rb[np.argsort(b, kind="stable")] = np.arange(len(b))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    return float(ra @ rb) / denom if denom else 0.0


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile function (Acklam's rational approximation).

    Max absolute error ≈ 1.15e−9 — far below what rank scores need.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("probabilities must lie strictly in (0, 1)")
    a = [-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00]
    p_low, p_high = 0.02425, 1 - 0.02425
    out = np.empty_like(p)

    low = p < p_low
    if np.any(low):
        q = np.sqrt(-2 * np.log(p[low]))
        out[low] = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                     * q + c[5])
                    / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    mid = (p >= p_low) & (p <= p_high)
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        out[mid] = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
                     * r + a[5]) * q
                    / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                        + b[4]) * r + 1))
    high = p > p_high
    if np.any(high):
        q = np.sqrt(-2 * np.log1p(-p[high]))
        out[high] = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q
                        + c[4]) * q + c[5])
                      / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    return out
