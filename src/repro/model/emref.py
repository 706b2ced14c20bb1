"""Frozen dense reference of the model fit: the EM of Appendix D and OLS.

This module freezes the multi-level EM trainer and the OLS solve exactly
as they ran over a dense design before the fit loop was trimmed: every
EM iteration recomputes ``y − X·β̂`` for its E step, the ridge system
``XᵀX + jitter·I`` is rebuilt for every solve, ``Z·b̂`` gathers the
cluster effects row by row, and the prediction ``X·β̂ + Z·b̂`` is
recomputed from the fitted parameters. It works on raw arrays — the
cluster-sorted matrix ``x``, the cluster ``sizes``, the random-effect
``z_columns`` and the target ``y`` — and shares no code with the live
:class:`~repro.model.backends.DenseDesign`,
:func:`~repro.model.linear.solve_spd` or the live trainers. It mirrors
:mod:`repro.core.rankref` one layer down, and exists for the same
reasons:

* **ground truth** — ``tests/test_emref_properties.py`` asserts that the
  live :class:`~repro.model.multilevel.MultilevelModel` and
  :class:`~repro.model.linear.LinearModel` produce *exactly* these fits
  and predictions (bitwise), and :mod:`repro.core.rankref` fits through
  this module, so the recommend oracle is frozen end to end;
* **benchmarking** — ``benchmarks/bench_fig19_recommend.py`` times the
  live fit against it on the drought leaf level.

Nothing in the engine calls into this module; do not "optimize" it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

#: Floors keeping the EM iterations numerically sane on degenerate data.
MIN_SIGMA2 = 1e-10
MIN_COV_EIGENVALUE = 1e-10

#: Ridge added to the normal equations (both models' default).
RIDGE = 1e-8


class EMFit(NamedTuple):
    """The fitted parameters, field for field as ``MultilevelFit``."""

    beta: np.ndarray
    cov: np.ndarray
    sigma2: float
    b: np.ndarray
    n: int
    m: int
    r: int
    history: list


def _solve_spd(a: np.ndarray, b: np.ndarray, ridge: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    scale = np.trace(a) / m if m else 1.0
    jitter = ridge * max(scale, 1.0)
    try:
        return np.linalg.solve(a + jitter * np.eye(m), b)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a) @ b


def _stable_inverse(a: np.ndarray) -> np.ndarray:
    a = 0.5 * (a + a.T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a)
    values = np.maximum(values, MIN_COV_EIGENVALUE)
    return (vectors / values) @ vectors.T


class _Dense:
    """The dense products, as the design computed them."""

    def __init__(self, x, sizes, z_columns):
        self.x = np.asarray(x, dtype=float)
        self.sizes = np.asarray(sizes, dtype=int)
        self.z_columns = list(range(self.x.shape[1])) if z_columns is None \
            else list(z_columns)
        self.offsets = np.zeros(len(self.sizes) + 1, dtype=int)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self.z = self.x[:, self.z_columns]
        self.row_cluster = np.repeat(np.arange(len(self.sizes)), self.sizes)

    def gram(self):
        return self.x.T @ self.x

    def xt_v(self, v):
        return self.x.T @ v

    def x_beta(self, beta):
        return self.x @ beta

    def cluster_grams(self):
        outer = np.einsum("ni,nj->nij", self.z, self.z)
        return np.add.reduceat(outer, self.offsets[:-1], axis=0)

    def cluster_zt_v(self, v):
        return np.add.reduceat(self.z * np.asarray(v)[:, None],
                               self.offsets[:-1], axis=0)

    def z_b(self, b):
        return np.einsum("ni,ni->n", self.z, b[self.row_cluster])


def fit_multilevel(x: np.ndarray, sizes: Sequence[int],
                   z_columns: Sequence[int] | None, y: np.ndarray,
                   n_iterations: int = 20, ridge: float = RIDGE) -> EMFit:
    """The multi-level EM fit (eqs. 8–14) over a cluster-sorted matrix."""
    d = _Dense(x, sizes, z_columns)
    y = np.asarray(y, dtype=float)
    n, m, r, big_g = d.x.shape[0], d.x.shape[1], len(d.z_columns), \
        len(d.sizes)
    gram = d.gram()
    cluster_grams = d.cluster_grams()

    beta = _solve_spd(gram, d.xt_v(y), ridge)
    residual = y - d.x_beta(beta)
    sigma2 = max(float(residual @ residual) / max(n, 1), MIN_SIGMA2)
    cov = np.eye(r) * sigma2
    b = np.zeros((big_g, r))
    history: list[float] = []

    for _ in range(n_iterations):
        cov_inv = _stable_inverse(cov)
        v = np.linalg.inv(cluster_grams / sigma2 + cov_inv[None, :, :])
        resid_fixed = y - d.x_beta(beta)
        zt_r = d.cluster_zt_v(resid_fixed)
        mu = np.einsum("gij,gj->gi", v, zt_r) / sigma2
        b = mu
        ebbt = v + np.einsum("gi,gj->gij", mu, mu)

        zb = d.z_b(b)
        beta = _solve_spd(gram, d.xt_v(y - zb), ridge)
        cov = ebbt.mean(axis=0)
        cov = 0.5 * (cov + cov.T)
        resid = y - d.x_beta(beta)
        trace_term = float(np.einsum("gij,gij->", cluster_grams, ebbt))
        sigma2 = (float(resid @ resid) + trace_term
                  - 2.0 * float(resid @ zb)) / max(n, 1)
        sigma2 = max(sigma2, MIN_SIGMA2)
        history.append(sigma2)

    return EMFit(beta=beta, cov=cov, sigma2=sigma2, b=b, n=n, m=m, r=r,
                 history=history)


def predict_multilevel(x: np.ndarray, sizes: Sequence[int],
                       z_columns: Sequence[int] | None, fit: EMFit
                       ) -> np.ndarray:
    """ŷ = X·β̂ + Z·b̂ with the cluster BLUPs."""
    d = _Dense(x, sizes, z_columns)
    return d.x_beta(fit.beta) + d.z_b(fit.b)


def fit_predict_multilevel(x: np.ndarray, sizes: Sequence[int],
                           z_columns: Sequence[int] | None, y: np.ndarray,
                           n_iterations: int = 20) -> np.ndarray:
    """The repair values of one multi-level fit."""
    fit = fit_multilevel(x, sizes, z_columns, y, n_iterations)
    return predict_multilevel(x, sizes, z_columns, fit)


def fit_linear(x: np.ndarray, y: np.ndarray, ridge: float = RIDGE
               ) -> tuple[np.ndarray, float]:
    """OLS ``(β̂, σ̂²)`` through the ridge-stabilised normal equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    beta = _solve_spd(x.T @ x, x.T @ y, ridge)
    residual = y - x @ beta
    sigma2 = float(residual @ residual) / n if n else 0.0
    return beta, sigma2


def fit_predict_linear(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fitted values ŷ = X·β̂ of one OLS fit."""
    beta, _ = fit_linear(x, y)
    return np.asarray(x, dtype=float) @ beta
