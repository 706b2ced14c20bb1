"""Multi-level (mixed-effects) linear model trained with EM (Appendix D).

The model of §3.2, for clusters i = 1..G:

    y_i = X_i·β + Z_i·b_i + ε_i,   b_i ~ N(0, Σ),   ε_i ~ N(0, σ²·I)

EM alternates the expectation of the cluster effects (eqs. 8–11):

    V_i = (Z_iᵀZ_i/σ̂² + Σ̂⁻¹)⁻¹
    μ_i = V_i·Z_iᵀ·(y_i − X_i·β̂)/σ̂²          E[b_i] = μ_i
    E[b_i·b_iᵀ] = V_i + μ_i·μ_iᵀ

with the maximisation of β, Σ, σ² (eqs. 12–14):

    β̂  = (XᵀX)⁻¹·Xᵀ·(y − Z·b̂)
    Σ̂  = (1/G)·Σ_i E[b_i·b_iᵀ]
    σ̂² = (1/n)·( ‖y−Xβ̂‖² + Σ_i Tr(Z_iᵀZ_i·E[b_i b_iᵀ]) − 2(y−Xβ̂)ᵀ(Z·b̂) )

Everything reaches the data through the :class:`Design` protocol, so the
same code trains over the dense (Matlab/Lapack-style) and the factorised
backend; ``Z·b̂`` uses the vertical-concatenation trick and β̂ uses the
multiplication-order optimization, both from Appendix D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import Design
from .linear import spd_solver

#: Floors keeping the EM iterations numerically sane on degenerate data.
MIN_SIGMA2 = 1e-10
MIN_COV_EIGENVALUE = 1e-10


@dataclass
class MultilevelFit:
    """Fitted multi-level model parameters and per-cluster BLUPs."""

    beta: np.ndarray          # fixed effects (m,)
    cov: np.ndarray           # random-effect covariance Σ (r, r)
    sigma2: float             # noise variance σ²
    b: np.ndarray             # per-cluster effects b̂ (G, r)
    n: int
    m: int
    r: int
    history: list[float] = field(default_factory=list)  # σ² per iteration

    @property
    def n_parameters(self) -> int:
        """β, the free entries of Σ, and σ² (Appendix K's AIC count)."""
        return self.m + self.r * (self.r + 1) // 2 + 1


class MultilevelModel:
    """EM trainer for the multi-level linear model.

    Parameters
    ----------
    n_iterations:
        EM iterations (the paper's experiments use 20).
    ridge:
        Stabilisation for the inner linear solves.
    """

    def __init__(self, n_iterations: int = 20, ridge: float = 1e-8):
        self.n_iterations = n_iterations
        self.ridge = ridge

    def fit(self, design: Design, y: np.ndarray,
            precomputed: tuple[np.ndarray, np.ndarray] | None = None
            ) -> MultilevelFit:
        return self._em(design, y, precomputed)[0]

    def _em(self, design: Design, y: np.ndarray,
            precomputed: tuple[np.ndarray, np.ndarray] | None
            ) -> tuple[MultilevelFit, np.ndarray]:
        """The EM loop; returns the fit and its prediction X·β̂ + Z·b̂.

        Each product is computed once: the residual ``y − X·β̂`` of one
        M step (or of the OLS start) is the next E step's, the ridge
        system for β̂ is built once, and the prediction adds the last
        iteration's ``X·β̂`` and ``Z·b̂``. Every value equals, bit for
        bit, what recomputing it would give (the frozen
        :mod:`repro.model.emref` recomputes them all).
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (design.n,):
            raise ValueError(f"y has shape {y.shape}, expected ({design.n},)")
        n, m, r, big_g = design.n, design.m, design.r, design.n_clusters

        # Precomputable data-only quantities (Appendix D "Bottleneck");
        # fit_predict_many passes them in once for a batch of targets.
        if precomputed is not None:
            gram, cluster_grams = precomputed
        else:
            gram = design.gram()
            cluster_grams = design.cluster_grams()  # (G, r, r)
        solve = spd_solver(gram, self.ridge)

        # Initialise from OLS: β from the fixed part, Σ and σ² from its
        # residual spread.
        beta = solve(design.xt_v(y))
        x_beta = design.x_beta(beta)
        resid = y - x_beta
        sigma2 = max(float(resid @ resid) / max(n, 1), MIN_SIGMA2)
        cov = np.eye(r) * sigma2
        b = np.zeros((big_g, r))
        zb = None
        history: list[float] = []

        for _ in range(self.n_iterations):
            # ---- E step (eqs. 8–11), batched over clusters ----
            cov_inv = _stable_inverse(cov)
            v = np.linalg.inv(cluster_grams / sigma2 + cov_inv[None, :, :])
            zt_r = design.cluster_zt_v(resid)                # (G, r)
            mu = np.einsum("gij,gj->gi", v, zt_r) / sigma2   # (G, r)
            b = mu
            ebbt = v + np.einsum("gi,gj->gij", mu, mu)       # (G, r, r)

            # ---- M step (eqs. 12–14) ----
            zb = design.z_b(b)
            beta = solve(design.xt_v(y - zb))
            cov = ebbt.mean(axis=0)
            cov = 0.5 * (cov + cov.T)  # keep symmetric under roundoff
            x_beta = design.x_beta(beta)
            resid = y - x_beta
            trace_term = float(np.einsum("gij,gij->", cluster_grams, ebbt))
            sigma2 = (float(resid @ resid) + trace_term
                      - 2.0 * float(resid @ zb)) / max(n, 1)
            sigma2 = max(sigma2, MIN_SIGMA2)
            history.append(sigma2)

        if zb is None:
            zb = design.z_b(b)
        fit = MultilevelFit(beta=beta, cov=cov, sigma2=sigma2, b=b,
                            n=n, m=m, r=r, history=history)
        return fit, x_beta + zb

    def fit_predict(self, design: Design, y: np.ndarray) -> np.ndarray:
        """Fitted per-row expectations ŷ = X·β̂ + Z·b̂ (the repair values)."""
        return self._em(design, y, None)[1]

    def fit_predict_many(self, design: Design,
                         ys: "list[np.ndarray]") -> list[np.ndarray]:
        """Fitted expectations for many targets over one shared design.

        The Appendix D precomputables — ``XᵀX`` and the per-cluster
        ``Z_iᵀZ_i`` stack — depend only on the data, so one computation
        serves every target; the EM iterations themselves run per target
        (their state depends on y), keeping each output bitwise-equal to
        ``fit_predict(design, y)``.
        """
        precomputed = (design.gram(), design.cluster_grams())
        return [self._em(design, y, precomputed)[1] for y in ys]

    @staticmethod
    def predict(design: Design, fit: MultilevelFit) -> np.ndarray:
        """ŷ = X·β̂ + Z·b̂ with the cluster BLUPs."""
        return design.x_beta(fit.beta) + design.z_b(fit.b)

    @staticmethod
    def log_likelihood(design: Design, fit: MultilevelFit, y: np.ndarray
                       ) -> float:
        """Marginal Gaussian log-likelihood of the fitted model.

        Per cluster, ``y_i ~ N(X_i·β, Z_i·Σ·Z_iᵀ + σ²I)``; determinant and
        quadratic form are evaluated through the Woodbury identity using
        only the per-cluster sufficient statistics, so this works on both
        backends without materialising Z_i.
        """
        y = np.asarray(y, dtype=float)
        resid = y - design.x_beta(fit.beta)
        sizes = design.cluster_sizes()
        grams = design.cluster_grams()                       # (G, r, r)
        zt_r = design.cluster_zt_v(resid)                    # (G, r)
        sq = design.cluster_sq_norms(resid)                  # (G,)
        sigma2 = max(fit.sigma2, MIN_SIGMA2)
        r = fit.r
        eye_r = np.eye(r)

        # log det(σ²I + Z Σ Zᵀ) = n_i·log σ² + log det(I_r + Σ·G_i/σ²)
        inner = eye_r[None, :, :] + fit.cov @ grams / sigma2
        sign, logdet_inner = np.linalg.slogdet(inner)
        if np.any(sign <= 0):
            # Σ nearly singular — fall back to a symmetrised stable form.
            inner = eye_r[None, :, :] + \
                (grams @ fit.cov + np.transpose(grams @ fit.cov, (0, 2, 1))) / (2 * sigma2)
            sign, logdet_inner = np.linalg.slogdet(inner)
            logdet_inner = np.where(sign > 0, logdet_inner, 0.0)
        logdets = sizes * math.log(sigma2) + logdet_inner

        # Quadratic form via Woodbury:
        #   rᵀC⁻¹r = (‖r‖² − wᵀ(σ²Σ⁻¹ + G_i)⁻¹w)/σ²  with w = Z_iᵀr.
        middle = sigma2 * _stable_inverse(fit.cov)[None, :, :] + grams
        solved = np.linalg.solve(middle, zt_r[:, :, None])[:, :, 0]
        quad = (sq - np.einsum("gi,gi->g", zt_r, solved)) / sigma2

        n = design.n
        return float(-0.5 * (n * math.log(2 * math.pi)
                             + logdets.sum() + quad.sum()))


def _stable_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix with an eigenvalue floor."""
    a = 0.5 * (a + a.T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a)
    values = np.maximum(values, MIN_COV_EIGENVALUE)
    return (vectors / values) @ vectors.T
