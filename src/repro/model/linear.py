"""Ordinary least squares — the non-hierarchical baseline model (§3.2).

The "Naive Approach" of §3.2: ``y = X·β + ε``. Used standalone in the
model-quality comparison of Appendix K (Figure 16) and as the
initialisation of the multi-level EM. A small ridge keeps the normal
equations solvable when main-effect features are collinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backends import Design

#: Ridge added to normal equations for numerical stability.
DEFAULT_RIDGE = 1e-8


@dataclass
class LinearFit:
    """A fitted linear model with Gaussian-noise likelihood."""

    beta: np.ndarray
    sigma2: float
    n: int
    m: int

    @property
    def n_parameters(self) -> int:
        """β plus the noise variance."""
        return self.m + 1

    def log_likelihood(self, residual_ss: float | None = None) -> float:
        """Gaussian log-likelihood at the MLE (requires stored σ²)."""
        sigma2 = max(self.sigma2, 1e-300)
        return -0.5 * self.n * (math.log(2 * math.pi * sigma2) + 1.0)

    def aic(self) -> float:
        """Akaike information criterion, ``2k − 2·lnL̂`` (Appendix K)."""
        return 2.0 * self.n_parameters - 2.0 * self.log_likelihood()


class LinearModel:
    """OLS over any :class:`Design` backend.

    Parameters
    ----------
    ridge:
        Tikhonov stabilisation added to XᵀX before solving.
    """

    def __init__(self, ridge: float = DEFAULT_RIDGE):
        self.ridge = ridge

    def fit(self, design: Design, y: np.ndarray) -> LinearFit:
        return self._ols(design, y, spd_solver(design.gram(), self.ridge))[0]

    def _ols(self, design: Design, y: np.ndarray,
             solve: Callable[[np.ndarray], np.ndarray]
             ) -> tuple[LinearFit, np.ndarray]:
        """The fit and its fitted values X·β̂ (computed once)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (design.n,):
            raise ValueError(f"y has shape {y.shape}, expected ({design.n},)")
        beta = solve(design.xt_v(y))
        x_beta = design.x_beta(beta)
        residual = y - x_beta
        sigma2 = float(residual @ residual) / design.n if design.n else 0.0
        return LinearFit(beta=beta, sigma2=sigma2, n=design.n,
                         m=design.m), x_beta

    def fit_predict(self, design: Design, y: np.ndarray) -> np.ndarray:
        """Fitted values ŷ = X·β̂."""
        return self._ols(design, y, spd_solver(design.gram(), self.ridge))[1]

    def fit_predict_many(self, design: Design,
                         ys: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Fitted values for many targets over one shared design.

        ``XᵀX`` and its ridge system are data-only, so they are built
        once and reused for every target; each solve then runs per target
        (a batched multi-RHS ``solve`` is *not* bitwise-identical to
        per-column solves, and the recommend path promises exact
        equality with the per-statistic reference), making each output
        bitwise-equal to ``fit_predict(design, y)``.
        """
        solve = spd_solver(design.gram(), self.ridge)
        return [self._ols(design, y, solve)[1] for y in ys]


def spd_solver(a: np.ndarray, ridge: float = DEFAULT_RIDGE
               ) -> Callable[[np.ndarray], np.ndarray]:
    """``b ↦ solve_spd(a, b, ridge)``, with the ridge system built once."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    scale = np.trace(a) / m if m else 1.0
    jitter = ridge * max(scale, 1.0)
    jittered = a + jitter * np.eye(m)

    def solve(b: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(jittered, b)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(a) @ b
    return solve


def solve_spd(a: np.ndarray, b: np.ndarray, ridge: float = DEFAULT_RIDGE
              ) -> np.ndarray:
    """Solve a symmetric positive (semi-)definite system robustly.

    Adds ``ridge·trace/m`` to the diagonal; falls back to the
    pseudo-inverse if the system is still singular.
    """
    return spd_solver(a, ridge)(b)
