"""Model-training backends: dense ("Matlab/Lapack") and factorized.

The EM algorithm of Appendix D only touches the data through six matrix
products — ``XᵀX``, ``Xᵀv``, ``Xβ`` and their per-cluster counterparts
``Z_iᵀZ_i``, ``Z_iᵀv_i``, ``Z_i·b_i`` — plus per-cluster squared norms.
A :class:`Design` bundles exactly those operations, so one EM implementation
trains over either backend:

* :class:`DenseDesign` materialises X (numpy = LAPACK, the paper's
  Matlab/Lapack baseline);
* :class:`FactorizedDesign` delegates to the factorised operators of
  :mod:`repro.factorized` and never materialises X.

Both also expose the per-cluster sufficient statistics needed for the
marginal log-likelihood (model selection, Appendix K).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..factorized.cluster_ops import ClusterOps
from ..factorized.matrix import FactorizedMatrix


class Design(Protocol):
    """The sufficient-statistics interface EM trains against."""

    @property
    def n(self) -> int: ...
    @property
    def m(self) -> int: ...
    @property
    def r(self) -> int: ...
    @property
    def n_clusters(self) -> int: ...

    def gram(self) -> np.ndarray: ...
    def xt_v(self, v: np.ndarray) -> np.ndarray: ...
    def x_beta(self, beta: np.ndarray) -> np.ndarray: ...
    def cluster_grams(self) -> np.ndarray: ...
    def cluster_zt_v(self, v: np.ndarray) -> np.ndarray: ...
    def z_b(self, b: np.ndarray) -> np.ndarray: ...
    def cluster_sizes(self) -> np.ndarray: ...
    def cluster_sq_norms(self, v: np.ndarray) -> np.ndarray: ...


class DenseDesign:
    """Materialised design matrix with contiguous clusters.

    Parameters
    ----------
    x:
        (n × m) design matrix, rows sorted so each cluster is contiguous.
    sizes:
        Rows per cluster, in row order.
    z_columns:
        Column indices forming the random-effects matrix Z (§3.3.4);
        default: all columns (Z = X, the paper's default).
    """

    def __init__(self, x: np.ndarray, sizes: Sequence[int],
                 z_columns: Sequence[int] | None = None):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        self.sizes = np.asarray(sizes, dtype=int)
        if self.sizes.sum() != self.x.shape[0]:
            raise ValueError(
                f"cluster sizes sum to {self.sizes.sum()}, matrix has "
                f"{self.x.shape[0]} rows")
        self.z_columns = list(range(self.x.shape[1])) if z_columns is None \
            else list(z_columns)
        self.offsets = np.zeros(len(self.sizes) + 1, dtype=int)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self._z = self.x[:, self.z_columns]
        # Data-only products, cached so batched fits over one design
        # (fit_predict_many) pay for them once. The design is treated as
        # immutable after construction.
        self._gram_cache: np.ndarray | None = None
        self._cluster_gram_cache: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    @property
    def r(self) -> int:
        return len(self.z_columns)

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    def gram(self) -> np.ndarray:
        if self._gram_cache is None:
            self._gram_cache = self.x.T @ self.x
        return self._gram_cache

    def xt_v(self, v: np.ndarray) -> np.ndarray:
        return self.x.T @ v

    def x_beta(self, beta: np.ndarray) -> np.ndarray:
        return self.x @ beta

    def cluster_grams(self) -> np.ndarray:
        if self._cluster_gram_cache is None:
            outer = np.einsum("ni,nj->nij", self._z, self._z)
            self._cluster_gram_cache = np.add.reduceat(
                outer, self.offsets[:-1], axis=0)
        return self._cluster_gram_cache

    def cluster_zt_v(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self._z * np.asarray(v)[:, None],
                               self.offsets[:-1], axis=0)

    def z_b(self, b: np.ndarray) -> np.ndarray:
        return np.einsum("ni,ni->n", self._z,
                         np.repeat(b, self.sizes, axis=0))

    def cluster_sizes(self) -> np.ndarray:
        return self.sizes.astype(float)

    def cluster_sq_norms(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.add.reduceat(v * v, self.offsets[:-1])


class FactorizedDesign:
    """Design over a :class:`FactorizedMatrix`; X is never materialised."""

    def __init__(self, matrix: FactorizedMatrix,
                 z_columns: Sequence[int] | None = None):
        self.matrix = matrix
        self.z_columns = list(range(matrix.n_cols)) if z_columns is None \
            else list(z_columns)
        self._cluster_ops = ClusterOps(matrix, self.z_columns)
        self.offsets = self._cluster_ops.offsets
        self._gram_cache: np.ndarray | None = None
        self._cluster_gram_cache: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def m(self) -> int:
        return self.matrix.n_cols

    @property
    def r(self) -> int:
        return len(self.z_columns)

    @property
    def n_clusters(self) -> int:
        return self._cluster_ops.n_clusters

    def gram(self) -> np.ndarray:
        # The EM loop asks repeatedly; XᵀX is data-only, so cache it
        # (the "precompute XᵀX and Z_iᵀZ_i" note of Appendix D).
        if self._gram_cache is None:
            self._gram_cache = self.matrix.gram()
        return self._gram_cache

    def xt_v(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.left_multiply(np.asarray(v)[None, :])[0]

    def x_beta(self, beta: np.ndarray) -> np.ndarray:
        return self.matrix.right_multiply(np.asarray(beta))

    def cluster_grams(self) -> np.ndarray:
        if self._cluster_gram_cache is None:
            self._cluster_gram_cache = self._cluster_ops.cluster_grams()
        return self._cluster_gram_cache

    def cluster_zt_v(self, v: np.ndarray) -> np.ndarray:
        return self._cluster_ops.cluster_left(v)

    def z_b(self, b: np.ndarray) -> np.ndarray:
        return self._cluster_ops.cluster_right(b)

    def cluster_sizes(self) -> np.ndarray:
        return self._cluster_ops.cluster_sizes().astype(float)

    def cluster_sq_norms(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.add.reduceat(v * v, self.offsets[:-1])
