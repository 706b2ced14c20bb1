"""Property tests: the live model fit ≡ the frozen ``emref`` fit, bitwise.

:mod:`repro.model.emref` freezes the dense EM and OLS arithmetic on raw
``(x, sizes, z_columns, y)`` arrays. The live trainers compute each
product once where the reference recomputes it, so they must agree
with it bit for bit: every :class:`MultilevelFit` field (``history``
included), ``fit_predict``/``fit_predict_many`` of both models, and the
OLS parameters. The seeded designs span 1 to 3,200 clusters, r = 1–3
random-effect columns (every ``z_columns`` subset shape), single-row
clusters, an all-zero column (singular ``XᵀX`` and cluster grams, and
with no ridge the pseudo-inverse fallback), and 0, 1 and 20 EM
iterations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.model import emref
from repro.model.backends import DenseDesign
from repro.model.linear import LinearModel
from repro.model.multilevel import MultilevelModel

CLUSTER_COUNTS = (1, 2, 7, 64, 3200)
SIZE_SHAPES = ("mixed", "single", "wide")
ITERATIONS = (0, 1, 20)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _design(seed: int, n_clusters: int, sizes_shape: str, m: int,
            z_columns: tuple[int, ...] | None, zero_column: bool):
    """A cluster-sorted matrix with an intercept and two targets."""
    rng = np.random.default_rng(seed)
    if sizes_shape == "single":
        sizes = np.ones(n_clusters, dtype=int)
    elif sizes_shape == "wide":
        sizes = rng.integers(1, 40, n_clusters)
    else:  # single-row clusters beside larger ones
        sizes = rng.choice([1, 1, 2, 3, 8], n_clusters)
    n = int(sizes.sum())
    x = rng.normal(size=(n, m))
    x[:, 0] = 1.0
    if zero_column:
        x[:, m - 1] = 0.0
    effects = rng.normal(scale=2.0, size=(n_clusters, m))
    base = x @ rng.normal(size=m) \
        + np.einsum("ni,ni->n", x, np.repeat(effects, sizes, axis=0))
    ys = [base + rng.normal(scale=0.5, size=n),
          np.round(rng.normal(10.0, 3.0, size=n))]
    return x, sizes, z_columns, ys


@st.composite
def designs(draw):
    m = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["all", "default", "subset"]))
    if shape == "all":
        z_columns = tuple(range(m))
    elif shape == "default":
        z_columns = None
    else:
        r = draw(st.integers(1, min(3, m)))
        z_columns = tuple(sorted(draw(st.permutations(range(m)))[:r]))
    return (draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(
        CLUSTER_COUNTS)), draw(st.sampled_from(SIZE_SHAPES)), m, z_columns,
        draw(st.booleans()) and m > 1)


def _assert_fit_equal(live, ref) -> None:
    assert _bits(live.beta) == _bits(ref.beta), "beta"
    assert _bits(live.cov) == _bits(ref.cov), "cov"
    assert _bits(live.sigma2) == _bits(ref.sigma2), "sigma2"
    assert type(live.sigma2) is type(ref.sigma2)
    assert _bits(live.b) == _bits(ref.b), "b"
    assert live.b.shape == ref.b.shape
    assert (live.n, live.m, live.r) == (ref.n, ref.m, ref.r)
    assert _bits(live.history) == _bits(ref.history), "history"
    assert len(live.history) == len(ref.history)


@given(designs(), st.sampled_from(ITERATIONS))
@example((11, 3200, "mixed", 3, None, False), 20)
@example((12, 3200, "wide", 4, (0, 2, 3), True), 1)
@example((13, 1, "wide", 3, (1,), False), 20)
@example((14, 64, "single", 2, (0, 1), True), 0)
def test_multilevel_matches_emref(case, n_iterations):
    x, sizes, z_columns, ys = _design(*case)
    design = DenseDesign(x, sizes, z_columns=z_columns)
    model = MultilevelModel(n_iterations=n_iterations)
    for y in ys:
        _assert_fit_equal(model.fit(design, y), emref.fit_multilevel(
            x, sizes, z_columns, y, n_iterations))
        want = emref.fit_predict_multilevel(x, sizes, z_columns, y,
                                            n_iterations)
        assert _bits(model.fit_predict(design, y)) == _bits(want)
    many = model.fit_predict_many(DenseDesign(x, sizes, z_columns), ys)
    for got, y in zip(many, ys):
        want = emref.fit_predict_multilevel(x, sizes, z_columns, y,
                                            n_iterations)
        assert _bits(got) == _bits(want), "fit_predict_many"


@given(designs())
@example((21, 3200, "wide", 4, None, True))
def test_linear_matches_emref(case):
    x, sizes, z_columns, ys = _design(*case)
    design = DenseDesign(x, sizes, z_columns=z_columns)
    model = LinearModel()
    for y, got in zip(ys, model.fit_predict_many(design, ys)):
        assert _bits(got) == _bits(emref.fit_predict_linear(x, y))
        assert _bits(model.fit_predict(design, y)) == _bits(got)
        fit = model.fit(design, y)
        beta, sigma2 = emref.fit_linear(x, y)
        assert _bits(fit.beta) == _bits(beta)
        assert _bits(fit.sigma2) == _bits(sigma2)


@pytest.mark.parametrize("n_iterations", ITERATIONS)
def test_singular_system_without_ridge_matches_emref(n_iterations):
    """A zero column and no ridge make ``XᵀX`` exactly singular: both
    fits take the pseudo-inverse fallback for every β̂ solve."""
    x, sizes, z_columns, ys = _design(5, 7, "mixed", 3, None, True)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(x.T @ x, x.T @ ys[0])
    design = DenseDesign(x, sizes)
    model = MultilevelModel(n_iterations=n_iterations, ridge=0.0)
    for y in ys:
        _assert_fit_equal(model.fit(design, y), emref.fit_multilevel(
            x, sizes, None, y, n_iterations, ridge=0.0))
    live = LinearModel(ridge=0.0).fit(design, ys[0])
    beta, sigma2 = emref.fit_linear(x, ys[0], ridge=0.0)
    assert _bits(live.beta) == _bits(beta)
    assert _bits(live.sigma2) == _bits(sigma2)
