"""Tests for the linear and multi-level models and their backends."""

import numpy as np
import pytest

from repro.factorized import (Factorizer, FactorizedMatrix, FeatureColumn,
                              intercept_column)
from repro.model.backends import DenseDesign
from repro.model.linear import LinearModel, solve_spd
from repro.model.matlab_style import MatlabStyleEM
from repro.model.multilevel import MultilevelModel
from repro.model.pipeline import FactorizedDesign

from factorized_strategies import build_hierarchy
from repro.factorized.forder import AttributeOrder


def random_design(rng, n_clusters=10, size_range=(2, 7), m=4):
    sizes = rng.integers(size_range[0], size_range[1], size=n_clusters)
    n = int(sizes.sum())
    x = rng.normal(size=(n, m))
    x[:, 0] = 1.0
    return DenseDesign(x, sizes), x, sizes


def simulate_lmm(rng, design, beta, cov_scale=0.5, noise=0.3):
    """Draw y from the §3.2 generative model."""
    x = design.x
    z = x[:, design.z_columns]
    g = design.n_clusters
    r = design.r
    b = rng.normal(scale=cov_scale, size=(g, r))
    row_cluster = np.repeat(np.arange(g), design.sizes)
    y = x @ beta + np.einsum("ni,ni->n", z, b[row_cluster]) \
        + rng.normal(scale=noise, size=x.shape[0])
    return y, b


class TestSolveSpd:
    def test_solves_well_conditioned(self, rng):
        a = rng.normal(size=(4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        b = rng.normal(size=4)
        np.testing.assert_allclose(solve_spd(spd, b, ridge=0.0),
                                   np.linalg.solve(spd, b), rtol=1e-8)

    def test_singular_falls_back(self):
        a = np.zeros((3, 3))
        out = solve_spd(a, np.ones(3))
        assert np.all(np.isfinite(out))


class TestLinearModel:
    def test_recovers_coefficients(self, rng):
        design, x, _ = random_design(rng)
        beta = np.asarray([1.0, -2.0, 0.5, 3.0])
        y = x @ beta + rng.normal(scale=0.01, size=design.n)
        fit = LinearModel().fit(design, y)
        np.testing.assert_allclose(fit.beta, beta, atol=0.05)

    def test_shape_check(self, rng):
        design, _, _ = random_design(rng)
        with pytest.raises(ValueError):
            LinearModel().fit(design, np.ones(3))

    def test_aic_decreases_with_better_fit(self, rng):
        design, x, sizes = random_design(rng)
        beta = np.asarray([1.0, -2.0, 0.5, 3.0])
        y_clean = x @ beta + rng.normal(scale=0.01, size=design.n)
        y_noisy = x @ beta + rng.normal(scale=5.0, size=design.n)
        assert LinearModel().fit(design, y_clean).aic() < \
            LinearModel().fit(design, y_noisy).aic()


class TestMultilevelEM:
    def test_sigma2_decreases(self, rng):
        design, x, _ = random_design(rng, n_clusters=20)
        beta = np.asarray([2.0, 1.0, -1.0, 0.5])
        y, _ = simulate_lmm(rng, design, beta)
        fit = MultilevelModel(n_iterations=15).fit(design, y)
        # EM on a correctly specified model should not increase σ².
        assert fit.history[-1] <= fit.history[0] * 1.01

    def test_recovers_fixed_effects(self, rng):
        design, x, _ = random_design(rng, n_clusters=60, size_range=(4, 9))
        beta = np.asarray([2.0, 1.0, -1.0, 0.5])
        y, _ = simulate_lmm(rng, design, beta, cov_scale=0.2, noise=0.1)
        fit = MultilevelModel(n_iterations=20).fit(design, y)
        np.testing.assert_allclose(fit.beta, beta, atol=0.35)

    def test_blups_shrink_toward_zero(self, rng):
        """Cluster effects are posterior means — smaller than raw effects."""
        design, x, _ = random_design(rng, n_clusters=30)
        beta = np.zeros(4)
        y, b_true = simulate_lmm(rng, design, beta, cov_scale=1.0, noise=2.0)
        fit = MultilevelModel(n_iterations=15).fit(design, y)
        assert np.linalg.norm(fit.b) < np.linalg.norm(b_true) * 1.5

    def test_fit_better_than_linear(self, rng):
        design, x, _ = random_design(rng, n_clusters=40)
        beta = np.asarray([1.0, 0.5, -0.5, 0.0])
        y, _ = simulate_lmm(rng, design, beta, cov_scale=1.0, noise=0.2)
        mm = MultilevelModel(n_iterations=15)
        fit = mm.fit(design, y)
        pred_ml = mm.predict(design, fit)
        pred_lin = LinearModel().fit_predict(design, y)
        assert np.mean((y - pred_ml) ** 2) < np.mean((y - pred_lin) ** 2)

    def test_z_column_subset(self, rng):
        sizes = rng.integers(2, 6, size=8)
        n = int(sizes.sum())
        x = rng.normal(size=(n, 3))
        design = DenseDesign(x, sizes, z_columns=[0, 2])
        fit = MultilevelModel(n_iterations=5).fit(design, rng.normal(size=n))
        assert fit.r == 2
        assert fit.cov.shape == (2, 2)
        assert fit.b.shape == (8, 2)

    def test_log_likelihood_finite_and_ordered(self, rng):
        design, x, _ = random_design(rng, n_clusters=25)
        beta = np.asarray([1.0, 0.5, -0.5, 0.0])
        y, _ = simulate_lmm(rng, design, beta)
        mm = MultilevelModel(n_iterations=10)
        fit = mm.fit(design, y)
        ll = mm.log_likelihood(design, fit, y)
        assert np.isfinite(ll)
        # Shuffled targets should fit worse.
        y_shuffled = y.copy()
        rng.shuffle(y_shuffled)
        fit_bad = mm.fit(design, y_shuffled)
        assert mm.log_likelihood(design, fit_bad, y_shuffled) < ll + 50

    def test_parameter_count(self, rng):
        design, _, _ = random_design(rng, m=3)
        fit = MultilevelModel(n_iterations=2).fit(
            design, rng.normal(size=design.n))
        assert fit.n_parameters == 3 + 3 * 4 // 2 + 1


class TestBackendEquivalence:
    """Dense and factorized designs must give identical EM results."""

    @pytest.fixture
    def factorized_setup(self, rng):
        h1 = build_hierarchy("p", 2, [3, 2])
        h2 = build_hierarchy("q", 2, [2, 3])
        order = AttributeOrder([h1, h2])
        cols = [intercept_column(order)]
        for attr in order.attributes:
            dom = order.ordered_domain(attr)
            cols.append(FeatureColumn(
                attr, f"f_{attr}",
                {v: float(x) for v, x in
                 zip(dom, rng.standard_normal(len(dom)))}))
        matrix = FactorizedMatrix(order, cols)
        y = matrix.materialize() @ rng.normal(size=matrix.n_cols) \
            + rng.normal(scale=0.2, size=matrix.n_rows)
        return matrix, y

    def test_em_identical(self, factorized_setup, rng):
        matrix, y = factorized_setup
        fd = FactorizedDesign(matrix)
        dd = DenseDesign(matrix.materialize(),
                         Factorizer(matrix.order).cluster_sizes().astype(int))
        mm = MultilevelModel(n_iterations=12)
        f1, f2 = mm.fit(fd, y), mm.fit(dd, y)
        np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-7)
        np.testing.assert_allclose(f1.cov, f2.cov, atol=1e-7)
        np.testing.assert_allclose(f1.b, f2.b, atol=1e-7)
        assert f1.sigma2 == pytest.approx(f2.sigma2, abs=1e-8)
        np.testing.assert_allclose(mm.predict(fd, f1), mm.predict(dd, f2),
                                   atol=1e-6)
        assert mm.log_likelihood(fd, f1, y) == pytest.approx(
            mm.log_likelihood(dd, f2, y), abs=1e-5)

    def test_matlab_style_identical(self, factorized_setup):
        matrix, y = factorized_setup
        x = matrix.materialize()
        sizes = Factorizer(matrix.order).cluster_sizes().astype(int)
        dd = DenseDesign(x, sizes)
        f1 = MultilevelModel(n_iterations=9).fit(dd, y)
        f2 = MatlabStyleEM(n_iterations=9).fit(x, y, sizes)
        np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-8)
        np.testing.assert_allclose(f1.cov, f2.cov, atol=1e-8)
        assert f1.sigma2 == pytest.approx(f2.sigma2, abs=1e-10)

    def test_z_subset_equivalence(self, factorized_setup):
        matrix, y = factorized_setup
        z_cols = [0, 2]
        fd = FactorizedDesign(matrix, z_columns=z_cols)
        dd = DenseDesign(matrix.materialize(),
                         Factorizer(matrix.order).cluster_sizes().astype(int),
                         z_columns=z_cols)
        mm = MultilevelModel(n_iterations=8)
        f1, f2 = mm.fit(fd, y), mm.fit(dd, y)
        np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-8)
        np.testing.assert_allclose(f1.b, f2.b, atol=1e-8)


class TestDenseDesignValidation:
    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            DenseDesign(rng.normal(size=(5, 2)), [2, 2])

    def test_one_dimensional_rejected(self, rng):
        with pytest.raises(ValueError):
            DenseDesign(rng.normal(size=5), [5])
