"""Tests for the data generators: correlation induction, errors, workloads."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.correlate import (induce_correlation, rank_correlation,
                                     van_der_waerden_scores)
from repro.datagen.errors import (ErrorKind, ErrorSpec, corrupt,
                                  inject_drift, inject_duplicates,
                                  inject_missing)
from repro.datagen.synthetic import (SyntheticConfig, make_auxiliary,
                                     make_dataset)
from repro.datagen.workloads import absentee_like, compas_like
from repro.experiments.perf import (chain_paths, deep_hierarchies,
                                    flat_hierarchies)
from repro.relational.cube import Cube


class TestImanConover:
    def test_target_correlation_achieved(self, rng):
        target = rng.normal(size=400)
        sample = rng.exponential(size=400)
        for rho in (0.3, 0.6, 0.9):
            out = induce_correlation(target, sample, rho, rng)
            assert rank_correlation(target, out) == pytest.approx(rho,
                                                                  abs=0.12)

    def test_marginal_preserved_exactly(self, rng):
        target = rng.normal(size=100)
        sample = rng.exponential(size=100)
        out = induce_correlation(target, sample, 0.7, rng)
        np.testing.assert_allclose(np.sort(out), np.sort(sample))

    def test_negative_correlation(self, rng):
        target = rng.normal(size=300)
        out = induce_correlation(target, rng.normal(size=300), -0.8, rng)
        assert rank_correlation(target, out) < -0.6

    def test_perfect_correlation(self, rng):
        target = rng.normal(size=200)
        out = induce_correlation(target, rng.normal(size=200), 1.0, rng)
        assert rank_correlation(target, out) > 0.999

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            induce_correlation(np.ones(3), np.ones(4), 0.5, rng)

    def test_invalid_rho(self, rng):
        with pytest.raises(ValueError):
            induce_correlation(np.ones(3), np.ones(3), 1.5, rng)

    def test_vdw_scores_symmetric(self):
        scores = van_der_waerden_scores(np.asarray([1.0, 2.0, 3.0]))
        assert scores[1] == pytest.approx(0.0, abs=1e-9)
        assert scores[0] == pytest.approx(-scores[2])

    def test_norm_ppf_against_scipy(self):
        from scipy.stats import norm
        from repro.datagen.correlate import _norm_ppf
        p = np.linspace(0.001, 0.999, 97)
        np.testing.assert_allclose(_norm_ppf(p), norm.ppf(p), atol=1e-7)

    @given(st.integers(0, 1000))
    def test_rank_correlation_bounds(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=50), r.normal(size=50)
        assert -1.0 <= rank_correlation(a, b) <= 1.0


class TestSyntheticDataset:
    def test_paper_shape(self, rng):
        ds = make_dataset(rng)
        groups = Cube(ds).view(("group",))
        assert len(groups) == 100
        counts = [s.count for s in groups.groups.values()]
        assert 60 < np.mean(counts) < 140
        means = [s.mean for s in groups.groups.values()]
        assert 80 < np.mean(means) < 120

    def test_config_overrides(self, rng):
        ds = make_dataset(rng, SyntheticConfig(n_groups=10, row_mean=20,
                                               row_std=2))
        assert len(Cube(ds).view(("group",))) == 10

    def test_auxiliary_correlates(self, rng):
        ds = make_dataset(rng)
        aux = make_auxiliary(ds, "mean", 0.9, rng)
        view = Cube(ds).view(("group",))
        lookup = aux.lookup()
        keys = sorted(view.groups)
        target = np.asarray([view.groups[k].mean for k in keys])
        signal = np.asarray([lookup[k]["signal"] for k in keys])
        assert rank_correlation(target, signal) > 0.75


class TestErrorInjection:
    @pytest.fixture
    def dataset(self, rng):
        return make_dataset(rng, SyntheticConfig(n_groups=10))

    def test_missing_halves_count(self, dataset):
        rel = dataset.relation
        before = rel.group_measure(["group"], "value")
        group = sorted(before)[0][0]
        after = inject_missing(rel, {"group": group}).group_measure(
            ["group"], "value")
        assert len(after[(group,)]) == pytest.approx(
            len(before[(group,)]) / 2, abs=1)
        # Other groups untouched.
        other = sorted(before)[1]
        assert len(after[other]) == len(before[other])

    def test_duplicates_add_half(self, dataset):
        rel = dataset.relation
        before = rel.group_measure(["group"], "value")
        group = sorted(before)[0][0]
        after = inject_duplicates(rel, {"group": group}).group_measure(
            ["group"], "value")
        assert len(after[(group,)]) == pytest.approx(
            1.5 * len(before[(group,)]), abs=1)

    def test_drift_shifts_mean_only(self, dataset):
        rel = dataset.relation
        group = sorted(set(rel.column("group")))[0]
        drifted = inject_drift(rel, {"group": group}, "value", 5.0)
        before = rel.group_measure(["group"], "value")[(group,)]
        after = drifted.group_measure(["group"], "value")[(group,)]
        assert after.mean() - before.mean() == pytest.approx(5.0)
        assert after.std() == pytest.approx(before.std())
        assert len(drifted) == len(rel)

    def test_corrupt_report(self, dataset):
        specs = [ErrorSpec(ErrorKind.MISSING, {"group": "g001"}),
                 ErrorSpec(ErrorKind.DRIFT_UP, {"group": "g002"})]
        report = corrupt(dataset.relation, specs, "value")
        assert report.true_groups() == [("g001",), ("g002",)]
        assert len(report.relation) < len(dataset.relation)


class TestPerfStructures:
    def test_chain_paths_structure(self):
        h = chain_paths("x", 3, 8, branching=2)
        assert h.n_leaves == 8
        assert len(h.attributes) == 3
        # Level 0 groups leaves into runs of 4.
        np.testing.assert_allclose(h.leaf_counts[0], [4, 4])

    def test_flat_and_deep(self):
        flat = flat_hierarchies(3, 10)
        assert len(flat) == 3 and all(h.n_leaves == 10 for h in flat)
        deep = deep_hierarchies(2, 3, 9)
        assert all(len(h.attributes) == 3 for h in deep)
        assert all(h.n_leaves == 9 for h in deep)


class TestWorkloads:
    def test_absentee_shape(self, rng):
        ds = absentee_like(rng, n_rows=5000)
        assert len(ds.relation) == 5000
        assert len(ds.dimensions) == 4
        assert len(ds.attribute_domain("county")) == 100
        assert len(ds.attribute_domain("gender")) == 3

    def test_compas_shape(self, rng):
        ds = compas_like(rng, n_rows=5000, n_days=100)
        assert len(ds.relation) == 5000
        assert len(ds.attribute_domain("day")) == 100
        # time is a real 3-attribute hierarchy with valid FDs.
        ds.dimensions.validate(ds.relation)
