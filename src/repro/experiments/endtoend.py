"""End-to-end runtime experiment (§5.1.4, Figure 10).

Replays the paper's invocation sequences on dataset-shaped workloads:

* absentee-like — 4 invocations drilling county, party, week, gender;
* compas-like — 6 invocations drilling year, month, day, age range, race,
  charge degree.

Each invocation evaluates *every* remaining candidate hierarchy: it builds
the candidate's (factorised) feature matrix over all parallel groups —
including empty ones, the worst case the paper measures — and trains the
multi-level model for 20 EM iterations. The factorised pipeline is timed
against the dense Matlab/Lapack-style baseline on identical inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..datagen.workloads import absentee_like, compas_like
from ..factorized.forder import AttributeOrder
from ..model.pipeline import (feature_columns_from_view, train_dense,
                              train_factorized, train_matlab, y_vector)
from ..relational.cube import Cube
from ..relational.dataset import HierarchicalDataset

ABSENTEE_DRILL_ORDER = ("county", "party", "week", "gender")
COMPAS_DRILL_ORDER = ("time", "time", "time", "age", "race", "charge")


@dataclass
class InvocationTiming:
    """Per-invocation wall-clock cost of each backend."""

    invocation: int
    candidates: list[str]
    factorized_seconds: float
    dense_seconds: float
    matlab_seconds: float
    max_rows: int

    @property
    def speedup(self) -> float:
        """Reptile vs the paper's Matlab-style baseline."""
        if self.factorized_seconds <= 0:
            return float("inf")
        return self.matlab_seconds / self.factorized_seconds


@dataclass
class EndToEndResult:
    dataset_name: str
    invocations: list[InvocationTiming] = field(default_factory=list)

    @property
    def total_factorized(self) -> float:
        return sum(t.factorized_seconds for t in self.invocations)

    @property
    def total_dense(self) -> float:
        return sum(t.dense_seconds for t in self.invocations)

    @property
    def total_matlab(self) -> float:
        return sum(t.matlab_seconds for t in self.invocations)

    @property
    def overall_speedup(self) -> float:
        """Reptile vs the Matlab-style baseline (the Figure 10 number)."""
        if self.total_factorized <= 0:
            return float("inf")
        return self.total_matlab / self.total_factorized


def _hierarchy_order_names(dataset: HierarchicalDataset, committed: list[str],
                           candidate: str) -> list[str]:
    """Committed hierarchies in drill order, the candidate last (§3.4)."""
    seen = []
    for name in committed:
        if name not in seen:
            seen.append(name)
    others = [n for n in seen if n != candidate]
    return others + [candidate]


def run_invocations(dataset: HierarchicalDataset, drill_order: tuple,
                    statistic: str = "count", n_iterations: int = 20,
                    run_dense: bool = True, run_matlab: bool = True,
                    name: str = "dataset") -> EndToEndResult:
    """Time the full invocation sequence on one dataset."""
    cube = Cube(dataset)
    depths: dict[str, int] = {h.name: 0 for h in dataset.dimensions}
    committed: list[str] = []
    result = EndToEndResult(name)

    for step, chosen in enumerate(drill_order):
        candidates = [h.name for h in dataset.dimensions
                      if depths[h.name] < len(dataset.dimensions[h.name])]
        fact_total = 0.0
        dense_total = 0.0
        matlab_total = 0.0
        max_rows = 0
        for cand in candidates:
            cand_depths = dict(depths)
            cand_depths[cand] += 1
            order_names = _hierarchy_order_names(dataset, committed + [cand],
                                                 cand)
            order = AttributeOrder.from_dataset(
                dataset, hierarchy_order=order_names, depths=cand_depths)
            view = cube.view(order.attributes)
            max_rows = max(max_rows, order.n_rows)
            # Features and y are shared inputs; the timed region is matrix
            # construction + EM training, where the backends differ.
            columns = feature_columns_from_view(order, view, statistic)
            y = y_vector(order, view, statistic)

            start = time.perf_counter()
            train_factorized(order, view, statistic,
                             n_iterations=n_iterations, columns=columns, y=y)
            fact_total += time.perf_counter() - start

            if run_dense:
                start = time.perf_counter()
                train_dense(order, view, statistic,
                            n_iterations=n_iterations, columns=columns, y=y)
                dense_total += time.perf_counter() - start

            if run_matlab:
                start = time.perf_counter()
                train_matlab(order, view, statistic,
                             n_iterations=n_iterations, columns=columns, y=y)
                matlab_total += time.perf_counter() - start

        result.invocations.append(InvocationTiming(
            step, candidates, fact_total, dense_total, matlab_total,
            max_rows))
        depths[chosen] += 1
        committed.append(chosen)
    return result


def run_absentee(seed: int = 0, n_rows: int | None = None,
                 **kw) -> EndToEndResult:
    rng = np.random.default_rng(seed)
    dataset = absentee_like(rng) if n_rows is None else \
        absentee_like(rng, n_rows=n_rows)
    return run_invocations(dataset, ABSENTEE_DRILL_ORDER, name="absentee",
                           **kw)


def run_compas(seed: int = 0, n_rows: int | None = None,
               **kw) -> EndToEndResult:
    rng = np.random.default_rng(seed)
    dataset = compas_like(rng) if n_rows is None else \
        compas_like(rng, n_rows=n_rows)
    return run_invocations(dataset, COMPAS_DRILL_ORDER, name="compas", **kw)
