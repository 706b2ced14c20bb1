"""Factorised matrix machinery in action (§3.4, §4.2).

Builds a multi-hierarchy factorised matrix, shows the size asymmetry
between the f-representation and the materialised matrix, verifies the
operators against numpy, and times gram-matrix computation both ways.

Run:  python examples/factorized_speedups.py
"""

import time

import numpy as np

from repro.experiments.perf import flat_hierarchies, random_feature_matrix
from repro.factorized import (AttributeOrder, DecomposedAggregates,
                              Factorizer, shared_plan)


def main() -> None:
    rng = np.random.default_rng(1)
    order = AttributeOrder(flat_hierarchies(5, 10))  # 10^5 rows, 5 columns
    matrix = random_feature_matrix(order, rng)
    n, m = matrix.shape
    print(f"Matrix shape: {n} x {m}")
    f_size = sum(len(matrix.domain_features(i)) for i in range(m))
    print(f"f-representation stores {f_size} feature values "
          f"vs {n * m} dense entries ({n * m / f_size:.0f}x smaller)")

    start = time.perf_counter()
    gram_f = matrix.gram()
    t_f = time.perf_counter() - start

    dense = matrix.materialize()
    start = time.perf_counter()
    gram_d = dense.T @ dense
    t_d = time.perf_counter() - start
    assert np.allclose(gram_f, gram_d)
    print(f"gram matrix: factorized {t_f * 1e3:.2f} ms vs "
          f"numpy-on-dense {t_d * 1e3:.2f} ms "
          f"({t_d / t_f:.0f}x, identical results)")

    # Decomposed aggregates: the counting structure behind every operator.
    agg = DecomposedAggregates(order)
    a0 = order.attributes[0]
    print(f"\nTOTAL_{a0} = {agg.total(a0):.0f}; "
          f"COUNT_{a0} has {len(agg.count(a0))} entries; "
          f"cross-hierarchy COFs stay rank-1 (never materialised).")

    plan = shared_plan(Factorizer(order))
    lazy = sum(1 for cof in plan.cofs.values()
               if type(cof).__name__ == "CrossCOF")
    print(f"The shared multi-query plan produced {len(plan.cofs)} COFs, "
          f"{lazy} of them lazy cartesian products.")


if __name__ == "__main__":
    main()
