"""Factorised representations: the paper's core machinery (§3.4, §4).

The factorised feature matrix, decomposed aggregates (TOTAL/COUNT/COF),
multi-query work-sharing plans, vectorized and reference matrix operations,
per-cluster operators for the multi-level model, and the drill-down
aggregate maintenance engine.
"""

from .aggregates import CrossCOF, DecomposedAggregates, PairCOF
from .cluster_ops import ClusterOps
from .drilldown import MODES, DrilldownEngine
from .factorizer import Factorizer, check_row_order
from .forder import (AttributeInfo, AttributeOrder, FactorizationError,
                     HierarchyPaths)
from .matrix import (FactorizedMatrix, FeatureColumn, intercept_column,
                     multi_attribute_column)
from .multiquery import (AggregateSet, HierarchyAggregates, combine_units,
                         hierarchy_unit, lmfao_plan, shared_plan)
from .ops import (column_sums, gram, left_multiply, materialize,
                  right_multiply)
from .reference import (assert_aggregate_sets_equal, dict_path_matrix,
                        reference_gram, reference_hierarchy_unit,
                        reference_left_multiply, reference_lmfao_plan,
                        reference_right_multiply, reference_shared_plan)

__all__ = [
    "CrossCOF", "DecomposedAggregates", "PairCOF", "ClusterOps", "MODES",
    "DrilldownEngine", "Factorizer", "check_row_order", "AttributeInfo",
    "AttributeOrder", "FactorizationError", "HierarchyPaths",
    "FactorizedMatrix", "FeatureColumn", "intercept_column",
    "multi_attribute_column", "AggregateSet",
    "HierarchyAggregates", "combine_units", "hierarchy_unit", "lmfao_plan",
    "shared_plan", "column_sums", "gram", "left_multiply", "materialize",
    "right_multiply", "reference_gram", "reference_left_multiply",
    "reference_right_multiply", "reference_shared_plan",
    "reference_lmfao_plan", "reference_hierarchy_unit", "dict_path_matrix",
    "assert_aggregate_sets_equal",
]
