"""Relational substrate: relations, hierarchies, distributive aggregates.

Everything Reptile needs from a database is implemented here from scratch:
column-oriented relations, counted relations with the f-representation
operators of §2.2, hierarchy/FD metadata, and the distributive roll-up cube.
"""

from .aggregates import (AggState, AggregateError, BASE_STATISTICS,
                         COMPOSITE_STATISTICS, GroupStats, decompose,
                         evaluate_composite, merge_states, state_of_relation)
from .countmap import (CountMap, CountMapError, EncodedCountMap,
                       aggregate_query, aggregate_query_early, join_all)
from .cube import Cube, CubeDelta, GroupView, StatesMap
from .delta import Delta, DeltaError, locate_rows
from .encoding import DictEncoding, EncodingError, factorize
from .dataset import AuxiliaryDataset, DatasetError, HierarchicalDataset
from .hierarchy import (Dimensions, DrillState, Hierarchy, HierarchyError)
from .relation import Relation
from .schema import (Attribute, AttributeKind, Schema, SchemaError, dimension,
                     measure)
from .shard import (ShardError, ShardWorkerPool, dataset_from_chunks,
                    encode_columns_chunked, merge_shard_blocks,
                    shutdown_worker_pools, worker_pool)

__all__ = [
    "AggState", "AggregateError", "BASE_STATISTICS", "COMPOSITE_STATISTICS",
    "GroupStats", "decompose", "evaluate_composite", "merge_states",
    "state_of_relation", "CountMap", "CountMapError", "EncodedCountMap",
    "aggregate_query",
    "aggregate_query_early", "join_all", "Cube", "CubeDelta", "GroupView",
    "StatesMap", "Delta", "DeltaError", "locate_rows",
    "DictEncoding", "EncodingError", "factorize", "AuxiliaryDataset",
    "DatasetError", "HierarchicalDataset", "Dimensions", "DrillState",
    "Hierarchy", "HierarchyError", "Relation", "Attribute", "AttributeKind",
    "Schema", "SchemaError", "dimension", "measure",
    "ShardError", "ShardWorkerPool", "dataset_from_chunks",
    "encode_columns_chunked", "merge_shard_blocks", "shutdown_worker_pools",
    "worker_pool",
]
