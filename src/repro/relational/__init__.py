"""Relational substrate: relations, hierarchies, distributive aggregates.

Everything Reptile needs from a database is implemented here from scratch:
column-oriented relations, hierarchy/FD metadata, the distributive
roll-up cube and delta ingest. The counted relations of §2.2
(:mod:`repro.relational.countmap`), which only the factorised §4
machinery uses, and the frozen row-at-a-time oracles (``rowref``,
``deltaref``) are imported by module path only, so loading the package
loads none of them.
"""

from .aggregates import (AggState, AggregateError, BASE_STATISTICS,
                         COMPOSITE_STATISTICS, GroupStats, decompose,
                         evaluate_composite, merge_states)
from .cube import Cube, CubeDelta, GroupView, StatesMap
from .delta import Delta, DeltaError, locate_rows
from .encoding import DictEncoding, EncodingError, factorize
from .dataset import AuxiliaryDataset, DatasetError, HierarchicalDataset
from .hierarchy import (Dimensions, DrillState, Hierarchy, HierarchyError)
from .relation import Relation
from .schema import (Attribute, AttributeKind, Schema, SchemaError, dimension,
                     measure)
from .shard import dataset_from_chunks, encode_columns_chunked

__all__ = [
    "AggState", "AggregateError", "BASE_STATISTICS", "COMPOSITE_STATISTICS",
    "GroupStats", "decompose", "evaluate_composite", "merge_states", "Cube",
    "CubeDelta", "GroupView", "StatesMap", "Delta", "DeltaError",
    "locate_rows", "DictEncoding", "EncodingError", "factorize",
    "AuxiliaryDataset", "DatasetError", "HierarchicalDataset", "Dimensions",
    "DrillState", "Hierarchy", "HierarchyError", "Relation", "Attribute",
    "AttributeKind", "Schema", "SchemaError", "dimension", "measure",
    "dataset_from_chunks", "encode_columns_chunked",
]
