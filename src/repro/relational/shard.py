"""Chunked construction: build a dataset without a value-object image.

Every Reptile aggregate is distributive, so an in-memory relation's leaf
block is one vectorized pass (:class:`~repro.relational.cube.Cube`).
What a large relation needs is a loader that never holds its rows as
Python objects. :func:`dataset_from_chunks` streams ``{column: array}``
chunks into a dataset: :func:`encode_columns_chunked` factorizes each
chunk independently and unions the per-chunk domains with
:meth:`DictEncoding.merge`, so the coordinator holds ``int32`` codes
plus the measure, and :meth:`Relation.from_encoded` adopts the encoded
columns without a re-encode.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import DatasetError, HierarchicalDataset
from .encoding import DictEncoding, EncodingError, factorize
from .relation import Relation
from .schema import Schema, dimension, measure as measure_attr


def encode_columns_chunked(chunks: Iterable[Mapping[str, np.ndarray]],
                           attrs: Sequence[str], measure_name: str
                           ) -> tuple[dict, int]:
    """Stream ``{name: array}`` chunks into encoded columns.

    Each chunk is factorized independently, then the per-chunk domains are
    unioned with :meth:`DictEncoding.merge` (chunk 0's codes survive
    verbatim) and the remapped code chunks concatenated. The coordinator
    holds only ``int32`` codes plus the ``float64`` measure — never a
    full value-object image. A column given as a list (not an array) is
    encoded as it is, keeping its value objects, exactly as
    :meth:`Relation.from_rows` would. A measure cell that is not a
    number, a dimension cell that cannot be a key, and chunks that give
    a column two cell types raise
    :class:`~repro.relational.dataset.DatasetError`. Returns
    ``(columns, n_rows)`` ready for :meth:`Relation.from_encoded`.
    """
    chunk_encs: dict[str, list[DictEncoding]] = {a: [] for a in attrs}
    measure_parts: list[np.ndarray] = []
    for chunk in chunks:
        for a in attrs:
            chunk_encs[a].append(
                keyed(f"dimension column {a!r}", factorize, chunk[a]))
        try:
            measure_parts.append(np.asarray(chunk[measure_name],
                                            dtype=float))
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"measure {measure_name!r} is not numeric: {exc}") from None
    columns: dict = {}
    for a in attrs:
        encs = chunk_encs[a]
        if not encs:
            columns[a] = DictEncoding(np.empty(0, dtype=np.int32), [],
                                      domain_sorted=True)
            continue
        merged, remaps = keyed(f"dimension column {a!r}",
                               DictEncoding.merge, encs)
        codes = np.concatenate(
            [remap[enc.codes] for remap, enc in zip(remaps, encs)])
        column = DictEncoding(codes.astype(np.int32, copy=False),
                              merged.domain, merged.domain_sorted)
        column._positions = merged._positions
        columns[a] = column
    measure_col = (np.concatenate(measure_parts) if measure_parts
                   else np.empty(0))
    columns[measure_name] = measure_col
    return columns, int(len(measure_col))


def dataset_from_chunks(chunks: Iterable[Mapping[str, np.ndarray]],
                        hierarchies: Mapping[str, Sequence[str]],
                        measure_name: str) -> HierarchicalDataset:
    """A :class:`HierarchicalDataset` streamed from column chunks."""
    attrs = [a for hier in hierarchies.values() for a in hier]
    columns, _ = encode_columns_chunked(chunks, attrs, measure_name)
    schema = Schema([dimension(a) for a in attrs]
                    + [measure_attr(measure_name)])
    relation = Relation.from_encoded(schema, columns)
    return HierarchicalDataset.build(relation, dict(hierarchies),
                                     measure_name)


def keyed(what: str, operator, *args):
    """``operator(*args)``, its :class:`EncodingError` (a cell that
    cannot be a key, or a column of two cell types) raised as a
    :class:`DatasetError` naming ``what``."""
    try:
        return operator(*args)
    except EncodingError as exc:
        raise DatasetError(f"{what}: {exc}") from None
