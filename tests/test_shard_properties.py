"""Chunked construction ≡ the row-at-a-time rebuild oracle (hypothesis).

Random relations — dyadic measures, int or float years (one cell type
per column) — are cut into random chunks of 1–6 rows and streamed
through :func:`~repro.relational.shard.dataset_from_chunks`. The
one-pass :class:`Cube` over that dataset must hold exactly the leaf
groups :func:`~repro.relational.deltaref.rebuilt_leaf_states` rebuilds
from the same rows loaded with :meth:`Relation.from_rows`: the same
decoded keys and bitwise-equal count/total/sumsq.
Measures are dyadic rationals, so float sums are order-independent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HierarchicalDataset, Relation, Schema, dimension, measure
from repro.relational import deltaref
from repro.relational.cube import Cube
from repro.relational.shard import dataset_from_chunks

from chunk_helpers import rows_to_chunks

SCHEMA = Schema([dimension("district"), dimension("village"),
                 dimension("year"), measure("sev")])
HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}

DISTRICTS = ("d0", "d1", "d2")
#: A year column holds ints or floats, never both.
YEARS = ((2000, 2001, 1999), (2000.5, -1.0, 0.0))

# Dyadic measures: every sum is exactly representable.
measures = st.integers(-8, 24).map(lambda v: v / 2.0)


@st.composite
def relations(draw):
    out = []
    years = draw(st.sampled_from(YEARS))
    for _ in range(draw(st.integers(1, 16))):
        d = draw(st.sampled_from(DISTRICTS))
        v = f"{d}-v{draw(st.integers(0, 2))}"  # village -> district FD
        out.append((d, v, draw(st.sampled_from(years)), draw(measures)))
    return out


@settings(max_examples=120)
@given(relations(), st.integers(1, 6))
def test_chunked_cube_equals_rebuilt_leaf_states(rows, chunk_rows):
    chunked = dataset_from_chunks(rows_to_chunks(rows, chunk_rows),
                                  HIERARCHIES, "sev")
    flat = HierarchicalDataset.build(Relation.from_rows(SCHEMA, rows),
                                     HIERARCHIES, "sev")
    deltaref.assert_groups_equal(Cube(chunked).leaf_states,
                                 deltaref.rebuilt_leaf_states(flat))
