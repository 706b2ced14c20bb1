"""Row tuples as the ``{column: array}`` chunks the chunked builds take."""

from __future__ import annotations

import numpy as np

#: Dimension columns of the test schemas, in row order; the measure
#: ``sev`` is each row's last field.
DIMENSIONS = ("district", "village", "year")


def rows_to_chunks(rows, chunk_rows: int) -> list[dict]:
    """``rows`` cut into chunks of ``chunk_rows`` rows.

    Dimension columns are object arrays, so each cell reaches the chunk
    encoders as the Python object it is; the measure is ``float``.
    """
    chunks = []
    for i in range(0, len(rows), chunk_rows):
        part = rows[i:i + chunk_rows]
        chunk = {name: np.array([r[j] for r in part], dtype=object)
                 for j, name in enumerate(DIMENSIONS)}
        chunk["sev"] = np.array([r[-1] for r in part], dtype=float)
        chunks.append(chunk)
    return chunks
