"""The streamed drought workload of the serving and ingest benchmarks.

:func:`drought_chunks` yields ``{column: array}`` chunks of the drought
survey shape for :func:`~repro.relational.shard.dataset_from_chunks`.
The synthetic hierarchy structures of the §5.1 micro-benchmarks live
beside their one user, :mod:`repro.experiments.perf`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np


#: Schema of the streamed drought workload: the fig17/fig20 shape
#: (two-level geo hierarchy + year), scaled up for the sharded benches.
DROUGHT_HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
DROUGHT_MEASURE = "severity"


def drought_chunks(n_rows: int, chunk_rows: int = 1_000_000, *,
                   n_districts: int = 64, villages_per_district: int = 50,
                   n_years: int = 25, seed: int = 0
                   ) -> Iterator[Mapping[str, np.ndarray]]:
    """Stream the drought-survey workload as ``{column: array}`` chunks.

    The generator never materializes more than one chunk of value arrays
    (let alone a list of row tuples), which is what lets the 1e7-row
    sharded benches run without an all-rows Python image. Severity is
    integer-valued so every aggregate is exactly representable and
    order-independent — the bitwise-equality gates stay meaningful.
    Deterministic for a given ``(seed, chunk_rows)`` pair.
    """
    districts = np.array([f"d{i:04d}" for i in range(n_districts)])
    villages = np.array([f"v{i:06d}"
                         for i in range(n_districts * villages_per_district)])
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < n_rows:
        m = int(min(chunk_rows, n_rows - produced))
        d = rng.integers(0, n_districts, m)
        v = d * villages_per_district + rng.integers(
            0, villages_per_district, m)
        yield {
            "district": districts[d],
            "village": villages[v],
            "year": 1980 + rng.integers(0, n_years, m),
            DROUGHT_MEASURE: rng.integers(0, 100, m).astype(float),
        }
        produced += m
