"""End-to-end estimation over an on-disk dataset.

Subsamples k = 1..K run in order in the calling thread, a chunk of Kc
consecutive k at a time: each k derives its own seed and draws its indices,
then the chunk's rows are read in one gather, mapped by phi, and jackknifed by
one kernel call. Results are reduced in k order, so the report does not depend
on the chunk size. Kc keeps a chunk's gathered rows, and its features, within
CHUNK_BYTES.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .estimator import EstimateReport, aggregate, jackknife_chunk
from .sampling import RNG_ID, SamplingPlan
from .stats import Statistic, parse_statistic
from .store import DatasetHandle, open_dataset

CHUNK_BYTES = 2**20


def run_estimate(
    data: DatasetHandle | str | Path,
    statistic: Statistic | str,
    n: int,
    K: int,
    master_seed: int,
    *,
    alpha: float = 0.05,
    workers: int | None = 1,
    ci_center: str = "jds",
) -> EstimateReport:
    """Estimate a statistic from K subsamples of size n drawn with replacement.

    ``workers`` is accepted for compatibility and selects nothing: every run is
    single-threaded, and the report never depends on it.
    """
    handle = data if isinstance(data, DatasetHandle) else open_dataset(data)
    stat = parse_statistic(statistic) if isinstance(statistic, str) else statistic
    stat.validate_columns(handle.col_count)
    if n < 2:
        raise ValueError("jackknife estimation needs subsample size n >= 2")
    plan = SamplingPlan(n_rows=handle.row_count, n=n, K=K, master_seed=master_seed)

    chunk = max(1, CHUNK_BYTES // (8 * n * max(stat.q, handle.col_count)))
    results = []
    for first in range(1, K + 1, chunk):
        ks = range(first, min(first + chunk, K + 1))
        indices = np.concatenate([plan.indices_for(k) for k in ks])
        features = stat.phi(handle.read_records(indices).rows)
        results += jackknife_chunk(stat, features.reshape(len(ks), n, stat.q), ks)
    return aggregate(
        results,
        handle.row_count,
        alpha=alpha,
        master_seed=master_seed,
        statistic_name=stat.name,
        rng_id=RNG_ID,
        ci_center=ci_center,
    )
