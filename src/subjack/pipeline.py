"""End-to-end estimation over an on-disk dataset.

Subsamples k = 1..K run in order in the calling thread: each k derives its own
seed, draws its indices, reads the rows, and jackknifes them, and results are
reduced in k order. The per-k numpy calls are too small for threads to help;
a thread pool measured slower.
"""
from __future__ import annotations

from pathlib import Path

from .estimator import EstimateReport, aggregate, jackknife_subsample
from .sampling import RNG_ID, SamplingPlan
from .stats import Statistic, parse_statistic
from .store import DatasetHandle, open_dataset


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

    results = [
        jackknife_subsample(stat, stat.phi(handle.read_records(plan.indices_for(k)).rows), k=k)
        for k in range(1, K + 1)
    ]
    return aggregate(
        results,
        handle.row_count,
        alpha=alpha,
        master_seed=master_seed,
        statistic_name=stat.name,
        rng_id=RNG_ID,
        ci_center=ci_center,
    )
