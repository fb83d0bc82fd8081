"""End-to-end estimation over an on-disk dataset.

Subsamples k = 1..K run in order in the calling thread, a chunk of Kc
consecutive k at a time: one subsample_seeds call derives the chunk's seeds,
one draw_chunk call draws the indices of every k in the chunk, row k being
the stream keyed by subsample_seed(master_seed, k); then the chunk's rows are
read in one gather, mapped by phi, and jackknifed by one jackknife_arrays
call. Each chunk's theta_hat, theta_jds and ss arrays are appended in k order
to three lists of floats, which summarize turns into the report; no object is
built per subsample. The report does not depend on the chunk size. Kc keeps a
chunk's gathered rows, and its features, within CHUNK_BYTES.
"""
from __future__ import annotations

import math
from pathlib import Path

from .estimator import (
    EstimateReport,
    checked_alpha,
    checked_ci_center,
    jackknife_arrays,
    summarize,
)
from .sampling import RNG_ID, checked_count, checked_master_seed, draw_chunk, subsample_seeds
from .stats import Statistic, parse_statistic
from .store import DatasetHandle, DatasetHeader, open_dataset, read_header

CHUNK_BYTES = 2**20


def check_run(
    dataset: DatasetHandle | DatasetHeader | str | Path,
    statistic: Statistic | str,
    n: int,
    K: int,
    master_seed: int,
    alpha: float,
) -> tuple[Statistic, int, int, int, float]:
    """Check a run request; return (statistic, n, K, master_seed, alpha), checked.

    The one check of a run's arguments: run_estimate calls it before drawing,
    and ExperimentConfig when it is built. A spec is parsed into a Statistic;
    n, K and the master seed come back as ints. The statistic's columns are
    checked last, against a handle or header, or against the header read from
    a path only then, so every other bad argument fails without touching disk.
    """
    stat = statistic if isinstance(statistic, Statistic) else parse_statistic(statistic)
    # integer first, so that n < 2 keeps the message naming the jackknife's floor
    n = checked_count(n, "subsample size n", minimum=-math.inf)
    if n < 2:
        raise ValueError("jackknife estimation needs subsample size n >= 2")
    K = checked_count(K, "subsample count K")
    master_seed = checked_master_seed(master_seed)
    alpha = checked_alpha(alpha)
    if isinstance(dataset, (str, Path)):
        dataset = read_header(dataset)
    stat.validate_columns(dataset.col_count)
    return stat, n, K, master_seed, alpha


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

    Every argument is checked before the first draw: by check_run, and
    ci_center by the check summarize applies. ``workers`` is accepted for
    compatibility and selects nothing: every run is single-threaded, and the
    report never depends on it.
    """
    handle = data if isinstance(data, DatasetHandle) else open_dataset(data)
    stat, n, K, master_seed, alpha = check_run(handle, statistic, n, K, master_seed, alpha)
    checked_ci_center(ci_center)

    chunk = max(1, CHUNK_BYTES // (8 * n * max(stat.q, handle.col_count)))
    # theta_hat, theta_jds and ss of every subsample so far, in k order
    columns: tuple[list[float], ...] = ([], [], [])
    for first in range(1, K + 1, chunk):
        ks = range(first, min(first + chunk, K + 1))
        indices = draw_chunk(subsample_seeds(master_seed, ks), handle.row_count, n)
        features = stat.phi(handle.read_records(indices.ravel()).rows)
        arrays = jackknife_arrays(stat, features.reshape(len(ks), n, stat.q), ks)
        for column, values in zip(columns, arrays):
            column += values.tolist()
    return summarize(
        *columns,
        n,
        handle.row_count,
        alpha=alpha,
        master_seed=master_seed,
        statistic_name=stat.name,
        rng_id=RNG_ID,
        ci_center=ci_center,
    )
