"""End-to-end estimation over an on-disk dataset.

run_estimate is one chain per chunk of Kc consecutive subsamples, run in k
order in the calling thread: draw_chunks -> read_records -> planes ->
_chunk_columns, then summarize over all K.

draw_chunks yields the chunks: one subsample_seeds call derives a chunk's
seeds, one draw_chunk call draws the indices of every k in it, row k being the
stream keyed by subsample_seed(master_seed, k); the sampling benchmark draws
through it too. Each chunk's rows are read in one gather, in j-major order
(row j of every subsample in the chunk, then row j + 1), and mapped by the
statistic's planes into a C-contiguous (q, n * Kc) array. _chunk_columns
checks that shape, views it as (q, n, Kc) and jackknifes it by one
jackknife_planes call, which overwrites those planes with the leave-one-out
means. The subsample means are rounded as over the row-major chunk: in order
for q > 1, with one subsample's rows added in order too, and pairwise for
q = 1 (see the estimator module docstring). Each chunk's theta_hat, theta_jds
and ss arrays are appended in k order to three lists of floats, which
summarize turns into the report; no object is built per subsample. The report
does not depend on the chunk size. Kc keeps a chunk's gathered rows, and its
features, within CHUNK_BYTES.

_chunk_columns takes the planes, not the rows, so that the gathered rows stay
a temporary, freed before the kernel runs. A loop that kept them in a local
was 6-15% slower in the median for var:0 and sd:0 at n=500, K=200 (two
chunks), in interleaved runs on a warm 10^6-row file (2-vCPU Xeon VM), and no
slower at n=50, K=1000 (one chunk). A rows-taking function could not free them
on every interpreter: CPython 3.10 keeps a call's arguments alive on the
caller's stack until the call returns.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .estimator import (
    EstimateReport,
    checked_alpha,
    checked_ci_center,
    jackknife_planes,
    summarize,
)
from .sampling import (
    REPLICATION_SEED_OFFSET,
    RNG_ID,
    checked_count,
    checked_master_seed,
    draw_chunk,
    subsample_seeds,
)
from .stats import Statistic, parse_statistic
from .store import DatasetHandle, DatasetHeader, open_dataset

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
    checked last, against a handle, a header or a path's dataset, opened only
    then and dropped at once, so every other bad argument fails first.
    """
    stat = statistic if isinstance(statistic, Statistic) else parse_statistic(statistic)
    # integer first, so that n < 2 keeps the message naming the jackknife's floor
    n = checked_count(n, "subsample size n", minimum=-math.inf)
    if n < 2:
        raise ValueError("jackknife estimation needs subsample size n >= 2")
    K = checked_count(K, "subsample count K")
    if K >= REPLICATION_SEED_OFFSET:
        raise ValueError("subsample count K must be < 2**32")
    master_seed = checked_master_seed(master_seed)
    alpha = checked_alpha(alpha)
    if isinstance(dataset, (str, Path)):
        dataset = open_dataset(dataset)
    stat.validate_columns(dataset.col_count)
    return stat, n, K, master_seed, alpha


def draw_chunks(
    n_rows: int, n: int, K: int, master_seed: int, row_width: int
) -> Iterator[tuple[range, np.ndarray]]:
    """The indices of subsamples k = 1..K, as (ks, draw_chunk's (len(ks), n) array).

    Chunks follow k order. Kc keeps a chunk's Kc * n rows of row_width float64
    values each within CHUNK_BYTES.
    """
    chunk = max(1, CHUNK_BYTES // (8 * n * row_width))
    for first in range(1, K + 1, chunk):
        ks = range(first, min(first + chunk, K + 1))
        yield ks, draw_chunk(subsample_seeds(master_seed, ks), n_rows, n)


def _chunk_columns(
    stat: Statistic, n: int, ks: range, planes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta_hat, theta_jds and ss of subsamples ks, from the (q, n * len(ks))
    planes of their j-major rows: shape-checked, viewed as (q, n, Kc) and
    jackknifed by one jackknife_planes call.
    """
    shape = (stat.q, n * len(ks))
    if planes.shape != shape:
        raise ValueError(f"statistic {stat.name!r} planes must have shape {shape}, "
                         f"got {planes.shape}")
    return jackknife_planes(stat, planes.reshape(stat.q, n, len(ks)), ks)


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

    # theta_hat, theta_jds and ss of every subsample so far, in k order
    columns: tuple[list[float], ...] = ([], [], [])
    row_width = max(stat.q, handle.col_count)
    for ks, indices in draw_chunks(handle.row_count, n, K, master_seed, row_width):
        # j-major: row j of every subsample in the chunk, then row j + 1
        planes = stat.planes(handle.read_records(indices.T.ravel()).rows)
        for column, values in zip(columns, _chunk_columns(stat, n, ks, planes)):
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
