"""Wall-clock comparison of the two sampling modes against one on-disk file.

Only index generation is timed (the part whose cost differs between modes);
row reads and the mean estimate used for the MSE column happen outside the
timer, and each timed sample loops the draw for a minimum window. Repeats are
interleaved across all grid cells so background load drifts onto every cell
equally, and the per-cell median is reported. Within a repeat, the
with-replacement cells, a few milliseconds a pass, share one window of
alternating passes timed before the slow without-replacement cells, so a
change in host speed reaches them alike. Runs single-threaded for timing
fidelity.

Repeat r of grid cell i draws subsamples k = 1..K from the master seed
subsample_seed(subsample_seed(seed, BENCH_SEED_OFFSET + i), r), in both modes.
With replacement, the K draws run in run_estimate's chunks (draw_chunks).
Without replacement, the K draws exclude against one shared running set.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .pipeline import draw_chunks
from .sampling import (
    BENCH_SEED_OFFSET,
    ExclusionSet,
    checked_count,
    checked_master_seed,
    draw_without_replacement,
    subsample_seed,
)
from .simulate import temp_dataset
from .store import DatasetHandle, open_dataset

BENCH_CSV_COLUMNS = ["n", "K", "mode", "seconds", "mse"]

# with-replacement draws at the paper's shapes take only a few ms per pass
_MIN_WINDOW_S = 0.05


@dataclass(frozen=True)
class BenchResult:
    n: int
    K: int
    mode: str
    seconds: float
    mse: float

    def csv_row(self) -> dict:
        # the fields are declared in BENCH_CSV_COLUMNS order
        return asdict(self)


def _draw_with_replacement(
    handle: DatasetHandle, n: int, K: int, master_seed: int
) -> np.ndarray:
    """All K index sets, drawn in draw_chunks' chunks for the file's rows, which
    are those run_estimate draws for a statistic with at most that many features.
    """
    chunks = draw_chunks(handle.row_count, n, K, master_seed, handle.col_count)
    return np.concatenate([indices.ravel() for _, indices in chunks])


def _draw_without_replacement(
    handle: DatasetHandle, n: int, K: int, master_seed: int
) -> np.ndarray:
    """All K index sets, excluding against one running set shared by the K draws."""
    drawn = ExclusionSet(capacity=n * K)
    return np.concatenate([
        draw_without_replacement(subsample_seed(master_seed, k), handle.row_count, n, drawn)
        for k in range(1, K + 1)
    ])


# mode name -> function drawing all K subsamples of one run
_DRAWS = {
    "with_replacement": _draw_with_replacement,
    "without_replacement": _draw_without_replacement,
}


def _timed_draw(draws) -> list[tuple[float, np.ndarray]]:
    """Seconds per pass of each zero-argument draw, and the indices it drew.

    Passes alternate between the draws, round after round, until the rounds
    add up to one minimum window per draw.
    """
    seconds = [0.0] * len(draws)
    indices = [None] * len(draws)
    rounds = 0
    while sum(seconds) < _MIN_WINDOW_S * len(draws):
        for d, draw in enumerate(draws):
            start = time.perf_counter()
            indices[d] = draw()
            seconds[d] += time.perf_counter() - start
        rounds += 1
    return [(total / rounds, drawn) for total, drawn in zip(seconds, indices)]


def bench_sampling(
    n_rows: int,
    grid: list[tuple[int, int]],
    seed: int,
    *,
    repeats: int = 3,
    data_path: str | Path | None = None,
) -> list[BenchResult]:
    """Time both sampling modes over a grid of (n, K) on an n_rows dataset.

    The dataset holds iid standard bivariate normal rows, so the sample mean
    of all drawn rows estimates zero and its squared error is the MSE column.
    A dataset at data_path must have n_rows rows.
    """
    seed = checked_master_seed(seed)
    repeats = checked_count(repeats, "repeats")
    # validate the whole grid up front so a bad cell fails before any dataset or timing
    grid = [(checked_count(n, "subsample size n"), checked_count(K, "subsample count K"))
            for n, K in grid]
    if data_path is None:
        with temp_dataset(subsample_seed(seed, 1), n_rows, np.eye(2)) as path:
            return bench_sampling(n_rows, grid, seed, repeats=repeats, data_path=path)
    handle = open_dataset(data_path)
    if handle.row_count != n_rows:
        raise ValueError(f"n_rows is {n_rows}, but {data_path} has {handle.row_count} rows")
    for n, K in grid:
        if n * K > handle.row_count:
            raise ValueError(
                f"without_replacement requires n*K <= n_rows "
                f"({n}*{K} > {handle.row_count})"
            )
    cells = [(i, n, K, mode) for i, (n, K) in enumerate(grid) for mode in _DRAWS]
    # the cells timed in one window: all with-replacement cells, then each other alone
    fast = [c for c, cell in enumerate(cells) if cell[3] == "with_replacement"]
    windows = [fast] + [[c] for c in range(len(cells)) if c not in fast]

    times: list[list[float]] = [[] for _ in cells]
    errors: list[list[float]] = [[] for _ in cells]
    for r in range(1, repeats + 1):
        for window in windows:
            draws = []
            for i, n, K, mode in (cells[c] for c in window):
                run_seed = subsample_seed(subsample_seed(seed, BENCH_SEED_OFFSET + i), r)
                draws.append(partial(_DRAWS[mode], handle, n, K, run_seed))
            for c, (elapsed, indices) in zip(window, _timed_draw(draws)):
                times[c].append(elapsed)
                column_means = handle.read_records(indices).rows.mean(axis=0)
                errors[c].append(float(np.mean(column_means**2)))

    return [
        BenchResult(
            n=n, K=K, mode=mode,
            seconds=float(np.median(cell_times)),
            mse=math.fsum(cell_errors) / repeats,
        )
        for (_, n, K, mode), cell_times, cell_errors in zip(cells, times, errors)
    ]
