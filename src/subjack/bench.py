"""Wall-clock comparison of the two sampling modes against one on-disk file.

Only index generation is timed (the part whose cost differs between modes);
row reads and the mean estimate used for the MSE column happen outside the
timer, and each timed sample loops the draw for a minimum window. Repeats are
interleaved across all grid cells so background load drifts onto every cell
equally, and the per-cell median is reported. Runs single-threaded for timing
fidelity.

Repeat r of grid cell i draws subsamples k = 1..K from the master seed
subsample_seed(subsample_seed(seed, BENCH_SEED_OFFSET + i), r), in both modes.
Without replacement, the K draws exclude against one shared running set.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import (
    BENCH_SEED_OFFSET,
    ExclusionSet,
    checked_count,
    checked_master_seed,
    draw_chunk,
    draw_without_replacement,
    subsample_seed,
)
from .simulate import temp_dataset
from .store import open_dataset

BENCH_CSV_COLUMNS = ["n", "K", "mode", "seconds", "mse"]

# with-replacement draws at the paper's shapes take only 3-10 ms per pass
_MIN_WINDOW_S = 0.05


@dataclass(frozen=True)
class BenchResult:
    n: int
    K: int
    mode: str
    seconds: float
    mse: float

    def csv_row(self) -> dict:
        return {
            "n": self.n, "K": self.K, "mode": self.mode,
            "seconds": self.seconds, "mse": self.mse,
        }


def _draw_with_replacement(n_rows: int, n: int, K: int, master_seed: int) -> np.ndarray:
    seeds = [subsample_seed(master_seed, k) for k in range(1, K + 1)]
    return draw_chunk(seeds, n_rows, n).ravel()


def _draw_without_replacement(n_rows: int, n: int, K: int, master_seed: int) -> np.ndarray:
    """All K index sets, excluding against one running set shared by the K draws."""
    drawn = ExclusionSet(capacity=n * K)
    return np.concatenate([
        draw_without_replacement(subsample_seed(master_seed, k), n_rows, n, drawn)
        for k in range(1, K + 1)
    ])


# mode name -> function drawing all K subsamples of one run
_DRAWS = {
    "with_replacement": _draw_with_replacement,
    "without_replacement": _draw_without_replacement,
}


def _timed_draw(draw, n_rows: int, n: int, K: int, master_seed: int) -> tuple[float, np.ndarray]:
    """Seconds per pass that draws all K subsamples, and the drawn indices."""
    passes = 0
    start = time.perf_counter()
    while True:
        indices = draw(n_rows, n, K, master_seed)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= _MIN_WINDOW_S:
            return elapsed / passes, indices


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
    for n, K in grid:
        if n * K > handle.row_count:
            raise ValueError(
                f"without_replacement requires n*K <= n_rows "
                f"({n}*{K} > {handle.row_count})"
            )
    cells = [(i, n, K, mode) for i, (n, K) in enumerate(grid) for mode in _DRAWS]

    times: list[list[float]] = [[] for _ in cells]
    errors: list[list[float]] = [[] for _ in cells]
    for r in range(1, repeats + 1):
        for (i, n, K, mode), cell_times, cell_errors in zip(cells, times, errors):
            run_seed = subsample_seed(subsample_seed(seed, BENCH_SEED_OFFSET + i), r)
            elapsed, indices = _timed_draw(_DRAWS[mode], handle.row_count, n, K, run_seed)
            cell_times.append(elapsed)
            column_means = handle.read_records(indices).rows.mean(axis=0)
            cell_errors.append(float(np.mean(column_means**2)))

    return [
        BenchResult(
            n=n, K=K, mode=mode,
            seconds=float(np.median(cell_times)),
            mse=math.fsum(cell_errors) / repeats,
        )
        for (_, n, K, mode), cell_times, cell_errors in zip(cells, times, errors)
    ]
