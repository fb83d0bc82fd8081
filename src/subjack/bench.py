"""Wall-clock comparison of the two sampling modes against one on-disk file.

Only index generation is timed (the part whose cost differs between modes);
row reads and the mean estimate used for the MSE column happen outside the
timer, and each timed sample loops the draw for a minimum window. Repeats are
interleaved across all grid cells so background load drifts onto every cell
equally, and the per-cell median is reported. Runs single-threaded for timing
fidelity.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import BENCH_SEED_OFFSET, SamplingPlan, subsample_seed
from .simulate import temp_dataset
from .store import open_dataset

BENCH_CSV_COLUMNS = ["n", "K", "mode", "seconds", "mse"]

_MODES = ("with_replacement", "without_replacement")

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


def _timed_draw(plan: SamplingPlan) -> tuple[float, np.ndarray]:
    """Seconds per pass that draws all K subsamples, and the drawn indices."""
    passes = 0
    start = time.perf_counter()
    while True:
        if plan.mode == "with_replacement":
            chunks = [plan.indices_for(k) for k in range(1, plan.K + 1)]
        else:
            chunks = list(plan.iter_without_replacement())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= _MIN_WINDOW_S:
            return elapsed / passes, np.concatenate(chunks)


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
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if data_path is None:
        with temp_dataset(subsample_seed(seed, 1), n_rows, np.eye(2)) as path:
            return bench_sampling(n_rows, grid, seed, repeats=repeats, data_path=path)
    handle = open_dataset(data_path)
    cells = [(i, n, K, mode) for i, (n, K) in enumerate(grid) for mode in _MODES]
    # validate the whole grid up front so a bad cell fails before timing
    plans = {}
    for i, n, K, mode in cells:
        point_seed = subsample_seed(seed, BENCH_SEED_OFFSET + i)
        plans[(i, mode)] = [
            SamplingPlan(n_rows=handle.row_count, n=n, K=K,
                         master_seed=subsample_seed(point_seed, r), mode=mode)
            for r in range(1, repeats + 1)
        ]

    times: dict[tuple[int, str], list[float]] = {key: [] for key in plans}
    errors: dict[tuple[int, str], list[float]] = {key: [] for key in plans}
    for r in range(repeats):
        for i, n, K, mode in cells:
            elapsed, indices = _timed_draw(plans[(i, mode)][r])
            times[(i, mode)].append(elapsed)
            column_means = handle.read_records(indices).rows.mean(axis=0)
            errors[(i, mode)].append(float(np.mean(column_means**2)))

    return [
        BenchResult(
            n=n, K=K, mode=mode,
            seconds=float(np.median(times[(i, mode)])),
            mse=math.fsum(errors[(i, mode)]) / repeats,
        )
        for i, n, K, mode in cells
    ]
