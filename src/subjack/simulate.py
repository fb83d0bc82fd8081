"""Synthetic data generation and Monte Carlo evaluation of the estimators.

A replication re-runs the full estimate pipeline on the same fixed dataset
with a fresh master seed derived from (master_seed, replication ordinal), so
only the subsampling randomness varies across replications. Replication m's
outcome depends on (master_seed, m) alone, never on execution order.

_replicate(path, cfg, m) runs replication m, with the same arguments
in-process and in a pool process. It opens the dataset through a one-entry
cache, so each process that runs replications maps the dataset once per call
and reads every replication it runs through that one map; a pool process
opens it in its first replication of a call, so an open error reaches the
caller as a StoreError at every worker count. A pool process's RSS therefore
counts once each dataset page it has touched; those are shared file pages,
not heap.

A process keeps one replication pool. It starts on the first pooled call and
is reused by every later pooled call with the same process count; a call with
another count, or a call in a forked child, shuts the old pool down before it
starts a new one. A pooled call submits one task per process, _run_share,
which takes replication ordinals from a counter the pool shares until none is
left; the caller merges the shares in m order. A failing replication uses up
the counter, so no process takes another m, and the call raises the error of
the smallest failing m: every smaller m was handed out and ran, so that is the
error an in-process run raises. Every call, in-process or pooled, empties the
cache of each process that ran replications before it returns, so no process
maps a dataset between calls: a generated temp file is unmapped once the call
returns, and a file replaced between calls is opened afresh. An error or an
interrupt during a pooled call uses up the counter and shuts the pool down, so
each process finishes at most the replication it holds; the interpreter's exit
joins the pool, and pool processes exit once their parent is gone, even when
it was killed. The pool serves one call at a time: two threads must not run
pooled calls at once.
"""
from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import sys
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .estimator import confidence_interval
from .pipeline import check_run, run_estimate
from .sampling import REPLICATION_SEED_OFFSET, checked_count, checked_seed, subsample_seed
from .store import DatasetHeader, open_dataset, write_blocks

_GEN_CHUNK = 1 << 18

METRICS_CSV_COLUMNS = [
    "dataset", "statistic", "n", "K", "M", "alpha", "master_seed", "theta_true",
    "bias_sos", "bias_jds", "se_sos", "se_jds",
    "ecp_sos", "ecp_jds", "rae_median_sos", "rae_median_jds",
]


def checked_sigma(sigma) -> np.ndarray:
    """sigma as a float64 array, if it is a symmetric positive definite 2x2 matrix."""
    try:
        matrix = np.asarray(sigma, dtype=np.float64)
    except (TypeError, ValueError):
        matrix = None
    if matrix is None or matrix.shape != (2, 2):
        raise ValueError("sigma must be a 2x2 covariance matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("sigma must be finite")
    if not np.allclose(matrix, matrix.T, rtol=0, atol=0):
        raise ValueError("sigma must be symmetric")
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ValueError("sigma must be positive definite") from None
    return matrix


def generate_bivariate_normal(
    seed: int, n_rows: int, sigma, out_path: str | Path
) -> DatasetHeader:
    """Write n_rows iid mean-zero bivariate normal rows with covariance sigma."""
    chol = np.linalg.cholesky(checked_sigma(sigma))
    n_rows = checked_count(n_rows, "n_rows")

    rng = np.random.Generator(np.random.Philox(key=checked_seed(seed)))

    def chunks():
        # filled in place: arrays made per chunk let peak RSS follow heap layout
        normals = np.empty((_GEN_CHUNK, 2), dtype=np.float64)
        block = np.empty((_GEN_CHUNK, 2), dtype=np.float64)
        for start in range(0, n_rows, _GEN_CHUNK):
            z = rng.standard_normal(out=normals[:min(_GEN_CHUNK, n_rows - start)])
            out = block[:len(z)]
            # explicit lower-triangular mix keeps the output independent of chunking
            np.multiply(chol[0, 0], z[:, 0], out=out[:, 0])
            np.multiply(chol[1, 0], z[:, 0], out=out[:, 1])
            z[:, 1] *= chol[1, 1]
            out[:, 1] += z[:, 1]
            yield out  # reusing block is safe: write_blocks writes it before the next pull

    return write_blocks(out_path, 2, chunks())


@contextmanager
def temp_dataset(seed: int, n_rows: int, sigma):
    """Yield the path of a generated temp dataset, unlinked on every exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.sjds")
        generate_bivariate_normal(seed, n_rows, sigma, path)
        yield path


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: dataset x statistic x (n, K) x M.

    Built only from valid fields: M, theta_true (a finite number, not a bool,
    or None) and the dataset are checked here, and the statistic, n, K, alpha
    and master seed by pipeline.check_run, the check run_estimate makes. A
    generator spec is checked whole (its sigma too) and counts as a 2-column
    dataset; a path is opened, after every other field has passed. Counts and
    seeds are stored as ints, and a spec's parsed (seed, rows, sigma) as _spec
    (None for a path).
    """

    dataset: str | dict
    statistic: str
    n: int
    K: int
    M: int
    alpha: float = 0.05
    master_seed: int = 0
    theta_true: float | None = None

    def __post_init__(self):
        M = checked_count(self.M, "replication count M")
        theta = self.theta_true
        # finite: abs(nan) compares False, and an int is compared exactly
        if theta is not None and (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
                                  or not abs(theta) <= sys.float_info.max):
            raise ValueError(f"theta_true must be a number or null, got {theta!r}")
        if isinstance(self.dataset, dict):
            spec = _parse_generator_spec(self.dataset)
            dataset = DatasetHeader(row_count=spec[1], col_count=2)
        elif isinstance(self.dataset, (str, Path)):
            spec, dataset = None, self.dataset
        else:
            raise ValueError(
                f"dataset must be a path or a generator spec object, got {self.dataset!r}"
            )
        _, n, K, master_seed, alpha = check_run(
            dataset, self.statistic, self.n, self.K, self.master_seed, self.alpha
        )
        for name, value in [("n", n), ("K", K), ("M", M), ("master_seed", master_seed),
                            ("alpha", alpha), ("_spec", spec)]:
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config entry must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ValueError(f"config is missing fields: {missing}")
        return cls(**raw)

    def dataset_label(self) -> str:
        if self._spec is None:
            return str(self.dataset)
        seed, rows, _ = self._spec
        return f"generated:rows={rows},seed={seed}"


@dataclass(frozen=True)
class PerReplication:
    m: int
    theta_sos: float
    theta_jds: float
    se: float
    ci_low_jds: float
    ci_high_jds: float
    ci_low_sos: float
    ci_high_sos: float


@dataclass(frozen=True)
class ReplicationMetrics:
    config: ExperimentConfig
    bias_sos: float
    bias_jds: float
    se_sos: float
    se_jds: float
    ecp_sos: float
    ecp_jds: float
    rae_median_sos: float
    rae_median_jds: float
    per_rep: list[PerReplication] = field(repr=False)

    def csv_row(self) -> dict[str, Any]:
        cfg = self.config
        row = {name: getattr(self if hasattr(self, name) else cfg, name)
               for name in METRICS_CSV_COLUMNS}
        row["dataset"] = cfg.dataset_label()
        if cfg.theta_true is None:
            row["theta_true"] = ""
        return row

    def json_detail(self) -> dict[str, Any]:
        detail = self.csv_row()
        detail["per_rep"] = [asdict(rep) for rep in self.per_rep]
        return detail


def replication_seed(master_seed: int, m: int) -> int:
    """Master seed for replication m; disjoint from estimate-run ordinals."""
    return subsample_seed(master_seed, REPLICATION_SEED_OFFSET + m)


def resolve_workers(workers: int | None) -> int:
    """Process count for a replication pool; None or <= 0 means auto, and
    anything else but an integer (a bool included) is a ValueError.

    Auto is the number of CPUs this process may run on, up to 8.
    """
    count = 0 if workers is None else checked_count(workers, "workers", minimum=-math.inf)
    if count <= 0:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(cpus or 1, 8)
    return count


def _parse_generator_spec(spec: dict) -> tuple[int, int, np.ndarray]:
    """(seed, rows, sigma) of a generator spec, checked as generation checks them.

    sigma defaults to the identity.
    """
    spec = dict(spec)
    try:
        rows, seed = spec.pop("rows"), spec.pop("seed")
    except KeyError as exc:
        raise ValueError(f"generator spec missing field {exc}") from None
    sigma = spec.pop("sigma", np.eye(2))
    if spec:
        raise ValueError(f"unknown generator spec fields: {sorted(spec)}")
    rows = checked_count(rows, "generator spec rows")
    return checked_seed(seed), rows, checked_sigma(sigma)


# this process's map of the dataset it runs replications on
_open_cached = lru_cache(maxsize=1)(open_dataset)

# this process's replication pool as (creating pid, process count, pool, counter)
_shared_pool: tuple[int, int, ProcessPoolExecutor, Any] | None = None
# in a pool process: how many replications of the running call its pool has handed out
_taken = None


def _replicate(path: str | Path, cfg: ExperimentConfig, m: int):
    """(m, theta_sos, theta_jds, se) of replication m of cfg on the dataset at path."""
    report = run_estimate(
        _open_cached(path), cfg.statistic, cfg.n, cfg.K, replication_seed(cfg.master_seed, m),
        alpha=cfg.alpha,
    )
    return m, report.theta_sos, report.theta_jds, report.se


def _exit_with_parent() -> None:
    """End this process once the process that started the pool is gone."""
    parent = multiprocessing.parent_process()

    def watch():
        # join returns at EOF on a pipe the parent holds open; a pool process
        # forked after this one holds it too, and exits by the same rule first
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _start_worker(taken) -> None:
    """Pool initializer: keep the pool's replication counter and watch the parent."""
    global _taken
    _taken = taken
    _exit_with_parent()


def _take(M: int) -> int | None:
    """The next replication ordinal of the running call, or None once M are out."""
    with _taken.get_lock():
        if _taken.value >= M:
            return None
        _taken.value += 1
        return _taken.value


def _run_share(path: str | Path, cfg: ExperimentConfig):
    """Pool task: run replications of cfg taken from the pool's counter until
    none is left, as (outcomes, failure).

    failure is None, or (m, error) for the replication that raised; it also
    uses up the counter, so no process of the pool takes another m. The
    process's map is dropped on return.
    """
    reps = []
    try:
        while (m := _take(cfg.M)) is not None:
            try:
                reps.append(_replicate(path, cfg, m))
            except Exception as exc:
                _taken.value = cfg.M
                return reps, (m, exc)
    finally:
        _open_cached.cache_clear()
    return reps, None


def _pool(n_workers: int) -> tuple[ProcessPoolExecutor, Any]:
    """(pool, counter) of this process's pool of n_workers processes, started
    if it has none."""
    global _shared_pool
    key = (os.getpid(), n_workers)
    if _shared_pool is not None and _shared_pool[:2] != key:
        # shut down first, so no manager thread is alive when the new pool forks
        _discard_pool()
    if _shared_pool is None:
        taken = multiprocessing.Value("q", 0)
        pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_start_worker,
                                   initargs=(taken,))
        _shared_pool = (*key, pool, taken)
    return _shared_pool[2:]


def _discard_pool() -> None:
    """Shut down this process's pool, if it has one, cancelling queued tasks."""
    global _shared_pool
    if _shared_pool is not None:
        pool, _shared_pool = _shared_pool[2], None
        pool.shutdown(cancel_futures=True)


def _score(values: list[float], ses: list[float], intervals: list[tuple[float, float]],
           theta: float | None) -> tuple[float, float, float, float]:
    """(bias, SE, ECP, median RAE) of one estimator family's M estimates."""
    M = len(values)
    if theta is None:
        bias = ecp = float("nan")
    else:
        bias = math.fsum(v - theta for v in values) / M
        ecp = sum(1 for low, high in intervals if low <= theta <= high) / M
    sd = float("nan")
    if M >= 2:
        mean = math.fsum(values) / M
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (M - 1))
    rel_err = [abs(se / sd - 1.0) if sd > 0 else float("nan") for se in ses]
    rae = float("nan") if math.isnan(rel_err[0]) else float(np.median(rel_err))
    return bias, sd, ecp, rae


def run_replications(cfg: ExperimentConfig, *, workers: int | None = 1) -> ReplicationMetrics:
    """Run the estimate pipeline M times and score both estimator families."""
    n_workers = min(resolve_workers(workers), cfg.M)
    with nullcontext(cfg.dataset) if cfg._spec is None else temp_dataset(*cfg._spec) as path:
        reps = _collect_replications(cfg, path, n_workers)

    per_rep = [
        PerReplication(m, sos, jds, se,
                       *confidence_interval(jds, se, cfg.alpha),
                       *confidence_interval(sos, se, cfg.alpha))
        for m, sos, jds, se in reps
    ]
    ses = [r.se for r in per_rep]
    scores_sos = _score([r.theta_sos for r in per_rep], ses,
                        [(r.ci_low_sos, r.ci_high_sos) for r in per_rep], cfg.theta_true)
    scores_jds = _score([r.theta_jds for r in per_rep], ses,
                        [(r.ci_low_jds, r.ci_high_jds) for r in per_rep], cfg.theta_true)
    # the metric fields alternate sos and jds: bias, se, ecp, rae_median
    return ReplicationMetrics(cfg, *chain.from_iterable(zip(scores_sos, scores_jds)),
                              per_rep=per_rep)


def _collect_replications(cfg: ExperimentConfig, path: str | Path, n_workers: int):
    """Every replication's outcome, in m order, from n_workers processes."""
    if n_workers <= 1:
        try:
            return [_replicate(path, cfg, m) for m in range(1, cfg.M + 1)]
        finally:
            _open_cached.cache_clear()
    pool, taken = _pool(n_workers)
    try:
        taken.value = 0
        shares = [future.result() for future in
                  [pool.submit(_run_share, path, cfg) for _ in range(n_workers)]]
        failures = [failure for _, failure in shares if failure is not None]
        if failures:
            # every m below the first failure was handed out and ran, so the
            # smallest failing m is the one an in-process run stops at
            raise min(failures, key=lambda failure: failure[0])[1]
    except BaseException:
        # each process stops after the replication it runs
        taken.value = cfg.M
        _discard_pool()
        raise
    return sorted(chain.from_iterable(reps for reps, _ in shares))
