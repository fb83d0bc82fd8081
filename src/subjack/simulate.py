"""Synthetic data generation and Monte Carlo evaluation of the estimators.

A replication re-runs the full estimate pipeline on the same fixed dataset
with a fresh master seed derived from (master_seed, replication ordinal), so
only the subsampling randomness varies across replications. Replication m's
outcome depends on (master_seed, m) alone, never on execution order.
"""
from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .estimator import normal_quantile
from .pipeline import run_estimate
from .sampling import REPLICATION_SEED_OFFSET, checked_seed, subsample_seed
from .stats import parse_statistic
from .store import DatasetHeader, write_blocks

_GEN_CHUNK = 1 << 18

METRICS_CSV_COLUMNS = [
    "dataset", "statistic", "n", "K", "M", "alpha", "master_seed", "theta_true",
    "bias_sos", "bias_jds", "se_sos", "se_jds",
    "ecp_sos", "ecp_jds", "rae_median_sos", "rae_median_jds",
]


def generate_bivariate_normal(
    seed: int, n_rows: int, sigma, out_path: str | Path
) -> DatasetHeader:
    """Write n_rows iid mean-zero bivariate normal rows with covariance sigma."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (2, 2):
        raise ValueError("sigma must be a 2x2 covariance matrix")
    if not np.allclose(sigma, sigma.T, rtol=0, atol=0):
        raise ValueError("sigma must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("sigma must be positive definite") from None
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")

    rng = np.random.Generator(np.random.Philox(key=checked_seed(seed)))

    def chunks():
        block = np.empty((_GEN_CHUNK, 2), dtype=np.float64)
        for start in range(0, n_rows, _GEN_CHUNK):
            z = rng.standard_normal((min(_GEN_CHUNK, n_rows - start), 2))
            out = block[:len(z)]
            # explicit lower-triangular mix keeps the output independent of chunking
            out[:, 0] = chol[0, 0] * z[:, 0]
            out[:, 1] = chol[1, 0] * z[:, 0] + chol[1, 1] * z[:, 1]
            yield out  # reusing block is safe: write_blocks writes it before the next pull

    return write_blocks(out_path, 2, chunks())


@contextmanager
def temp_dataset(seed: int, n_rows: int, sigma):
    """Yield the path of a generated temp dataset, unlinked on every exit."""
    fd, path = tempfile.mkstemp(suffix=".sjds")
    os.close(fd)
    try:
        generate_bivariate_normal(seed, n_rows, sigma, path)
        yield path
    finally:
        Path(path).unlink(missing_ok=True)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: dataset x statistic x (n, K) x M."""

    dataset: str | dict
    statistic: str
    n: int
    K: int
    M: int
    alpha: float = 0.05
    master_seed: int = 0
    theta_true: float | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("replication count M must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.n < 2:
            raise ValueError("jackknife estimation needs subsample size n >= 2")
        if self.K < 1:
            raise ValueError("subsample count K must be >= 1")
        stat = parse_statistic(self.statistic)
        if isinstance(self.dataset, dict):
            _parse_generator_spec(self.dataset)
            stat.validate_columns(2)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f: raw[f] for f in cls.__dataclass_fields__ if f in raw}
        unknown = set(raw) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**known)

    def dataset_label(self) -> str:
        if isinstance(self.dataset, str):
            return self.dataset
        return "generated:rows={rows},seed={seed}".format(**self.dataset)


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
    rae_sos: list[float] = field(repr=False)
    rae_jds: list[float] = field(repr=False)
    per_rep: list[PerReplication] = field(repr=False)

    def csv_row(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "dataset": cfg.dataset_label(),
            "statistic": cfg.statistic,
            "n": cfg.n,
            "K": cfg.K,
            "M": cfg.M,
            "alpha": cfg.alpha,
            "master_seed": cfg.master_seed,
            "theta_true": "" if cfg.theta_true is None else cfg.theta_true,
            "bias_sos": self.bias_sos,
            "bias_jds": self.bias_jds,
            "se_sos": self.se_sos,
            "se_jds": self.se_jds,
            "ecp_sos": self.ecp_sos,
            "ecp_jds": self.ecp_jds,
            "rae_median_sos": self.rae_median_sos,
            "rae_median_jds": self.rae_median_jds,
        }

    def json_detail(self) -> dict[str, Any]:
        detail = self.csv_row()
        detail["per_rep"] = [asdict(rep) for rep in self.per_rep]
        return detail


def replication_seed(master_seed: int, m: int) -> int:
    """Master seed for replication m; disjoint from estimate-run ordinals."""
    return subsample_seed(master_seed, REPLICATION_SEED_OFFSET + m)


def resolve_workers(workers: int | None) -> int:
    """Process count for a replication pool; None or <= 0 means auto."""
    if workers is None or workers <= 0:
        return min(os.cpu_count() or 1, 8)
    return workers


def _replication_worker(args) -> tuple[int, float, float, float]:
    path, statistic, n, K, alpha, master_seed, m = args
    report = run_estimate(path, statistic, n, K, replication_seed(master_seed, m), alpha=alpha)
    return m, report.theta_sos, report.theta_jds, report.se


def _parse_generator_spec(spec: dict) -> tuple[int, int, np.ndarray]:
    """(seed, rows, sigma) of a generator spec; sigma defaults to the identity."""
    spec = dict(spec)
    try:
        rows = _integer_field(spec, "rows")
        seed = checked_seed(_integer_field(spec, "seed"))
    except KeyError as exc:
        raise ValueError(f"generator spec missing field {exc}") from None
    sigma = np.asarray(spec.pop("sigma", np.eye(2)), dtype=np.float64)
    if spec:
        raise ValueError(f"unknown generator spec fields: {sorted(spec)}")
    if rows < 1:
        raise ValueError("generator spec rows must be >= 1")
    if sigma.shape != (2, 2):
        raise ValueError("generator spec sigma must be a 2x2 matrix")
    return seed, rows, sigma


def _integer_field(spec: dict, name: str) -> int:
    value = spec.pop(name)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"generator spec {name} must be an integer, got {value!r}")
    return number


@contextmanager
def _dataset_path(dataset: str | dict):
    """Yield a dataset path; a generator spec is written to a temp file."""
    if isinstance(dataset, str):
        yield dataset
        return
    with temp_dataset(*_parse_generator_spec(dataset)) as path:
        yield path


def _sample_sd(values: list[float]) -> float:
    m = len(values)
    if m < 2:
        return float("nan")
    mean = math.fsum(values) / m
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (m - 1))


def run_replications(cfg: ExperimentConfig, *, workers: int | None = 1) -> ReplicationMetrics:
    """Run the estimate pipeline M times and score both estimator families."""
    with _dataset_path(cfg.dataset) as path:
        reps = _collect_replications(cfg, path, workers)

    z = normal_quantile(1.0 - cfg.alpha / 2.0)
    per_rep = [
        PerReplication(
            m=m,
            theta_sos=sos,
            theta_jds=jds,
            se=se,
            ci_low_jds=jds - z * se,
            ci_high_jds=jds + z * se,
            ci_low_sos=sos - z * se,
            ci_high_sos=sos + z * se,
        )
        for m, sos, jds, se in reps
    ]

    M = cfg.M
    sos_vals = [r.theta_sos for r in per_rep]
    jds_vals = [r.theta_jds for r in per_rep]
    se_vals = [r.se for r in per_rep]
    theta = cfg.theta_true
    if theta is None:
        bias_sos = bias_jds = float("nan")
        ecp_sos = ecp_jds = float("nan")
    else:
        bias_sos = math.fsum(v - theta for v in sos_vals) / M
        bias_jds = math.fsum(v - theta for v in jds_vals) / M
        ecp_sos = sum(1 for r in per_rep if r.ci_low_sos <= theta <= r.ci_high_sos) / M
        ecp_jds = sum(1 for r in per_rep if r.ci_low_jds <= theta <= r.ci_high_jds) / M
    se_sos = _sample_sd(sos_vals)
    se_jds = _sample_sd(jds_vals)
    rae_sos = [abs(se / se_sos - 1.0) if se_sos > 0 else float("nan") for se in se_vals]
    rae_jds = [abs(se / se_jds - 1.0) if se_jds > 0 else float("nan") for se in se_vals]

    def _median(values: list[float]) -> float:
        return float(np.median(values)) if values and not math.isnan(values[0]) else float("nan")

    return ReplicationMetrics(
        config=cfg,
        bias_sos=bias_sos,
        bias_jds=bias_jds,
        se_sos=se_sos,
        se_jds=se_jds,
        ecp_sos=ecp_sos,
        ecp_jds=ecp_jds,
        rae_median_sos=_median(rae_sos),
        rae_median_jds=_median(rae_jds),
        rae_sos=rae_sos,
        rae_jds=rae_jds,
        per_rep=per_rep,
    )


def _collect_replications(cfg: ExperimentConfig, path: str, workers: int | None):
    tasks = [
        (path, cfg.statistic, cfg.n, cfg.K, cfg.alpha, cfg.master_seed, m)
        for m in range(1, cfg.M + 1)
    ]
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or cfg.M == 1:
        results = [_replication_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(
                pool.map(_replication_worker, tasks, chunksize=max(1, cfg.M // (8 * n_workers)))
            )
    return sorted(results, key=lambda item: item[0])
