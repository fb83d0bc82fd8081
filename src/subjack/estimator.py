"""Per-subsample jackknife quantities and their aggregation.

For one subsample of size n with feature matrix F (rows phi(x_i)):

    mu            column mean of F
    theta_hat     g(mu)
    mu_minus_j    (n*mu - F[j]) / (n-1), the leave-one-out downdate
    bias estimate (n-1) * (mean_j g(mu_minus_j) - theta_hat)
    theta_jds     theta_hat - bias estimate
    ss            sum_j (g(mu_minus_j) - theta_hat)^2

Across K subsamples the point estimates are plain averages and

    se^2 = (1/K + n/N) * mean_k ss_k.

jackknife_arrays is the one kernel. It computes these for a chunk of
subsamples, (Kc, n, q), in one pass of numpy calls, with no per-subsample
loop, and returns theta_hat, theta_jds and ss as float64 arrays: theta_hat is
one call of the statistic's g_mean over the chunk's in-domain means, and its
results are exactly the per-subsample ones, byte for byte. The column means mu
are sum / n, with the rows of each column added in order. For a C-ordered
chunk with q > 1, einsum does that addition in long inner loops, where
sum(axis=1) runs loops only q long; the two round the same. For q = 1 the
rows are the contiguous axis, which sum adds pairwise, so sum is kept there,
and for any other layout too.

run_estimate keeps each chunk's arrays and hands them to summarize, the
exactly-rounded (fsum) tail that also ends aggregate, so a report is
bit-identical no matter how the subsamples were chunked. jackknife_chunk and
aggregate are the same kernel and tail over per-subsample SubsampleResults.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .stats import Statistic


class DomainEvalError(Exception):
    """The statistic's reducer was evaluated outside its domain."""


@dataclass(frozen=True)
class SubsampleResult:
    k: int
    theta_hat: float
    theta_jds: float
    ss: float
    n: int


@dataclass(frozen=True)
class EstimateReport:
    theta_sos: float
    theta_jds: float
    se: float
    ci_low: float
    ci_high: float
    alpha: float
    n: int
    K: int
    N: int
    master_seed: int
    statistic_name: str
    rng_id: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_table(self) -> str:
        rows = list(asdict(self).items())
        width = max(len(key) for key, _ in rows)
        return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls(**json.loads(text))


def _check_features(stat: Statistic, arr: np.ndarray, ndim: int = 2) -> int:
    if arr.ndim != ndim or arr.shape[-1] != stat.q:
        axes = "n" if ndim == 2 else "Kc, n"
        raise ValueError(
            f"features must be an ({axes}, {stat.q}) array for statistic {stat.name!r}, "
            f"got shape {arr.shape}"
        )
    if arr.shape[-2] < 2:
        raise ValueError("jackknife needs n >= 2")
    return arr.shape[-2]


def jackknife_arrays(stat: Statistic, features, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jackknife the subsamples features[i], ordinals ks[i], with leave-one-out
    downdates over the whole (Kc, n, q) chunk at once.

    Returns float64 arrays (theta_hat, theta_jds, ss), entry i for subsample
    ks[i]; ks is a sequence, read only to name a failing subsample. A failing
    chunk raises the error of its first failing subsample in ks order, checked
    as for one subsample: mean point domain, mean point finite, leave-one-out
    domain, finite results. g only ever sees in-domain points.
    """
    arr = np.asarray(features, dtype=np.float64)
    n = _check_features(stat, arr, ndim=3)
    if len(ks) != arr.shape[0]:
        raise ValueError(f"{len(ks)} ordinals for {arr.shape[0]} subsamples")

    # sum / n is the arithmetic of mean(), without its Python-level overhead.
    # Where the rows of a column are not the contiguous axis, sum adds them in
    # order, as einsum does in longer inner loops (see the module docstring).
    if stat.q > 1 and arr.flags.c_contiguous:
        mu = np.einsum("knq->kq", arr) / n
    else:
        mu = arr.sum(axis=1) / n
    mean_ok = stat.in_domain(mu)
    # theta_hat = g at every in-domain mean in one call; g_mean keeps the
    # rounding of g on a single 1-d point (see Statistic.g_mean)
    theta_hat = np.full(len(ks), np.nan)
    theta_hat[mean_ok] = stat.g_mean(mu[mean_ok])
    loo = n * mu[:, None] - arr
    loo /= n - 1
    ok = stat.in_domain(loo)
    hat_ok = np.isfinite(theta_hat)
    failing = ~(mean_ok & hat_ok & ok.all(axis=1))
    good = int(failing.argmax()) if failing.any() else len(ks)

    theta_hat = theta_hat[:good]
    theta_loo = np.asarray(stat.g(loo[:good]), dtype=np.float64)
    theta_jds = n * theta_hat - (n - 1) * (theta_loo.sum(axis=1) / n)
    ss = ((theta_loo - theta_hat[:, None]) ** 2).sum(axis=1)
    # in ks order, a non-finite result before subsample `good` is the first failure
    nonfinite = ~(np.isfinite(theta_jds) & np.isfinite(ss))
    if nonfinite.any():
        raise DomainEvalError(
            f"statistic {stat.name!r} produced non-finite jackknife values "
            f"in subsample k={ks[int(nonfinite.argmax())]}"
        )
    if good < len(ks):
        point = f"the subsample mean of subsample k={ks[good]}: moments={mu[good].tolist()}"
        if not mean_ok[good]:
            raise DomainEvalError(f"statistic {stat.name!r} undefined at {point}")
        if not hat_ok[good]:
            raise DomainEvalError(f"statistic {stat.name!r} non-finite at {point}")
        j = int(np.flatnonzero(~ok[good])[0])
        raise DomainEvalError(
            f"statistic {stat.name!r} undefined at leave-one-out point j={j} "
            f"of subsample k={ks[good]}: moments={loo[good, j].tolist()}"
        )
    return theta_hat, theta_jds, ss


def jackknife_chunk(stat: Statistic, features, ks) -> list[SubsampleResult]:
    """jackknife_arrays' results for each subsample, as SubsampleResults in ks order."""
    arr = np.asarray(features, dtype=np.float64)
    ks = list(ks)
    columns = (array.tolist() for array in jackknife_arrays(stat, arr, ks))
    n = arr.shape[1]
    return [
        SubsampleResult(k=k, theta_hat=hat, theta_jds=jds, ss=s, n=n)
        for k, hat, jds, s in zip(ks, *columns)
    ]


def jackknife_subsample(stat: Statistic, features, k: int = 0) -> SubsampleResult:
    """Jackknife one subsample using leave-one-out downdates (O(n*q) total)."""
    arr = np.asarray(features, dtype=np.float64)
    _check_features(stat, arr)
    return jackknife_chunk(stat, arr[None], [k])[0]


def aggregate(
    results: list[SubsampleResult],
    n_rows: int,
    *,
    alpha: float = 0.05,
    master_seed: int = 0,
    statistic_name: str = "",
    rng_id: str = "",
    ci_center: str = "jds",
) -> EstimateReport:
    """Combine per-subsample results into the final report.

    Results may arrive in any order; they are reduced in ascending k.
    """
    if not results:
        raise ValueError("no subsample results to aggregate")
    ordered = sorted(results, key=lambda r: r.k)
    n = ordered[0].n
    if any(r.n != n for r in ordered):
        raise ValueError("subsample results mix different n")
    return summarize(
        [r.theta_hat for r in ordered],
        [r.theta_jds for r in ordered],
        [r.ss for r in ordered],
        n,
        n_rows,
        alpha=alpha,
        master_seed=master_seed,
        statistic_name=statistic_name,
        rng_id=rng_id,
        ci_center=ci_center,
    )


def summarize(
    theta_hat: list[float],
    theta_jds: list[float],
    ss: list[float],
    n: int,
    n_rows: int,
    *,
    alpha: float = 0.05,
    master_seed: int = 0,
    statistic_name: str = "",
    rng_id: str = "",
    ci_center: str = "jds",
) -> EstimateReport:
    """The report from K >= 1 subsamples' values, entry i of each list from
    the same subsample.

    Sums are exactly rounded (math.fsum), so the report does not depend on
    the order of the subsamples, nor on how they were chunked.
    """
    checked_ci_center(ci_center)
    K = len(theta_hat)
    theta_sos = math.fsum(theta_hat) / K
    theta_jds = math.fsum(theta_jds) / K
    se2 = (1.0 / K + n / n_rows) * math.fsum(ss) / K
    se = math.sqrt(se2)
    center = theta_jds if ci_center == "jds" else theta_sos
    ci_low, ci_high = confidence_interval(center, se, alpha)
    return EstimateReport(
        theta_sos=theta_sos,
        theta_jds=theta_jds,
        se=se,
        ci_low=ci_low,
        ci_high=ci_high,
        alpha=alpha,
        n=n,
        K=K,
        N=n_rows,
        master_seed=master_seed,
        statistic_name=statistic_name,
        rng_id=rng_id,
    )


# Acklam's rational approximation to the standard normal quantile.
# Max relative error 1.15e-9 over (0, 1).
_QUANT_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_QUANT_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_QUANT_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_QUANT_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_QUANT_SPLIT = 0.02425


def normal_quantile(p: float) -> float:
    """Standard normal quantile via Acklam's approximation."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile defined on (0, 1), got {p}")
    a, b, c, d = _QUANT_A, _QUANT_B, _QUANT_C, _QUANT_D
    if p < _QUANT_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return num / den
    if p > 1.0 - _QUANT_SPLIT:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return -num / den
    q = p - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return num / den


def checked_alpha(alpha: float) -> float:
    """alpha as a float, if it is a number in (0, 1)."""
    if not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


def checked_ci_center(ci_center: str) -> str:
    """ci_center, if it names a point estimate the interval can center on."""
    if ci_center not in ("jds", "sos"):
        raise ValueError(f"ci_center must be 'jds' or 'sos', got {ci_center!r}")
    return ci_center


def confidence_interval(theta: float, se: float, alpha: float) -> tuple[float, float]:
    """theta -+ se * z_{1-alpha/2}."""
    alpha = checked_alpha(alpha)
    if se < 0:
        raise ValueError("standard error must be >= 0")
    z = normal_quantile(1.0 - alpha / 2.0)
    return theta - se * z, theta + se * z
