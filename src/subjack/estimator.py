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

jackknife_chunk computes these for a chunk of subsamples, (Kc, n, q), in one
pass of numpy calls; its results are exactly the per-subsample ones. Final
reductions always run in ascending k (exactly-rounded summation), so a report
is bit-identical no matter how the subsamples were chunked.
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


def _eval_at(stat: Statistic, point: np.ndarray, *, k: int, where: str) -> float:
    if not bool(stat.in_domain(point)):
        raise DomainEvalError(
            f"statistic {stat.name!r} undefined at {where} of subsample k={k}: "
            f"moments={point.tolist()}"
        )
    value = float(stat.g(point))
    if not math.isfinite(value):
        raise DomainEvalError(
            f"statistic {stat.name!r} non-finite at {where} of subsample k={k}: "
            f"moments={point.tolist()}"
        )
    return value


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


def jackknife_chunk(stat: Statistic, features, ks) -> list[SubsampleResult]:
    """Jackknife the subsamples features[i], ordinals ks[i], with leave-one-out
    downdates over the whole (Kc, n, q) chunk at once.

    A failing chunk raises the error of its first failing subsample in ks order,
    checked as for one subsample: mean point domain, mean point finite,
    leave-one-out domain, finite results. g only ever sees in-domain points.
    """
    arr = np.asarray(features, dtype=np.float64)
    n = _check_features(stat, arr, ndim=3)
    ks = list(ks)
    if len(ks) != arr.shape[0]:
        raise ValueError(f"{len(ks)} ordinals for {arr.shape[0]} subsamples")

    # sum / n is the arithmetic of mean(), without its Python-level overhead
    mu = arr.sum(axis=1) / n
    loo = n * mu[:, None] - arr
    loo /= n - 1
    ok = stat.in_domain(loo)
    loo_ok = ok.all(axis=1)
    # theta_hat stays a per-subsample g on the 1-d mean point: scalar arithmetic
    # (e.g. kurt's v**2) rounds differently from the same formula over an array
    theta_hat = np.empty(len(ks))
    good, failure = len(ks), None
    for i, k in enumerate(ks):
        try:
            theta_hat[i] = _eval_at(stat, mu[i], k=k, where="the subsample mean")
            if not loo_ok[i]:
                j = int(np.flatnonzero(~ok[i])[0])
                raise DomainEvalError(
                    f"statistic {stat.name!r} undefined at leave-one-out point j={j} "
                    f"of subsample k={k}: moments={loo[i, j].tolist()}"
                )
        except DomainEvalError as exc:
            good, failure = i, exc
            break

    theta_hat = theta_hat[:good]
    theta_loo = np.asarray(stat.g(loo[:good]), dtype=np.float64)
    theta_jds = n * theta_hat - (n - 1) * (theta_loo.sum(axis=1) / n)
    ss = ((theta_loo - theta_hat[:, None]) ** 2).sum(axis=1)
    results = []
    for k, hat, jds, s in zip(ks, theta_hat.tolist(), theta_jds.tolist(), ss.tolist()):
        if not (math.isfinite(jds) and math.isfinite(s)):
            raise DomainEvalError(
                f"statistic {stat.name!r} produced non-finite jackknife values "
                f"in subsample k={k}"
            )
        results.append(SubsampleResult(k=k, theta_hat=hat, theta_jds=jds, ss=s, n=n))
    if failure is not None:
        raise failure
    return results


def jackknife_subsample(stat: Statistic, features, k: int = 0) -> SubsampleResult:
    """Jackknife one subsample using leave-one-out downdates (O(n*q) total)."""
    arr = np.asarray(features, dtype=np.float64)
    _check_features(stat, arr)
    return jackknife_chunk(stat, arr[None], [k])[0]


def jackknife_subsample_naive(stat: Statistic, features, k: int = 0) -> SubsampleResult:
    """Same contract as jackknife_subsample, recomputing every leave-one-out
    mean by direct summation (O(n^2) total). Kept as an independent check on
    the downdate path."""
    arr = np.asarray(features, dtype=np.float64)
    n = _check_features(stat, arr)

    theta_hat = _eval_at(stat, arr.mean(axis=0), k=k, where="the subsample mean")
    keep = np.ones(n, dtype=bool)
    theta_loo = np.empty(n, dtype=np.float64)
    for j in range(n):
        keep[j] = False
        mu_j = arr[keep].mean(axis=0)
        keep[j] = True
        theta_loo[j] = _eval_at(stat, mu_j, k=k, where=f"leave-one-out point j={j}")
    bias = (n - 1) * theta_loo.mean() - (n - 1) * theta_hat
    theta_jds = theta_hat - bias
    ss = float(((theta_loo - theta_hat) ** 2).sum())
    return SubsampleResult(k=k, theta_hat=theta_hat, theta_jds=float(theta_jds), ss=ss, n=n)


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
    if ci_center not in ("jds", "sos"):
        raise ValueError(f"ci_center must be 'jds' or 'sos', got {ci_center!r}")
    ordered = sorted(results, key=lambda r: r.k)
    n = ordered[0].n
    if any(r.n != n for r in ordered):
        raise ValueError("subsample results mix different n")
    K = len(ordered)
    theta_sos = math.fsum(r.theta_hat for r in ordered) / K
    theta_jds = math.fsum(r.theta_jds for r in ordered) / K
    se2 = (1.0 / K + n / n_rows) * math.fsum(r.ss for r in ordered) / K
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


def confidence_interval(theta: float, se: float, alpha: float) -> tuple[float, float]:
    """theta -+ se * z_{1-alpha/2}."""
    alpha = checked_alpha(alpha)
    if se < 0:
        raise ValueError("standard error must be >= 0")
    z = normal_quantile(1.0 - alpha / 2.0)
    return theta - se * z, theta + se * z
