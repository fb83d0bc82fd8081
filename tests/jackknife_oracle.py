"""The O(n^2) jackknife that jackknife_chunk's downdate is pinned against.

It recomputes every leave-one-out mean by direct summation and evaluates g one
1-d point at a time, so it shares no arithmetic with the chunk kernel beyond g
itself. Only tests use it.
"""
import math

import numpy as np

from subjack.estimator import DomainEvalError, SubsampleResult, _check_features
from subjack.stats import Statistic


def eval_at(stat: Statistic, point: np.ndarray, *, k: int, where: str) -> float:
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


def jackknife_subsample_naive(stat: Statistic, features, k: int = 0) -> SubsampleResult:
    """Same contract as jackknife_subsample, recomputing every leave-one-out
    mean by direct summation (O(n^2) total)."""
    arr = np.asarray(features, dtype=np.float64)
    n = _check_features(stat, arr)

    theta_hat = eval_at(stat, arr.mean(axis=0), k=k, where="the subsample mean")
    keep = np.ones(n, dtype=bool)
    theta_loo = np.empty(n, dtype=np.float64)
    for j in range(n):
        keep[j] = False
        mu_j = arr[keep].mean(axis=0)
        keep[j] = True
        theta_loo[j] = eval_at(stat, mu_j, k=k, where=f"leave-one-out point j={j}")
    bias = (n - 1) * theta_loo.mean() - (n - 1) * theta_hat
    theta_jds = theta_hat - bias
    ss = float(((theta_loo - theta_hat) ** 2).sum())
    return SubsampleResult(k=k, theta_hat=theta_hat, theta_jds=float(theta_jds), ss=ss, n=n)
