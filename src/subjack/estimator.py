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

jackknife_planes is the one kernel. It computes these for a chunk of Kc
subsamples in one pass of numpy calls, with no per-subsample loop, on moment
planes: a (q, n, Kc) array whose entry [i, j, c] is feature i of row j of
subsample c, so each elementwise step reads or writes whole contiguous (n, Kc)
planes. g and in_domain read the leave-one-out points as the (Kc, n, q)
transposed view, where each m[..., i] is a plane. theta_hat is one call of
the statistic's g_mean over the chunk's in-domain means, and the results are
exactly the per-subsample ones, byte for byte.

Every sum rounds as over the row-major (Kc, n, q) chunk, where sum(axis=1)
adds the rows of each column in order for q > 1, and for q = 1, where they are
the contiguous axis, pairwise. On planes, add.reduce over the rows adds in
order in loops Kc long, except for one subsample (Kc = 1), whose rows it would
add pairwise; that case, q = 1 and planes in any other layout take the
row-major sums on a copy. The g values are copied to C order, so each
subsample's n of them are summed pairwise. jackknife_chunk runs the kernel on a
(Kc, n, q) chunk, with the chunk's own means.

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

from .sampling import checked_count
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


def _plane_means(planes: np.ndarray) -> np.ndarray:
    """The (q, Kc) subsample means of (q, n, Kc) planes, as sum / n, rounded
    as sum(axis=1) rounds them on the row-major chunk (see the module
    docstring).
    """
    q, n, kc = planes.shape
    if q == 1 or kc == 1 or not planes.flags.c_contiguous:
        return (np.ascontiguousarray(planes.transpose(2, 1, 0)).sum(axis=1) / n).T
    return np.add.reduce(planes, axis=1) / n


def jackknife_planes(
    stat: Statistic,
    planes,
    ks,
    *,
    mu: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jackknife kernel on moment planes: planes[i, j, c] is feature i of
    row j of subsample ks[c], a (q, n, Kc) array, C-contiguous as
    _chunk_columns gets it. mu, the (q, Kc) subsample means, defaults to
    _plane_means. The leave-one-out means are written over the planes, so a
    float64 planes array passed in is overwritten.

    Returns float64 arrays (theta_hat, theta_jds, ss), entry c for subsample
    ks[c]; ks is a sequence, read only to name a failing subsample. A failing
    chunk raises the error of its first failing subsample in ks order, checked
    as for one subsample: mean point domain, mean point finite, leave-one-out
    domain, finite results. g only ever sees in-domain points.
    """
    planes = np.asarray(planes, dtype=np.float64)
    if planes.ndim != 3 or planes.shape[0] != stat.q:
        raise ValueError(
            f"planes must be a ({stat.q}, n, Kc) array for statistic {stat.name!r}, "
            f"got shape {planes.shape}"
        )
    n = planes.shape[1]
    if n < 2:
        raise ValueError("jackknife needs n >= 2")
    if len(ks) != planes.shape[2]:
        raise ValueError(f"{len(ks)} ordinals for {planes.shape[2]} subsamples")
    if mu is None:
        mu = _plane_means(planes)
    means = mu.T  # (Kc, q), as the statistic reads moments
    mean_ok = stat.in_domain(means)
    # theta_hat = g at every in-domain mean in one call; g_mean keeps the
    # rounding of g on a single 1-d point (see Statistic.g_mean)
    theta_hat = np.full(len(ks), np.nan)
    theta_hat[mean_ok] = stat.g_mean(means[mean_ok])
    # (n * mu - x_j) / (n - 1) for every row j, one plane per moment; the
    # statistic reads it as (Kc, n, q), where each m[..., i] is a whole plane
    loo = np.subtract((n * mu)[:, None, :], planes, out=planes)
    loo /= n - 1
    loo = loo.transpose(2, 1, 0)
    ok = stat.in_domain(loo)
    hat_ok = np.isfinite(theta_hat)
    failing = ~(mean_ok & hat_ok & ok.all(axis=1))
    good = int(failing.argmax()) if failing.any() else len(ks)

    theta_hat = theta_hat[:good]
    # C order, so the row sums below add each subsample's n values pairwise
    theta_loo = np.ascontiguousarray(stat.g(loo[:good]), dtype=np.float64)
    theta_jds = n * theta_hat - (n - 1) * (theta_loo.sum(axis=1) / n)
    deviations = theta_loo - theta_hat[:, None]
    ss = np.square(deviations, out=deviations).sum(axis=1)
    # in ks order, a non-finite result before subsample `good` is the first failure
    nonfinite = ~(np.isfinite(theta_jds) & np.isfinite(ss))
    if nonfinite.any():
        raise DomainEvalError(
            f"statistic {stat.name!r} produced non-finite jackknife values "
            f"in subsample k={ks[int(nonfinite.argmax())]}"
        )
    if good < len(ks):
        point = f"the subsample mean of subsample k={ks[good]}: moments={means[good].tolist()}"
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
    """jackknife_planes on a (Kc, n, q) chunk, subsample features[i] with
    ordinal ks[i], as SubsampleResults in ks order. The kernel gets a copy of
    the chunk's transposed view and the means sum(axis=1) / n takes on the
    chunk as laid out: the view's layout cannot say how to round them, since
    one column-major subsample is C-contiguous planes.
    """
    arr = np.asarray(features, dtype=np.float64)
    n = _check_features(stat, arr, ndim=3)
    ks = list(ks)
    # a copy with the view's strides, on which the rounding of g can depend
    planes = arr.transpose(2, 1, 0).copy(order="K")
    arrays = jackknife_planes(stat, planes, ks, mu=(arr.sum(axis=1) / n).T)
    return [
        SubsampleResult(k=k, theta_hat=hat, theta_jds=jds, ss=s, n=n)
        for k, hat, jds, s in zip(ks, *(array.tolist() for array in arrays))
    ]


def jackknife_subsample(stat: Statistic, features, k: int = 0) -> SubsampleResult:
    """Jackknife one subsample using leave-one-out downdates (O(n*q) total)."""
    arr = np.asarray(features, dtype=np.float64)
    _check_features(stat, arr)
    return jackknife_chunk(stat, arr[None], [k])[0]


def aggregate(results: list[SubsampleResult], n_rows: int, **report) -> EstimateReport:
    """Combine per-subsample results into the final report; report takes
    summarize's keywords (alpha, master_seed, statistic_name, rng_id,
    ci_center).

    Results may arrive in any order; they are reduced in ascending k.
    """
    if not results:
        raise ValueError("no subsample results to aggregate")
    ordered = sorted(results, key=lambda r: r.k)
    n = ordered[0].n
    if any(r.n != n for r in ordered):
        raise ValueError("subsample results mix different n")
    return summarize([r.theta_hat for r in ordered], [r.theta_jds for r in ordered],
                     [r.ss for r in ordered], n, n_rows, **report)


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
    if K == 0 or len(theta_jds) != K or len(ss) != K:
        raise ValueError("summarize needs K >= 1 values in each of theta_hat, theta_jds "
                         f"and ss, got {K}, {len(theta_jds)} and {len(ss)}")
    n = checked_count(n, "n", minimum=2)
    n_rows = checked_count(n_rows, "n_rows")
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
        return -normal_quantile(1.0 - p)  # 1 - p is exact for p >= 0.5
    q = p - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return num / den


def checked_alpha(alpha: float) -> float:
    """alpha as a float, if it is a number in (2**-53, 1): below that,
    1 - alpha/2 rounds to 1 and the interval has no quantile."""
    if not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha must exceed 2**-53, got {alpha}")
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
