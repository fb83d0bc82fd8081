import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jackknife_oracle import jackknife_subsample_naive

from subjack.estimator import (
    DomainEvalError,
    EstimateReport,
    SubsampleResult,
    aggregate,
    confidence_interval,
    jackknife_arrays,
    jackknife_chunk,
    jackknife_subsample,
    normal_quantile,
)
from subjack.stats import (
    Statistic,
    stat_correlation,
    stat_kurtosis,
    stat_mean,
    stat_sd,
    stat_variance,
)


def _square_stat():
    # phi(x) = x, g(m) = m^2: the simplest strictly nonlinear reducer
    return Statistic(
        "square", 1, (0,),
        phi=lambda rows: np.ascontiguousarray(rows[:, :1], dtype=np.float64),
        g=lambda m: m[..., 0] ** 2,
        in_domain=lambda m: np.ones(m.shape[:-1], dtype=bool),
    )


DATA_123 = np.array([[1.0], [2.0], [3.0]])


def test_jackknife_square_stat_hand_computed():
    # data {1,2,3}, g(m)=m^2: theta_hat = 4, leave-one-out values
    # (2.5^2, 2^2, 1.5^2), theta_jds = 11/3, ss = 2.25^2 + 0 + 1.75^2
    res = jackknife_subsample(_square_stat(), DATA_123, k=1)
    assert res.theta_hat == pytest.approx(4.0, rel=1e-12)
    assert res.theta_jds == pytest.approx(11 / 3, rel=1e-12)
    assert res.ss == pytest.approx(8.125, rel=1e-12)
    assert res.n == 3


def test_jackknife_naive_same_hand_computed_numbers():
    res = jackknife_subsample_naive(_square_stat(), DATA_123, k=1)
    assert res.theta_hat == pytest.approx(4.0, rel=1e-12)
    assert res.theta_jds == pytest.approx(11 / 3, rel=1e-12)
    assert res.ss == pytest.approx(8.125, rel=1e-12)


def test_jackknife_linear_g_collapses():
    res = jackknife_subsample(stat_mean(0), DATA_123)
    assert res.theta_hat == pytest.approx(2.0, rel=1e-15)
    assert res.theta_jds == pytest.approx(res.theta_hat, rel=1e-14)
    assert res.ss == pytest.approx(0.5, rel=1e-12)


def test_jackknife_constant_data():
    rows = np.full((4, 1), 5.0)
    res = jackknife_subsample(_square_stat(), rows)
    assert res.ss == 0.0
    assert res.theta_jds == res.theta_hat == 25.0


def test_jackknife_minimal_n():
    res = jackknife_subsample(_square_stat(), np.array([[1.0], [2.0]]))
    naive = jackknife_subsample_naive(_square_stat(), np.array([[1.0], [2.0]]))
    for got, ref in [(res.theta_hat, naive.theta_hat), (res.theta_jds, naive.theta_jds),
                     (res.ss, naive.ss)]:
        assert math.isfinite(got)
        assert got == pytest.approx(ref, rel=1e-10)


def test_jackknife_needs_two_rows():
    with pytest.raises(ValueError, match="n >= 2"):
        jackknife_subsample(_square_stat(), np.array([[1.0]]))
    with pytest.raises(ValueError, match="n >= 2"):
        jackknife_subsample_naive(_square_stat(), np.array([[1.0]]))


def _random_instance(rng):
    builders = [
        (stat_mean(0), 2),
        (stat_variance(0), 2),
        (stat_sd(0), 3),
        (stat_kurtosis(0), 3),
        (stat_correlation(0, 1), 3),
    ]
    stat, n_min = builders[int(rng.integers(len(builders)))]
    n = int(rng.integers(n_min, 31))
    x = rng.normal(2.0, 1.5, size=n)
    y = x + rng.normal(0.0, 1.0, size=n)
    return stat, stat.phi(np.column_stack([x, y]))


def test_downdate_equals_naive_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        stat, features = _random_instance(rng)
        fast = jackknife_subsample(stat, features)
        slow = jackknife_subsample_naive(stat, features)
        # Below n = 10 the downdate and the direct leave-one-out mean round
        # differently enough for kurt and corr to differ by up to 5.35e-3
        # (worst of 3000 random instances at n = 3), so there the downdate is
        # pinned exactly to the in-file reference and the naive oracle only
        # to 1e-2.
        if features.shape[0] < 10:
            assert fast == _downdate_reference(stat, features, fast.k)
            rel = 1e-2
        else:
            rel = 1e-10
        for got, ref in [(fast.theta_hat, slow.theta_hat),
                         (fast.theta_jds, slow.theta_jds), (fast.ss, slow.ss)]:
            assert abs(got - ref) <= rel * max(abs(got), abs(ref), 1e-30)


# (statistic, smallest n at which random subsamples stay in its domain)
_CHUNK_STATS = [
    (stat_mean(0), 2),
    (stat_variance(0), 2),
    (stat_sd(0), 3),
    (stat_kurtosis(0), 3),
    (stat_correlation(0, 1), 3),
]


def _downdate_reference(stat, arr, k):
    # the per-subsample downdate on one (n, q) matrix, with no chunk axis
    n = arr.shape[0]
    mu = arr.mean(axis=0)
    theta_hat = float(stat.g(mu))
    theta_loo = np.asarray(stat.g((n * mu - arr) / (n - 1)), dtype=np.float64)
    return SubsampleResult(
        k=k,
        theta_hat=theta_hat,
        theta_jds=n * theta_hat - (n - 1) * float(theta_loo.mean()),
        ss=float(((theta_loo - theta_hat) ** 2).sum()),
        n=n,
    )


def _chunk_features(stat, kc, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.5, size=kc * n)
    y = x + rng.normal(0.0, 1.0, size=kc * n)
    return stat.phi(np.column_stack([x, y])).reshape(kc, n, stat.q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    which=st.integers(0, len(_CHUNK_STATS) - 1),
    kc=st.integers(1, 12),
    extra_n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_kernel_equals_per_subsample_and_naive(which, kc, extra_n, seed):
    stat, n_min = _CHUNK_STATS[which]
    features = _chunk_features(stat, kc, n_min + extra_n, seed)
    ks = list(range(7, 7 + kc))
    chunk = jackknife_chunk(stat, features, ks)
    assert chunk == [jackknife_subsample(stat, f, k=k) for f, k in zip(features, ks)]
    assert chunk == [_downdate_reference(stat, f, k) for f, k in zip(features, ks)]
    # The downdate and the direct leave-one-out mean round differently. Below
    # n = 10, kurt's mu4/v**2 and corr's cov/sqrt(va*vb) can amplify that past
    # 1e-10 (up to 5e-3 for kurt at n = 3), so the oracle is checked from 10 on.
    if features.shape[1] < 10:
        return
    for got, f in zip(chunk, features):
        slow = jackknife_subsample_naive(stat, f, k=got.k)
        for a, b in [(got.theta_hat, slow.theta_hat), (got.theta_jds, slow.theta_jds),
                     (got.ss, slow.ss)]:
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)


# the one-column statistics on either column, plus corr, as the byte census runs them
_MEAN_POINT_STATS = [
    stat(col) for stat in (stat_mean, stat_variance, stat_sd, stat_kurtosis) for col in (0, 1)
] + [stat_correlation(0, 1)]


def _hex(values):
    # float.hex tells apart every pair of distinct doubles, -0.0 and 0.0 included
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    which=st.integers(0, len(_MEAN_POINT_STATS) - 1),
    kc=st.integers(1, 40),
    n=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_theta_hat_is_g_at_each_mean_point_bit_for_bit(which, kc, n, seed):
    # means near 3 and 100, so that moment terms such as kurt's m1**4 do not vanish
    stat = _MEAN_POINT_STATS[which]
    rng = np.random.default_rng(seed)
    x = 3.0 + 2.0 * rng.standard_normal(kc * n)
    y = 100.0 + 0.5 * x + rng.standard_normal(kc * n)
    features = stat.phi(np.column_stack([x, y])).reshape(kc, n, stat.q)
    mu = features.sum(axis=1) / n
    chunk = jackknife_chunk(stat, features, range(1, kc + 1))
    assert _hex(r.theta_hat for r in chunk) == _hex(stat.g(m) for m in mu)


def _mean_recorder(q):
    # g_mean records the subsample means the kernel hands it
    seen = []

    def g_mean(m):
        seen.append(m.copy())
        return m[:, 0]

    stat = Statistic(
        f"record{q}", q, tuple(range(q)),
        phi=lambda rows: rows, g=lambda m: m[..., 0],
        in_domain=lambda m: np.ones(m.shape[:-1], dtype=bool), g_mean=g_mean,
    )
    return stat, seen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    q=st.sampled_from([1, 2, 4, 5]),
    kc=st.integers(1, 600),
    n=st.integers(2, 700),
    center=st.sampled_from([0.0, 3.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_subsample_means_are_sums_over_rows_bit_for_bit(q, kc, n, center, seed):
    # heavy tails (Student t, 2 degrees of freedom) make rounding order show
    stat, seen = _mean_recorder(q)
    arr = center + np.random.default_rng(seed).standard_t(2, size=(kc, n, q))
    # a column-major view, where the rows of a column are the contiguous axis
    strided = np.asfortranarray(arr.reshape(kc * n, q)).reshape(kc, n, q)
    for features in (arr, strided):
        jackknife_arrays(stat, features, range(1, kc + 1))
        assert _hex(seen.pop().ravel()) == _hex((features.sum(axis=1) / n).ravel())


def test_kernel_returns_float64_arrays_equal_to_chunk_results():
    stat = stat_correlation(0, 1)
    features = _chunk_features(stat, 9, 30, 5)
    ks = range(4, 13)
    arrays = jackknife_arrays(stat, features, ks)
    assert all(a.dtype == np.float64 and a.shape == (9,) for a in arrays)
    chunk = jackknife_chunk(stat, features, ks)
    assert [a.tolist() for a in arrays] == [
        [r.theta_hat for r in chunk], [r.theta_jds for r in chunk], [r.ss for r in chunk]
    ]


def test_kurt_mean_point_reducer_squares_with_pow():
    # A variance v whose libm pow(v, 2) is not v * v. At the mean point
    # (0, v, 0, v * v) kurt's g on the 1-d point gives v * v / pow(v, 2), which
    # is not 1, while a reducer that squares with v * v gives exactly 1.
    stat = stat_kurtosis(0)
    candidates = np.random.default_rng(0).uniform(1.0, 2.0, 100_000).tolist()
    v = next((c for c in candidates if c**2 != c * c), None)
    assert v is not None, "no variance found where pow(v, 2) != v * v"
    point = np.array([0.0, v, 0.0, v * v])
    expected = float(stat.g(point))
    assert expected != 1.0
    # subsamples of two equal rows: each mean and leave-one-out mean is that row
    points = [[0.0, w, 0.0, 1.0] for w in (1.25, 1.5, 1.75)] + [point]
    features = np.array([[p, p] for p in points])
    chunk = jackknife_chunk(stat, features, [1, 2, 3, 4])
    assert chunk[3].theta_hat.hex() == expected.hex()
    assert _hex(stat.g_mean(point[None])) == [expected.hex()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kurt_variance_square_that_overflows_is_a_domain_error():
    # v is about 2e154, so v**2 overflows: to inf on a numpy scalar, where a
    # Python float's ** would raise OverflowError instead
    stat = stat_kurtosis(0)
    features = stat.phi(np.array([[0.0], [3e77], [3e77]]))
    with pytest.raises(DomainEvalError) as expected:
        jackknife_subsample_naive(stat, features, k=2)
    with pytest.raises(DomainEvalError) as exc:
        jackknife_subsample(stat, features, k=2)
    assert str(exc.value) == str(expected.value)
    assert "non-finite at the subsample mean of subsample k=2" in str(exc.value)


def test_chunk_never_evaluates_g_outside_its_domain():
    def g(m):
        if np.any(m[..., 0] <= 0):
            raise AssertionError(f"g evaluated outside its domain at {m.tolist()}")
        return np.log(m[..., 0])

    stat = Statistic(
        "guarded", 1, (0,),
        phi=lambda rows: np.ascontiguousarray(rows[:, :1], dtype=np.float64),
        g=g,
        in_domain=lambda m: m[..., 0] > 0,
    )
    features = np.array([[1.0, 2.0, 3.0, 2.0], [-1.0, -2.0, -3.0, -2.0],
                         [1.0, 1.0, 1.0, 1.0]])[:, :, None]
    with pytest.raises(DomainEvalError) as exc:
        jackknife_chunk(stat, features, [4, 5, 6])
    assert str(exc.value) == (
        "statistic 'guarded' undefined at the subsample mean of subsample k=5: "
        "moments=[-2.0]"
    )


def _pole_stat():
    # g(m) = 1/(m - 1) on m > 0: it can fail each of the four checks, with
    # exact arithmetic on the small integers planted below
    return Statistic(
        "pole", 1, (0,),
        phi=lambda rows: np.ascontiguousarray(rows[:, :1], dtype=np.float64),
        g=lambda m: 1.0 / (m[..., 0] - 1.0),
        in_domain=lambda m: m[..., 0] > 0,
    )


# subsamples of n = 4 that fail one check each, in the order they are checked
_PLANTS = {
    "mean undefined": [-1.0, -1.0, -1.0, -1.0],
    "mean non-finite": [1.0, 1.0, 1.0, 1.0],    # g(1) = 1/0
    "leave-one-out undefined": [4.0, -1.0, -1.0, -1.0],  # dropping 4 leaves mean -1
    "jackknife non-finite": [5.0, 1.0, 1.0, 1.0],    # dropping 5 leaves mean 1
}


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kc=st.integers(1, 10),
    planted=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(sorted(_PLANTS))),
                     max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_kernel_raises_first_per_subsample_error(kc, planted, seed):
    stat = _pole_stat()
    rows = np.random.default_rng(seed).normal(3.0, 0.5, size=(kc, 4, 1))
    for i, kind in planted:
        if i < kc:
            rows[i, :, 0] = _PLANTS[kind]
    features = np.stack([stat.phi(r) for r in rows])
    ks = list(range(1, kc + 1))
    expected = None
    for f, k in zip(features, ks):
        try:
            jackknife_subsample(stat, f, k=k)
        except DomainEvalError as exc:
            expected = str(exc)
            break
    if expected is None:
        assert len(jackknife_chunk(stat, features, ks)) == kc
    else:
        with pytest.raises(DomainEvalError) as exc:
            jackknife_chunk(stat, features, ks)
        assert str(exc.value) == expected


@pytest.mark.parametrize("kind,text", [
    ("mean undefined", "undefined at the subsample mean of subsample k=3"),
    ("mean non-finite", "non-finite at the subsample mean of subsample k=3"),
    ("leave-one-out undefined", "undefined at leave-one-out point j=0 of subsample k=3"),
    ("jackknife non-finite", "produced non-finite jackknife values in subsample k=3"),
])
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_each_plant_fails_its_own_check(kind, text):
    with pytest.raises(DomainEvalError, match=text):
        jackknife_subsample(_pole_stat(), np.array(_PLANTS[kind])[:, None], k=3)


def test_chunk_kernel_checks_shape_and_ordinals():
    stat = stat_variance(0)
    with pytest.raises(ValueError, match=r"\(Kc, n, 2\)"):
        jackknife_chunk(stat, np.ones((4, 2)), [1])
    with pytest.raises(ValueError, match="n >= 2"):
        jackknife_chunk(stat, np.ones((3, 1, 2)), [1, 2, 3])
    with pytest.raises(ValueError, match="2 ordinals for 3 subsamples"):
        jackknife_chunk(stat, np.ones((3, 4, 2)), [1, 2])


def _square_result():
    return jackknife_subsample(_square_stat(), DATA_123, k=1)


def test_aggregate_single_subsample():
    report = aggregate([_square_result()], 3, statistic_name="square")
    assert report.theta_sos == pytest.approx(4.0, rel=1e-12)
    assert report.theta_jds == pytest.approx(11 / 3, rel=1e-12)
    assert report.se**2 == pytest.approx(16.25, rel=1e-12)
    assert report.K == 1 and report.n == 3 and report.N == 3


def test_aggregate_identical_results():
    a = _square_result()
    b = jackknife_subsample(_square_stat(), DATA_123, k=2)
    report = aggregate([a, b], 30)
    assert report.theta_sos == a.theta_hat
    assert report.theta_jds == a.theta_jds
    assert report.se**2 == pytest.approx((1 / 2 + 3 / 30) * a.ss, rel=1e-12)


def test_aggregate_zero_spread_gives_zero_se():
    rows = np.full((4, 1), 5.0)
    results = [jackknife_subsample(_square_stat(), rows, k=k) for k in (1, 2, 3)]
    assert aggregate(results, 100).se == 0.0


def test_aggregate_order_independent():
    rng = np.random.default_rng(77)
    results = [
        jackknife_subsample(_square_stat(), rng.normal(2, 1, size=(10, 1)), k=k)
        for k in range(1, 21)
    ]
    forward = aggregate(results, 1000)
    shuffled = list(results)
    rng.shuffle(shuffled)
    assert aggregate(shuffled, 1000) == forward


def test_aggregate_rejects_empty_and_mixed_n():
    with pytest.raises(ValueError):
        aggregate([], 10)
    a = jackknife_subsample(_square_stat(), DATA_123, k=1)
    b = jackknife_subsample(_square_stat(), np.array([[1.0], [2.0]]), k=2)
    with pytest.raises(ValueError, match="mix"):
        aggregate([a, b], 10)


def test_se_scales_with_ss():
    base = [_square_result()]
    scaled = [
        type(base[0])(k=1, theta_hat=4.0, theta_jds=11 / 3, ss=base[0].ss * 9.0, n=3)
    ]
    assert aggregate(scaled, 3).se == pytest.approx(3 * aggregate(base, 3).se, rel=1e-12)


def test_shift_scale_equivariance_for_mean():
    rng = np.random.default_rng(55)
    data = rng.normal(3.0, 2.0, size=(40, 1))
    a, b = -2.5, 7.0
    stat = stat_mean(0)
    base = [jackknife_subsample(stat, stat.phi(data), k=1)]
    moved = [jackknife_subsample(stat, stat.phi(a * data + b), k=1)]
    r0, r1 = aggregate(base, 40), aggregate(moved, 40)
    assert r1.theta_sos == pytest.approx(a * r0.theta_sos + b, rel=1e-12)
    assert r1.theta_jds == pytest.approx(a * r0.theta_jds + b, rel=1e-12)
    assert r1.se == pytest.approx(abs(a) * r0.se, rel=1e-12)


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _quantile_by_bisection(p):
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_against_bisection_oracle():
    for p in (0.001, 0.01, 0.02425, 0.16, 0.5, 0.84, 0.975, 0.995, 0.9999):
        assert normal_quantile(p) == pytest.approx(_quantile_by_bisection(p), abs=1e-8)


def test_normal_quantile_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_confidence_interval_standard_normal():
    low, high = confidence_interval(0.0, 1.0, 0.05)
    assert low == pytest.approx(-1.959964, abs=1e-6)
    assert high == pytest.approx(1.959964, abs=1e-6)


def test_confidence_interval_zero_width():
    assert confidence_interval(3.7, 0.0, 0.10) == (3.7, 3.7)


def test_confidence_interval_alpha_032():
    z = _quantile_by_bisection(0.84)
    low, high = confidence_interval(1.0, 2.0, 0.32)
    assert low == pytest.approx(1 - 2 * z, abs=1e-7)
    assert high == pytest.approx(1 + 2 * z, abs=1e-7)
    assert z == pytest.approx(0.994458, abs=1e-6)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, -1.0, 0.05)


def test_report_json_round_trip():
    report = aggregate([_square_result()], 3, alpha=0.05, master_seed=9,
                       statistic_name="square", rng_id="test")
    parsed = EstimateReport.from_json(report.to_json())
    assert parsed == report


def test_report_ci_brackets_jds():
    report = aggregate([_square_result()], 3)
    assert report.ci_low <= report.theta_jds <= report.ci_high
