import itertools
import math

import numpy as np
import pytest

from subjack.estimator import DomainEvalError, jackknife_subsample
from subjack.stats import (
    Statistic,
    parse_statistic,
    stat_correlation,
    stat_kurtosis,
    stat_mean,
    stat_sd,
    stat_variance,
)


def _g_on_data(stat, rows):
    return float(stat.g(stat.phi(rows).mean(axis=0)))


def test_mean_on_small_data():
    rows = np.array([[1.0], [2.0], [3.0]])
    assert _g_on_data(stat_mean(0), rows) == 2.0


def test_variance_on_small_data():
    rows = np.array([[1.0], [2.0], [3.0]])
    assert _g_on_data(stat_variance(0), rows) == pytest.approx(2 / 3, rel=1e-15)


def test_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(10)
    x = rng.normal(3.0, 2.0, size=20)
    got = _g_on_data(stat_variance(0), x.reshape(-1, 1))
    mean = math.fsum(x) / x.size
    oracle = math.fsum((v - mean) ** 2 for v in x) / x.size
    assert got == pytest.approx(oracle, rel=1e-12)


def test_variance_zero_on_constant_data():
    rows = np.full((10, 1), 4.2)
    assert abs(_g_on_data(stat_variance(0), rows)) < 1e-12


def test_sd_domain_error_on_constant_data():
    stat = stat_sd(0)
    rows = np.full((10, 1), 4.2)
    assert not bool(stat.in_domain(stat.phi(rows).mean(axis=0)))
    with pytest.raises(DomainEvalError, match="sd:0"):
        jackknife_subsample(stat, stat.phi(rows))


def test_kurtosis_two_point_law():
    rows = np.array([[-1.0], [1.0]] * 50)
    assert _g_on_data(stat_kurtosis(0), rows) == pytest.approx(1.0, rel=1e-12)


def test_kurtosis_standard_normal_sample():
    n = 200_000
    x = np.random.default_rng(3).standard_normal(n)
    got = _g_on_data(stat_kurtosis(0), x.reshape(-1, 1))
    assert abs(got - 3.0) < 5 / math.sqrt(n)


def test_correlation_perfect_on_duplicated_column():
    x = np.random.default_rng(4).normal(size=50)
    rows = np.column_stack([x, x])
    assert _g_on_data(stat_correlation(0, 1), rows) == pytest.approx(1.0, rel=1e-12)


def test_correlation_matches_pearson_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    y = 0.6 * x + rng.normal(size=30)
    got = _g_on_data(stat_correlation(0, 1), np.column_stack([x, y]))
    oracle = float(np.corrcoef(x, y)[0, 1])
    assert got == pytest.approx(oracle, rel=1e-12)


def test_correlation_requires_distinct_columns():
    with pytest.raises(ValueError, match="columns must differ"):
        stat_correlation(0, 0)


# population-moment identities: g at the analytic moment vector of a known law
def test_g_at_population_moments():
    mu, var = 1.7, 4.0
    normal_moments = np.array([
        mu,
        mu**2 + var,
        mu**3 + 3 * mu * var,
        mu**4 + 6 * mu**2 * var + 3 * var**2,
    ])
    assert float(stat_mean(0).g(normal_moments[:1])) == mu
    assert float(stat_variance(0).g(normal_moments[:2])) == pytest.approx(var, rel=1e-14)
    assert float(stat_sd(0).g(normal_moments[:2])) == pytest.approx(2.0, rel=1e-14)
    assert float(stat_kurtosis(0).g(normal_moments)) == pytest.approx(3.0, rel=1e-12)

    s11, s12, s22 = 25.0, 10.0, 5.0
    corr_moments = np.array([0.0, 0.0, s11, s22, s12])
    assert float(stat_correlation(0, 1).g(corr_moments)) == pytest.approx(
        2 / math.sqrt(5), rel=1e-15
    )


def test_correlation_invariant_under_positive_affine_rescale():
    rng = np.random.default_rng(12)
    x = rng.normal(size=200)
    y = 0.8 * x + rng.normal(size=200)
    stat = stat_correlation(0, 1)
    base = _g_on_data(stat, np.column_stack([x, y]))
    rescaled = _g_on_data(stat, np.column_stack([3.5 * x - 2.0, 0.25 * y + 7.0]))
    assert abs(base - rescaled) <= 1e-10


def test_kurtosis_location_scale_invariant():
    x = np.random.default_rng(13).standard_normal(500)
    stat = stat_kurtosis(0)
    base = _g_on_data(stat, x.reshape(-1, 1))
    moved = _g_on_data(stat, (2.5 * x - 40.0).reshape(-1, 1))
    assert base == pytest.approx(moved, abs=1e-9)


def test_parse_correlation():
    stat = parse_statistic("corr:0,1")
    assert stat.name == "corr:0,1"
    assert stat.columns == (0, 1)
    assert stat.q == 5


def test_parse_rejects_equal_columns():
    with pytest.raises(ValueError, match="columns must differ"):
        parse_statistic("corr:0,0")


def test_parse_sd_and_bind():
    stat = parse_statistic("sd:2")
    stat.validate_columns(5)
    with pytest.raises(ValueError, match="column 2"):
        stat.validate_columns(2)


@pytest.mark.parametrize("bad", ["nope:0", "mean:x", "mean:0,1", ":3", "corr:1", ""])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_statistic(bad)


def test_parse_defaults_columns():
    assert parse_statistic("mean").columns == (0,)
    assert parse_statistic("corr").columns == (0, 1)


@pytest.mark.parametrize("build, column", [
    (lambda: stat_mean(-1), -1),
    (lambda: stat_variance(-1), -1),
    (lambda: stat_sd(-2), -2),
    (lambda: stat_kurtosis(-1), -1),
    (lambda: stat_correlation(1, -1), -1),
    (lambda: stat_correlation(-1, 0), -1),
], ids=["mean", "var", "sd", "kurt", "corr-second", "corr-first"])
def test_builders_reject_negative_columns(build, column):
    with pytest.raises(ValueError, match=f"negative column {column}$"):
        build()


def test_custom_statistic_rejects_negative_column():
    def first(m):
        return m[..., 0]

    with pytest.raises(ValueError, match="statistic 'custom' has negative column -3"):
        Statistic("custom", 1, (0, -3), lambda rows: rows[:, :1].T, first, first)


# Reference copies of the built-ins with every formula written out where it is
# used; the shared helpers in subjack.stats must reproduce them bit for bit.
def _ref_always(m):
    return np.ones(m.shape[:-1], dtype=bool)


def _ref_phi_powers(col, top):
    def phi(rows):
        x = rows[:, col]
        out = np.empty((rows.shape[0], top), dtype=np.float64)
        out[:, 0] = x
        for j in range(1, top):
            out[:, j] = out[:, j - 1] * x
        return out

    return phi


def _ref_mean(col):
    def phi(rows):
        return np.ascontiguousarray(rows[:, col : col + 1], dtype=np.float64)

    def g(m):
        return m[..., 0]

    return phi, g, _ref_always, g


def _ref_variance(col):
    def g(m):
        return m[..., 1] - m[..., 0] ** 2

    return _ref_phi_powers(col, 2), g, _ref_always, g


def _ref_sd(col):
    def g(m):
        return np.sqrt(m[..., 1] - m[..., 0] ** 2)

    def in_domain(m):
        return m[..., 1] - m[..., 0] ** 2 > 0

    return _ref_phi_powers(col, 2), g, in_domain, g


def _ref_kurtosis(col):
    def _central(m):
        m1, m2, m3, m4 = m[..., 0], m[..., 1], m[..., 2], m[..., 3]
        v = m2 - m1**2
        mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
        return v, mu4

    def g(m):
        v, mu4 = _central(m)
        return mu4 / v**2

    def g_mean(m):
        v, mu4 = _central(m)
        return mu4 / np.array([x**2 for x in v])

    def in_domain(m):
        v, _ = _central(m)
        return v > 0

    return _ref_phi_powers(col, 4), g, in_domain, g_mean


def _ref_correlation(col_a, col_b):
    def phi(rows):
        xa = rows[:, col_a]
        xb = rows[:, col_b]
        out = np.empty((rows.shape[0], 5), dtype=np.float64)
        out[:, 0] = xa
        out[:, 1] = xb
        out[:, 2] = xa * xa
        out[:, 3] = xb * xb
        out[:, 4] = xa * xb
        return out

    def _centrals(m):
        va = m[..., 2] - m[..., 0] ** 2
        vb = m[..., 3] - m[..., 1] ** 2
        cov = m[..., 4] - m[..., 0] * m[..., 1]
        return va, vb, cov

    def g(m):
        va, vb, cov = _centrals(m)
        return cov / np.sqrt(va * vb)

    def in_domain(m):
        va, vb, _ = _centrals(m)
        return (va > 0) & (vb > 0)

    return phi, g, in_domain, g


# (statistic, reference, (mean, raw second moment) index pairs of its moments)
_PINNED = [
    (stat_mean(1), _ref_mean(1), []),
    (stat_variance(2), _ref_variance(2), [(0, 1)]),
    (stat_sd(0), _ref_sd(0), [(0, 1)]),
    (stat_kurtosis(1), _ref_kurtosis(1), [(0, 1)]),
    (stat_correlation(2, 0), _ref_correlation(2, 0), [(0, 2), (1, 3)]),
]
_VARIANCE_KINDS = ["random", "positive", "zero", "negative"]


def _moments(rng, q, pairs, kinds, shape):
    """Moment vectors whose variance at each (mean, second) pair is of the given kind.

    "zero" takes means on a grid of eighths, whose squares are exact in every
    rounding, so the variance is exactly 0.0 on every path.
    """
    m = rng.normal(0.0, 3.0, size=shape + (q,))
    for (a, b), kind in zip(pairs, kinds):
        if kind == "random":
            continue
        if kind == "zero":
            m[..., a] = rng.integers(-40, 41, size=shape) / 8
        sq = m[..., a] * m[..., a]
        m[..., b] = {"positive": sq + rng.exponential(2.0, size=shape),
                     "zero": sq,
                     "negative": sq - rng.exponential(2.0, size=shape)}[kind]
    return m


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes().hex() == want.tobytes().hex()


@pytest.mark.parametrize("stat, ref, pairs", _PINNED, ids=[stat.name for stat, _, _ in _PINNED])
def test_builtin_formulas_match_reference_bit_for_bit(stat, ref, pairs):
    ref_phi, ref_g, ref_in_domain, ref_g_mean = ref
    rng = np.random.default_rng(2024)
    rows = rng.normal(1.5, 2.0, size=(64, 3))
    for batch in (rows, np.asfortranarray(rows), rows[::3]):
        _same_bits(stat.phi(batch), ref_phi(batch))
    with np.errstate(all="ignore"):
        for kinds in itertools.product(_VARIANCE_KINDS, repeat=len(pairs)):
            for m in _moments(rng, stat.q, pairs, kinds, (1500,)):
                _same_bits(stat.g(m), ref_g(m))
                _same_bits(stat.in_domain(m), ref_in_domain(m))
            batch = _moments(rng, stat.q, pairs, kinds, (200,))
            _same_bits(stat.g_mean(batch), ref_g_mean(batch))
            loo = _moments(rng, stat.q, pairs, kinds, (3, 7))
            _same_bits(stat.g(loo), ref_g(loo))
            _same_bits(stat.in_domain(loo), ref_in_domain(loo))


@pytest.mark.parametrize("stat", [stat for stat, _, _ in _PINNED],
                         ids=[stat.name for stat, _, _ in _PINNED])
def test_planes_are_phi_transposed_bit_for_bit(stat):
    rows = np.random.default_rng(7).normal(1.5, 2.0, size=(64, 3))
    for batch in (rows, np.asfortranarray(rows), rows[::3]):
        planes, phi = stat.planes(batch), stat.phi(batch)
        assert planes.flags.c_contiguous and phi.flags.c_contiguous
        _same_bits(planes, phi.T)


def test_statistic_derives_the_map_it_is_not_given():
    def first(m):
        return m[..., 0]

    stat = Statistic("custom", 2, (0,), lambda rows: rows[:, :2].T * 2, first, first)
    rows = np.random.default_rng(3).normal(size=(9, 3))
    assert stat.phi(rows).flags.c_contiguous
    _same_bits(stat.phi(rows), rows[:, :2] * 2)
    _same_bits(stat.planes(rows), (rows[:, :2] * 2).T)


@pytest.mark.parametrize("stat, ref, pairs", _PINNED, ids=[stat.name for stat, _, _ in _PINNED])
def test_formulas_on_moment_planes_match_reference_bit_for_bit(stat, ref, pairs):
    # the kernel hands g and in_domain a (Kc, n, q) view of (q, n, Kc) planes
    _, ref_g, ref_in_domain, _ = ref
    rng = np.random.default_rng(99)
    with np.errstate(all="ignore"):
        for kinds in itertools.product(_VARIANCE_KINDS, repeat=len(pairs)):
            m = _moments(rng, stat.q, pairs, kinds, (37, 41))
            view = np.ascontiguousarray(m.transpose(2, 1, 0)).transpose(2, 1, 0)
            _same_bits(stat.g(view), ref_g(m))
            _same_bits(stat.in_domain(view), ref_in_domain(m))
