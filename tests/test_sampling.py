import numpy as np
import pytest
from scipy import stats as sps

from subjack.sampling import (
    ExclusionSet,
    SamplingPlan,
    draw_with_replacement,
    draw_without_replacement,
    subsample_seed,
)


def _splitmix64_reference(master, k):
    # independent re-statement of the documented mixer
    z = (master + k * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


@pytest.mark.parametrize("master,k", [(0, 1), (12345, 1), (12345, 2), (2**64 - 1, 999)])
def test_subsample_seed_matches_reference(master, k):
    assert subsample_seed(master, k) == _splitmix64_reference(master, k)


def test_subsample_seed_deterministic_and_distinct():
    assert subsample_seed(99, 1) == subsample_seed(99, 1)
    seeds = {subsample_seed(99, k) for k in range(1, 5001)}
    assert len(seeds) == 5000


def test_subsample_seed_rejects_bad_ordinal():
    with pytest.raises(ValueError):
        subsample_seed(1, 0)


def test_draw_single_point_support():
    assert draw_with_replacement(123, 1, 5).tolist() == [0, 0, 0, 0, 0]


def test_draw_range_and_determinism():
    a = draw_with_replacement(777, 10**6, 500)
    b = draw_with_replacement(777, 10**6, 500)
    assert a.min() >= 0 and a.max() < 10**6
    np.testing.assert_array_equal(a, b)


def test_draw_rejects_empty_population():
    with pytest.raises(ValueError):
        draw_with_replacement(1, 0, 10)


def test_chi_square_uniformity():
    counts = np.bincount(draw_with_replacement(1234, 16, 160000), minlength=16)
    expected = 160000 / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < sps.chi2.isf(0.001, df=15)


def test_without_replacement_exhaustive_draw():
    drawn = ExclusionSet()
    indices = draw_without_replacement(42, 3, 3, drawn)
    assert sorted(indices.tolist()) == [0, 1, 2]


def test_without_replacement_disjoint_and_duplicate_free():
    drawn = ExclusionSet()
    first = draw_without_replacement(1, 1000, 100, drawn)
    second = draw_without_replacement(2, 1000, 100, drawn)
    combined = np.concatenate([first, second])
    assert len(np.unique(combined)) == 200


def test_without_replacement_insufficient_room():
    drawn = ExclusionSet()
    draw_without_replacement(1, 10, 6, drawn)
    with pytest.raises(ValueError, match="insufficient room"):
        draw_without_replacement(2, 10, 5, drawn)


def test_birthday_duplicates_with_replacement():
    # nK = 100 draws from N = 100: duplicates essentially certain
    plan = SamplingPlan(n_rows=100, n=10, K=10, master_seed=6)
    stream = np.concatenate([plan.indices_for(k) for k in range(1, 11)])
    assert len(np.unique(stream)) < stream.size


def test_plan_validation():
    with pytest.raises(ValueError, match="n\\*K"):
        SamplingPlan(n_rows=10, n=5, K=3, master_seed=0, mode="without_replacement")
    with pytest.raises(ValueError):
        SamplingPlan(n_rows=10, n=0, K=1, master_seed=0)
    with pytest.raises(ValueError):
        SamplingPlan(n_rows=10, n=1, K=0, master_seed=0)
    with pytest.raises(ValueError, match="mode"):
        SamplingPlan(n_rows=10, n=1, K=1, master_seed=0, mode="bogus")


def test_plan_draws_depend_only_on_master_and_ordinal():
    one = SamplingPlan(n_rows=5000, n=20, K=100, master_seed=11)
    two = SamplingPlan(n_rows=5000, n=20, K=7, master_seed=11)
    np.testing.assert_array_equal(one.indices_for(5), two.indices_for(5))
    np.testing.assert_array_equal(
        one.indices_for(5), draw_with_replacement(subsample_seed(11, 5), 5000, 20)
    )


def test_without_replacement_full_run_duplicate_free():
    plan = SamplingPlan(n_rows=2000, n=25, K=8, master_seed=3, mode="without_replacement")
    stream = np.concatenate(list(plan.iter_without_replacement()))
    assert stream.size == 200
    assert len(np.unique(stream)) == 200


def _fresh_philox_draw(seed, n_rows, n):
    # the documented bitmask rejection on a newly built np.random.Philox(key=seed)
    bits = np.random.Philox(key=seed)
    mask = np.uint64((1 << (n_rows - 1).bit_length()) - 1 if n_rows > 1 else 0)
    parts, need = [], n
    while need:
        words = bits.random_raw(max(2 * need, 16)) & mask
        parts.append(words[words < np.uint64(n_rows)][:need])
        need -= parts[-1].size
    return np.concatenate(parts).astype(np.int64)


# the last two need the key's high word
REKEY_SEEDS = [0, 1, 2**63 + 5, 2**64 - 1, 2**64 + 7, 2**128 - 1]


@pytest.mark.parametrize("n_rows", [1, 16, 10**6])
@pytest.mark.parametrize("seed", REKEY_SEEDS)
def test_draw_matches_freshly_keyed_philox(seed, n_rows):
    for n in (1, 16, 300, 10**6):
        got = draw_with_replacement(seed, n_rows, n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _fresh_philox_draw(seed, n_rows, n))


def test_interleaved_seeds_leak_no_stream_state():
    # n = 9 and 11 take 18 and 22 raw words, leaving the reused generator
    # part-way through a 4-word Philox block between calls
    seeds = (3, 2**64 - 1)
    expected = {(s, n): _fresh_philox_draw(s, 10**6, n) for s in seeds for n in (9, 11)}
    for _ in range(3):
        for s in seeds:
            for n in (9, 11):
                np.testing.assert_array_equal(draw_with_replacement(s, 10**6, n), expected[(s, n)])


def test_draw_in_another_thread_matches():
    import threading

    got = {}
    worker = threading.Thread(target=lambda: got.update(a=draw_with_replacement(9, 1000, 64)))
    worker.start()
    worker.join()
    np.testing.assert_array_equal(got["a"], _fresh_philox_draw(9, 1000, 64))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_draw_rejects_seed_outside_key_range(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        draw_with_replacement(seed, 10, 3)
