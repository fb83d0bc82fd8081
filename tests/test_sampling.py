import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from subjack.sampling import (
    BENCH_SEED_OFFSET,
    REPLICATION_SEED_OFFSET,
    ExclusionSet,
    checked_count,
    checked_master_seed,
    checked_seed,
    draw_chunk,
    draw_with_replacement,
    draw_without_replacement,
    subsample_seed,
    subsample_seeds,
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
    with pytest.raises(ValueError) as exc:
        subsample_seed(1, 0)
    assert str(exc.value) == "ordinal k must be >= 1"


# estimate ordinals 1..K, then the replication and benchmark ranges above them
_ORDINALS = st.one_of(
    st.integers(1, 2**32 - 1),
    st.integers(REPLICATION_SEED_OFFSET, REPLICATION_SEED_OFFSET + 10**6),
    st.integers(BENCH_SEED_OFFSET, BENCH_SEED_OFFSET + 10**6),
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    master=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    ks=st.lists(_ORDINALS, max_size=50),
)
def test_subsample_seeds_match_reference(master, ks):
    # warnings are errors: a wrapping uint64 scalar product would warn
    seeds = subsample_seeds(master, ks)
    assert seeds == [_splitmix64_reference(master, k) for k in ks]
    assert all(type(seed) is int for seed in seeds)
    assert [subsample_seed(master, k) for k in ks] == seeds


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("master", [0, 2**64 - 1])
def test_subsample_seeds_over_a_range_and_empty(master):
    ks = range(1, 1001)
    assert subsample_seeds(master, ks) == [_splitmix64_reference(master, k) for k in ks]
    assert subsample_seeds(master, []) == []
    assert subsample_seeds(master, range(5, 5)) == []


@pytest.mark.parametrize("ks", [[0], [3, 0, 4], [2, -1]])
def test_subsample_seeds_reject_ordinals_below_one(ks):
    with pytest.raises(ValueError) as exc:
        subsample_seeds(7, ks)
    assert str(exc.value) == "ordinal k must be >= 1"


def test_subsample_seeds_reject_non_integer_ordinals():
    # a float array would otherwise be truncated onto another ordinal's seed
    with pytest.raises(ValueError, match="ordinals must be integers"):
        subsample_seeds(7, [1.5])


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
    stream = np.concatenate(
        [draw_with_replacement(subsample_seed(6, k), 100, 10) for k in range(1, 11)]
    )
    assert len(np.unique(stream)) < stream.size


def test_plan_validation():
    # n*K = 15 > 10 rows: the third without-replacement draw finds no room
    drawn = ExclusionSet(capacity=15)
    for k in (1, 2):
        draw_without_replacement(subsample_seed(0, k), 10, 5, drawn)
    with pytest.raises(ValueError, match="insufficient room"):
        draw_without_replacement(subsample_seed(0, 3), 10, 5, drawn)
    with pytest.raises(ValueError):
        draw_with_replacement(subsample_seed(0, 1), 10, 0)


def test_without_replacement_full_run_duplicate_free():
    drawn = ExclusionSet(capacity=25 * 8)
    stream = np.concatenate(
        [draw_without_replacement(subsample_seed(3, k), 2000, 25, drawn) for k in range(1, 9)]
    )
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


def _first_block_is_short(seed, n_rows, n):
    # fewer than n of the stream's first max(2n, 16) words are accepted
    mask = np.uint64((1 << (n_rows - 1).bit_length()) - 1 if n_rows > 1 else 0)
    words = np.random.Philox(key=seed).random_raw(max(2 * n, 16)) & mask
    return int((words < np.uint64(n_rows)).sum()) < n


@pytest.mark.parametrize("n_rows", [1, 2, 3, 2**20, 2**20 + 1, 10**6])
def test_chunk_draw_matches_freshly_keyed_philox(n_rows):
    # each seed twice, in two orders, so a row never depends on its position
    seeds = REKEY_SEEDS + REKEY_SEEDS[::-1]
    short_rows = 0
    for n in (1, 2, 50, 500):
        got = draw_chunk(seeds, n_rows, n)
        assert got.dtype == np.int64
        assert got.shape == (len(seeds), n)
        for seed, row in zip(seeds, got):
            np.testing.assert_array_equal(row, _fresh_philox_draw(seed, n_rows, n))
            short_rows += _first_block_is_short(seed, n_rows, n)
    if n_rows == 2**20 + 1:
        # about half the words are accepted, so some rows need a second block
        assert short_rows > 0


def test_chunk_draw_of_no_seeds_is_empty():
    assert draw_chunk([], 10, 3).shape == (0, 3)


def test_chunk_draw_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_rows must be >= 1"):
        draw_chunk([1], 0, 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        draw_chunk([1], 10, 0)
    with pytest.raises(ValueError, match="seed must be in"):
        draw_chunk([1, 2**128], 10, 3)


def test_interleaved_seeds_leak_no_stream_state():
    # n = 9 and 11 take 18 and 22 raw words, leaving the reused generator
    # part-way through a 4-word Philox block between calls
    seeds = (3, 2**64 - 1)
    expected = {(s, n): _fresh_philox_draw(s, 10**6, n) for s in seeds for n in (9, 11)}
    for _ in range(3):
        for s in seeds:
            for n in (9, 11):
                np.testing.assert_array_equal(draw_with_replacement(s, 10**6, n), expected[(s, n)])
        for n in (9, 11):
            rows = draw_chunk(seeds + seeds[::-1], 10**6, n)
            for s, row in zip(seeds + seeds[::-1], rows):
                np.testing.assert_array_equal(row, expected[(s, n)])


def test_draw_in_another_thread_matches():
    import threading

    got = {}
    worker = threading.Thread(target=lambda: got.update(a=draw_with_replacement(9, 1000, 64)))
    worker.start()
    worker.join()
    np.testing.assert_array_equal(got["a"], _fresh_philox_draw(9, 1000, 64))


def test_concurrent_chunk_draws_keep_their_own_streams():
    import sys
    import threading

    # 2**20 + 1 rows make short rows, which re-key mid-chunk; three threads on
    # a short switch interval interleave their re-keys as often as possible
    n_rows, n, rounds = 2**20 + 1, 50, 20
    seeds = {master: [subsample_seed(master, k) for k in range(1, 41)]
             for master in (0, 5, 2**64 - 1)}
    start = threading.Barrier(len(seeds))
    got = {}

    def work(master):
        start.wait()
        got[master] = [draw_chunk(seeds[master], n_rows, n) for _ in range(rounds)]

    workers = [threading.Thread(target=work, args=(master,)) for master in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for master, chunks in got.items():
        expected = np.stack([_fresh_philox_draw(s, n_rows, n) for s in seeds[master]])
        assert len(chunks) == rounds
        for chunk in chunks:
            np.testing.assert_array_equal(chunk, expected)
    assert sorted(got) == sorted(seeds)


@pytest.mark.parametrize("master", [0, 5, 2**64 - 1, np.uint64(7)])
def test_master_seed_in_range_is_accepted(master):
    assert checked_master_seed(master) == int(master)


@pytest.mark.parametrize("master", [-1, 2**64, 2**64 + 5, 1.5, "5", None])
def test_master_seed_that_would_alias_is_rejected(master):
    with pytest.raises(ValueError) as exc:
        checked_master_seed(master)
    assert str(exc.value) == f"master seed must be an integer in [0, 2**64), got {master!r}"


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_draw_rejects_seed_outside_key_range(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        draw_with_replacement(seed, 10, 3)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_checked_count_accepts_integer_values_and_returns_int(value):
    count = checked_count(value, "count")
    assert count == 3 and type(count) is int


@pytest.mark.parametrize("value", [2.5, "3", None, True, float("inf"), float("nan"), [3]])
def test_checked_count_rejects_non_integers(value):
    with pytest.raises(ValueError) as exc:
        checked_count(value, "replication count M")
    assert str(exc.value) == f"replication count M must be an integer, got {value!r}"


def test_checked_count_minimum():
    assert checked_count(0, "n_rows", minimum=0) == 0
    with pytest.raises(ValueError) as exc:
        checked_count(0, "n_rows")
    assert str(exc.value) == "n_rows must be >= 1"


@pytest.mark.parametrize("seed", [0.5, "7", None])
def test_checked_seed_rejects_non_integers(seed):
    # int() would have truncated 0.5 to key 0
    with pytest.raises(ValueError) as exc:
        checked_seed(seed)
    assert str(exc.value) == f"seed must be an integer, got {seed!r}"
