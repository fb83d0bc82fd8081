import hashlib
import math
import weakref

import numpy as np
import pytest

from subjack.estimator import DomainEvalError, aggregate, jackknife_chunk, summarize
from subjack.pipeline import CHUNK_BYTES, _chunk_columns, check_run, draw_chunks, run_estimate
from subjack.sampling import (
    RNG_ID,
    draw_chunk,
    draw_with_replacement,
    subsample_seed,
    subsample_seeds,
)
from subjack.simulate import generate_bivariate_normal, replication_seed
from subjack.stats import Statistic, parse_statistic
from subjack.store import DatasetHandle, DatasetHeader, open_dataset, write_matrix

PAPER_SIGMA = [[25.0, 10.0], [10.0, 5.0]]


@pytest.fixture(scope="module")
def sigma_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sigma.sjds"
    generate_bivariate_normal(3, 100_000, PAPER_SIGMA, path)
    return path


def test_worker_count_never_changes_the_report(sigma_dataset):
    serial = run_estimate(sigma_dataset, "corr:0,1", 50, 40, 123, workers=1)
    threaded = run_estimate(sigma_dataset, "corr:0,1", 50, 40, 123, workers=4)
    assert serial == threaded
    assert serial.to_json() == threaded.to_json()


def test_correlation_estimate_close_to_population_value(sigma_dataset):
    report = run_estimate(sigma_dataset, "corr:0,1", 500, 200, 2718, workers=2)
    theta = 2 / math.sqrt(5)
    assert abs(report.theta_jds - theta) <= 4 * report.se
    assert report.ci_low <= report.theta_jds <= report.ci_high
    assert report.rng_id
    assert report.statistic_name == "corr:0,1"


def test_mean_statistic_collapses_sos_and_jds(sigma_dataset):
    report = run_estimate(sigma_dataset, "mean:0", 100, 50, 9, workers=1)
    assert report.theta_jds == pytest.approx(report.theta_sos, rel=1e-12)


def test_repeat_runs_identical(sigma_dataset):
    a = run_estimate(sigma_dataset, "sd:1", 64, 32, 5150, workers=2)
    b = run_estimate(sigma_dataset, "sd:1", 64, 32, 5150, workers=2)
    assert a == b


def test_column_out_of_range(sigma_dataset):
    with pytest.raises(ValueError, match="column 7"):
        run_estimate(sigma_dataset, "mean:7", 10, 5, 1)


def test_subsample_size_must_allow_jackknife(sigma_dataset):
    with pytest.raises(ValueError, match="n >= 2"):
        run_estimate(sigma_dataset, "mean:0", 1, 5, 1)


@pytest.mark.parametrize("K", [0, -3])
def test_subsample_count_must_be_positive(sigma_dataset, K):
    with pytest.raises(ValueError) as exc:
        run_estimate(sigma_dataset, "mean:0", 10, K, 1)
    assert str(exc.value) == "subsample count K must be >= 1"


@pytest.mark.parametrize("master", [-1, 2**64 + 5, 1.5])
def test_master_seed_that_would_alias_is_rejected(sigma_dataset, master):
    # subsample_seed folds the master seed mod 2**64: 2**64 + 5 would run seed 5
    with pytest.raises(ValueError) as exc:
        run_estimate(sigma_dataset, "mean:0", 10, 5, master)
    assert str(exc.value) == f"master seed must be an integer in [0, 2**64), got {master!r}"


def test_integer_valued_counts_run_as_ints(sigma_dataset):
    assert run_estimate(sigma_dataset, "mean:0", 10.0, 5.0, 3.0) == run_estimate(
        sigma_dataset, "mean:0", 10, 5, 3
    )


@pytest.mark.parametrize("n,K,message", [
    (2.5, 5, "subsample size n must be an integer, got 2.5"),
    ("10", 5, "subsample size n must be an integer, got '10'"),
    (-3, 5, "jackknife estimation needs subsample size n >= 2"),
    (10, 5.5, "subsample count K must be an integer, got 5.5"),
])
def test_non_integer_counts_are_rejected(sigma_dataset, n, K, message):
    with pytest.raises(ValueError) as exc:
        run_estimate(sigma_dataset, "mean:0", n, K, 1)
    assert str(exc.value) == message


@pytest.mark.parametrize("alpha,message", [
    (0.0, "alpha must lie in (0, 1), got 0.0"),
    (float("nan"), "alpha must lie in (0, 1), got nan"),
    ("0.1", "alpha must be a number, got '0.1'"),
])
def test_bad_alpha_fails_before_any_draw(sigma_dataset, monkeypatch, alpha, message):
    from subjack import pipeline

    monkeypatch.setattr(pipeline, "draw_chunk", lambda *args: pytest.fail("drew"))
    with pytest.raises(ValueError) as exc:
        run_estimate(sigma_dataset, "mean:0", 10, 5, 1, alpha=alpha)
    assert str(exc.value) == message


def test_bad_ci_center_fails_before_any_draw(sigma_dataset, monkeypatch):
    from subjack import pipeline

    draws = []
    real_draw_chunk = pipeline.draw_chunk
    monkeypatch.setattr(pipeline, "draw_chunk",
                        lambda *args: draws.append(args) or real_draw_chunk(*args))
    with pytest.raises(ValueError) as exc:
        run_estimate(sigma_dataset, "mean:0", 50, 2000, 1, ci_center="bogus")
    assert str(exc.value) == "ci_center must be 'jds' or 'sos', got 'bogus'"
    assert draws == []
    run_estimate(sigma_dataset, "mean:0", 50, 2000, 1, ci_center="sos")
    assert len(draws) == 2


def test_run_keeps_arrays_per_chunk(sigma_dataset, monkeypatch):
    # no SubsampleResult per k, and one seed derivation per chunk, not per k
    from subjack import estimator, pipeline

    expected = run_estimate(sigma_dataset, "corr:0,1", 50, 2000, 3)
    monkeypatch.setattr(estimator, "SubsampleResult",
                        lambda **fields: pytest.fail("built a SubsampleResult"))
    assert run_estimate(sigma_dataset, "corr:0,1", 50, 2000, 3) == expected
    calls = []
    real_seeds = pipeline.subsample_seeds
    monkeypatch.setattr(pipeline, "subsample_seeds",
                        lambda master, ks: calls.append(ks) or real_seeds(master, ks))
    assert run_estimate(sigma_dataset, "corr:0,1", 50, 2000, 3) == expected
    chunk = CHUNK_BYTES // (8 * 50 * 5)
    assert len(calls) == 4
    assert calls == [range(k, min(k + chunk, 2001)) for k in range(1, 2001, chunk)]


def test_check_run_reads_a_path_header_only_after_other_arguments(tmp_path):
    from subjack.pipeline import check_run
    from subjack.store import StoreError

    with pytest.raises(ValueError, match="subsample count K must be >= 1"):
        check_run(tmp_path / "absent.sjds", "mean:0", 10, 0, 1, 0.05)
    with pytest.raises(StoreError, match="cannot open dataset"):
        check_run(tmp_path / "absent.sjds", "mean:0", 10, 5, 1, 0.05)


def test_largest_master_seed_is_recorded(sigma_dataset):
    assert run_estimate(sigma_dataset, "mean:0", 10, 5, 2**64 - 1).master_seed == 2**64 - 1


def test_domain_failure_names_subsample(tmp_path):
    path = tmp_path / "flat.sjds"
    write_matrix(np.full((500, 1), 3.0), path)
    with pytest.raises(DomainEvalError, match="subsample k="):
        run_estimate(path, "sd:0", 20, 4, 11)


def test_accepts_open_handle_and_statistic_object(sigma_dataset):
    from subjack.stats import stat_variance

    handle = open_dataset(sigma_dataset)
    by_path = run_estimate(sigma_dataset, "var:0", 30, 10, 77)
    by_handle = run_estimate(handle, stat_variance(0), 30, 10, 77)
    assert by_path == by_handle


def test_planes_of_the_wrong_shape_are_rejected(sigma_dataset):
    # an (m, q) map in the planes slot would be reshaped into a wrong estimate
    var = parse_statistic("var:0")
    library = Statistic("lib-var", 2, (0,), var.planes, var.g, var.in_domain)
    assert run_estimate(sigma_dataset, library, 20, 10, 42).theta_jds == (
        run_estimate(sigma_dataset, var, 20, 10, 42).theta_jds)
    for planes, got in [(var.phi, "(200, 2)"), (lambda rows: var.planes(rows)[:1], "(1, 200)")]:
        library = Statistic("lib-var", 2, (0,), planes, var.g, var.in_domain)
        with pytest.raises(ValueError) as exc:
            run_estimate(sigma_dataset, library, 20, 10, 42)
        assert str(exc.value) == (
            f"statistic 'lib-var' planes must have shape (2, 200), got {got}")


# sha256 of run_estimate(sigma_dataset, stat, n, K, 42).to_json(), recorded
# with the per-subsample kernel that the chunked one replaced
GOLDEN_REPORTS = {
    ("mean:0", 50, 1000): "076e3414b685d7f3e8a8b68a9cf55b0dd5473aea0b57ef7b16d4a43916275888",
    ("mean:0", 500, 200): "52b75e74e885eb3f9ea027587e54a08950e9e7be1f92f946914c177fe5994fef",
    ("mean:0", 7, 333): "ea88c7d5ce7cf4dd33c3a0f1cc12e8140ec1a626de8a4d60f1636cd8ed332e5e",
    ("var:0", 50, 1000): "007d8bae553dd89afce2be7792880bb9e7f6fd2502f54f5e507ab948ac27c747",
    ("var:0", 500, 200): "440c934f6c455a216ebba2059dce64d3989b3e205b7a629301370f7b3647f0b5",
    ("var:0", 7, 333): "ef558709bed3b43b46985761173a7c7ccee7d4e01b7d205dbec461e8851dd105",
    ("sd:1", 50, 1000): "9bc1adcc0ed03f58cc6fa15ecfb71401639f9994e8e10cbc734195df6026d389",
    ("sd:1", 500, 200): "b1a4a55bd9af22dc66279da6d5048372194b35baa00f6639e151f67f5bce86de",
    ("sd:1", 7, 333): "68d4c83942fd4f31ddc55680162504866aa0816106d6517b11446f7b7989ca48",
    ("kurt:0", 50, 1000): "1cb9dd3bc9ecb670125dd89924f12ee2eee7b9f725e9113a894e4c37cc9783c1",
    ("kurt:0", 500, 200): "8dd6f5450807fb384b33b87f126f45ab331e32daa59f714807f48670f1d2d7e2",
    ("kurt:0", 7, 333): "e4ad154447efa911433f1c1be9205bdc77879ceee5b35c944db77ad0b4307cd8",
    ("corr:0,1", 50, 1000): "bcc26326fc1348a44e68d29087cecfa794199fc7e21aac2b1230d8fa4444dba5",
    ("corr:0,1", 500, 200): "2803d3633610ed8f29e90231eeaf901078cdb29b7abd33e7aa53eb502f80abe8",
    ("corr:0,1", 7, 333): "c45d762cb24179d32d821e16634bba96f260fe13b11262b81a6a6c9a2e56ef28",
}


@pytest.mark.parametrize("stat,n,K", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden(sigma_dataset, stat, n, K):
    text = run_estimate(sigma_dataset, stat, n, K, 42).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[(stat, n, K)]


def test_mean_point_failure_text(tmp_path):
    path = tmp_path / "flat.sjds"
    write_matrix(np.full((500, 1), 3.0), path)
    with pytest.raises(DomainEvalError) as exc:
        run_estimate(path, "sd:0", 20, 4, 11)
    assert str(exc.value) == (
        "statistic 'sd:0' undefined at the subsample mean of subsample k=1: "
        "moments=[3.0, 9.0]"
    )


@pytest.fixture(scope="module")
def wide_integer_dataset(tmp_path_factory):
    # 1000 columns make chunks of 32 subsamples at n=4; column 0 holds 0..19,
    # so a subsample of 4 integers is exactly constant when one row is left out
    matrix = np.zeros((20, 1000))
    matrix[:, 0] = np.arange(20.0)
    path = tmp_path_factory.mktemp("wide") / "wide.sjds"
    write_matrix(matrix, path)
    return path


@pytest.mark.parametrize("seed,message", [
    (4, "statistic 'sd:0' undefined at leave-one-out point j=3 of subsample k=111: "
        "moments=[6.0, 36.0]"),
    (30, "statistic 'sd:0' undefined at the subsample mean of subsample k=42: "
         "moments=[2.0, 4.0]"),
])
def test_first_failure_past_a_chunk_boundary_keeps_its_text(wide_integer_dataset, seed,
                                                            message):
    chunk = CHUNK_BYTES // (8 * 4 * 1000)
    assert chunk == 32  # both failures lie past the first chunk
    with pytest.raises(DomainEvalError) as exc:
        run_estimate(wide_integer_dataset, "sd:0", 4, 300, seed)
    assert str(exc.value) == message


@pytest.mark.parametrize("splits", [[60], [1] * 60, [7, 53], [32, 1, 27], [13, 13, 13, 21]])
def test_chunk_boundaries_never_change_results(sigma_dataset, splits):
    stat, n, K, seed = parse_statistic("kurt:0"), 50, 60, 42
    handle = open_dataset(sigma_dataset)
    indices = np.concatenate([
        draw_with_replacement(subsample_seed(seed, k), handle.row_count, n)
        for k in range(1, K + 1)
    ])
    features = stat.phi(handle.read_records(indices).rows).reshape(K, n, stat.q)
    results, first = [], 0
    for size in splits:
        ks = range(first + 1, first + size + 1)
        results += jackknife_chunk(stat, features[first:first + size], ks)
        first += size
    whole = jackknife_chunk(stat, features, range(1, K + 1))
    assert results == whole
    report = aggregate(results, handle.row_count, master_seed=seed, statistic_name=stat.name,
                       rng_id=RNG_ID)
    assert report == run_estimate(handle, stat, n, K, seed)


def _row_major_report(handle, stat, n, K, seed):
    # the row-major chunk path: rows read in k order, phi's (K, n, q) features,
    # jackknife_chunk over them, then aggregate
    row_width = max(stat.q, handle.col_count)
    indices = np.concatenate([idx for _, idx in draw_chunks(handle.row_count, n, K, seed,
                                                            row_width)])
    features = stat.phi(handle.read_records(indices.ravel()).rows).reshape(K, n, stat.q)
    return aggregate(jackknife_chunk(stat, features, range(1, K + 1)), handle.row_count,
                     master_seed=seed, statistic_name=stat.name, rng_id=RNG_ID)


# K = 1 (mod Kc), so the last chunk holds one subsample, whose rows add.reduce
# would add pairwise; each seed is one where that rounds differently. mean
# (q = 1) is summed pairwise on the row-major path, whatever Kc.
@pytest.mark.parametrize("spec,n,K,seed", [
    ("corr:0,1", 500, 53, 0),
    ("kurt:0", 50, 656, 11),
    ("var:0", 500, 263, 0),
    ("mean:0", 500, 200, 0),
])
def test_planes_report_matches_the_row_major_chunk_path(sigma_dataset, spec, n, K, seed):
    stat, handle = parse_statistic(spec), open_dataset(sigma_dataset)
    chunk = CHUNK_BYTES // (8 * n * max(stat.q, handle.col_count))
    assert stat.q == 1 or K % chunk == 1
    expected = _row_major_report(handle, stat, n, K, seed)
    assert run_estimate(handle, stat, n, K, seed) == expected


def test_estimate_past_2_to_the_32_rows_matches_the_chunk_path(huge_sparse_dataset):
    # f(i) = i % 1009 at exactly the rows the run draws; every other row is a hole
    path, put = huge_sparse_dataset
    stat, n, K, seed = parse_statistic("var:0"), 50, 20, 1
    n_rows = open_dataset(path).row_count
    indices = np.concatenate([idx for _, idx in draw_chunks(n_rows, n, K, seed, stat.q)])
    assert indices.max() >= 2**31
    values = (indices % 1009).astype(np.float64)
    put(indices.ravel(), values.ravel())
    features = stat.phi(values.reshape(-1, 1)).reshape(K, n, stat.q)
    expected = aggregate(jackknife_chunk(stat, features, range(1, K + 1)), n_rows,
                         master_seed=seed, statistic_name=stat.name, rng_id=RNG_ID)
    assert run_estimate(path, stat, n, K, seed) == expected


def test_subsample_count_stays_below_the_replication_ordinals():
    # K = 2**32 would draw subsample 2**32 + 7 with replication 7's seed
    header = DatasetHeader(10**6, 2)
    assert subsample_seed(5, 2**32 + 7) == replication_seed(5, 7)
    with pytest.raises(ValueError) as exc:
        check_run(header, "corr:0,1", 50, 2**32, 5, 0.05)
    assert str(exc.value) == "subsample count K must be < 2**32"
    # in K's place in the check order: before the master seed
    with pytest.raises(ValueError) as exc:
        check_run(header, "corr:0,1", 50, 2**32 + 7, -1, 0.05)
    assert str(exc.value) == "subsample count K must be < 2**32"
    assert check_run(header, "corr:0,1", 50, 2**32 - 1, 5, 0.05)[2] == 2**32 - 1


def test_gathered_rows_are_freed_before_the_kernel(sigma_dataset, monkeypatch):
    # a chunk's rows must be gone while the kernel allocates its own arrays
    from subjack import pipeline

    refs, dead = [], []
    real_read, real_kernel = DatasetHandle.read_records, pipeline.jackknife_planes

    def read_records(self, indices):
        batch = real_read(self, indices)
        refs.append(weakref.ref(batch.rows))
        return batch

    def kernel(*args, **kwargs):
        dead.append(refs[-1]() is None)
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(DatasetHandle, "read_records", read_records)
    monkeypatch.setattr(pipeline, "jackknife_planes", kernel)
    run_estimate(sigma_dataset, "var:0", 500, 200, 7)
    assert len(dead) == len(refs) > 1
    assert all(dead)


def _report_or_error(estimate):
    try:
        return estimate()
    except DomainEvalError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_prefix_of_a_larger_draw_gives_the_smaller_run(sigma_dataset, seed):
    # subsample k's indices at n are the first n of its indices at 500, so the
    # first n * K rows of a j-major gather at n = 500 are the run's rows at n
    handle = open_dataset(sigma_dataset)
    for K in (1, 2, 53):
        ks = range(1, K + 1)
        indices = draw_chunk(subsample_seeds(seed, ks), handle.row_count, 500)
        gather = handle.read_records(indices.T.ravel()).rows
        for spec in ("mean:0", "var:0", "sd:1", "kurt:0", "corr:0,1"):
            stat = parse_statistic(spec)
            for n in (2, 8, 50, 500):
                def from_prefix():
                    columns = _chunk_columns(stat, n, ks, stat.planes(gather[:n * K]))
                    return summarize(*(c.tolist() for c in columns), n, handle.row_count,
                                     master_seed=seed, statistic_name=stat.name,
                                     rng_id=RNG_ID)

                expected = _report_or_error(lambda: run_estimate(handle, stat, n, K, seed))
                assert _report_or_error(from_prefix) == expected, (spec, K, n)
