import math
import tempfile

import pytest

from subjack import bench
from subjack.bench import bench_sampling
from subjack.simulate import generate_bivariate_normal


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "b.sjds"
    generate_bivariate_normal(8, 200_000, [[1.0, 0.0], [0.0, 1.0]], path)
    return str(path)


def test_bench_grid_shape_and_ordering(bench_dataset):
    results = bench_sampling(200_000, [(100, 50)], seed=11, repeats=3,
                             data_path=bench_dataset)
    assert len(results) == 2
    by_mode = {r.mode: r for r in results}
    assert by_mode["without_replacement"].seconds >= by_mode["with_replacement"].seconds
    for r in results:
        assert r.seconds >= 0
        assert math.isfinite(r.mse) and r.mse > 0


def test_bench_mse_comparable_between_modes(bench_dataset):
    results = bench_sampling(200_000, [(100, 50)], seed=11, repeats=3,
                             data_path=bench_dataset)
    by_mode = {r.mode: r.mse for r in results}
    ratio = by_mode["with_replacement"] / by_mode["without_replacement"]
    assert 0.2 < ratio < 5.0


def test_bench_without_replacement_needs_room(bench_dataset):
    with pytest.raises(ValueError, match="n\\*K"):
        bench_sampling(200_000, [(100_000, 3)], seed=1, repeats=1,
                       data_path=bench_dataset)


@pytest.mark.parametrize("bad,message", [
    ((10, 0), "subsample count K must be >= 1"),
    ((0, 10), "subsample size n must be >= 1"),
])
def test_bench_bad_grid_cell_fails_before_timing(bench_dataset, monkeypatch, bad, message):
    timed = []
    monkeypatch.setattr(bench, "_timed_draw", lambda *args: timed.append(args))
    with pytest.raises(ValueError) as exc:
        bench_sampling(200_000, [(10, 5), bad], seed=1, repeats=1, data_path=bench_dataset)
    assert str(exc.value) == message
    assert timed == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bench_rejects_master_seed_that_would_alias(bench_dataset, seed):
    with pytest.raises(ValueError) as exc:
        bench_sampling(200_000, [(10, 2)], seed=seed, repeats=1, data_path=bench_dataset)
    assert str(exc.value) == f"master seed must be an integer in [0, 2**64), got {seed}"


def test_bench_rejects_row_count_the_dataset_contradicts(bench_dataset, monkeypatch):
    timed = []
    monkeypatch.setattr(bench, "_timed_draw", lambda *args: timed.append(args))
    with pytest.raises(ValueError) as exc:
        bench_sampling(7, [(10, 2)], seed=1, repeats=1, data_path=bench_dataset)
    assert str(exc.value) == f"n_rows is 7, but {bench_dataset} has 200000 rows"
    assert timed == []


def test_bench_generates_own_dataset_when_missing():
    results = bench_sampling(20_000, [(50, 5)], seed=2, repeats=1)
    assert len(results) == 2


def test_bench_rejects_bad_repeats(bench_dataset):
    with pytest.raises(ValueError, match="repeats"):
        bench_sampling(200_000, [(10, 2)], seed=1, repeats=0, data_path=bench_dataset)


def test_bench_failed_generation_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ValueError, match="n_rows"):
        bench_sampling(0, [(10, 5)], seed=1)
    assert list(tmp_path.iterdir()) == []
