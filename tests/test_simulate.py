import hashlib
import math
import os
import tempfile

import numpy as np
import pytest

from subjack.simulate import (
    ExperimentConfig,
    generate_bivariate_normal,
    replication_seed,
    run_replications,
)
from subjack.store import open_dataset

PAPER_SIGMA = [[25.0, 10.0], [10.0, 5.0]]


def _load_all(path):
    handle = open_dataset(path)
    return handle.read_records(np.arange(handle.row_count)).rows


def test_generate_identity_covariance(tmp_path):
    n = 100_000
    path = tmp_path / "ident.sjds"
    header = generate_bivariate_normal(17, n, np.eye(2), path)
    assert (header.row_count, header.col_count) == (n, 2)
    rows = _load_all(path)
    sample_cov = np.cov(rows.T, bias=True)
    assert np.all(np.abs(sample_cov - np.eye(2)) < 3 / math.sqrt(n))


def test_generate_paper_covariance_correlation(tmp_path):
    path = tmp_path / "sigma.sjds"
    generate_bivariate_normal(17, 100_000, PAPER_SIGMA, path)
    rows = _load_all(path)
    r = float(np.corrcoef(rows[:, 0], rows[:, 1])[0, 1])
    assert abs(r - 2 / math.sqrt(5)) < 0.01


def test_generate_deterministic(tmp_path):
    digests = []
    for name in ("a.sjds", "b.sjds"):
        path = tmp_path / name
        generate_bivariate_normal(123, 5000, PAPER_SIGMA, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_generate_rejects_bad_sigma(tmp_path):
    with pytest.raises(ValueError, match="positive definite"):
        generate_bivariate_normal(1, 10, [[1.0, 2.0], [2.0, 1.0]], tmp_path / "x.sjds")
    with pytest.raises(ValueError, match="symmetric"):
        generate_bivariate_normal(1, 10, [[1.0, 0.5], [0.2, 1.0]], tmp_path / "y.sjds")
    with pytest.raises(ValueError, match="2x2"):
        generate_bivariate_normal(1, 10, np.eye(3), tmp_path / "z.sjds")


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_generate_rejects_seed_outside_key_range(tmp_path, seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        generate_bivariate_normal(seed, 10, np.eye(2), tmp_path / "s.sjds")
    assert not (tmp_path / "s.sjds").exists()


@pytest.fixture(scope="module")
def sim_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "d.sjds"
    generate_bivariate_normal(3, 50_000, PAPER_SIGMA, path)
    return str(path)


def test_single_replication_degenerates(sim_dataset):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=30, K=20,
                           M=1, master_seed=5, theta_true=2 / math.sqrt(5))
    metrics = run_replications(cfg)
    rep = metrics.per_rep[0]
    assert metrics.bias_jds == pytest.approx(rep.theta_jds - cfg.theta_true, rel=1e-12)
    assert metrics.ecp_jds in (0.0, 1.0)
    assert math.isnan(metrics.se_jds)


def test_linear_statistic_streams_identical(sim_dataset):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="mean:0", n=40, K=25,
                           M=8, master_seed=6, theta_true=0.0)
    metrics = run_replications(cfg)
    for rep in metrics.per_rep:
        assert rep.theta_jds == pytest.approx(rep.theta_sos, rel=1e-12)
    assert metrics.bias_sos == pytest.approx(metrics.bias_jds, rel=1e-10)
    assert metrics.ecp_sos == metrics.ecp_jds


def test_ecp_times_m_is_integral(sim_dataset):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=30, K=15,
                           M=10, master_seed=7, theta_true=2 / math.sqrt(5))
    metrics = run_replications(cfg)
    for ecp in (metrics.ecp_sos, metrics.ecp_jds):
        assert abs(ecp * cfg.M - round(ecp * cfg.M)) < 1e-9


def test_replication_depends_only_on_master_and_ordinal(sim_dataset):
    base = dict(dataset=sim_dataset, statistic="corr:0,1", n=25, K=10,
                master_seed=13, theta_true=None)
    three = run_replications(ExperimentConfig(M=3, **base))
    two = run_replications(ExperimentConfig(M=2, **base))
    assert three.per_rep[1] == two.per_rep[1]


def test_process_workers_match_serial(sim_dataset):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=30, K=12,
                           M=6, master_seed=99, theta_true=2 / math.sqrt(5))
    serial = run_replications(cfg, workers=1)
    parallel = run_replications(cfg, workers=2)
    assert serial.per_rep == parallel.per_rep
    assert serial.csv_row() == parallel.csv_row()


def test_generator_spec_dataset():
    cfg = ExperimentConfig(
        dataset={"rows": 20_000, "sigma": PAPER_SIGMA, "seed": 4},
        statistic="corr:0,1", n=30, K=10, M=3, master_seed=1,
        theta_true=2 / math.sqrt(5),
    )
    metrics = run_replications(cfg)
    assert len(metrics.per_rep) == 3
    assert cfg.dataset_label() == "generated:rows=20000,seed=4"


def test_failed_generation_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = ExperimentConfig(dataset={"rows": 100, "sigma": [[1, 2], [2, 1]], "seed": 1},
                           statistic="corr:0,1", n=5, K=5, M=1)
    with pytest.raises(ValueError, match="positive definite"):
        run_replications(cfg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_generated_dataset_is_unmapped_after_run(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = ExperimentConfig(dataset={"rows": 5000, "seed": 2}, statistic="corr:0,1",
                           n=10, K=5, M=2, master_seed=3)
    run_replications(cfg, workers=1)
    assert list(tmp_path.iterdir()) == []
    with open("/proc/self/maps") as fh:
        leaked = [line for line in fh if str(tmp_path.resolve()) in line]
    assert leaked == []


def test_config_validation():
    with pytest.raises(ValueError, match="M must be >= 1"):
        ExperimentConfig(dataset="x", statistic="mean:0", n=5, K=5, M=0)
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(dataset="x", statistic="mean:0", n=5, K=5, M=1, alpha=1.5)
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"dataset": "x", "statistic": "mean:0",
                                    "n": 5, "K": 5, "M": 1, "bogus": 1})
    with pytest.raises(ValueError, match="n >= 2"):
        ExperimentConfig(dataset="x", statistic="mean:0", n=1, K=5, M=1)
    with pytest.raises(ValueError, match="K must be >= 1"):
        ExperimentConfig(dataset="x", statistic="mean:0", n=5, K=0, M=1)
    with pytest.raises(ValueError, match="unknown statistic"):
        ExperimentConfig(dataset="x", statistic="median:0", n=5, K=5, M=1)
    with pytest.raises(ValueError, match="needs column 9"):
        # checked against the spec's two columns before anything is generated
        ExperimentConfig(dataset={"rows": 10**9, "seed": 1}, statistic="corr:0,9",
                         n=5, K=5, M=1)
    for spec, message in [
        ({"rows": 100}, "missing field 'seed'"),
        ({"seed": 1}, "missing field 'rows'"),
        ({"rows": 100, "seed": 1, "mu": 0}, "unknown generator spec fields"),
        ({"rows": 0, "seed": 1}, "rows must be >= 1"),
        ({"rows": 100, "seed": 1, "sigma": [1.0, 0.0, 0.0, 1.0]}, "2x2"),
        ({"rows": 100, "seed": 1, "sigma": np.eye(3).tolist()}, "2x2"),
        ({"rows": 2.7, "seed": 1}, "rows must be an integer, got 2.7"),
        ({"rows": "100", "seed": 1}, "rows must be an integer"),
        ({"rows": float("inf"), "seed": 1}, "rows must be an integer"),
        ({"rows": 100, "seed": 0.5}, "seed must be an integer"),
        ({"rows": 100, "seed": -1}, r"seed must be in \[0, 2\*\*128\), got -1"),
        ({"rows": 100, "seed": 2**128}, r"seed must be in \[0, 2\*\*128\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(dataset=spec, statistic="mean:0", n=5, K=5, M=1)


def test_replication_seed_offset_avoids_estimate_ordinals():
    from subjack.sampling import subsample_seed

    assert replication_seed(42, 1) == subsample_seed(42, 2**32 + 1)
    assert replication_seed(42, 1) != subsample_seed(42, 1)


def test_csv_row_schema(sim_dataset):
    from subjack.simulate import METRICS_CSV_COLUMNS

    cfg = ExperimentConfig(dataset=sim_dataset, statistic="mean:1", n=10, K=5,
                           M=2, master_seed=3)
    row = run_replications(cfg).csv_row()
    assert list(row.keys()) == METRICS_CSV_COLUMNS
    assert row["theta_true"] == ""
    assert math.isnan(row["bias_jds"])
