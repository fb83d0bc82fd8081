import builtins
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from subjack import cli, simulate, store
from subjack.simulate import (
    ExperimentConfig,
    generate_bivariate_normal,
    replication_seed,
    run_replications,
)
from subjack.store import StoreError, open_dataset, write_blocks

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


@pytest.mark.parametrize("chunk", [1, 3, 7, simulate._GEN_CHUNK])
def test_generated_bytes_do_not_depend_on_chunking(tmp_path, chunk):
    rows = 2 * chunk + 3
    with mock.patch.object(simulate, "_GEN_CHUNK", chunk):
        generate_bivariate_normal(123, rows, PAPER_SIGMA, tmp_path / "chunked.sjds")
    z = np.random.Generator(np.random.Philox(key=123)).standard_normal((rows, 2))
    chol = np.linalg.cholesky(np.array(PAPER_SIGMA))
    mixed = np.column_stack([chol[0, 0] * z[:, 0], chol[1, 0] * z[:, 0] + chol[1, 1] * z[:, 1]])
    write_blocks(tmp_path / "one_shot.sjds", 2, [mixed])
    assert (tmp_path / "chunked.sjds").read_bytes() == (tmp_path / "one_shot.sjds").read_bytes()


def test_generate_rejects_bad_sigma(tmp_path):
    with pytest.raises(ValueError, match="positive definite"):
        generate_bivariate_normal(1, 10, [[1.0, 2.0], [2.0, 1.0]], tmp_path / "x.sjds")
    with pytest.raises(ValueError, match="symmetric"):
        generate_bivariate_normal(1, 10, [[1.0, 0.5], [0.2, 1.0]], tmp_path / "y.sjds")
    with pytest.raises(ValueError, match="2x2"):
        generate_bivariate_normal(1, 10, np.eye(3), tmp_path / "z.sjds")
    with pytest.raises(ValueError, match="finite"):
        generate_bivariate_normal(1, 10, [[math.inf, 0.0], [0.0, 1.0]], tmp_path / "w.sjds")
    assert list(tmp_path.iterdir()) == []


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


def test_generator_spec_dataset_in_a_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = ExperimentConfig(
        dataset={"rows": 20_000, "sigma": PAPER_SIGMA, "seed": 4},
        statistic="corr:0,1", n=30, K=10, M=4, master_seed=1,
        theta_true=2 / math.sqrt(5),
    )
    serial = run_replications(cfg, workers=1)
    parallel = run_replications(cfg, workers=2)
    assert serial.per_rep == parallel.per_rep
    assert serial.csv_row() == parallel.csv_row()
    assert list(tmp_path.iterdir()) == []


def test_pool_is_capped_at_m_processes(sim_dataset, monkeypatch):
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    base = dict(dataset=sim_dataset, statistic="corr:0,1", n=20, K=5, master_seed=8)
    three = ExperimentConfig(M=3, **base)
    assert run_replications(three, workers=8).per_rep == run_replications(three).per_rep
    run_replications(ExperimentConfig(M=1, **base), workers=8)
    assert sizes == [3]


@pytest.mark.parametrize("damage", ["truncate", "replace"])
def test_open_error_is_the_same_for_every_worker_count(tmp_path, monkeypatch, capsys, damage):
    # the config is built on a valid file, which then changes before the run
    path = tmp_path / "d.sjds"

    def make_valid():
        generate_bivariate_normal(1, 2000, np.eye(2), path)

    def spoil():
        if damage == "truncate":
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 8)
        else:
            path.write_text("x,y\n1,2\n")

    make_valid()
    cfg = ExperimentConfig(dataset=str(path), statistic="corr:0,1", n=10, K=5, M=3)
    spoil()
    messages = []
    for workers in (1, 2):
        with pytest.raises(StoreError) as info:
            run_replications(cfg, workers=workers)
        assert type(info.value) is StoreError
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert str(path) in messages[0]

    real_run = cli.run_replications

    def spoil_then_run(cfg, *, workers):
        spoil()
        return real_run(cfg, workers=workers)

    monkeypatch.setattr(cli, "run_replications", spoil_then_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": str(path), "statistic": "corr:0,1",
                                    "n": 10, "K": 5, "M": 3}))
    for workers in ("1", "2"):
        make_valid()
        code = cli.main(["simulate", "--config", str(cfg_path), "--workers", workers])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err_lines[-1] == f"subjack: error: {messages[0]}"
        assert [line for line in err_lines if not line.startswith("[1/1] ")] == err_lines[-1:]


def _record_calls(monkeypatch, module, name, log_path):
    """Patch module.name to append this process's pid to log_path on each call.

    A name the module does not define is the builtin the module calls by it.
    """
    real = getattr(module, name) if hasattr(module, name) else getattr(builtins, name)

    def recording(*args, **kwargs):
        with open(log_path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording, raising=False)


def _pids(log_path):
    return log_path.read_text().split() if log_path.exists() else []


def test_in_process_run_opens_the_dataset_once(sim_dataset, tmp_path, monkeypatch):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=5, M=5)
    _record_calls(monkeypatch, store, "open", tmp_path / "opens")
    run_replications(cfg, workers=1)
    assert _pids(tmp_path / "opens") == [str(os.getpid())]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool processes see the patches only when forked")
def test_pool_opens_the_dataset_once_per_process(sim_dataset, tmp_path, monkeypatch):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=5, M=16)
    _record_calls(monkeypatch, store, "open", tmp_path / "opens")
    _record_calls(monkeypatch, simulate, "run_estimate", tmp_path / "tasks")
    run_replications(cfg, workers=2)
    opens, tasks = _pids(tmp_path / "opens"), _pids(tmp_path / "tasks")
    assert len(tasks) == cfg.M
    assert str(os.getpid()) not in tasks
    assert sorted(opens) == sorted(set(tasks))


def _record_pools(monkeypatch):
    """Patch simulate's ProcessPoolExecutor to list each pool it starts; a
    pool's .size is its process count and .shut whether it was shut down."""
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self.size, self.shut = max_workers, False
            pools.append(self)

        def shutdown(self, *args, **kwargs):
            self.shut = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_pooled_calls_reuse_one_pool(sim_dataset, monkeypatch):
    pools = _record_pools(monkeypatch)
    base = dict(dataset=sim_dataset, statistic="corr:0,1", n=20, K=8, M=6,
                theta_true=2 / math.sqrt(5))
    for master_seed in (1, 2):
        cfg = ExperimentConfig(master_seed=master_seed, **base)
        parallel = run_replications(cfg, workers=2)
        serial = run_replications(cfg, workers=1)
        assert parallel.per_rep == serial.per_rep
        assert parallel.csv_row() == serial.csv_row()
    assert [(pool.size, pool.shut) for pool in pools] == [(2, False)]


def test_pool_of_another_size_replaces_the_pool(sim_dataset, monkeypatch):
    pools = _record_pools(monkeypatch)
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=8, M=6)
    serial = run_replications(cfg, workers=1).per_rep
    for workers in (2, 3, 3):
        assert run_replications(cfg, workers=workers).per_rep == serial
    assert [(pool.size, pool.shut) for pool in pools] == [(2, True), (3, False)]


def test_pool_is_not_reused_after_a_pid_change(sim_dataset, monkeypatch):
    # a forked child inherits its parent's pool, under its parent's pid
    pools = _record_pools(monkeypatch)
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=8, M=6)
    first = run_replications(cfg, workers=2)
    # only simulate's view of the pid moves; multiprocessing checks the real one
    moved_os = types.ModuleType("os")
    moved_os.__dict__.update(vars(os), getpid=lambda pid=os.getpid(): pid + 1)
    monkeypatch.setattr(simulate, "os", moved_os)
    assert run_replications(cfg, workers=2).per_rep == first.per_rep
    assert [(pool.size, pool.shut) for pool in pools] == [(2, True), (2, False)]


def test_file_replaced_between_pooled_calls_is_read_afresh(tmp_path, monkeypatch):
    pools = _record_pools(monkeypatch)
    path, other = tmp_path / "d.sjds", tmp_path / "other.sjds"
    generate_bivariate_normal(1, 2000, PAPER_SIGMA, path)
    generate_bivariate_normal(2, 2000, PAPER_SIGMA, other)
    cfg = ExperimentConfig(dataset=str(path), statistic="corr:0,1", n=10, K=5, M=4)
    before = run_replications(cfg, workers=2)
    os.replace(other, path)
    after = run_replications(cfg, workers=2)
    assert after.per_rep == run_replications(cfg, workers=1).per_rep
    assert after.per_rep != before.per_rep
    assert len(pools) == 1


def test_pooled_call_after_a_failed_one_succeeds(tmp_path, monkeypatch):
    pools = _record_pools(monkeypatch)
    path = tmp_path / "d.sjds"
    generate_bivariate_normal(1, 2000, np.eye(2), path)
    cfg = ExperimentConfig(dataset=str(path), statistic="corr:0,1", n=10, K=5, M=4)
    good = path.read_bytes()
    path.write_text("x,y\n1,2\n")
    with pytest.raises(StoreError):
        run_replications(cfg, workers=2)
    path.write_bytes(good)
    assert run_replications(cfg, workers=2).per_rep == run_replications(cfg, workers=1).per_rep
    assert [(pool.size, pool.shut) for pool in pools] == [(2, True), (2, False)]


def _patch_replicate(monkeypatch, log, first_held, act):
    """Patch simulate._replicate to log "pid m" on each call and run act(m).

    In a pool process it then holds each m >= first_held until the pool's
    counter is used up, so how many replications run does not depend on
    timing. Returns arm(), which bounds the holds of the next call by 10 s.
    """
    real_replicate = simulate._replicate
    deadline = [0.0]

    def replicate(path, cfg, m):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {m}\n")
        act(m)
        if m >= first_held and simulate._taken is not None:
            while simulate._taken.value < cfg.M and time.monotonic() < deadline[0]:
                time.sleep(0.001)
        return real_replicate(path, cfg, m)

    def arm():
        log.unlink(missing_ok=True)
        deadline[0] = time.monotonic() + 10.0

    monkeypatch.setattr(simulate, "_replicate", replicate)
    return arm


def _ran(log):
    """(pids, sorted ordinals) of the replications _patch_replicate logged."""
    runs = [line.split() for line in log.read_text().splitlines()]
    return {pid for pid, _ in runs}, sorted(int(m) for _, m in runs)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool processes see the patches only when forked")
def test_pooled_call_raises_the_first_failure_and_takes_no_more(sim_dataset, tmp_path,
                                                               monkeypatch):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=5, M=40)
    log = tmp_path / "ran"

    def fail_3_and_5(m):
        if m in (3, 5):
            raise ValueError(f"replication {m} failed")

    arm = _patch_replicate(monkeypatch, log, 6, fail_3_and_5)
    for workers in (1, 2, 3):
        arm()
        with pytest.raises(ValueError, match="^replication 3 failed$"):
            run_replications(cfg, workers=workers)
        pids, ms = _ran(log)
        if workers == 1:
            assert (pids, ms) == ({str(os.getpid())}, [1, 2, 3])
            continue
        assert str(os.getpid()) not in pids
        assert ms[:3] == [1, 2, 3] and len(ms) == len(set(ms))
        # 3 and 5 stop the processes that ran them, and each other process
        # finishes at most the one m > 5 it held when the counter was used up
        assert len(ms) <= 5 + (workers - 2) < cfg.M


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool processes see the patches only when forked")
def test_interrupted_pooled_call_takes_no_more(sim_dataset, tmp_path, monkeypatch):
    cfg = ExperimentConfig(dataset=sim_dataset, statistic="corr:0,1", n=20, K=5, M=40)
    log = tmp_path / "ran"

    def interrupt_at_4(m):
        if m == 4:
            os.kill(os.getppid(), signal.SIGINT)

    arm = _patch_replicate(monkeypatch, log, 5, interrupt_at_4)
    arm()
    with pytest.raises(KeyboardInterrupt):
        run_replications(cfg, workers=2)
    _, ms = _ran(log)
    # each process finishes at most the one replication it held when the
    # interrupt used up the counter
    assert ms[:4] == [1, 2, 3, 4] and len(ms) == len(set(ms))
    assert len(ms) <= 4 + 2 < cfg.M


def test_generator_spec_is_parsed_once(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _record_calls(monkeypatch, simulate, "_parse_generator_spec", tmp_path / "parses")
    cfg = ExperimentConfig(dataset={"rows": 2000, "seed": 4}, statistic="corr:0,1",
                           n=20, K=5, M=2)
    run_replications(cfg)
    assert cfg.dataset_label() == "generated:rows=2000,seed=4"
    assert len(_pids(tmp_path / "parses")) == 1


@pytest.mark.parametrize("affinity, cpu_count, expected", [
    (1, 16, 1), (3, 16, 3), (64, 16, 8), (None, 3, 3), (None, None, 1),
])
def test_auto_workers_follow_cpu_affinity(monkeypatch, affinity, cpu_count, expected):
    # None: a platform without os.sched_getaffinity, where os.cpu_count decides
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert simulate.resolve_workers(0) == simulate.resolve_workers(None) == expected
    assert simulate.resolve_workers(5) == 5


@pytest.mark.parametrize("workers", [2.5, "2", True])
def test_bad_worker_count_is_rejected_before_the_dataset_is_generated(monkeypatch, workers):
    generated = []
    monkeypatch.setattr(simulate, "generate_bivariate_normal",
                        lambda *args: generated.append(args))
    cfg = ExperimentConfig(dataset={"rows": 100_000, "seed": 4}, statistic="corr:0,1",
                           n=30, K=10, M=4)
    with pytest.raises(ValueError, match=f"^workers must be an integer, got {workers!r}$"):
        run_replications(cfg, workers=workers)
    assert generated == []


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_pool_processes_exit_with_their_parent(tmp_path):
    data = tmp_path / "d.sjds"
    generate_bivariate_normal(1, 2000, np.eye(2), data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": str(data), "statistic": "corr:0,1",
                                    "n": 20, "K": 200, "M": 20000}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "subjack.cli", "simulate", "--config", str(cfg_path),
         "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    pgid = proc.pid
    try:
        assert proc.stderr.readline().startswith(b"[1/1] ")
        time.sleep(1.0)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10.0
        # the pool processes hold stderr's write end until they exit
        reader = threading.Thread(target=proc.stderr.read, daemon=True)
        reader.start()
        reader.join(deadline - time.monotonic())
        assert not reader.is_alive(), "pool processes outlived their parent"
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "process group still alive"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stderr.close()


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
def test_simulate_stops_on_signal_with_one_error_line(tmp_path, signum):
    data = tmp_path / "d.sjds"
    generate_bivariate_normal(1, 2000, np.eye(2), data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": str(data), "statistic": "corr:0,1",
                                    "n": 20, "K": 200, "M": 20000}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "subjack.cli", "simulate", "--config", str(cfg_path),
         "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    pgid = proc.pid
    try:
        assert proc.stderr.readline().startswith(b"[1/1] ")
        time.sleep(0.5)
        os.kill(proc.pid, signum)
        deadline = time.monotonic() + 10.0
        assert proc.wait(timeout=10.0) == 2
        stderr = []
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()), daemon=True)
        reader.start()
        reader.join(deadline - time.monotonic())
        assert stderr == [b"subjack: error: interrupted\n"]
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "process group still alive"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stderr.close()


_START_METHOD_SCRIPT = """
import multiprocessing
import sys

from subjack.simulate import ExperimentConfig, run_replications

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1], force=True)
    for seed in (1, 2):
        cfg = ExperimentConfig(dataset=sys.argv[2], statistic="corr:0,1", n=20, K=8, M=6,
                               master_seed=seed)
        pooled = run_replications(cfg, workers=2)
        print(repr(pooled.per_rep) == repr(run_replications(cfg, workers=1).per_rep))
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawn_and_forkserver_pools_match_in_process(sim_dataset, tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = tmp_path / "pooled.py"
    script.write_text(_START_METHOD_SCRIPT)
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, str(script), method, sim_dataset], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    pgid = proc.pid
    try:
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, b"True\nTrue\n", b"")
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a child outlived the pooled calls"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.kill()
        proc.wait()


def test_failed_generation_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    real_write_blocks = simulate.write_blocks

    def write_then_fail(path, col_count, blocks):
        def first_block_then_error():
            yield next(iter(blocks))
            raise OSError("disk full")

        return real_write_blocks(path, col_count, first_block_then_error())

    monkeypatch.setattr(simulate, "write_blocks", write_then_fail)
    cfg = ExperimentConfig(dataset={"rows": 100, "seed": 1},
                           statistic="corr:0,1", n=5, K=5, M=1)
    with pytest.raises(OSError, match="disk full"):
        run_replications(cfg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_generated_dataset_is_unmapped_after_run(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = ExperimentConfig(dataset={"rows": 5000, "seed": 2}, statistic="corr:0,1",
                           n=10, K=5, M=2, master_seed=3)
    for workers in (1, 2):
        run_replications(cfg, workers=workers)
        assert list(tmp_path.iterdir()) == []
        # the pool outlives the call, so its processes are still there to look at
        pids = ["self"] + [str(child.pid) for child in multiprocessing.active_children()]
        assert len(pids) == (1 if workers == 1 else 1 + workers)
        for pid in pids:
            with open(f"/proc/{pid}/maps") as fh:
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
        ({"rows": 100, "seed": 1, "sigma": [[1, 2], [2, 1]]}, "positive definite"),
        ({"rows": 2.7, "seed": 1}, "rows must be an integer, got 2.7"),
        ({"rows": "100", "seed": 1}, "rows must be an integer"),
        ({"rows": float("inf"), "seed": 1}, "rows must be an integer"),
        ({"rows": 100, "seed": 0.5}, "seed must be an integer"),
        ({"rows": 100, "seed": -1}, r"seed must be in \[0, 2\*\*128\), got -1"),
        ({"rows": 100, "seed": 2**128}, r"seed must be in \[0, 2\*\*128\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(dataset=spec, statistic="mean:0", n=5, K=5, M=1)
    for theta in [True, False, math.nan, math.inf, -math.inf, 10**400]:
        with pytest.raises(ValueError, match="theta_true must be a number or null"):
            ExperimentConfig(dataset="x", statistic="mean:0", n=5, K=5, M=1, theta_true=theta)


def test_config_stores_integer_valued_fields_as_ints():
    cfg = ExperimentConfig(dataset={"rows": 2000.0, "seed": 4.0}, statistic="mean:0",
                           n=20.0, K=5.0, M=2.0, master_seed=3.0)
    assert (cfg.n, cfg.K, cfg.M, cfg.master_seed) == (20, 5, 2, 3)
    assert all(type(v) is int for v in (cfg.n, cfg.K, cfg.M, cfg.master_seed))
    assert cfg.dataset_label() == "generated:rows=2000,seed=4"


@pytest.mark.parametrize("master", [-1, 2**64, 1.5])
def test_config_rejects_master_seed_that_would_alias(master):
    # 1.5 would run seed 1, and 2**64 seed 0, with the given value in the CSV
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(dataset="x", statistic="mean:0", n=5, K=5, M=1, master_seed=master)
    assert str(exc.value) == f"master seed must be an integer in [0, 2**64), got {master!r}"


def test_replication_count_stays_below_the_benchmark_ordinals():
    # M = 2**32 + 3 would give a replication bench cell 3's ordinal
    from subjack.sampling import BENCH_SEED_OFFSET, subsample_seed

    assert replication_seed(5, 2**32 + 3) == subsample_seed(5, BENCH_SEED_OFFSET + 3)
    base = dict(dataset={"rows": 100, "seed": 1}, statistic="mean:0", n=5, K=5)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(M=2**32, **base)
    assert str(exc.value) == "replication count M must be < 2**32"
    assert ExperimentConfig(M=2**32 - 1, **base).M == 2**32 - 1


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
