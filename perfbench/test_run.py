"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAMED_METRICS = ["subsamples_per_s", "estimate_s_p50", "estimate_s_p90", "replications_per_s",
                 "ingest_rows_per_s", "generate_rows_per_s", "setup_s", "peak_rss_mb",
                 "ops_failed_frac"]


def invoke(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def test_workloads_match_the_harness():
    assert WORKLOAD_NAMES == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = invoke(run.ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed_units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed_units == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if trace:
        replays = [line for line in lines if "replays byte-identical to run_estimate" in line]
        done, total = replays[0].rsplit(" ", 1)[1].split("/")
        assert done == total and int(total) >= 1
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
        printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
        assert set(NAMED_METRICS) <= printed


def test_replay_is_byte_identical_to_run_estimate(tmp_path):
    path = tmp_path / "data.sjds"
    run.sj.generate_bivariate_normal(11, 5_000, run.SIGMA, path)
    handle = run.sj.open_dataset(path)
    tracer = run.Tracer()
    n, K, master = 20, 30, 123
    replayed, seconds = run.replay_estimate(tracer, -1, "r0", handle, run.sj.parse_statistic(run.STAT),
                                            n, K, master)
    direct = run.sj.run_estimate(handle, run.STAT, n, K, master, alpha=run.ALPHA, workers=1)
    assert replayed.to_json() == direct.to_json()
    names = [span[0] for span in tracer.spans]
    assert names.count("estimator.jackknife_subsample") == K
    assert names.count("estimator.aggregate") == 1
    assert all(span[4] == "r0" for span in tracer.spans)
    assert math.isclose(sum(tracer.self_times().values()), seconds, rel_tol=1e-9)


def test_output_check_flags_a_changed_output():
    recorded = run.OutputCheck({"a": run.digest(b"x")})
    assert recorded.matches("a", run.digest(b"x"))
    assert not recorded.matches("a", run.digest(b"y"))
    assert not recorded.matches("b", run.digest(b"x"))
    unrecorded = run.OutputCheck(None)
    assert unrecorded.matches("a", run.digest(b"x"))
    assert not unrecorded.matches("a", run.digest(b"y"))


def test_shipped_digests_cover_every_operation():
    digests = json.loads((HERE / "digests.json").read_text())
    assert sorted(digests) == sorted(run.WORKLOADS)
    for workload, by_seed in digests.items():
        shape = run.WORKLOADS[workload]
        expected = {
            "estimate": {f"estimate{j}" for j in range(shape.masters)},
            "simulate": {f"simulate{j}" for j in range(shape.masters)},
            "ingest": {"convert", "generate"},
        }[shape.kind]
        for seed, keys in by_seed.items():
            assert set(keys) == expected, (workload, seed)


def test_predictions_cover_every_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())
    layers = [p["layer"] for p in predictions["predictions"]]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed / attempted", "none"}
    for p in predictions["predictions"]:
        assert p["metric"] in end_to_end and p["workload"] in run.WORKLOADS, p
    assert sorted(predictions["end_to_end_names"]) == sorted(NAMED_METRICS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = invoke(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
