import csv
import io
import json
import math
import os
import tempfile

import pytest

from subjack import cli, simulate
from subjack.cli import main
from subjack.estimator import EstimateReport
from subjack.simulate import generate_bivariate_normal

PAPER_SIGMA = [[25.0, 10.0], [10.0, 5.0]]


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "d.sjds"
    generate_bivariate_normal(3, 50_000, PAPER_SIGMA, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["convert", "generate", "estimate", "simulate",
                                     "bench-sampling"])
def test_help_lists_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out


def test_help_flags_cover_spec(capsys):
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    out = capsys.readouterr().out
    for flag in ("--data", "--stat", "--n", "--k", "--seed", "--alpha", "--workers",
                 "--format", "--mode"):
        assert flag in out


def test_unknown_flag_is_usage_error(cli_dataset):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", cli_dataset, "--stat", "mean:0", "--n", "10",
              "--k", "5", "--seed", "1", "--frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--stat", "mean:0"])
    assert exc.value.code == 1


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_runtime_error_exit_code(capsys, tmp_path):
    code, _, err = _run(capsys, ["estimate", "--data", str(tmp_path / "absent.sjds"),
                                 "--stat", "mean:0", "--n", "10", "--k", "5",
                                 "--seed", "1"])
    assert code == 2
    assert "error" in err


def test_domain_error_exit_code(capsys, cli_dataset):
    code, _, err = _run(capsys, ["estimate", "--data", cli_dataset,
                                 "--stat", "corr:0,0", "--n", "10", "--k", "5",
                                 "--seed", "1"])
    assert code == 2
    assert "columns must differ" in err


def test_estimate_json_round_trips(capsys, cli_dataset):
    code, out, _ = _run(capsys, ["estimate", "--data", cli_dataset, "--stat",
                                 "corr:0,1", "--n", "50", "--k", "20", "--seed",
                                 "42", "--format", "json"])
    assert code == 0
    report = EstimateReport.from_json(out)
    assert report.to_json() + "\n" == out
    assert report.statistic_name == "corr:0,1"
    assert report.master_seed == 42


def test_estimate_workers_do_not_change_output(capsys, cli_dataset):
    args = ["estimate", "--data", cli_dataset, "--stat", "corr:0,1", "--n", "50",
            "--k", "30", "--seed", "7", "--format", "json"]
    _, out1, _ = _run(capsys, args + ["--workers", "1"])
    _, out8, _ = _run(capsys, args + ["--workers", "8"])
    assert out1 == out8


def test_estimate_table_format(capsys, cli_dataset):
    code, out, _ = _run(capsys, ["estimate", "--data", cli_dataset, "--stat",
                                 "mean:0", "--n", "20", "--k", "10", "--seed", "1"])
    assert code == 0
    assert "theta_jds" in out and "rng_id" in out


def test_estimate_mode_sos_centers_ci(capsys, cli_dataset):
    args = ["estimate", "--data", cli_dataset, "--stat", "var:0", "--n", "30",
            "--k", "15", "--seed", "3", "--format", "json"]
    _, out_jds, _ = _run(capsys, args)
    _, out_sos, _ = _run(capsys, args + ["--mode", "sos"])
    jds = EstimateReport.from_json(out_jds)
    sos = EstimateReport.from_json(out_sos)
    assert jds.ci_low <= jds.theta_jds <= jds.ci_high
    assert sos.ci_low <= sos.theta_sos <= sos.ci_high
    assert (jds.theta_sos, jds.theta_jds, jds.se) == (sos.theta_sos, sos.theta_jds, sos.se)


def test_generate_and_estimate_round_trip(capsys, tmp_path):
    out_path = str(tmp_path / "gen.sjds")
    code, out, _ = _run(capsys, ["generate", "--n-rows", "20000", "--sigma",
                                 "25,10,10,5", "--seed", "7", "--out", out_path])
    assert code == 0
    summary = json.loads(out)
    assert summary == {"path": out_path, "row_count": 20000, "col_count": 2}
    code, out, _ = _run(capsys, ["estimate", "--data", out_path, "--stat", "mean:0",
                                 "--n", "50", "--k", "10", "--seed", "2",
                                 "--format", "json"])
    assert code == 0
    report = EstimateReport.from_json(out)
    assert report.theta_sos == pytest.approx(report.theta_jds, rel=1e-12)


def test_generate_bad_sigma_exit_code(capsys, tmp_path):
    code, _, err = _run(capsys, ["generate", "--n-rows", "10", "--sigma",
                                 "1,2,2,1", "--seed", "1", "--out",
                                 str(tmp_path / "bad.sjds")])
    assert code == 2
    assert "positive definite" in err


def test_generate_negative_seed_exit_code(capsys, tmp_path):
    out_path = tmp_path / "neg.sjds"
    code, out, err = _run(capsys, ["generate", "--n-rows", "10", "--sigma", "1,0,0,1",
                                   "--seed", "-1", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert "seed must be in [0, 2**128), got -1" in err
    assert not out_path.exists()


def test_convert_cli(capsys, tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("x,y\n1,4\n2,\n3,6\n")
    out_path = str(tmp_path / "out.sjds")
    code, out, _ = _run(capsys, ["convert", "--csv", str(csv_path), "--columns",
                                 "x,y", "--transform", "none", "--out", out_path])
    assert code == 0
    assert json.loads(out)["row_count"] == 2


def test_convert_reader_error_exit_code(capsys, tmp_path):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("x,y\n1," + "z" * (csv.field_size_limit() + 1) + "\n")
    out_path = tmp_path / "out.sjds"
    code, out, err = _run(capsys, ["convert", "--csv", str(csv_path), "--columns", "x,y",
                                   "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("subjack: error: field larger than field limit")
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("alias", ["same", "relative", "hardlink", "symlink"])
def test_convert_refuses_its_input_csv_as_out(capsys, tmp_path, alias):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("x,y\n1,4\n2,5\n")
    before = csv_path.read_bytes()
    out_path = {"same": csv_path, "relative": tmp_path / "." / "in.csv",
                "hardlink": tmp_path / "hard.csv", "symlink": tmp_path / "sym.csv"}[alias]
    if alias == "hardlink":
        os.link(csv_path, out_path)
    elif alias == "symlink":
        out_path.symlink_to(csv_path)
    listing = sorted(tmp_path.iterdir())
    code, out, err = _run(capsys, ["convert", "--csv", str(csv_path), "--columns", "x,y",
                                   "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err == f"subjack: error: {csv_path}: the output path {out_path} is this CSV\n"
    assert csv_path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == listing


def _generate_pulls(monkeypatch):
    """Wrap generate's blocks so each one pulled is counted in the returned list."""
    pulls = []
    real_write_blocks = simulate.write_blocks

    def counting_write_blocks(path, col_count, blocks):
        def counted():
            for block in blocks:
                pulls.append(len(block))
                yield block

        return real_write_blocks(path, col_count, counted())

    monkeypatch.setattr(simulate, "write_blocks", counting_write_blocks)
    return pulls


@pytest.mark.parametrize("command", ["generate", "convert", "simulate"])
def test_directory_at_out_fails_before_any_work(capsys, tmp_path, monkeypatch, command):
    target = tmp_path / "target"
    target.mkdir()
    (target / "kept.txt").write_text("kept")
    runs = []
    monkeypatch.setattr(cli, "run_replications", lambda cfg, *, workers: runs.append(cfg))
    pulls = _generate_pulls(monkeypatch)
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("x,y\n1,4\n2,5\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"rows": 2000, "seed": 1},
                                    "statistic": "mean:0", "n": 20, "K": 5, "M": 2}))
    argv = {
        "generate": ["generate", "--n-rows", "1000", "--sigma", "1,0,0,1", "--seed", "1"],
        "convert": ["convert", "--csv", str(csv_path), "--columns", "x,y"],
        "simulate": ["simulate", "--config", str(cfg_path), "--workers", "1"],
    }[command]
    listing = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert err == f"subjack: error: [Errno 21] Is a directory: '{target}'\n"
    assert (out, runs, pulls) == ("", [], [])
    assert sorted(tmp_path.rglob("*")) == listing


def test_simulate_cli_out_with_the_longest_legal_name(capsys, tmp_path, cli_dataset):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": cli_dataset, "statistic": "mean:0",
                                    "n": 20, "K": 5, "M": 2}))
    detail_path = tmp_path / ("d" * 250 + ".json")
    detail_path.touch()  # the name itself is legal here
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1",
                                 "--out", str(detail_path)])
    assert code == 0
    assert len(out.splitlines()) == 2
    assert len(json.loads(detail_path.read_text())[0]["per_rep"]) == 2
    assert sorted(tmp_path.iterdir()) == [cfg_path, detail_path]


def test_estimate_zero_subsamples_exit_code(capsys, cli_dataset):
    code, out, err = _run(capsys, ["estimate", "--data", cli_dataset, "--stat", "mean:0",
                                   "--n", "10", "--k", "0", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err == "subjack: error: subsample count K must be >= 1\n"


def test_estimate_negative_master_seed_exit_code(capsys, cli_dataset):
    code, out, err = _run(capsys, ["estimate", "--data", cli_dataset, "--stat", "mean:0",
                                   "--n", "10", "--k", "5", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "subjack: error: master seed must be an integer in [0, 2**64), got -1\n"


def test_simulate_cli_smoke(capsys, tmp_path, cli_dataset):
    config = {
        "dataset": cli_dataset, "statistic": "corr:0,1", "n": 30, "K": 10,
        "M": 10, "alpha": 0.05, "master_seed": 5, "theta_true": 2 / math.sqrt(5),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    detail_path = tmp_path / "detail.json"
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                   "--out", str(detail_path), "--workers", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    ecp = float(rows[0]["ecp_jds"])
    assert abs(ecp * 10 - round(ecp * 10)) < 1e-9
    detail = json.loads(detail_path.read_text())
    assert len(detail[0]["per_rep"]) == 10
    assert "[1/1]" in err


def test_simulate_cli_config_list(capsys, tmp_path, cli_dataset):
    base = {"dataset": cli_dataset, "statistic": "mean:0", "n": 20, "K": 5,
            "M": 2, "master_seed": 1}
    cfg_path = tmp_path / "cfgs.json"
    cfg_path.write_text(json.dumps([base, {**base, "statistic": "mean:1"}]))
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--workers", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["statistic"] for r in rows] == ["mean:0", "mean:1"]


def test_simulate_cli_bad_second_spec_fails_before_running(capsys, tmp_path):
    good = {"dataset": {"rows": 2000, "seed": 1}, "statistic": "mean:0", "n": 20,
            "K": 5, "M": 2, "master_seed": 1}
    bad = {**good, "dataset": {"rows": 2000}}
    cfg_path = tmp_path / "cfgs.json"
    cfg_path.write_text(json.dumps([good, bad]))
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1"])
    assert code == 2
    assert out == ""
    assert "missing field 'seed'" in err


def test_simulate_cli_out_in_a_missing_directory_fails_before_running(capsys, tmp_path,
                                                                     monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_replications", lambda cfg, *, workers: runs.append(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"rows": 2000, "seed": 1},
                                    "statistic": "mean:0", "n": 20, "K": 5, "M": 2}))
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1",
                                   "--out", str(tmp_path / "missing" / "detail.json")])
    assert code == 2
    assert (out, runs) == ("", [])
    assert err.startswith("subjack: error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("target", ["config", "dataset", "dataset-hardlink", "config-symlink"])
def test_simulate_cli_refuses_its_inputs_as_out(capsys, tmp_path, monkeypatch, target):
    runs = []
    monkeypatch.setattr(cli, "run_replications", lambda cfg, *, workers: runs.append(cfg))
    data_path = tmp_path / "d.sjds"
    generate_bivariate_normal(1, 2000, PAPER_SIGMA, data_path)
    cfg_path = tmp_path / "cfg.json"
    base = {"statistic": "mean:0", "n": 20, "K": 5, "M": 2}
    cfg_path.write_text(json.dumps([{**base, "dataset": {"rows": 2000, "seed": 1}},
                                    {**base, "dataset": str(data_path)}]))
    out_path = {"config": cfg_path, "dataset": data_path,
                "dataset-hardlink": tmp_path / "hard.sjds",
                "config-symlink": tmp_path / "sym.json"}[target]
    if target == "dataset-hardlink":
        os.link(data_path, out_path)
    elif target == "config-symlink":
        out_path.symlink_to(cfg_path)
    source, kind = (cfg_path, "config") if target.startswith("config") else (data_path, "dataset")
    before = cfg_path.read_bytes(), data_path.read_bytes()
    listing = sorted(tmp_path.iterdir())
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1",
                                   "--out", str(out_path)])
    assert code == 2
    assert (out, runs) == ("", [])
    assert err == f"subjack: error: {source}: the output path {out_path} is this {kind}\n"
    assert (cfg_path.read_bytes(), data_path.read_bytes()) == before
    assert sorted(tmp_path.iterdir()) == listing


def test_simulate_cli_empty_config_list_fails_before_any_output(capsys, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_replications", lambda cfg, *, workers: runs.append(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    detail_path = tmp_path / "detail.json"
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                   "--out", str(detail_path)])
    assert code == 2
    assert (out, runs) == ("", [])
    assert err == "subjack: error: config list is empty\n"
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_simulate_cli_failed_out_write_leaves_an_existing_file(capsys, tmp_path, monkeypatch,
                                                               cli_dataset, error):
    def dump_then_fail(obj, fh, **kwargs):
        fh.write("[")
        raise error

    monkeypatch.setattr(json, "dump", dump_then_fail)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": cli_dataset, "statistic": "mean:0",
                                    "n": 20, "K": 5, "M": 2}))
    detail_path = tmp_path / "detail.json"
    detail_path.write_text("earlier detail")
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1",
                                 "--out", str(detail_path)])
    assert code == 2
    assert len(out.splitlines()) == 2
    assert detail_path.read_text() == "earlier detail"
    assert sorted(tmp_path.iterdir()) == [cfg_path, detail_path]


def test_simulate_cli_negative_master_seed_fails_before_running(capsys, tmp_path):
    config = {"dataset": {"rows": 2000, "seed": 1}, "statistic": "mean:0", "n": 20,
              "K": 5, "M": 2, "master_seed": -1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1"])
    assert code == 2
    assert out == ""
    assert err == "subjack: error: master seed must be an integer in [0, 2**64), got -1\n"


def test_simulate_cli_bad_config(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2


def test_bench_cli_smoke(capsys):
    code, out, _ = _run(capsys, ["bench-sampling", "--rows", "20000", "--n", "50",
                                 "--k", "5,10", "--seed", "3", "--repeats", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    modes = {r["mode"] for r in rows}
    assert modes == {"with_replacement", "without_replacement"}
    for row in rows:
        assert float(row["seconds"]) >= 0


def test_estimate_bad_alpha_fails_before_any_draw(capsys, monkeypatch, cli_dataset):
    from subjack import pipeline

    draws = []
    real_draw_chunk = pipeline.draw_chunk
    monkeypatch.setattr(pipeline, "draw_chunk",
                        lambda *args: draws.append(args) or real_draw_chunk(*args))
    code, out, err = _run(capsys, ["estimate", "--data", cli_dataset, "--stat", "mean:0",
                                   "--n", "50", "--k", "5000", "--seed", "1",
                                   "--alpha", "2"])
    assert code == 2
    assert out == ""
    assert err == "subjack: error: alpha must lie in (0, 1), got 2.0\n"
    assert draws == []


_GOOD_CONFIG = {"dataset": {"rows": 2000, "seed": 1}, "statistic": "mean:0", "n": 20,
                "K": 5, "M": 2, "master_seed": 1}


@pytest.mark.parametrize("bad,message", [
    pytest.param({**_GOOD_CONFIG, "n": 20.5},
                 "subsample size n must be an integer, got 20.5", id="n-fraction"),
    pytest.param({**_GOOD_CONFIG, "M": 2.5},
                 "replication count M must be an integer, got 2.5", id="M-fraction"),
    pytest.param({**_GOOD_CONFIG, "dataset": {"rows": 2000, "seed": 1,
                                              "sigma": [[1, 2], [2, 1]]}},
                 "sigma must be positive definite", id="sigma-not-positive-definite"),
    pytest.param({**_GOOD_CONFIG, "dataset": "missing.sjds", "statistic": "corr:0,4"},
                 "cannot open dataset: [Errno 2] No such file or directory: 'missing.sjds'",
                 id="missing-path"),
    pytest.param({**_GOOD_CONFIG, "dataset": "two-columns.sjds", "statistic": "corr:0,4"},
                 "statistic 'corr:0,4' needs column 4, dataset has 2", id="too-few-columns"),
    pytest.param({**_GOOD_CONFIG, "alpha": "0.1"},
                 "alpha must be a number, got '0.1'", id="alpha-string"),
    pytest.param({**_GOOD_CONFIG, "theta_true": "x"},
                 "theta_true must be a number or null, got 'x'", id="theta-true-string"),
    pytest.param({**_GOOD_CONFIG, "statistic": 5},
                 "statistic spec must be a string, got 5", id="statistic-int"),
    pytest.param({**_GOOD_CONFIG, "dataset": 5},
                 "dataset must be a path or a generator spec object, got 5", id="dataset-int"),
    pytest.param(5, "config entry must be a JSON object, got 5", id="entry-not-object"),
    pytest.param({k: v for k, v in _GOOD_CONFIG.items() if k != "K"},
                 "config is missing fields: ['K']", id="missing-field"),
])
def test_simulate_bad_second_config_fails_before_any_work(capsys, monkeypatch, tmp_path,
                                                          bad, message):
    from subjack import simulate

    monkeypatch.chdir(tmp_path)
    generate_bivariate_normal(1, 100, PAPER_SIGMA, "two-columns.sjds")
    temp_dir = tmp_path / "temp"
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    generated = []
    monkeypatch.setattr(simulate, "generate_bivariate_normal",
                        lambda *args: generated.append(args))
    (tmp_path / "cfgs.json").write_text(json.dumps([_GOOD_CONFIG, bad]))
    code, out, err = _run(capsys, ["simulate", "--config", "cfgs.json", "--out", "detail.json",
                                   "--workers", "1"])
    assert code == 2
    assert out == ""
    assert err == f"subjack: error: {message}\n"
    assert generated == []
    assert list(temp_dir.iterdir()) == []
    assert not (tmp_path / "detail.json").exists()


def test_simulate_integer_valued_float_counts_run_as_ints(capsys, tmp_path):
    outputs = []
    for counts in ({"n": 20, "K": 5, "M": 2}, {"n": 20.0, "K": 5.0, "M": 2.0}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**_GOOD_CONFIG, **counts}))
        code, out, _ = _run(capsys, ["simulate", "--config", str(cfg_path), "--workers", "1"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    row = next(csv.DictReader(io.StringIO(outputs[1])))
    assert (row["n"], row["K"], row["M"]) == ("20", "5", "2")
