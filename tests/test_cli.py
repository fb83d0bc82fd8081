import csv
import io
import json
import math

import pytest

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
