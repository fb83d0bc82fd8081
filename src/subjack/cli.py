"""Command-line interface.

Results go to stdout (JSON, CSV, or an aligned table); progress and
diagnostics go to stderr. Exit codes: 0 success, 1 usage error, 2 runtime or
domain error. SIGTERM takes SIGINT's path: the command unwinds, each of
simulate's workers finishes at most the replication it holds and takes no
other, and it exits 2 with one error line. Every file a command writes
(convert's and generate's dataset, simulate's --out) is built under a temp
name beside its path and renamed onto it when complete (store.replacing): a
path in a missing directory, a directory at the path, or an input at --out
(convert's CSV, simulate's config or a dataset path it names, by any link)
fails before the command's main work, and an error or an interrupt leaves an
existing file as it was.

simulate starts its process pool on the first config that runs pooled and
reuses it for every later config with the same process count; its workers
map a dataset only while a config runs. An error or an interrupt shuts the
pool down, and so does the interpreter's exit, so no worker outlives the
command; a single-config command still pays one pool start.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
from contextlib import nullcontext

import numpy as np

from .bench import BENCH_CSV_COLUMNS, bench_sampling
from .estimator import DomainEvalError
from .pipeline import run_estimate
from .simulate import (
    METRICS_CSV_COLUMNS,
    ExperimentConfig,
    generate_bivariate_normal,
    run_replications,
)
from .store import StoreError, convert_csv, refuse_as_output, replacing


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _sigma_matrix(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--sigma needs 4 comma-separated values")
    return np.array(parts).reshape(2, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subjack", description="Subsampled jackknife estimation")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("convert", help="ingest CSV columns into a dataset file")
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--columns", required=True, help="comma-separated column names")
    p.add_argument("--transform", choices=["none", "signed_log"], default="none")
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("generate", help="write a synthetic bivariate normal dataset")
    p.add_argument("--n-rows", type=int, required=True)
    p.add_argument("--sigma", type=_sigma_matrix, required=True,
                   help="covariance, row-major: s11,s12,s21,s22")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="estimate a statistic from subsamples")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--stat", required=True, help="statistic spec, e.g. corr:0,1")
    p.add_argument("--n", type=int, required=True, help="subsample size")
    p.add_argument("--k", type=int, required=True, help="number of subsamples")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--workers", type=int, default=0,
                   help="accepted, changes nothing: estimate runs single-threaded")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--mode", choices=["jds", "sos"], default="jds",
                   help="which point estimate centers the confidence interval")

    p = sub.add_parser("simulate", help="run Monte Carlo replications from a config file")
    p.add_argument("--config", required=True, help="JSON config (object or list)")
    p.add_argument("--out", help="write full per-replication detail as JSON here")
    p.add_argument("--workers", type=int, default=0, help="0 = auto")

    p = sub.add_parser("bench-sampling", help="time both sampling modes on a grid")
    p.add_argument("--rows", type=int, required=True, help="dataset row count, --data's if given")
    p.add_argument("--n", type=_int_list, required=True, help="subsample sizes, comma-separated")
    p.add_argument("--k", type=_int_list, required=True, help="subsample counts, comma-separated")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--data", help="reuse an existing dataset instead of generating")

    return parser


def _cmd_convert(args) -> int:
    header = convert_csv(args.csv, args.columns.split(","), args.transform, args.out)
    print(json.dumps({"path": args.out, "row_count": header.row_count,
                      "col_count": header.col_count}))
    return 0


def _cmd_generate(args) -> int:
    header = generate_bivariate_normal(args.seed, args.n_rows, args.sigma, args.out)
    print(json.dumps({"path": args.out, "row_count": header.row_count,
                      "col_count": header.col_count}))
    return 0


def _cmd_estimate(args) -> int:
    report = run_estimate(
        args.data, args.stat, args.n, args.k, args.seed,
        alpha=args.alpha, ci_center=args.mode,
    )
    print(report.to_json() if args.format == "json" else report.to_table())
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
        config_stat = os.fstat(fh.fileno())
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ValueError("config list is empty")
    configs = [ExperimentConfig.from_dict(entry) for entry in entries]
    if args.out:
        refuse_as_output(args.config, config_stat, args.out, "config")
        for cfg in configs:
            if cfg._spec is None:
                refuse_as_output(cfg.dataset, os.stat(cfg.dataset), args.out, "dataset")

    # the detail file is opened before the first config runs, so a bad --out fails first
    with replacing(args.out, "t") if args.out else nullcontext() as detail_file:
        writer = csv.DictWriter(sys.stdout, fieldnames=METRICS_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        details = []
        for i, cfg in enumerate(configs, start=1):
            print(f"[{i}/{len(configs)}] {cfg.statistic} n={cfg.n} K={cfg.K} M={cfg.M}",
                  file=sys.stderr, flush=True)
            metrics = run_replications(cfg, workers=args.workers)
            writer.writerow(metrics.csv_row())
            sys.stdout.flush()
            details.append(metrics.json_detail())
        if detail_file is not None:
            json.dump(details, detail_file, indent=2)
    if args.out:
        print(f"wrote per-replication detail to {args.out}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    grid = [(n, k) for n in args.n for k in args.k]
    print(f"benchmarking {len(grid)} grid points x 2 modes on {args.rows} rows",
          file=sys.stderr, flush=True)
    results = bench_sampling(args.rows, grid, args.seed,
                             repeats=args.repeats, data_path=args.data)
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for result in results:
        writer.writerow(result.csv_row())
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "bench-sampling": _cmd_bench,
}


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("subjack: error: interrupted", file=sys.stderr)
        return 2
    except (StoreError, DomainEvalError, ValueError, IndexError, OSError, csv.Error) as exc:
        print(f"subjack: error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
