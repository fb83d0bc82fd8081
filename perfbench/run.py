#!/usr/bin/env python3
"""Benchmark for subjack: four seeded workloads, driven in-process.

    python3 perfbench/run.py --workload est-small-n --seed 1 --seconds 15 --trace 0

Loads the package from ``src/`` of the checkout this file sits in, generates
the workload's inputs from ``--seed``, sets up ``SETUP_REPEATS`` times (the
median is ``setup_s``), then runs one client in a closed loop for
``--seconds`` and checks every output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with no
tracing; latency and throughput are in reference units (see reference_s). ``--trace 1`` runs rounds of layer probes instead: it replays the
estimate chain through the public functions of each module with a span
around every call, asserts that the replay's report is byte-identical to
``run_estimate``'s, and reports the per-layer metrics. Spans stay in memory
and are written to ``.bench_work/spans/`` at the end.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the benchmark writes lives under ``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
try:
    import subjack as sj
    from subjack.simulate import METRICS_CSV_COLUMNS
except ImportError:
    sj = None

STAT = "corr:0,1"
SIGMA = ((25.0, 10.0), (10.0, 5.0))
THETA_TRUE = 10.0 / math.sqrt(125.0)
ALPHA = 0.05
SETUP_REPEATS = 5
CSV_HEADER = ("distance", "dep_delay", "arr_delay")
CSV_SELECT = ["distance", "arr_delay"]
CSV_MISSING = 0.02
CSV_CHUNK = 1 << 16
TRANSFORM = "signed_log"
# SeedSequence tags, so each input has its own stream under one --seed.
TAG_DATA, TAG_MASTER, TAG_CSV, TAG_GENERATE, TAG_WARM = range(5)


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload.

    ``workers`` is the argument of the workload's own operation: run_estimate
    on est-*, run_replications elsewhere. Operations cycle through ``masters``
    distinct master seeds. ``M`` and ``csv_rows`` size the replication and
    ingestion probes of traced runs on workloads that do not exercise those
    layers themselves.
    """

    kind: str  # "estimate", "simulate" or "ingest"
    rows: int  # rows of the generated dataset (rows generated per op on ingest)
    n: int
    K: int
    workers: int
    masters: int = 8
    M: int = 8
    csv_rows: int = 50_000


WORKLOADS = {
    "est-small-n": Shape("estimate", rows=10**6, n=50, K=1000, workers=0),
    # 64 masters x 100k scattered rows touch ~400 MB of cache lines before a
    # master repeats, so a repeat does not find its rows in the LLC
    "est-large-file": Shape("estimate", rows=3 * 10**7, n=500, K=200, workers=1, masters=64),
    "simulate-mc": Shape("simulate", rows=10**6, n=50, K=200, workers=0, masters=4, M=60),
    "ingest-csv": Shape("ingest", rows=2 * 10**6, n=50, K=200, workers=0, csv_rows=500_000),
}

# Smoke-test sizes: every code path of the full sizes, in a second or two.
TINY = {
    "est-small-n": dict(rows=20_000, K=40),
    "est-large-file": dict(rows=50_000, n=100, K=20),
    "simulate-mc": dict(rows=20_000, K=20),
    "ingest-csv": dict(rows=20_000, K=20),
}


def shape_for(workload: str, scale: str) -> Shape:
    shape = WORKLOADS[workload]
    if scale == "tiny":
        shape = replace(shape, M=4, csv_rows=3_000, **TINY[workload])
    return shape


def derive(seed: int, tag: int, count: int = 1) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count, np.uint64)
    return [int(x) for x in state]


# ---------------------------------------------------------------- inputs


def write_csv(path: Path, rows: int, seed: int) -> int:
    """Write a seeded flights-like CSV; return how many rows convert_csv keeps.

    About CSV_MISSING of the cells in every column are empty. Only empties in
    the selected columns drop a row; those in dep_delay must not.
    """
    rng = np.random.Generator(np.random.Philox(key=derive(seed, TAG_CSV)[0]))
    distance = np.rint(np.exp(rng.normal(6.5, 0.8, rows)))
    dep_delay = np.rint(rng.normal(5.0, 30.0, rows))
    arr_delay = np.rint(rng.normal(3.0, 35.0, rows))
    missing = rng.random((3, rows)) < CSV_MISSING
    columns = np.stack([distance, dep_delay, arr_delay]).astype(np.int64)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for lo in range(0, rows, CSV_CHUNK):
            cells = [list(map(str, col[lo : lo + CSV_CHUNK].tolist())) for col in columns]
            for col, miss in zip(cells, missing[:, lo : lo + CSV_CHUNK]):
                for i in np.flatnonzero(miss).tolist():
                    col[i] = ""
            fh.writelines(f"{a},{b},{c}\n" for a, b, c in zip(*cells))
    keep = ~(missing[CSV_HEADER.index(CSV_SELECT[0])] | missing[CSV_HEADER.index(CSV_SELECT[1])])
    return int(np.count_nonzero(keep))


# ---------------------------------------------------------------- checks


class OutputCheck:
    """Compares output bytes with sha256 digests.

    For a seed with recorded digests every output must match its record. For
    any other seed the first output under a key becomes the reference that
    every later output under that key must match.
    """

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.seen: dict[str, str] = {}

    def matches(self, key: str, digest: str) -> bool:
        reference = self.seen.setdefault(key, digest)
        if self.recorded is not None:
            reference = self.recorded.get(key)
        return digest == reference


# Digests are the first 64 bits of sha256, in hex: enough to catch a changed
# byte, and short enough to record every output of every shipped seed.
def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()[:16]


def recorded_digests(workload: str, seed: int, scale: str) -> dict[str, str] | None:
    path = HERE / "digests.json"
    if scale != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def report_ok(report, shape: Shape, n_rows: int) -> bool:
    values = (report.theta_sos, report.theta_jds, report.se, report.ci_low, report.ci_high)
    return (
        all(math.isfinite(v) for v in values)
        and report.se >= 0
        and report.ci_low <= report.theta_jds <= report.ci_high
        and (report.n, report.K, report.N) == (shape.n, shape.K, n_rows)
    )


def metrics_ok(metrics) -> bool:
    values = (metrics.bias_sos, metrics.bias_jds, metrics.se_sos, metrics.se_jds,
              metrics.rae_median_sos, metrics.rae_median_jds)
    return (
        all(math.isfinite(v) for v in values)
        and 0.0 <= metrics.ecp_sos <= 1.0
        and 0.0 <= metrics.ecp_jds <= 1.0
        and len(metrics.per_rep) == metrics.config.M
    )


def metrics_csv_bytes(metrics) -> bytes:
    """The metrics CSV row as ``subjack simulate`` prints it for dataset
    ``data.sjds``; the label is fixed so the digest does not hold a path."""
    row = dict(metrics.csv_row(), dataset="data.sjds")
    out = io.StringIO()
    csv.DictWriter(out, fieldnames=METRICS_CSV_COLUMNS, lineterminator="\n").writerow(row)
    return out.getvalue().encode()


# ---------------------------------------------------------------- set-up


@dataclass
class Bench:
    """A set-up workload: its inputs on disk and its open dataset."""

    name: str
    shape: Shape
    seed: int
    workdir: Path
    data_path: Path
    handle: object
    generate_s: list[float]
    check: OutputCheck
    masters: list[int]
    csv_path: Path | None = None
    csv_kept: int = 0

    def master(self, j: int) -> tuple[int, int]:
        """Operation j's place in the master-seed cycle, and its master seed."""
        j %= len(self.masters)
        return j, self.masters[j]

    def estimate_ok(self, j: int, report) -> bool:
        """Check a report of the workload's own shape at master(j)."""
        ok = report_ok(report, self.shape, self.handle.row_count)
        if self.shape.kind == "estimate":
            ok = self.check.matches(f"estimate{j}", digest(report.to_json().encode())) and ok
        return ok

    def config(self, master_seed: int):
        return sj.ExperimentConfig(
            dataset=str(self.data_path), statistic=STAT, n=self.shape.n, K=self.shape.K,
            M=self.shape.M, alpha=ALPHA, master_seed=master_seed, theta_true=THETA_TRUE,
        )


def set_up_once(bench: Bench, repeat: int) -> None:
    """Generate the dataset, open it and warm every path the loop will use."""
    shape, seed = bench.shape, bench.seed
    previous = bench.data_path
    bench.handle = None
    bench.data_path = bench.workdir / f"data-{repeat}.sjds"
    start = time.perf_counter()
    sj.generate_bivariate_normal(derive(seed, TAG_DATA)[0], shape.rows, SIGMA, bench.data_path)
    bench.generate_s.append(time.perf_counter() - start)
    if previous.exists():
        previous.unlink()
    bench.handle = sj.open_dataset(bench.data_path)
    warm = derive(seed, TAG_WARM)[0]
    if shape.kind == "estimate":
        sj.run_estimate(bench.handle, STAT, shape.n, shape.K, warm, alpha=ALPHA, workers=shape.workers)
    elif shape.kind == "simulate":
        sj.run_replications(replace(bench.config(warm), M=2), workers=shape.workers)
    else:
        bench.csv_path = bench.workdir / "input.csv"
        bench.csv_kept = write_csv(bench.csv_path, shape.csv_rows, seed)
        warm_csv = bench.workdir / "warm.csv"
        write_csv(warm_csv, 100, warm)
        sj.convert_csv(warm_csv, CSV_SELECT, TRANSFORM, bench.workdir / "warm.sjds")
        sj.generate_bivariate_normal(warm, 1000, SIGMA, bench.workdir / "warm.sjds")


def set_up(name: str, shape: Shape, seed: int, workdir: Path, check: OutputCheck,
           repeats: int = SETUP_REPEATS) -> tuple[Bench, list[float]]:
    workdir.mkdir(parents=True)
    bench = Bench(name, shape, seed, workdir, workdir / "none", None, [], check,
                  derive(seed, TAG_MASTER, shape.masters))
    times = []
    for repeat in range(repeats):
        start = time.perf_counter()
        set_up_once(bench, repeat)
        times.append(time.perf_counter() - start)
    return bench, times


# ---------------------------------------------------------------- end-to-end operations


@dataclass
class OpResult:
    seconds: float
    work: int
    ok: bool
    parts: dict[str, float]


def op_estimate(bench: Bench, i: int) -> OpResult:
    shape = bench.shape
    j, master = bench.master(i)
    start = time.perf_counter()
    report = sj.run_estimate(bench.handle, STAT, shape.n, shape.K, master, alpha=ALPHA,
                             workers=shape.workers)
    elapsed = time.perf_counter() - start
    return OpResult(elapsed, shape.K, bench.estimate_ok(j, report), {})


def op_simulate(bench: Bench, i: int) -> OpResult:
    shape = bench.shape
    j, master = bench.master(i)
    start = time.perf_counter()
    metrics = sj.run_replications(bench.config(master), workers=shape.workers)
    elapsed = time.perf_counter() - start
    ok = bench.check.matches(f"simulate{j}", digest(metrics_csv_bytes(metrics))) and metrics_ok(metrics)
    return OpResult(elapsed, shape.M * shape.K, ok, {"replications": shape.M})


def op_ingest(bench: Bench, i: int) -> OpResult:
    """convert_csv, then generate_bivariate_normal; the order alternates."""
    shape, work = bench.shape, bench.workdir
    converted, generated = work / "converted.sjds", work / "generated.sjds"
    parts, headers = {}, {}

    def convert():
        headers["convert"] = sj.convert_csv(bench.csv_path, CSV_SELECT, TRANSFORM, converted)

    def generate():
        headers["generate"] = sj.generate_bivariate_normal(
            derive(bench.seed, TAG_GENERATE)[0], shape.rows, SIGMA, generated)

    steps = [("convert", convert), ("generate", generate)]
    for key, step in steps if i % 2 == 0 else steps[::-1]:
        start = time.perf_counter()
        step()
        parts[key] = time.perf_counter() - start
    ok = (headers["convert"].row_count == bench.csv_kept
          and sj.open_dataset(converted).row_count == bench.csv_kept
          and headers["generate"].row_count == shape.rows
          and bench.check.matches("convert", file_digest(converted))
          and bench.check.matches("generate", file_digest(generated)))
    return OpResult(parts["convert"] + parts["generate"], bench.csv_kept + shape.rows, ok,
                    {"convert_s": parts["convert"], "generate_s": parts["generate"]})


OPERATIONS = {"estimate": op_estimate, "simulate": op_simulate, "ingest": op_ingest}


def guarded(label: str, fn, *args):
    """Run one operation; an exception is reported on stderr and counts as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the loop must go on and count it
        print(f"perfbench: {label} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return exc


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reference_s() -> float:
    """Wall time of a fixed interpreter-and-numpy loop: one reference unit.

    Shared hosts change speed by up to 2x for seconds at a time. The loop runs
    before and after every operation, and the operation's wall time is also
    reported in units of the loop's, which cancels those phases.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i
    for k in range(200):
        np.random.Philox(key=k).random_raw(64).astype(np.float64).mean()
    return time.perf_counter() - start


def end_to_end(bench: Bench, seconds: float,
               setup_times: list[float]) -> tuple[dict, int, int, list[str]]:
    op = OPERATIONS[bench.shape.kind]
    results, failed = [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    refs = [reference_s()]
    ratios = []
    while i == 0 or time.perf_counter() < deadline:
        result = guarded(f"{bench.name} operation {i}", op, bench, i)
        refs.append(reference_s())
        if isinstance(result, Exception) or not result.ok:
            failed += 1
        else:
            results.append(result)
            ratios.append(result.seconds / (0.5 * (refs[-2] + refs[-1])))
        i += 1
    attempted = i
    if not results:
        return {}, attempted, failed, []
    latencies = [r.seconds for r in results]
    busy = math.fsum(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_ref_p50": statistics.median(ratios),
        "op_ref_p90": float(np.percentile(ratios, 90)),
        "work_per_ref": sum(r.work for r in results) / math.fsum(ratios),
        "peak_rss_mb": peak_rss_mib(),
    }
    raw = {
        "op_s_p50": statistics.median(latencies),
        "op_s_p90": float(np.percentile(latencies, 90)),
        "work_per_s": sum(r.work for r in results) / busy,
    }
    lines = named_metric_lines(bench, dict(values, **raw), results, busy, failed / attempted)
    lines += [f"  {name:<20} {value:.6g} {unit}" for name, value, unit in (
        ("op_s_p50", raw["op_s_p50"], "s"), ("op_s_p90", raw["op_s_p90"], "s"),
        ("work_per_s", raw["work_per_s"], "1/s"),
        ("reference_s", statistics.median(refs), "s"))]
    beyond = len(results) - math.ceil(0.9 * len(results))
    lines.append(f"  {len(results)} operations timed; {beyond} beyond p90")
    return values, attempted, failed, lines


def named_metric_lines(bench: Bench, values: dict, results: list[OpResult], busy: float,
                       failed_frac: float) -> list[str]:
    """The end-to-end numbers under the per-workload names that
    predictions.json maps to metrics; '-' where a name does not apply."""
    kind = bench.shape.kind
    named = dict.fromkeys(
        ["subsamples_per_s", "estimate_s_p50", "estimate_s_p90", "replications_per_s",
         "ingest_rows_per_s", "generate_rows_per_s"])
    if kind in ("estimate", "simulate"):
        named["subsamples_per_s"] = values["work_per_s"]
    if kind == "estimate":
        named["estimate_s_p50"] = values["op_s_p50"]
        named["estimate_s_p90"] = values["op_s_p90"]
    if kind == "simulate":
        named["replications_per_s"] = sum(r.parts["replications"] for r in results) / busy
    if kind == "ingest":
        convert_s = math.fsum(r.parts["convert_s"] for r in results)
        generate_s = math.fsum(r.parts["generate_s"] for r in results)
        named["ingest_rows_per_s"] = bench.csv_kept * len(results) / convert_s
        named["generate_rows_per_s"] = bench.shape.rows * len(results) / generate_s
    named.update(setup_s=values["setup_s"], peak_rss_mb=values["peak_rss_mb"],
                 ops_failed_frac=failed_frac)
    units = {"estimate_s_p50": "s", "estimate_s_p90": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "ops_failed_frac": "1"}
    return [f"  {k:<20} {'-' if v is None else f'{v:.6g}'} {units.get(k, '1/s')}"
            for k, v in named.items()]


# ---------------------------------------------------------------- traced run


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list = []

    def begin(self, name: str, rid: str, parent: int = -1) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, rid])
        return len(self.spans) - 1

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return dict(totals)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


CHAIN = ("sampling.subsample_seed", "sampling.draw_with_replacement", "store.read_records",
         "stats.phi", "estimator.jackknife_subsample")


def replay_estimate(tracer: Tracer, parent: int, rid: str, handle, stat, n: int, K: int,
                    master_seed: int):
    """run_estimate's chain at workers=1, one public call at a time, with spans."""
    root = tracer.begin("replay.run_estimate", rid, parent)
    spans, clock = tracer.spans, time.perf_counter
    seed_name, draw_name, read_name, phi_name, jack_name = CHAIN
    n_rows = handle.row_count
    results = []
    for k in range(1, K + 1):
        t0 = clock()
        seed = sj.subsample_seed(master_seed, k)
        t1 = clock()
        indices = sj.draw_with_replacement(seed, n_rows, n)
        t2 = clock()
        rows = handle.read_records(indices).rows
        t3 = clock()
        features = stat.phi(rows)
        t4 = clock()
        results.append(sj.jackknife_subsample(stat, features, k=k))
        t5 = clock()
        spans += ([seed_name, t0, t1, root, rid], [draw_name, t1, t2, root, rid],
                  [read_name, t2, t3, root, rid], [phi_name, t3, t4, root, rid],
                  [jack_name, t4, t5, root, rid])
    agg = tracer.begin("estimator.aggregate", rid, root)
    report = sj.aggregate(results, n_rows, alpha=ALPHA, master_seed=master_seed,
                          statistic_name=stat.name, rng_id=sj.RNG_ID)
    tracer.end(agg)
    return report, tracer.end(root)


def timed_span(tracer: Tracer, name: str, rid: str, parent: int, fn, *args, **kwargs):
    index = tracer.begin(name, rid, parent)
    value = fn(*args, **kwargs)
    return value, tracer.end(index)


def workers_used(workers: int) -> int:
    """Pool size for workers=0, as subjack resolves it."""
    return workers if workers > 0 else min(os.cpu_count() or 1, 8)


def io_written() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


class Probes:
    """One round of layer probes; each returns True when its outputs check."""

    def __init__(self, bench: Bench, tracer: Tracer):
        self.bench, self.tracer = bench, tracer
        self.stat = sj.parse_statistic(STAT)
        self.acc: dict[str, list[float]] = defaultdict(list)
        self.domain_failures = 0
        self.replayed_k = 0

    def chain(self, i: int, rid: str, root: int) -> bool:
        """A traced replay, and untraced run_estimate at workers=1 and at 0.

        Each of the three gathers rows at its own master seed, which no other
        call of the round touches, so est-large-file's reads stay cold. The
        replay is compared with an untraced run_estimate at its seed that runs
        right after it, out of the timing.
        """
        b, shape, tr = self.bench, self.bench.shape, self.tracer

        def estimate(j: int, workers: int, name: str):
            j, master = b.master(j)
            report, seconds = timed_span(tr, name, rid, root, sj.run_estimate, b.handle, STAT,
                                         shape.n, shape.K, master, alpha=ALPHA, workers=workers)
            return report, seconds, b.estimate_ok(j, report)

        def replay():
            _, master = b.master(3 * i)
            replayed, seconds = replay_estimate(tr, root, rid, b.handle, self.stat, shape.n,
                                                shape.K, master)
            self.replayed_k += shape.K
            self.acc["replay_s"].append(seconds)
            report, _, ok = estimate(3 * i, 1, "run_estimate.check")
            identical = report.to_json() == replayed.to_json()
            self.acc["replay_identical"].append(float(identical))
            return ok and identical

        def untraced(offset: int, workers: int):
            _, seconds, ok = estimate(3 * i + offset, workers, f"run_estimate.workers{workers}")
            self.acc[f"workers{workers}_s"].append(seconds)
            return ok

        steps = [replay, lambda: untraced(1, 1), lambda: untraced(2, 0)]
        first = i % len(steps)
        return all([step() for step in steps[first:] + steps[:first]])

    def replicate(self, i: int, rid: str, root: int) -> bool:
        """run_replications with its pool, and a few replications run serially."""
        b, shape, tr = self.bench, self.bench.shape, self.tracer
        j, master = b.master(i)
        cfg = b.config(master)
        metrics, wall = timed_span(tr, "simulate.run_replications", rid, root, sj.run_replications, cfg,
                                   workers=shape.workers if shape.kind == "simulate" else 0)
        ok = metrics_ok(metrics)
        if shape.kind == "simulate":
            ok = b.check.matches(f"simulate{j}", digest(metrics_csv_bytes(metrics))) and ok
        serial = []
        for m in (1, 2, 3):
            report, seconds = timed_span(
                tr, "simulate.replication", rid, root, sj.run_estimate, b.handle, STAT, shape.n,
                shape.K, sj.replication_seed(cfg.master_seed, m), alpha=ALPHA, workers=1)
            rep = metrics.per_rep[m - 1]
            same = (rep.theta_sos, rep.theta_jds, rep.se) == (report.theta_sos, report.theta_jds,
                                                              report.se)
            ok = ok and same
            serial.append(seconds)
        replication_s = statistics.median(serial)
        self.acc["replication_s"].append(replication_s)
        workers = workers_used(shape.workers if shape.kind == "simulate" else 0)
        self.acc["pool_efficiency"].append(cfg.M * replication_s / (workers * wall))
        return ok

    def ingest(self, i: int, rid: str, root: int) -> bool:
        """convert_csv, then write_matrix of the same rows (write only)."""
        b, tr = self.bench, self.tracer
        converted, rewritten = b.workdir / "probe-converted.sjds", b.workdir / "probe-rewritten.sjds"
        written = io_written()
        header, convert_s = timed_span(tr, "store.convert_csv", rid, root, sj.convert_csv, b.csv_path,
                                       CSV_SELECT, TRANSFORM, converted)
        written = io_written() - written
        rows = sj.open_dataset(converted).read_records(np.arange(header.row_count)).rows
        _, write_s = timed_span(tr, "store.write_matrix", rid, root, sj.write_matrix, rows, rewritten)
        self.acc["convert_s"].append(convert_s)
        self.acc["write_matrix_s"].append(write_s)
        self.acc["bytes_per_user_byte"].append(written / rows.nbytes)
        converted_digest = file_digest(converted)
        ok = header.row_count == b.csv_kept and converted_digest == file_digest(rewritten)
        if b.shape.kind == "ingest":
            ok = b.check.matches("convert", converted_digest) and ok
        return ok

    def open(self, i: int, rid: str, root: int) -> bool:
        b = self.bench
        for _ in range(5):
            handle, seconds = timed_span(self.tracer, "store.open_dataset", rid, root, sj.open_dataset,
                                         b.data_path)
            self.acc["open_s"].append(seconds)
        return handle.row_count == b.shape.rows

    def run(self, name: str, i: int) -> bool:
        rid = f"{name}{i}"
        root = self.tracer.begin(f"probe.{name}", rid)
        try:
            return getattr(self, name)(i, rid, root)
        except sj.DomainEvalError:
            self.domain_failures += 1
            raise
        finally:
            self.tracer.end(root)


PROBES = ("chain", "replicate", "ingest", "open")


def traced(bench: Bench, seconds: float) -> tuple[dict, int, int, Tracer, list[str]]:
    tracer = Tracer()
    probes = Probes(bench, tracer)
    if bench.csv_path is None:
        bench.csv_path = bench.workdir / "probe.csv"
        bench.csv_kept = write_csv(bench.csv_path, bench.shape.csv_rows, bench.seed)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    # each round runs every probe; the order rotates so drift spreads evenly
    while rnd == 0 or time.perf_counter() < deadline:
        for j in range(len(PROBES)):
            name = PROBES[(rnd + j) % len(PROBES)]
            ok = guarded(f"probe {name} {rnd}", probes.run, name, rnd)
            attempted += 1
            failed += ok is not True
        rnd += 1
    values, lines = layer_metrics(bench, probes, tracer)
    return values, attempted, failed, tracer, lines


def layer_metrics(bench: Bench, probes: Probes, tracer: Tracer) -> tuple[dict, list[str]]:
    shape, acc = bench.shape, probes.acc
    self_s = tracer.self_times()
    ks = probes.replayed_k
    replays = len(acc["replay_s"])
    per_k = {name: self_s[name] / ks * 1e6 for name in CHAIN}
    aggregate_us = self_s["estimator.aggregate"] / replays * 1e6
    mask = (1 << (shape.rows - 1).bit_length()) - 1
    med = {key: statistics.median(vals) for key, vals in acc.items()}
    # Share of the replay's wall time spent inside the replayed calls. Applied
    # to untraced workers=1 time it gives the layers' untraced cost, so span
    # overhead and drift between the calls cannot make the rest negative.
    layer_s = sum(self_s[name] for name in CHAIN) + self_s["estimator.aggregate"]
    layer_share = layer_s / math.fsum(acc["replay_s"])
    # run_estimate gets the workload's workers on est-*; simulate and ingest
    # run it (or each replication) with workers=1
    est_s = med["workers0_s"] if shape.kind == "estimate" and shape.workers == 0 else med["workers1_s"]
    values = {
        "sampling.seed_us_per_k": per_k["sampling.subsample_seed"],
        "sampling.draw_us_per_k": per_k["sampling.draw_with_replacement"],
        "sampling.accept_ratio": shape.rows / (mask + 1),
        "store.read_us_per_k": per_k["store.read_records"],
        "store.gather_mb_per_s":
            shape.n * bench.handle.col_count * 8 * ks / self_s["store.read_records"] / 1e6,
        "store.rows_read": shape.n * ks,
        "store.open_s": med["open_s"],
        "store.convert_s": med["convert_s"],
        "store.write_matrix_s": med["write_matrix_s"],
        "store.parse_share": 1.0 - med["write_matrix_s"] / med["convert_s"],
        "store.bytes_per_user_byte": med["bytes_per_user_byte"],
        "stats.phi_us_per_k": per_k["stats.phi"],
        "stats.feature_mb": shape.n * probes.stat.q * 8 * shape.K / 1e6,
        "estimator.jackknife_us_per_k": per_k["estimator.jackknife_subsample"],
        "estimator.aggregate_us": aggregate_us,
        "estimator.domain_failures": probes.domain_failures,
        "pipeline.self_us_per_k": (est_s - med["workers1_s"] * layer_share) / shape.K * 1e6,
        "pipeline.workers_speedup": med["workers1_s"] / med["workers0_s"],
        "simulate.replication_s": med["replication_s"],
        "simulate.pool_efficiency": med["pool_efficiency"],
        "simulate.generate_s": statistics.median(bench.generate_s),
        "trace.overhead_ratio": med["replay_s"] / med["workers1_s"],
    }
    lines = [f"  self time {name:<32} {seconds:.6f} s" for name, seconds in
             sorted(self_s.items(), key=lambda item: -item[1])]
    lines.append(f"  replays byte-identical to run_estimate: {int(sum(acc['replay_identical']))}"
                 f"/{len(acc['replay_identical'])}")
    return values, lines


# ---------------------------------------------------------------- main


def llc_bytes() -> int | None:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for cache in caches:
        try:
            level = int((cache / "level").read_text())
            size = (cache / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        if best is None or level > best[0]:
            best = (level, int(size.rstrip("KMG")) * scale)
    return best and best[1]


def machine_facts(bench: Bench) -> dict:
    llc = llc_bytes()
    data_bytes = bench.data_path.stat().st_size
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "dataset_bytes": data_bytes,
        "dataset_over_llc": data_bytes / llc if llc else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "page_cache": "warm and never dropped: reads are served from memory, not a device",
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if sj is None or not Path(sj.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: cannot import subjack from {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    shape = shape_for(args.workload, args.scale)
    workdir = WORK / f"run-{os.getpid()}"
    check = OutputCheck(recorded_digests(args.workload, args.seed, args.scale))
    try:
        bench, setup_times = set_up(args.workload, shape, args.seed, workdir, check)
        facts = machine_facts(bench)
        if args.trace:
            values, attempted, failed, tracer, lines = traced(bench, args.seconds)
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans, {"workload": args.workload, "seed": args.seed, "machine": facts})
            lines.append(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        else:
            values, attempted, failed, lines = end_to_end(bench, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
          f"{attempted} operations, {failed} failed")
    print(f"  machine {json.dumps(facts)}")
    print("\n".join(lines))
    correct = failed == 0 and set(values) == set(units)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
