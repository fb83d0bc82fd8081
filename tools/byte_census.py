"""Print one sha256 over the bytes subjack writes for a fixed grid of runs.

The grid covers:
  * run_estimate JSON reports, or the DomainEvalError text, for mean, var, sd,
    kurt and corr at three (n, K) shapes, three master seeds and both CI
    centers, on two datasets: a generated mean-zero bivariate normal file and
    one converted from a seeded CSV whose columns have nonzero means;
  * three estimates on a generated file of 2**20 + 1 rows, where about half
    the raw words are accepted, so some index rows run short of their first
    block and are redrawn with a block twice as wide;
  * corr at n=500, K=53 on the generated normal file, for each master seed:
    K is 1 more than a multiple of the chunk size, so the last chunk holds
    one subsample;
  * the bytes of every file it generates, and of that CSV converted with
    both transforms: 150,000 rows, over two full 65536-row blocks, with
    repeated integers and padded, whitespace-only and empty cells;
  * one `subjack simulate` CSV row and its --out JSON;
  * the mse column of bench_sampling (its seconds column is a timing).

Two checkouts that print the same digest write the same bytes on the grid.
To compare two checkouts, copy this file into the base one and run it from
each, so both run the same grid. It takes about 3 s on 2 cores:

    python3 tools/byte_census.py
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subjack import (  # noqa: E402
    DomainEvalError,
    bench_sampling,
    convert_csv,
    generate_bivariate_normal,
    run_estimate,
)
from subjack.cli import main as cli_main  # noqa: E402

SIGMA = [[25.0, 10.0], [10.0, 5.0]]
STATS = ["mean:0", "var:1", "sd:0", "kurt:0", "corr:0,1"]
SHAPES = [(2, 1000), (50, 1000), (500, 200)]
MASTER_SEEDS = [0, 42, 2**64 - 1]
CENTERS = ["jds", "sos"]
# float() skips these around a number; U+001C it rejects, though str.strip() removes it
SPACES = " \t\u3000\xa0\u2003"


def write_seeded_csv(path: Path, rows: int) -> None:
    """x near 3 and y near 100, so moments do not vanish as they do at mean 0,
    and count, integers in [-300, 300] that repeat.

    Each column has 1% empty cells and 5% padded with whitespace. x and count
    are padded only with SPACES, so they parse as read; y also has U+001C
    padding and 1% whitespace-only cells, so it takes the strip pass.
    """
    rng = np.random.Generator(np.random.Philox(key=20231))
    x = 3.0 + 2.0 * rng.standard_normal(rows)
    y = 100.0 + 0.5 * x + rng.standard_normal(rows)
    count = rng.integers(-300, 301, rows)

    def cells(texts, pads, blank):
        """1% empty, a share `blank` whitespace only, 5% padded, the rest as they are."""
        u = rng.random(rows).tolist()
        pad = rng.choice(list(pads), rows).tolist()
        return ["" if v < 0.01 else p if v < 0.01 + blank else p + t + p if v < 0.06 + blank
                else t for t, v, p in zip(texts, u, pad)]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "count"])
        writer.writerows(zip(cells(map(repr, x.tolist()), SPACES, 0.0),
                             cells(map(repr, y.tolist()), SPACES + "\x1c", 0.01),
                             cells(map(str, count.tolist()), SPACES, 0.0)))


def estimate_text(path: Path, stat: str, n: int, K: int, seed: int, center: str) -> str:
    try:
        return run_estimate(path, stat, n, K, seed, ci_center=center).to_json()
    except DomainEvalError as exc:
        return f"DomainEvalError: {exc}"


def simulate_bytes(workdir: Path) -> str:
    config = {
        "dataset": {"rows": 20_000, "seed": 11, "sigma": SIGMA}, "statistic": "corr:0,1",
        "n": 50, "K": 200, "M": 20, "master_seed": 9, "theta_true": 2 / 5**0.5,
    }
    config_path, detail_path = workdir / "config.json", workdir / "detail.json"
    config_path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["simulate", "--config", str(config_path), "--out", str(detail_path),
                         "--workers", "1"])
    if code != 0:
        raise SystemExit(f"byte census: simulate exited {code}")
    return out.getvalue() + detail_path.read_text()


def census() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0

    def add(label: str, text: str) -> None:
        nonlocal count
        digest.update(f"{label}\n{text}\n".encode())
        count += 1

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        generated, pow2plus1 = workdir / "generated.sjds", workdir / "pow2plus1.sjds"
        converted, logged = workdir / "converted.sjds", workdir / "signed_log.sjds"
        generate_bivariate_normal(7, 100_000, SIGMA, generated)
        generate_bivariate_normal(3, 2**20 + 1, SIGMA, pow2plus1)
        write_seeded_csv(workdir / "seeded.csv", 150_000)
        convert_csv(workdir / "seeded.csv", ["x", "y", "count"], "none", converted)
        convert_csv(workdir / "seeded.csv", ["x", "y", "count"], "signed_log", logged)
        for path in (generated, pow2plus1, converted, logged):
            add(f"file {path.name}", hashlib.sha256(path.read_bytes()).hexdigest())

        for path in (generated, converted):
            for stat in STATS:
                for n, K in SHAPES:
                    for seed in MASTER_SEEDS:
                        for center in CENTERS:
                            add(f"estimate {path.name} {stat} n={n} K={K} seed={seed} {center}",
                                estimate_text(path, stat, n, K, seed, center))
        for stat, n, K in [("corr:0,1", 50, 1000), ("corr:0,1", 500, 200), ("kurt:0", 500, 200)]:
            add(f"estimate {pow2plus1.name} {stat} n={n} K={K} seed=11 jds",
                estimate_text(pow2plus1, stat, n, K, 11, "jds"))
        for seed in MASTER_SEEDS:
            add(f"estimate {generated.name} corr:0,1 n=500 K=53 seed={seed} jds",
                estimate_text(generated, "corr:0,1", 500, 53, seed, "jds"))
        add("simulate", simulate_bytes(workdir))
        for result in bench_sampling(100_000, [(50, 40), (10, 100)], 5, repeats=2,
                                     data_path=generated):
            add(f"bench n={result.n} K={result.K} {result.mode}", repr(result.mse))
    return count, digest.hexdigest()


if __name__ == "__main__":
    count, hexdigest = census()
    print(f"byte census: {count} outputs, sha256 {hexdigest}")
