#!/usr/bin/env python3
"""Record the output digests that runs at the shipped seeds are checked against.

    python3 perfbench/record_digests.py            # seeds 0-15, every workload
    python3 perfbench/record_digests.py 3 4 5      # only these seeds

Runs every distinct operation of each workload once at full size (every
master seed of the cycle) and writes perfbench/digests.json. Record again
only when an output is meant to change.
"""
import json
import os
import shutil
import sys

import run

SHIPPED_SEEDS = range(16)


def record(workload: str, seed: int) -> dict[str, str]:
    shape = run.shape_for(workload, "full")
    check = run.OutputCheck(None)
    workdir = run.WORK / f"record-{os.getpid()}"
    try:
        bench, _ = run.set_up(workload, shape, seed, workdir, check, repeats=1)
        op = run.OPERATIONS[shape.kind]
        for i in range(1 if shape.kind == "ingest" else shape.masters):
            if not op(bench, i).ok:
                raise SystemExit(f"{workload} seed {seed}: operation {i} failed its checks")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return check.seen


def main(argv: list[str]) -> int:
    if run.sj is None:
        print(f"record_digests: cannot import subjack from {run.SRC}", file=sys.stderr)
        return 2
    seeds = [int(arg) for arg in argv] or list(SHIPPED_SEEDS)
    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    for workload in run.WORKLOADS:
        for seed in seeds:
            digests.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: recorded", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
