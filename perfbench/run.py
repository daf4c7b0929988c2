#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 10 --trace 0

Builds the dp library and the perfbench program from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload. The program's stdout is passed through; its last line is the
JSON result. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid-sweep", "serve-raw", "serve-swap-v4")
RUN_TIMEOUT_S = 170


def build(src: Path, out: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(src), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    here = Path(__file__).resolve().parent
    root = here.parent
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    work = out / "work"
    try:
        exe = build(here, out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", str(here / "grid_golden.txt"), "--work-dir", str(work)]
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as e:
        sys.stdout.write(run.stdout)
        print(f"perfbench: no result (exit {run.returncode}): {e}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
