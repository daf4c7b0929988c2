#!/usr/bin/env python3
"""Compare the repository benchmark between a parent and a change checkout.

    python3 scripts/bench_diff.py --parent DIR --change DIR \\
        --workload serve-raw --pairs 10 --seconds 10

Each DIR is a full checkout (for example `git worktree add ../parent HEAD~1`).
Pair i runs `python3 DIR/perfbench/run.py --workload W --seed i --seconds S
--trace 0` on both sides with the same seed; the side that runs first
alternates from pair to pair so slow drift in the host hits both equally.
Each checkout builds into its own `.bench_build`.

For every end-to-end metric in BENCHMARK.json (read, never written; taken
from the change checkout) it prints the parent and change medians, the
change's delta, the parent's quartile spread (IQR) as a share of its median,
the bound, and a verdict:

  ok          the change's median is no worse than the parent's by more
              than the bound;
  regressed   it is worse by more than the bound;
  unresolved  the parent's IQR exceeds the bound, so the runs cannot tell,
              unless every change run reads better than every parent run
              (then ok).

Per-layer metrics (`--trace 1`) are not compared.

Exit status: 0 = no metric regressed and the change failed no more
operations than the parent; 1 = a metric regressed or the change's `failed`
total exceeds the parent's; 2 = a run produced no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # run.py builds into $CARGO_TARGET_DIR when set; an absolute value would
    # make both checkouts share (and overwrite) one build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{checkout}: seed {seed}: no result (exit {proc.returncode})")


def quartile_spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(metric: dict, parent: list, change: list) -> tuple:
    """Return (parent IQR as a share of its median, verdict)."""
    p_med = statistics.median(parent)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (statistics.median(change) - p_med) / p_med
    spread = quartile_spread(parent) / abs(p_med)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > metric["bound"] and not all_better:
        return spread, "unresolved"
    return spread, "regressed" if worse > metric["bound"] else "ok"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error("--workload must be one of the workloads in BENCHMARK.json")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}

    for i in range(1, args.pairs + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for side in order:
            try:
                result = run_once(sides[side], args.workload, i, args.seconds)
            except RuntimeError as e:
                print(f"bench_diff: {e}", file=sys.stderr)
                return 2
            runs[side].append(result)
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                             for m in bench["end_to_end"])
            print(f"pair {i}/{args.pairs} {side}: failed={result['failed']} {shown}",
                  file=sys.stderr)

    print(f"workload {args.workload}: {args.pairs} pairs, --seconds {args.seconds}")
    print(f"{'metric':<18} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'parent IQR':>10} {'bound':>6}  verdict")
    regressed = False
    for m in bench["end_to_end"]:
        parent = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
        change = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
        spread, v = verdict(m, parent, change)
        regressed |= v == "regressed"
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(f"{m['name']:<18} {p_med:>12.6g} {c_med:>12.6g} {c_med / p_med - 1:>+8.1%} "
              f"{spread:>10.1%} {m['bound']:>6.0%}  {v}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    return 1 if regressed or failed["change"] > failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
