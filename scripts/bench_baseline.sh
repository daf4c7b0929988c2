#!/usr/bin/env bash
# Regenerate the committed benchmark baselines BENCH_<workload>.json at the
# repository root from the current tree.
#
#     scripts/bench_baseline.sh [SEEDS] [SECONDS]     (defaults: 5 10)
#
# For seed = 1..SEEDS it runs perfbench (perfbench/run.py) on every workload
# at --trace 0, and once at --trace 1 (the traced run measures every
# workload whatever --workload says). Each BENCH_<workload>.json holds the
# median over the seeds of that workload's end-to-end metrics, the medians
# of all per-layer metrics, the summed correct/attempted/failed counts, and
# the "# host" and "# model" labels perfbench printed. Raw outputs are kept
# in .bench_build/baseline/. Exit status is non-zero if any run printed no
# result or failed an operation.
set -euo pipefail

seeds=${1:-5}
seconds=${2:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
raw="$root/.bench_build/baseline"
workloads=(grid-sweep serve-raw serve-swap-v4)
rm -rf "$raw"
mkdir -p "$raw"
cd "$root"

for seed in $(seq 1 "$seeds"); do
  for w in "${workloads[@]}"; do
    echo "seed $seed: $w --trace 0" >&2
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
      > "$raw/$w.t0.$seed.txt"
  done
  echo "seed $seed: --trace 1" >&2
  python3 perfbench/run.py --workload grid-sweep --seed "$seed" --seconds "$seconds" --trace 1 \
    > "$raw/t1.$seed.txt"
done

python3 - "$raw" "$root" "$seeds" "$seconds" "${workloads[@]}" <<'EOF'
import json, statistics, sys
from pathlib import Path

raw, root, seeds, seconds, workloads = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5:]

def load(path):
    lines = path.read_text().splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("# ")]

def medians(results):
    units, values = {}, {}
    for r in results:
        for name, m in r["metrics"].items():
            units[name] = m["unit"]
            values.setdefault(name, []).append(m["value"])
    return {n: {"value": statistics.median(v), "unit": units[n]} for n, v in values.items()}

traced = [load(raw / f"t1.{s}.txt") for s in range(1, seeds + 1)]
per_layer = medians([r for r, _ in traced])
ok = all(r["correct"] and r["failed"] == 0 for r, _ in traced)
for w in workloads:
    runs = [load(raw / f"{w}.t0.{s}.txt") for s in range(1, seeds + 1)]
    labels = runs[0][1] + traced[0][1]
    out = {
        "workload": w,
        "command": f"scripts/bench_baseline.sh {seeds} {seconds}",
        "seeds": list(range(1, seeds + 1)),
        "seconds": seconds,
        "host": next(l[len("# host "):] for l in labels if l.startswith("# host ")),
        "model": sorted({l[8:] for l in labels if l.startswith("# model " + w)}),
        "correct": all(r["correct"] for r, _ in runs),
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "end_to_end": medians([r for r, _ in runs]),
        "per_layer": per_layer,
    }
    ok = ok and out["correct"] and out["failed"] == 0
    path = root / f"BENCH_{w}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=False) + "\n")
    e2e = ", ".join(f"{n} {m['value']:.4g} {m['unit']}" for n, m in out["end_to_end"].items())
    print(f"{path.name}: {e2e}; failed {out['failed']}")
sys.exit(0 if ok else 1)
EOF
