#!/usr/bin/env bash
# Paired wall-clock comparison of one benchmark workload between a base
# revision and the working tree.
#
# The base revision is checked out into a temporary git worktree. Both sides
# are built first (one short untimed run each), then each pair runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
#
# once on each side, alternating which side runs first. The metrics are the
# working tree's BENCHMARK.json `end_to_end` list (name, which way is
# better, bound). The script prints every run's value of each, then per
# metric each side's median and quartiles, how many pairs the working tree
# won (ties count for neither side), and a verdict:
#
#   worse       the change median is worse than the base median by more
#               than the metric's bound (a fraction of the base median);
#   unresolved  the base's interquartile range, as a fraction of its
#               median, is wider than the bound: too spread out to tell;
#   ok          neither.
#
# It exits 1 when any metric is `worse`. A gain is worth claiming only when
# the working tree wins at least nine pairs in ten and the medians differ by
# more than the base's interquartile distance.
#
# Usage: perf_pairs.sh <base-rev> <workload> [pairs=10] [seconds=30] [seed=11]
#
# Each run is a full benchmark run, so the default takes about
# 2 x pairs x seconds plus two builds; the base side is rebuilt from scratch
# every time the script runs. Not run in CI.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: perf_pairs.sh <base-rev> <workload> [pairs=10] [seconds=30]" \
    "[seed=11]" >&2
  exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
RUN_SECONDS="${4:-30}"
SEED="${5:-11}"

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
WORKDIR="$(mktemp -d)"
BASE_TREE="$WORKDIR/base"
cleanup() {
  git -C "$ROOT" worktree remove --force "$BASE_TREE" >/dev/null 2>&1 || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

git -C "$ROOT" worktree add --detach "$BASE_TREE" "$BASE_REV" >/dev/null

# run_side <side> <tree> <seconds> <report>
run_side() {
  (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$3" --trace 0) >"$4" 2>>"$WORKDIR/build.log"
}

echo "building base ($BASE_REV) and working tree" >&2
run_side base "$BASE_TREE" 0.5 /dev/null
run_side change "$ROOT" 0.5 /dev/null

for ((pair = 1; pair <= PAIRS; ++pair)); do
  if ((pair % 2 == 1)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    tree="$ROOT"
    [[ "$side" == base ]] && tree="$BASE_TREE"
    run_side "$side" "$tree" "$RUN_SECONDS" "$WORKDIR/$side-$pair.txt"
    echo "pair $pair: $side done" >&2
  done
done

python3 - "$WORKDIR" "$PAIRS" "$ROOT/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

workdir, pairs, benchmark = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(benchmark) as f:
    METRICS = json.load(f)["end_to_end"]
NAMES = [m["name"] for m in METRICS]


def metrics(side, pair):
    with open(f"{workdir}/{side}-{pair}.txt") as f:
        summary = json.loads(f.read().splitlines()[-1])
    if summary["failed"] > 0:
        print(f"warning: {side} pair {pair}: {summary['failed']} of "
              f"{summary['attempted']} ops failed", file=sys.stderr)
    return {m: summary["metrics"][m]["value"] for m in NAMES}


runs = {side: [metrics(side, p) for p in range(1, pairs + 1)]
        for side in ("base", "change")}

print(f"{'pair':>4} {'side':>6} " + " ".join(f"{m:>17}" for m in NAMES))
for p in range(pairs):
    for side in ("base", "change"):
        print(f"{p + 1:>4} {side:>6} " +
              " ".join(f"{runs[side][p][m]:>17.3f}" for m in NAMES))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fraction(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


print()
flagged = []
for metric in METRICS:
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    (bq1, bmed, bq3), (cq1, cmed, cq3) = (
        quartiles([r[name] for r in runs[side]]) for side in ("base", "change"))
    wins = sum(1 for b, c in zip(runs["base"], runs["change"])
               if c[name] != b[name] and (c[name] > b[name]) == higher)
    worse_by = fraction(bmed - cmed if higher else cmed - bmed, bmed)
    spread = fraction(bq3 - bq1, bmed)
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
        flagged.append(name)
    else:
        verdict = "ok"
    print(f"{name} ({'higher' if higher else 'lower'} is better, bound "
          f"{bound:.0%}): base median {bmed:.3f} [q1 {bq1:.3f}, q3 {bq3:.3f}], "
          f"change median {cmed:.3f} [q1 {cq1:.3f}, q3 {cq3:.3f}], "
          f"change wins {wins}/{pairs}, change worse by {worse_by:+.1%}, "
          f"base IQR {spread:.1%} of its median: {verdict}")
if flagged:
    print(f"worse beyond the bound: {', '.join(flagged)}")
    sys.exit(1)
EOF
