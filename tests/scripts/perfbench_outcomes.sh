#!/usr/bin/env bash
# Golden check of the repository benchmark's deterministic outcomes.
#
# For each perfbench workload this runs, from the repository root,
#
#   python3 perfbench/run.py --workload W --seed 11 --seconds 1 --trace 0
#
# and keeps four fields of the report's `deterministic` line: the outcome
# digest, the p50 and p99 op latency (simulated time) and the wire bytes per
# op. Those are a pure function of the seed, so they must match
# tests/golden/perfbench_seed11.txt byte for byte. The per-layer counts are
# left out, because some of them follow the host (crypto.lane_fill follows
# the SIMD width the SHA-256 dispatch picks). A run with any failed op fails
# too.
#
# Usage: perfbench_outcomes.sh [--update]
#   --update: rewrite the golden file from this checkout's outcomes.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
GOLDEN="$ROOT/tests/golden/perfbench_seed11.txt"
WORKLOADS=(fleet_store chaos_durable versioned_audit)
UPDATE=0
case "${1:-}" in
  "") ;;
  --update) UPDATE=1 ;;
  *)
    echo "usage: perfbench_outcomes.sh [--update]" >&2
    exit 2
    ;;
esac

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cd "$ROOT"
status=0
for workload in "${WORKLOADS[@]}"; do
  report="$WORKDIR/$workload.txt"
  python3 perfbench/run.py --workload "$workload" --seed 11 --seconds 1 \
    --trace 0 >"$report"
  # One line per workload; float fields keep the report's own spelling.
  if ! python3 - "$workload" "$report" >>"$WORKDIR/outcomes.txt" <<'EOF'
import json
import sys

workload, path = sys.argv[1], sys.argv[2]
lines = open(path).read().splitlines()
det = next(l for l in lines if l.startswith("deterministic "))
det = json.loads(det[len("deterministic "):], parse_float=str)
summary = json.loads(lines[-1])
print(workload, det["digest"], det["op_latency_p50_ms"],
      det["op_latency_p99_ms"], det["wire_bytes_per_op"])
if summary["failed"] > 0:
    print(f"{workload}: {summary['failed']} of {summary['attempted']} ops "
          "failed", file=sys.stderr)
    sys.exit(1)
EOF
  then
    status=1
  fi
done

if [[ "$UPDATE" == 1 ]]; then
  cp "$WORKDIR/outcomes.txt" "$GOLDEN"
  echo "wrote $GOLDEN"
  cat "$GOLDEN"
  exit "$status"
fi

if ! diff -u "$GOLDEN" "$WORKDIR/outcomes.txt"; then
  echo "perfbench outcomes differ from $GOLDEN" >&2
  status=1
fi
if [[ "$status" == 0 ]]; then
  echo "perfbench outcomes match $GOLDEN"
fi
exit "$status"
