#!/usr/bin/env bash
# Determinism regression for the sharded runtime.
#
# The experiment benches emit one JsonLine record per protocol experiment;
# every field in those records is a protocol outcome (completion counts,
# simulated latencies, evidence checks) — nothing wall-clock. The runtime's
# contract says those outcomes are a pure function of the seed, so the
# emitted records must be BYTE-IDENTICAL:
#   * to the golden records checked in under tests/golden/<profile>/, which
#     were produced by the reference paths (classic RSA exponentiation,
#     scalar SHA-256, no HMAC midstates, no verify memo, no Merkle cache,
#     inline crypto, binary-heap event queue), so a change that alters every
#     configuration the same way still fails;
#   * across repeated runs of the same binary (no hidden global state), and
#   * across shard/worker configurations TPNR_SHARDS=1,2,4 x TPNR_WORKERS=1,4
#     (shard-count and thread-count invariance).
#
# Usage: bench_determinism.sh <dir-with-bench-binaries> [small|ci]
#   small (default): the ctest instance sizes.
#   ci:              the sizes CI has always diffed (default dyn and fork
#                    sweeps).
set -euo pipefail

BENCH_DIR="${1:?usage: bench_determinism.sh <bench-dir> [small|ci]}"
PROFILE="${2:-small}"
GOLDEN_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/../golden/$PROFILE" && pwd)"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# Determinism does not depend on workload size, so instances stay small.
export TPNR_CHAOS_TRIALS=6
case "$PROFILE" in
  small)
    export TPNR_DYN_MAX_CHUNKS=64
    export TPNR_FORK_SWEEP=small
    ;;
  ci) ;;
  *)
    echo "unknown profile: $PROFILE" >&2
    exit 2
    ;;
esac

run_bench() { # <binary> <tag> <shards> <workers> -> path of captured JsonLine
  local binary="$1" tag="$2" shards="$3" workers="$4"
  local out="$WORKDIR/${binary}.${tag}.jsonl"
  TPNR_BENCH_JSON="$out.raw" TPNR_SHARDS="$shards" TPNR_WORKERS="$workers" \
    "$BENCH_DIR/$binary" --benchmark_filter=NONE >/dev/null
  # process_meta (the config itself, RSS) and crypto_counters (how much work
  # each acceleration did) are config-dependent BY DESIGN; every other
  # record must be byte-identical.
  grep -v -e '"record":"process_meta"' -e '"bench":"crypto_counters"' \
    "$out.raw" > "$out" || true
  echo "$out"
}

status=0
check() { # <binary> <label> <expected> <actual>
  if diff -u "$3" "$4" >/dev/null; then
    echo "OK:   $1 $2"
  else
    echo "FAIL: $1 $2 diverged:" >&2
    diff -u "$3" "$4" >&2 || true
    status=1
  fi
}

for binary in bench_fig6_tpnr_modes bench_chaos bench_dyn_audit \
              bench_fork_detection bench_audit_detection; do
  if [[ ! -x "$BENCH_DIR/$binary" ]]; then
    echo "SKIP: $BENCH_DIR/$binary not built" >&2
    continue
  fi
  baseline="$(run_bench "$binary" baseline 1 1)"
  check "$binary" "baseline matches $PROFILE golden" \
    "$GOLDEN_DIR/$binary.jsonl" "$baseline"
  for config in repeat:1:1 s2w1:2:1 s4w1:4:1 s1w4:1:4 s2w4:2:4 s4w4:4:4; do
    IFS=: read -r tag shards workers <<< "$config"
    candidate="$(run_bench "$binary" "$tag" "$shards" "$workers")"
    check "$binary" "$tag (shards=$shards workers=$workers) matches baseline" \
      "$baseline" "$candidate"
  done
done

if [[ "$status" -eq 0 ]]; then
  echo "bench determinism ($PROFILE): all runs byte-identical to golden"
else
  echo "bench determinism ($PROFILE): DIVERGENCE DETECTED" >&2
fi
exit "$status"
