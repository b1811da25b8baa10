#!/usr/bin/env bash
# Line coverage of the src/ sources, under the full test suite or under the
# programs.
#
#   bash tests/scripts/coverage.sh [build-dir] [tests|programs]
#
# Builds the project with --coverage -O0 into build-dir (default:
# build-coverage at the repository root) and reads every src/ object's
# counts back with gcov. For each src/**/*.cpp that has executable lines
# nothing ran, it prints the count and the line numbers, then the totals.
#
#   tests (default): runs ctest; the report is build-dir/coverage.txt.
#   programs:        builds perfbench/ the same way into build-dir/perfbench
#                    and runs, in place of ctest, every example, every bench
#                    (--benchmark_min_time=1x, bench_determinism.sh's small
#                    profile, TPNR_SCALE_SWEEP=0) and tpnr_perfbench on each
#                    workload (seed 11, 1 s, --trace 0 and --trace 1). A line
#                    counts as run if either object tree ran it. The report
#                    is build-dir/coverage-programs.txt; program output goes
#                    to build-dir/programs.log.
#
# A failing test or program is reported, not fatal: the report covers
# whatever ran.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="${1:-$root/build-coverage}"
mode="${2:-tests}"
jobs="$(nproc 2>/dev/null || echo 2)"
case "$mode" in
  tests | programs) ;;
  *)
    echo "usage: coverage.sh [build-dir] [tests|programs]" >&2
    exit 2
    ;;
esac

configure_and_build() { # <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
  cmake --build "$2" -j"$jobs" >/dev/null
  find "$2" -name '*.gcda' -delete
}

configure_and_build "$root" "$build"
# Object trees whose src/ counts the report reads.
trees=("$build/src")

status=0
if [ "$mode" = tests ]; then
  report="$build/coverage.txt"
  ctest --test-dir "$build" -j"$jobs" >"$build/ctest.log" 2>&1 || status=$?
else
  report="$build/coverage-programs.txt"
  log="$build/programs.log"
  configure_and_build "$root/perfbench" "$build/perfbench"
  trees+=("$build/perfbench/tpnr")
  : >"$log"
  failed=()
  run() { # <label> <command...>
    echo ">>> $1" >>"$log"
    "${@:2}" >>"$log" 2>&1 || failed+=("$1")
  }
  for src in "$root"/examples/*.cpp; do
    name="$(basename "$src" .cpp)"
    run "$name" "$build/examples/$name"
  done
  for src in "$root"/bench/bench_*.cpp; do
    name="$(basename "$src" .cpp)"
    run "$name" env TPNR_CHAOS_TRIALS=6 TPNR_DYN_MAX_CHUNKS=64 \
      TPNR_FORK_SWEEP=small TPNR_SCALE_SWEEP=0 \
      "$build/bench/$name" --benchmark_min_time=1x
  done
  for workload in fleet_store chaos_durable versioned_audit; do
    for trace in 0 1; do
      run "tpnr_perfbench $workload --trace $trace" \
        "$build/perfbench/tpnr_perfbench" --workload "$workload" \
        --seed 11 --seconds 1 --trace "$trace"
    done
  done
  if [ "${#failed[@]}" -ne 0 ]; then
    printf 'failed: %s\n' "${failed[@]}" >>"$log"
    status=1
  fi
fi

# One "file<TAB>line<TAB>ran" record per executable line of each src/*.cpp,
# tree after tree, in gcov order. Every compiled object counts: one that no
# run linked has no .gcda, and gcov reads it as never run. gcov -t prints
# the annotated source of the object's .cpp and of every header it
# includes; only the .cpp block is kept. A line shows once more in the block of each template instantiation
# or constructor variant it belongs to. Each line starts with its count:
# "-" not executable, "#####"/"=====" never run (a trailing "*" marks a
# partly run line).
for tree in "${trees[@]}"; do
  echo "tree"
  find "$tree" -name '*.cpp.gcno' | sort | while IFS= read -r gcno; do
    (cd "$(dirname "$gcno")" && gcov -t -o . "$gcno" 2>/dev/null || true) |
      awk -v src_root="$root/src/" '
        /^ *-: *0:Source:/ {
          src = substr($0, index($0, "Source:") + 7)
          keep = index(src, src_root) == 1 && src ~ /\.cpp$/
          next
        }
        keep {
          count = substr($0, 1, index($0, ":") - 1)
          gsub(/[ *]/, "", count)
          if (count == "-") next
          rest = substr($0, index($0, ":") + 1)
          line = substr(rest, 1, index(rest, ":") - 1) + 0
          ran = (count == "#####" || count == "=====") ? 0 : 1
          printf "%s\t%d\t%d\n", substr(src, length(src_root) + 1), line, ran
        }'
  done
done | awk -F '\t' '
  # Merges the trees: the k-th showing of a line in one tree is the k-th
  # in another, and it ran if it ran in any tree. Lines keep the first
  # tree'"'"'s order. Prints "file<TAB>never run<TAB>lines<TAB>where".
  $0 == "tree" {
    split("", seen)
    next
  }
  {
    key = $1 SUBSEP $2 SUBSEP (++seen[$1, $2])
    if (!(key in ran)) {
      at[$1, ++count[$1]] = key
      line_of[key] = $2
      ran[key] = $3
    } else if ($3) {
      ran[key] = 1
    }
  }
  END {
    for (file in count) {
      missed = 0
      where = ""
      for (i = 1; i <= count[file]; i++) {
        key = at[file, i]
        if (!ran[key]) {
          missed++
          where = where " " line_of[key]
        }
      }
      printf "%s\t%d\t%d\t%s\n", file, missed, count[file], where
    }
  }' | sort | awk -F '\t' '
  {
    total_missed += $2
    total_lines += $3
    if ($2 > 0) printf "src/%s: %d of %d never run:%s\n", $1, $2, $3, $4
  }
  END {
    printf "total: %d of %d executable lines in src/*.cpp never run\n",
           total_missed, total_lines
  }' | tee "$report"

if [ "$status" -ne 0 ]; then
  if [ "$mode" = tests ]; then
    echo "note: ctest exited $status; see $build/ctest.log" >&2
  else
    echo "note: some programs failed; see $build/programs.log" >&2
  fi
fi
