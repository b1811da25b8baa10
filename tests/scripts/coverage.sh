#!/usr/bin/env bash
# Line coverage of the src/ sources under the full test suite.
#
#   bash tests/scripts/coverage.sh [build-dir]
#
# Builds the project with --coverage -O0 into build-dir (default:
# build-coverage at the repository root), runs ctest there, and reads every
# src/ object's counts back with gcov. For each src/**/*.cpp that has
# executable lines no test ran, it prints the count and the line numbers,
# then the totals; the same report is written to build-dir/coverage.txt.
# A failing test is reported, not fatal: the report covers whatever ran.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="${1:-$root/build-coverage}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$build" -j"$jobs" >/dev/null
find "$build" -name '*.gcda' -delete

ctest_status=0
ctest --test-dir "$build" -j"$jobs" >"$build/ctest.log" 2>&1 ||
  ctest_status=$?

report="$build/coverage.txt"
find "$build/src" -name '*.cpp.gcda' | sort | while IFS= read -r gcda; do
  # gcov -t prints the annotated source of the object's .cpp and of every
  # header it includes; only the .cpp block is kept. Each line starts with
  # its count: "-" not executable, "#####"/"=====" never run (a trailing
  # "*" marks a partly run line).
  (cd "$(dirname "$gcda")" && gcov -t -o . "$gcda" 2>/dev/null || true) |
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
        lines[src]++
        if (count == "#####" || count == "=====") {
          missed[src]++
          where[src] = where[src] " " line
        }
      }
      END {
        for (src in lines) {
          printf "%s\t%d\t%d\t%s\n", substr(src, length(src_root) + 1),
                 missed[src] + 0, lines[src], where[src]
        }
      }'
done | sort | awk -F '\t' '
  {
    total_missed += $2
    total_lines += $3
    if ($2 > 0) printf "src/%s: %d of %d never run:%s\n", $1, $2, $3, $4
  }
  END {
    printf "total: %d of %d executable lines in src/*.cpp never run\n",
           total_missed, total_lines
  }' | tee "$report"

if [ "$ctest_status" -ne 0 ]; then
  echo "note: ctest exited $ctest_status; see $build/ctest.log" >&2
fi
