#!/usr/bin/env bash
# Line count of the src/ sources: the figure ROADMAP.md tracks.
#
#   bash tests/scripts/src_lines.sh
#
# Prints the lines of the tracked src/**/*.cpp, src/**/*.h and src/**/*.inl
# files per top-level src/ directory, then the total, which is exactly
#
#   git ls-files src | grep -E '\.(cpp|h|inl)$' | xargs cat | wc -l
#
# run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/../.."

files() { git ls-files src | grep -E '\.(cpp|h|inl)$'; }

files | while IFS= read -r file; do
  dir="${file#src/}"
  printf '%s\t%s\n' "src/${dir%%/*}" "$(wc -l <"$file")"
done | awk -F '\t' '{ lines[$1] += $2 }
  END { for (dir in lines) printf "%-18s %6d\n", dir, lines[dir] }' | sort
printf '%-18s %6d\n' total "$(files | xargs cat | wc -l)"
