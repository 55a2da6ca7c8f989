#!/usr/bin/env bash
# Non-test lines of Rust sources: for each file, the number of lines before
# its first `#[cfg(test)]` (the whole file when it has none), then the total.
# This is the count the simplicity PRs' acceptance tables use.
#
# Usage: scripts/loc.sh <file>...
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: scripts/loc.sh <file>..." >&2
  exit 2
fi

total=0
for f in "$@"; do
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
  printf '%7d  %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
