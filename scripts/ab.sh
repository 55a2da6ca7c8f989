#!/usr/bin/env bash
# A/B of the end-to-end benchmark: a parent revision against the working
# tree, in pairs of `rtm-benchmark` runs whose first side alternates.
#
# Usage: scripts/ab.sh [--parent REV] [--pairs N] [--workload W] [--seed S]
#                      [--seconds T] [--smoke] [--work DIR]
#   --parent REV   revision to compare the working tree against (HEAD)
#   --pairs N      alternating pairs of runs (10)
#   --workload W   a workload of BENCHMARK.json (ondevice_10x)
#   --seed S       the benchmark's --seed (2020)
#   --seconds T    window of each run (the benchmark's default, 16 s)
#   --smoke        the benchmark's smoke scale (tiny models, short windows)
#   --work DIR     where the parent's source and build live (a fresh
#                  temporary directory, removed at the end); a kept DIR
#                  makes the next run's parent build incremental
#
# Why two builds: `rtm-benchmark` deletes every `RTM_*` variable from its
# environment before anything reads it (`scrub_env`,
# crates/benchmark/src/main.rs), so a switch set in the environment never
# reaches the code under test: one binary run with two settings times the
# same code twice. An A/B compares two binaries built from two trees, each
# in a target directory that has never held the other's build — cargo
# fingerprints by workspace-relative path and mtime, so a target directory
# shared between two checkouts can hand back one tree's binary for the
# other. The working tree builds into its usual target directory; the
# parent is exported with `git archive` (nothing is registered in `.git`,
# so an interrupted run leaves nothing to prune) and builds into its own,
# under the work directory.
#
# Prints the five end-to-end metrics and the failed / attempted operations
# of every run, then per metric each side's median and quartiles and how
# many pairs the change won. The host's speed moves in phases minutes long,
# which both runs of a pair share, so read the per-pair wins beside the
# medians. Exits nonzero if a run fails or reports an incorrect result.
set -euo pipefail
cd "$(dirname "$0")/.."

parent=HEAD pairs=10 workload=ondevice_10x seed=2020 seconds="" smoke=() work=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --parent) parent=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --work) work=$2; shift 2 ;;
    *) sed -n '5,16p' "$0" >&2; exit 2 ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "--pairs takes a count from 1" >&2; exit 2; }
rev=$(git rev-parse --verify "$parent^{commit}")
if [[ -z "$work" ]]; then
  work=$(mktemp -d "${TMPDIR:-/tmp}/rtm-ab.XXXXXX")
  trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The parent's tree, exported once per revision.
if [[ "$(cat "$work/parent.rev" 2>/dev/null)" != "$rev" ]]; then
  rm -rf "$work/parent" "$work/parent.rev"
  mkdir -p "$work/parent"
  git archive "$rev" | tar -x -C "$work/parent"
  echo "$rev" > "$work/parent.rev"
fi

echo "==> building the parent (${rev:0:12}) and the working tree"
(cd "$work/parent" && CARGO_TARGET_DIR="$work/target-parent" \
  cargo build -q --release -p rtm-benchmark)
cargo build -q --release -p rtm-benchmark
bin_parent=$work/target-parent/release/rtm-benchmark
bin_change=$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release/rtm-benchmark
if cmp -s "$bin_parent" "$bin_change"; then
  echo "note: the two binaries are byte-identical"
fi

metrics=(setup_s frame_latency_p50_us frames_per_s model_bytes peak_rss_mb)
better=(lower lower higher lower lower)
window=()
[[ -n "$seconds" ]] && window=(--seconds "$seconds")
failed=0

# One run of `$1`'s binary; appends its metrics to `$work/$1.tsv`.
run() {
  local side=$1 bin out line values=() failed_ops attempted
  if [[ $side == parent ]]; then bin=$bin_parent; else bin=$bin_change; fi
  if ! out=$("$bin" --workload "$workload" --seed "$seed" "${window[@]}" --trace 0 \
      "${smoke[@]}" 2>/dev/null); then
    echo "  $side: run failed" >&2
    failed=1
  fi
  line=$(tail -n 1 <<< "$out")
  if ! grep -q '"correct": true' <<< "$line"; then
    echo "  $side: incorrect result: $line" >&2
    failed=1
  fi
  for m in "${metrics[@]}"; do
    values+=("$(sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p" <<< "$line")")
  done
  printf '%s\t' "${values[@]}" >> "$work/$side.tsv"
  echo >> "$work/$side.tsv"
  printf '  %-6s' "$side"
  for i in "${!metrics[@]}"; do
    printf ' %s=%s' "${metrics[$i]}" "${values[$i]:-?}"
  done
  failed_ops=$(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<< "$line")
  attempted=$(sed -n 's/.*"attempted": \([0-9]*\).*/\1/p' <<< "$line")
  echo " failed=${failed_ops:-?}/${attempted:-?}"
}

rm -f "$work/parent.tsv" "$work/change.tsv"
echo "==> $pairs pairs: $workload, seed $seed${seconds:+, ${seconds} s}${smoke:+, smoke scale}"
for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then
    echo "pair $p (parent first)"
    run parent
    run change
  else
    echo "pair $p (change first)"
    run change
    run parent
  fi
done

echo "==> per metric: median (q1-q3) of each side, change/parent, change wins"
for i in "${!metrics[@]}"; do
  col=$((i + 1))
  paste <(cut -f "$col" "$work/parent.tsv") <(cut -f "$col" "$work/change.tsv") |
    awk -v name="${metrics[$i]}" -v better="${better[$i]}" '
      function q(v, n, p,   x, j) {
        x = (n - 1) * p; j = int(x)
        return j + 1 < n ? v[j] + (x - j) * (v[j + 1] - v[j]) : v[j]
      }
      function sorted(v, n,   i, j, t) {
        for (i = 1; i < n; i++)
          for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      }
      BEGIN { n = 0; wins = 0; ties = 0 }
      $1 != "" && $2 != "" {
        a[n] = $1; b[n] = $2
        if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
        else if ($2 == $1) ties++
        n++
      }
      END {
        if (n == 0) { printf "%-22s no values\n", name; exit }
        sorted(a, n); sorted(b, n)
        ma = q(a, n, 0.5); mb = q(b, n, 0.5)
        printf "%-22s parent %.6g (%.6g-%.6g)  change %.6g (%.6g-%.6g)  %s  wins %d/%d%s\n",
          name, ma, q(a, n, 0.25), q(a, n, 0.75), mb, q(b, n, 0.25), q(b, n, 0.75),
          ma != 0 ? sprintf("%.3fx", mb / ma) : "-", wins, n,
          ties ? sprintf(" (%d equal)", ties) : ""
      }'
done
exit "$failed"
