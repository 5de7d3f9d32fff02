#!/usr/bin/env bash
# Same-host A/B check that a change leaves every experiment's output
# byte-identical: a base revision's `reproduce` against the working tree's.
#
# Builds <rev> in a git worktree under target/trace-ab/ (with its own
# CARGO_TARGET_DIR, so neither build disturbs the other) and the working
# tree as usual, then runs `reproduce --quick --seed 7 --trace <file> <exp>`
# on both sides for every experiment the working tree's `reproduce --list`
# prints at PBW_THREADS=1, and for the runs with parallel engine passes
# (faults, crashes, sorting, qsm-exercise, broadcast-lb) again at
# PBW_THREADS=8. Each run's stdout and JSONL trace are compared with `cmp`;
# one row per run says `identical` or what differs. The script exits 1 if
# any run differs or fails on either side, 0 otherwise.
#
# Usage:
#   scripts/trace_ab.sh --base <rev>
#
#   --base   revision to compare against (required), e.g. HEAD~1.
#            `--base HEAD` on a clean checkout is an A/A run.
#
# Wall time is about two release builds (the base cold) plus the quick
# runs, which take about a second per side on a 2-vCPU x86-64 host.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

base=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    *) echo "usage: $0 --base <rev>" >&2; exit 2 ;;
  esac
done
[ -n "$base" ] || { echo "trace_ab: --base <rev> is required" >&2; exit 2; }
rev="$(git rev-parse --verify "$base^{commit}")"

work="$root/target/trace-ab"
tree="$work/base"
out="$work/out"
drop_tree() {
  git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
  git worktree prune
}
drop_tree
trap drop_tree EXIT
git worktree add --quiet --detach "$tree" "$rev"
rm -rf "$out"
mkdir -p "$out"

echo "== building base ${rev:0:12} and the working tree =="
(cd "$tree" && CARGO_TARGET_DIR="$work/base-target" cargo build --release --offline --quiet \
  -p pbw-bench --bin reproduce)
cargo build --release --offline --quiet -p pbw-bench --bin reproduce
base_bin="$work/base-target/release/reproduce"
head_bin="$root/target/release/reproduce"

mapfile -t experiments < <("$head_bin" --list)
wide=(faults crashes sorting qsm-exercise broadcast-lb)

# run_pair <width> <experiment>: run both sides, print one row, and return
# 1 when they differ.
run_pair() {
  local w="$1" e="$2" side bin verdict="" diffs=()
  local stem="$out/$e.w$w"
  for side in base head; do
    bin="$base_bin"
    [ "$side" = head ] && bin="$head_bin"
    PBW_THREADS="$w" "$bin" --quick --seed 7 --trace "$stem.$side.jsonl" "$e" \
      > "$stem.$side.out" 2>&1 || verdict="$side run failed"
  done
  if [ -z "$verdict" ]; then
    cmp -s "$stem.base.out" "$stem.head.out" || diffs+=(stdout)
    cmp -s "$stem.base.jsonl" "$stem.head.jsonl" || diffs+=(trace)
    verdict="identical"
    [ "${#diffs[@]}" -eq 0 ] || verdict="differs: ${diffs[*]}"
  fi
  printf '%-24s %5s %8s %s\n' "$e" "$w" "$(cat "$stem.head.jsonl" 2>/dev/null | wc -l)" "$verdict"
  [ "$verdict" = identical ]
}

printf '\n%-24s %5s %8s %s\n' experiment width events verdict
differ=0 runs=0
for e in "${experiments[@]}"; do
  runs=$((runs + 1))
  run_pair 1 "$e" || differ=$((differ + 1))
done
for e in "${wide[@]}"; do
  runs=$((runs + 1))
  run_pair 8 "$e" || differ=$((differ + 1))
done
if [ "$differ" -gt 0 ]; then
  echo "trace_ab: $differ of $runs run(s) differ from base ${rev:0:12} (outputs in $out)" >&2
  exit 1
fi
echo "ok: all $runs runs identical to base ${rev:0:12} (stdout and trace)"
