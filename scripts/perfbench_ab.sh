#!/usr/bin/env bash
# Same-host A/B runs of the repository benchmark: a base revision against
# the working tree.
#
# Builds <rev> in a git worktree under target/perfbench-ab/ (with its own
# CARGO_TARGET_DIR, so neither build disturbs the other), then runs N pairs
# per workload. Each run is the command BENCHMARK.json declares, started in
# the checkout it measures, with `--workload <w> --seed <s> --seconds <n>
# --trace 0`, as perfbench/spread.py does. Even pairs run the base first,
# odd pairs the working tree first, so a drift in host load falls on both
# sides. Every run must report `"correct": true` and `"failed": 0`, or the
# script stops with exit 1. Nothing under perfbench/ is written except the
# working tree's own build output.
#
# For each workload and each end-to-end metric BENCHMARK.json lists, the
# report gives both sides' median and quartiles, the ratio of medians
# (working tree / base), how many pairs the working tree won in the
# metric's better direction (ties count for neither side), and a verdict:
#
#   gain        the tree won at least 9/10 of the pairs and its median is
#               better than the base's by more than the base's quartile
#               spread (q3 - q1)
#   worse       the tree's median is worse than the base's by more than the
#               metric's BENCHMARK.json bound (a share of the base median)
#   unresolved  the base's own quartile spread exceeds that bound, so the
#               runs cannot tell a change within it (unless every tree run
#               is better than every base run)
#   same        otherwise
#
# The verdicts are checked in that order. The report informs; it does not
# gate.
#
# Usage:
#   scripts/perfbench_ab.sh --base <rev> [--pairs N] [--seconds S]
#                           [--seed N] [--workload W]...
#
#   --base      revision to compare against (required), e.g. HEAD~1
#   --pairs     alternating pairs per workload (default 10)
#   --seconds   timed window per run (default: BENCHMARK.json run_seconds)
#   --seed      input seed (default 7, the seed the digests are recorded at)
#   --workload  repeatable; default every workload in BENCHMARK.json
#
# Wall time is about 2 x pairs x (seconds + 2 s of set-up) per workload,
# plus a cold release build of the base every run (about 40 s on a 2-vCPU
# x86-64 host). `--base HEAD` on a clean checkout is an A/A run.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

base="" pairs=10 seconds="" seed=7
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    *) echo "usage: $0 --base <rev> [--pairs N] [--seconds S] [--seed N] [--workload W]..." >&2; exit 2 ;;
  esac
done
[ -n "$base" ] || { echo "perfbench_ab: --base <rev> is required" >&2; exit 2; }
rev="$(git rev-parse --verify "$base^{commit}")"
[ -n "$seconds" ] || seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
[ "${#workloads[@]}" -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)

work="$root/target/perfbench-ab"
tree="$work/base"
results="$work/results.tsv"
mkdir -p "$work"
drop_tree() {
  git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
  git worktree prune
}
drop_tree
trap drop_tree EXIT
git worktree add --quiet --detach "$tree" "$rev"

echo "== building base ${rev:0:12} and the working tree =="
(cd "$tree" && CARGO_TARGET_DIR="$work/base-target" cargo build --release --offline --quiet \
  --manifest-path perfbench/Cargo.toml)
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

# run_side <base|head> <workload> <pair>: one run, its metrics appended to
# the results file as `workload side pair metric value` rows.
run_side() {
  local out
  if [ "$1" = base ]; then
    out="$(cd "$tree" && CARGO_TARGET_DIR="$work/base-target" "${command[@]}" \
      --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  else
    out="$("${command[@]}" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  fi
  jq -e '.correct == true and .failed == 0' <<<"$out" >/dev/null \
    || { echo "perfbench_ab: $2 ($1, pair $3) did not check out: $out" >&2; exit 1; }
  jq -r --arg w "$2" --arg s "$1" --arg i "$3" \
    '.metrics | to_entries[] | [$w, $s, $i, .key, .value.value] | @tsv' <<<"$out" >> "$results"
}

: > "$results"
for w in "${workloads[@]}"; do
  for i in $(seq 0 $((pairs - 1))); do
    if [ $((i % 2)) -eq 0 ]; then
      run_side base "$w" "$i"; run_side head "$w" "$i"
    else
      run_side head "$w" "$i"; run_side base "$w" "$i"
    fi
  done
  echo "ok: $w, $pairs pair(s) of ${seconds}-s runs at seed $seed, every run correct with 0 failed"
done

python3 - "$results" "${rev:0:12}" <<'PY'
import json, statistics, sys
from collections import defaultdict

rows = defaultdict(dict)  # (workload, metric) -> {(side, pair): value}
for line in open(sys.argv[1]):
    w, side, pair, metric, value = line.rstrip("\n").split("\t")
    rows[(w, metric)][(side, int(pair))] = float(value)
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def verdict(base, tree, bq, tq, won, bound, higher):
    """See the verdict list at the top of perfbench_ab.sh."""
    sign = 1 if higher else -1
    gap = (tq[1] - bq[1]) * sign  # > 0: the tree's median is better
    spread = bq[2] - bq[0]
    if 10 * won >= 9 * len(base) and gap > spread:
        return "gain"
    if -gap > bound * abs(bq[1]):
        return "worse"
    separated = min(t * sign for t in tree) > max(b * sign for b in base)
    if spread > bound * abs(bq[1]) and not separated:
        return "unresolved"
    return "same"

print(f"\nworking tree against base {sys.argv[2]} (ratio = tree / base)")
head = f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':>30} {'tree median [q1, q3]':>30} {'ratio':>7} {'won':>7} {'verdict':>10}"
print(head)
print("-" * len(head))
for w in dict.fromkeys(k[0] for k in rows):
    for m in bench["end_to_end"]:
        vals = rows.get((w, m["name"]))
        if not vals:
            continue
        pairs = sorted({p for _, p in vals})
        base = [vals[("base", p)] for p in pairs]
        tree = [vals[("head", p)] for p in pairs]
        bq, tq = quartiles(base), quartiles(tree)
        higher = m["better"] == "higher"
        won = sum((t > b) if higher else (t < b) for b, t in zip(base, tree))
        ratio = tq[1] / bq[1] if bq[1] else float("nan")
        v = verdict(base, tree, bq, tq, won, m["bound"], higher)
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:<14} {m['name']:<12} {fmt(bq):>30} {fmt(tq):>30} {ratio:>7.3f} {won:>3}/{len(pairs)} {v:>10}")
PY
