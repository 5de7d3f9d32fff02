#!/usr/bin/env bash
# Local CI gate: everything the workflow runs, runnable offline.
#
# The gate is split into named stages, each individually timed and run to
# completion even when an earlier stage fails (so one broken stage reports
# every other stage's status too — the summary table at the end is the
# whole picture). Set PBW_CI_FAIL_FAST=1 to stop at the first failure
# instead. Each stage runs in a fresh `bash -euo pipefail` process (the
# script re-executes itself with `--stage <name>`), so commands inside a
# stage keep ordinary errexit semantics.
#
# Usage:
#   scripts/ci.sh                 # run every stage, summary table at the end
#   scripts/ci.sh --stage build   # run one stage by name (the workflow's
#                                 # per-job entry point)
#   scripts/ci.sh --list          # print the stage names
#   PBW_CI_FAIL_FAST=1 scripts/ci.sh   # stop at the first failing stage
set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------------
# Stage bodies. Each is a function named stage_<name> with <name> listed in
# STAGES below; .github/workflows/ci.yml mirrors this split as one job (or
# job step) per stage.
# ---------------------------------------------------------------------------

STAGES=(
  fmt
  build
  test-w1
  test-w4
  test-w8
  alloc-budget-repeat
  stress
  paper-claims
  proptest-replay
  model-check
  clippy
  docs
  shims
  trace-smoke
  fault-determinism
  sorting-determinism
  cross-width-determinism
  chaos-soak
  perfbench
  perfbench-ab
  trace-ab
  loc
  bench-gate
  parallel-gate
  tsan
)

stage_fmt() {
  cargo fmt --all -- --check
}

stage_build() {
  cargo build --workspace --release
}

# The tier-1 suite runs three times: the thread pool forced sequential,
# forced to 4 workers, and forced to 8. All must pass — the engines'
# contract is that results (traces included) are byte-identical at every
# width, and tests/parallel_conformance.rs asserts exactly that from
# inside one run.
stage_test-w1() {
  PBW_THREADS=1 cargo test --workspace -q
}

stage_test-w4() {
  PBW_THREADS=4 cargo test --workspace -q
}

stage_test-w8() {
  PBW_THREADS=8 cargo test --workspace -q
}

# The allocation-budget pins compare exact counts, so one stray allocation
# landing in a measured window fails them. Build the suite once, then run
# the compiled binary 50 times under the default multi-threaded test
# harness; any failed run fails the stage.
stage_alloc-budget-repeat() {
  local bin out i
  bin="$(cargo test -q --test alloc_budget --no-run --message-format=json \
    | jq -r 'select(.reason == "compiler-artifact" and .target.name == "alloc_budget" and .executable != null) | .executable')"
  [ -x "$bin" ] || { echo "alloc_budget test binary not found" >&2; exit 1; }
  out="$(mktemp)"
  trap "rm -f '$out'" EXIT
  for i in $(seq 1 50); do
    "$bin" -q > "$out" 2>&1 || { cat "$out" >&2; echo "alloc_budget failed on run $i of 50" >&2; exit 1; }
  done
  echo "ok: alloc_budget passed 50 of 50 runs"
}

# Dedicated rerun of the stress smoke tier (release, extra-downscaled to
# stay fast) so a scaling regression in the arena/delivery path fails a
# stage attributed to the stress tier rather than drowning in the
# workspace suites. The #[ignore]d heavy tier stays opt-in.
stage_stress() {
  PBW_STRESS_SCALE=32 cargo test --release -q --test stress
}

# The large-p paper-claims tier: broadcast and the gvsm-routing breakdown
# at p = 2^18, feasible in CI only because the active-set engine path
# makes nearly-idle machines cost O(active + messages) per superstep.
stage_paper-claims() {
  cargo test --release -q --test paper_claims large_p -- --ignored
}

# Shrunk proptest counterexamples must never silently rot: the regressions
# file has to exist with at least one saved case, and the properties suite
# gets a dedicated invocation (proptest auto-replays the sibling file
# before generating novel cases).
stage_proptest-replay() {
  grep -q '^cc ' tests/properties.proptest-regressions \
    || { echo "tests/properties.proptest-regressions holds no saved cases" >&2; exit 1; }
  cargo test --release -q --test properties
  echo "ok: $(grep -c '^cc ' tests/properties.proptest-regressions) saved counterexample(s) replayed"
}

# The bounded model checker: exhaustively verify all five invariant
# families (conservation + ledger reconstruction with the crash/restore
# columns, recovery termination, sparse ≡ dense byte-identity, crash-stop
# checkpoint/rollback recovery, Thm 6.2 cost envelope) over the CI domain
# (p ≤ 3, supersteps ≤ 3, messages ≤ 4) against the real engines.
# --require-exhaustive turns a budget truncation into a failure. Then the
# self-test compiles in a deliberate conservation violation and proves the
# checker catches it, and the documented exit-code table is asserted as
# API (scripts and the workflow branch on those codes).
stage_model-check() {
  PBW_CHECK_BUDGET="${PBW_CHECK_BUDGET:-300000}" \
    cargo run --release -q -p pbw-check -- --require-exhaustive

  echo "== pbw-check self-test (planted violation) =="
  cargo run --release -q -p pbw-check --features check-selftest -- --self-test

  echo "== pbw-check exit codes =="
  # The self-test run above rebuilt the binary WITH the planted-bug
  # feature; put the featureless one back before asserting its exit codes.
  cargo build --release -q -p pbw-check
  local check_bin=./target/release/pbw-check
  [ -x "$check_bin" ] || { echo "pbw-check binary missing after build" >&2; exit 1; }
  "$check_bin" --help | grep -q "exit codes:" || { echo "--help does not document exit codes" >&2; exit 1; }
  local rc=0
  "$check_bin" --no-such-flag >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "unknown flag exited $rc, want 2" >&2; exit 1; }
  rc=0
  "$check_bin" --self-test >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 4 ] || { echo "featureless --self-test exited $rc, want 4" >&2; exit 1; }
  echo "ok: usage error -> 2, featureless self-test -> 4, both as documented"
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

# The API docs must build warning-free: a broken or private intra-doc link
# (for example to an item a refactor deleted) fails the stage.
stage_docs() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

# The offline dependency shims are packages of their own outside the
# workspace (the root manifest excludes crates/shims), so the stages above
# never build their unit tests or docs. Run the suites of the four shims
# that have one, and the rayon shim's docs with warnings denied. Builds go
# to the workspace's ignored target dir; each shim keeps its own committed
# Cargo.lock.
stage_shims() {
  local shim
  for shim in rayon rand rand_chacha proptest; do
    CARGO_TARGET_DIR=target/shims cargo test --offline -q \
      --manifest-path "crates/shims/$shim/Cargo.toml"
    echo "ok: $shim shim tests pass"
  done
  CARGO_TARGET_DIR=target/shims RUSTDOCFLAGS="-D warnings" \
    cargo doc --offline --no-deps -q --manifest-path crates/shims/rayon/Cargo.toml
  echo "ok: rayon shim docs build warning-free"
}

stage_trace-smoke() {
  local trace_out
  trace_out="$(mktemp)"
  trap "rm -f '$trace_out'" EXIT
  cargo run --release -q -p pbw-bench --bin reproduce -- --quick --trace "$trace_out" table1 >/dev/null
  [ -s "$trace_out" ] || { echo "trace file is empty" >&2; exit 1; }
  echo "ok: $(wc -l < "$trace_out") trace events"
}

stage_fault-determinism() {
  local fault_a fault_b
  fault_a="$(mktemp)"
  fault_b="$(mktemp)"
  trap "rm -f '$fault_a' '$fault_b'" EXIT
  cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$fault_a" faults >/dev/null
  cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$fault_b" faults >/dev/null
  [ -s "$fault_a" ] || { echo "fault trace is empty" >&2; exit 1; }
  diff -q "$fault_a" "$fault_b" || { echo "same-seed fault traces differ" >&2; exit 1; }
  echo "ok: $(wc -l < "$fault_a") fault-run trace events, replayed bit-identically"
}

# The sample-sort sweep (seeded keysets + seeded oversampling, 28 sweep
# points run in parallel) must replay bit-identically, trace stream
# included — the per-point recording sinks make the JSONL order canonical
# at any thread width.
stage_sorting-determinism() {
  local sort_a sort_b
  sort_a="$(mktemp)"
  sort_b="$(mktemp)"
  trap "rm -f '$sort_a' '$sort_b'" EXIT
  cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$sort_a" sorting >/dev/null
  cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$sort_b" sorting >/dev/null
  [ -s "$sort_a" ] || { echo "sorting trace is empty" >&2; exit 1; }
  diff -q "$sort_a" "$sort_b" || { echo "same-seed sorting traces differ" >&2; exit 1; }
  echo "ok: $(wc -l < "$sort_a") sorting-run trace events, replayed bit-identically"
}

# Three-way width matrix: the same seeded run at pool widths 1, 4, and 8
# must produce byte-identical traces. Width 4 is the interesting middle —
# it exercises chunk boundaries neither the degenerate width-1 pool nor the
# wide-8 pool hits. `faults` drives the hooked recovery supersteps,
# `broadcast-lb` the broadcast tree's sparse and dense rounds (the engine
# picks the path per superstep; both paths must give the same bytes),
# `sorting` the dense all-to-all exchange with pinned slots, the heaviest
# user of the per-block send lanes the dense pass fills in parallel, and
# `qsm-exercise` the QSM phases, whose `read_at` and `write_at` lanes
# resolve their slots in place while the dense pass seals them.
stage_cross-width-determinism() {
  local w1 wn scen w
  w1="$(mktemp)"
  wn="$(mktemp)"
  trap "rm -f '$w1' '$wn'" EXIT
  for scen in faults broadcast-lb sorting qsm-exercise; do
    PBW_THREADS=1 cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$w1" "$scen" >/dev/null
    # Guard against the vacuous pass: if tracing silently broke and the
    # files are empty, diff would succeed while proving nothing.
    [ -s "$w1" ] || { echo "width-1 $scen trace is empty" >&2; exit 1; }
    for w in 4 8; do
      PBW_THREADS="$w" cargo run --release -q -p pbw-bench --bin reproduce -- --quick --seed 7 --trace "$wn" "$scen" >/dev/null
      diff -q "$w1" "$wn" || { echo "$scen traces differ between 1 and $w threads" >&2; exit 1; }
    done
    echo "ok: $scen trace is byte-identical at PBW_THREADS=1, 4, and 8"
  done
}

# Seeded chaos soak: crashes x fault zoo, seeded, replay-diffed.
stage_chaos-soak() {
  scripts/chaos_soak.sh
}

# The repository benchmark (perfbench/, its own cargo package and
# workspace): its unit tests, then one short seed-7 run of every workload,
# and one of `sort` at seed 11, which checks every op against the sorted
# oracle away from the seed the digests were recorded at. Each run must
# check out — the last stdout line is one JSON object whose `correct` is
# true and whose `failed` op count is 0 (at seed 7 that includes the
# recorded cost digests in perfbench/digests.txt). On hosts with two or
# more cores, every workload runs again at pool width 2, where the pool
# runs the jobs the static chunk plan cuts into more than one chunk: the
# BSP closure pass on `sort` (8 blocks) and `broadcast`'s dense rounds,
# and the QSM closure pass at p = 16384 on `shared-memory` (whose
# p = 512 PRAM step stays inline under its 1024-processor minimum).
# Those runs must also print the recorded seed-7 digest.
stage_perfbench() {
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
  local out w threads want
  out="$(mktemp)"
  trap "rm -f '$out'" EXIT
  # perfbench_run <width> <workload> [seed, default 7]
  perfbench_run() {
    PBW_THREADS="$1" cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
      --workload "$2" --seed "${3:-7}" --seconds 1 --trace 0 > "$out"
    tail -n 1 "$out" | jq -e '.correct == true and .failed == 0' >/dev/null \
      || { echo "perfbench: $2 at width $1, seed ${3:-7} did not check out:" >&2; tail -n 1 "$out" >&2; exit 1; }
  }
  for w in sort broadcast recovery shared-memory; do
    perfbench_run 1 "$w"
    echo "ok: perfbench $w correct, 0 failed"
  done
  perfbench_run 1 sort 11
  echo "ok: perfbench sort at seed 11 correct, 0 failed"
  if [ "$(nproc)" -ge 2 ]; then
    for w in sort broadcast recovery shared-memory; do
      perfbench_run 2 "$w"
      want="$(awk -v w="$w" '$1 == w { print $2 }' perfbench/digests.txt)"
      grep -q "digest $want" "$out" \
        || { echo "perfbench: $w at width 2 did not print digest $want" >&2; exit 1; }
      echo "ok: perfbench $w at PBW_THREADS=2 correct, 0 failed, digest $want"
    done
  else
    echo "skip: perfbench width-2 runs need nproc >= 2 (have $(nproc))"
  fi
}

# The same-host A/B script, run A/A: it builds the checkout's own commit
# in a worktree under target/ and runs one alternating pair of 1-s
# `recovery` runs against the working tree, each of which must check out,
# and every report row must end in a verdict, so the script cannot rot.
# Its report informs; it gates nothing.
stage_perfbench-ab() {
  local report
  report="$(scripts/perfbench_ab.sh --base HEAD --pairs 1 --seconds 1 --workload recovery)"
  echo "$report"
  local rows
  rows="$(grep -cE '^recovery +[a-z_]+ .* (gain|worse|unresolved|same)$' <<<"$report" || true)"
  [ "$rows" -eq "$(jq '.end_to_end | length' BENCHMARK.json)" ] \
    || { echo "perfbench-ab: expected a verdict on every end-to-end metric, got $rows row(s)" >&2; exit 1; }
  echo "ok: perfbench_ab.sh printed a verdict for each end-to-end metric"
}

# The same-host trace A/B script, run A/A: it builds the checkout's own
# commit's `reproduce` in a worktree under target/ and runs every
# experiment `reproduce --list` prints at width 1, and the five with
# parallel engine passes at width 8, on both sides. Every run's stdout and
# JSONL trace must match byte for byte, so the script cannot rot.
stage_trace-ab() {
  scripts/trace_ab.sh --base HEAD
}

# The line-count script, run A/A: it counts the working tree and HEAD's
# files (read through `git archive`, nothing built), and must print a row
# for every crate under crates/ (the shims as one row) and the total, so
# the number a simplicity change reports cannot rot.
stage_loc() {
  local report crate
  report="$(scripts/loc.sh --base HEAD)"
  echo "$report"
  for crate in $(cd crates && ls -d */ | tr -d /) total; do
    grep -qE "^$crate +([0-9]+ +){4}[+-][0-9]+ +[+-][0-9]+$" <<<"$report" \
      || { echo "loc: no row for $crate" >&2; exit 1; }
  done
  echo "ok: loc.sh printed a row for every crate and the total"
}

stage_bench-gate() {
  scripts/bench_gate.sh
}

# Core-aware parallel speedup gate: >= 2x at 4 threads on multi-core
# hosts; overhead ceiling + cross-width determinism on 1-core containers.
stage_parallel-gate() {
  scripts/bench_gate.sh --parallel
}

# ThreadSanitizer needs -Zbuild-std (so std itself is instrumented), which
# needs the rust-src component — unavailable offline. Run the race check
# when the toolchain allows; the workflow's tsan job always runs it.
stage_tsan() {
  if rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    (cd crates/shims/rayon && RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="suppressions=/dev/null" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu -q)
    echo "ok: rayon shim pool is race-free under TSan"
  else
    echo "skipped: nightly rust-src not installed (offline); the ci.yml tsan job covers this"
  fi
}

# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

case "${1:-}" in
  --list)
    printf '%s\n' "${STAGES[@]}"
    exit 0
    ;;
  --stage)
    [ $# -eq 2 ] || { echo "usage: $0 --stage <name>" >&2; exit 2; }
    declare -F "stage_$2" >/dev/null || { echo "ci.sh: unknown stage '$2' (see --list)" >&2; exit 2; }
    "stage_$2"
    exit 0
    ;;
  "") ;;
  *)
    echo "usage: $0 [--list | --stage <name>]" >&2
    exit 2
    ;;
esac

fail_fast="${PBW_CI_FAIL_FAST:-0}"
declare -a names statuses times
failures=0

print_summary() {
  echo ""
  echo "== stage summary =="
  printf '%-26s %-8s %8s\n' "stage" "status" "seconds"
  printf '%-26s %-8s %8s\n' "-----" "------" "-------"
  local i
  for i in "${!names[@]}"; do
    printf '%-26s %-8s %8s\n' "${names[$i]}" "${statuses[$i]}" "${times[$i]}"
  done
  echo ""
  if [ "$failures" -gt 0 ]; then
    echo "CI red: $failures stage(s) failed"
  else
    echo "CI green: all ${#names[@]} stages passed"
  fi
}

for s in "${STAGES[@]}"; do
  echo ""
  echo "==== stage: $s ===="
  t0=$(date +%s)
  rc=0
  "$0" --stage "$s" || rc=$?
  t1=$(date +%s)
  names+=("$s")
  times+=("$((t1 - t0))")
  if [ "$rc" -eq 0 ]; then
    statuses+=("pass")
  else
    statuses+=("FAIL:$rc")
    failures=$((failures + 1))
    if [ "$fail_fast" = "1" ]; then
      echo "ci.sh: stage '$s' failed (rc=$rc) and PBW_CI_FAIL_FAST=1; stopping" >&2
      break
    fi
  fi
done

print_summary
[ "$failures" -eq 0 ]
