#!/usr/bin/env bash
# Benchmark-regression gate for the superstep hot path.
#
# Runs the `engine_hotpath` and `engine_scaling` Criterion benches (quick:
# 15-30 samples per scenario), extracts each scenario's [min median max]
# timing triple, and fails if any scenario's MINIMUM is more than
# THRESHOLD_PCT slower than the checked-in baseline in BENCH_engine.json.
#
# Why gate on the minimum, not the median: on the shared 1-core CI
# container, scheduler preemption inflates individual timed batches so
# often that the median of 30 batches swings 30-100% run-to-run (measured
# empirically — see DESIGN.md). The *minimum* batch time is the one
# statistic preemption cannot inflate: it tracks how fast the code can go,
# and it jitters only ~5-10% between runs. A real regression (e.g.
# reintroducing a per-message allocation on the delivery path) slows every
# batch, minimum included — so gating on the minimum loses no sensitivity,
# only noise. Medians are still recorded in the baseline (median_ns /
# seed_median_ns) as the before/after improvement history.
#
# Residual noise margin: even minimums occasionally catch a busy run
# (observed up to ~+50% on one scenario in one run out of six). The 25%
# threshold sits above the quiet-run jitter, and the gate additionally
# retries the whole bench up to BENCH_GATE_RUNS times (default 3), passing
# if any run is clean: a real regression fails every attempt, transient
# load does not.
#
# The --parallel mode is the core-aware speedup gate: it re-runs the
# parallel_speedup bench (crates/bench/benches/parallel.rs: the same
# workload pinned to 1-, 4-, and 8-thread pools) and branches on how many
# cores this host actually has:
#
#   nproc >= 4  the work-stealing pool has real cores to recruit, so
#               parallelism must WIN: median speedup threads_1/threads_4
#               must be >= SPEEDUP_FLOOR (2.0x) on both scenarios.
#   nproc < 4   speedup is physically impossible, so the gate degrades to
#               the only thing a narrow box can prove: a wide pool must be
#               nearly free. threads_8 median <= OVERHEAD_CEIL (1.25x) of
#               threads_1 — the static chunk plan is the mechanism: each
#               call site's minimum chunk length caps how many chunks a
#               job is cut into, and a job too short for two runs inline —
#               and the cross-width determinism suite
#               (tests/parallel_conformance.rs) must pass.
#
# Both branches sanity-check the committed BENCH_parallel.json: it must
# record host.nproc so readers know which branch produced its numbers.
#
# Usage:
#   scripts/bench_gate.sh                    # gate against BENCH_engine.json
#   scripts/bench_gate.sh --refresh-baseline # rewrite median_ns from this run
#                                            # (keeps seed_median_ns history)
#   scripts/bench_gate.sh --self-test        # prove the gate trips on a
#                                            # synthetic +50% slowdown
#   scripts/bench_gate.sh --parallel         # core-aware speedup/overhead gate
#   scripts/bench_gate.sh --refresh-parallel # rewrite BENCH_parallel.json
#                                            # from this host's run
#   BENCH_GATE_RUNS=1 scripts/bench_gate.sh  # disable the retry loop
#
# Baselines are recorded on the 1-core CI container with PBW_THREADS=1;
# refresh the baseline from the same environment the gate runs in, never
# from a fast developer machine.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_engine.json"
PARALLEL_BASELINE="BENCH_parallel.json"
THRESHOLD_PCT=25
SPEEDUP_FLOOR="2.0"
OVERHEAD_CEIL="1.25"
RUNS="${BENCH_GATE_RUNS:-3}"

refresh=0
selftest=0
parallel=0
refresh_parallel=0
for arg in "$@"; do
  case "$arg" in
    --refresh-baseline) refresh=1 ;;
    --self-test) selftest=1 ;;
    --parallel) parallel=1 ;;
    --refresh-parallel) refresh_parallel=1 ;;
    *)
      echo "usage: $0 [--refresh-baseline] [--self-test] [--parallel] [--refresh-parallel]" >&2
      exit 2
      ;;
  esac
done

command -v jq >/dev/null || {
  echo "bench_gate: jq is required" >&2
  exit 1
}

# ---------------------------------------------------------------------------
# Core-aware parallel speedup gate (--parallel / --refresh-parallel)
# ---------------------------------------------------------------------------

# Runs the parallel_speedup bench once and fills $par_measured with
# "<scenario> <width> <median_ns>" triples parsed from lines like
#   parallel_speedup/ring_superstep_p1024/threads_4  time: [171 µs 173 µs 181 µs]
par_measured=""
run_parallel_bench() {
  echo "== bench_gate: running parallel_speedup (pool widths 1/4/8, nproc=$(nproc)) =="
  local out
  out="$(cargo bench -q -p pbw-bench --bench parallel 2>&1)" || {
    printf '%s\n' "$out" >&2
    exit 1
  }
  printf '%s\n' "$out"
  par_measured="$(printf '%s\n' "$out" | awk '
    function factor(unit) {
      if (unit == "ns") return 1
      if (unit == "µs") return 1000
      if (unit == "ms") return 1000000
      if (unit == "s") return 1000000000
      return 0
    }
    /^parallel_speedup\// && / time: \[/ {
      n = split($1, part, "/")
      if (n != 3 || part[3] !~ /^threads_[0-9]+$/) next
      width = substr(part[3], 9)
      med = $5
      fmed = factor($6)
      if (fmed == 0) next
      printf "%s %d %.1f\n", part[2], width, med * fmed
    }
  ')"
  [ -n "$par_measured" ] || {
    echo "bench_gate: no parallel_speedup 'time: [..]' lines in bench output" >&2
    exit 1
  }
}

# check_parallel <cores>: on a wide host every scenario's threads_1/threads_4
# median ratio must clear SPEEDUP_FLOOR; on a narrow host threads_8 must stay
# within OVERHEAD_CEIL of threads_1 (a wide pool may not tax a serial box).
check_parallel() {
  awk -v cores="$1" -v floor="$SPEEDUP_FLOOR" -v ceil="$OVERHEAD_CEIL" '
    { med[$1 "," $2] = $3; if (!seen[$1]++) order[++n] = $1 }
    END {
      bad = 0
      for (i = 1; i <= n; i++) {
        s = order[i]
        if (!((s ",1") in med) || !((s ",4") in med) || !((s ",8") in med)) {
          printf "bench_gate: FAIL %s: missing a pool width (need 1, 4, 8)\n", s
          bad = 1
          continue
        }
        if (cores >= 4) {
          speedup = med[s ",1"] / med[s ",4"]
          if (speedup < floor) {
            printf "bench_gate: FAIL %s: %.2fx speedup at 4 threads < %.1fx floor (nproc=%d)\n",
              s, speedup, floor, cores
            bad = 1
          } else {
            printf "bench_gate: ok   %s: %.2fx speedup at 4 threads (floor %.1fx, nproc=%d)\n",
              s, speedup, floor, cores
          }
        } else {
          overhead = med[s ",8"] / med[s ",1"]
          if (overhead > ceil) {
            printf "bench_gate: FAIL %s: threads_8 is %.2fx threads_1 > %.2fx ceiling (nproc=%d)\n",
              s, overhead, ceil, cores
            bad = 1
          } else {
            printf "bench_gate: ok   %s: threads_8 is %.2fx threads_1 (ceiling %.2fx, nproc=%d)\n",
              s, overhead, ceil, cores
          }
        }
      }
      if (n == 0) { print "bench_gate: FAIL no parallel scenarios parsed"; bad = 1 }
      exit bad
    }
  ' <(printf '%s\n' "$par_measured")
}

if [ "$refresh_parallel" -eq 1 ]; then
  run_parallel_bench
  tmp="$(mktemp)"
  jq -n '{
    benchmark: "parallel_speedup (crates/bench/benches/parallel.rs)",
    hardware_note: "Speedup is bounded by physical cores: on a 1-core container a wide pool can only add overhead, so the honest numbers there are <= 1x and the gate degrades to the 1.25x overhead ceiling. Re-run scripts/bench_gate.sh --refresh-parallel on a multi-core host for real speedups; host.nproc below records which kind of host produced these numbers.",
    gate: "scripts/bench_gate.sh --parallel: speedup_4_over_1 >= 2.0 on every scenario when nproc >= 4; threads_8 within 1.25x of threads_1 (plus the cross-width determinism suite) when nproc < 4",
    host: { nproc: 0, os: "linux" },
    units: "median nanoseconds per iteration (middle value of [min median max])",
    results: {}
  }' > "$tmp"
  while read -r scenario width med; do
    jq --arg s "$scenario" --arg k "threads_${width}_ns" --argjson v "$med" \
      '.results[$s][$k] = $v' "$tmp" > "$tmp.2" && mv "$tmp.2" "$tmp"
  done <<< "$par_measured"
  jq --argjson n "$(nproc)" '
    .host.nproc = $n
    | .results |= with_entries(.value |= (
        . + { speedup_4_over_1: ((.threads_1_ns / .threads_4_ns * 100 | round) / 100),
              speedup_8_over_1: ((.threads_1_ns / .threads_8_ns * 100 | round) / 100) }
      ))
  ' "$tmp" > "$tmp.2" && mv "$tmp.2" "$tmp"
  mv "$tmp" "$PARALLEL_BASELINE"
  echo "bench_gate: parallel baseline refreshed into $PARALLEL_BASELINE (nproc=$(nproc))"
  exit 0
fi

if [ "$parallel" -eq 1 ]; then
  # The committed record must say which kind of host produced it — a reader
  # (and the gate itself) interprets 0.9x very differently at nproc=1 vs 8.
  jq -e '.host.nproc | numbers' "$PARALLEL_BASELINE" >/dev/null 2>&1 || {
    echo "bench_gate: $PARALLEL_BASELINE missing host.nproc; run $0 --refresh-parallel" >&2
    exit 1
  }
  cores="$(nproc)"
  ok=0
  for attempt in $(seq 1 "$RUNS"); do
    run_parallel_bench
    if check_parallel "$cores"; then
      ok=1
      break
    fi
    if [ "$attempt" -lt "$RUNS" ]; then
      echo "bench_gate: parallel attempt $attempt/$RUNS missed; retrying (transient load?)"
    fi
  done
  [ "$ok" -eq 1 ] || exit 1
  if [ "$cores" -lt 4 ]; then
    # Narrow host: speedup floors are unprovable here, so the determinism
    # matrix is the rest of the degraded contract — byte-identical results
    # at every pool width is what makes multi-core wins safe to claim.
    echo "== bench_gate: nproc=$cores < 4, running cross-width determinism suite =="
    for w in 1 4 8; do
      PBW_THREADS="$w" cargo test --release -q --test parallel_conformance
    done
    echo "bench_gate: parallel gate (degraded, nproc=$cores): overhead ceiling + determinism suite passed"
  else
    echo "bench_gate: parallel gate (nproc=$cores): all scenarios >= ${SPEEDUP_FLOOR}x at 4 threads"
  fi
  exit 0
fi

# The benches the gate pins: the dense superstep hot path and the
# active-set scaling sweep (PR 5).
BENCHES=(engine_hotpath engine_scaling)

# Runs the gated benches once and fills $measured with
# "<name> <min_ns> <median_ns>" triples. The Criterion shim prints one
# line per scenario:
#   engine_hotpath/bsp_ring/p1024  time: [27.9 µs 28.9 µs 32.7 µs]
measured=""
run_bench() {
  echo "== bench_gate: running ${BENCHES[*]} (PBW_THREADS=${PBW_THREADS:-1}) =="
  local out="" bench one
  for bench in "${BENCHES[@]}"; do
    one="$(PBW_THREADS="${PBW_THREADS:-1}" cargo bench -q -p pbw-bench --bench "$bench" 2>&1)" || {
      printf '%s\n' "$one" >&2
      exit 1
    }
    out+="$one"$'\n'
  done
  printf '%s\n' "$out"
  measured="$(printf '%s\n' "$out" | awk '
    function factor(unit) {
      if (unit == "ns") return 1
      if (unit == "µs") return 1000
      if (unit == "ms") return 1000000
      if (unit == "s") return 1000000000
      return 0
    }
    / time: \[/ {
      name = $1
      min = substr($3, 2)
      fmin = factor($4)
      med = $5
      fmed = factor($6)
      if (fmin == 0 || fmed == 0) next
      printf "%s %.1f %.1f\n", name, min * fmin, med * fmed
    }
  ')"
  [ -n "$measured" ] || {
    echo "bench_gate: no 'time: [..]' lines in bench output" >&2
    exit 1
  }
}

if [ "$refresh" -eq 1 ]; then
  run_bench
  tmp="$(mktemp)"
  if [ -s "$BASELINE" ]; then
    cp "$BASELINE" "$tmp"
  else
    cat > "$tmp" << 'EOF'
{
  "benchmark": "engine_hotpath + engine_scaling (crates/bench/benches/)",
  "hardware_note": "Recorded on the 1-core CI container (nproc = 1) with PBW_THREADS=1. Refresh only from the environment the gate runs in.",
  "host": { "nproc": 1, "os": "linux" },
  "units": "nanoseconds per iteration; min_ns/median_ns are the first/middle values of the shim's [min median max] triple",
  "gate": "scripts/bench_gate.sh fails if any scenario's minimum regresses by more than 25% vs min_ns (the median is too preemption-noisy on the shared 1-core container); median_ns and seed_median_ns keep the before/after improvement history",
  "results": {}
}
EOF
  fi
  while read -r name min med; do
    jq --arg k "$name" --argjson mn "$min" --argjson md "$med" \
      '.results[$k] = { min_ns: $mn, median_ns: $md, seed_median_ns: (.results[$k].seed_median_ns // $md) }' \
      "$tmp" > "$tmp.2" && mv "$tmp.2" "$tmp"
  done <<< "$measured"
  jq --argjson n "$(nproc)" '.host.nproc = $n' "$tmp" > "$tmp.2" && mv "$tmp.2" "$tmp"
  mv "$tmp" "$BASELINE"
  echo "bench_gate: baseline refreshed into $BASELINE"
  exit 0
fi

[ -s "$BASELINE" ] || {
  echo "bench_gate: $BASELINE missing or empty; run $0 --refresh-baseline" >&2
  exit 1
}
baseline_pairs="$(jq -r '.results | to_entries[] | "\(.key) \(.value.min_ns)"' "$BASELINE")"
[ -n "$baseline_pairs" ] || {
  echo "bench_gate: no baselines in $BASELINE; run $0 --refresh-baseline" >&2
  exit 1
}

# check <scale>: compare measured minimums (scaled, for the self-test)
# against the baseline min_ns. Exits nonzero on any regression or
# coverage gap.
check() {
  awk -v scale="$1" -v thr="$THRESHOLD_PCT" '
    NR == FNR { base[$1] = $2; next }
    { meas[$1] = $2 * scale }
    END {
      bad = 0
      for (name in base) {
        if (!(name in meas)) {
          printf "bench_gate: FAIL %s: in baseline but not in bench output\n", name
          bad = 1
          continue
        }
        allowed = base[name] * (1 + thr / 100)
        if (meas[name] > allowed) {
          printf "bench_gate: FAIL %s: %.1f ns vs baseline %.1f ns (+%.1f%% > +%d%%)\n",
            name, meas[name], base[name], (meas[name] / base[name] - 1) * 100, thr
          bad = 1
        } else {
          printf "bench_gate: ok   %s: %.1f ns vs baseline %.1f ns (%+.1f%%)\n",
            name, meas[name], base[name], (meas[name] / base[name] - 1) * 100
        }
      }
      for (name in meas) {
        if (!(name in base)) {
          printf "bench_gate: FAIL %s: no baseline (run --refresh-baseline)\n", name
          bad = 1
        }
      }
      exit bad
    }
  ' <(printf '%s\n' "$baseline_pairs") <(printf '%s\n' "$measured")
}

# Run the bench up to $RUNS times; pass as soon as one run is clean.
# Transient container load inflates whole runs, so a retry outlives it;
# a genuine regression fails every attempt.
gate_with_retries() {
  local attempt
  for attempt in $(seq 1 "$RUNS"); do
    run_bench
    if check 1.0; then
      return 0
    fi
    if [ "$attempt" -lt "$RUNS" ]; then
      echo "bench_gate: attempt $attempt/$RUNS regressed; retrying (transient load?)"
    fi
  done
  return 1
}

if [ "$selftest" -eq 1 ]; then
  echo "== bench_gate --self-test: shipped code must pass =="
  gate_with_retries || {
    echo "bench_gate self-test: shipped code failed the gate" >&2
    exit 1
  }
  echo "== bench_gate --self-test: a synthetic +50% slowdown must fail =="
  if check 1.5; then
    echo "bench_gate self-test: synthetic slowdown was NOT caught" >&2
    exit 1
  fi
  echo "bench_gate self-test: gate passes shipped code and catches a synthetic +50% slowdown"
  exit 0
fi

gate_with_retries || exit 1
echo "bench_gate: all scenario minimums within +${THRESHOLD_PCT}% of $BASELINE"
