//! `pbw-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sort|broadcast|recovery|shared-memory> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One client runs one op at a time (a closed loop) for the given number of
//! seconds, checks every op's outputs outside the timed window, and prints
//! a manifest, a human-readable report and, as its last line, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `perfbench/README.md`.

mod procfs;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{take_counts, Broadcast, Recovery, SharedMemory, Sort, Workload};

/// Seed whose cost digests `digests.txt` records.
const DEFAULT_SEED: u64 = 7;
/// Least ops per measured window: the median then has ten samples above it.
const MIN_OPS: usize = 2 * stats::MIN_ABOVE;
/// Hard stop for a window that has not reached `MIN_OPS` (keeps a run well
/// inside its time limit on a very slow host).
const MAX_WINDOW: Duration = Duration::from_secs(120);
/// Set-ups timed per untraced run: this process plus fresh child processes,
/// so each one pays the once-per-process probes again.
const SETUP_REPEATS: usize = 3;
/// `msgs_per_s`'s regression bound in `BENCHMARK.json`; the self-test's
/// planted delay must move `recovery` by more than this, and `sort` by less.
const BOUND: f64 = 0.25;
/// Pool width when `PBW_THREADS` is unset. On a shared 2-vCPU host a
/// width-2 pool waits on whichever core a neighbouring process holds, and
/// `broadcast`'s run-to-run spread of `op_ms_p50` over five seeds measured
/// 13% at width 2 against 7% at width 1; set `PBW_THREADS=2` to measure the
/// pool itself.
const DEFAULT_WIDTH: usize = 1;
/// Recorded cost digests of the first op of each workload at `DEFAULT_SEED`.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        self_test: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--self-test" => args.self_test = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// What shaped this process's run: the resolved probes and their sources.
struct Manifest {
    nproc: usize,
    width: usize,
    chunk_floor_ns: u64,
    chunk_probe_ms: f64,
    factor: usize,
    factor_source: &'static str,
    density_probe_ms: f64,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool width to measure at: `PBW_THREADS` if set, else
/// [`DEFAULT_WIDTH`]. A width above `nproc` would measure
/// oversubscription, not the program: refuse.
fn pool_width(nproc: usize) -> Result<usize, String> {
    let Ok(raw) = std::env::var("PBW_THREADS") else {
        return Ok(DEFAULT_WIDTH);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > nproc => Err(format!(
            "PBW_THREADS={n} exceeds nproc={nproc}; refusing to run"
        )),
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("PBW_THREADS={raw:?} is not a positive integer")),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Resolve both once-per-process probes, timing each.
fn probe() -> Manifest {
    let t = Instant::now();
    let chunk_floor_ns = rayon::tune::chunk_floor_ns();
    let chunk_probe_ms = ms_since(t);
    let env_factor = std::env::var("PBW_DENSITY_FACTOR")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .is_some_and(|n| n > 0);
    let t = Instant::now();
    let factor = pbw_sim::density::crossover_factor();
    let density_probe_ms = ms_since(t);
    Manifest {
        nproc: nproc(),
        width: rayon::current_num_threads(),
        chunk_floor_ns,
        chunk_probe_ms,
        factor,
        factor_source: if env_factor {
            "env PBW_DENSITY_FACTOR"
        } else {
            "probe"
        },
        density_probe_ms,
    }
}

/// The commit checked out in the working directory, read from `.git`.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

fn print_manifest(m: &Manifest, workload: &str, seed: u64) {
    println!("# manifest");
    println!("#   workload         {workload}");
    println!("#   seed             {seed}");
    println!("#   nproc            {}", m.nproc);
    println!("#   pool width       {}", m.width);
    println!(
        "#   chunk floor      {} ns (probe, {:.3} ms)",
        m.chunk_floor_ns, m.chunk_probe_ms
    );
    println!(
        "#   density factor   {} ({}, {:.3} ms)",
        m.factor, m.factor_source, m.density_probe_ms
    );
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PBW_"))
        .collect();
    vars.sort();
    if vars.is_empty() {
        println!("#   PBW_* vars       (none set)");
    }
    for (k, v) in vars {
        println!("#   {k:<16} {v}");
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("#   build profile    {profile}");
    println!("#   git commit       {}", git_commit());
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One measured window of back-to-back ops.
#[derive(Default)]
struct Window {
    op_ms: Vec<f64>,
    failed: usize,
    op_s_total: f64,
    cpu_s: f64,
    minor_faults: u64,
    counts: BTreeMap<&'static str, f64>,
    spans: Vec<spans::Span>,
}

impl Window {
    fn ops(&self) -> f64 {
        self.op_ms.len() as f64
    }

    fn sorted_ms(&self) -> Vec<f64> {
        let mut v = self.op_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50(&self) -> f64 {
        stats::percentile(&self.sorted_ms(), 0.5).expect("MIN_OPS ops give a median")
    }

    /// Simulated messages completed per second of op time.
    fn msgs_per_s(&self) -> f64 {
        self.counts.get("msgs").copied().unwrap_or(0.0) / self.op_s_total
    }

    fn per_op(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.ops()
    }
}

/// Run ops for `length` (and at least `MIN_OPS` of them), checking each
/// against its oracle and against the digest of the warm-up op.
fn measure<W: Workload>(w: &W, length: Duration, traced: bool, digest: u64) -> Window {
    let mut win = Window::default();
    spans::set_enabled(traced);
    let start = Instant::now();
    while (start.elapsed() < length || win.op_ms.len() < MIN_OPS) && start.elapsed() < MAX_WINDOW {
        let before = procfs::cpu_sample();
        let (out, wall) = spans::op(win.op_ms.len() as u32, || w.run());
        let after = procfs::cpu_sample();
        let checked = w.check(&out);
        drop(out);
        win.op_ms.push(wall.as_secs_f64() * 1e3);
        win.op_s_total += wall.as_secs_f64();
        win.cpu_s += after.cpu_s - before.cpu_s;
        win.minor_faults += after.minor_faults - before.minor_faults;
        if !checked.ok || checked.digest != digest {
            win.failed += 1;
        }
        for (k, v) in take_counts() {
            *win.counts.entry(k).or_default() += v;
        }
    }
    spans::set_enabled(false);
    win.spans = spans::take();
    win
}

/// Set up a workload: generate its inputs and run one checked warm-up op.
/// Returns the workload, whether the warm-up op passed, and its digest.
fn set_up<W: Workload>(make: impl FnOnce() -> W) -> (W, bool, u64) {
    let w = make();
    let out = w.run();
    let checked = w.check(&out);
    drop(out);
    take_counts();
    (w, checked.ok, checked.digest)
}

fn expected_digest(workload: &str) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next()? == workload).then_some(())?;
            u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()
        })
}

/// Time `SETUP_REPEATS - 1` set-ups in fresh child processes.
fn child_setups(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUP_REPEATS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--setup-only",
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn set-up child: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up child failed: {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| "set-up child printed no setup_s".to_string())
        })
        .collect()
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, metrics: &[(String, f64, &str)]) {
    println!("{title}");
    for (name, v, unit) in metrics {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Spans that time dense supersteps: direct `superstep` calls, and on
/// `sort` every `apply_next` call, which runs exactly one dense superstep
/// (program compute included).
const DENSE_SPANS: [&str; 6] = [
    "sim.bsp.dense",
    "algos.sort.local",
    "algos.sort.select",
    "algos.sort.bcast",
    "algos.sort.exchange",
    "algos.sort.merge",
];

const RECOVERY_PHASES: [&str; 5] = ["send", "ack", "backoff", "retransmit", "drain"];

fn layer_metrics(win: &Window, m: &Manifest) -> Vec<(String, f64, &'static str)> {
    let totals = spans::totals(&win.spans);
    let self_ms = |names: &[&str]| -> f64 {
        let ns: u64 = names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_ns)
            .sum();
        ns as f64 / 1e6 / win.ops()
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));

    for kind in ["local", "select", "bcast", "exchange", "merge"] {
        put(
            &format!("algos.sort.{kind}_ms"),
            self_ms(&[&format!("algos.sort.{kind}")]),
            "ms",
        );
    }
    put(
        "algos.sort.max_bucket",
        win.per_op("algos.sort.max_bucket"),
        "count",
    );

    let dense_ms = self_ms(&DENSE_SPANS);
    let active_ms = self_ms(&["sim.bsp.active"]);
    let delivered = win.per_op("sim.bsp.delivered");
    put("sim.bsp.dense_ms", dense_ms, "ms");
    put(
        "sim.bsp.dense_calls",
        win.per_op("sim.bsp.dense_calls"),
        "count",
    );
    put("sim.bsp.active_ms", active_ms, "ms");
    put(
        "sim.bsp.active_calls",
        win.per_op("sim.bsp.active_calls"),
        "count",
    );
    put("sim.bsp.new_ms", self_ms(&["sim.bsp.new"]), "ms");
    put("sim.bsp.delivered", delivered, "count");
    let timed = dense_ms + active_ms;
    let ns_per_msg = if delivered > 0.0 && timed > 0.0 {
        timed * 1e6 / delivered
    } else {
        0.0
    };
    put("sim.bsp.ns_per_msg", ns_per_msg, "ns");

    put("sim.density.factor", m.factor as f64, "count");
    let calls = win.per_op("sim.density.calls");
    let sparse = if calls > 0.0 {
        win.per_op("sim.density.sparse") / calls
    } else {
        0.0
    };
    put("sim.density.sparse_share", sparse, "share");
    put("sim.density.probe_ms", m.density_probe_ms, "ms");

    put("sim.qsm.new_ms", self_ms(&["sim.qsm.new"]), "ms");
    put("sim.qsm.phase_ms", self_ms(&["sim.qsm.phase"]), "ms");
    put("sim.qsm.phases", win.per_op("sim.qsm.phases"), "count");
    put("sim.qsm.requests", win.per_op("sim.qsm.requests"), "count");

    put("pram.realize_ms", self_ms(&["pram.realize"]), "ms");
    put("pram.time", win.per_op("pram.time"), "steps");
    put("pram.work", win.per_op("pram.work"), "ops");

    put("core.schedule_ms", self_ms(&["core.schedule"]), "ms");
    put(
        "core.schedule_calls",
        win.per_op("core.schedule_calls"),
        "count",
    );
    put(
        "core.qsm_schedule_ms",
        self_ms(&["core.qsm_schedule"]),
        "ms",
    );
    put(
        "core.recovery.new_ms",
        self_ms(&["core.recovery.new"]),
        "ms",
    );
    for ph in RECOVERY_PHASES {
        let span = format!("core.recovery.{ph}");
        put(&format!("{span}_ms"), self_ms(&[&span]), "ms");
        put(
            &format!("{span}_count"),
            win.per_op(&format!("{span}_count")),
            "count",
        );
    }
    put(
        "core.recovery.outcome_ms",
        self_ms(&["core.recovery.outcome"]),
        "ms",
    );
    put(
        "core.recovery.rounds",
        win.per_op("core.recovery.rounds"),
        "count",
    );
    put(
        "core.recovery.resent_ratio",
        win.per_op("core.recovery.resent_ratio"),
        "share",
    );

    for f in ["dropped", "duplicated", "delayed"] {
        put(
            &format!("faults.{f}"),
            win.per_op(&format!("faults.{f}")),
            "count",
        );
    }
    put("faults.goodput", win.per_op("faults.goodput"), "share");

    put("models.price_ms", self_ms(&["models.price"]), "ms");

    put("pool.width", m.width as f64, "count");
    put("pool.chunk_floor_ns", m.chunk_floor_ns as f64, "ns");
    put("proc.cpu_util", win.cpu_s / win.op_s_total, "share");
    put(
        "proc.minor_faults_per_op",
        win.minor_faults as f64 / win.ops(),
        "count",
    );
    let coverage = spans::child_coverage(&win.spans);
    let min_cov = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    put("trace.child_coverage_min", min_cov, "share");
    out
}

/// The traced table: every span name by self time, with its share of the
/// mean op.
fn print_span_table(win: &Window) {
    let totals = spans::totals(&win.spans);
    let op_ms = win.op_s_total * 1e3 / win.ops();
    let mut rows: Vec<_> = totals.iter().filter(|(n, _)| **n != "op").collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    println!(
        "traced spans ({} ops, mean op {:.3} ms)\n  {:<28} {:>9} {:>11} {:>11} {:>7}",
        win.op_ms.len(),
        op_ms,
        "span",
        "calls/op",
        "total ms/op",
        "self ms/op",
        "self %"
    );
    for (name, t) in rows {
        let self_ms = t.self_ns as f64 / 1e6 / win.ops();
        println!(
            "  {:<28} {:>9.2} {:>11.3} {:>11.3} {:>6.1}%",
            name,
            t.calls as f64 / win.ops(),
            t.total_ns as f64 / 1e6 / win.ops(),
            self_ms,
            100.0 * self_ms / op_ms
        );
    }
    if let Some(op) = totals.get("op") {
        println!(
            "  {:<28} {:>9} {:>11} {:>11.3} {:>6.1}%   (op time no child span covers)",
            "(op self)",
            "",
            "",
            op.self_ns as f64 / 1e6 / win.ops(),
            100.0 * op.self_ns as f64 / 1e6 / win.ops() / op_ms
        );
    }
    let cov = spans::child_coverage(&win.spans);
    let mean = cov.iter().sum::<f64>() / cov.len().max(1) as f64;
    let min = cov.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "  child-span coverage of op wall time: min {:.4}, mean {:.4}",
        min, mean
    );
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

fn run<W: Workload>(
    args: &Args,
    name: &str,
    t0: Instant,
    m: &Manifest,
    make: impl FnOnce() -> W,
) -> ExitCode {
    let (w, warm_ok, digest) = set_up(make);
    let setup_s = t0.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    let length = Duration::from_secs_f64(args.seconds);
    let (untraced, traced) = if args.trace {
        // Half the time untraced, half traced: the difference of the two
        // medians is the tracing overhead.
        let a = measure(&w, length / 2, false, digest);
        let b = measure(&w, length / 2, true, digest);
        (a, Some(b))
    } else {
        (measure(&w, length, false, digest), None)
    };
    let reference_ok = w.finish();

    let digest_ok = if args.seed == DEFAULT_SEED {
        match expected_digest(name) {
            Some(want) if want == digest => true,
            Some(want) => {
                println!("cost digest {digest:#018x} differs from the recorded {want:#018x}");
                false
            }
            None => {
                println!("no recorded cost digest for {name}; this seed gives {digest:#018x}");
                false
            }
        }
    } else {
        true
    };

    let windows: Vec<&Window> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: usize = windows.iter().map(|w| w.op_ms.len()).sum();
    let failed: usize = windows.iter().map(|w| w.failed).sum();
    let correct = warm_ok && reference_ok && digest_ok && failed == 0;

    let sorted = untraced.sorted_ms();
    let p50 = untraced.p50();
    println!(
        "checks: warm-up {}, reference {}, digest {digest:#018x} {}, failed {failed}/{attempted} (failed_ratio {})",
        if warm_ok { "ok" } else { "FAILED" },
        if reference_ok { "ok" } else { "FAILED" },
        if digest_ok { "ok" } else { "MISMATCH" },
        failed as f64 / attempted as f64
    );
    println!(
        "op wall time over {} untraced ops: p50 {p50:.3} ms",
        sorted.len()
    );
    let in_order: Vec<String> = untraced.op_ms.iter().map(|x| format!("{x:.1}")).collect();
    println!("  in run order (ms): {}", in_order.join(" "));
    match stats::percentile(&sorted, 0.9) {
        Some(p90) => println!("  p90 {p90:.3} ms"),
        None => println!(
            "  p90 not reported: {} samples above its rank, fewer than {}",
            stats::samples_above(sorted.len(), 0.9),
            stats::MIN_ABOVE
        ),
    }

    let metrics = if let Some(tw) = &traced {
        print_span_table(tw);
        println!(
            "tracing overhead: traced p50 {:.3} ms - untraced p50 {:.3} ms = {:+.3} ms",
            tw.p50(),
            p50,
            tw.p50() - p50
        );
        let per_layer = layer_metrics(tw, m);
        let out = format!("perfbench/out/spans-{name}-seed{}.jsonl", args.seed);
        match spans::write_jsonl(std::path::Path::new(&out), &tw.spans) {
            Ok(()) => println!("spans written to {out}"),
            Err(e) => println!("spans not written to {out}: {e}"),
        }
        print_metrics("per-layer metrics (traced window, per op)", &per_layer);
        per_layer
    } else {
        let children = match child_setups(name, args.seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let mut setups = vec![setup_s];
        setups.extend(children);
        println!("set-up times (s): {setups:?}");
        let e2e = vec![
            ("msgs_per_s".to_string(), untraced.msgs_per_s(), "1/s"),
            ("peak_rss_mb".to_string(), procfs::peak_rss_mb(), "MB"),
            ("setup_s".to_string(), stats::median(&setups), "s"),
        ];
        print_metrics("end-to-end metrics", &e2e);
        e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// Plant a delay in the scheduler wrapper and show the benchmark sees it
/// where it is: the traced table blames `core.schedule`, `recovery`'s
/// median and throughput move by more than the bound, `sort`'s (which
/// never schedules) by less.
fn self_test(seed: u64, seconds: f64) -> ExitCode {
    let length = Duration::from_secs_f64(seconds);
    let (rec, ok, digest) = set_up(|| Recovery::new(seed));
    assert!(ok, "recovery warm-up op failed its check");
    let base = measure(&rec, length, false, digest);
    let calls = base.per_op("core.schedule_calls");
    let delay_ms = 3.0 * BOUND * base.p50() / calls;
    println!(
        "recovery: p50 {:.3} ms, {calls} scheduler calls per op; planting {delay_ms:.3} ms per call",
        base.p50()
    );
    workloads::plant_schedule_delay(Duration::from_secs_f64(delay_ms / 1e3));
    let planted = measure(&rec, length, false, digest);
    let planted_traced = measure(&rec, length, true, digest);
    workloads::plant_schedule_delay(Duration::ZERO);
    let base_traced = measure(&rec, length, true, digest);
    drop(rec);

    let before = spans::totals(&base_traced.spans);
    let after = spans::totals(&planted_traced.spans);
    let mut deltas: Vec<(&str, f64)> = after
        .iter()
        .map(|(name, t)| {
            let was = before.get(name).map_or(0, |b| b.self_ns) as f64 / 1e6 / base_traced.ops();
            (*name, t.self_ns as f64 / 1e6 / planted_traced.ops() - was)
        })
        .collect();
    deltas.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("self-time change per op, planted minus clean (traced):");
    for (name, d) in &deltas {
        println!("  {name:<28} {d:+.3} ms");
    }
    let blamed = deltas.first().map_or("", |d| d.0);

    let (sort, ok, digest) = set_up(|| Sort::new(seed));
    assert!(ok, "sort warm-up op failed its check");
    let sort_base = measure(&sort, length, false, digest);
    workloads::plant_schedule_delay(Duration::from_secs_f64(delay_ms / 1e3));
    let sort_planted = measure(&sort, length, false, digest);
    workloads::plant_schedule_delay(Duration::ZERO);

    // Both the reported median and the gated throughput must see it.
    let moves = |name: &str, clean: &Window, slow: &Window, should_move: bool| {
        let p50 = slow.p50() / clean.p50() - 1.0;
        let rate = 1.0 - slow.msgs_per_s() / clean.msgs_per_s();
        let ok = if should_move {
            p50 > BOUND && rate > BOUND
        } else {
            p50.abs() < BOUND && rate.abs() < BOUND
        };
        let want = if should_move {
            "more than"
        } else {
            "less than"
        };
        let what = format!(
            "{name}: op_ms_p50 {:+.1}%, msgs_per_s worse by {:.1}% (want {want} {:.0}%)",
            100.0 * p50,
            100.0 * rate,
            100.0 * BOUND
        );
        (ok, what)
    };
    let checks = [
        (
            blamed == "core.schedule",
            format!("traced table blames {blamed:?} (want \"core.schedule\")"),
        ),
        moves("recovery", &base, &planted, true),
        moves("sort", &sort_base, &sort_planted, false),
    ];
    let mut pass = base.failed + planted.failed + sort_base.failed + sort_planted.failed == 0;
    for (ok, what) in &checks {
        println!("{} {what}", if *ok { "ok  " } else { "FAIL" });
        pass &= ok;
    }
    println!("self-test {}", if pass { "PASSED" } else { "FAILED" });
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pbw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let width = match pool_width(nproc()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("pbw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("building a pool handle cannot fail")
        .install(|| run_main(&args, t0))
}

fn run_main(args: &Args, t0: Instant) -> ExitCode {
    let m = probe();
    let name = args.workload.clone().unwrap_or_else(|| "self-test".into());
    print_manifest(&m, &name, args.seed);
    if args.self_test {
        return self_test(args.seed, args.seconds.min(4.0));
    }
    match name.as_str() {
        "sort" => run(args, &name, t0, &m, || Sort::new(args.seed)),
        "broadcast" => run(args, &name, t0, &m, || Broadcast::new(args.seed)),
        "recovery" => run(args, &name, t0, &m, || Recovery::new(args.seed)),
        _ => run(args, &name, t0, &m, || SharedMemory::new(args.seed)),
    }
}
