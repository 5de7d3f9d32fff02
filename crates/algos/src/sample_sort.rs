//! BSP sample sort as a *real-algorithm* workload: one key per input slot,
//! `p` processors, `⌈lg p⌉ + 3` genuine supersteps on [`BspMachine`].
//!
//! Unlike [`crate::sort`] (which picks its own processor count to hit the
//! paper's `O(n/m)` bound), this module keeps the machine the caller gave
//! it and lets the *data* decide the communication pattern: the all-to-all
//! bucket exchange sends each key to the bucket its splitter interval
//! names, so skewed inputs produce skewed h-relations that no one
//! hand-picked. That makes it the first workload here whose BSP(g) vs
//! BSP(m) gap is an emergent property — bucket imbalance λ =
//! `max_bucket / (n/p)` is *exactly* the factor by which the local model's
//! `g·h` price exceeds the global model's aggregate-slot price on the
//! exchange superstep (the sends are staggered below `m` per slot, so
//! BSP(m) charges `n/m` while BSP(g) charges `g·λ·n/p = λ·n/m` under
//! `from_gap` parameters).
//!
//! Superstep layout (`r = ⌈lg p⌉`):
//!
//! | step | who | what |
//! |---|---|---|
//! | 0 | all | local sort of `n/p` keys; send `ratio` samples to pid 0 |
//! | 1 | pid 0 | sort samples, select `p−1` splitters, start broadcast |
//! | 2..=r | pids < 2^(s−1) | store-then-forward splitter doubling tree |
//! | r+1 | all | partition by splitters; staggered all-to-all exchange |
//! | r+2 | all | sort the received bucket |
//!
//! Oversampling is either [`Sampling::Seeded`] (per-pid ChaCha8 draws,
//! ratio knob) or [`Sampling::Regular`] (evenly spaced local quantiles —
//! deterministic regular sampling à la Shi–Schaeffer). Everything flows
//! through the unmodified engine: `ProfileBuilder` sees the real
//! h-relations, trace sinks see the real envelopes, and both cost models
//! price the same run.
//!
//! [`run_with_checkpointed_recovery`] composes the sort with the fault
//! zoo: sample sort is lockstep (a single lost or duplicated key corrupts
//! the output), so recovery is *taint-based* — any superstep whose fault
//! ledger moved (or that left messages in flight) is voided and replayed
//! from the last clean checkpoint under a fresh [`WallClockHook`] wall
//! time, exactly the scheduler driver's discipline in
//! `pbw_core::recovery::checkpoint`.

use crate::sort::stagger;
use crate::Measured;
use pbw_core::{CheckpointConfig, WallClockHook};
use pbw_models::MachineParams;
use pbw_sim::bsp::SuperstepReport;
use pbw_sim::{BspMachine, CostSummary, DeliveryHook, FaultStats, Outbox, Pid, Word};
use pbw_trace::TraceSink;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// `len · ⌈lg len⌉`-ish work charge for a comparison sort/merge of `len`
/// keys (same convention as [`crate::sort`]).
fn lgwork(len: usize) -> u64 {
    let len = len.max(1) as u64;
    len * (64 - len.leading_zeros()) as u64
}

/// Input skew families for the sweep. The partition rule routes *equal*
/// keys to one bucket, so duplicate mass is the knob that separates the
/// models: no oversampling ratio can split a value's copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyDist {
    /// I.i.d. uniform over a wide range — near-distinct keys; high ratios
    /// drive the bucket imbalance λ toward 1.
    Uniform,
    /// Zipf-like head: half the mass lands on the hottest head value,
    /// spread over 16 tie-break values (≈ one full block of copies each),
    /// so low ratios lump the head into one bucket (λ ≫ 1) and even exact
    /// splitters keep λ ≈ 2 — ties are unsplittable.
    Zipf,
    /// Already sorted, all distinct: regular sampling recovers the block
    /// boundaries almost exactly.
    PreSorted,
    /// Only 8 distinct values: λ ≈ p/8 at *every* ratio — the workload
    /// that never crosses over.
    DupHeavy,
}

impl KeyDist {
    /// Stable lowercase name for tables and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf => "zipf",
            KeyDist::PreSorted => "presorted",
            KeyDist::DupHeavy => "dupheavy",
        }
    }

    /// All four skews, sweep order.
    pub const ALL: [KeyDist; 4] = [
        KeyDist::Uniform,
        KeyDist::Zipf,
        KeyDist::PreSorted,
        KeyDist::DupHeavy,
    ];
}

/// Deterministic keyset of `n` words under `dist`, seeded.
pub fn keyset(dist: KeyDist, n: usize, seed: u64) -> Vec<Word> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A4D_504C_4553_5254);
    match dist {
        KeyDist::Uniform => (0..n)
            .map(|_| rng.gen_range(-1_000_000..1_000_000))
            .collect(),
        KeyDist::Zipf => (0..n)
            .map(|_| {
                // head ∝ 1/u over u ∈ 1..=1024: P[head = 1] ≈ 1/2.
                let u: i64 = rng.gen_range(0i64..1024) + 1;
                let head = 1024 / u;
                head * 16 + rng.gen_range(0i64..16)
            })
            .collect(),
        KeyDist::PreSorted => (0..n as i64).collect(),
        KeyDist::DupHeavy => (0..n).map(|_| rng.gen_range(0..8)).collect(),
    }
}

/// How superstep 0 picks the `ratio` samples each processor contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sampling {
    /// Uniform random positions from the local sorted block, per-pid
    /// ChaCha8 stream on [`SampleSortConfig::seed`].
    Seeded,
    /// Evenly spaced local quantiles (deterministic regular sampling).
    Regular,
}

/// Sample-sort knobs: the oversampling ratio and how samples are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSortConfig {
    /// Samples per processor (≥ 1). `p·ratio` samples reach pid 0.
    pub ratio: usize,
    /// Seeded oversampling or regular sampling.
    pub sampling: Sampling,
    /// Seed for [`Sampling::Seeded`] draws (ignored by `Regular`).
    pub seed: u64,
}

impl Default for SampleSortConfig {
    fn default() -> Self {
        SampleSortConfig {
            ratio: 8,
            sampling: Sampling::Seeded,
            seed: 1,
        }
    }
}

/// Per-processor state: the local sorted block, the splitters once the
/// broadcast reaches this pid, and the sorted output bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SsState {
    /// Locally sorted `n/p` input keys (set in superstep 0).
    pub keys: Vec<Word>,
    /// The `p−1` splitters (empty until the broadcast arrives).
    pub splitters: Vec<Word>,
    /// This pid's sorted bucket (set in the final superstep).
    pub result: Vec<Word>,
}

/// Sample-sort message alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsMsg {
    /// An oversample headed for pid 0.
    Sample(Word),
    /// Splitter `i` of the broadcast tree.
    Splitter(u32, Word),
    /// A key headed for its bucket in the all-to-all exchange.
    Key(Word),
}

/// The sample-sort program: a pure superstep dispatcher over
/// [`BspMachine::superstep_index`], so dense and sparse drivers — and the
/// rollback-replay driver — all execute byte-identical closures.
#[derive(Debug, Clone)]
pub struct SampleSortProgram {
    p: usize,
    per: usize,
    rounds: usize,
    inputs: Vec<Word>,
    cfg: SampleSortConfig,
}

impl SampleSortProgram {
    /// Build a program for `p` processors over `inputs` (length divisible
    /// by `p`). Panics on `p < 2`, empty blocks, or `ratio == 0`.
    pub fn new(p: usize, inputs: Vec<Word>, cfg: SampleSortConfig) -> Self {
        assert!(p >= 2, "sample sort needs p >= 2");
        assert!(
            !inputs.is_empty() && inputs.len().is_multiple_of(p),
            "input length must be a positive multiple of p"
        );
        assert!(cfg.ratio >= 1, "oversampling ratio must be >= 1");
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize;
        SampleSortProgram {
            p,
            per: inputs.len() / p,
            rounds,
            inputs,
            cfg,
        }
    }

    /// Processor count.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Keys per processor (`n/p`).
    pub fn per(&self) -> usize {
        self.per
    }

    /// Splitter-broadcast rounds `⌈lg p⌉`.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total supersteps: sort+sample, select, `rounds−1` forwards,
    /// exchange, merge.
    pub fn supersteps(&self) -> usize {
        self.rounds + 3
    }

    /// Index of the all-to-all exchange superstep.
    pub fn exchange_step(&self) -> usize {
        self.rounds + 1
    }

    /// A fresh machine for this program (`params.p` must match).
    pub fn machine(&self, params: MachineParams) -> BspMachine<SsState, SsMsg> {
        assert_eq!(params.p, self.p, "machine p must match program p");
        BspMachine::new(params, |_| SsState::default())
    }

    /// The declared active set for superstep `step` (the sparse driver
    /// adds last boundary's receivers on top).
    pub fn active_set(&self, step: usize) -> Vec<Pid> {
        if step == 0 || step == self.exchange_step() {
            (0..self.p).collect()
        } else if step <= self.rounds {
            // Broadcast holders; receivers join via the frontier.
            (0..(1usize << (step - 1)).min(self.p)).collect()
        } else {
            // Merge: every pid with a non-empty bucket received keys at
            // the exchange boundary and is woken by the frontier.
            Vec::new()
        }
    }

    /// Run the machine's next superstep of this program, dense
    /// (`sparse == false`) or via the active-set engine path.
    pub fn apply_next(
        &self,
        machine: &mut BspMachine<SsState, SsMsg>,
        sparse: bool,
    ) -> SuperstepReport {
        let step = machine.superstep_index();
        assert!(
            step < self.supersteps(),
            "sample sort complete after {} supersteps",
            self.supersteps()
        );
        let m = machine.params().m;
        let body = move |pid: Pid, s: &mut SsState, inbox: &[SsMsg], out: &mut Outbox<SsMsg>| {
            self.step_body(step, m, pid, s, inbox, out)
        };
        if sparse {
            machine.superstep_active(&self.active_set(step), body)
        } else {
            machine.superstep(body)
        }
    }

    /// Re-run the exchange superstep body regardless of the machine's
    /// superstep index — the steady-state probe for allocation and
    /// throughput benchmarks. After one full warm-up pass the body is
    /// allocation-free: splitters are already stored (the guard returns
    /// before any `Vec` is built) and the engine recycles its arenas.
    pub fn step_exchange(&self, machine: &mut BspMachine<SsState, SsMsg>) -> SuperstepReport {
        let step = self.exchange_step();
        let m = machine.params().m;
        machine.superstep(move |pid, s, inbox, out| self.step_body(step, m, pid, s, inbox, out))
    }

    /// The single superstep body, dispatched on `step`. Total no-op
    /// (no state writes, sends, or charges) for any pid outside the
    /// sparse frontier — the dense/sparse byte-identity contract.
    fn step_body(
        &self,
        step: usize,
        m: usize,
        pid: Pid,
        s: &mut SsState,
        inbox: &[SsMsg],
        out: &mut Outbox<SsMsg>,
    ) {
        let p = self.p;
        let per = self.per;
        if step == 0 {
            // Local sort + oversample toward pid 0.
            s.keys.clear();
            s.keys
                .extend_from_slice(&self.inputs[pid * per..(pid + 1) * per]);
            s.keys.sort_unstable();
            out.charge_work(lgwork(per));
            let ratio = self.cfg.ratio;
            match self.cfg.sampling {
                Sampling::Regular => {
                    for t in 0..ratio {
                        let idx = ((t + 1) * per) / (ratio + 1);
                        let v = s.keys[idx.min(per - 1)];
                        out.send_at(0, SsMsg::Sample(v), stagger(t as u64, pid, p, m));
                    }
                }
                Sampling::Seeded => {
                    let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
                    rng.set_stream(pid as u64);
                    for t in 0..ratio {
                        let v = s.keys[rng.gen_range(0..per)];
                        out.send_at(0, SsMsg::Sample(v), stagger(t as u64, pid, p, m));
                    }
                }
            }
        } else if step <= self.rounds {
            // Splitter selection (step 1, pid 0) then the store-then-
            // forward doubling tree.
            if step == 1 {
                if pid == 0 && !inbox.is_empty() {
                    let mut samples: Vec<Word> = inbox
                        .iter()
                        .filter_map(|msg| match msg {
                            SsMsg::Sample(v) => Some(*v),
                            _ => None,
                        })
                        .collect();
                    if samples.is_empty() {
                        return;
                    }
                    out.charge_work(lgwork(samples.len()));
                    samples.sort_unstable();
                    s.splitters = pick_splitters(&samples, p);
                }
            } else {
                store_splitters(p, s, inbox);
            }
            let half = 1usize << (step - 1);
            if pid < half && pid + half < p && !s.splitters.is_empty() {
                for (i, &v) in s.splitters.iter().enumerate() {
                    out.send_at(
                        pid + half,
                        SsMsg::Splitter(i as u32, v),
                        stagger(i as u64, pid, half.min(p), m),
                    );
                }
            }
        } else if step == self.exchange_step() {
            // All-to-all bucket exchange, sends staggered below m/slot.
            store_splitters(p, s, inbox);
            if s.keys.is_empty() {
                return;
            }
            out.charge_work(per as u64);
            let mut t = 0usize;
            for (k, &key) in s.keys.iter().enumerate() {
                while t < s.splitters.len() && key > s.splitters[t] {
                    t += 1;
                }
                out.send_at(t, SsMsg::Key(key), stagger(k as u64, pid, p, m));
            }
        } else {
            // Sort this pid's bucket: the p sorted runs it received,
            // concatenated.
            if inbox.is_empty() {
                return;
            }
            let mut bucket = Vec::with_capacity(inbox.len());
            bucket.extend(inbox.iter().filter_map(|msg| match msg {
                SsMsg::Key(v) => Some(*v),
                _ => None,
            }));
            if bucket.is_empty() {
                return;
            }
            out.charge_work(lgwork(bucket.len()));
            bucket.sort_unstable();
            s.result = bucket;
        }
    }
}

/// `p−1` splitters from the sorted sample vector (same quantile rule as
/// [`crate::sort`]).
fn pick_splitters(samples: &[Word], p: usize) -> Vec<Word> {
    let ov = samples.len() / p.max(1);
    (1..p)
        .map(|i| samples[(i * ov).min(samples.len().saturating_sub(1))])
        .collect()
}

/// Store broadcast splitters from `inbox` into `s`, once. Ignores
/// non-splitter strays (late/displaced messages under faults) and is a
/// guaranteed no-op — no allocation — when splitters are already held.
fn store_splitters(p: usize, s: &mut SsState, inbox: &[SsMsg]) {
    if !s.splitters.is_empty() || inbox.is_empty() {
        return;
    }
    let mut spl = vec![Word::MIN; p - 1];
    let mut seen = false;
    for msg in inbox {
        if let SsMsg::Splitter(i, v) = msg {
            spl[*i as usize] = *v;
            seen = true;
        }
    }
    if seen {
        s.splitters = spl;
    }
}

/// One fault-free (or raw-hooked) sample-sort execution, fully priced.
#[derive(Debug, Clone)]
pub struct SampleSortRun {
    /// Concatenated buckets in pid order.
    pub output: Vec<Word>,
    /// `output` is bit-equal to `sort_unstable` of the inputs.
    pub ok: bool,
    /// The run priced under every model.
    pub summary: CostSummary,
    /// Per-superstep reports, in execution order.
    pub reports: Vec<SuperstepReport>,
    /// Largest bucket delivered by the exchange superstep.
    pub max_bucket: u64,
    /// Index of the exchange superstep within `reports`.
    pub exchange_step: usize,
    /// The machine's fault ledger after the run.
    pub fault_stats: FaultStats,
}

impl SampleSortRun {
    /// Bucket imbalance `λ = max_bucket / (n/p)` — the exchange-superstep
    /// BSP(g)/BSP(m) divergence factor.
    pub fn imbalance(&self, per: usize) -> f64 {
        self.max_bucket as f64 / per.max(1) as f64
    }

    /// [`Measured`] view under the exponential-penalty BSP(m) price.
    pub fn measured(&self) -> Measured {
        Measured {
            time: self.summary.bsp_m_exp,
            rounds: self.reports.len(),
            ok: self.ok,
        }
    }
}

/// Dense fault-free run with default trace sink.
pub fn run(params: MachineParams, inputs: &[Word], cfg: SampleSortConfig) -> SampleSortRun {
    run_opts(params, inputs, cfg, false, None, None)
}

/// Full-control run: sparse/dense engine path, optional delivery hook,
/// optional explicit trace sink (defaults to the global sink captured at
/// machine construction).
pub fn run_opts(
    params: MachineParams,
    inputs: &[Word],
    cfg: SampleSortConfig,
    sparse: bool,
    hook: Option<Arc<dyn DeliveryHook>>,
    sink: Option<Arc<dyn TraceSink>>,
) -> SampleSortRun {
    let prog = SampleSortProgram::new(params.p, inputs.to_vec(), cfg);
    let mut machine = prog.machine(params);
    if let Some(sink) = sink {
        machine.set_sink(sink);
    }
    if let Some(hook) = hook {
        machine.set_delivery_hook(hook);
    }
    machine.set_trace_label("sample_sort");
    let reports: Vec<SuperstepReport> = (0..prog.supersteps())
        .map(|_| prog.apply_next(&mut machine, sparse))
        .collect();
    finish(&prog, params, inputs, &machine, reports)
}

fn finish(
    prog: &SampleSortProgram,
    params: MachineParams,
    inputs: &[Word],
    machine: &BspMachine<SsState, SsMsg>,
    reports: Vec<SuperstepReport>,
) -> SampleSortRun {
    let output: Vec<Word> = machine
        .states()
        .iter()
        .flat_map(|s| s.result.iter().copied())
        .collect();
    let mut oracle = inputs.to_vec();
    oracle.sort_unstable();
    let exchange_step = prog.exchange_step();
    let max_bucket = reports
        .get(exchange_step)
        .map(|r| r.profile.max_received)
        .unwrap_or(0);
    SampleSortRun {
        ok: output == oracle,
        output,
        summary: CostSummary::price(params, machine.profiles()),
        reports,
        max_bucket,
        exchange_step,
        fault_stats: machine.fault_stats(),
    }
}

/// What checkpointed sample-sort recovery did and what it cost.
#[derive(Debug, Clone)]
pub struct SortRecoveryOutcome {
    /// Concatenated buckets in pid order (sorted input iff `ok`).
    pub output: Vec<Word>,
    /// Output is bit-equal to the sequential oracle.
    pub ok: bool,
    /// Every *executed* superstep priced — replays included (lost work is
    /// the cost of rollback recovery).
    pub summary: CostSummary,
    /// Final fault ledger (monotone across rollbacks; must conserve).
    pub fault_stats: FaultStats,
    /// Snapshots taken (the initial superstep-0 snapshot included).
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Supersteps voided and re-executed.
    pub replayed_supersteps: u64,
    /// Rollback budget exhausted before a clean run.
    pub gave_up: bool,
}

/// Run sample sort to completion under a fault hook with taint-based
/// checkpoint/rollback recovery.
///
/// Sample sort is lockstep: *every* message matters, so unlike the
/// scheduler driver (which only rolls back on crashes) any superstep
/// whose ledger moved — drops, duplicates, delays, displacements, stalls,
/// crashes — or that left messages in flight is voided and replayed from
/// the last checkpoint. The hook is wrapped in a [`WallClockHook`] so
/// replays see fresh fault history instead of re-living the taint.
pub fn run_with_checkpointed_recovery(
    params: MachineParams,
    inputs: &[Word],
    cfg: SampleSortConfig,
    hook: Arc<dyn DeliveryHook>,
    ck: &CheckpointConfig,
) -> SortRecoveryOutcome {
    run_with_checkpointed_recovery_opts(params, inputs, cfg, hook, ck, false, None)
}

/// As [`run_with_checkpointed_recovery`], choosing the engine path and an
/// explicit trace sink.
pub fn run_with_checkpointed_recovery_opts(
    params: MachineParams,
    inputs: &[Word],
    cfg: SampleSortConfig,
    hook: Arc<dyn DeliveryHook>,
    ck: &CheckpointConfig,
    sparse: bool,
    sink: Option<Arc<dyn TraceSink>>,
) -> SortRecoveryOutcome {
    let prog = SampleSortProgram::new(params.p, inputs.to_vec(), cfg);
    let mut machine = prog.machine(params);
    if let Some(sink) = sink {
        machine.set_sink(sink);
    }
    let wall = Arc::new(WallClockHook::new(hook));
    machine.set_delivery_hook(wall.clone() as Arc<dyn DeliveryHook>);
    machine.set_trace_label("sample_sort_recovery");

    let total = prog.supersteps();
    let mut last = machine.checkpoint();
    let mut checkpoints = 1u64;
    let mut rollbacks = 0u32;
    let mut replayed = 0u64;
    let mut since_ckpt = 0u64;
    let mut gave_up = false;

    while machine.superstep_index() < total {
        let before = machine.fault_stats();
        prog.apply_next(&mut machine, sparse);
        let after = machine.fault_stats();
        let tainted = after.dropped != before.dropped
            || after.duplicated != before.duplicated
            || after.delayed != before.delayed
            || after.displaced != before.displaced
            || after.stalled_steps != before.stalled_steps
            || after.crashed != before.crashed
            || after.crash_steps != before.crash_steps
            || after.in_flight > 0;
        if tainted {
            if rollbacks >= ck.max_rollbacks {
                gave_up = true;
                break;
            }
            rollbacks += 1;
            let after_idx = machine.superstep_index() as u64;
            // Advance wall time one past the tainted superstep so the
            // first replayed superstep sees fresh fault history.
            let wall_of_taint = (after_idx - 1) + wall.offset();
            wall.set_offset(wall_of_taint + 1 - last.superstep());
            replayed += after_idx - last.superstep();
            machine.rollback(&last);
            since_ckpt = 0;
            continue;
        }
        since_ckpt += 1;
        if since_ckpt == ck.interval && machine.superstep_index() < total {
            last = machine.checkpoint();
            checkpoints += 1;
            since_ckpt = 0;
        }
    }

    let output: Vec<Word> = machine
        .states()
        .iter()
        .flat_map(|s| s.result.iter().copied())
        .collect();
    let mut oracle = inputs.to_vec();
    oracle.sort_unstable();
    SortRecoveryOutcome {
        ok: !gave_up && output == oracle,
        output,
        summary: CostSummary::price(params, machine.profiles()),
        fault_stats: machine.fault_stats(),
        checkpoints,
        rollbacks,
        replayed_supersteps: replayed,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbw_models::PenaltyFn;

    fn params(p: usize) -> MachineParams {
        MachineParams::from_gap(p, 4, 8)
    }

    fn check_sorts(p: usize, per: usize, dist: KeyDist, cfg: SampleSortConfig) {
        // from_gap needs g | p; awkward p gets hand-built params instead.
        let mp = if p.is_multiple_of(4) {
            params(p)
        } else {
            MachineParams {
                p,
                g: 2,
                m: p.div_ceil(2),
                l: 8,
            }
        };
        let inputs = keyset(dist, p * per, 11);
        let run = run(mp, &inputs, cfg);
        assert!(
            run.ok,
            "p={p} per={per} dist={} cfg={cfg:?}: output not sorted input",
            dist.name()
        );
        assert_eq!(run.reports.len(), run.exchange_step + 2);
    }

    #[test]
    fn sorts_every_dist_seeded_and_regular() {
        for dist in KeyDist::ALL {
            for sampling in [Sampling::Seeded, Sampling::Regular] {
                check_sorts(
                    8,
                    16,
                    dist,
                    SampleSortConfig {
                        ratio: 4,
                        sampling,
                        seed: 3,
                    },
                );
            }
        }
    }

    #[test]
    fn sorts_awkward_processor_counts() {
        // Non-powers of two exercise the truncated doubling tree.
        for p in [2, 3, 5, 7, 12] {
            check_sorts(p, 9, KeyDist::Uniform, SampleSortConfig::default());
        }
    }

    #[test]
    fn ratio_one_and_ratio_above_block_both_sort() {
        check_sorts(
            4,
            4,
            KeyDist::Zipf,
            SampleSortConfig {
                ratio: 1,
                ..Default::default()
            },
        );
        check_sorts(
            4,
            4,
            KeyDist::Uniform,
            SampleSortConfig {
                ratio: 9, // more samples than local keys
                ..Default::default()
            },
        );
    }

    #[test]
    fn sparse_path_matches_dense_output() {
        let inputs = keyset(KeyDist::Zipf, 8 * 16, 5);
        let dense = run_opts(
            params(8),
            &inputs,
            SampleSortConfig::default(),
            false,
            None,
            None,
        );
        let sparse = run_opts(
            params(8),
            &inputs,
            SampleSortConfig::default(),
            true,
            None,
            None,
        );
        assert!(dense.ok && sparse.ok);
        assert_eq!(dense.output, sparse.output);
        assert_eq!(dense.summary, sparse.summary);
        assert_eq!(dense.max_bucket, sparse.max_bucket);
    }

    #[test]
    fn exchange_conserves_and_stays_under_m_per_slot() {
        let p = 16;
        let per = 32;
        let inputs = keyset(KeyDist::Uniform, p * per, 7);
        let run = run(params(p), &inputs, SampleSortConfig::default());
        let ex = &run.reports[run.exchange_step];
        let n: u64 = ex.profile.injections.iter().sum();
        assert_eq!(n, (p * per) as u64, "every key is injected exactly once");
        assert_eq!(ex.delivered, (p * per) as u64, "every key is delivered");
        let m = params(p).m as u64;
        for (slot, &count) in ex.profile.injections.iter().enumerate() {
            assert!(count <= m, "slot {slot} carries {count} > m={m}");
        }
    }

    #[test]
    fn exchange_divergence_is_exactly_the_imbalance() {
        // On the exchange superstep with from_gap params, BSP(g)/BSP(m)
        // == λ whenever c_m = n/m dominates h and the latency floor.
        let p = 32;
        let per = 64;
        let mp = params(p);
        let inputs = keyset(KeyDist::DupHeavy, p * per, 13);
        let run = run(mp, &inputs, SampleSortConfig::default());
        let ex = &run.reports[run.exchange_step].profile;
        let g = pbw_models::BspG { g: mp.g, l: mp.l };
        let m = pbw_models::BspM {
            m: mp.m,
            l: mp.l,
            penalty: PenaltyFn::Exponential,
        };
        use pbw_models::CostModel;
        let ratio = g.superstep_cost(ex) / m.superstep_cost(ex);
        let lambda = run.imbalance(per);
        assert!(lambda > 2.0, "dup-heavy input must skew buckets: {lambda}");
        assert!(
            (ratio - lambda).abs() / lambda < 0.35,
            "exchange divergence {ratio} should track imbalance {lambda}"
        );
    }

    #[test]
    fn recovery_clean_hook_is_a_plain_run() {
        struct Clean;
        impl DeliveryHook for Clean {}
        let inputs = keyset(KeyDist::Uniform, 8 * 8, 3);
        let hook = Arc::new(Clean) as Arc<dyn DeliveryHook>;
        let out = run_with_checkpointed_recovery(
            params(8),
            &inputs,
            SampleSortConfig::default(),
            hook,
            &CheckpointConfig::every(2),
        );
        assert!(out.ok && !out.gave_up);
        assert_eq!(out.rollbacks, 0);
        assert_eq!(out.replayed_supersteps, 0);
        assert!(out.fault_stats.conserved());
    }

    #[test]
    fn keyset_is_deterministic_and_dist_shaped() {
        for dist in KeyDist::ALL {
            assert_eq!(keyset(dist, 256, 9), keyset(dist, 256, 9));
            assert_ne!(
                keyset(KeyDist::Uniform, 256, 9),
                keyset(KeyDist::Uniform, 256, 10)
            );
        }
        let dup = keyset(KeyDist::DupHeavy, 512, 1);
        let distinct: std::collections::HashSet<_> = dup.iter().collect();
        assert!(distinct.len() <= 8);
        let pre = keyset(KeyDist::PreSorted, 512, 1);
        assert!(pre.windows(2).all(|w| w[0] <= w[1]));
    }
}
