//! The four benchmark workloads. Each builds its inputs from the seed
//! (untimed), runs one op per [`Workload::run`] call (timed), and verifies
//! that op's outputs in [`Workload::check`] (untimed). Every call into a
//! crate is wrapped in a span named after the layer it enters.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbw_algos::sample_sort::{keyset, KeyDist, SampleSortConfig, SampleSortProgram, Sampling};
use pbw_algos::sample_sort::{SsMsg, SsState};
use pbw_core::qsm_sched::{schedule_requests, validate_request_schedule, RequestBatch};
use pbw_core::recovery::{RecoveryConfig, RecoveryOutcome, RecoveryPhase, RecoverySession};
use pbw_core::schedulers::{Scheduler, UnbalancedSend};
use pbw_core::workload::{self as wlgen, Workload as Relation};
use pbw_core::Schedule;
use pbw_faults::{FaultPlan, FaultSpec};
use pbw_models::{CostSummary, MachineParams};
use pbw_pram::hrelation::{check_delivery, realize_teams, HrelationOutcome};
use pbw_sim::{BspMachine, DeliveryHook, Outbox, QsmMachine, Word};

use crate::spans::{span, span_named};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["sort", "broadcast", "recovery", "shared-memory"];

/// What checking one op found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// Every output matched its oracle.
    pub ok: bool,
    /// FNV-1a digest of the op's priced costs (bit patterns).
    pub digest: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything an op produces that the check reads.
    type Out;
    /// One op: the work the timed window measures.
    fn run(&self) -> Self::Out;
    /// Verify an op's outputs (outside the timed window).
    fn check(&self, out: &Self::Out) -> Checked;
    /// Checks that need a reference run, made once after the timed window.
    fn finish(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Per-op counters
// ---------------------------------------------------------------------------

thread_local! {
    static COUNTS: RefCell<BTreeMap<&'static str, f64>> = const { RefCell::new(BTreeMap::new()) };
}

/// Add `v` to counter `name` for the current op.
pub fn count(name: &'static str, v: f64) {
    COUNTS.with(|c| *c.borrow_mut().entry(name).or_default() += v);
}

/// Raise counter `name` to at least `v`.
fn count_max(name: &'static str, v: f64) {
    COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        let e = c.entry(name).or_insert(v);
        *e = e.max(v);
    });
}

/// Take the counters accumulated since the last call.
pub fn take_counts() -> BTreeMap<&'static str, f64> {
    COUNTS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: a digest that is stable across toolchains.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn summary(self, s: &CostSummary) -> Self {
        [
            s.bsp_g,
            s.bsp_m_linear,
            s.bsp_m_exp,
            s.bsp_m_self,
            s.qsm_g,
            s.qsm_m_linear,
            s.qsm_m_exp,
        ]
        .iter()
        .fold(self, |h, x| h.word(x.to_bits()))
    }
}

/// SplitMix64: the benchmark's own input generator for the inputs no crate
/// generates (QSM request batches, the PRAM relation).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// sort
// ---------------------------------------------------------------------------

const SORT_P: usize = 256;
const SORT_N: usize = 1 << 20;
const SORT_RATIO: usize = 16;

/// Sample sort of a uniform and a Zipf keyset, every superstep on the dense
/// path through `SampleSortProgram::apply_next`.
pub struct Sort {
    params: MachineParams,
    progs: Vec<SampleSortProgram>,
    oracles: Vec<Vec<Word>>,
}

impl Sort {
    pub fn new(seed: u64) -> Self {
        let cfg = SampleSortConfig {
            ratio: SORT_RATIO,
            sampling: Sampling::Seeded,
            seed,
        };
        let mut progs = Vec::new();
        let mut oracles = Vec::new();
        for dist in [KeyDist::Uniform, KeyDist::Zipf] {
            let keys = keyset(dist, SORT_N, seed);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            oracles.push(sorted);
            progs.push(SampleSortProgram::new(SORT_P, keys, cfg));
        }
        Sort {
            params: MachineParams::from_gap(SORT_P, 8, 16),
            progs,
            oracles,
        }
    }

    fn step_span(prog: &SampleSortProgram, step: usize) -> &'static str {
        if step == 0 {
            "algos.sort.local"
        } else if step == 1 {
            "algos.sort.select"
        } else if step <= prog.rounds() {
            "algos.sort.bcast"
        } else if step == prog.exchange_step() {
            "algos.sort.exchange"
        } else {
            "algos.sort.merge"
        }
    }
}

impl Workload for Sort {
    type Out = Vec<(BspMachine<SsState, SsMsg>, CostSummary)>;

    fn run(&self) -> Self::Out {
        self.progs
            .iter()
            .map(|prog| {
                let mut machine = span("sim.bsp.new", || prog.machine(self.params));
                for step in 0..prog.supersteps() {
                    let report = span(Self::step_span(prog, step), || {
                        prog.apply_next(&mut machine, false)
                    });
                    count("sim.bsp.dense_calls", 1.0);
                    count("sim.bsp.delivered", report.delivered as f64);
                    count("msgs", report.delivered as f64);
                    if step == prog.exchange_step() {
                        count_max("algos.sort.max_bucket", report.profile.max_received as f64);
                    }
                }
                let summary = span("models.price", || {
                    CostSummary::price(self.params, machine.profiles())
                });
                (machine, summary)
            })
            .collect()
    }

    fn check(&self, out: &Self::Out) -> Checked {
        let mut ok = out.len() == self.oracles.len();
        let mut h = Fnv::new();
        for ((machine, summary), oracle) in out.iter().zip(&self.oracles) {
            let mut pos = 0;
            for s in machine.states() {
                let end = pos + s.result.len();
                ok &= end <= oracle.len() && oracle[pos..end] == s.result[..];
                pos = end;
            }
            ok &= pos == oracle.len();
            h = h.summary(summary);
        }
        Checked { ok, digest: h.0 }
    }
}

// ---------------------------------------------------------------------------
// broadcast
// ---------------------------------------------------------------------------

const BCAST_P: usize = 1 << 20;

/// A BSP(g) fan-out tree broadcast at p = 2^20, one round at a time, each
/// superstep on the path `pbw_sim::density::crossover` picks — the loop of
/// `pbw_algos::broadcast::bsp_g`, issued from here so each superstep is
/// timed.
pub struct Broadcast {
    params: MachineParams,
    value: Word,
    first_bsp_g: Cell<Option<f64>>,
}

impl Broadcast {
    pub fn new(seed: u64) -> Self {
        Broadcast {
            params: MachineParams::from_gap(BCAST_P, 16, 64),
            value: SplitMix(seed).next() as Word,
            first_bsp_g: Cell::new(None),
        }
    }
}

/// One broadcast superstep on the path the measured crossover picks.
fn bcast_step<F>(m: &mut BspMachine<Option<Word>, Word>, senders: usize, active: usize, f: F) -> u64
where
    F: Fn(usize, &mut Option<Word>, &[Word], &mut Outbox<Word>) + Sync,
{
    let p = m.params().p;
    let sparse = pbw_sim::density::crossover(active, p);
    count("sim.density.calls", 1.0);
    let report = if sparse {
        count("sim.density.sparse", 1.0);
        count("sim.bsp.active_calls", 1.0);
        span("sim.bsp.active", || {
            let declared: Vec<usize> = (0..senders).collect();
            m.superstep_active(&declared, f)
        })
    } else {
        count("sim.bsp.dense_calls", 1.0);
        span("sim.bsp.dense", || m.superstep(f))
    };
    count("sim.bsp.delivered", report.delivered as f64);
    count("msgs", report.delivered as f64);
    report.delivered
}

impl Workload for Broadcast {
    type Out = (BspMachine<Option<Word>, Word>, CostSummary, u64);

    fn run(&self) -> Self::Out {
        let p = self.params.p;
        let f = ((self.params.l as f64 / self.params.g as f64).ceil() as usize).max(2);
        let v = self.value;
        let mut m = span("sim.bsp.new", || {
            BspMachine::new(self.params, |pid| (pid == 0).then_some(v))
        });
        let mut delivered = 0;
        let mut known = 1usize;
        while known < p {
            let k = known;
            let upper = (k * (f + 1)).min(p);
            let send =
                move |pid: usize, s: &mut Option<Word>, _in: &[Word], out: &mut Outbox<Word>| {
                    if pid < k {
                        if let Some(v) = *s {
                            let mut child = pid + k;
                            while child < upper {
                                out.send(child, v);
                                child += k;
                            }
                        }
                    }
                };
            let absorb =
                move |pid: usize, s: &mut Option<Word>, inbox: &[Word], _: &mut Outbox<Word>| {
                    if pid >= k && s.is_none() {
                        if let Some(&v) = inbox.first() {
                            *s = Some(v);
                        }
                    }
                };
            // Senders are declared; the absorb step declares none and its
            // frontier is the receivers the engine finds from the inboxes.
            delivered += bcast_step(&mut m, k, k, send);
            delivered += bcast_step(&mut m, 0, upper - k, absorb);
            known = upper;
        }
        let summary = span("models.price", || {
            CostSummary::price(self.params, m.profiles())
        });
        (m, summary, delivered)
    }

    fn check(&self, (m, summary, delivered): &Self::Out) -> Checked {
        let ok = m.states().iter().all(|s| *s == Some(self.value))
            && *delivered == (self.params.p - 1) as u64;
        if self.first_bsp_g.get().is_none() {
            self.first_bsp_g.set(Some(summary.bsp_g));
        }
        Checked {
            ok,
            digest: Fnv::new().summary(summary).0,
        }
    }

    fn finish(&self) -> bool {
        let reference = pbw_algos::broadcast::bsp_g(self.params);
        reference.ok
            && self
                .first_bsp_g
                .get()
                .is_some_and(|c| c.to_bits() == reference.time.to_bits())
    }
}

// ---------------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------------

const RECOVERY_P: usize = 8192;

/// Nanoseconds of delay planted in every scheduler call (self-test only).
static PLANTED_DELAY_NS: AtomicU64 = AtomicU64::new(0);

/// Plant a delay in every [`TimedScheduler`] call of this process.
pub fn plant_schedule_delay(d: Duration) {
    PLANTED_DELAY_NS.store(d.as_nanos() as u64, Ordering::Relaxed);
}

/// A `Scheduler` that times the one it wraps (and, in the self-test, adds
/// a planted delay that the trace must blame on `core.schedule`).
pub struct TimedScheduler<S>(pub S);

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn schedule(&self, wl: &Relation, m: usize, seed: u64) -> Schedule {
        count("core.schedule_calls", 1.0);
        span("core.schedule", || {
            let s = self.0.schedule(wl, m, seed);
            let delay = PLANTED_DELAY_NS.load(Ordering::Relaxed);
            if delay > 0 {
                let until = Instant::now() + Duration::from_nanos(delay);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            s
        })
    }
}

/// Ack/retransmit recovery of a Zipf-sender relation over a network that
/// drops, duplicates and delays messages.
pub struct Recovery {
    params: MachineParams,
    seed: u64,
    relation: Relation,
    plan: Arc<FaultPlan>,
    scheduler: TimedScheduler<UnbalancedSend>,
    cfg: RecoveryConfig,
}

impl Recovery {
    pub fn new(seed: u64) -> Self {
        let spec = FaultSpec {
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            delay_rate: 0.05,
            max_delay: 3,
            ..FaultSpec::none()
        };
        Recovery {
            params: MachineParams::from_gap(RECOVERY_P, 8, 16),
            seed,
            relation: wlgen::zipf_senders(RECOVERY_P, 16, 1.1, seed),
            plan: Arc::new(FaultPlan::new(spec, seed)),
            scheduler: TimedScheduler(UnbalancedSend::new(0.3)),
            cfg: RecoveryConfig::default(),
        }
    }
}

fn phase_span(ph: &RecoveryPhase) -> &'static str {
    match ph {
        RecoveryPhase::Send => "core.recovery.send",
        RecoveryPhase::Ack(_) => "core.recovery.ack",
        RecoveryPhase::Backoff(_) => "core.recovery.backoff",
        RecoveryPhase::Retransmit(_) => "core.recovery.retransmit",
        RecoveryPhase::Drain => "core.recovery.drain",
        RecoveryPhase::Done => "core.recovery.done",
    }
}

impl Workload for Recovery {
    type Out = RecoveryOutcome;

    fn run(&self) -> RecoveryOutcome {
        let hook: Arc<dyn DeliveryHook> = self.plan.clone();
        let mut session = span("core.recovery.new", || {
            RecoverySession::new(
                Arc::new(pbw_trace::NullSink),
                &self.relation,
                &self.scheduler,
                self.params,
                self.seed,
                Some(hook),
                &self.cfg,
            )
        });
        loop {
            let phase = span_named(|| session.step(), phase_span);
            if phase == RecoveryPhase::Done {
                break;
            }
            count(
                match phase {
                    RecoveryPhase::Send => "core.recovery.send_count",
                    RecoveryPhase::Ack(_) => "core.recovery.ack_count",
                    RecoveryPhase::Backoff(_) => "core.recovery.backoff_count",
                    RecoveryPhase::Retransmit(_) => "core.recovery.retransmit_count",
                    _ => "core.recovery.drain_count",
                },
                1.0,
            );
        }
        let out = span("core.recovery.outcome", || session.into_outcome());
        let fs = out.fault_stats;
        let flits = self.relation.n_flits() as f64;
        count("core.recovery.rounds", out.rounds as f64);
        count(
            "core.recovery.resent_ratio",
            out.resent_flits as f64 / flits,
        );
        count("faults.dropped", fs.dropped as f64);
        count("faults.duplicated", fs.duplicated as f64);
        count("faults.delayed", fs.delayed as f64);
        count("faults.goodput", flits / fs.injected.max(1) as f64);
        count("sim.bsp.delivered", fs.delivered as f64);
        count("msgs", fs.delivered as f64);
        out
    }

    fn check(&self, out: &RecoveryOutcome) -> Checked {
        let fs = out.fault_stats;
        Checked {
            ok: out.delivered_all && fs.conserved() && fs.in_flight == 0,
            digest: Fnv::new().summary(&out.summary).0,
        }
    }
}

// ---------------------------------------------------------------------------
// shared-memory
// ---------------------------------------------------------------------------

const QSM_P: usize = 16384;
const QSM_M: usize = QSM_P / 8;
const QSM_MEM: usize = QSM_P;
const QSM_PER: usize = 8;
const QSM_EPS: f64 = 0.3;
const PRAM_P: usize = 512;
const PRAM_H: usize = 4;

/// QSM(m) scheduled reads (uniform and hot-location batches) plus a PRAM
/// realization of a random 4-relation.
pub struct SharedMemory {
    params: MachineParams,
    seed: u64,
    memory: Vec<Word>,
    batches: Vec<RequestBatch>,
    sends: Vec<Vec<(usize, Word)>>,
}

impl SharedMemory {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix(seed);
        let memory: Vec<Word> = (0..QSM_MEM).map(|_| rng.next() as Word).collect();
        let uniform: Vec<Vec<usize>> = (0..QSM_P)
            .map(|_| (0..QSM_PER).map(|_| rng.below(QSM_MEM)).collect())
            .collect();
        // Every processor's first read hits one hot cell (κ = p).
        let hot_cell = rng.below(QSM_MEM);
        let hot: Vec<Vec<usize>> = (0..QSM_P)
            .map(|_| {
                std::iter::once(hot_cell)
                    .chain((1..QSM_PER).map(|_| rng.below(QSM_MEM)))
                    .collect()
            })
            .collect();
        // A random 4-relation: the union of four random permutations.
        let mut sends: Vec<Vec<(usize, Word)>> = vec![Vec::new(); PRAM_P];
        for k in 0..PRAM_H {
            let mut perm: Vec<usize> = (0..PRAM_P).collect();
            for i in (1..PRAM_P).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            for (src, &dest) in perm.iter().enumerate() {
                sends[src].push((dest, (src * PRAM_H + k) as Word));
            }
        }
        SharedMemory {
            params: MachineParams::from_bandwidth(QSM_P, QSM_M, 16),
            seed,
            batches: vec![
                RequestBatch::new(uniform, QSM_MEM),
                RequestBatch::new(hot, QSM_MEM),
            ],
            memory,
            sends,
        }
    }
}

/// What one QSM batch left behind for the check.
pub struct QsmRun {
    machine: QsmMachine<Vec<Word>>,
    schedule: Schedule,
    summary: CostSummary,
}

impl Workload for SharedMemory {
    type Out = (Vec<QsmRun>, HrelationOutcome);

    fn run(&self) -> Self::Out {
        let runs = self
            .batches
            .iter()
            .map(|batch| {
                let schedule = span("core.qsm_schedule", || {
                    schedule_requests(batch, self.params.m, QSM_EPS, self.seed)
                });
                let mut machine = span("sim.qsm.new", || {
                    let mut q = QsmMachine::new(self.params, QSM_MEM, |_| Vec::new());
                    q.shared_mut().copy_from_slice(&self.memory);
                    q
                });
                let (reqs, starts) = (&batch.reqs, &schedule.starts);
                let report = span("sim.qsm.phase", || {
                    machine.phase(|pid, _s, _res, ctx| {
                        for (&addr, &slot) in reqs[pid].iter().zip(&starts[pid]) {
                            ctx.read_at(addr, slot);
                        }
                    })
                });
                span("sim.qsm.phase", || {
                    machine.phase(|_pid, s, res, _ctx| *s = res.iter().map(|r| r.value).collect())
                });
                count("sim.qsm.phases", 2.0);
                count("sim.qsm.requests", report.reads as f64);
                count("msgs", report.reads as f64);
                let summary = span("models.price", || {
                    CostSummary::price(self.params, machine.profiles())
                });
                QsmRun {
                    machine,
                    schedule,
                    summary,
                }
            })
            .collect();
        let pram = span("pram.realize", || realize_teams(&self.sends));
        count("pram.time", pram.time as f64);
        count("pram.work", pram.work as f64);
        let delivered: usize = pram.received.iter().map(Vec::len).sum();
        count("msgs", delivered as f64);
        (runs, pram)
    }

    fn check(&self, (runs, pram): &Self::Out) -> Checked {
        let mut ok = check_delivery(&self.sends, pram);
        let mut h = Fnv::new();
        for (run, batch) in runs.iter().zip(&self.batches) {
            ok &= validate_request_schedule(&run.schedule, batch).is_ok();
            ok &= run
                .machine
                .states()
                .iter()
                .zip(&batch.reqs)
                .all(|(vals, addrs)| {
                    vals.len() == addrs.len()
                        && vals.iter().zip(addrs).all(|(&v, &a)| v == self.memory[a])
                });
            h = h.summary(&run.summary);
        }
        Checked {
            ok,
            digest: h.word(pram.time).word(pram.work).0,
        }
    }
}
