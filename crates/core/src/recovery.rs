//! Ack/retransmit recovery over a faulty network.
//!
//! [`run_schedule_on_bsp`](crate::exec::run_schedule_on_bsp) assumes the
//! network delivers everything; this module executes a workload on a
//! machine with a fault hook attached ([`pbw_sim::DeliveryHook`]) and keeps
//! resending until every flit lands:
//!
//! 1. **Send.** The full workload is scheduled by any [`Scheduler`] and
//!    executed as one communication superstep (flits pinned to their
//!    injection slots, exactly as the fault-free path does).
//! 2. **Ack.** If anything is missing, destinations send one ack per
//!    source they heard from — a real superstep, itself subject to faults,
//!    priced like any other traffic. (Which flits are missing is decided
//!    from harness ground truth, not from the ack payloads: the protocol
//!    *charges* for the control traffic without simulating timeout logic,
//!    so the measured quantity stays "what does recovery cost under each
//!    model", not "how clever is our timeout heuristic".)
//! 3. **Backoff.** Before retransmission round `r` the machine sits idle
//!    for `min(base · 2^{r−1}, cap)` supersteps — bounded exponential
//!    backoff. Each idle superstep costs `L` under the BSP models and
//!    doubles as drain time for delayed payloads still inside the network.
//! 4. **Retransmit.** Undelivered flits fold back into a residual
//!    [`Workload`] (per `(src, dest)` message, one flit per missing flit),
//!    which is rescheduled through the *same* scheduler with a
//!    round-perturbed seed and sent again. Resent flits carry their
//!    original tags, so duplicates from earlier rounds are recognized and
//!    ignored.
//!
//! The point of the construction: recovery is priced **by the cost
//! models**. A drop under BSP(g) costs `g` per resent flit plus `L` per
//! extra superstep; under BSP(m) the retransmission rounds are small
//! residual relations that schedule into cheap, nearly-empty slot
//! histograms — the φ-sweep experiment (`reproduce faults`) measures
//! exactly this gap. With a fault-free network (no hook, or an all-zero
//! plan) the run is a single superstep whose [`CostSummary`] is bit-exact
//! to the fault-free path — the recovery machinery prices to zero when
//! there is nothing to recover.

pub mod checkpoint;

use std::sync::Arc;

use crate::exec::FlitTag;
use crate::schedule::Schedule;
use crate::schedulers::Scheduler;
use crate::workload::{Msg, Workload};
use pbw_models::{MachineParams, SuperstepProfile};
use pbw_sim::{BspMachine, CostSummary, DeliveryHook, FaultStats, MachineCheckpoint, Outbox, Pid};
use pbw_trace::RecoveryMark;

/// Ack payloads share the flit-tag type; this sentinel source id marks them
/// so the delivery scan never mistakes an ack for a data flit.
const ACK_SRC: u32 = u32::MAX;

/// Knobs of the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Give up after this many retransmission rounds (the outcome then
    /// reports `delivered_all == false` rather than looping forever on a
    /// pathological plan).
    pub max_rounds: u32,
    /// Idle supersteps before retransmission round 1.
    pub backoff_base: u32,
    /// Ceiling on the per-round backoff (bounded exponential backoff).
    pub backoff_cap: u32,
    /// Whether rounds are preceded by an ack superstep (cost realism knob;
    /// switching it off isolates pure retransmission cost).
    pub charge_acks: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_rounds: 16,
            backoff_base: 1,
            backoff_cap: 8,
            charge_acks: true,
        }
    }
}

impl RecoveryConfig {
    fn backoff(&self, round: u32) -> u32 {
        debug_assert!(round >= 1);
        let shifted = self.backoff_base.saturating_shl(round - 1);
        shifted.min(self.backoff_cap)
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u32 {
    fn saturating_shl(self, n: u32) -> u32 {
        if n >= 32 {
            return u32::MAX;
        }
        self.checked_shl(n).unwrap_or(u32::MAX)
    }
}

/// What a recovery run did and what it cost.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The whole run — send, acks, backoff, retransmissions, drain — priced
    /// under every model.
    pub summary: CostSummary,
    /// Per-superstep profiles (sum to `summary` under any model).
    pub profiles: Vec<SuperstepProfile>,
    /// Retransmission rounds used (0 = everything arrived first try).
    pub rounds: u32,
    /// Whether every flit eventually arrived.
    pub delivered_all: bool,
    /// Flits retransmitted, totalled over all rounds.
    pub resent_flits: u64,
    /// Ack supersteps charged.
    pub ack_supersteps: u64,
    /// Idle backoff/drain supersteps charged.
    pub backoff_supersteps: u64,
    /// Arrival superstep of each delivered flit (first copy only), in
    /// arrival order — the delivery-time distribution whose tail the
    /// φ-sweep reports.
    pub arrival_steps: Vec<u64>,
    /// The engine's fault ledger for the run.
    pub fault_stats: FaultStats,
}

impl RecoveryOutcome {
    /// `q`-th percentile of the flit arrival-superstep distribution, or
    /// `None` for an empty run or out-of-range `q`.
    pub fn arrival_percentile(&self, q: f64) -> Option<u64> {
        if self.arrival_steps.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut sorted = self.arrival_steps.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

/// Tracks which flits of the original workload are still undelivered, in
/// flat arrays: message `m` is the workload's `messages()[m]` (source-major,
/// so message `k` of `src` is `offsets()[src] + k`), and flit `f` of message
/// `m` is flit `flit_off[m] + f`. Building it costs a fixed number of
/// allocations, however many messages the workload has.
#[derive(Clone)]
struct DeliveryLedger {
    /// `flit_off[m]..flit_off[m + 1]` are message `m`'s flits.
    flit_off: Vec<usize>,
    /// Whether each flit is still undelivered.
    missing: Vec<bool>,
    /// Whether any flit of each message has arrived: the ack relation.
    heard: Vec<bool>,
    outstanding: u64,
    arrival_steps: Vec<u64>,
}

impl DeliveryLedger {
    fn new(wl: &Workload) -> Self {
        let n_msgs = wl.messages().len();
        let mut flit_off = Vec::with_capacity(n_msgs + 1);
        let mut n_flits = 0;
        flit_off.push(0);
        flit_off.extend(wl.messages().iter().map(|m| {
            n_flits += m.len as usize;
            n_flits
        }));
        DeliveryLedger {
            flit_off,
            missing: vec![true; n_flits],
            heard: vec![false; n_msgs],
            outstanding: n_flits as u64,
            arrival_steps: Vec::with_capacity(n_flits),
        }
    }

    /// Mark everything visible in the machine's inboxes as delivered
    /// (duplicates and acks are ignored). `now` is the number of supersteps
    /// executed so far. Only receivers are visited: O(arrivals), not O(p).
    fn scan(&mut self, wl: &Workload, machine: &BspMachine<(), FlitTag>, now: u64) {
        for (_, inbox) in machine.pending_inboxes() {
            for &(src, msg_idx, flit) in inbox {
                if src == ACK_SRC {
                    continue;
                }
                let m = wl.offsets()[src as usize] + msg_idx as usize;
                let slot = &mut self.missing[self.flit_off[m] + flit as usize];
                if *slot {
                    *slot = false;
                    self.heard[m] = true;
                    self.outstanding -= 1;
                    self.arrival_steps.push(now);
                }
            }
        }
    }

    /// Rebuild `into` as the residual of `wl`: one message per original
    /// message with missing flits, each as long as its missing flits, in
    /// the same source-major order. `resend` receives the original tags
    /// those flits must carry when resent. Both are refilled in place, and
    /// each of their arrays grows at most once per call: a round resends
    /// at most the outstanding flits, in at most as many messages.
    fn residual(&self, wl: &Workload, into: &mut Workload, resend: &mut ResidualTags) {
        let most = self.outstanding as usize;
        let ResidualTags { flit_off, tags } = resend;
        flit_off.clear();
        tags.clear();
        flit_off.reserve(most + 1);
        tags.reserve(most);
        flit_off.push(0);
        into.refill(wl.p(), most, |src, out| {
            let first_msg = wl.offsets()[src];
            for (m, msg) in (first_msg..).zip(wl.msgs(src)) {
                let first_flit = self.flit_off[m];
                let before = tags.len();
                for f in first_flit..self.flit_off[m + 1] {
                    if self.missing[f] {
                        tags.push((src as u32, (m - first_msg) as u32, (f - first_flit) as u32));
                    }
                }
                if tags.len() > before {
                    out.push(Msg {
                        dest: msg.dest,
                        len: (tags.len() - before) as u64,
                    });
                    flit_off.push(tags.len());
                }
            }
        });
    }
}

/// The ack relation in CSR form: processor `d` acks the sources
/// `srcs[off[d]..off[d + 1]]`, ascending, and `ackers` lists the processors
/// with at least one. Rebuilt in place each ack round and never part of a
/// [`SessionCheckpoint`]: it is a function of the ledger.
#[derive(Default)]
struct AckRelation {
    /// The workload's messages by destination, indexed at the first round:
    /// `inbound[inbound_off[d]..inbound_off[d + 1]]` are the `(source,
    /// message)` pairs addressed to `d`, sources ascending.
    inbound_off: Vec<usize>,
    inbound: Vec<(Pid, usize)>,
    off: Vec<usize>,
    srcs: Vec<Pid>,
    ackers: Vec<Pid>,
}

impl AckRelation {
    /// Rebuild the relation: each processor acks every source it has
    /// received at least one data flit from so far. O(messages + p), with
    /// no p×p table and no per-processor list.
    fn rebuild(&mut self, wl: &Workload, ledger: &DeliveryLedger) {
        let p = wl.p();
        if self.inbound_off.is_empty() {
            self.index(wl);
        }
        self.off.clear();
        self.off.reserve(p + 1);
        self.off.push(0);
        self.srcs.clear();
        self.ackers.clear();
        for d in 0..p {
            let first = self.srcs.len();
            for &(src, m) in &self.inbound[self.inbound_off[d]..self.inbound_off[d + 1]] {
                // Sources ascend within `d`'s run: a repeat is the last entry.
                if ledger.heard[m] && (self.srcs.len() == first || self.srcs.last() != Some(&src)) {
                    self.srcs.push(src);
                }
            }
            if self.srcs.len() > first {
                self.ackers.push(d);
            }
            self.off.push(self.srcs.len());
        }
    }

    /// Group the workload's messages by destination: a counting sort of
    /// its source-major message order, so each run keeps sources ascending.
    fn index(&mut self, wl: &Workload) {
        let p = wl.p();
        let off = &mut self.inbound_off;
        off.resize(p + 1, 0);
        for m in wl.messages() {
            off[m.dest + 1] += 1;
        }
        for d in 0..p {
            off[d + 1] += off[d];
        }
        let mut cursor = off[..p].to_vec();
        self.inbound.resize(wl.messages().len(), (0, 0));
        for src in 0..p {
            for m in wl.offsets()[src]..wl.offsets()[src + 1] {
                let d = wl.messages()[m].dest;
                self.inbound[cursor[d]] = (src, m);
                cursor[d] += 1;
            }
        }
    }

    /// The sources processor `d` acks, ascending.
    fn sources(&self, d: Pid) -> &[Pid] {
        &self.srcs[self.off[d]..self.off[d + 1]]
    }
}

/// The original tags of a retransmission's flits, flat: flit `f` of
/// residual message `m` (source-major) carries `tags[flit_off[m] + f]`.
/// Rebuilt in place each round and never part of a [`SessionCheckpoint`].
#[derive(Default)]
struct ResidualTags {
    flit_off: Vec<usize>,
    tags: Vec<FlitTag>,
}

/// Execute one scheduled send superstep: flit `f` of message `m` (the
/// workload's source-major index) of `pid` goes out at its start slot plus
/// `f`, carrying `tag(pid, m, f)`. `senders` is recycled scratch for the
/// declared sender set.
fn send_round(
    machine: &mut BspMachine<(), FlitTag>,
    wl: &Workload,
    schedule: &Schedule,
    senders: &mut Vec<Pid>,
    tag: impl Fn(Pid, usize, u64) -> FlitTag + Sync,
) {
    let body = |pid: Pid, _s: &mut (), _in: &[FlitTag], out: &mut Outbox<FlitTag>| {
        let msgs = wl.msgs(pid).iter().zip(&schedule.starts[pid]);
        for (m, (msg, &start)) in (wl.offsets()[pid]..).zip(msgs) {
            for f in 0..msg.len {
                out.send_at(msg.dest, tag(pid, m, f), start + f);
            }
        }
    };
    // Retransmission residuals are sparse by construction (a handful of
    // lossy edges out of p processors), so the engine runs them on the
    // active-set path: recovery rounds cost O(senders + flits), not O(p).
    senders.clear();
    senders.extend((0..wl.p()).filter(|&pid| !wl.msgs(pid).is_empty()));
    machine.superstep_auto(senders, body);
}

/// Run `wl` to completion over a (possibly faulty) network, retransmitting
/// lost flits until everything arrives or `cfg.max_rounds` is exhausted.
///
/// `seed` seeds the scheduler; retransmission round `r` reschedules the
/// residual with `seed ^ r·0x9E37` (the workspace's batch-perturbation
/// idiom) so rounds draw fresh offsets. `hook` is the fault model; `None`
/// is a reliable network, for which the result is bit-exact to
/// [`run_schedule_on_bsp`](crate::exec::run_schedule_on_bsp).
pub fn run_with_recovery(
    wl: &Workload,
    scheduler: &dyn Scheduler,
    params: MachineParams,
    seed: u64,
    hook: Option<Arc<dyn DeliveryHook>>,
    cfg: &RecoveryConfig,
) -> RecoveryOutcome {
    run_with_recovery_to(
        pbw_trace::global_sink(),
        wl,
        scheduler,
        params,
        seed,
        hook,
        cfg,
    )
}

/// [`run_with_recovery`] with an explicit trace sink instead of the
/// process-global one. Parallel sweeps (e.g. the φ-sweep in `reproduce
/// faults`) run each recovery against a private recording sink and replay
/// the events into the global sink in sweep order, keeping trace output
/// byte-identical at every thread count.
pub fn run_with_recovery_to(
    sink: Arc<dyn pbw_trace::TraceSink>,
    wl: &Workload,
    scheduler: &dyn Scheduler,
    params: MachineParams,
    seed: u64,
    hook: Option<Arc<dyn DeliveryHook>>,
    cfg: &RecoveryConfig,
) -> RecoveryOutcome {
    let mut session = RecoverySession::new(sink, wl, scheduler, params, seed, hook, cfg);
    while session.step() != RecoveryPhase::Done {}
    session.into_outcome()
}

/// Which protocol action one [`RecoverySession::step`] call performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// The initial full-workload send superstep.
    Send,
    /// The ack superstep preceding retransmission round `r`.
    Ack(u32),
    /// One idle backoff superstep of round `r`.
    Backoff(u32),
    /// The retransmission superstep of round `r`.
    Retransmit(u32),
    /// One idle drain superstep (the network still holds delayed payloads
    /// or duplicate copies).
    Drain,
    /// The protocol has terminated; the session is inert.
    Done,
}

/// Where the protocol resumes on the next [`RecoverySession::step`] call.
/// Variants that execute a superstep alternate with bookkeeping-only
/// variants, which `step` burns through without returning.
#[derive(Clone, Copy)]
enum Resume {
    Send,
    LoopHead,
    Ack,
    BackoffEnter,
    Backoff { left: u32 },
    PostBackoff,
    Retransmit,
    Drain,
    Done,
}

/// The ack/retransmit protocol of [`run_with_recovery`], exposed one
/// superstep at a time.
///
/// Each [`step`](RecoverySession::step) call advances the underlying
/// [`BspMachine`] by exactly one superstep (or reports
/// [`RecoveryPhase::Done`]) and returns which protocol phase that superstep
/// belonged to. Driving a session to completion performs the *identical*
/// machine-operation sequence as [`run_with_recovery_to`] — same labels,
/// same scans, same seeds — so outcomes are bit-exact between the two
/// entry points (the batch functions are implemented on top of this type).
///
/// The per-superstep surface exists for the `pbw-check` bounded model
/// checker, which interleaves its own invariant probes (ledger
/// conservation, canonical state hashes) between protocol supersteps.
pub struct RecoverySession<'a> {
    wl: &'a Workload,
    scheduler: &'a dyn Scheduler,
    cfg: &'a RecoveryConfig,
    params: MachineParams,
    seed: u64,
    machine: BspMachine<(), FlitTag>,
    ledger: DeliveryLedger,
    acks: AckRelation,
    /// The last retransmission's residual relation, and its flits' tags
    /// and sender set: scratch refilled in place each round.
    residual: Workload,
    resend: ResidualTags,
    senders: Vec<Pid>,
    resume: Resume,
    round: u32,
    resent_flits: u64,
    ack_supersteps: u64,
    backoff_supersteps: u64,
}

impl<'a> RecoverySession<'a> {
    /// Set up a session; no superstep runs until [`step`](Self::step).
    pub fn new(
        sink: Arc<dyn pbw_trace::TraceSink>,
        wl: &'a Workload,
        scheduler: &'a dyn Scheduler,
        params: MachineParams,
        seed: u64,
        hook: Option<Arc<dyn DeliveryHook>>,
        cfg: &'a RecoveryConfig,
    ) -> Self {
        assert_eq!(wl.p(), params.p, "workload and machine disagree on p");
        let mut machine: BspMachine<(), FlitTag> = BspMachine::new(params, |_| ());
        machine.set_sink(sink);
        machine.set_trace_label("recovery/send");
        if let Some(h) = hook {
            machine.set_delivery_hook(h);
        }
        RecoverySession {
            ledger: DeliveryLedger::new(wl),
            acks: AckRelation::default(),
            // Empty until the first retransmission refills it.
            residual: Workload::new(Vec::new()),
            resend: ResidualTags::default(),
            senders: Vec::new(),
            wl,
            scheduler,
            cfg,
            params,
            seed,
            machine,
            resume: Resume::Send,
            round: 0,
            resent_flits: 0,
            ack_supersteps: 0,
            backoff_supersteps: 0,
        }
    }

    fn scan(&mut self) {
        let now = self.machine.superstep_index() as u64;
        self.ledger.scan(self.wl, &self.machine, now);
    }

    /// Execute the next protocol superstep, or return
    /// [`RecoveryPhase::Done`] (a no-op) once the protocol has terminated.
    pub fn step(&mut self) -> RecoveryPhase {
        let idle = |_: Pid, _: &mut (), _: &[FlitTag], _: &mut Outbox<FlitTag>| {};
        loop {
            match self.resume {
                Resume::Send => {
                    // Round 0: the full workload, original tags.
                    let (wl, offsets) = (self.wl, self.wl.offsets());
                    let schedule = self.scheduler.schedule(wl, self.params.m, self.seed);
                    send_round(
                        &mut self.machine,
                        wl,
                        &schedule,
                        &mut self.senders,
                        |src, m, f| (src as u32, (m - offsets[src]) as u32, f as u32),
                    );
                    self.scan();
                    self.resume = Resume::LoopHead;
                    return RecoveryPhase::Send;
                }
                Resume::LoopHead => {
                    if self.ledger.outstanding > 0 && self.round < self.cfg.max_rounds {
                        self.round += 1;
                        self.resume = if self.cfg.charge_acks {
                            Resume::Ack
                        } else {
                            Resume::BackoffEnter
                        };
                    } else {
                        self.resume = Resume::Drain;
                    }
                }
                Resume::Ack => {
                    // Ack superstep: every destination acks the sources it
                    // heard from.
                    let round = self.round;
                    self.acks.rebuild(self.wl, &self.ledger);
                    self.machine.set_trace_label(format!("recovery/ack{round}"));
                    let acks = &self.acks;
                    let ack_body =
                        |pid: Pid, _s: &mut (), _in: &[FlitTag], out: &mut Outbox<FlitTag>| {
                            for &src in acks.sources(pid) {
                                out.send(src, (ACK_SRC, pid as u32, 0));
                            }
                        };
                    self.machine.superstep_auto(&acks.ackers, ack_body);
                    self.ack_supersteps += 1;
                    self.scan();
                    self.resume = Resume::BackoffEnter;
                    return RecoveryPhase::Ack(round);
                }
                Resume::BackoffEnter => {
                    let left = self.cfg.backoff(self.round);
                    self.resume = if left == 0 {
                        Resume::PostBackoff
                    } else {
                        Resume::Backoff { left }
                    };
                }
                Resume::Backoff { left } => {
                    // Bounded exponential backoff (also drains delayed
                    // payloads). No declared senders: only processors with
                    // due deliveries or a retained inbox wake, so drain
                    // steps cost O(arrivals), not O(p).
                    let round = self.round;
                    self.machine
                        .set_trace_label(format!("recovery/backoff{round}"));
                    self.machine.superstep_auto(&[], idle);
                    self.backoff_supersteps += 1;
                    self.scan();
                    self.resume = if left == 1 {
                        Resume::PostBackoff
                    } else {
                        Resume::Backoff { left: left - 1 }
                    };
                    return RecoveryPhase::Backoff(round);
                }
                Resume::PostBackoff => {
                    self.resume = if self.ledger.outstanding == 0 {
                        // Late arrivals cleared the residual during backoff.
                        Resume::Drain
                    } else {
                        Resume::Retransmit
                    };
                }
                Resume::Retransmit => {
                    // Retransmit the residual through the same scheduler,
                    // fresh seed.
                    let round = self.round;
                    self.ledger
                        .residual(self.wl, &mut self.residual, &mut self.resend);
                    let ResidualTags { flit_off, tags } = &self.resend;
                    self.resent_flits += tags.len() as u64;
                    let round_seed = self.seed ^ (round as u64).wrapping_mul(0x9E37);
                    let schedule =
                        self.scheduler
                            .schedule(&self.residual, self.params.m, round_seed);
                    self.machine
                        .set_trace_label(format!("recovery/retransmit{round}"));
                    self.machine.set_fault_round(round);
                    send_round(
                        &mut self.machine,
                        &self.residual,
                        &schedule,
                        &mut self.senders,
                        |_, m, f| tags[flit_off[m] + f as usize],
                    );
                    self.scan();
                    self.resume = Resume::LoopHead;
                    return RecoveryPhase::Retransmit(round);
                }
                Resume::Drain => {
                    // Drain: payloads still inside the network (delays,
                    // duplicate copies) arrive within bounded time; idle
                    // until the network is empty.
                    if self.machine.faults_in_flight() == 0 {
                        self.resume = Resume::Done;
                        continue;
                    }
                    self.machine.set_trace_label("recovery/drain");
                    self.machine.superstep_auto(&[], idle);
                    self.backoff_supersteps += 1;
                    self.scan();
                    return RecoveryPhase::Drain;
                }
                Resume::Done => return RecoveryPhase::Done,
            }
        }
    }

    /// Whether the protocol has terminated ([`step`](Self::step) would
    /// return [`RecoveryPhase::Done`]).
    pub fn is_done(&self) -> bool {
        matches!(self.resume, Resume::Done)
            || (matches!(self.resume, Resume::Drain) && self.machine.faults_in_flight() == 0)
    }

    /// Flits of the original workload not yet delivered.
    pub fn outstanding(&self) -> u64 {
        self.ledger.outstanding
    }

    /// Retransmission rounds started so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// The engine's running fault ledger.
    pub fn fault_stats(&self) -> FaultStats {
        self.machine.fault_stats()
    }

    /// The underlying machine (read-only), e.g. for canonical state hashes
    /// between supersteps.
    pub fn machine(&self) -> &BspMachine<(), FlitTag> {
        &self.machine
    }

    /// Idle backoff/drain supersteps charged so far.
    pub fn backoff_supersteps(&self) -> u64 {
        self.backoff_supersteps
    }

    /// Snapshot the whole session at the current superstep boundary:
    /// machine state (via [`BspMachine::checkpoint`]) plus the protocol's
    /// own state — delivery ledger, resume point, round and superstep
    /// counters. Passive: taking a snapshot perturbs nothing, so a run
    /// that checkpoints and never rolls back is byte-identical to one that
    /// never checkpoints.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            machine: self.machine.checkpoint(),
            ledger: self.ledger.clone(),
            resume: self.resume,
            round: self.round,
            resent_flits: self.resent_flits,
            ack_supersteps: self.ack_supersteps,
            backoff_supersteps: self.backoff_supersteps,
        }
    }

    /// Roll the session back to `ckpt` after a crash: machine state reverts
    /// through the ledger-monotone [`BspMachine::rollback`] (aborted
    /// in-flight payloads are written off to `crashed`, re-materialized
    /// snapshot payloads credited to `restored`), protocol state reverts to
    /// the snapshot, and the next executed superstep's trace event carries
    /// a [`RecoveryMark::Rollback`] record.
    ///
    /// Superstep *profiles* are deliberately not rolled back — the aborted
    /// timeline's supersteps really executed and stay priced, which is
    /// exactly the recovery overhead the cost models are meant to see. The
    /// protocol counters (`rounds`, `resent_flits`, …) do revert, so the
    /// outcome reports the surviving timeline's protocol shape while
    /// `profiles`/`summary` price everything that ran.
    pub fn rollback(&mut self, ckpt: &SessionCheckpoint) {
        let from = self.machine.superstep_index() as u64;
        self.machine.rollback(&ckpt.machine);
        self.machine.set_recovery_mark(RecoveryMark::Rollback {
            from,
            to: ckpt.machine.superstep(),
        });
        self.ledger = ckpt.ledger.clone();
        self.resume = ckpt.resume;
        self.round = ckpt.round;
        self.resent_flits = ckpt.resent_flits;
        self.ack_supersteps = ckpt.ack_supersteps;
        self.backoff_supersteps = ckpt.backoff_supersteps;
    }

    /// Stamp a [`RecoveryMark`] onto the next executed superstep's trace
    /// event (the checkpoint driver marks snapshot writes this way).
    pub fn set_recovery_mark(&mut self, mark: RecoveryMark) {
        self.machine.set_recovery_mark(mark);
    }

    /// Finish the session into an outcome (normally called once
    /// [`step`](Self::step) reports done; calling earlier snapshots a
    /// partial run).
    pub fn into_outcome(self) -> RecoveryOutcome {
        let profiles = self.machine.profiles().to_vec();
        RecoveryOutcome {
            summary: CostSummary::price(self.params, &profiles),
            profiles,
            rounds: self.round,
            delivered_all: self.ledger.outstanding == 0,
            resent_flits: self.resent_flits,
            ack_supersteps: self.ack_supersteps,
            backoff_supersteps: self.backoff_supersteps,
            arrival_steps: self.ledger.arrival_steps,
            fault_stats: self.machine.fault_stats(),
        }
    }
}

/// A superstep-consistent snapshot of a whole [`RecoverySession`]:
/// machine state plus protocol state, everything needed to roll back to
/// the barrier it was taken at. Created by [`RecoverySession::checkpoint`],
/// consumed by [`RecoverySession::rollback`].
pub struct SessionCheckpoint {
    machine: MachineCheckpoint<(), FlitTag>,
    ledger: DeliveryLedger,
    resume: Resume,
    round: u32,
    resent_flits: u64,
    ack_supersteps: u64,
    backoff_supersteps: u64,
}

impl SessionCheckpoint {
    /// Superstep boundary the snapshot was taken at.
    pub fn superstep(&self) -> u64 {
        self.machine.superstep()
    }

    /// Words `pid` contributes to a checkpoint write (one word of processor
    /// state plus its retained inbox payloads) — the per-processor h-relation
    /// load of writing this snapshot to its buddy.
    pub fn state_words(&self, pid: Pid) -> u64 {
        self.machine.state_words(pid)
    }

    /// Total message payloads captured (inboxes + pending network).
    pub fn total_payloads(&self) -> u64 {
        self.machine.total_payloads()
    }

    /// Number of processors captured.
    pub fn p(&self) -> usize {
        self.machine.p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_schedule_on_bsp;
    use crate::flits::UnbalancedFlitSend;
    use crate::schedulers::{OfflineOptimal, UnbalancedSend};
    use crate::workload;
    use pbw_faults::FaultScript;
    use pbw_sim::{DeliveryCtx, Fate};

    fn params(p: usize, m: usize) -> MachineParams {
        MachineParams::from_bandwidth(p, m, 4)
    }

    #[test]
    fn reliable_network_is_bit_exact_with_the_fault_free_path() {
        let unit = workload::uniform_random(32, 4, 5);
        let multi_flit = workload::variable_length(32, 4, 3.0, 5);
        let cases: [(&Workload, &dyn Scheduler); 2] = [
            (&unit, &UnbalancedSend::new(0.2)),
            (&multi_flit, &UnbalancedFlitSend::new(0.2)),
        ];
        let mp = params(32, 8);
        for (wl, sched) in cases {
            let direct = run_schedule_on_bsp(wl, &sched.schedule(wl, mp.m, 9), mp);
            let recovered = run_with_recovery(wl, sched, mp, 9, None, &RecoveryConfig::default());
            assert_eq!(recovered.summary, direct.summary, "{}", sched.name());
            assert_eq!(recovered.profiles.len(), 1);
            assert_eq!(recovered.rounds, 0);
            assert!(recovered.delivered_all);
            assert_eq!(recovered.resent_flits, 0);
            assert_eq!(recovered.ack_supersteps + recovered.backoff_supersteps, 0);
            assert_eq!(recovered.arrival_steps.len() as u64, wl.n_flits());
        }
    }

    /// Partial loss of one multi-flit message: the script drops its first
    /// and last flits in the send superstep and delivers the rest. Round 1
    /// must resend exactly those two flits, under their original tags.
    #[test]
    fn partial_loss_of_a_multi_flit_message_resends_exactly_the_missing_flits() {
        let p = 16;
        let wl = workload::variable_length(p, 3, 3.0, 5);
        assert!(!wl.is_unit());
        let (src, k) = (0..p)
            .flat_map(|src| (0..wl.msgs(src).len()).map(move |k| (src, k)))
            .find(|&(src, k)| wl.msgs(src)[k].len >= 3)
            .expect("a message of three or more flits");
        let msg = wl.msgs(src)[k];
        // The engine numbers a sender's envelopes in send order, and each
        // flit is one envelope: `src`'s earlier messages' flits come first.
        let first: u64 = wl.msgs(src)[..k].iter().map(|m| m.len).sum();
        let dropped = [0, msg.len - 1];
        let script = dropped.iter().fold(FaultScript::new(), |s, &f| {
            s.with_fate(0, src, (first + f) as usize, Fate::Drop)
        });
        let sched = UnbalancedFlitSend::new(0.2);
        let cfg = RecoveryConfig::default();
        let mut session = RecoverySession::new(
            Arc::new(pbw_trace::NullSink),
            &wl,
            &sched,
            params(p, 4),
            3,
            Some(Arc::new(script)),
            &cfg,
        );
        let mut resent = None;
        loop {
            let phase = session.step();
            if phase == RecoveryPhase::Done {
                break;
            }
            // The ledger conserves at every boundary: each flit is either
            // outstanding or has exactly one recorded arrival.
            assert_eq!(
                session.outstanding() + session.ledger.arrival_steps.len() as u64,
                wl.n_flits(),
                "after {phase:?}"
            );
            assert!(session.fault_stats().conserved(), "after {phase:?}");
            if phase == RecoveryPhase::Retransmit(1) {
                resent = Some(session.machine().pending_inbox(msg.dest).to_vec());
            }
        }
        let tags: Vec<FlitTag> = dropped
            .iter()
            .map(|&f| (src as u32, k as u32, f as u32))
            .collect();
        assert_eq!(resent, Some(tags), "the resent flits keep their tags");

        let out = session.into_outcome();
        assert!(out.delivered_all);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.fault_stats.dropped, dropped.len() as u64);
        assert_eq!(out.resent_flits, out.fault_stats.dropped);
        assert_eq!(out.arrival_steps.len() as u64, wl.n_flits());
        assert!(out.fault_stats.conserved());
        assert_eq!(out.fault_stats.in_flight, 0);
    }

    /// Drops every copy of one (src → dest) edge in superstep 0 only.
    struct DropFirstAttempt;
    impl DeliveryHook for DropFirstAttempt {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.superstep == 0 && ctx.src == 0 {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn dropped_flits_are_retransmitted_and_arrive() {
        let wl = workload::uniform_random(16, 4, 2);
        let mp = params(16, 4);
        let out = run_with_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            1,
            Some(Arc::new(DropFirstAttempt)),
            &RecoveryConfig::default(),
        );
        assert!(out.delivered_all);
        assert_eq!(out.rounds, 1);
        let lost: u64 = wl.msgs(0).iter().map(|m| m.len).sum();
        assert_eq!(out.resent_flits, lost);
        assert_eq!(out.ack_supersteps, 1);
        // Every flit accounted for exactly once.
        assert_eq!(out.arrival_steps.len() as u64, wl.n_flits());
        assert!(out.fault_stats.conserved());
        // Recovery costs strictly more than it would have fault-free.
        let direct = run_schedule_on_bsp(&wl, &OfflineOptimal.schedule(&wl, mp.m, 1), mp);
        assert!(out.summary.bsp_m_exp > direct.summary.bsp_m_exp);
    }

    /// Drops an edge forever — recovery must give up at max_rounds.
    struct BlackHole;
    impl DeliveryHook for BlackHole {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.src == 0 {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn permanent_loss_gives_up_after_max_rounds() {
        let wl = workload::uniform_random(8, 2, 3);
        let cfg = RecoveryConfig {
            max_rounds: 3,
            ..RecoveryConfig::default()
        };
        let out = run_with_recovery(
            &wl,
            &OfflineOptimal,
            params(8, 2),
            5,
            Some(Arc::new(BlackHole)),
            &cfg,
        );
        assert!(!out.delivered_all);
        assert_eq!(out.rounds, 3);
        assert!(out.fault_stats.dropped > 0);
        assert!(out.fault_stats.conserved());
    }

    /// Delays everything sent in superstep 0 by two supersteps.
    struct SlowStart;
    impl DeliveryHook for SlowStart {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.superstep == 0 {
                Fate::Delay(2)
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn delayed_flits_arrive_during_backoff_without_retransmission() {
        let wl = workload::uniform_random(8, 2, 7);
        let out = run_with_recovery(
            &wl,
            &OfflineOptimal,
            params(8, 2),
            2,
            Some(Arc::new(SlowStart)),
            &RecoveryConfig::default(),
        );
        assert!(out.delivered_all);
        // The backoff window outlasted the delay: nothing was resent.
        assert_eq!(out.resent_flits, 0);
        assert_eq!(out.rounds, 1);
        assert!(out.fault_stats.conserved());
        assert_eq!(out.fault_stats.in_flight, 0);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let cfg = RecoveryConfig {
            backoff_base: 2,
            backoff_cap: 12,
            ..Default::default()
        };
        assert_eq!(cfg.backoff(1), 2);
        assert_eq!(cfg.backoff(2), 4);
        assert_eq!(cfg.backoff(3), 8);
        assert_eq!(cfg.backoff(4), 12); // capped
        assert_eq!(cfg.backoff(30), 12);
    }

    /// Drops src 0's first attempt and delays everything sent in the
    /// retransmission superstep — forces a round *and* a drain tail.
    struct DropThenDelay;
    impl DeliveryHook for DropThenDelay {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.superstep == 0 && ctx.src == 0 {
                Fate::Drop
            } else if ctx.src == 0 {
                Fate::Delay(2)
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn stepped_session_is_bit_exact_with_the_batch_entry_point() {
        let wl = workload::uniform_random(16, 2, 4);
        let mp = params(16, 4);
        let cfg = RecoveryConfig::default();
        let batch = run_with_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            3,
            Some(Arc::new(DropThenDelay)),
            &cfg,
        );

        let mut session = RecoverySession::new(
            pbw_trace::global_sink(),
            &wl,
            &OfflineOptimal,
            mp,
            3,
            Some(Arc::new(DropThenDelay)),
            &cfg,
        );
        let mut phases = Vec::new();
        loop {
            let ph = session.step();
            if ph == RecoveryPhase::Done {
                break;
            }
            // The ledger conserves at *every* superstep boundary, not just
            // at quiescence — the probe pbw-check runs between steps.
            assert!(session.fault_stats().conserved(), "after {ph:?}");
            phases.push(ph);
        }
        assert!(session.is_done());
        assert_eq!(phases[0], RecoveryPhase::Send);
        assert!(phases.contains(&RecoveryPhase::Ack(1)));
        assert!(phases.contains(&RecoveryPhase::Retransmit(1)));
        // The delayed retransmissions arrive during round 2's backoff
        // window, so the protocol ends without a dedicated drain superstep.
        assert!(matches!(phases.last(), Some(RecoveryPhase::Backoff(2))));

        let stepped = session.into_outcome();
        assert_eq!(stepped.summary, batch.summary);
        assert_eq!(stepped.profiles, batch.profiles);
        assert_eq!(stepped.rounds, batch.rounds);
        assert_eq!(stepped.delivered_all, batch.delivered_all);
        assert_eq!(stepped.resent_flits, batch.resent_flits);
        assert_eq!(stepped.ack_supersteps, batch.ack_supersteps);
        assert_eq!(stepped.backoff_supersteps, batch.backoff_supersteps);
        assert_eq!(stepped.arrival_steps, batch.arrival_steps);
        assert_eq!(stepped.fault_stats, batch.fault_stats);
    }

    #[test]
    fn arrival_percentile_bounds_checks() {
        let wl = workload::uniform_random(8, 2, 7);
        let out = run_with_recovery(
            &wl,
            &OfflineOptimal,
            params(8, 2),
            2,
            None,
            &Default::default(),
        );
        assert!(out.arrival_percentile(0.5).is_some());
        assert_eq!(out.arrival_percentile(1.5), None);
        assert_eq!(out.arrival_percentile(-0.1), None);
        // Fault-free: everything arrives at the first boundary.
        assert_eq!(out.arrival_percentile(1.0), Some(1));
    }
}
