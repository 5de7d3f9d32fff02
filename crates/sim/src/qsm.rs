//! The shared-memory bulk-synchronous machine (QSM style).
//!
//! A [`QsmMachine`] holds `p` processor states plus a shared memory of
//! [`Word`]s. Each [`QsmMachine::phase`] runs a closure once per processor;
//! the closure receives the *values returned by the reads it issued in the
//! previous phase* (QSM semantics: "the value returned by a shared-memory
//! read can only be used in a subsequent phase") and posts new read/write
//! requests to a [`QsmCtx`].
//!
//! Model rules enforced by the engine:
//!
//! * Concurrent reads or concurrent writes to a location within a phase are
//!   allowed; a mix of both on one location is an error
//!   ([`SimError::ReadWriteConflict`]).
//! * Multiple writers to one location are resolved arbitrarily; for
//!   reproducibility this engine deterministically lets the *lowest
//!   processor id* win (a valid instance of the Arbitrary rule).
//! * The maximum location contention `κ` and the per-step request-injection
//!   histogram `m_t` (for the QSM(m) cost metric) are metered exactly. As in
//!   the BSP engine, requests may be pinned to explicit injection slots via
//!   [`QsmCtx::read_at`] / [`QsmCtx::write_at`]; unpinned requests pipeline
//!   into the earliest free slots.

use crate::arena::MsgArena;
use crate::hook::{
    charge_fault_masks, land_due, place_retained, queue_pending, BatchDests, DeliveryHook, Fate,
    FaultStats,
};
use crate::{Pid, SimError};
use pbw_models::{AccessTally, FrontierMask, MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_trace::{FaultCounters, TraceEvent, TraceSink, TraceSource};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// A shared-memory word. The paper's Section 5 bounds are sensitive to the
/// word width `w`; 64-bit words match the `w = Θ(lg p)` regime.
pub type Word = i64;

/// Shared-memory address.
pub type Addr = usize;

/// The value delivered to a processor for one read it issued last phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Address that was read.
    pub addr: Addr,
    /// Value the location held during the read phase.
    pub value: Word,
}

#[derive(Debug, Clone)]
enum Request {
    Read {
        addr: Addr,
        slot: Option<u64>,
    },
    Write {
        addr: Addr,
        value: Word,
        slot: Option<u64>,
    },
}

impl Request {
    fn addr(&self) -> Addr {
        match self {
            Request::Read { addr, .. } | Request::Write { addr, .. } => *addr,
        }
    }

    fn slot(&self) -> Option<u64> {
        match self {
            Request::Read { slot, .. } | Request::Write { slot, .. } => *slot,
        }
    }
}

/// Per-processor request buffer for one QSM phase.
#[derive(Debug, Default)]
pub struct QsmCtx {
    requests: Vec<Request>,
    work: u64,
}

impl QsmCtx {
    /// Issue a shared-memory read; the value arrives next phase, pipelined
    /// into the earliest free injection slot.
    pub fn read(&mut self, addr: Addr) {
        self.requests.push(Request::Read { addr, slot: None });
    }

    /// Issue a read pinned to injection step `slot`.
    pub fn read_at(&mut self, addr: Addr, slot: u64) {
        self.requests.push(Request::Read {
            addr,
            slot: Some(slot),
        });
    }

    /// Issue a shared-memory write, pipelined; it lands at the end of the
    /// phase. When several processors write one location, the lowest pid's
    /// write lands (the Arbitrary rule, made deterministic); a processor's
    /// own writes to one location land in program order, so its last one
    /// is the one kept.
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.requests.push(Request::Write {
            addr,
            value,
            slot: None,
        });
    }

    /// Issue a write pinned to injection step `slot`.
    pub fn write_at(&mut self, addr: Addr, value: Word, slot: u64) {
        self.requests.push(Request::Write {
            addr,
            value,
            slot: Some(slot),
        });
    }

    /// Charge `w` units of local computation.
    pub fn charge_work(&mut self, w: u64) {
        self.work += w;
    }

    /// Empty the context for the next phase, keeping its capacity.
    fn reset(&mut self) {
        self.requests.clear();
        self.work = 0;
    }

    fn counts(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for req in &self.requests {
            match req {
                Request::Read { .. } => r += 1,
                Request::Write { .. } => w += 1,
            }
        }
        (r, w)
    }
}

/// Report for one executed QSM phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Exact cost profile of the phase.
    pub profile: SuperstepProfile,
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests applied (post-arbitration writes count once
    /// per request, not per surviving value).
    pub writes: u64,
}

/// A simulated `p`-processor QSM machine with `size` shared-memory words.
///
/// ```
/// use pbw_models::MachineParams;
/// use pbw_sim::QsmMachine;
///
/// let mp = MachineParams::from_gap(4, 2, 2);
/// let mut qsm: QsmMachine<i64> = QsmMachine::new(mp, 8, |_| 0);
/// // Phase 1: everyone writes its own cell (exclusive, κ = 1)…
/// qsm.phase(|pid, _s, _res, ctx| ctx.write(pid, 10 * pid as i64));
/// // Phase 2: …then reads its neighbour's; values arrive next phase.
/// qsm.phase(|pid, _s, _res, ctx| ctx.read((pid + 1) % 4));
/// qsm.phase(|_pid, s, res, _ctx| *s = res[0].value);
/// assert_eq!(qsm.states(), &[10, 20, 30, 0]);
/// assert_eq!(qsm.profiles()[0].max_contention, 1);
/// ```
pub struct QsmMachine<S> {
    params: MachineParams,
    shared: Vec<Word>,
    states: Vec<S>,
    /// Read results awaiting the next phase, segmented per processor.
    read_results: MsgArena<ReadResult>,
    /// The previous phase's arena, recycled by swapping (see
    /// [`crate::bsp::BspMachine`]'s double-buffered inboxes).
    spare: MsgArena<ReadResult>,
    /// Per-processor request contexts, reset (capacity kept) every phase.
    ctxs: Vec<QsmCtx>,
    /// Per-processor resolved injection slots, refilled every phase.
    resolved: Vec<Vec<u64>>,
    /// Per-processor precomputed fates (hooked machines only).
    fates: Vec<Vec<Fate>>,
    /// Stalled processors this phase (read only behind `hooked`); cleared
    /// by an O(1) epoch bump and filled through
    /// [`DeliveryHook::fill_fault_masks`].
    stalled: FrontierMask,
    /// Crash-stopped processors this phase.
    crashed: FrontierMask,
    /// Contention-audit tally, one entry per location; reset in
    /// O(locations touched).
    tally: AccessTally,
    /// Profile accumulator, snapshot-and-reset every phase.
    builder: ProfileBuilder,
    profiles: Vec<SuperstepProfile>,
    phase: usize,
    sink: Arc<dyn TraceSink>,
    trace_label: String,
    hook: Option<Arc<dyn DeliveryHook>>,
    /// `pending_results[k]` holds read results the memory system will hand
    /// back `k + 1` phases from now (delayed responses, duplicate copies).
    pending_results: VecDeque<Vec<(Pid, ReadResult)>>,
    /// Drained pending-level buffers kept for reuse by `queue_pending`.
    pending_pool: Vec<Vec<(Pid, ReadResult)>>,
    fault_stats: FaultStats,
}

impl<S: Send + Sync> QsmMachine<S> {
    /// Create a machine with `params.p` processors and `size` words of
    /// shared memory (zero-initialized).
    ///
    /// The machine captures the process-wide trace sink
    /// ([`pbw_trace::global_sink`]) at construction; use
    /// [`QsmMachine::set_sink`] to attach a specific sink instead.
    pub fn new(params: MachineParams, size: usize, init: impl FnMut(Pid) -> S) -> Self {
        let p = params.p;
        let states: Vec<S> = (0..p).map(init).collect();
        Self {
            params,
            shared: vec![0; size],
            states,
            read_results: MsgArena::new(p),
            spare: MsgArena::new(p),
            ctxs: std::iter::repeat_with(QsmCtx::default).take(p).collect(),
            resolved: vec![Vec::new(); p],
            fates: Vec::new(),
            stalled: FrontierMask::new(p),
            crashed: FrontierMask::new(p),
            tally: AccessTally::new(size),
            builder: ProfileBuilder::new(),
            profiles: Vec::new(),
            phase: 0,
            sink: pbw_trace::global_sink(),
            trace_label: String::new(),
            hook: None,
            pending_results: VecDeque::new(),
            pending_pool: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Attach a trace sink, replacing the one captured at construction.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Attach a fault-injection hook (see [`crate::hook`]).
    ///
    /// QSM fault semantics: a [`Fate::Drop`] discards the request (a read
    /// returns no result — non-receipt is observable — and a write is never
    /// applied); [`Fate::Delay`] holds a read's *response* for `k` extra
    /// phases (the value is still the one read in the request phase — the
    /// memory served the read, the network delayed the reply); a delayed
    /// write is applied on time (the memory system absorbs it in order);
    /// [`Fate::Duplicate`] hands a read result back twice (a duplicated
    /// write is idempotent and treated as normal); [`Fate::Displace`]
    /// shifts the request's injection slot. All fates consume the request's
    /// injection slot and bandwidth.
    ///
    /// Crash-stop semantics ([`DeliveryHook::crashed`]): a crashed
    /// processor's closure is skipped (it issues no requests), its unseen
    /// read results evaporate uncharged (they were already counted
    /// `delivered`), and any delayed response falling due while it is down
    /// is destroyed and charged to the ledger's `crashed` column. Crash
    /// overrides stall — nothing is retained across a crashed phase.
    pub fn set_delivery_hook(&mut self, hook: Arc<dyn DeliveryHook>) -> &mut Self {
        self.hook = Some(hook);
        self
    }

    /// Remove any fault-injection hook (in-flight delayed responses still
    /// arrive on schedule).
    pub fn clear_delivery_hook(&mut self) -> &mut Self {
        self.hook = None;
        self
    }

    /// The running fault ledger (see [`FaultStats`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Read responses currently held inside the memory system.
    pub fn faults_in_flight(&self) -> u64 {
        self.fault_stats.in_flight
    }

    /// Label stamped on every trace event this machine emits.
    pub fn set_trace_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.trace_label = label.into();
        self
    }

    /// Machine parameters.
    pub fn params(&self) -> MachineParams {
        self.params
    }

    /// The shared memory (for test setup and result extraction — reading it
    /// directly is free and does not perturb cost accounting).
    pub fn shared(&self) -> &[Word] {
        &self.shared
    }

    /// Mutable shared memory (setup only).
    pub fn shared_mut(&mut self) -> &mut [Word] {
        &mut self.shared
    }

    /// Processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable processor states (setup only).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// One processor's state.
    pub fn state(&self, pid: Pid) -> &S {
        &self.states[pid]
    }

    /// Profiles of all executed phases.
    pub fn profiles(&self) -> &[SuperstepProfile] {
        &self.profiles
    }

    /// Number of phases executed.
    pub fn phase_index(&self) -> usize {
        self.phase
    }

    /// Total run cost under any cost model.
    pub fn cost(&self, model: &dyn pbw_models::CostModel) -> f64 {
        model.run_cost(&self.profiles)
    }

    /// Execute one phase, panicking on model-rule violations.
    pub fn phase<F>(&mut self, f: F) -> PhaseReport
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        self.try_phase(f)
            .unwrap_or_else(|e| panic!("QSM phase failed: {e}"))
    }

    /// Execute one phase, returning model-rule violations as errors.
    ///
    /// Every pass visits all `p` processors (the parallel ones in parallel)
    /// in ascending pid order where order is observable. Each pass is a
    /// named method below; a rejected phase returns before anything is
    /// recorded into the persistent profile builder.
    pub fn try_phase<F>(&mut self, f: F) -> Result<PhaseReport, SimError>
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        let step = self.phase as u64;
        // Rotate the arenas: `spare` becomes the read side (last phase's
        // responses), and the arena the previous phase read from is cleared
        // for refill. A rejected phase leaves `read_results` cleared — its
        // in-flight responses are lost but the machine stays runnable.
        std::mem::swap(&mut self.read_results, &mut self.spare);
        self.read_results.clear();

        // A stalled processor skips its closure this phase; its undelivered
        // read results are re-presented next phase. The masks are cleared
        // in O(1) (epoch bumps) and filled in one
        // [`DeliveryHook::fill_fault_masks`] call, so a hook that knows its
        // fault windows in closed form never pays the per-pid O(p) scan.
        // Unhooked machines never read the masks.
        let hook = self.hook.clone();
        let hooked = hook.is_some();
        if let Some(h) = &hook {
            self.stalled.clear();
            self.crashed.clear();
            h.fill_fault_masks(step, &mut self.stalled, &mut self.crashed);
        }

        self.run_closures(&f, hooked);
        self.resolve_requests()?;
        if let Some(h) = &hook {
            self.compute_fates(h.as_ref(), step);
        }
        self.audit_contention()?;

        let mut counters = FaultCounters::default();
        // Responses the memory system is due to release this phase (queued
        // by earlier Delay/Duplicate fates).
        let due = self.pending_results.pop_front().unwrap_or_default();
        self.lay_out_results(&due, hooked, &mut counters);
        let (mut reads, writes) = self.serve(hooked, &mut counters);
        // Late responses land after this phase's on-time serves. A response
        // falling due while its processor is down dies in the network,
        // charged to the crash column.
        reads += land_due(
            due,
            hooked.then_some(&self.crashed),
            &mut self.read_results,
            &mut self.fault_stats,
            &mut counters,
            &mut self.pending_pool,
        );
        self.read_results.finish();
        self.apply_writes(hooked);
        Ok(self.finish_phase(step, hooked, reads, writes, counters))
    }

    /// Run every processor's closure in parallel, each filling its recycled
    /// context; stalled and crashed processors skip theirs.
    fn run_closures<F>(&mut self, f: &F, hooked: bool)
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        let stalled = &self.stalled;
        let crashed = &self.crashed;
        let spare = &self.spare;
        let _: Vec<()> = self
            .states
            .par_iter_mut()
            .zip(self.ctxs.par_iter_mut())
            .enumerate()
            .map(|(pid, (state, ctx))| {
                ctx.reset();
                if !(hooked && (stalled.contains(pid) || crashed.contains(pid))) {
                    f(pid, state, spare.inbox(pid), ctx);
                }
            })
            .collect();
    }

    /// Validate every address, then resolve each processor's injection
    /// slots into its recycled slot buffer.
    fn resolve_requests(&mut self) -> Result<(), SimError> {
        let size = self.shared.len();
        for ctx in &self.ctxs {
            for req in &ctx.requests {
                let addr = req.addr();
                if addr >= size {
                    return Err(SimError::BadAddress { addr, size });
                }
            }
        }
        let validated: Result<Vec<()>, SimError> = self
            .ctxs
            .par_iter()
            .zip(self.resolved.par_iter_mut())
            .enumerate()
            .map(|(pid, (ctx, slots))| {
                crate::resolve_slots(pid, ctx.requests.iter().map(Request::slot), slots)
            })
            .collect();
        validated.map(drop)
    }

    /// Fates are pure in `(phase, pid, msg_idx, slot)`, so they are
    /// *computed* here in a parallel pass; the sequential serve loop only
    /// *applies* them, preserving the fixed order the ledger, pending-result
    /// queue, and traces are defined by.
    fn compute_fates(&mut self, h: &dyn DeliveryHook, step: u64) {
        let p = self.params.p;
        if self.fates.len() != p {
            self.fates.resize_with(p, Vec::new);
        }
        let _: Vec<()> = self
            .resolved
            .par_iter()
            .zip(self.fates.par_iter_mut())
            .enumerate()
            .map(|(pid, (slots, fates))| {
                fates.clear();
                // Every request in a QSM phase belongs to the requesting
                // processor, so the batch sees one uniform destination.
                h.fate_batch(step, pid, BatchDests::Uniform(pid), slots, fates);
            })
            .collect();
    }

    /// Contention audit: distinct readers and writers per location (the
    /// paper counts processors, not requests). The lowest location both
    /// read and written is an error; otherwise the phase's κ is recorded.
    fn audit_contention(&mut self) -> Result<(), SimError> {
        let tally = &mut self.tally;
        tally.clear();
        for (pid, ctx) in self.ctxs.iter().enumerate().rev() {
            for req in &ctx.requests {
                match *req {
                    Request::Read { addr, .. } => tally.read(pid, addr),
                    Request::Write { addr, .. } => tally.write(pid, addr),
                }
            }
        }
        let conflict = tally
            .cells()
            .filter(|(_, c)| c.readers > 0 && c.writers > 0)
            .map(|(addr, _)| addr)
            .min();
        if let Some(addr) = conflict {
            return Err(SimError::ReadWriteConflict { addr });
        }
        let kappa = tally.cells().map(|(_, c)| c.readers.max(c.writers));
        self.builder.record_contention(kappa.max().unwrap_or(0));
        Ok(())
    }

    /// Counting pass: exact per-processor response counts (results a
    /// stalled processor retains, reads served now by fate, plus due late
    /// responses) accumulate in the arena's own segment table and lay out
    /// the segments before any result moves; the retained results are then
    /// re-placed ahead of this phase's serves.
    fn lay_out_results(
        &mut self,
        due: &[(Pid, ReadResult)],
        hooked: bool,
        counters: &mut FaultCounters,
    ) {
        if hooked {
            let (arena, spare) = (&mut self.read_results, &self.spare);
            charge_fault_masks(
                &self.stalled,
                &self.crashed,
                &mut self.fault_stats,
                counters,
                |pid| arena.count(pid, spare.len(pid)),
            );
        }
        for (pid, ctx) in self.ctxs.iter().enumerate() {
            let mut served = 0;
            for (msg_idx, req) in ctx.requests.iter().enumerate() {
                if let Request::Read { .. } = req {
                    served += usize::from(!hooked || self.fates[pid][msg_idx].arrives_now());
                }
            }
            self.read_results.count(pid, served);
        }
        for &(pid, _) in due {
            if !(hooked && self.crashed.contains(pid)) {
                self.read_results.count(pid, 1);
            }
        }
        self.read_results.begin_counted();
        if hooked {
            place_retained(
                &self.spare,
                &self.stalled,
                &self.crashed,
                &mut self.read_results,
            );
        }
    }

    /// The sequential serve loop: visit every processor in pid order,
    /// record its memory-op and work observations, then apply each
    /// request's (precomputed) fate — serving reads against the pre-phase
    /// memory and counting the writes that survive. Returns
    /// `(reads_served_on_time, writes_surviving)`.
    fn serve(&mut self, hooked: bool, counters: &mut FaultCounters) -> (u64, u64) {
        let mut total_reads = 0u64;
        let mut total_writes = 0u64;
        for (pid, ctx) in self.ctxs.iter().enumerate() {
            let (r_i, w_i) = ctx.counts();
            self.builder.record_memory_ops(r_i, w_i);
            self.builder.record_work(ctx.work);
            for (msg_idx, (req, &slot)) in ctx.requests.iter().zip(&self.resolved[pid]).enumerate()
            {
                let fate = if hooked {
                    self.fates[pid][msg_idx]
                } else {
                    Fate::Deliver
                };
                self.fault_stats.injected += 1;
                let charged_slot = match fate {
                    Fate::Displace(d) => {
                        self.fault_stats.displaced += 1;
                        counters.displaced += 1;
                        slot + d
                    }
                    _ => slot,
                };
                self.builder.record_injection(charged_slot);
                if fate == Fate::Drop {
                    self.fault_stats.dropped += 1;
                    counters.dropped += 1;
                    continue;
                }
                match *req {
                    Request::Read { addr, .. } => {
                        let result = ReadResult {
                            addr,
                            value: self.shared[addr],
                        };
                        if let Fate::Delay(k) = fate {
                            queue_pending(
                                &mut self.pending_results,
                                &mut self.pending_pool,
                                &mut self.fault_stats,
                                k.max(1),
                                pid,
                                result,
                            );
                            self.fault_stats.delayed += 1;
                            counters.delayed += 1;
                            continue;
                        }
                        self.read_results.place(pid, result);
                        self.fault_stats.delivered += 1;
                        total_reads += 1;
                        if fate == Fate::Duplicate {
                            queue_pending(
                                &mut self.pending_results,
                                &mut self.pending_pool,
                                &mut self.fault_stats,
                                1,
                                pid,
                                result,
                            );
                            self.fault_stats.duplicated += 1;
                            counters.duplicated += 1;
                        }
                    }
                    Request::Write { .. } => {
                        // Delayed/duplicated writes are absorbed in order by
                        // the memory system (see
                        // [`QsmMachine::set_delivery_hook`]) and land in
                        // [`QsmMachine::apply_writes`].
                        self.fault_stats.delivered += 1;
                        total_writes += 1;
                    }
                }
            }
        }
        (total_reads, total_writes)
    }

    /// Land every write that was not dropped, from the highest pid down and
    /// each processor's in program order: a location keeps the last write
    /// of its lowest surviving writer (the Arbitrary rule, made
    /// deterministic). The audit rejected every location both read and
    /// written, so no read this phase could observe these writes.
    fn apply_writes(&mut self, hooked: bool) {
        for (pid, ctx) in self.ctxs.iter().enumerate().rev() {
            for (msg_idx, req) in ctx.requests.iter().enumerate() {
                if let Request::Write { addr, value, .. } = *req {
                    if !(hooked && self.fates[pid][msg_idx] == Fate::Drop) {
                        self.shared[addr] = value;
                    }
                }
            }
        }
    }

    /// Snapshot the profile, emit the trace event, and advance the phase
    /// index.
    fn finish_phase(
        &mut self,
        step: u64,
        hooked: bool,
        reads: u64,
        writes: u64,
        counters: FaultCounters,
    ) -> PhaseReport {
        let p = self.params.p;
        let profile = self.builder.snapshot_reset();
        if self.sink.enabled() {
            let mut ev = TraceEvent::for_superstep(
                TraceSource::Qsm,
                self.trace_label.clone(),
                step,
                self.params,
                profile.clone(),
                self.ctxs
                    .iter()
                    .map(|ctx| ctx.requests.len() as u64)
                    .collect(),
                (0..p).map(|d| self.read_results.len(d) as u64).collect(),
                crate::max_slot_multiplicity(&self.resolved, 0..p),
                reads + writes,
            );
            if hooked {
                ev = ev.with_faults(counters);
            }
            self.sink.record(ev);
        }
        self.profiles.push(profile.clone());
        self.phase += 1;
        PhaseReport {
            profile,
            reads,
            writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::DeliveryCtx;
    use pbw_models::{PenaltyFn, QsmG, QsmM};

    fn params(p: usize) -> MachineParams {
        MachineParams::from_gap(p, 4, 8)
    }

    #[test]
    fn read_values_arrive_next_phase() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 16, |_| -1);
        m.shared_mut()[3] = 42;
        m.phase(|_pid, _s, _res, ctx| ctx.read(3));
        m.phase(|_pid, s, res, _ctx| {
            assert_eq!(res.len(), 1);
            assert_eq!(res[0], ReadResult { addr: 3, value: 42 });
            *s = res[0].value;
        });
        assert_eq!(m.states(), &[42, 42, 42, 42]);
    }

    #[test]
    fn concurrent_reads_meter_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|_pid, _s, _res, ctx| ctx.read(0));
        assert_eq!(m.profiles()[0].max_contention, 4);
    }

    #[test]
    fn exclusive_reads_have_unit_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.read(pid));
        assert_eq!(m.profiles()[0].max_contention, 1);
    }

    #[test]
    fn min_pid_wins_concurrent_write() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.write(5, pid as Word + 100));
        assert_eq!(m.shared()[5], 100);
        assert_eq!(m.profiles()[0].max_contention, 4);
    }

    #[test]
    fn a_processors_last_write_to_a_location_lands() {
        // Every processor writes 8 increasing values to its own (permuted)
        // location, and pids 0..4 each write location `p` three times:
        // program order decides within a processor, the lowest pid across
        // processors.
        let p = 64;
        let mut m: QsmMachine<()> = QsmMachine::new(params(p), p + 1, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            for k in 0..8 {
                ctx.write((pid * 37) % p, (100 * pid + k) as Word);
            }
            if pid < 4 {
                for k in 0..3 {
                    ctx.write(p, (1000 * pid + k) as Word);
                }
            }
        });
        for pid in 0..p {
            assert_eq!(m.shared()[(pid * 37) % p], (100 * pid + 7) as Word);
        }
        assert_eq!(m.shared()[p], 2);
    }

    #[test]
    fn a_dropped_write_yields_to_the_next_surviving_writer() {
        struct DropPid0;
        impl crate::hook::DeliveryHook for DropPid0 {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.src == 0 {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }
        }
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.set_delivery_hook(Arc::new(DropPid0));
        m.phase(|pid, _s, _res, ctx| {
            ctx.write(3, 10 * pid as Word);
            ctx.write(3, 10 * pid as Word + 1);
        });
        assert_eq!(m.shared()[3], 11);
        assert_eq!(m.profiles()[0].max_contention, 4);
    }

    #[test]
    fn read_write_conflict_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m
            .try_phase(|pid, _s, _res, ctx| {
                if pid == 0 {
                    ctx.read(2);
                } else {
                    ctx.write(2, 9);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::ReadWriteConflict { addr: 2 });
    }

    #[test]
    fn bad_address_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m.try_phase(|_pid, _s, _res, ctx| ctx.read(8)).unwrap_err();
        assert_eq!(err, SimError::BadAddress { addr: 8, size: 8 });
    }

    #[test]
    fn reads_see_pre_phase_values() {
        // Reads and writes in the same phase must touch different locations;
        // a read concurrent with a write to a *different* location sees the
        // old value of its own location trivially. Check sequencing across
        // phases instead: a write in phase 1 is visible to a phase-2 read.
        let mut m: QsmMachine<Word> = QsmMachine::new(MachineParams::from_gap(2, 2, 8), 4, |_| 0);
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.write(1, 7);
            }
        });
        m.phase(|pid, _s, _res, ctx| {
            if pid == 1 {
                ctx.read(1);
            }
        });
        m.phase(|pid, s, res, _ctx| {
            if pid == 1 {
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(1), 7);
    }

    #[test]
    fn qsm_g_prices_pipelined_requests() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 64, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            for k in 0..6 {
                ctx.read(pid * 6 + k);
            }
        });
        // h = 6, g = 4 → phase cost 24 under QSM(g), κ = 1.
        let qsm_g = QsmG { g: 4 };
        assert_eq!(m.cost(&qsm_g), 24.0);
        // QSM(m) with m = 1: injections are 4 per step for 6 steps →
        // c_m = Σ f(4) with m=1 exp = 6·e^3.
        let qsm_m = QsmM {
            m: 1,
            penalty: PenaltyFn::Exponential,
        };
        let expect = 6.0 * (3.0f64).exp();
        assert!((m.cost(&qsm_m) - expect).abs() < 1e-9);
    }

    #[test]
    fn explicit_slots_stagger_requests() {
        let p = 8;
        let mut m: QsmMachine<()> = QsmMachine::new(params(p), 64, |_| ());
        // Stagger: processor i injects its single read at slot i — never more
        // than 1 request per machine step.
        m.phase(|pid, _s, _res, ctx| ctx.read_at(pid, pid as u64));
        let prof = &m.profiles()[0];
        assert_eq!(prof.injections, vec![1; p]);
        let qsm_m = QsmM {
            m: 1,
            penalty: PenaltyFn::Exponential,
        };
        assert_eq!(m.cost(&qsm_m), 8.0); // c_m = 8 slots · charge 1
    }

    #[test]
    fn duplicate_slot_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m
            .try_phase(|pid, _s, _res, ctx| {
                if pid == 1 {
                    ctx.read_at(0, 3);
                    ctx.write_at(1, 5, 3);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 1, slot: 3 });
        // Several collisions name the smallest duplicated slot.
        let err = m
            .try_phase(|_pid, _s, _res, ctx| {
                ctx.read_at(0, 7);
                ctx.read_at(1, 7);
                ctx.read_at(2, 4);
                ctx.read(3);
                ctx.read_at(4, 4);
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 0, slot: 4 });
    }

    #[test]
    fn explicit_and_auto_slots_mix() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(0);
                ctx.read_at(1, 0);
                ctx.read(2);
                ctx.read_at(3, 2);
                ctx.read(4);
            }
        });
        // Autos fill slots 1, 3 and 4 around the pinned 0 and 2.
        assert_eq!(m.profiles()[0].injections, vec![1, 1, 1, 1, 1]);
        assert_eq!(m.resolved[0], vec![1, 0, 3, 2, 4]);
    }

    #[test]
    fn repeat_read_same_location_counts_once_for_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(0);
                ctx.read(0);
            }
        });
        // One processor reading a location twice is contention 1 (paper
        // counts processors), though h = 2.
        assert_eq!(m.profiles()[0].max_contention, 1);
        assert_eq!(m.profiles()[0].max_reads, 2);
    }

    #[test]
    fn trace_events_cover_phases() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 16, |_| 0);
        m.set_sink(sink.clone()).set_trace_label("neighbour-read");
        m.phase(|pid, _s, _res, ctx| ctx.write(pid, pid as Word));
        m.phase(|pid, _s, _res, ctx| ctx.read((pid + 1) % 4));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].source, TraceSource::Qsm);
        assert_eq!(events[0].superstep, 0);
        assert_eq!(events[0].per_proc_sent, vec![1, 1, 1, 1]);
        assert_eq!(events[0].delivered, 4);
        // Reads issued in phase 1 are delivered during that phase's serve
        // loop, so the phase-1 event sees 4 read results.
        assert_eq!(events[1].per_proc_recv, vec![1, 1, 1, 1]);
        assert_eq!(events[1].profile, m.profiles()[1]);
        assert_eq!(events[1].max_proc_slot_injections, 1);
    }

    struct DropReads;
    impl crate::hook::DeliveryHook for DropReads {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Drop
        }
    }

    #[test]
    fn dropped_request_returns_no_result_and_writes_nothing() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| -1);
        m.shared_mut()[0] = 42;
        m.set_delivery_hook(Arc::new(DropReads));
        let r = m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(0);
            } else {
                ctx.write(pid, 7);
            }
        });
        assert_eq!((r.reads, r.writes), (0, 0));
        // All four requests still consumed injection slots.
        assert_eq!(m.profiles()[0].injections.iter().sum::<u64>(), 4);
        m.phase(|pid, _s, res, _ctx| {
            if pid == 0 {
                assert!(
                    res.is_empty(),
                    "dropped read must be observable as non-receipt"
                );
            }
        });
        assert_eq!(&m.shared()[1..4], &[0, 0, 0]);
        let stats = m.fault_stats();
        assert_eq!(stats.dropped, 4);
        assert!(stats.conserved());
    }

    struct DelayReads(u32);
    impl crate::hook::DeliveryHook for DelayReads {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Delay(self.0)
        }
    }

    #[test]
    fn delayed_read_response_carries_the_request_phase_value() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[3] = 10;
        m.set_delivery_hook(Arc::new(DelayReads(1)));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(3);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        // Overwrite the location while the response is in flight: the reply
        // must still carry the value served at request time.
        m.phase(|pid, _s, res, ctx| {
            assert!(res.is_empty());
            if pid == 1 {
                ctx.write(3, 99);
            }
        });
        // Delay(1) = one extra phase: requested in phase 0, normally seen in
        // phase 1, actually seen in phase 2.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                assert_eq!(res, &[ReadResult { addr: 3, value: 10 }]);
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(0), 10);
        assert_eq!(m.faults_in_flight(), 0);
        assert!(m.fault_stats().conserved());
    }

    #[test]
    fn stalled_qsm_processor_keeps_its_read_results() {
        struct StallP0Phase1;
        impl crate::hook::DeliveryHook for StallP0Phase1 {
            fn stalled(&self, phase: u64, pid: Pid) -> bool {
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[5] = 77;
        m.set_delivery_hook(Arc::new(StallP0Phase1));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(5);
            }
        });
        // Phase 1: pid 0 is stalled and never sees the result…
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        assert_eq!(*m.state(0), 0, "stalled closure must not run");
        // …phase 2: the retained result is finally consumed.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(0), 77);
        assert_eq!(m.fault_stats().stalled_steps, 1);
    }

    #[test]
    fn crashed_qsm_processor_issues_nothing_and_loses_unseen_results() {
        struct CrashP0Phase1;
        impl crate::hook::DeliveryHook for CrashP0Phase1 {
            fn crashed(&self, phase: u64, pid: Pid) -> bool {
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[5] = 77;
        m.set_delivery_hook(Arc::new(CrashP0Phase1));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(5);
            }
        });
        // Phase 1: pid 0 is down. Its unseen result evaporates (no stall-
        // style retention) and its closure never runs.
        m.phase(|pid, s, res, ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
                ctx.read(5);
            }
        });
        assert_eq!(*m.state(0), 0, "crashed closure must not run");
        // Phase 2: pid 0 is back with nothing — the result is gone for good
        // and no request was issued on its behalf while down.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        assert_eq!(*m.state(0), -1);
        let stats = m.fault_stats();
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.crashed, 0, "evaporated results are not re-charged");
        assert_eq!((stats.injected, stats.delivered), (1, 1));
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn delayed_response_due_at_a_crashed_processor_is_destroyed() {
        struct DelayIntoCrash;
        impl crate::hook::DeliveryHook for DelayIntoCrash {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.superstep == 0 {
                    Fate::Delay(1)
                } else {
                    Fate::Deliver
                }
            }
            fn crashed(&self, phase: u64, pid: Pid) -> bool {
                // Phase 1 is where the Delay(1) response is released back
                // to pid 0 — the custody-transfer point.
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[3] = 10;
        m.set_delivery_hook(Arc::new(DelayIntoCrash));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(3);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        m.phase(|_pid, _s, _res, _ctx| {});
        // The delayed response fell due exactly while pid 0 was down: it is
        // destroyed in the network and charged crashed.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 && !res.is_empty() {
                *s = res[0].value;
            }
        });
        // Phase 2 observed an empty result inbox (the map_or default):
        // the destroyed response never arrived, and never will.
        assert_eq!(*m.state(0), -1, "destroyed response must never arrive");
        let stats = m.fault_stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.delivered, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn work_charges_take_max() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.charge_work(pid as u64));
        assert_eq!(m.profiles()[0].max_work, 3);
    }
}
