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
use crate::hook::{open_fill, traffic_rows, Boundary, DeliveryHook, Fate, FaultStats};
use crate::lane::{block_len, max_slot_multiplicity, ranged, AsLane, Lane, Pass};
use crate::{Pid, SimError};
use pbw_models::{AccessTally, FrontierMask, MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_trace::{FaultCounters, TraceEvent, TraceSink, TraceSource};
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

/// What a request does at its address (the lane's key).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Request {
    Read,
    Write(Word),
}

/// Where a processor issues its requests during a phase.
///
/// Every processor of one block of consecutive pids writes into the same
/// recycled lane (see DESIGN.md §14): addresses and requests in flat
/// arrays, and a slot per request once one of them is pinned with
/// `read_at` or `write_at`.
#[derive(Debug, Default)]
pub struct QsmCtx {
    lane: Lane<Request>,
}

impl AsLane<Request> for QsmCtx {
    fn lane(&mut self) -> &mut Lane<Request> {
        &mut self.lane
    }
}

impl QsmCtx {
    /// Issue a shared-memory read; the value arrives next phase, pipelined
    /// into the earliest free injection slot.
    pub fn read(&mut self, addr: Addr) {
        self.lane.push(addr, Request::Read);
    }

    /// Issue a read pinned to injection step `slot`.
    ///
    /// # Panics
    /// If `slot` is `u64::MAX`, a step no phase reaches.
    pub fn read_at(&mut self, addr: Addr, slot: u64) {
        self.lane.push_at(addr, Request::Read, slot);
    }

    /// Issue a shared-memory write, pipelined; it lands at the end of the
    /// phase. When several processors write one location, the lowest pid's
    /// write lands (the Arbitrary rule, made deterministic); a processor's
    /// own writes to one location land in program order, so its last one
    /// is the one kept.
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.lane.push(addr, Request::Write(value));
    }

    /// Issue a write pinned to injection step `slot`.
    ///
    /// # Panics
    /// If `slot` is `u64::MAX`, a step no phase reaches.
    pub fn write_at(&mut self, addr: Addr, value: Word, slot: u64) {
        self.lane.push_at(addr, Request::Write(value), slot);
    }

    /// Charge `w` units of local computation.
    pub fn charge_work(&mut self, w: u64) {
        self.lane.charge(w);
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
    /// One request lane per block of [`block_len`] pids, reset every phase
    /// and recycled (capacity kept).
    lanes: Vec<QsmCtx>,
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
    /// Drained pending-level buffers kept for reuse.
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
            lanes: std::iter::repeat_with(QsmCtx::default)
                .take(p.div_ceil(block_len(p)))
                .collect(),
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
    /// Every pass visits all `p` processors (the closures block by block in
    /// parallel) in ascending pid order where order is observable. Each
    /// pass is a named method below; a rejected phase returns before
    /// anything is recorded into the persistent profile builder.
    ///
    /// A rejected phase has already run every closure, and the state
    /// changes those closures made stay. Everything else about it is
    /// discarded: no request is served or applied, no profile or trace
    /// event is recorded, the phase index does not advance, and the read
    /// results its closures saw are gone. Responses still held by the
    /// memory system stay in flight, the fault ledger is untouched, and
    /// the machine stays runnable. A closure that panics unwinds out of
    /// this call with the same effects, after only some closures ran.
    pub fn try_phase<F>(&mut self, f: F) -> Result<PhaseReport, SimError>
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        let step = self.phase as u64;
        // Rotate the arenas: `spare` becomes the read side (last phase's
        // responses), and the arena the previous phase read from is cleared
        // for refill. A rejected or panicked phase leaves `read_results`
        // cleared, so the next phase rotates the responses these closures
        // read out of reach: they are lost, while the state changes the
        // closures made stay. The machine stays runnable.
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

        self.run_closures(&f, hook.as_deref(), step);
        // The first out-of-range address in pid order outranks every slot
        // collision, then the first collision in pid order.
        let lanes = || self.lanes.iter().map(|ctx| &ctx.lane);
        let bad_key = lanes().find_map(|lane| lane.bad_key.clone());
        if let Some(e) = bad_key.or_else(|| lanes().find_map(|lane| lane.bad_slot.clone())) {
            return Err(e);
        }
        self.audit_contention()?;

        // Responses the memory system is due to release this phase (queued
        // by earlier Delay/Duplicate fates).
        let due = self.pending_results.pop_front().unwrap_or_default();
        let before = self.fault_stats;
        self.lay_out_results(&due, hooked);
        let (reads, writes, late) = self.serve(hooked, due);
        self.read_results.finish();
        self.apply_writes(hooked);
        let counters = self.fault_stats.counters_since(&before, late);
        Ok(self.finish_phase(step, hooked, reads, writes, counters))
    }

    /// Run every processor's closure, block by block in parallel, each
    /// block into its own lane; stalled and crashed processors skip
    /// theirs. Sealing a lane checks its addresses, resolves its injection
    /// slots and, hooked, computes its fates — pure in `(phase, pid,
    /// msg_idx, slot)`, so the sequential serve loop only *applies* them,
    /// in the fixed order the ledger, pending-result queue and traces are
    /// defined by.
    fn run_closures<F>(&mut self, f: &F, hook: Option<&dyn DeliveryHook>, step: u64)
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        let pass = Pass {
            block: block_len(self.params.p),
            down: hook.is_some().then_some((&self.stalled, &self.crashed)),
            bound: self.shared.len(),
            key_error: |_, addr, size| SimError::BadAddress { addr, size },
            materialize: true,
            hook: hook.map(|h| (h, step)),
            // Every request in a QSM phase belongs to the requesting
            // processor, so a batch sees one uniform destination.
            uniform: true,
        };
        let spare = &self.spare;
        pass.dense(&mut self.states, &mut self.lanes, |pid, s, ctx| {
            f(pid, s, spare.inbox(pid), ctx)
        });
    }

    /// Contention audit: distinct readers and writers per location (the
    /// paper counts processors, not requests). The lowest location both
    /// read and written is an error; otherwise the phase's κ is recorded.
    fn audit_contention(&mut self) -> Result<(), SimError> {
        let tally = &mut self.tally;
        tally.clear();
        for ctx in self.lanes.iter().rev() {
            let lane = &ctx.lane;
            for (s, r) in ranged(&lane.senders).rev() {
                for (&addr, req) in lane.keys[r.clone()].iter().zip(&lane.items[r]) {
                    match req {
                        Request::Read => tally.read(s.pid, addr),
                        Request::Write(_) => tally.write(s.pid, addr),
                    }
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

    /// Counting pass: exact per-processor response counts (reads served
    /// now by fate here; results a stalled processor retains and due late
    /// responses in [`open_fill`]) accumulate in the arena's own segment
    /// table and lay out the segments before any result moves; the
    /// retained results are then re-placed ahead of this phase's serves.
    fn lay_out_results(&mut self, due: &[(Pid, ReadResult)], hooked: bool) {
        for ctx in &self.lanes {
            let lane = &ctx.lane;
            for (s, r) in ranged(&lane.senders) {
                let reads = lane.items[r.clone()].iter().enumerate();
                let served = reads
                    .filter(|&(k, req)| {
                        matches!(req, Request::Read)
                            && (!hooked || lane.fates[r.start + k].arrives_now())
                    })
                    .count();
                self.read_results.count(s.pid, served);
            }
        }
        let faults = hooked.then_some((&self.stalled, &self.crashed));
        let stats = &mut self.fault_stats;
        open_fill(&mut self.read_results, &self.spare, faults, stats, due);
    }

    /// The sequential serve loop: visit every requesting processor in pid
    /// order, record its memory-op, work and injection observations, then
    /// apply each request's (precomputed) fate — serving reads against the
    /// pre-phase memory; surviving writes land in
    /// [`QsmMachine::apply_writes`]. Late responses land after the on-time
    /// serves. Returns `(reads, writes)` landed and, of the reads, the late
    /// arrivals.
    fn serve(&mut self, hooked: bool, due: Vec<(Pid, ReadResult)>) -> (u64, u64, u64) {
        let mut at = Boundary {
            arena: &mut self.read_results,
            pending: &mut self.pending_results,
            pool: &mut self.pending_pool,
            stats: &mut self.fault_stats,
            builder: &mut self.builder,
            dead: hooked.then_some(&self.crashed),
        };
        let (mut reads, mut writes, mut requests) = (0u64, 0u64, 0u64);
        for ctx in &self.lanes {
            let lane = &ctx.lane;
            requests += lane.keys.len() as u64;
            for (s, r) in ranged(&lane.senders) {
                let items = &lane.items[r.clone()];
                let r_i = items
                    .iter()
                    .filter(|req| matches!(req, Request::Read))
                    .count() as u64;
                at.builder.record_memory_ops(r_i, items.len() as u64 - r_i);
                at.builder.record_work(s.work);
                at.builder.record_injections_batch(&lane.slots[r.clone()]);
                let msgs = lane.keys[r.clone()]
                    .iter()
                    .zip(items)
                    .zip(&lane.slots[r.clone()]);
                for (k, ((&addr, req), &slot)) in msgs.enumerate() {
                    let fate = if hooked {
                        lane.fates[r.start + k]
                    } else {
                        Fate::Deliver
                    };
                    let read = matches!(req, Request::Read);
                    let result = read.then(|| ReadResult {
                        addr,
                        value: self.shared[addr],
                    });
                    if !at.apply(fate, slot, s.pid, result) {
                        continue;
                    }
                    if read {
                        reads += 1;
                    } else {
                        writes += 1;
                    }
                }
            }
        }
        let late = at.land_due(due);
        at.stats.injected += requests;
        at.stats.delivered += reads + writes + late;
        (reads + late, writes, late)
    }

    /// Land every write that was not dropped, from the highest pid down and
    /// each processor's in program order: a location keeps the last write
    /// of its lowest surviving writer (the Arbitrary rule, made
    /// deterministic). The audit rejected every location both read and
    /// written, so no read this phase could observe these writes.
    fn apply_writes(&mut self, hooked: bool) {
        for ctx in self.lanes.iter().rev() {
            let lane = &ctx.lane;
            for (_, r) in ranged(&lane.senders).rev() {
                let msgs = lane.keys[r.clone()].iter().zip(&lane.items[r.clone()]);
                for (k, (&addr, req)) in msgs.enumerate() {
                    if let Request::Write(value) = *req {
                        if !(hooked && lane.fates[r.start + k] == Fate::Drop) {
                            self.shared[addr] = value;
                        }
                    }
                }
            }
        }
    }

    /// Snapshot the profile, emit the trace event, and advance the phase
    /// index. A processor's received count excludes the results it
    /// retained through a stall, as in the BSP engine.
    fn finish_phase(
        &mut self,
        step: u64,
        hooked: bool,
        reads: u64,
        writes: u64,
        counters: FaultCounters,
    ) -> PhaseReport {
        let profile = self.builder.snapshot_reset();
        if self.sink.enabled() {
            let lanes = || self.lanes.iter().map(|ctx| &ctx.lane);
            let faults = hooked.then_some((&self.stalled, &self.crashed));
            let (sent, recv) = traffic_rows(
                self.params.p,
                lanes(),
                &self.read_results,
                &self.spare,
                faults,
            );
            let mut ev = TraceEvent::for_superstep(
                TraceSource::Qsm,
                self.trace_label.clone(),
                step,
                self.params,
                profile.clone(),
                sent,
                recv,
                max_slot_multiplicity(lanes()),
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
    #[should_panic(expected = "injection slot 18446744073709551615 is out of range")]
    fn a_pin_at_the_unpinned_marker_fails_the_phase() {
        // A pin at the lane's marker for plain requests fails the phase
        // after other pins too, not only as the lane's first pin.
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let _ = m.try_phase(|pid, _s, _res, ctx| {
            if pid == 2 {
                ctx.read_at(0, 1);
                ctx.write_at(1, 5, u64::MAX);
            }
        });
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
        assert_eq!(m.lanes[0].lane.slots, vec![1, 0, 3, 2, 4]);
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
    fn stalled_results_are_not_counted_again_in_the_trace_row() {
        // Pid 0 reads twice in phase 0 and is stalled in phase 1, which
        // re-presents the two results without delivering anything new. The
        // BSP engine's rule: a retained inbox is not received twice.
        use pbw_trace::RecordingSink;
        struct StallP0Phase1;
        impl crate::hook::DeliveryHook for StallP0Phase1 {
            fn stalled(&self, phase: u64, pid: Pid) -> bool {
                pid == 0 && phase == 1
            }
        }
        let sink = Arc::new(RecordingSink::new());
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.set_sink(sink.clone())
            .set_delivery_hook(Arc::new(StallP0Phase1));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(5);
                ctx.read(6);
            }
        });
        m.phase(|_pid, _s, _res, _ctx| {});
        let events = sink.take();
        assert_eq!(events[0].per_proc_recv, vec![2, 0, 0, 0]);
        assert_eq!(events[1].per_proc_recv, vec![0, 0, 0, 0]);
        assert_eq!(events[1].delivered, 0);
    }

    #[test]
    fn rejected_and_panicked_phases_leave_nothing_in_their_lanes() {
        // p = 256 packs pids 0..32 into one lane. A rejected phase (pid 4
        // issues valid requests and charges work, pid 5 reads out of
        // range) and then a panicking one (every pid reads, pid 133
        // panics) precede a phase in which only pid 6 reads. Only that
        // read may be served, priced and returned.
        struct Reliable;
        impl crate::hook::DeliveryHook for Reliable {}
        let p = 256;
        assert_eq!(crate::lane::block_len(p), 32);
        for width in [1, 8] {
            for hooked in [false, true] {
                let case = format!("width={width} hooked={hooked}");
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap()
                    .install(|| {
                        let mut m: QsmMachine<Vec<ReadResult>> =
                            QsmMachine::new(params(p), 16, |_| Vec::new());
                        if hooked {
                            m.set_delivery_hook(Arc::new(Reliable));
                        }
                        m.shared_mut()[3] = 30;
                        m.shared_mut()[7] = 70;
                        let err = m.try_phase(|pid, _s, _res, ctx| match pid {
                            4 => {
                                ctx.read_at(3, 5);
                                ctx.write(9, 1);
                                ctx.charge_work(40);
                            }
                            5 => ctx.read(16),
                            _ => {}
                        });
                        assert_eq!(
                            err.unwrap_err(),
                            SimError::BadAddress { addr: 16, size: 16 },
                            "{case}"
                        );
                        let unwound =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                m.phase(|pid, _s, _res, ctx| {
                                    ctx.read(3);
                                    assert_ne!(pid, 133, "planted closure panic");
                                })
                            }));
                        assert!(unwound.is_err(), "{case}");
                        assert_eq!(m.phase_index(), 0, "{case}");
                        let r = m.phase(|pid, _s, _res, ctx| {
                            if pid == 6 {
                                ctx.read(7);
                            }
                        });
                        assert_eq!((r.reads, r.writes), (1, 0), "{case}");
                        assert_eq!(r.profile.injections, vec![1], "{case}");
                        assert_eq!(r.profile.max_work, 0, "{case}");
                        m.phase(|_pid, s, res, _ctx| s.extend_from_slice(res));
                        let got: Vec<(Pid, Vec<ReadResult>)> = (0..p)
                            .filter(|&pid| !m.state(pid).is_empty())
                            .map(|pid| (pid, m.state(pid).clone()))
                            .collect();
                        assert_eq!(
                            got,
                            vec![(6, vec![ReadResult { addr: 7, value: 70 }])],
                            "{case}"
                        );
                        assert_eq!(m.shared()[9], 0, "{case}");
                        let stats = m.fault_stats();
                        assert!(stats.conserved(), "{case} ledger {stats:?}");
                        assert_eq!(stats.injected, 1, "{case}");
                    });
            }
        }
    }

    #[test]
    fn work_charges_take_max() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.charge_work(pid as u64));
        assert_eq!(m.profiles()[0].max_work, 3);
    }
}
