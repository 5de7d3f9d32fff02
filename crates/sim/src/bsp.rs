//! The message-passing bulk-synchronous machine.
//!
//! A [`BspMachine`] holds `p` processor states. Each call to
//! [`BspMachine::superstep`] runs a closure once per processor (in parallel
//! with rayon), giving it the processor's inbox (messages sent to it in the
//! previous superstep) and an [`Outbox`] for posting new messages.
//!
//! ## Injection slots
//!
//! The BSP(m) cost metric prices each *step* of a superstep by the number of
//! messages injected machine-wide in that step (`m_t`). A processor may
//! initiate at most one send per step. Programs targeting globally-limited
//! models therefore control *when* within the superstep each message is
//! injected, via [`Outbox::send_at`]. Messages posted with plain
//! [`Outbox::send`] are auto-assigned the earliest free slots of their
//! processor (the natural pipelined schedule). The engine validates the
//! one-injection-per-processor-per-step rule and builds the machine-wide
//! `m_t` histogram for the cost models.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::arena::MsgArena;
use crate::hook::{
    open_fill, received, traffic_rows, Boundary, DeliveryHook, Fate, FaultStats, PENDING_POOL_CAP,
};
use crate::lane::{block_len, max_slot_multiplicity, ranged, AsLane, Lane, Pass};
use crate::{Pid, SimError};
use pbw_models::{FrontierMask, MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_trace::{FaultCounters, RecoveryMark, TraceEvent, TraceSink, TraceSource};

/// Where a processor posts its messages during a superstep.
///
/// Every processor of one block of consecutive pids writes into the same
/// recycled send lane (see DESIGN.md §14): destinations and payloads in
/// flat arrays, and a slot per message once one of them is pinned with
/// [`Outbox::send_at`]. The methods below see only the calling processor's
/// own messages.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) lane: Lane<M>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self {
            lane: Lane::default(),
        }
    }
}

impl<M> AsLane<M> for Outbox<M> {
    fn lane(&mut self) -> &mut Lane<M> {
        &mut self.lane
    }
}

impl<M> Outbox<M> {
    /// Post a message with automatic (pipelined) slot assignment: the k-th
    /// auto message of a processor is injected at the k-th step of the
    /// superstep not claimed by an explicit send.
    pub fn send(&mut self, dest: Pid, payload: M) {
        self.lane.push(dest, payload);
    }

    /// Post a message pinned to injection step `slot` (0-based within the
    /// superstep). Two pinned sends from the same processor must use
    /// distinct slots.
    ///
    /// # Panics
    /// If `slot` is `u64::MAX`, a step no superstep reaches.
    pub fn send_at(&mut self, dest: Pid, payload: M, slot: u64) {
        self.lane.push_at(dest, payload, slot);
    }

    /// Charge `w` units of local computation to this processor for this
    /// superstep.
    pub fn charge_work(&mut self, w: u64) {
        self.lane.charge(w);
    }

    /// Number of messages this processor has posted so far.
    pub fn len(&self) -> usize {
        self.lane.posted().len()
    }

    /// The destination lane: `dests()[i]` is the destination of this
    /// processor's i-th posted message, in send order.
    pub fn dests(&self) -> &[Pid] {
        self.lane.posted()
    }

    /// Whether this processor has posted any message.
    pub fn is_empty(&self) -> bool {
        self.lane.posted().is_empty()
    }
}

/// Report for one executed superstep.
#[derive(Debug, Clone)]
pub struct SuperstepReport {
    /// The exact cost profile (price it with any `CostModel`).
    pub profile: SuperstepProfile,
    /// Number of messages delivered.
    pub delivered: u64,
}

/// A simulated `p`-processor message-passing machine.
///
/// Type parameters: `S` is the per-processor local state, `M` the message
/// payload type.
///
/// ```
/// use pbw_models::{MachineParams, BspM, PenaltyFn, CostModel};
/// use pbw_sim::BspMachine;
///
/// // A 4-processor ring rotation: every processor sends its id rightward.
/// let mp = MachineParams::from_gap(4, 2, 2);
/// let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
/// machine.superstep(|pid, _state, _inbox, out| {
///     out.send((pid + 1) % 4, pid as u64);
/// });
/// machine.superstep(|_pid, state, inbox, _out| {
///     *state = inbox[0];
/// });
/// assert_eq!(machine.states(), &[3, 0, 1, 2]);
///
/// // The same run priced under the globally-limited metric:
/// let model = BspM { m: mp.m, l: mp.l, penalty: PenaltyFn::Exponential };
/// assert!(machine.cost(&model) >= 2.0); // two supersteps, cost ≥ L each
/// ```
pub struct BspMachine<S, M> {
    params: MachineParams,
    states: Vec<S>,
    /// Messages awaiting the next superstep, segmented per destination.
    inboxes: MsgArena<M>,
    /// The previous boundary's arena, recycled: each superstep swaps it with
    /// `inboxes`, reads last boundary's deliveries from it, and refills the
    /// other — so at steady state delivery reuses the same two backing
    /// buffers forever.
    spare: MsgArena<M>,
    /// One send lane per block of [`block_len`] pids, reset when its block
    /// opens and recycled (capacity kept) across supersteps.
    lanes: Vec<Outbox<M>>,
    /// The blocks this superstep's closure pass opened, ascending: all of
    /// them on the dense path, the frontier's on the sparse path. Delivery
    /// walks only these lanes.
    live: Vec<usize>,
    /// Stalled processors this superstep (read only behind `hooked`).
    /// Cleared by an O(1) epoch bump and filled through
    /// [`DeliveryHook::fill_fault_masks`], so a hook that knows its fault
    /// windows in closed form never pays the per-pid O(p) scan.
    stalled: FrontierMask,
    /// Crash-stopped processors this superstep. A crashed pid is strictly
    /// worse than a stalled one: closure skipped, no stall retention,
    /// incoming custody transfers destroyed.
    crashed: FrontierMask,
    /// Delivery scratch: `seq_lens[k]` counts the senders that posted
    /// exactly `k + 1` all-implicit-slot messages this superstep, feeding
    /// one aggregated histogram update instead of a per-sender scatter.
    /// Zeroed (never shrunk) after each flush, so it allocates only when a
    /// sender exceeds every previous length.
    seq_lens: Vec<u64>,
    /// Sparse-path frontier: the pids whose closures run this superstep —
    /// the declared active set OR-ed word-at-a-time with the arena's
    /// touched mask. Insertion *is* dedup, iteration *is* the sort.
    frontier_mask: FrontierMask,
    /// Profile accumulator, snapshot-and-reset every superstep.
    builder: ProfileBuilder,
    profiles: Vec<SuperstepProfile>,
    superstep: usize,
    sink: Arc<dyn TraceSink>,
    trace_label: String,
    hook: Option<Arc<dyn DeliveryHook>>,
    /// `pending[k]` holds payloads the network will deliver at the boundary
    /// `k + 1` supersteps from now: delayed messages and duplicate copies.
    pending: VecDeque<Vec<(Pid, M)>>,
    /// Drained pending-level buffers kept for reuse.
    pending_pool: Vec<Vec<(Pid, M)>>,
    fault_stats: FaultStats,
    fault_round: u32,
    /// Checkpoint/rollback annotation stamped on (and cleared by) the next
    /// emitted trace event.
    recovery_mark: Option<RecoveryMark>,
}

impl<S: Send, M: Send> BspMachine<S, M> {
    /// Create a machine with `params.p` processors, initializing processor
    /// `i`'s state to `init(i)`.
    ///
    /// The machine captures the process-wide trace sink
    /// ([`pbw_trace::global_sink`]) at construction; use
    /// [`BspMachine::set_sink`] to attach a specific sink instead.
    pub fn new(params: MachineParams, init: impl FnMut(Pid) -> S) -> Self {
        let p = params.p;
        let states: Vec<S> = (0..p).map(init).collect();
        Self {
            params,
            states,
            inboxes: MsgArena::new(p),
            spare: MsgArena::new(p),
            lanes: std::iter::repeat_with(Outbox::default)
                .take(p.div_ceil(block_len(p)))
                .collect(),
            live: Vec::new(),
            stalled: FrontierMask::new(p),
            crashed: FrontierMask::new(p),
            seq_lens: Vec::new(),
            frontier_mask: FrontierMask::new(p),
            builder: ProfileBuilder::new(),
            profiles: Vec::new(),
            superstep: 0,
            sink: pbw_trace::global_sink(),
            trace_label: String::new(),
            hook: None,
            pending: VecDeque::new(),
            pending_pool: Vec::new(),
            fault_stats: FaultStats::default(),
            fault_round: 0,
            recovery_mark: None,
        }
    }
    /// Attach a trace sink, replacing the one captured at construction.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Attach a fault-injection hook consulted at every delivery boundary
    /// (see [`crate::hook`]). Without one the machine is a reliable network.
    pub fn set_delivery_hook(&mut self, hook: Arc<dyn DeliveryHook>) -> &mut Self {
        self.hook = Some(hook);
        self
    }

    /// Remove any fault-injection hook (in-flight delayed payloads still
    /// arrive on schedule).
    pub fn clear_delivery_hook(&mut self) -> &mut Self {
        self.hook = None;
        self
    }

    /// The running fault ledger (all-zero counters besides
    /// `injected`/`delivered` when no hook is attached).
    pub fn fault_stats(&self) -> FaultStats {
        #[cfg(feature = "check-selftest")]
        if self.fault_stats.delivered > 0 && std::env::var_os("PBW_CHECK_SELFTEST").is_some() {
            // Deliberate conservation violation for `pbw-check --self-test`:
            // under-report one delivery so the ledger no longer balances. A
            // checker that does not flag this is itself broken.
            let mut broken = self.fault_stats;
            broken.delivered -= 1;
            return broken;
        }
        self.fault_stats
    }

    /// Payloads currently held inside the network: delayed messages and
    /// duplicate copies that have not yet reached an inbox.
    pub fn faults_in_flight(&self) -> u64 {
        self.fault_stats.in_flight
    }

    /// Retransmission round stamped on subsequent trace events' fault
    /// counters (0 = original transmission; set by recovery protocols).
    pub fn set_fault_round(&mut self, round: u32) -> &mut Self {
        self.fault_round = round;
        self
    }

    /// Stamp a checkpoint/rollback annotation on the *next* emitted trace
    /// event (cleared once consumed, whether or not a sink is enabled).
    /// Set by recovery drivers, never by the engine itself.
    pub fn set_recovery_mark(&mut self, mark: RecoveryMark) -> &mut Self {
        self.recovery_mark = Some(mark);
        self
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

    /// Index of the next superstep to execute (0-based).
    pub fn superstep_index(&self) -> usize {
        self.superstep
    }

    /// Immutable view of a processor's state.
    pub fn state(&self, pid: Pid) -> &S {
        &self.states[pid]
    }

    /// Immutable view of all processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all processor states (for test setup and workload
    /// injection between supersteps).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// The inbox a processor would see at the start of the next superstep.
    pub fn pending_inbox(&self, pid: Pid) -> &[M] {
        self.inboxes.inbox(pid)
    }

    /// Every non-empty pending inbox as `(pid, inbox)`, in ascending pid
    /// order: exactly the pids whose [`BspMachine::pending_inbox`] is
    /// non-empty, with the same slices. The walk follows the inbox arena's
    /// touched mask, so a full pass costs O(receivers + messages), not O(p).
    pub fn pending_inboxes(&self) -> impl Iterator<Item = (Pid, &[M])> + '_ {
        let inboxes = &self.inboxes;
        inboxes
            .touched()
            .iter()
            .map(move |pid| (pid, inboxes.inbox(pid)))
    }

    /// Profiles of all executed supersteps.
    pub fn profiles(&self) -> &[SuperstepProfile] {
        &self.profiles
    }

    /// A canonical fingerprint of everything that determines the machine's
    /// *future* behavior: the superstep index, all processor states, every
    /// retained inbox, the in-network payload queue (delayed messages and
    /// duplicate copies, level by level in delivery order), and the fault
    /// ledger. Cost history (profiles) is deliberately excluded — it never
    /// feeds back into execution.
    ///
    /// Two machines with equal fingerprints behave identically under equal
    /// program + hook extensions, which is what makes this the sound
    /// duplicate-pruning key of the `pbw-check` bounded explorer. The value
    /// is deterministic within a build (SipHash with fixed keys via
    /// [`DefaultHasher`](std::collections::hash_map::DefaultHasher)) but is
    /// not a stable serialization format across toolchains.
    pub fn canonical_hash(&self) -> u64
    where
        S: std::hash::Hash,
        M: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.superstep.hash(&mut h);
        self.states.hash(&mut h);
        for pid in 0..self.params.p {
            self.inboxes.inbox(pid).hash(&mut h);
        }
        self.pending.len().hash(&mut h);
        for level in &self.pending {
            level.hash(&mut h);
        }
        self.fault_stats.hash(&mut h);
        h.finish()
    }

    /// Total run cost under any cost model: the sum over supersteps.
    pub fn cost(&self, model: &dyn pbw_models::CostModel) -> f64 {
        model.run_cost(&self.profiles)
    }

    /// Execute one superstep, panicking on model-rule violations.
    ///
    /// The closure is called once per processor with
    /// `(pid, &mut state, inbox, &mut outbox)`; the inbox holds the messages
    /// sent to `pid` during the previous superstep, in (source pid, send
    /// order) order.
    pub fn superstep<F>(&mut self, f: F) -> SuperstepReport
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.try_superstep(f)
            .unwrap_or_else(|e| panic!("superstep failed: {e}"))
    }

    /// Execute one superstep, returning model-rule violations as errors.
    ///
    /// A rejected superstep has already run every closure, and the state
    /// changes those closures made stay. Everything else about it is
    /// discarded: its messages never arrive, no profile or trace event is
    /// recorded, the superstep index does not advance, and the inboxes its
    /// closures read are gone. Payloads still in the network (delays and
    /// duplicate copies) stay in flight, the fault ledger is untouched,
    /// and the machine stays runnable. A closure that panics unwinds out
    /// of this call with the same effects, after only some closures ran.
    pub fn try_superstep<F>(&mut self, f: F) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.superstep_core(None, f)
    }

    /// Execute one superstep over a declared active set, panicking on
    /// model-rule violations. See [`BspMachine::try_superstep_active`].
    pub fn superstep_active<F>(&mut self, active: &[Pid], f: F) -> SuperstepReport
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.try_superstep_active(active, f)
            .unwrap_or_else(|e| panic!("superstep failed: {e}"))
    }

    /// Execute one superstep on the **sparse path**: the closure runs only
    /// for the *frontier* — the union of `active` (the caller's declared
    /// senders) and every processor holding a non-empty inbox from the last
    /// boundary (which covers ordinary deliveries, retained stalled inboxes,
    /// and delayed payloads that have landed). Per-superstep cost is
    /// O(frontier + messages), not O(p): counting and delivery walk only
    /// the lanes of the frontier's blocks, and the per-destination tallies
    /// live in the arena's segment table, which a reset zeroes only where
    /// the last fill counted, never an O(p) `fill(0)`. Exceptions,
    /// documented: a machine with a delivery hook reads the stall/crash
    /// masks word-at-a-time
    /// (O(fault-words), filled once per superstep via
    /// [`DeliveryHook::fill_fault_masks`]), and a superstep observed by an
    /// enabled trace sink materializes the dense per-processor traffic
    /// vectors its events carry (zeroed rows, filled O(touched)).
    ///
    /// The result is **byte-identical** to [`BspMachine::try_superstep`] —
    /// same states, profiles, trace events and fault ledger — provided the
    /// closure is a no-op for every skipped processor: for any pid outside
    /// `active` that holds an empty inbox, `f(pid, ..)` must not mutate
    /// state, post messages, or charge work. The frontier is iterated in
    /// sorted pid order, so the canonical sequential delivery order (source
    /// pid ascending, then send order, then due late arrivals) is replayed
    /// exactly; a skipped processor sends nothing and charges no work, so it
    /// is not a sender on either path.
    ///
    /// # Errors
    /// [`SimError::BadActivePid`] if `active` names a pid `>= p`, returned
    /// before the superstep touches any state (pending inboxes included),
    /// plus the model-rule violations [`BspMachine::try_superstep`] reports,
    /// with the same effects on a rejected superstep.
    pub fn try_superstep_active<F>(
        &mut self,
        active: &[Pid],
        f: F,
    ) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        check_active(active, self.params.p)?;
        self.superstep_core(Some(active), f)
    }

    /// Execute one superstep over a declared active set on the path the
    /// engine picks, panicking on model-rule violations. See
    /// [`BspMachine::try_superstep_auto`].
    pub fn superstep_auto<F>(&mut self, active: &[Pid], f: F) -> SuperstepReport
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.try_superstep_auto(active, f)
            .unwrap_or_else(|e| panic!("superstep failed: {e}"))
    }

    /// Execute one superstep over a declared active set, with the closure
    /// contract of [`BspMachine::try_superstep_active`], on whichever path
    /// is cheaper: the sparse path when the processors that can wake —
    /// `active` plus every pid holding an inbox — pass
    /// [`crate::density::crossover`], the dense path of
    /// [`BspMachine::try_superstep`] otherwise. Both paths are
    /// byte-identical, so the choice changes wall time only. `active` is
    /// checked for out-of-range pids on both paths.
    ///
    /// # Errors
    /// As [`BspMachine::try_superstep_active`].
    pub fn try_superstep_auto<F>(
        &mut self,
        active: &[Pid],
        f: F,
    ) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        let p = self.params.p;
        check_active(active, p)?;
        let waking = active.len() + self.inboxes.touched().count();
        let sparse = crate::density::crossover(waking, p);
        self.superstep_core(sparse.then_some(active), f)
    }

    /// The one superstep implementation behind every entry point. `active:
    /// None` runs every block of pids in parallel (dense); `Some(set)` runs
    /// the sorted frontier sequentially (sparse). Either pass leaves sealed
    /// lanes in `live` whose block order is the canonical delivery order
    /// (source pid ascending, then send order), and the one delivery walks
    /// them in that order before the due late arrivals, which is what makes
    /// every entry point byte-identical.
    fn superstep_core<F>(
        &mut self,
        active: Option<&[Pid]>,
        f: F,
    ) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        let p = self.params.p;
        // Rotate the arenas: `spare` becomes the read side (last boundary's
        // deliveries), and the arena the previous superstep read from is
        // cleared for refill. If this superstep is rejected below, or a
        // closure panics, `inboxes` stays cleared and the next superstep
        // rotates the inboxes these closures read out of reach: they are
        // lost, while the state changes the closures made stay. The
        // machine stays runnable.
        std::mem::swap(&mut self.inboxes, &mut self.spare);
        self.inboxes.clear();

        // A stalled processor skips its closure this superstep and sees its
        // inbox again next superstep; a crashed processor skips its closure
        // *and* loses every payload whose custody would transfer to it this
        // superstep. The masks are cleared in O(1) (epoch bumps) and filled
        // in one hook call — `fill_fault_masks` lets a hook that knows its
        // fault windows in closed form (FaultPlan with zero rates) insert
        // O(windows) bits instead of answering p per-pid queries. The masks
        // are only ever read behind `hooked`, so unhooked supersteps touch
        // nothing p-sized here.
        let hook = self.hook.clone();
        let tracing = self.sink.enabled();
        let st = Step {
            index: self.superstep as u64,
            hooked: hook.is_some(),
            tracing,
        };
        if let Some(h) = &hook {
            self.stalled.clear();
            self.crashed.clear();
            h.fill_fault_masks(st.index, &mut self.stalled, &mut self.crashed);
        }

        let pass = Pass {
            block: block_len(p),
            down: st.hooked.then_some((&self.stalled, &self.crashed)),
            bound: p,
            key_error: |pid, dest, _| SimError::BadDestination { pid, dest },
            // Only the hooked fate machinery and the trace multiplicity scan
            // read individual slots, so plain unhooked, untraced supersteps
            // resolve only the lanes that hold a pinned send.
            materialize: st.hooked || tracing,
            hook: hook.as_deref().map(|h| (h, st.index)),
            uniform: false,
        };
        let spare = &self.spare;
        let run = |pid: Pid, s: &mut S, out: &mut Outbox<M>| f(pid, s, spare.inbox(pid), out);
        match active {
            None => {
                pass.dense(&mut self.states, &mut self.lanes, run);
                self.live.clear();
                self.live.extend(0..self.lanes.len());
            }
            Some(declared) => {
                // The frontier: the declared set plus every pid holding an
                // inbox from the last boundary (deliveries, retained stalls,
                // landed delays). The mask OR is the dedup and its ascending
                // walk the sort, which replays the canonical delivery order.
                self.frontier_mask.clear();
                for &pid in declared {
                    self.frontier_mask.insert(pid);
                }
                self.frontier_mask.union_with(spare.touched());
                pass.sparse(
                    &mut self.states,
                    &mut self.lanes,
                    &mut self.live,
                    &self.frontier_mask,
                    run,
                );
            }
        }
        // The first error in pid order wins: a lane's seal stops at a bad
        // destination, so a slot collision it holds came first. Rejecting
        // here leaves the pending network level for the next boundary.
        let err = self.live.iter().find_map(|&b| {
            let lane = &self.lanes[b].lane;
            lane.bad_slot.clone().or_else(|| lane.bad_key.clone())
        });
        if let Some(e) = err {
            return Err(e);
        }

        // Payloads the network is due to release at this boundary (queued by
        // earlier Delay/Duplicate fates). Popped before this superstep's
        // sends are queued, so a `Delay(k)` waits exactly `k` extra steps.
        let due = self.pending.pop_front().unwrap_or_default();
        let before = self.fault_stats;
        let (delivered, late) = self.deliver(st, due);
        let counters = FaultCounters {
            retransmit_round: self.fault_round,
            ..self.fault_stats.counters_since(&before, late)
        };
        Ok(self.finish_superstep(st, delivered, counters))
    }

    /// The one delivery. A counting walk over the live lanes records each
    /// sender's work and injections and counts what lands now into the
    /// arena: every key of a lane with no fates (an unhooked step) and,
    /// hooked, each send whose fate lands it at a live pid; [`open_fill`]
    /// adds the retained inboxes and due late arrivals and lays the arena
    /// out. A placement walk then replays the canonical delivery order:
    /// every `Deliver` to a live pid goes straight into the arena, and only
    /// the other fates go through [`Boundary::apply`]. With no retained
    /// inbox the largest segment is the receive maximum; otherwise it is
    /// read back from the arena, less each retained inbox. Returns the
    /// payloads delivered and how many of them were late arrivals.
    fn deliver(&mut self, st: Step, due: Vec<(Pid, M)>) -> (u64, u64)
    where
        M: Clone,
    {
        let faults = st.hooked.then_some((&self.stalled, &self.crashed));
        let mut at = Boundary {
            arena: &mut self.inboxes,
            pending: &mut self.pending,
            pool: &mut self.pending_pool,
            stats: &mut self.fault_stats,
            builder: &mut self.builder,
            dead: faults.map(|(_, crashed)| crashed),
        };
        let (mut sent, mut max_sent) = (0u64, 0u64);
        for &b in &self.live {
            let lane = &self.lanes[b].lane;
            for (s, r) in ranged(&lane.senders) {
                if s.work != 0 {
                    at.builder.record_work(s.work);
                }
                let n = r.len();
                if n == 0 {
                    continue;
                }
                if lane.slots.is_empty() {
                    bucket_len(&mut self.seq_lens, n);
                } else {
                    at.builder.record_injections_batch(&lane.slots[r]);
                }
                max_sent = max_sent.max(n as u64);
            }
            sent += lane.keys.len() as u64;
            if lane.fates.is_empty() {
                at.arena.count_ones(&lane.keys);
                continue;
            }
            for (&d, &fate) in lane.keys.iter().zip(&lane.fates) {
                if fate.arrives_now() && !self.crashed.contains(d) {
                    at.arena.count(d, 1);
                }
            }
        }
        at.builder.record_traffic(max_sent, 0);
        at.builder.record_injections_by_len(&self.seq_lens);
        self.seq_lens.fill(0);
        let (max_seg, retained) = open_fill(at.arena, &self.spare, faults, at.stats, &due);

        let mut delivered = 0u64;
        for &b in &self.live {
            let Lane {
                keys,
                items,
                slots,
                fates,
                ..
            } = &mut self.lanes[b].lane;
            if fates.is_empty() {
                delivered += keys.len() as u64;
                for (&dest, payload) in keys.iter().zip(items.drain(..)) {
                    at.arena.place(dest, payload);
                }
                continue;
            }
            for (i, payload) in items.drain(..).enumerate() {
                let landed = match fates[i] {
                    Fate::Deliver => at.land(keys[i], payload),
                    fate => at.apply(fate, slots[i], keys[i], Some(payload)),
                };
                delivered += u64::from(landed);
            }
        }
        // Late arrivals land after this superstep's sends and are charged
        // receive bandwidth here.
        let late = at.land_due(due);
        at.stats.injected += sent;
        at.stats.delivered += delivered + late;
        at.arena.finish();
        let max_recv = if retained {
            let arena = &*at.arena;
            let recv = arena
                .touched()
                .iter()
                .map(|d| received(arena, &self.spare, faults, d));
            recv.max().unwrap_or(0)
        } else {
            max_seg
        };
        at.builder.record_traffic(0, max_recv);
        (delivered + late, late)
    }

    /// Snapshot the profile, emit the trace event, and advance the
    /// superstep index.
    fn finish_superstep(
        &mut self,
        st: Step,
        delivered: u64,
        counters: FaultCounters,
    ) -> SuperstepReport {
        let profile = self.builder.snapshot_reset();
        // Taken unconditionally so mark consumption is sink-independent.
        let mark = self.recovery_mark.take();
        if st.tracing {
            let lanes = || self.live.iter().map(|&b| &self.lanes[b].lane);
            let faults = st.hooked.then_some((&self.stalled, &self.crashed));
            let (sent, recv) =
                traffic_rows(self.params.p, lanes(), &self.inboxes, &self.spare, faults);
            // Tracing materializes every sender's slots.
            let mut ev = TraceEvent::for_superstep(
                TraceSource::Bsp,
                self.trace_label.clone(),
                st.index,
                self.params,
                profile.clone(),
                sent,
                recv,
                max_slot_multiplicity(lanes()),
                delivered,
            );
            if st.hooked {
                ev = ev.with_faults(counters);
            }
            if let Some(m) = mark {
                ev = ev.with_recovery(m);
            }
            self.sink.record(ev);
        }
        self.profiles.push(profile.clone());
        self.superstep += 1;
        SuperstepReport { profile, delivered }
    }

    /// Run supersteps until `f` posts no messages anywhere (quiescence) or
    /// `max_supersteps` is reached; returns the number of supersteps run.
    pub fn run_to_quiescence<F>(&mut self, f: F, max_supersteps: usize) -> usize
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        for i in 0..max_supersteps {
            let report = self.superstep(&f);
            if report.delivered == 0 {
                return i + 1;
            }
        }
        max_supersteps
    }
}

/// A superstep-consistent snapshot of a [`BspMachine`]: exactly the state
/// [`BspMachine::canonical_hash`] covers — superstep index, processor
/// states, every retained inbox, the pending network queue, and the fault
/// ledger. Taken at a barrier (between supersteps) there is nothing else in
/// flight, which is why a barrier-aligned snapshot is globally consistent
/// without any coordination protocol.
#[derive(Debug, Clone)]
pub struct MachineCheckpoint<S, M> {
    superstep: usize,
    states: Vec<S>,
    inboxes: MsgArena<M>,
    pending: Vec<Vec<(Pid, M)>>,
    fault_stats: FaultStats,
}

impl<S, M> MachineCheckpoint<S, M> {
    /// Superstep index the snapshot was taken at (the next one to execute).
    pub fn superstep(&self) -> u64 {
        self.superstep as u64
    }

    /// Number of processors captured.
    pub fn p(&self) -> usize {
        self.states.len()
    }

    /// Payloads captured in `pid`'s inbox.
    pub fn inbox_payloads(&self, pid: Pid) -> u64 {
        self.inboxes.len(pid) as u64
    }

    /// State volume `pid` contributes to a checkpoint write, in payload
    /// units: one word of processor state plus the retained inbox. This is
    /// what the recovery driver schedules as an h-relation.
    pub fn state_words(&self, pid: Pid) -> u64 {
        1 + self.inbox_payloads(pid)
    }

    /// Total payloads captured across inboxes and the pending network.
    pub fn total_payloads(&self) -> u64 {
        self.inboxes.total() + self.pending_payloads()
    }

    /// Payloads captured inside the pending network queue.
    pub fn pending_payloads(&self) -> u64 {
        self.pending.iter().map(|l| l.len() as u64).sum()
    }

    /// The ledger as of the snapshot.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }
}

impl<S: Send + Clone, M: Send + Clone> BspMachine<S, M> {
    /// Snapshot the machine at the current superstep boundary. Call only
    /// between supersteps (any `&self` moment is one); the snapshot holds
    /// exactly the [`BspMachine::canonical_hash`]-covered state, so
    /// [`BspMachine::restore`] round-trips the hash bit-exactly.
    ///
    /// Cost history (profiles) is deliberately excluded, mirroring
    /// `canonical_hash`: rolled-back supersteps really executed and really
    /// cost wall-clock time, so their profiles stay on the books.
    pub fn checkpoint(&self) -> MachineCheckpoint<S, M> {
        MachineCheckpoint {
            superstep: self.superstep,
            states: self.states.clone(),
            inboxes: self.inboxes.clone(),
            pending: self.pending.iter().cloned().collect(),
            fault_stats: self.fault_stats,
        }
    }

    /// Load snapshot state *exactly*, ledger included: afterwards
    /// `canonical_hash()` equals the hash at [`BspMachine::checkpoint`]
    /// time, bit for bit. This is the testing/replay primitive; recovery
    /// protocols use [`BspMachine::rollback`], which keeps the ledger
    /// monotone instead of rewinding it.
    ///
    /// # Panics
    /// Panics if the snapshot was taken on a machine with a different `p`.
    pub fn restore(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        self.load_snapshot(ckpt);
        self.fault_stats = ckpt.fault_stats;
    }

    /// Roll back to `ckpt` the way a recovery protocol does: machine state
    /// (superstep index, processor states, inboxes, pending network)
    /// reverts to the snapshot, but the fault ledger stays monotone — the
    /// aborted timeline's work really happened and stays on the books:
    ///
    /// * every payload currently in flight is written off to `crashed`
    ///   (the rollback abandons it with the timeline);
    /// * the snapshot's inbox and pending payloads are re-materialized and
    ///   credited to `restored` (inbox payloads also re-enter `delivered`,
    ///   since they sit in inboxes again; pending ones re-enter
    ///   `in_flight`).
    ///
    /// The conservation law `injected + duplicated + restored ==
    /// delivered + dropped + crashed + in_flight` holds after rollback
    /// whenever it held before — both sides grow by exactly the snapshot's
    /// payload count.
    ///
    /// # Panics
    /// Panics if the snapshot was taken on a machine with a different `p`.
    pub fn rollback(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        let discarded = self.fault_stats.in_flight;
        let inboxed = ckpt.inboxes.total();
        let pending = ckpt.pending_payloads();
        self.load_snapshot(ckpt);
        self.fault_stats.crashed += discarded;
        self.fault_stats.restored += inboxed + pending;
        self.fault_stats.delivered += inboxed;
        self.fault_stats.in_flight = pending;
    }

    fn load_snapshot(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        let p = self.params.p;
        assert_eq!(
            ckpt.states.len(),
            p,
            "snapshot captured {} processors, machine has {p}",
            ckpt.states.len()
        );
        self.superstep = ckpt.superstep;
        self.states.clone_from(&ckpt.states);
        // The arena comes back whole, touched mask (the sparse frontier's
        // source) included.
        self.inboxes.clone_from(&ckpt.inboxes);
        // Recycle the abandoned pending levels, then clone the snapshot's.
        while let Some(mut level) = self.pending.pop_front() {
            level.clear();
            if self.pending_pool.len() < PENDING_POOL_CAP {
                self.pending_pool.push(level);
            }
        }
        for level in &ckpt.pending {
            let mut buf = self.pending_pool.pop().unwrap_or_default();
            buf.extend(level.iter().cloned());
            self.pending.push_back(buf);
        }
    }
}

/// Per-superstep facts every phase of [`BspMachine::superstep_core`] reads.
#[derive(Clone, Copy)]
struct Step {
    /// Index of the superstep being executed.
    index: u64,
    /// Whether a delivery hook is attached.
    hooked: bool,
    /// Whether the trace sink is enabled.
    tracing: bool,
}

/// Reject a declared active set that names a pid `>= p`.
fn check_active(active: &[Pid], p: usize) -> Result<(), SimError> {
    match active.iter().find(|&&pid| pid >= p) {
        Some(&pid) => Err(SimError::BadActivePid { pid, p }),
        None => Ok(()),
    }
}

/// Bucket one all-implicit sender of `n ≥ 1` messages (slots `0..n`) by
/// length; one `record_injections_by_len` call per superstep replays the
/// whole population's histogram contributions in bulk (sums — order
/// unobservable).
fn bucket_len(seq_lens: &mut Vec<u64>, n: usize) {
    if seq_lens.len() < n {
        seq_lens.resize(n, 0);
    }
    seq_lens[n - 1] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{DeliveryCtx, Fate};
    use pbw_models::{BspG, BspM, PenaltyFn};

    fn params(p: usize) -> MachineParams {
        MachineParams::from_gap(p, 4, 8)
    }

    #[test]
    fn messages_arrive_next_superstep() {
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.superstep(|pid, _s, inbox, out| {
            assert!(inbox.is_empty());
            out.send((pid + 1) % 4, pid as u64 * 10);
        });
        m.superstep(|pid, s, inbox, _out| {
            assert_eq!(inbox.len(), 1);
            *s = inbox[0];
            assert_eq!(inbox[0], (((pid + 3) % 4) as u64) * 10);
        });
        assert_eq!(m.states(), &[30, 0, 10, 20]);
    }

    #[test]
    fn auto_slots_are_pipelined() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for _ in 0..5 {
                    out.send(1, 0);
                }
            }
        });
        // Processor 0 injected 1 message at each of steps 0..5.
        assert_eq!(m.profiles()[0].injections, vec![1, 1, 1, 1, 1]);
        assert_eq!(m.profiles()[0].max_sent, 5);
        assert_eq!(m.profiles()[0].max_received, 5);
    }

    #[test]
    fn explicit_slots_build_histogram() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            // All four processors inject at slot 7.
            out.send_at((pid + 1) % 4, 1, 7);
        });
        let prof = &m.profiles()[0];
        assert_eq!(prof.injections.len(), 8);
        assert_eq!(prof.injections[7], 4);
        assert_eq!(prof.total_messages, 4);
    }

    #[test]
    fn auto_slots_avoid_explicit_ones() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send_at(1, 9, 0); // claims slot 0
                out.send(1, 9); // must land on slot 1
                out.send_at(1, 9, 2); // claims slot 2
                out.send(1, 9); // must land on slot 3
            }
        });
        assert_eq!(m.profiles()[0].injections, vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_slot_rejected() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let err = m
            .try_superstep(|pid, _s, _in, out| {
                if pid == 2 {
                    out.send_at(0, 1, 5);
                    out.send_at(1, 1, 5);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 2, slot: 5 });
    }

    #[test]
    #[should_panic(expected = "injection slot 18446744073709551615 is out of range")]
    fn a_pin_at_the_unpinned_marker_fails_the_step() {
        // A lane marks plain messages with `u64::MAX` until its seal
        // resolves them, so a pin there must fail the step rather than pass
        // for a plain send: here as the lane's first pin, which marks the
        // plain send before it.
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let _ = m.try_superstep(|pid, _s, _in, out| {
            if pid == 1 {
                out.send(0, 1);
                out.send_at(0, 1, u64::MAX);
            }
        });
    }

    #[test]
    fn bad_destination_rejected() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let err = m
            .try_superstep(|pid, _s, _in, out| {
                if pid == 0 {
                    out.send(99, 1);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::BadDestination { pid: 0, dest: 99 });
    }

    #[test]
    fn delivery_order_is_source_then_send_order() {
        let mut m: BspMachine<Vec<u64>, u64> = BspMachine::new(params(4), |_| Vec::new());
        m.superstep(|pid, _s, _in, out| {
            // Everyone sends two tagged messages to processor 0.
            out.send(0, (pid as u64) * 10);
            out.send(0, (pid as u64) * 10 + 1);
        });
        m.superstep(|pid, s, inbox, _out| {
            if pid == 0 {
                *s = inbox.to_vec();
            }
        });
        assert_eq!(m.state(0), &vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn work_is_charged() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            out.charge_work(pid as u64 * 100);
        });
        assert_eq!(m.profiles()[0].max_work, 300);
    }

    #[test]
    fn costs_price_the_same_run_differently() {
        // One hot sender: proc 0 sends 16 messages, spread over 16 slots.
        let mut m: BspMachine<(), u8> = BspMachine::new(params(16), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for k in 0..16u64 {
                    out.send_at(((k % 15) + 1) as usize, 0, k);
                }
            }
        });
        let bsp_g = BspG { g: 4, l: 8 };
        let bsp_m = BspM {
            m: 4,
            l: 8,
            penalty: PenaltyFn::Exponential,
        };
        // BSP(g): h = 16, cost = 4·16 = 64. BSP(m): c_m = 16 (one msg per
        // slot), h = 16, L = 8 → 16.
        assert_eq!(m.cost(&bsp_g), 64.0);
        assert_eq!(m.cost(&bsp_m), 16.0);
    }

    #[test]
    fn non_receipt_is_observable() {
        // Proc 0 sends to 1 iff its "bit" is set; proc 1 branches on empty
        // inbox — the Section 4.2 primitive.
        for bit in [false, true] {
            let mut m: BspMachine<bool, ()> = BspMachine::new(params(4), |_| false);
            m.superstep(|pid, _s, _in, out| {
                if pid == 0 && bit {
                    out.send(1, ());
                }
            });
            m.superstep(|pid, s, inbox, _out| {
                if pid == 1 {
                    *s = !inbox.is_empty();
                }
            });
            assert_eq!(*m.state(1), bit);
        }
    }

    #[test]
    fn run_to_quiescence_stops() {
        // A token passes 0→1→2→3 then stops.
        let mut m: BspMachine<bool, ()> = BspMachine::new(params(4), |pid| pid == 0);
        let steps = m.run_to_quiescence(
            |pid, has, inbox, out| {
                if !inbox.is_empty() {
                    *has = true;
                }
                if *has && pid < 3 {
                    out.send(pid + 1, ());
                    *has = false;
                }
            },
            100,
        );
        assert!(steps <= 5, "steps={steps}");
        assert!(*m.state(3));
    }

    #[test]
    fn trace_events_mirror_reports() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone()).set_trace_label("ring");
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        let events = sink.take();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.source, TraceSource::Bsp);
        assert_eq!(ev.label, "ring");
        assert_eq!(ev.superstep, 0);
        assert_eq!(ev.profile, report.profile);
        assert_eq!(ev.delivered, 4);
        assert_eq!(ev.per_proc_sent, vec![1, 1, 1, 1]);
        assert_eq!(ev.per_proc_recv, vec![1, 1, 1, 1]);
        assert_eq!(ev.max_proc_slot_injections, 1);
    }

    struct DropFrom(Pid);
    impl crate::hook::DeliveryHook for DropFrom {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.src == self.0 {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn dropped_messages_never_arrive_but_are_priced() {
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(DropFrom(0)));
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 1));
        // Three of four arrive; all four consumed injection slots.
        assert_eq!(report.delivered, 3);
        assert_eq!(report.profile.total_messages, 4);
        assert_eq!(report.profile.max_sent, 1);
        assert!(m.pending_inbox(1).is_empty()); // 0→1 was the dropped edge
        let stats = m.fault_stats();
        assert_eq!(stats.dropped, 1);
        assert!(stats.conserved());
    }

    struct DelayAll(u32);
    impl crate::hook::DeliveryHook for DelayAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Delay(self.0)
        }
    }

    #[test]
    fn delayed_messages_arrive_k_supersteps_late() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DelayAll(2)));
        let r0 = m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 7);
            }
        });
        assert_eq!(r0.delivered, 0);
        assert_eq!(m.faults_in_flight(), 1);
        let idle = |_: Pid, _: &mut (), _: &[u8], _: &mut Outbox<u8>| {};
        let r1 = m.superstep(idle);
        assert_eq!(r1.delivered, 0);
        let r2 = m.superstep(idle);
        // Normal delivery would be visible in superstep 1; Delay(2) means
        // the payload lands at the boundary two supersteps later.
        assert_eq!(r2.delivered, 1);
        assert_eq!(r2.profile.max_received, 1);
        assert_eq!(m.pending_inbox(1), &[7]);
        assert_eq!(m.faults_in_flight(), 0);
        assert!(m.fault_stats().conserved());
    }

    #[test]
    fn rejected_superstep_keeps_the_pending_network_level() {
        // A Delay(1) payload is in the network when a superstep is rejected
        // — with or without the hook still attached, on either entry point.
        // It must stay in flight and land at the next accepted boundary.
        for (declared, keep_hook) in [(false, false), (true, false), (false, true), (true, true)] {
            let case = format!("declared={declared} keep_hook={keep_hook}");
            let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
            m.set_delivery_hook(Arc::new(DelayAll(1)));
            m.superstep(|pid, _s, _in, out| {
                if pid == 0 {
                    out.send(1, 7);
                }
            });
            assert_eq!(m.faults_in_flight(), 1);
            if !keep_hook {
                m.clear_delivery_hook();
            }
            let bad = |pid: Pid, _: &mut (), _: &[u8], out: &mut Outbox<u8>| {
                if pid == 0 {
                    out.send(99, 1);
                }
            };
            let rejected = if declared {
                m.try_superstep_active(&[0], bad)
            } else {
                m.try_superstep(bad)
            };
            assert_eq!(
                rejected.unwrap_err(),
                SimError::BadDestination { pid: 0, dest: 99 },
                "{case}"
            );
            assert_eq!(m.faults_in_flight(), 1, "{case}");
            let idle = |_: Pid, _: &mut (), _: &[u8], _: &mut Outbox<u8>| {};
            let r = if declared {
                m.superstep_active(&[], idle)
            } else {
                m.superstep(idle)
            };
            assert_eq!(r.delivered, 1, "{case}");
            assert_eq!(m.pending_inbox(1), &[7], "{case}");
            assert_eq!(m.faults_in_flight(), 0, "{case}");
            assert!(m.fault_stats().conserved(), "{case}");
        }
    }

    /// A hook that delivers everything: hooked delivery on a reliable
    /// network.
    struct Reliable;
    impl DeliveryHook for Reliable {}

    /// How a test superstep enters the engine.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Dense,
        Declared,
        Auto,
    }

    fn run_entry(
        m: &mut BspMachine<Vec<u8>, u8>,
        entry: Entry,
        active: &[Pid],
        f: impl Fn(Pid, &mut Vec<u8>, &[u8], &mut Outbox<u8>) + Sync,
    ) -> Result<SuperstepReport, SimError> {
        match entry {
            Entry::Dense => m.try_superstep(f),
            Entry::Declared => m.try_superstep_active(active, f),
            Entry::Auto => m.try_superstep_auto(active, f),
        }
    }

    #[test]
    fn a_rejected_superstep_leaves_nothing_in_its_lanes() {
        // p = 256 packs pids 0..32 into one lane. In the rejected superstep
        // pid 4 posts a valid message and charges work, and pid 5 names a
        // bad destination; next, pid 6 of the same lane sends once. Only
        // pid 6's message may arrive, and only it may be priced.
        let p = 256;
        assert_eq!(crate::lane::block_len(p), 32);
        for entry in [Entry::Dense, Entry::Declared, Entry::Auto] {
            for hooked in [false, true] {
                let case = format!("{entry:?} hooked={hooked}");
                let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(p), |_| Vec::new());
                if hooked {
                    m.set_delivery_hook(Arc::new(Reliable));
                }
                let err = run_entry(&mut m, entry, &[4, 5], |pid, _s, _in, out| match pid {
                    4 => {
                        out.send(9, 1);
                        out.send_at(10, 2, 3);
                        out.charge_work(50);
                    }
                    5 => out.send(p + 1, 3),
                    _ => {}
                });
                assert_eq!(
                    err.unwrap_err(),
                    SimError::BadDestination {
                        pid: 5,
                        dest: p + 1
                    },
                    "{case}"
                );
                let r = run_entry(&mut m, entry, &[6], |pid, _s, _in, out| {
                    if pid == 6 {
                        out.send(11, 4);
                    }
                })
                .unwrap();
                assert_eq!(r.delivered, 1, "{case}");
                assert_eq!(r.profile.total_messages, 1, "{case}");
                assert_eq!(r.profile.injections, vec![1], "{case}");
                assert_eq!(r.profile.max_work, 0, "{case}");
                m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
                let got: Vec<(Pid, Vec<u8>)> = (0..p)
                    .filter(|&pid| !m.state(pid).is_empty())
                    .map(|pid| (pid, m.state(pid).clone()))
                    .collect();
                assert_eq!(got, vec![(11, vec![4])], "{case}");
                assert!(m.fault_stats().conserved(), "{case}");
                assert_eq!(m.fault_stats().injected, 1, "{case}");
            }
        }
    }

    #[test]
    fn a_panicking_closure_leaves_nothing_in_its_lanes() {
        // Every pid posts one message, and pid 133 panics after posting.
        // The next superstep must deliver exactly its own messages, and
        // the ledger must still balance.
        let p = 256;
        for width in [1, 8] {
            for hooked in [false, true] {
                let case = format!("width={width} hooked={hooked}");
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap()
                    .install(|| {
                        let mut m: BspMachine<Vec<u8>, u8> =
                            BspMachine::new(params(p), |_| Vec::new());
                        if hooked {
                            m.set_delivery_hook(Arc::new(Reliable));
                        }
                        let unwound =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                m.superstep(|pid, _s, _in, out| {
                                    out.send((pid + 1) % p, 1);
                                    assert_ne!(pid, 133, "planted closure panic");
                                })
                            }));
                        assert!(unwound.is_err(), "{case}");
                        assert_eq!(m.superstep_index(), 0, "{case}");
                        let r = m.superstep(|pid, _s, _in, out| {
                            if pid % 2 == 0 {
                                out.send(pid + 1, 2);
                            }
                        });
                        assert_eq!(r.delivered, p as u64 / 2, "{case}");
                        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
                        for pid in 0..p {
                            let want: &[u8] = if pid % 2 == 1 { &[2] } else { &[] };
                            assert_eq!(m.state(pid).as_slice(), want, "{case} pid {pid}");
                        }
                        let stats = m.fault_stats();
                        assert!(stats.conserved(), "{case} ledger {stats:?}");
                        assert_eq!(stats.injected, p as u64 / 2, "{case}");
                    });
            }
        }
    }

    struct DupAll;
    impl crate::hook::DeliveryHook for DupAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Duplicate
        }
    }

    #[test]
    fn duplicates_deliver_a_spurious_copy_one_superstep_later() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DupAll));
        let r0 = m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 9);
            }
        });
        assert_eq!(r0.delivered, 1);
        let r1 = m.superstep(|_, _, _, _| {});
        assert_eq!(r1.delivered, 1); // the copy
        assert_eq!(m.pending_inbox(1), &[9]);
        let stats = m.fault_stats();
        assert_eq!(
            (stats.injected, stats.duplicated, stats.delivered),
            (1, 1, 2)
        );
        assert!(stats.conserved());
    }

    struct DisplaceAll(u64);
    impl crate::hook::DeliveryHook for DisplaceAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Displace(self.0)
        }
    }

    #[test]
    fn displacement_reshapes_the_injection_histogram() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DisplaceAll(3)));
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        // Every processor asked for slot 0; the router pushed all four
        // injections to slot 3. Payloads still arrive on time.
        assert_eq!(report.delivered, 4);
        assert_eq!(report.profile.injections, vec![0, 0, 0, 4]);
        assert!(m.fault_stats().conserved());
    }

    struct StallPid(Pid, u64);
    impl crate::hook::DeliveryHook for StallPid {
        fn stalled(&self, superstep: u64, pid: Pid) -> bool {
            pid == self.0 && superstep == self.1
        }
    }

    #[test]
    fn stalled_processor_skips_a_superstep_and_keeps_its_inbox() {
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(StallPid(1, 1)));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        // Superstep 1: pid 1 is stalled — it neither drains its inbox nor
        // runs its closure.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        // Superstep 2: the retained message is finally observed.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert_eq!(m.state(1), &vec![5]);
        assert_eq!(m.fault_stats().stalled_steps, 1);
    }

    #[test]
    fn a_retained_inbox_does_not_count_toward_the_receive_maximum() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(StallPid(1, 1)));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for _ in 0..3 {
                    out.send(1, 0);
                }
            }
        });
        // Superstep 1: pid 1 is stalled and keeps its 3 payloads while 1
        // more lands on it; pid 3 receives 2.
        let report = m.superstep(|pid, _s, _in, out| match pid {
            0 => out.send(1, 1),
            2 => {
                out.send(3, 2);
                out.send(3, 2);
            }
            _ => {}
        });
        assert_eq!(m.pending_inbox(1).len(), 4);
        assert_eq!(report.profile.max_received, 2);
    }

    #[test]
    fn late_arrivals_alone_can_set_the_receive_maximum() {
        struct DelayFirstStep;
        impl DeliveryHook for DelayFirstStep {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.superstep == 0 {
                    Fate::Delay(1)
                } else {
                    Fate::Deliver
                }
            }
        }
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DelayFirstStep));
        let first = m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for _ in 0..3 {
                    out.send(2, 0);
                }
            }
        });
        assert_eq!(first.profile.max_received, 0);
        // Superstep 1: the 3 delayed payloads land on pid 2, and pid 3
        // receives the step's only send.
        let report = m.superstep(|pid, _s, _in, out| {
            if pid == 1 {
                out.send(3, 1);
            }
        });
        assert_eq!(m.pending_inbox(2).len(), 3);
        assert_eq!(report.profile.max_received, 3);
    }

    #[test]
    fn fault_counters_flow_into_trace_events() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone())
            .set_delivery_hook(Arc::new(DropFrom(0)));
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        let events = sink.take();
        let faults = events[0]
            .faults
            .expect("hooked machine must stamp fault counters");
        assert_eq!(faults.dropped, 1);
        assert_eq!(faults.duplicated, 0);
    }

    #[test]
    fn unhooked_machine_emits_no_fault_counters() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone());
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        assert_eq!(sink.take()[0].faults, None);
    }

    #[test]
    fn profiles_accumulate_per_superstep() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        for _ in 0..3 {
            m.superstep(|pid, _s, _in, out| {
                out.send((pid + 1) % 4, 0);
            });
        }
        assert_eq!(m.profiles().len(), 3);
        assert_eq!(m.superstep_index(), 3);
        for prof in m.profiles() {
            assert_eq!(prof.total_messages, 4);
        }
    }

    #[test]
    fn active_superstep_matches_dense_superstep() {
        use pbw_trace::RecordingSink;
        // Two senders fan a value out, receivers echo it back, then idle.
        // The sparse run must match the dense run on every observable.
        let senders = [2usize, 6];
        let program = |pid: Pid, s: &mut Vec<u8>, inbox: &[u8], out: &mut Outbox<u8>| {
            if senders.contains(&pid) {
                out.send(pid + 1, pid as u8);
            }
            for &v in inbox {
                s.push(v);
                if !senders.contains(&pid) {
                    out.send(pid - 1, v + 1);
                }
            }
        };
        let dense_sink = Arc::new(RecordingSink::new());
        let mut dense: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        dense.set_sink(dense_sink.clone());
        let sparse_sink = Arc::new(RecordingSink::new());
        let mut sparse: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        sparse.set_sink(sparse_sink.clone());
        for _ in 0..4 {
            dense.superstep(program);
            // After the first superstep all activity is inbox-driven, so
            // declaring only the original senders stays correct.
            sparse.superstep_active(&senders, program);
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.profiles(), sparse.profiles());
        assert_eq!(dense_sink.take(), sparse_sink.take());
    }

    #[test]
    fn active_superstep_keeps_receivers_in_the_frontier() {
        // pid 0 sends to pid 5; the next superstep declares nobody active,
        // yet pid 5 must still run to drain its inbox.
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        m.superstep_active(&[0], |pid, _s, _in, out| {
            if pid == 0 {
                out.send(5, 9);
            }
        });
        m.superstep_active(&[], |_pid, s, inbox, _out| {
            s.extend_from_slice(inbox);
        });
        assert_eq!(m.state(5), &vec![9]);
    }

    #[test]
    #[should_panic(expected = "active set names processor")]
    fn active_superstep_rejects_out_of_range_pid() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep_active(&[4], |_pid, _s, _in, _out| {});
    }

    #[test]
    fn out_of_range_active_pid_is_an_error_that_keeps_pending_inboxes() {
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(64), |_| Vec::new());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(5, 9);
            }
        });
        let before = m.canonical_hash();
        let noop = |_: Pid, _: &mut Vec<u8>, _: &[u8], _: &mut Outbox<u8>| {};
        let bad = SimError::BadActivePid { pid: 64, p: 64 };
        // The declared path, then both branches of the engine-picked path:
        // 2 waking processors out of 64 run sparse, 66 run dense.
        assert_eq!(m.try_superstep_active(&[64], noop).unwrap_err(), bad);
        assert_eq!(m.try_superstep_auto(&[64], noop).unwrap_err(), bad);
        let wide: Vec<Pid> = (0..=64).collect();
        assert_eq!(m.try_superstep_auto(&wide, noop).unwrap_err(), bad);
        assert_eq!(m.canonical_hash(), before);
        assert_eq!(m.superstep_index(), 1);
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert_eq!(m.state(5), &vec![9]);
    }

    #[test]
    fn canonical_hash_tracks_behavioral_state() {
        let run = |extra: bool| {
            let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
            m.superstep(|pid, _s, _in, out| {
                out.send((pid + 1) % 4, pid as u64);
                if extra && pid == 0 {
                    out.send(2, 99);
                }
            });
            m
        };
        // Equal runs fingerprint equally; a diverging send does not.
        assert_eq!(run(false).canonical_hash(), run(false).canonical_hash());
        assert_ne!(run(false).canonical_hash(), run(true).canonical_hash());
        // Advancing the machine changes the fingerprint (superstep index
        // and inbox contents both move).
        let mut m = run(false);
        let before = m.canonical_hash();
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert_ne!(before, m.canonical_hash());
    }

    #[test]
    fn canonical_hash_covers_the_pending_network_queue() {
        // Same visible inboxes/states, different in-network payloads: a
        // delayed message must show up in the fingerprint.
        let run = |delay: u32| {
            struct D(u32);
            impl DeliveryHook for D {
                fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                    if ctx.superstep == 0 {
                        Fate::Delay(self.0)
                    } else {
                        Fate::Deliver
                    }
                }
            }
            let mut m: BspMachine<(), u64> = BspMachine::new(params(4), |_| ());
            m.set_delivery_hook(Arc::new(D(delay)));
            m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 7));
            m
        };
        assert_ne!(run(1).canonical_hash(), run(2).canonical_hash());
    }

    /// Crashes one pid over a half-open superstep range.
    struct CrashPid {
        pid: Pid,
        from: u64,
        until: u64,
    }
    impl crate::hook::DeliveryHook for CrashPid {
        fn crashed(&self, superstep: u64, pid: Pid) -> bool {
            pid == self.pid && (self.from..self.until).contains(&superstep)
        }
    }

    #[test]
    fn crashed_processor_is_silent_and_inbound_custody_charges_crashed() {
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(CrashPid {
            pid: 1,
            from: 1,
            until: 2,
        }));
        // Superstep 0: pid 1 alive; 0→1 delivers into its inbox.
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        assert_eq!(m.pending_inbox(1), &[5]);
        // Superstep 1: pid 1 is down. Its closure is skipped (the retained
        // [5] evaporates, uncharged — it was already counted delivered) and
        // pid 2's message to it is destroyed at the custody-transfer point.
        let r1 = m.superstep(|pid, s, inbox, out| {
            s.extend_from_slice(inbox);
            if pid == 2 {
                out.send(1, 9);
            }
        });
        assert_eq!(r1.delivered, 0);
        assert!(m.state(1).is_empty());
        assert!(m.pending_inbox(1).is_empty());
        // Superstep 2: pid 1 is back, with an empty inbox and no ghosts.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.injected, 2);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.stalled_steps, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn delayed_payload_arriving_at_a_crashed_destination_is_destroyed() {
        struct DelayThenCrash;
        impl crate::hook::DeliveryHook for DelayThenCrash {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.superstep == 0 {
                    Fate::Delay(2)
                } else {
                    Fate::Deliver
                }
            }
            fn crashed(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 2
            }
        }
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DelayThenCrash));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 7);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        let idle = |_: Pid, _: &mut (), _: &[u8], _: &mut Outbox<u8>| {};
        m.superstep(idle);
        // The payload falls due at the end of superstep 2 — exactly when
        // its destination is down. It dies in the network, charged crashed.
        let r2 = m.superstep(idle);
        assert_eq!(r2.delivered, 0);
        assert!(m.pending_inbox(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.delivered, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn crash_overrides_stall_retention() {
        struct StallAndCrash;
        impl crate::hook::DeliveryHook for StallAndCrash {
            fn stalled(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 1
            }
            fn crashed(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 1
            }
        }
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(StallAndCrash));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        // Both predicates fire at superstep 1: crash wins, so the inbox is
        // *not* retained the way a pure stall would retain it.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.stalled_steps, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn sparse_and_dense_agree_under_crashes() {
        let hook = || {
            Arc::new(CrashPid {
                pid: 3,
                from: 1,
                until: 3,
            })
        };
        let program = |pid: Pid, s: &mut Vec<u8>, inbox: &[u8], out: &mut Outbox<u8>| {
            s.extend_from_slice(inbox);
            if pid < 4 {
                out.send(pid + 3, pid as u8);
            }
        };
        let mut dense: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        dense.set_delivery_hook(hook());
        let mut sparse: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        sparse.set_delivery_hook(hook());
        let senders = [0usize, 1, 2, 3];
        for _ in 0..4 {
            dense.superstep(program);
            sparse.superstep_active(&senders, program);
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.fault_stats(), sparse.fault_stats());
        assert_eq!(dense.canonical_hash(), sparse.canonical_hash());
    }

    #[test]
    fn checkpoint_restore_round_trips_the_canonical_hash() {
        // Build a machine with every kind of captured state: retained
        // inboxes (via a stall), a non-empty pending network (via delays),
        // and a dirty ledger.
        struct Mixed;
        impl crate::hook::DeliveryHook for Mixed {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                match (ctx.superstep, ctx.src) {
                    (0, 0) => Fate::Delay(3),
                    (0, 2) => Fate::Drop,
                    _ => Fate::Deliver,
                }
            }
            fn stalled(&self, superstep: u64, pid: Pid) -> bool {
                superstep == 1 && pid == 2
            }
        }
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(Mixed));
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, pid as u64));
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert!(m.faults_in_flight() > 0, "need in-network state");
        assert!(!m.pending_inbox(2).is_empty(), "need retained inbox state");

        let ckpt = m.checkpoint();
        let hash_at_ckpt = m.canonical_hash();
        assert_eq!(ckpt.superstep(), 2);
        assert_eq!(ckpt.pending_payloads(), 1);

        // Diverge: run more supersteps, then restore.
        m.superstep(|pid, s, inbox, out| {
            *s += inbox.iter().sum::<u64>();
            out.send((pid + 2) % 4, 40);
        });
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert_ne!(m.canonical_hash(), hash_at_ckpt);

        m.restore(&ckpt);
        assert_eq!(m.canonical_hash(), hash_at_ckpt);
        assert_eq!(m.fault_stats(), ckpt.fault_stats());

        // The restored machine replays the same future: re-running the
        // diverging steps reproduces the post-divergence fingerprint.
        let mut replay_hash = || {
            m.superstep(|pid, s, inbox, out| {
                *s += inbox.iter().sum::<u64>();
                out.send((pid + 2) % 4, 40);
            });
            m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
            let h = m.canonical_hash();
            m.restore(&ckpt);
            h
        };
        assert_eq!(replay_hash(), replay_hash());
    }

    #[test]
    fn rollback_keeps_the_ledger_monotone_and_conserved() {
        struct DelayOdd;
        impl crate::hook::DeliveryHook for DelayOdd {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.msg_idx % 2 == 1 {
                    Fate::Delay(3)
                } else {
                    Fate::Deliver
                }
            }
        }
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(DelayOdd));
        let round = |m: &mut BspMachine<u64, u64>| {
            m.superstep(|pid, s, inbox, out| {
                *s += inbox.iter().sum::<u64>();
                out.send((pid + 1) % 4, 1);
                out.send((pid + 2) % 4, 2);
            });
        };
        round(&mut m);
        let ckpt = m.checkpoint();
        let before = m.fault_stats();
        assert!(before.in_flight > 0);
        let b0: u64 = (0..4).map(|pid| ckpt.inbox_payloads(pid)).sum();
        let f0 = ckpt.pending_payloads();
        assert!(b0 > 0 && f0 > 0);

        round(&mut m);
        round(&mut m);
        let at_crash = m.fault_stats();
        let discarded = at_crash.in_flight;

        m.rollback(&ckpt);
        let after = m.fault_stats();
        // Machine state reverts…
        assert_eq!(m.superstep_index(), ckpt.superstep() as usize);
        for pid in 0..4 {
            assert_eq!(m.pending_inbox(pid).len() as u64, ckpt.inbox_payloads(pid));
        }
        // …but the ledger only grows, by exactly the rollback algebra.
        assert_eq!(after.crashed, at_crash.crashed + discarded);
        assert_eq!(after.restored, at_crash.restored + b0 + f0);
        assert_eq!(after.delivered, at_crash.delivered + b0);
        assert_eq!(after.in_flight, f0);
        assert!(after.conserved(), "ledger {after:?}");

        // A rolled-back machine plays the same future as a restored one:
        // only the ledger bookkeeping differs, never the behavior.
        round(&mut m);
        let states_after_rollback = m.states().to_vec();
        m.restore(&ckpt);
        round(&mut m);
        assert_eq!(m.states(), &states_after_rollback[..]);
    }
}
