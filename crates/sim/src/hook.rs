//! Pre-delivery fault hooks.
//!
//! The engines consult an optional [`DeliveryHook`] at the communication
//! boundary of every superstep (BSP) or phase (QSM): once per in-flight
//! message, *after* slot resolution and model-rule validation but *before*
//! the payload lands in a destination inbox. The hook decides each message's
//! [`Fate`] and can stall whole processors for a step. Implementations live
//! outside this crate (see `pbw-faults` for the seeded plan used by the
//! experiments); the engines only define the contract:
//!
//! * **Cost accounting.** Every injected message consumes send bandwidth and
//!   an injection slot in the superstep it was posted, whatever its fate —
//!   the network accepted it; the models price the attempt. The engines
//!   record each sender's injections in one batch from its resolved slots,
//!   hooked or not, and a [`Fate::Displace`] only moves its injection to
//!   the later slot. Receive bandwidth is charged in the superstep a
//!   payload actually arrives, so a delayed message shifts `max_received`
//!   (and any resulting overload penalty) to the arrival superstep.
//! * **One delivery.** Hooked or not, an engine counts what lands now into
//!   its inbox arena in one walk over its send lanes and places it in a
//!   second. A [`Fate::Deliver`] to a live processor is placed as an
//!   unhooked message is; only the other fates go through the boundary's
//!   fault bookkeeping. So a hook that delivers everything prices, traces
//!   and hashes exactly like no hook, apart from the trace's fault
//!   counters.
//! * **Determinism.** `fate` must be a pure function of the hook's
//!   pre-superstep state and the presented [`DeliveryCtx`] (and `stalled`
//!   pure in `(superstep, pid)`): the engines *compute* all fates for a
//!   boundary first — as each block of pids' send lane is sealed, in a
//!   parallel pass on the dense path, in unspecified thread order — then
//!   *apply* them in the fixed delivery order (source pid, then send
//!   order). A pure hook therefore yields a bit-identical run at every
//!   thread count — which the cross-thread-count conformance suite checks
//!   by comparing traces byte-for-byte.
//! * **Conservation.** The engine tracks [`FaultStats`] such that
//!   `injected + duplicated + restored == delivered + dropped + crashed +
//!   in_flight` at every superstep boundary (checked by the property suite
//!   and enumerated exhaustively by `pbw-check`). The `crashed` and
//!   `restored` columns exist so crash-stop failures and checkpoint
//!   rollback stay inside the same balance sheet instead of silently
//!   resetting it. The ledger is the only fault record: a step's trace
//!   counters are its change across the boundary.

use std::collections::VecDeque;

use crate::arena::MsgArena;
use crate::lane::{ranged, Lane};
use crate::Pid;
use pbw_models::{FrontierMask, ProfileBuilder};
use pbw_trace::FaultCounters;

/// What happens to one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally at the end of this superstep.
    Deliver,
    /// The network loses the message: bandwidth is consumed, nothing
    /// arrives. Recovery (if any) is a protocol concern, not the engine's.
    Drop,
    /// Deliver now *and* deliver a spurious copy one superstep later.
    Duplicate,
    /// Deliver `k ≥ 1` supersteps late (a `Delay(0)` is treated as
    /// `Delay(1)`). The payload stays in flight until it arrives.
    Delay(u32),
    /// Deliver now, but the injection lands `d` slots later than the
    /// program asked — the router displaced it within the superstep,
    /// reshaping the machine-wide `m_t` histogram the penalty prices.
    Displace(u64),
}

impl Fate {
    /// Whether the payload lands in an inbox at *this* boundary (drops
    /// never arrive; delays arrive at a later one) — what the counting
    /// passes size the arena by.
    #[inline]
    pub(crate) fn arrives_now(self) -> bool {
        matches!(self, Fate::Deliver | Fate::Duplicate | Fate::Displace(_))
    }
}

/// Identifies one message presented to a [`DeliveryHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryCtx {
    /// Superstep (BSP) or phase (QSM) index the message was posted in.
    pub superstep: u64,
    /// Sending processor.
    pub src: Pid,
    /// Destination processor (for QSM: the requesting processor).
    pub dest: Pid,
    /// Send order among `src`'s messages this superstep.
    pub msg_idx: usize,
    /// Resolved injection slot.
    pub slot: u64,
}

/// Destination lane for one sender's batched fate computation.
///
/// The engines keep destinations in a flat `usize` array per block of pids
/// (BSP) or know them to be constant (QSM, where every message in a phase
/// belongs to the requesting processor) — this enum lets one dyn-safe
/// [`DeliveryHook::fate_batch`] signature serve both without materializing
/// a per-message context.
#[derive(Debug, Clone, Copy)]
pub enum BatchDests<'a> {
    /// Per-message destinations, indexed by `msg_idx`.
    Lane(&'a [Pid]),
    /// Every message in the batch goes to the same processor.
    Uniform(Pid),
}

impl BatchDests<'_> {
    /// Destination of message `msg_idx`.
    #[inline]
    pub fn get(&self, msg_idx: usize) -> Pid {
        match self {
            BatchDests::Lane(lane) => lane[msg_idx],
            BatchDests::Uniform(pid) => *pid,
        }
    }
}

/// A fault model consulted at every delivery boundary.
///
/// Implementations must be deterministic functions of their own state and
/// the presented context — the engines guarantee a fixed consultation order
/// so that equal hooks produce bit-identical runs.
pub trait DeliveryHook: Send + Sync {
    /// Decide the fate of one message. The default delivers everything.
    fn fate(&self, ctx: &DeliveryCtx) -> Fate {
        let _ = ctx;
        Fate::Deliver
    }

    /// Decide the fates of all of one sender's messages for one boundary:
    /// message `i` was sent by `src` to `dests.get(i)` into resolved slot
    /// `slots[i]`. Appends exactly `slots.len()` fates to `out`, after the
    /// fates of earlier senders it may already hold (the engines keep one
    /// fate array per block of pids), **bit-identical** to calling
    /// [`Self::fate`] once per message — the provided implementation does
    /// exactly that, and any override (see `FaultPlan` in `pbw-faults` for
    /// the batched seeded plan) must preserve the equivalence, which the
    /// engines' conformance suite and the kernel bit-equality proptests
    /// pin.
    fn fate_batch(
        &self,
        superstep: u64,
        src: Pid,
        dests: BatchDests<'_>,
        slots: &[u64],
        out: &mut Vec<Fate>,
    ) {
        out.reserve(slots.len());
        for (msg_idx, &slot) in slots.iter().enumerate() {
            out.push(self.fate(&DeliveryCtx {
                superstep,
                src,
                dest: dests.get(msg_idx),
                msg_idx,
                slot,
            }));
        }
    }

    /// Whether `pid` is stalled for the whole of `superstep`: its closure
    /// does not run and its inbox is re-presented next superstep. Messages
    /// addressed *to* a stalled processor still arrive.
    fn stalled(&self, superstep: u64, pid: Pid) -> bool {
        let _ = (superstep, pid);
        false
    }

    /// Whether `pid` is crash-stopped for the whole of `superstep`. A
    /// crashed processor is strictly worse than a stalled one: its closure
    /// does not run, it sends nothing, and any payload whose custody would
    /// transfer to it during the superstep (fresh delivery, duplicate copy,
    /// late arrival, or an inbox retained across a simultaneous stall) is
    /// *destroyed* and charged to [`FaultStats::crashed`]. Like `stalled`,
    /// this must be pure in `(superstep, pid)`.
    fn crashed(&self, superstep: u64, pid: Pid) -> bool {
        let _ = (superstep, pid);
        false
    }

    /// Fill the superstep's whole-processor fault sets in one call: set bit
    /// `pid` of `stalled`/`crashed` exactly when [`Self::stalled`] /
    /// [`Self::crashed`] returns true for `(superstep, pid)`. The engines
    /// clear both masks (O(1) epoch bumps) before calling, once per
    /// superstep, and read them word-wise everywhere downstream.
    ///
    /// The provided implementation queries every pid — O(p). Hooks that
    /// know their fault sets in closed form should override it: `FaultPlan`
    /// in `pbw-faults` inserts scripted stall/crash windows directly,
    /// O(windows) instead of O(p), whenever its seeded per-pid rates are
    /// zero. Any override must stay bit-identical to the per-pid
    /// predicates, which the fault-plan suite pins.
    fn fill_fault_masks(
        &self,
        superstep: u64,
        stalled: &mut pbw_models::FrontierMask,
        crashed: &mut pbw_models::FrontierMask,
    ) {
        for pid in 0..stalled.universe() {
            if self.stalled(superstep, pid) {
                stalled.insert(pid);
            }
            if self.crashed(superstep, pid) {
                crashed.insert(pid);
            }
        }
    }
}

/// Running fault ledger kept by an engine (all zeros when no hook is set,
/// except `injected`/`delivered`, which count every message).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultStats {
    /// Messages posted by programs (originals only, not duplicates).
    pub injected: u64,
    /// Payloads that landed in an inbox (originals, duplicates, and late
    /// arrivals alike).
    pub delivered: u64,
    /// Messages lost to [`Fate::Drop`].
    pub dropped: u64,
    /// Spurious copies created by [`Fate::Duplicate`].
    pub duplicated: u64,
    /// Messages that took a [`Fate::Delay`] detour (they still count in
    /// `delivered` once they arrive).
    pub delayed: u64,
    /// Messages displaced to a later injection slot.
    pub displaced: u64,
    /// Processor-supersteps lost to stalls.
    pub stalled_steps: u64,
    /// Payloads currently queued inside the network (delays + pending
    /// duplicate copies).
    pub in_flight: u64,
    /// Payloads destroyed because their custody transferred to a
    /// crash-stopped processor (inbox wiped at crash onset, deliveries and
    /// late arrivals addressed to a dead pid, rollback-discarded traffic).
    pub crashed: u64,
    /// Payloads re-materialized by checkpoint rollback: a restored snapshot
    /// re-creates inbox and pending-network payloads that the crash column
    /// just wrote off, so the books stay balanced.
    pub restored: u64,
    /// Processor-supersteps lost to crash outages.
    pub crash_steps: u64,
}

impl FaultStats {
    /// The conservation invariant every engine maintains at superstep
    /// boundaries: `injected + duplicated + restored == delivered +
    /// dropped + crashed + in_flight`.
    ///
    /// With no crashes and no rollbacks the two new columns are zero and
    /// this reduces to the original PR-2 law.
    pub fn conserved(&self) -> bool {
        self.injected + self.duplicated + self.restored
            == self.delivered + self.dropped + self.crashed + self.in_flight
    }

    /// A step's trace counters: the change in the ledger since `before`,
    /// taken as the step's boundary opened. `delivered` cannot tell late
    /// arrivals from on-time ones, so the caller passes their count.
    pub(crate) fn counters_since(&self, before: &FaultStats, late_arrivals: u64) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped - before.dropped,
            duplicated: self.duplicated - before.duplicated,
            delayed: self.delayed - before.delayed,
            displaced: self.displaced - before.displaced,
            stalled_procs: self.stalled_steps - before.stalled_steps,
            late_arrivals,
            crashed: self.crashed - before.crashed,
            crashed_procs: self.crash_steps - before.crash_steps,
            retransmit_round: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-side fault bookkeeping, shared by the BSP and QSM engines.
// ---------------------------------------------------------------------------

/// How many drained pending-delivery buffers an engine keeps for reuse.
pub(crate) const PENDING_POOL_CAP: usize = 16;

/// Call `f` for every processor that keeps its inbox this step — stalled
/// and not crashed — in ascending pid order. Crash overrides stall: a
/// crashed processor's undrained inbox evaporates at the arena swap,
/// uncharged (it was counted delivered at the previous boundary). Walks the
/// masks word-at-a-time: O(fault-words), not O(p).
fn for_each_retained(stalled: &FrontierMask, crashed: &FrontierMask, mut f: impl FnMut(Pid)) {
    for (leaf, word) in stalled.words() {
        let mut bits = word & !crashed.word(leaf);
        while bits != 0 {
            f(leaf * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Finish a fill's counting pass and open it, once the caller has counted
/// this step's sends into `arena`. On a hooked step (`faults` holds the
/// stall and crash masks) the step's crashed and stalled processors are
/// charged to the ledger and every retained inbox of `spare` is counted;
/// every due late arrival at a live pid is counted. The arena is then laid
/// out and the retained inboxes re-placed, ahead of this step's deliveries
/// (the retaining processor sees them again next step). Returns the
/// largest segment and whether any processor retained its inbox.
pub(crate) fn open_fill<T: Clone>(
    arena: &mut MsgArena<T>,
    spare: &MsgArena<T>,
    faults: Option<(&FrontierMask, &FrontierMask)>,
    stats: &mut FaultStats,
    due: &[(Pid, T)],
) -> (u64, bool) {
    let mut retained = false;
    if let Some((stalled, crashed)) = faults {
        stats.crash_steps += crashed.count() as u64;
        for_each_retained(stalled, crashed, |pid| {
            stats.stalled_steps += 1;
            retained = true;
            arena.count(pid, spare.len(pid));
        });
    }
    for &(dest, _) in due {
        if !faults.is_some_and(|(_, crashed)| crashed.contains(dest)) {
            arena.count(dest, 1);
        }
    }
    let max_seg = arena.begin_counted();
    if let Some((stalled, crashed)) = faults {
        for_each_retained(stalled, crashed, |pid| {
            for payload in spare.inbox(pid) {
                arena.place(pid, payload.clone());
            }
        });
    }
    (max_seg, retained)
}

/// Payloads delivered to `d` at this boundary: its segment of `fill` less
/// the inbox it retained from `spare` through a stall. `faults` holds the
/// stall and crash masks on hooked steps only — they are stale otherwise.
/// The trace rows and BSP's receive maximum after a stall use it.
pub(crate) fn received<T>(
    fill: &MsgArena<T>,
    spare: &MsgArena<T>,
    faults: Option<(&FrontierMask, &FrontierMask)>,
    d: Pid,
) -> u64 {
    let retained =
        faults.is_some_and(|(stalled, crashed)| stalled.contains(d) && !crashed.contains(d));
    (fill.len(d) - if retained { spare.len(d) } else { 0 }) as u64
}

/// A trace event's per-processor rows, dense by format (length `p`) and
/// filled O(senders + touched): the messages each sender of `lanes`
/// posted, and what each processor [`received`] at this boundary.
pub(crate) fn traffic_rows<'a, T: 'a, U>(
    p: usize,
    lanes: impl Iterator<Item = &'a Lane<T>>,
    fill: &MsgArena<U>,
    spare: &MsgArena<U>,
    faults: Option<(&FrontierMask, &FrontierMask)>,
) -> (Vec<u64>, Vec<u64>) {
    let mut sent = vec![0u64; p];
    for lane in lanes {
        for (s, r) in ranged(&lane.senders) {
            sent[s.pid] = r.len() as u64;
        }
    }
    let mut recv = vec![0u64; p];
    for d in fill.touched().iter() {
        recv[d] = received(fill, spare, faults, d);
    }
    (sent, recv)
}

/// One delivery boundary's mutable bookkeeping: what applying fates and
/// landing late arrivals write, in both engines. `pending[k]` holds the
/// payloads due `k + 1` boundaries from now; `pool` recycles its levels.
/// The engines book what they inject and what lands (`injected`,
/// `delivered`) themselves; the boundary keeps every other column.
pub(crate) struct Boundary<'a, T> {
    pub(crate) arena: &'a mut MsgArena<T>,
    pub(crate) pending: &'a mut VecDeque<Vec<(Pid, T)>>,
    pub(crate) pool: &'a mut Vec<Vec<(Pid, T)>>,
    pub(crate) stats: &'a mut FaultStats,
    pub(crate) builder: &'a mut ProfileBuilder,
    /// The crash set (hooked steps only): a payload whose custody would
    /// transfer to a crashed processor is destroyed instead.
    pub(crate) dead: Option<&'a FrontierMask>,
}

impl<T> Boundary<'_, T> {
    /// Queue `payload` for delivery to `dest` at the boundary `k ≥ 1` steps
    /// from now (`pending[k - 1]`), reusing drained level buffers.
    fn queue(&mut self, k: u32, dest: Pid, payload: T) {
        let idx = (k.max(1) - 1) as usize;
        while self.pending.len() <= idx {
            self.pending.push_back(self.pool.pop().unwrap_or_default());
        }
        self.pending[idx].push((dest, payload));
        self.stats.in_flight += 1;
    }

    /// Place `payload` for `dest`, unless `dest` is crash-stopped: then the
    /// payload is destroyed, charged to the crash column. Returns whether
    /// it landed. A `Deliver` fate needs nothing more.
    #[inline]
    pub(crate) fn land(&mut self, dest: Pid, payload: T) -> bool {
        if self.dead.is_some_and(|d| d.contains(dest)) {
            self.stats.crashed += 1;
            return false;
        }
        self.arena.place(dest, payload);
        true
    }

    /// Land the late arrivals due at this boundary, after the step's own
    /// deliveries: a payload due at a dead destination dies in the network
    /// (its delay only deferred the custody transfer). The drained level
    /// buffer goes back to the pool. Returns the number placed.
    pub(crate) fn land_due(&mut self, mut due: Vec<(Pid, T)>) -> u64 {
        let mut placed = 0u64;
        for (dest, payload) in due.drain(..) {
            self.stats.in_flight -= 1;
            placed += u64::from(self.land(dest, payload));
        }
        if due.capacity() > 0 && self.pool.len() < PENDING_POOL_CAP {
            self.pool.push(due);
        }
        placed
    }
}

impl<T: Clone> Boundary<'_, T> {
    /// Apply one message's fate, in the canonical delivery order. The
    /// engine has already recorded its injection at `slot`; a displaced
    /// one moves to its later slot. A payload then is dropped, queued
    /// late, or landed for `dest` (a duplicate also queues a copy for the
    /// next boundary, which meets *that* boundary's crash set). A QSM write
    /// has no payload: the memory absorbs it in order, so only a drop stops
    /// it. Returns whether the message landed at this boundary.
    pub(crate) fn apply(&mut self, fate: Fate, slot: u64, dest: Pid, payload: Option<T>) -> bool {
        if let Fate::Displace(d) = fate {
            self.stats.displaced += 1;
            self.builder.displace_injection(slot, d);
        }
        match (fate, payload) {
            (Fate::Drop, _) => {
                self.stats.dropped += 1;
                false
            }
            (_, None) => true,
            (Fate::Delay(k), Some(payload)) => {
                self.queue(k, dest, payload);
                self.stats.delayed += 1;
                false
            }
            (_, Some(payload)) => {
                if fate == Fate::Duplicate {
                    self.queue(1, dest, payload.clone());
                    self.stats.duplicated += 1;
                }
                self.land(dest, payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Everything;
    impl DeliveryHook for Everything {}

    #[test]
    fn default_hook_delivers_and_never_stalls() {
        let h = Everything;
        let ctx = DeliveryCtx {
            superstep: 3,
            src: 0,
            dest: 1,
            msg_idx: 0,
            slot: 2,
        };
        assert_eq!(h.fate(&ctx), Fate::Deliver);
        assert!(!h.stalled(0, 0));
        assert!(!h.crashed(0, 0));
    }

    #[test]
    fn zero_stats_are_conserved() {
        assert!(FaultStats::default().conserved());
        let s = FaultStats {
            injected: 5,
            delivered: 3,
            dropped: 1,
            in_flight: 1,
            ..Default::default()
        };
        assert!(s.conserved());
        let bad = FaultStats {
            injected: 5,
            delivered: 3,
            ..Default::default()
        };
        assert!(!bad.conserved());
    }

    #[test]
    fn crash_columns_balance_the_extended_law() {
        // Two payloads destroyed by a crash, three re-created by rollback.
        let s = FaultStats {
            injected: 6,
            delivered: 5,
            crashed: 2,
            restored: 3,
            in_flight: 2,
            ..Default::default()
        };
        assert!(s.conserved());
        // A crash that destroys a payload without charging the column
        // must unbalance the books.
        let bad = FaultStats {
            injected: 6,
            delivered: 5,
            ..Default::default()
        };
        assert!(!bad.conserved());
    }
}
