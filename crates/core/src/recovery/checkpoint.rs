//! Superstep-consistent checkpoint/rollback recovery for crash-stop
//! processor failures.
//!
//! The ack/retransmit protocol in [`super`] survives *message*-level faults
//! (drops, duplicates, delays) but not a processor that dies mid-run: a
//! crash-stop failure silences a pid for a window of supersteps, destroys
//! every payload handed to it while down, and — in a real machine — loses
//! its local state. This module layers the classic BSP answer on top:
//!
//! 1. **Checkpoint.** Every `k` protocol supersteps the driver snapshots the
//!    whole [`RecoverySession`] at the barrier ([`RecoverySession::
//!    checkpoint`]). A barrier-aligned snapshot is globally consistent for
//!    free — between supersteps there are no messages in transit other than
//!    the explicitly-modeled pending queue, which the snapshot captures.
//!    Snapshots are *passive*: a crash-free checkpointed run is
//!    byte-identical to an uncheckpointed one (the proptests pin this).
//! 2. **Detect.** The driver watches the engine's `crash_steps` ledger
//!    column; any superstep during which a processor was down triggers
//!    recovery — crash-stop means that processor's state is gone, so the
//!    run can no longer be trusted past the last snapshot.
//! 3. **Roll back.** [`RecoverySession::rollback`] reverts machine and
//!    protocol state to the snapshot under the *monotone* ledger algebra
//!    (aborted in-flight payloads written off to `crashed`, re-materialized
//!    snapshot payloads credited to `restored` — conservation never
//!    breaks), and stamps a [`RecoveryMark::Rollback`] on the next trace
//!    event.
//! 4. **Replay against a moving wall clock.** Hooks are pure in
//!    `(superstep, pid)`, so naive replay would hit the same crash forever.
//!    The driver wraps the user hook in a [`WallClockHook`]: fault time =
//!    machine superstep + offset, and each rollback advances the offset
//!    past the crashed superstep. Replayed supersteps therefore see *fresh*
//!    fault history, crash windows expire in wall time, and the residual
//!    rescheduling below re-prices honestly.
//!
//! **Cost accounting.** Rolled-back supersteps are never un-priced: their
//! profiles stay in the run (lost work is exactly the overhead rollback
//! recovery pays). Checkpoint writes and post-crash restores are priced as
//! additional superstep profiles — a checkpoint write is an h-relation in
//! which every processor ships its state words to a buddy
//! (`(pid + p/2) % p`), a restore is the fan-in from buddies to just the
//! crashed pids. This is where the local/global split bites: BSP(g)
//! charges every checkpoint write `g·h` *globally*, while BSP(m)'s slot
//! histogram prices the restore fan-in by how much bandwidth it actually
//! uses — a handful of restarted processors cost almost nothing. The
//! `reproduce crashes` sweep tabulates this separation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{RecoveryConfig, RecoveryOutcome, RecoveryPhase, RecoverySession, SessionCheckpoint};
use crate::schedulers::Scheduler;
use crate::workload::Workload;
use pbw_models::{MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_sim::{BatchDests, CostSummary, DeliveryCtx, DeliveryHook, Fate, FrontierMask, Pid};
use pbw_trace::RecoveryMark;

/// Knobs of the checkpoint/rollback driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take a snapshot every `interval` protocol supersteps (`k ≥ 1`).
    pub interval: u64,
    /// Price checkpoint writes and restores as superstep profiles in the
    /// outcome's `overhead`. Switching this off makes checkpointing fully
    /// invisible (pure snapshot mode — what the byte-identity proptests
    /// run).
    pub charge_state_io: bool,
    /// Give up after this many rollbacks (the outcome then reports
    /// `gave_up` instead of replaying a pathological crash plan forever).
    pub max_rollbacks: u32,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 4,
            charge_state_io: true,
            max_rollbacks: 32,
        }
    }
}

impl CheckpointConfig {
    /// Checkpoint every `k` supersteps, defaults elsewhere.
    pub fn every(k: u64) -> Self {
        CheckpointConfig {
            interval: k,
            ..Default::default()
        }
    }
}

/// Translates engine superstep indices into *wall-clock* fault time:
/// `wall = superstep + offset`. The offset starts at 0 (the hook is then a
/// transparent wrapper) and advances at every rollback, so replayed
/// supersteps consult the wrapped hook at fresh wall times instead of
/// re-living the crash that forced the rollback.
///
/// The purity contract holds piecewise: the offset only changes between
/// supersteps (at rollback, driven by the single-threaded driver), so
/// within any superstep the hook is pure in `(superstep, pid)` exactly as
/// the engines require.
///
/// Every hook entry point is forwarded at wall time, the batched ones
/// included, so a wrapped hook's overrides (`FaultPlan`'s hoisted fate
/// batches and closed-form fault masks) still run under checkpointing.
pub struct WallClockHook {
    inner: Arc<dyn DeliveryHook>,
    offset: AtomicU64,
}

impl WallClockHook {
    /// Wrap `inner`; wall time starts equal to machine time.
    pub fn new(inner: Arc<dyn DeliveryHook>) -> Self {
        WallClockHook {
            inner,
            offset: AtomicU64::new(0),
        }
    }

    /// Current wall-clock offset.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::Relaxed)
    }

    /// Set the offset. Driver-only: call strictly *between* supersteps
    /// (after a rollback, before resuming), never while a superstep is in
    /// flight — the purity contract above depends on it.
    pub fn set_offset(&self, offset: u64) {
        self.offset.store(offset, Ordering::Relaxed);
    }
}

impl DeliveryHook for WallClockHook {
    fn fate(&self, ctx: &DeliveryCtx) -> Fate {
        self.inner.fate(&DeliveryCtx {
            superstep: ctx.superstep + self.offset(),
            src: ctx.src,
            dest: ctx.dest,
            msg_idx: ctx.msg_idx,
            slot: ctx.slot,
        })
    }

    fn fate_batch(
        &self,
        superstep: u64,
        src: Pid,
        dests: BatchDests<'_>,
        slots: &[u64],
        out: &mut Vec<Fate>,
    ) {
        self.inner
            .fate_batch(superstep + self.offset(), src, dests, slots, out);
    }

    fn stalled(&self, superstep: u64, pid: Pid) -> bool {
        self.inner.stalled(superstep + self.offset(), pid)
    }

    fn crashed(&self, superstep: u64, pid: Pid) -> bool {
        self.inner.crashed(superstep + self.offset(), pid)
    }

    fn fill_fault_masks(
        &self,
        superstep: u64,
        stalled: &mut FrontierMask,
        crashed: &mut FrontierMask,
    ) {
        self.inner
            .fill_fault_masks(superstep + self.offset(), stalled, crashed);
    }
}

/// What a checkpointed recovery run did and what it cost.
#[derive(Debug, Clone)]
pub struct CheckpointedOutcome {
    /// The protocol run itself — including every replayed superstep, which
    /// stays priced (lost work is the cost of rollback recovery).
    pub recovery: RecoveryOutcome,
    /// Snapshots taken (the initial superstep-0 snapshot included).
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Supersteps discarded and re-executed due to rollbacks.
    pub replayed_supersteps: u64,
    /// Checkpoint-write and restore h-relations, one profile each, in the
    /// order they happened. Empty when `charge_state_io` is off.
    pub overhead_profiles: Vec<SuperstepProfile>,
    /// The overhead profiles priced under every model.
    pub overhead: CostSummary,
    /// Protocol cost plus state-I/O overhead, per model.
    pub total: CostSummary,
    /// True if `max_rollbacks` was exhausted before the protocol finished.
    pub gave_up: bool,
}

/// `pid`'s checkpoint buddy: the processor half the machine away, so buddy
/// traffic is itself a balanced h-relation rather than a hotspot.
pub fn buddy(pid: Pid, p: usize) -> Pid {
    (pid + p / 2) % p
}

/// Spread `total` injections over the fewest feasible slots: at least
/// `⌈total/m⌉` (the aggregate-bandwidth floor) and at least `per_proc_max`
/// (no processor can inject twice in one slot), filled as evenly as
/// possible so no slot exceeds `m`. This is the *optimally scheduled*
/// slot histogram for the state-I/O h-relation — recovery traffic is
/// planned by the runtime, not adversarial, so it is priced at its
/// schedulable cost.
fn spread_injections(b: &mut ProfileBuilder, total: u64, per_proc_max: u64, m: u64) {
    if total == 0 {
        return;
    }
    let slots = per_proc_max.max(total.div_ceil(m.max(1)));
    let base = total / slots;
    let extra = total % slots;
    for s in 0..slots {
        let put = base + u64::from(s < extra);
        if put > 0 {
            b.record_injections(s, put);
        }
    }
}

/// Price one checkpoint write: every processor ships its state words to
/// its buddy — a (near-)balanced h-relation. BSP(g) charges `g·h` on the
/// largest per-processor state; BSP(m) charges the aggregate word count
/// over `m` slots — for balanced state the two roughly agree, exactly the
/// paper's equivalence on balanced h-relations.
fn checkpoint_write_profile(ckpt: &SessionCheckpoint, m: u64) -> SuperstepProfile {
    let p = ckpt.p();
    let mut b = ProfileBuilder::new();
    let mut total = 0u64;
    let mut widest = 0u64;
    for pid in 0..p {
        let words = ckpt.state_words(pid);
        b.record_traffic(words, ckpt.state_words(buddy(pid, p)));
        total += words;
        widest = widest.max(words);
    }
    spread_injections(&mut b, total, widest, m);
    b.snapshot_reset()
}

/// Price one restore: each crashed pid's buddy fans the snapshot state
/// back in. Only the restarted processors receive — BSP(g) still charges
/// `g·h` on the widest restarted state, while BSP(m)'s aggregate slots
/// absorb the sparse fan-in almost for free. This is where the
/// local/global split shows up in recovery overhead.
fn restore_profile(ckpt: &SessionCheckpoint, dead: &[Pid], m: u64) -> SuperstepProfile {
    let mut b = ProfileBuilder::new();
    let mut total = 0u64;
    let mut widest = 0u64;
    for &pid in dead {
        let words = ckpt.state_words(pid);
        // The buddy sends, the restarted pid receives.
        b.record_traffic(0, words);
        total += words;
        widest = widest.max(words);
    }
    // Buddies' send sides: sent = words of their restarted partner.
    for &pid in dead {
        b.record_traffic(ckpt.state_words(pid), 0);
    }
    spread_injections(&mut b, total, widest, m);
    b.snapshot_reset()
}

fn add_summaries(a: &CostSummary, b: &CostSummary) -> CostSummary {
    CostSummary {
        bsp_g: a.bsp_g + b.bsp_g,
        bsp_m_linear: a.bsp_m_linear + b.bsp_m_linear,
        bsp_m_exp: a.bsp_m_exp + b.bsp_m_exp,
        bsp_m_self: a.bsp_m_self + b.bsp_m_self,
        qsm_g: a.qsm_g + b.qsm_g,
        qsm_m_linear: a.qsm_m_linear + b.qsm_m_linear,
        qsm_m_exp: a.qsm_m_exp + b.qsm_m_exp,
    }
}

/// Run `wl` under a (possibly crashing) fault hook with checkpoint/rollback
/// recovery layered over the ack/retransmit protocol. See the module docs
/// for the protocol; with `hook = None`, or a hook that never crashes, the
/// protocol supersteps are bit-exact to [`super::run_with_recovery`].
pub fn run_with_checkpointed_recovery(
    wl: &Workload,
    scheduler: &dyn Scheduler,
    params: MachineParams,
    seed: u64,
    hook: Option<Arc<dyn DeliveryHook>>,
    cfg: &RecoveryConfig,
    ck: &CheckpointConfig,
) -> CheckpointedOutcome {
    run_with_checkpointed_recovery_to(
        pbw_trace::global_sink(),
        wl,
        scheduler,
        params,
        seed,
        hook,
        cfg,
        ck,
    )
}

/// [`run_with_checkpointed_recovery`] with an explicit trace sink (the
/// sweep-determinism idiom, see [`super::run_with_recovery_to`]).
#[allow(clippy::too_many_arguments)]
pub fn run_with_checkpointed_recovery_to(
    sink: Arc<dyn pbw_trace::TraceSink>,
    wl: &Workload,
    scheduler: &dyn Scheduler,
    params: MachineParams,
    seed: u64,
    hook: Option<Arc<dyn DeliveryHook>>,
    cfg: &RecoveryConfig,
    ck: &CheckpointConfig,
) -> CheckpointedOutcome {
    assert!(ck.interval >= 1, "checkpoint interval must be ≥ 1");
    let p = params.p;
    let wall = hook.map(|h| Arc::new(WallClockHook::new(h)));
    let session_hook: Option<Arc<dyn DeliveryHook>> = wall
        .as_ref()
        .map(|w| Arc::clone(w) as Arc<dyn DeliveryHook>);
    let mut session = RecoverySession::new(sink, wl, scheduler, params, seed, session_hook, cfg);

    let m_slots = params.m as u64;
    let mut last = session.checkpoint();
    let mut overhead_profiles: Vec<SuperstepProfile> = Vec::new();
    if ck.charge_state_io {
        overhead_profiles.push(checkpoint_write_profile(&last, m_slots));
    }
    let mut checkpoints = 1u64;
    let mut rollbacks = 0u32;
    let mut replayed = 0u64;
    let mut since_ckpt = 0u64;
    let mut gave_up = false;

    loop {
        let crash_steps_before = session.fault_stats().crash_steps;
        let phase = session.step();
        if phase == RecoveryPhase::Done {
            break;
        }
        if session.fault_stats().crash_steps > crash_steps_before {
            // A processor was down during that superstep: its state is
            // gone, so the timeline past the last snapshot is void.
            if rollbacks >= ck.max_rollbacks {
                gave_up = true;
                break;
            }
            rollbacks += 1;
            let after_crash = session.machine().superstep_index() as u64;
            let crashed_step = after_crash - 1;
            let wall_ref = wall.as_ref().expect("crash_steps implies a hook");
            // Who was down (queried in current wall time, pre-advance)?
            let dead: Vec<Pid> = (0..p)
                .filter(|&pid| wall_ref.crashed(crashed_step, pid))
                .collect();
            // Advance wall time one past the crashed superstep, so the
            // first replayed superstep sees fresh fault history.
            let wall_of_crash = crashed_step + wall_ref.offset();
            wall_ref.set_offset(wall_of_crash + 1 - last.superstep());
            replayed += after_crash - last.superstep();
            session.rollback(&last);
            if ck.charge_state_io {
                overhead_profiles.push(restore_profile(&last, &dead, m_slots));
            }
            since_ckpt = 0;
            continue;
        }
        since_ckpt += 1;
        if since_ckpt == ck.interval && !session.is_done() {
            last = session.checkpoint();
            checkpoints += 1;
            since_ckpt = 0;
            if ck.charge_state_io {
                overhead_profiles.push(checkpoint_write_profile(&last, m_slots));
                session.set_recovery_mark(RecoveryMark::Checkpoint {
                    payloads: last.total_payloads(),
                });
            }
        }
    }

    let recovery = session.into_outcome();
    let overhead = CostSummary::price(params, &overhead_profiles);
    let total = add_summaries(&recovery.summary, &overhead);
    CheckpointedOutcome {
        recovery,
        checkpoints,
        rollbacks,
        replayed_supersteps: replayed,
        overhead_profiles,
        overhead,
        total,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::OfflineOptimal;
    use crate::workload;
    use pbw_faults::{CrashWindow, FaultPlan, FaultSpec};

    fn params(p: usize, m: usize) -> MachineParams {
        MachineParams::from_bandwidth(p, m, 4)
    }

    #[test]
    fn crash_free_checkpointed_run_matches_plain_recovery_bit_exactly() {
        let wl = workload::uniform_random(16, 3, 7);
        let mp = params(16, 4);
        let cfg = RecoveryConfig::default();
        let plan: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(FaultSpec::drop_only(0.15), 3));
        let plain =
            super::super::run_with_recovery(&wl, &OfflineOptimal, mp, 9, Some(plan.clone()), &cfg);
        // Passive snapshot mode: byte-identical protocol run.
        let ck = CheckpointConfig {
            interval: 2,
            charge_state_io: false,
            max_rollbacks: 8,
        };
        let out = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            9,
            Some(plan.clone()),
            &cfg,
            &ck,
        );
        assert_eq!(out.rollbacks, 0);
        assert!(out.checkpoints > 1);
        assert!(out.overhead_profiles.is_empty());
        assert_eq!(out.recovery.summary, plain.summary);
        assert_eq!(out.recovery.profiles, plain.profiles);
        assert_eq!(out.recovery.arrival_steps, plain.arrival_steps);
        assert_eq!(out.recovery.fault_stats, plain.fault_stats);
        assert_eq!(out.total, plain.summary);
        // Charged mode: identical protocol run, non-zero overhead on top.
        let out2 = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            9,
            Some(plan),
            &cfg,
            &CheckpointConfig::every(2),
        );
        assert_eq!(out2.recovery.summary, plain.summary);
        assert!(out2.overhead.bsp_g > 0.0);
        assert!(out2.total.bsp_g > plain.summary.bsp_g);
    }

    #[test]
    fn scripted_crash_rolls_back_and_still_delivers_everything() {
        let wl = workload::uniform_random(8, 2, 11);
        let mp = params(8, 2);
        let cfg = RecoveryConfig::default();
        // Processor 3 is dead for wall supersteps 0–1, covering the initial
        // send; each rollback advances wall time by one, so the third
        // replay finally sees it alive.
        let plan = FaultPlan::new(FaultSpec::none(), 0)
            .with_crash_window(CrashWindow::new(3, 0, 2).expect("window"));
        let out = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            5,
            Some(Arc::new(plan)),
            &cfg,
            &CheckpointConfig::every(1),
        );
        assert!(!out.gave_up);
        assert!(out.rollbacks >= 1);
        assert!(out.replayed_supersteps >= 1);
        assert!(out.recovery.delivered_all, "crash recovery lost flits");
        assert!(out.recovery.fault_stats.conserved());
        assert!(out.recovery.fault_stats.crash_steps >= 1);
        // Restores were priced (one per rollback) on top of the writes.
        assert!(out.overhead_profiles.len() as u64 > out.checkpoints);
        // Determinism: the whole recovery replays bit-identically.
        let plan2 = FaultPlan::new(FaultSpec::none(), 0)
            .with_crash_window(CrashWindow::new(3, 0, 2).expect("window"));
        let again = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            5,
            Some(Arc::new(plan2)),
            &cfg,
            &CheckpointConfig::every(1),
        );
        assert_eq!(out.recovery.summary, again.recovery.summary);
        assert_eq!(out.recovery.fault_stats, again.recovery.fault_stats);
        assert_eq!(out.rollbacks, again.rollbacks);
        assert_eq!(out.total, again.total);
    }

    #[test]
    fn seeded_crashes_recover_with_conserved_ledger() {
        let wl = workload::uniform_random(16, 2, 13);
        let mp = params(16, 4);
        let cfg = RecoveryConfig::default();
        let spec = FaultSpec {
            crash_rate: 0.05,
            max_crash_len: 2,
            ..FaultSpec::none()
        };
        let out = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            mp,
            7,
            Some(Arc::new(FaultPlan::new(spec, 21))),
            &cfg,
            &CheckpointConfig::every(2),
        );
        assert!(!out.gave_up, "seeded crashes should be survivable");
        assert!(out.recovery.delivered_all);
        assert!(out.recovery.fault_stats.conserved());
    }

    #[test]
    fn permanent_crash_gives_up_at_max_rollbacks() {
        struct AlwaysDead;
        impl DeliveryHook for AlwaysDead {
            fn crashed(&self, _superstep: u64, pid: Pid) -> bool {
                pid == 0
            }
        }
        let wl = workload::uniform_random(8, 2, 3);
        let out = run_with_checkpointed_recovery(
            &wl,
            &OfflineOptimal,
            params(8, 2),
            1,
            Some(Arc::new(AlwaysDead)),
            &RecoveryConfig::default(),
            &CheckpointConfig {
                interval: 1,
                charge_state_io: true,
                max_rollbacks: 3,
            },
        );
        assert!(out.gave_up);
        assert_eq!(out.rollbacks, 3);
        assert!(out.recovery.fault_stats.conserved());
    }

    #[test]
    fn wall_clock_hook_forwards_the_batch_entry_points_at_wall_time() {
        use pbw_sim::BspMachine;
        use std::sync::Mutex;

        /// Logs the superstep each batch entry point is called at.
        #[derive(Default)]
        struct BatchLog {
            fate_batches: Mutex<Vec<u64>>,
            mask_fills: Mutex<Vec<u64>>,
        }
        impl DeliveryHook for BatchLog {
            fn fate_batch(
                &self,
                superstep: u64,
                _src: Pid,
                _dests: BatchDests<'_>,
                slots: &[u64],
                out: &mut Vec<Fate>,
            ) {
                self.fate_batches.lock().unwrap().push(superstep);
                out.extend(slots.iter().map(|_| Fate::Deliver));
            }

            fn fill_fault_masks(
                &self,
                superstep: u64,
                _stalled: &mut FrontierMask,
                _crashed: &mut FrontierMask,
            ) {
                self.mask_fills.lock().unwrap().push(superstep);
            }
        }

        let log = Arc::new(BatchLog::default());
        let wall = WallClockHook::new(log.clone());
        wall.set_offset(3);
        let mut machine: BspMachine<(), u32> = BspMachine::new(params(4, 2), |_| ());
        machine.set_delivery_hook(Arc::new(wall));
        // Machine superstep 0: pids 0 and 2 send, 1 and 3 stay silent.
        machine.superstep(|pid, _, _, out| {
            if pid % 2 == 0 {
                out.send((pid + 1) % 4, 1);
                out.send((pid + 3) % 4, 2);
            }
        });
        // Machine superstep 1: only pid 1 sends.
        machine.superstep(|pid, _, _, out| {
            if pid == 1 {
                out.send(0, 3);
            }
        });
        // One batch per sender with messages, one mask fill per superstep,
        // each at machine superstep + 3.
        assert_eq!(*log.fate_batches.lock().unwrap(), [3, 3, 4]);
        assert_eq!(*log.mask_fills.lock().unwrap(), [3, 4]);
    }

    #[test]
    fn buddy_is_half_the_machine_away() {
        assert_eq!(buddy(0, 8), 4);
        assert_eq!(buddy(5, 8), 1);
        assert_eq!(buddy(2, 3), 0);
    }
}
