//! Fault-injection and recovery integration tests: the conservation
//! invariant must hold for *every* seeded `FaultPlan` (proptest), same-seed
//! runs must replay bit-identically, and the φ = 0 recovery path must be
//! cost-identical to the reliable direct execution.

mod common;

use common::{at_width, run_hooked, spec_strategy};
use parallel_bandwidth::models::MachineParams;
use parallel_bandwidth::prelude::*;
use parallel_bandwidth::sched::exec::run_schedule_on_bsp;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `injected + duplicated + restored == delivered + dropped + crashed
    /// + in_flight` for every seeded plan, at quiescence (where
    /// `in_flight == 0`; plain engine runs never roll back, so `restored`
    /// stays 0 and crash-stop losses land in `crashed`).
    #[test]
    fn every_seeded_plan_conserves_messages(
        spec in spec_strategy(),
        seed in any::<u64>(),
        fanout in 1..6u64,
    ) {
        let (stats, _) = run_hooked(FaultPlan::new(spec, seed), fanout, 2);
        prop_assert!(stats.conserved(), "ledger {stats:?}");
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(stats.restored, 0);
        prop_assert_eq!(
            stats.injected + stats.duplicated,
            stats.delivered + stats.dropped + stats.crashed
        );
    }

    /// Same fault seed ⇒ bit-identical run: every trace event (profiles,
    /// costs, fault counters) compares equal, and the rendered JSONL is
    /// byte-for-byte the same.
    #[test]
    fn same_fault_seed_replays_bit_identically(
        spec in spec_strategy(),
        seed in any::<u64>(),
    ) {
        let (s1, t1) = run_hooked(FaultPlan::new(spec, seed), 4, 2);
        let (s2, t2) = run_hooked(FaultPlan::new(spec, seed), 4, 2);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(&t1, &t2);
        let j1: Vec<String> = t1.iter().map(|e| e.to_json()).collect();
        let j2: Vec<String> = t2.iter().map(|e| e.to_json()).collect();
        prop_assert_eq!(j1, j2);
    }
}

/// φ = 0: the recovery harness must price identically to the plain
/// execution path — both with no hook at all and with an attached
/// all-zero-rate plan.
#[test]
fn zero_rate_recovery_is_bit_exact_with_direct_execution() {
    let params = MachineParams::from_gap(64, 8, 8);
    let wl = parallel_bandwidth::sched::workload::single_hot_sender(64, 512, 4, 2);
    let scheduler = UnbalancedSend::new(0.3);
    let sched = scheduler.schedule(&wl, params.m, 11);
    let direct = run_schedule_on_bsp(&wl, &sched, params);

    let cfg = RecoveryConfig::default();
    let no_hook = run_with_recovery(&wl, &scheduler, params, 11, None, &cfg);
    assert_eq!(no_hook.summary, direct.summary);
    assert_eq!(no_hook.rounds, 0);

    let clean_plan: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(FaultSpec::none(), 99));
    let hooked = run_with_recovery(&wl, &scheduler, params, 11, Some(clean_plan), &cfg);
    assert_eq!(hooked.summary, direct.summary);
    assert_eq!(hooked.resent_flits, 0);
    assert!(hooked.delivered_all);
}

/// Active-set frontier semantics (PR 5): a processor that schedules no
/// sends of its own must stay reachable through supersteps in which *no*
/// processor is declared active — both for a payload the fault layer is
/// holding (due delivery) and for a message already sitting in its inbox.
#[test]
fn due_and_retained_inboxes_reactivate_idle_processors_on_the_sparse_path() {
    use parallel_bandwidth::sim::DeliveryCtx;

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

    let params = MachineParams::from_gap(64, 8, 4);
    let mut machine: BspMachine<Vec<u64>, u64> = BspMachine::new(params, |_| Vec::new());
    machine.set_delivery_hook(Arc::new(SlowStart));

    // Superstep 0: only pid 3 is active; its message to pid 40 is delayed.
    machine.superstep_active(&[3], |pid, _s, _in, out| {
        if pid == 3 {
            out.send(40, 7);
        }
    });
    let drain = |_pid: usize,
                 s: &mut Vec<u64>,
                 inbox: &[u64],
                 _out: &mut parallel_bandwidth::sim::Outbox<u64>| {
        s.extend_from_slice(inbox);
    };
    // Supersteps 1..: nobody is declared active. The due delivery must
    // land in pid 40's arena and pid 40 must then be woken to consume the
    // *retained* inbox, with no dense pass and no explicit declaration.
    for _ in 0..4 {
        machine.superstep_active(&[], drain);
    }
    assert_eq!(machine.state(40), &vec![7]);
    assert_eq!(machine.fault_stats().delivered, 1);
    assert_eq!(machine.fault_stats().in_flight, 0);
}

/// `pending_inboxes` is the receivers-only form of `pending_inbox`: after
/// dense, sparse and auto supersteps under stalls (retained inboxes),
/// delays and duplicates (late arrivals landing at later boundaries), it
/// yields exactly the non-empty inboxes, ascending, with the same slices,
/// at pool widths 1 and 8.
#[test]
fn pending_inboxes_yields_exactly_the_non_empty_inboxes_in_pid_order() {
    use parallel_bandwidth::sim::Outbox;

    fn assert_view(m: &BspMachine<u64, u64>, ctx: &str) {
        let want: Vec<(usize, &[u64])> = (0..m.params().p)
            .filter(|&d| !m.pending_inbox(d).is_empty())
            .map(|d| (d, m.pending_inbox(d)))
            .collect();
        let got: Vec<(usize, &[u64])> = m.pending_inboxes().collect();
        assert_eq!(got, want, "{ctx}");
    }

    let p = 256;
    let params = MachineParams::from_gap(p, 8, 4);
    let spec = FaultSpec {
        drop_rate: 0.1,
        duplicate_rate: 0.1,
        delay_rate: 0.2,
        max_delay: 3,
        stall_rate: 0.05,
        ..FaultSpec::none()
    };
    let senders: Vec<usize> = (0..p).step_by(8).collect();
    // Forward every inbox payload once more (until it has made three
    // hops); declared senders also post a fresh one. Every other pid with
    // an empty inbox is a no-op, as the sparse path requires.
    let body = |pid: usize, s: &mut u64, inbox: &[u64], out: &mut Outbox<u64>| {
        for &v in inbox {
            if v % 4 != 3 {
                out.send((pid * 31 + v as usize) % p, v + 1);
            }
        }
        if pid.is_multiple_of(8) {
            *s += 1;
            out.send((pid * 13 + *s as usize) % p, 4 * *s);
        }
    };
    let idle = |_: usize, s: &mut u64, inbox: &[u64], _: &mut Outbox<u64>| {
        *s += inbox.len() as u64;
    };
    for width in [1, 8] {
        let stats = at_width(width, || {
            let mut m: BspMachine<u64, u64> = BspMachine::new(params, |_| 0);
            m.set_delivery_hook(Arc::new(FaultPlan::new(spec, 17)));
            assert_view(&m, "fresh machine");
            for round in 0..4 {
                m.superstep(body);
                assert_view(&m, &format!("width {width}, round {round}, dense"));
                m.superstep_active(&senders, body);
                assert_view(&m, &format!("width {width}, round {round}, sparse"));
                m.superstep_auto(&senders, body);
                assert_view(&m, &format!("width {width}, round {round}, auto"));
                m.superstep_auto(&[], idle);
                assert_view(&m, &format!("width {width}, round {round}, idle"));
            }
            while m.faults_in_flight() > 0 {
                m.superstep_auto(&[], idle);
                assert_view(&m, &format!("width {width}, drain"));
            }
            m.fault_stats()
        });
        assert!(stats.stalled_steps > 0, "no stall retained an inbox");
        assert!(stats.delayed > 0 && stats.duplicated > 0, "{stats:?}");
        assert!(stats.conserved(), "{stats:?}");
    }
}

/// Active-set recovery (PR 5): `run_with_recovery` now routes every
/// superstep through the sparse path when the sender set is small. A
/// single-sender workload on a 64-processor machine whose first attempt is
/// dropped exercises the full loop — ack supersteps whose only senders are
/// the destinations that heard something, idle backoff supersteps with an
/// empty declared set, and a retransmission round that re-activates the
/// otherwise-idle source — and must still deliver everything with a
/// conserved ledger, bit-identically across repeat runs.
#[test]
fn retransmission_rounds_reactivate_idle_senders_on_the_sparse_path() {
    use parallel_bandwidth::sim::DeliveryCtx;

    /// Drops every copy of src 0's flits in superstep 0 only.
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

    let params = MachineParams::from_gap(64, 8, 4);
    // Only processor 0 sends: 6 unit messages. active/p = 1/64, well under
    // the density cutoff, so every send superstep takes the sparse path.
    let wl = parallel_bandwidth::sched::workload::single_hot_sender(64, 6, 0, 21);
    assert_eq!(wl.active_senders(), vec![0]);
    let cfg = RecoveryConfig::default();
    let run = || {
        run_with_recovery(
            &wl,
            &OfflineOptimal,
            params,
            13,
            Some(Arc::new(DropFirstAttempt)),
            &cfg,
        )
    };
    let out = run();
    assert!(out.delivered_all, "retransmission never reached the source");
    assert_eq!(out.rounds, 1);
    assert_eq!(out.resent_flits, wl.n_flits());
    assert_eq!(out.arrival_steps.len() as u64, wl.n_flits());
    assert!(out.fault_stats.conserved());
    // Determinism across repeat runs of the sparse recovery loop.
    let again = run();
    assert_eq!(out.summary, again.summary);
    assert_eq!(out.arrival_steps, again.arrival_steps);
    assert_eq!(out.fault_stats, again.fault_stats);
}

/// Lossy recovery delivers everything for moderate φ and the two fault
/// seeds diverge (the plan actually bites).
#[test]
fn lossy_recovery_delivers_and_seeds_matter() {
    let params = MachineParams::from_gap(64, 8, 8);
    let wl = parallel_bandwidth::sched::workload::uniform_random(64, 16, 3);
    let scheduler = UnbalancedSend::new(0.3);
    let cfg = RecoveryConfig::default();

    let run = |fault_seed: u64| {
        let plan: Arc<dyn DeliveryHook> =
            Arc::new(FaultPlan::new(FaultSpec::drop_only(0.2), fault_seed));
        run_with_recovery(&wl, &scheduler, params, 11, Some(plan), &cfg)
    };
    let a = run(1);
    assert!(a.delivered_all);
    assert!(a.rounds >= 1);
    assert!(a.resent_flits > 0);
    assert!(a.summary.bsp_m_exp > 0.0);

    let b = run(2);
    assert!(b.delivered_all);
    // Different seeds drop different flits: the recovery transcripts differ.
    assert!(
        a.resent_flits != b.resent_flits || a.arrival_steps != b.arrival_steps,
        "seeds 1 and 2 produced identical recoveries"
    );
}

/// Checker-shaped historical regression: a drop pattern whose recovery
/// round lands inside a stalled window. Under seed 0 the first attempt
/// loses one data flit, so round 1 retransmits at superstep 3 — exactly
/// where a scripted [`StallWindow`] silences the sender. The stalled
/// retransmission must cost one *wasted* round (the engine skips the
/// sender's closure; nothing reaches the wire), after which round 2
/// delivers. The protocol may never deadlock, drop the flit on the floor,
/// or misprice the backoff schedule because a round was swallowed whole.
///
/// The timeline is pinned exactly (the plan is seeded and pure), so any
/// change to stall handling, retransmission scheduling, or the backoff
/// accounting shows up as a concrete diff, not a flake.
#[test]
fn retransmission_round_landing_in_a_stalled_window_costs_one_extra_round() {
    let params = MachineParams::from_gap(64, 8, 4);
    let wl = parallel_bandwidth::sched::workload::single_hot_sender(64, 6, 0, 21);
    let cfg = RecoveryConfig::default();
    let run = |stall: Option<StallWindow>| {
        let plan = FaultPlan::new(FaultSpec::drop_only(0.35), 0);
        let plan = match stall {
            Some(w) => plan.with_stall_window(w),
            None => plan,
        };
        run_with_recovery(&wl, &OfflineOptimal, params, 13, Some(Arc::new(plan)), &cfg)
    };

    // Baseline: seed 0 drops one data flit; one round repairs it by step 4.
    let clean = run(None);
    assert!(clean.delivered_all);
    assert_eq!(clean.rounds, 1);
    assert_eq!(clean.resent_flits, 1);
    assert_eq!(clean.arrival_steps, vec![1, 1, 1, 1, 1, 4]);
    assert_eq!(clean.fault_stats.stalled_steps, 0);

    // Timeline with `charge_acks`: send@0, ack@1, backoff@2, retransmit@3.
    // Stall the sender exactly at superstep 3: the round-1 retransmission
    // is swallowed, round 2 (ack@4, backoff@5-6, retransmit@7) repairs it.
    let window = StallWindow::new(0, 3, 1).expect("non-empty window");
    let stalled = run(Some(window));
    assert!(
        stalled.delivered_all,
        "stalled retransmission was lost for good"
    );
    assert!(stalled.fault_stats.conserved(), "{:?}", stalled.fault_stats);
    assert_eq!(stalled.fault_stats.in_flight, 0);
    assert_eq!(stalled.fault_stats.stalled_steps, 1);
    assert_eq!(
        stalled.rounds, 2,
        "the swallowed round must be retried, once"
    );
    // The residual flit is *scheduled* twice: once into the stalled window,
    // once in the round that lands.
    assert_eq!(stalled.resent_flits, 2);
    // Backoff is still priced per started round: 1 + 2, never elided.
    assert_eq!(stalled.backoff_supersteps, 3);
    assert_eq!(stalled.arrival_steps, vec![1, 1, 1, 1, 1, 8]);

    // The whole outcome replays bit-identically.
    let again = run(Some(window));
    assert_eq!(stalled.summary, again.summary);
    assert_eq!(stalled.arrival_steps, again.arrival_steps);
    assert_eq!(stalled.fault_stats, again.fault_stats);
}

// ---------------------------------------------------------------------------
// Sample sort under the fault zoo (PR 8). Sample sort is lockstep — every
// message matters — so its recovery driver rolls back on *any* ledger
// movement, not just crashes. The zoo rates here are scaled to the
// algorithm's per-superstep message volume (the exchange carries n
// messages at once), keeping the per-step clean probability high enough
// for the geometric retry to converge well inside the rollback budget.
// ---------------------------------------------------------------------------

/// The scaled fault-zoo matrix sample sort soaks under: every fault class
/// at once in three intensities, plus a crash-dominated mix.
fn sample_sort_zoo() -> Vec<FaultSpec> {
    let full = |scale: f64| FaultSpec {
        drop_rate: 0.004 * scale,
        duplicate_rate: 0.003 * scale,
        delay_rate: 0.004 * scale,
        max_delay: 2,
        displace_rate: 0.003 * scale,
        max_displacement: 2,
        stall_rate: 0.01 * scale,
        crash_rate: 0.005 * scale,
        max_crash_len: 2,
    };
    vec![
        full(0.25),
        full(0.5),
        full(1.0),
        FaultSpec {
            crash_rate: 0.02,
            max_crash_len: 2,
            drop_rate: 0.004,
            ..FaultSpec::none()
        },
    ]
}

/// Sample sort under `run_with_checkpointed_recovery` across the whole
/// zoo matrix: the output is still the sorted input, the monotone ledger
/// conserves, and the rollback bound holds.
#[test]
fn sample_sort_recovers_sorted_under_the_full_zoo() {
    use parallel_bandwidth::algos::sample_sort::{
        keyset, run_with_checkpointed_recovery, KeyDist, SampleSortConfig, Sampling,
    };
    use parallel_bandwidth::sched::CheckpointConfig;

    let p = 8;
    let per = 8;
    let params = MachineParams::from_gap(p, 4, 4);
    let ck = CheckpointConfig {
        interval: 1,
        charge_state_io: false,
        max_rollbacks: 200,
    };
    for (i, spec) in sample_sort_zoo().into_iter().enumerate() {
        for s in 0..3u64 {
            let seed = (i as u64) * 100 + s * 13 + 1;
            let inputs = keyset(KeyDist::ALL[(i + s as usize) % 4], p * per, seed);
            let cfg = SampleSortConfig {
                ratio: 4,
                sampling: Sampling::Seeded,
                seed,
            };
            let hook: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(spec, seed));
            let out = run_with_checkpointed_recovery(params, &inputs, cfg, hook, &ck);
            let ctx = format!("spec {spec:?} seed {seed}");
            assert!(!out.gave_up, "{ctx}: rollback budget exhausted");
            assert!(out.ok, "{ctx}: recovered output is not the sorted input");
            assert!(out.fault_stats.conserved(), "{ctx}: {:?}", out.fault_stats);
            assert!(out.rollbacks <= 200, "{ctx}");
            // Replays happen iff something was rolled back.
            assert_eq!(out.replayed_supersteps > 0, out.rollbacks > 0, "{ctx}");
        }
    }
}

/// A hook hot enough that no clean replay exists: the driver must give up
/// at its rollback bound instead of looping forever, and the ledger must
/// still conserve.
#[test]
fn sample_sort_recovery_gives_up_at_the_bound_under_saturation_loss() {
    use parallel_bandwidth::algos::sample_sort::{
        keyset, run_with_checkpointed_recovery, KeyDist, SampleSortConfig,
    };
    use parallel_bandwidth::sched::CheckpointConfig;

    let p = 8;
    let params = MachineParams::from_gap(p, 4, 4);
    let inputs = keyset(KeyDist::Uniform, p * 8, 5);
    let ck = CheckpointConfig {
        interval: 1,
        charge_state_io: false,
        max_rollbacks: 8,
    };
    let hook: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(FaultSpec::drop_only(0.9), 5));
    let out =
        run_with_checkpointed_recovery(params, &inputs, SampleSortConfig::default(), hook, &ck);
    assert!(out.gave_up);
    assert!(!out.ok);
    assert_eq!(out.rollbacks, 8);
    assert!(out.fault_stats.conserved(), "{:?}", out.fault_stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The *raw* (no-recovery) sample sort under an arbitrary seeded fault
    /// plan: the run may be wrong, but the ledger always conserves and the
    /// same seed replays to the identical ledger and output.
    #[test]
    fn raw_sample_sort_under_any_plan_conserves_and_replays(
        spec in spec_strategy(),
        seed in any::<u64>(),
    ) {
        use parallel_bandwidth::algos::sample_sort::{
            keyset, run_opts, KeyDist, SampleSortConfig,
        };
        let p = 8;
        let params = MachineParams::from_gap(p, 4, 4);
        let inputs = keyset(KeyDist::Zipf, p * 8, seed);
        let cfg = SampleSortConfig::default();
        let hook: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(spec, seed));
        let a = run_opts(params, &inputs, cfg, false, Some(hook.clone()), None);
        prop_assert!(a.fault_stats.conserved(), "ledger {:?}", a.fault_stats);
        let hook2: Arc<dyn DeliveryHook> = Arc::new(FaultPlan::new(spec, seed));
        let b = run_opts(params, &inputs, cfg, false, Some(hook2), None);
        prop_assert_eq!(a.fault_stats, b.fault_stats);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.summary, b.summary);
    }
}
