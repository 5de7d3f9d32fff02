//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *arbitrary* workloads and parameters, not just the curated suites.

use parallel_bandwidth::models::{div_ceil, MachineParams, PenaltyFn};
use parallel_bandwidth::sched::exec::run_schedule_on_bsp;
use parallel_bandwidth::sched::flits::UnbalancedFlitSend;
use parallel_bandwidth::sched::schedulers::{
    EagerSend, OfflineOptimal, Scheduler, UnbalancedConsecutiveSend, UnbalancedGranularSend,
    UnbalancedSend,
};
use parallel_bandwidth::sched::workload::Msg;
use parallel_bandwidth::sched::{evaluate_schedule, validate_schedule, Workload};
use proptest::prelude::*;

/// An arbitrary unit-message workload over `p` processors.
fn unit_workload(p: usize, max_msgs: usize) -> impl Strategy<Value = Workload> {
    proptest::collection::vec(proptest::collection::vec(0..p, 0..max_msgs), p..=p)
        .prop_map(Workload::from_dests)
}

/// An arbitrary variable-length workload.
fn flit_workload(p: usize, max_msgs: usize, max_len: u64) -> impl Strategy<Value = Workload> {
    proptest::collection::vec(
        proptest::collection::vec((0..p, 1..=max_len), 0..max_msgs),
        p..=p,
    )
    .prop_map(|sends| {
        Workload::new(
            sends
                .into_iter()
                .map(|l| l.into_iter().map(|(dest, len)| Msg { dest, len }).collect())
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler produces a valid schedule (shape + one flit per
    /// processor per step) on arbitrary unit workloads.
    #[test]
    fn all_schedulers_produce_valid_schedules(
        wl in unit_workload(16, 20),
        m in 1usize..16,
        seed in 0u64..1000,
    ) {
        for sched in [
            UnbalancedSend::new(0.2).schedule(&wl, m, seed),
            UnbalancedConsecutiveSend::new(0.2).schedule(&wl, m, seed),
            UnbalancedGranularSend::default().schedule(&wl, m, seed),
            OfflineOptimal.schedule(&wl, m, seed),
            EagerSend.schedule(&wl, m, seed),
        ] {
            prop_assert!(validate_schedule(&sched, &wl).is_ok());
        }
    }

    /// The offline schedule achieves the global lower bound exactly and
    /// never overloads a step.
    #[test]
    fn offline_is_optimal_and_feasible(
        wl in unit_workload(16, 20),
        m in 1usize..16,
    ) {
        let sched = OfflineOptimal.schedule(&wl, m, 0);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        prop_assert!(cost.no_slot_exceeds_m);
        let n = wl.n_flits();
        if n > 0 {
            let t = div_ceil(n, m as u64).max(wl.xbar());
            prop_assert_eq!(cost.makespan, t);
        }
    }

    /// No schedule can beat the offline optimum in *model time*: a schedule
    /// may compress its makespan by overloading steps, but the penalty
    /// charge `c_m ≥ n/m` and `h ≥ x̄` make `max(h, c_m)` a true lower
    /// bound matched by the offline schedule.
    #[test]
    fn no_scheduler_beats_offline(
        wl in unit_workload(12, 16),
        m in 1usize..12,
        seed in 0u64..100,
    ) {
        let opt = evaluate_schedule(&OfflineOptimal.schedule(&wl, m, 0), &wl, m, PenaltyFn::Exponential);
        for sched in [
            UnbalancedSend::new(0.2).schedule(&wl, m, seed),
            EagerSend.schedule(&wl, m, seed),
        ] {
            let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
            prop_assert!(cost.model_time + 1.0 >= opt.makespan as f64);
        }
    }

    /// The exponential charge never undercuts the linear one, on any
    /// schedule of any workload (the §2 relation f_m^u ≥ f_m^ℓ lifted to
    /// whole runs).
    #[test]
    fn exponential_dominates_linear_on_runs(
        wl in unit_workload(12, 16),
        m in 1usize..12,
        seed in 0u64..100,
    ) {
        let sched = EagerSend.schedule(&wl, m, seed);
        let exp = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        let lin = evaluate_schedule(&sched, &wl, m, PenaltyFn::Linear);
        prop_assert!(exp.c_m >= lin.c_m - 1e-9);
        // And linear c_m ≥ n/m always (it is exactly the work of moving n
        // messages at m per step, plus idle-slot rounding).
        prop_assert!(lin.c_m + 1e-9 >= wl.n_flits() as f64 / m as f64);
    }

    /// Flit schedules are valid and deliver everything when executed on
    /// the real engine.
    #[test]
    fn flit_schedules_execute_end_to_end(
        wl in flit_workload(8, 6, 5),
        seed in 0u64..100,
    ) {
        let m = 4;
        let sched = UnbalancedFlitSend::new(0.3).schedule(&wl, m, seed);
        prop_assert!(validate_schedule(&sched, &wl).is_ok());
        let params = MachineParams::from_bandwidth(8, m, 2);
        let exec = run_schedule_on_bsp(&wl, &sched, params);
        let total: usize = exec.delivered.iter().map(Vec::len).sum();
        prop_assert_eq!(total as u64, wl.n_flits());
    }

    /// Analytic schedule pricing agrees with the engine's metering.
    #[test]
    fn analytic_and_engine_profiles_agree(
        wl in unit_workload(8, 10),
        seed in 0u64..100,
    ) {
        let m = 4;
        let sched = UnbalancedSend::new(0.2).schedule(&wl, m, seed);
        let params = MachineParams::from_bandwidth(8, m, 2);
        let exec = run_schedule_on_bsp(&wl, &sched, params);
        let analytic = parallel_bandwidth::sched::schedule::to_profile(&sched, &wl);
        prop_assert_eq!(&exec.profile.injections, &analytic.injections);
        prop_assert_eq!(exec.profile.total_messages, analytic.total_messages);
    }

    /// On any recorded trace event, the exponential BSP(m) penalty never
    /// undercuts the linear one: the event's `breakdown.bandwidth` (the exp
    /// term) dominates the linear `c_m` recomputed from the same recorded
    /// injection histogram.
    #[test]
    fn traced_exponential_penalty_dominates_linear(
        wl in unit_workload(8, 10),
        seed in 0u64..100,
    ) {
        use std::sync::Arc;
        use parallel_bandwidth::trace::{RecordingSink, TraceSink};
        let m = 4;
        let params = MachineParams::from_bandwidth(8, m, 2);
        let sched = UnbalancedSend::new(0.2).schedule(&wl, m, seed);
        let sink = Arc::new(RecordingSink::new());
        let audit = parallel_bandwidth::sched::schedule::audit_schedule(
            &sched, &wl, params, "prop",
        );
        sink.record(audit);
        for ev in sink.take() {
            let lin = PenaltyFn::Linear.total_charge(&ev.profile.injections, m);
            let exp = PenaltyFn::Exponential.total_charge(&ev.profile.injections, m);
            prop_assert!(ev.breakdown.bandwidth >= lin - 1e-9);
            prop_assert!((ev.breakdown.bandwidth - exp).abs() < 1e-9);
            // And the per-slot decomposition is consistent with the total.
            let slot_sum: f64 = ev.slot_penalties.iter().sum();
            prop_assert!((slot_sum - exp).abs() < 1e-9 * exp.max(1.0));
        }
    }

    /// Tracing is observation, not intervention: running the same program
    /// on a machine with a `NullSink` and one with a `RecordingSink` yields
    /// bit-identical profiles and costs.
    #[test]
    fn null_and_recording_sinks_observe_identical_runs(
        wl in unit_workload(8, 10),
        seed in 0u64..100,
    ) {
        use std::sync::Arc;
        use parallel_bandwidth::trace::{NullSink, RecordingSink, TraceSink};
        let m = 4;
        let params = MachineParams::from_bandwidth(8, m, 2);
        let sched = UnbalancedSend::new(0.2).schedule(&wl, m, seed);
        let sinks: [Arc<dyn TraceSink>; 2] =
            [Arc::new(NullSink), Arc::new(RecordingSink::new())];
        let mut outcomes = Vec::new();
        for sink in sinks {
            let mut machine: parallel_bandwidth::sim::BspMachine<(), (u32, u32, u32)> =
                parallel_bandwidth::sim::BspMachine::new(params, |_| ());
            machine.set_sink(sink);
            machine.superstep(|pid, _s, _in, out| {
                for (k, (msg, &start)) in
                    wl.msgs(pid).iter().zip(&sched.starts[pid]).enumerate()
                {
                    for f in 0..msg.len {
                        out.send_at(msg.dest, (pid as u32, k as u32, f as u32), start + f);
                    }
                }
            });
            let summary = parallel_bandwidth::sim::CostSummary::price(
                params, machine.profiles(),
            );
            outcomes.push((machine.profiles().to_vec(), summary));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0);
        prop_assert_eq!(outcomes[0].1.bsp_m_exp.to_bits(), outcomes[1].1.bsp_m_exp.to_bits());
        prop_assert_eq!(outcomes[0].1.bsp_g.to_bits(), outcomes[1].1.bsp_g.to_bits());
        prop_assert_eq!(outcomes[0].1.qsm_m_exp.to_bits(), outcomes[1].1.qsm_m_exp.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The machine sorts agree with the std sort on arbitrary inputs.
    #[test]
    fn machine_sorts_agree_with_std(
        keys in proptest::collection::vec(-1000i64..1000, 64..=64),
    ) {
        let mp = MachineParams::from_gap(16, 4, 2);
        let q = parallel_bandwidth::algos::sort::qsm_m(mp, &keys);
        prop_assert!(q.ok);
        let b = parallel_bandwidth::algos::sort::bsp_m(mp, &keys);
        prop_assert!(b.ok);
    }

    /// Columnsort equals std sort on arbitrary inputs.
    #[test]
    fn columnsort_agrees_with_std(
        keys in proptest::collection::vec(any::<i32>(), 0..200),
    ) {
        let keys: Vec<i64> = keys.into_iter().map(i64::from).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(parallel_bandwidth::algos::columnsort::columnsort(&keys), expect);
    }

    /// The CRCW h-relation realizations deliver exactly the sent multiset.
    #[test]
    fn hrelation_realizations_deliver(
        sends in proptest::collection::vec(
            proptest::collection::vec((0usize..6, -50i64..50), 0..5),
            6..=6,
        ),
    ) {
        use parallel_bandwidth::pram::hrelation;
        let teams = hrelation::realize_teams(&sends);
        prop_assert!(hrelation::check_delivery(&sends, &teams));
        let chain = hrelation::realize_chainsort(&sends);
        prop_assert!(hrelation::check_delivery(&sends, &chain));
        let dense = hrelation::realize_dense(&sends, parallel_bandwidth::pram::primitives::Fidelity::Charged);
        prop_assert!(hrelation::check_delivery(&sends, &dense));
    }

    /// PRAM list ranking matches the sequential reference on random lists.
    #[test]
    fn list_ranking_matches_sequential(n in 1usize..80, seed in 0u64..50) {
        let list = parallel_bandwidth::algos::list_ranking::random_list(n, seed);
        let run = parallel_bandwidth::algos::list_ranking::pram_list_ranking(&list, seed ^ 7);
        prop_assert!(run.ok);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The §4 emulation: re-laying-out any profile's injections to ≤ m per
    /// step never increases the BSP(m) price beyond the BSP(g) price of
    /// the original, at matched aggregate bandwidth — for *full-rate*
    /// profiles (every processor sends in every occupied step), which is
    /// the shape g-model programs produce.
    #[test]
    fn emulation_never_costs_more_than_g(
        h in 1u64..12,
        m_exp in 1u32..5,
    ) {
        use parallel_bandwidth::models::emulation;
        use parallel_bandwidth::models::ProfileBuilder;
        let m = 1usize << m_exp; // 2..16
        let p = (m as u64) * 8; // g = 8
        let g = 8u64;
        let mut b = ProfileBuilder::new();
        b.record_traffic(h, h);
        for t in 0..h {
            b.record_injections(t, p);
        }
        let prof = b.build();
        prop_assert!(emulation::emulation_preserves_cost(&prof, g, m, 4));
    }

    /// Emulated profiles conserve messages and never exceed m per step.
    #[test]
    fn emulation_conserves_messages(
        loads in proptest::collection::vec(0u64..100, 1..30),
        m in 1usize..16,
    ) {
        use parallel_bandwidth::models::emulation::emulate_on_m;
        use parallel_bandwidth::models::ProfileBuilder;
        let mut b = ProfileBuilder::new();
        for (t, &l) in loads.iter().enumerate() {
            b.record_injections(t as u64, l);
        }
        let prof = b.build();
        let em = emulate_on_m(&prof, m);
        prop_assert_eq!(em.injections.iter().sum::<u64>(), loads.iter().sum::<u64>());
        prop_assert!(em.injections.iter().all(|&x| x <= m as u64));
    }

    /// QSM request schedules are valid and the engine read values check
    /// out, for arbitrary request batches.
    #[test]
    fn qsm_request_batches_execute(
        reqs in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..10),
            8..=8,
        ),
    ) {
        use parallel_bandwidth::sched::qsm_sched::{run_unbalanced_reads, RequestBatch};
        let params = MachineParams::from_bandwidth(8, 4, 2);
        let mem: Vec<i64> = (0..16).map(|i| 100 + i).collect();
        let batch = RequestBatch::new(reqs, 16);
        let out = run_unbalanced_reads(params, &mem, &batch, 0.3, 3);
        prop_assert!(out.ok);
    }

    /// The breakdown's dominant term really is the max: re-deriving the
    /// BSP(m) cost from the breakdown terms matches the cost model.
    #[test]
    fn breakdown_consistent_with_cost_model(
        work in 0u64..1000,
        sent in 0u64..50,
        load in 0u64..200,
    ) {
        use parallel_bandwidth::models::breakdown::Breakdown;
        use parallel_bandwidth::models::{BspM, CostModel, PenaltyFn, ProfileBuilder};
        let mp = MachineParams::from_gap(64, 8, 16);
        let mut b = ProfileBuilder::new();
        b.record_work(work).record_traffic(sent, sent);
        if load > 0 {
            b.record_injections(0, load);
        }
        let prof = b.build();
        let bd = Breakdown::of(mp, &prof);
        let model = BspM { m: mp.m, l: mp.l, penalty: PenaltyFn::Exponential };
        let expect = bd.work.max(bd.global_traffic).max(bd.bandwidth).max(bd.latency);
        prop_assert!((model.superstep_cost(&prof) - expect).abs() < 1e-9);
    }

    /// Prefix sums on the QSM(m) agree with the sequential scan for
    /// arbitrary inputs.
    #[test]
    fn prefix_agrees_with_sequential(
        xs in proptest::collection::vec(-100i64..100, 32..=32),
    ) {
        let mp = MachineParams::from_gap(16, 4, 2);
        let r = parallel_bandwidth::algos::prefix::qsm_m(mp, &xs);
        prop_assert!(r.ok);
    }

    /// The randomized h-relation realization delivers for arbitrary
    /// relations and seeds.
    #[test]
    fn randomized_hrelation_delivers(
        sends in proptest::collection::vec(
            proptest::collection::vec((0usize..5, -20i64..20), 0..4),
            5..=5,
        ),
        seed in 0u64..64,
    ) {
        use parallel_bandwidth::pram::{hrelation, hrelation_rand};
        let out = hrelation_rand::realize_randomized(&sends, seed);
        prop_assert!(hrelation::check_delivery(&sends, &out));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense vs. active-set execution equivalence (PR 5): on random
    /// unbalanced workloads (1–5% of processors send, random fan-out,
    /// faults injected), the dense all-processor superstep and the
    /// active-set superstep must produce byte-identical recorded traces,
    /// fault ledgers and final states — at pool widths 1 and 8 alike.
    #[test]
    fn sparse_and_dense_superstep_paths_are_byte_identical(
        big_p in any::<bool>(),
        sender_pct in 1usize..=5,
        max_fanout in 1usize..6,
        seed in 0u64..1000,
        drop_rate in 0.0..0.2f64,
        delay_rate in 0.0..0.2f64,
    ) {
        use parallel_bandwidth::prelude::{FaultPlan, FaultSpec, FaultStats};
        use parallel_bandwidth::sim::{BspMachine, Outbox};
        use parallel_bandwidth::trace::RecordingSink;
        use rayon::ThreadPoolBuilder;
        use std::sync::Arc;

        let p = if big_p { 1024 } else { 64 };
        let n_senders = ((p * sender_pct) / 100).max(1);
        // A seed-scrambled sender set (the stride is odd, p a power of two,
        // so the map is a bijection) with per-sender random fan-out.
        let senders: Vec<usize> = (0..n_senders)
            .map(|i| (i * 131 + seed as usize) % p)
            .collect();
        let sends: Vec<(usize, Vec<usize>)> = senders
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                let fanout = 1 + (i + seed as usize) % max_fanout;
                let dests = (0..fanout).map(|j| (src * 7 + j * 13 + 1) % p).collect();
                (src, dests)
            })
            .collect();
        let spec = FaultSpec {
            drop_rate,
            delay_rate,
            max_delay: 3,
            ..FaultSpec::none()
        };

        let run = |sparse: bool, width: usize| -> (Vec<String>, FaultStats, Vec<u64>) {
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool construction is infallible in the shim")
                .install(|| {
                    let params = MachineParams::from_gap(p, 8, 4);
                    let sink = Arc::new(RecordingSink::new());
                    let mut machine: BspMachine<u64, u64> = BspMachine::new(params, |_| 0);
                    machine.set_sink(sink.clone()).set_trace_label("dense-vs-sparse");
                    machine.set_delivery_hook(Arc::new(FaultPlan::new(spec, seed ^ 0xA5)));
                    let send = |pid: usize, s: &mut u64, inbox: &[u64], out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                        if let Some((_, dests)) = sends.iter().find(|(src, _)| *src == pid) {
                            for &d in dests {
                                out.send(d, (pid + d) as u64);
                            }
                        }
                    };
                    let drain = |_pid: usize, s: &mut u64, inbox: &[u64], _out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                    };
                    // Same superstep count on both paths: one send step,
                    // then enough idle steps to cover max_delay plus the
                    // final retained-inbox consumption.
                    if sparse {
                        machine.superstep_active(&senders, send);
                        for _ in 0..5 {
                            machine.superstep_active(&[], drain);
                        }
                    } else {
                        machine.superstep(send);
                        for _ in 0..5 {
                            machine.superstep(drain);
                        }
                    }
                    let events: Vec<String> =
                        sink.take().iter().map(|e| e.to_json()).collect();
                    (events, machine.fault_stats(), machine.states().to_vec())
                })
        };

        let baseline = run(false, 1);
        for (sparse, width) in [(true, 1), (false, 8), (true, 8)] {
            let other = run(sparse, width);
            prop_assert_eq!(
                &baseline, &other,
                "sparse={} width={} diverged from the dense 1-thread run",
                sparse, width
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// φ → 1⁻: at extreme loss rates (0.9, 0.95, 0.99) the recovery
    /// protocol must stay *bounded* — rounds never exceed `max_rounds`,
    /// idle time is exactly the bounded-exponential-backoff contract
    /// `Σ_{r=1..rounds} min(base·2^{r−1}, cap)` (drop-only plans leave
    /// nothing in the network to drain, so equality holds even when the
    /// protocol gives up), and a run that did not deliver everything gave
    /// up only after exhausting every round. Percentile accessors must
    /// return `None` on out-of-range `q`, never panic, even on these
    /// degenerate arrival distributions.
    #[test]
    fn recovery_stays_bounded_as_phi_approaches_one(
        phi_idx in 0usize..3,
        fault_seed in any::<u64>(),
        run_seed in 0u64..100,
    ) {
        use parallel_bandwidth::prelude::{FaultPlan, FaultSpec};
        use parallel_bandwidth::sched::recovery::run_with_recovery;
        use parallel_bandwidth::sched::schedulers::OfflineOptimal;
        use parallel_bandwidth::sched::{workload, RecoveryConfig};
        use std::sync::Arc;

        let phi = [0.9, 0.95, 0.99][phi_idx];
        let params = MachineParams::from_gap(8, 4, 4);
        let wl = workload::uniform_random(8, 3, 5);
        let cfg = RecoveryConfig::default();
        let plan = Arc::new(FaultPlan::new(FaultSpec::drop_only(phi), fault_seed));
        let out = run_with_recovery(&wl, &OfflineOptimal, params, run_seed, Some(plan), &cfg);

        prop_assert!(out.rounds <= cfg.max_rounds);
        if !out.delivered_all {
            prop_assert_eq!(out.rounds, cfg.max_rounds, "gave up early");
        }
        // The backoff contract, exactly — a drop-only network has no
        // delayed payloads, so every idle superstep is scheduled backoff.
        let contract: u64 = (1..=out.rounds)
            .map(|r| {
                cfg.backoff_base
                    .checked_shl(r - 1)
                    .unwrap_or(u32::MAX)
                    .min(cfg.backoff_cap) as u64
            })
            .sum();
        prop_assert_eq!(out.backoff_supersteps, contract);
        prop_assert!(out.fault_stats.conserved(), "ledger {:?}", out.fault_stats);

        // Out-of-range quantiles: None, not a panic.
        prop_assert_eq!(out.arrival_percentile(-0.01), None);
        prop_assert_eq!(out.arrival_percentile(1.01), None);
        prop_assert_eq!(out.arrival_percentile(f64::NAN), None);
        let median = out.arrival_percentile(0.5);
        prop_assert_eq!(median.is_some(), !out.arrival_steps.is_empty());
    }

    /// The same φ → 1⁻ extremes through the interval router: the
    /// `StabilityTrace` percentile accessor is total on any `q` even when
    /// retransmission load `α/(1−φ)` swamps the router.
    #[test]
    fn stability_trace_percentiles_are_total_at_extreme_phi(
        phi_idx in 0usize..3,
        fault_seed in any::<u64>(),
    ) {
        use parallel_bandwidth::adversary::adversary::{AqtParams, SteadyAdversary};
        use parallel_bandwidth::adversary::dynamic::AlgorithmB;

        let phi = [0.9, 0.95, 0.99][phi_idx];
        let algo = AlgorithmB { p: 8, m: 4, w: 16, eps: 0.3, seed: 5 };
        let aqt = AqtParams { w: 16, alpha: 2.0, beta: 0.5 };
        let mut adv = SteadyAdversary::new(8, aqt);
        let tr = algo.run_with_faults(&mut adv, 12, phi, fault_seed);

        prop_assert_eq!(tr.delay_percentile(-0.1), None);
        prop_assert_eq!(tr.delay_percentile(1.1), None);
        prop_assert_eq!(tr.delay_percentile(f64::NAN), None);
        // In-range q never panics; Some requires a completed batch.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let _ = tr.delay_percentile(q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `PenaltyFn::total_charge` is the left-to-right sum of `charge`,
    /// bit for bit, and an empty histogram costs exactly `+0.0` (a bare
    /// `.sum()` would give `-0.0`, which serializes differently). Both
    /// globally-limited cost models price their `c_m` term through it.
    #[test]
    fn total_charge_is_the_ordered_sum_of_charge(
        m in 1usize..128,
        linear in any::<bool>(),
        draws in proptest::collection::vec(any::<u64>(), 0..=64),
    ) {
        use parallel_bandwidth::models::{BspM, QsmM, SuperstepProfile};

        let penalty = if linear { PenaltyFn::Linear } else { PenaltyFn::Exponential };
        // Loads span 0..=16·m: empty steps, steps within m and overloads.
        let h: Vec<u64> = draws.iter().map(|&d| d % (16 * m as u64 + 1)).collect();
        // Checked on every case, since a random draw is rarely empty.
        prop_assert_eq!(penalty.total_charge(&[], m).to_bits(), 0.0f64.to_bits());
        let total = penalty.total_charge(&h, m);
        if !h.is_empty() {
            let sum: f64 = h.iter().map(|&l| penalty.charge(l, m)).sum();
            prop_assert_eq!(total.to_bits(), sum.to_bits());
        }
        let profile = SuperstepProfile { injections: h, ..SuperstepProfile::default() };
        prop_assert_eq!(BspM { m, l: 1, penalty }.c_m(&profile).to_bits(), total.to_bits());
        prop_assert_eq!(QsmM { m, penalty }.c_m(&profile).to_bits(), total.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint → restore must round-trip [`BspMachine::canonical_hash`]
    /// bit-exactly on arbitrary faulty runs — dense and active-set
    /// execution paths alike, at pool widths 1 and 8. The snapshot is the
    /// recovery driver's rollback target; any state it fails to capture
    /// (retained inboxes, the pending network, the ledger) would silently
    /// fork the replayed timeline.
    #[test]
    fn checkpoint_restore_round_trips_canonical_hash(
        sender_pct in 1usize..=5,
        max_fanout in 1usize..6,
        seed in 0u64..1000,
        drop_rate in 0.0..0.2f64,
        delay_rate in 0.0..0.2f64,
    ) {
        use parallel_bandwidth::prelude::{FaultPlan, FaultSpec};
        use parallel_bandwidth::sim::{BspMachine, Outbox};
        use rayon::ThreadPoolBuilder;
        use std::sync::Arc;

        let p = 64usize;
        let n_senders = ((p * sender_pct) / 100).max(1);
        let senders: Vec<usize> = (0..n_senders)
            .map(|i| (i * 131 + seed as usize) % p)
            .collect();
        let spec = FaultSpec {
            drop_rate,
            delay_rate,
            max_delay: 3,
            ..FaultSpec::none()
        };

        let run = |sparse: bool, width: usize| -> (u64, u64) {
            let senders = senders.clone();
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool construction is infallible in the shim")
                .install(|| {
                    let params = MachineParams::from_gap(p, 8, 4);
                    let mut m: BspMachine<u64, u64> = BspMachine::new(params, |_| 0);
                    m.set_delivery_hook(Arc::new(FaultPlan::new(spec, seed ^ 0x5A)));
                    // Captures only by reference / `Copy`, so `body` is
                    // itself `Copy` and can feed every superstep below.
                    let senders = &senders;
                    let body = |pid: usize,
                                s: &mut u64,
                                inbox: &[u64],
                                out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                        if senders.contains(&pid) {
                            for j in 0..(1 + (pid + seed as usize) % max_fanout) {
                                out.send((pid * 7 + j * 13 + 1) % p, (pid + j) as u64);
                            }
                        }
                    };
                    let step = |m: &mut BspMachine<u64, u64>| {
                        if sparse {
                            let active: Vec<usize> = (0..p).collect();
                            m.superstep_active(&active, body);
                        } else {
                            m.superstep(body);
                        }
                    };
                    // Dirty every snapshot dimension: two faulty supersteps
                    // leave retained inboxes, pending delays and a ledger.
                    step(&mut m);
                    step(&mut m);
                    let ckpt = m.checkpoint();
                    let at_ckpt = m.canonical_hash();
                    // Diverge, then restore: the hash must come back bit-
                    // exactly, ledger included.
                    step(&mut m);
                    step(&mut m);
                    let diverged = m.canonical_hash();
                    m.restore(&ckpt);
                    prop_assert_eq!(m.canonical_hash(), at_ckpt, "restore lost state");
                    prop_assert_eq!(m.fault_stats(), ckpt.fault_stats());
                    // Replaying the diverged future from the snapshot
                    // reproduces its fingerprint — restore is a true rewind.
                    step(&mut m);
                    step(&mut m);
                    prop_assert_eq!(m.canonical_hash(), diverged, "replay forked");
                    (at_ckpt, diverged)
                })
        };

        let baseline = run(false, 1);
        for (sparse, width) in [(true, 1), (false, 8), (true, 8)] {
            prop_assert_eq!(
                baseline,
                run(sparse, width),
                "sparse={} width={} fingerprints diverged from dense width-1",
                sparse,
                width
            );
        }
    }

    /// φ = 0, crash-free: a checkpointed recovery run (state I/O charging
    /// off) must be *byte-identical* to the plain recovery run — same
    /// summary, profiles, arrival steps, ledger, and the same rendered
    /// trace stream. Checkpointing must be a pure observer until a crash
    /// actually happens.
    #[test]
    fn crash_free_checkpointing_is_byte_identical_to_none(
        p_idx in 0usize..3,
        fanout in 1u64..5,
        interval in 1u64..5,
        run_seed in 0u64..100,
    ) {
        use parallel_bandwidth::sched::schedulers::OfflineOptimal;
        use parallel_bandwidth::sched::{
            run_with_checkpointed_recovery_to, run_with_recovery_to, workload,
            CheckpointConfig, RecoveryConfig,
        };
        use parallel_bandwidth::trace::RecordingSink;
        use std::sync::Arc;

        let p = [8, 16, 64][p_idx];
        let params = MachineParams::from_gap(p, 4, 4);
        let wl = workload::uniform_random(p, fanout, 5);
        let cfg = RecoveryConfig::default();

        let plain_sink = Arc::new(RecordingSink::new());
        let plain = run_with_recovery_to(
            plain_sink.clone(), &wl, &OfflineOptimal, params, run_seed, None, &cfg,
        );
        let ck_sink = Arc::new(RecordingSink::new());
        let ck = run_with_checkpointed_recovery_to(
            ck_sink.clone(),
            &wl,
            &OfflineOptimal,
            params,
            run_seed,
            None,
            &cfg,
            &CheckpointConfig { interval, charge_state_io: false, ..CheckpointConfig::default() },
        );

        prop_assert_eq!(ck.rollbacks, 0);
        prop_assert!(!ck.gave_up);
        prop_assert_eq!(ck.replayed_supersteps, 0);
        prop_assert_eq!(ck.recovery.summary, plain.summary);
        prop_assert_eq!(&ck.recovery.profiles, &plain.profiles);
        prop_assert_eq!(&ck.recovery.arrival_steps, &plain.arrival_steps);
        prop_assert_eq!(ck.recovery.fault_stats, plain.fault_stats);
        // With charging off there is no synthesized overhead at all, so
        // the totals collapse onto the plain run's summary.
        prop_assert_eq!(ck.total, plain.summary);
        let plain_jsonl: Vec<String> =
            plain_sink.take().iter().map(|e| e.to_json()).collect();
        let ck_jsonl: Vec<String> =
            ck_sink.take().iter().map(|e| e.to_json()).collect();
        prop_assert_eq!(plain_jsonl, ck_jsonl, "trace streams diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The [`FrontierMask`]'s two-level iteration *is* the sorted-Vec
    /// frontier (PR 10): for arbitrary insertion multisets — duplicates,
    /// out of order, re-used across epoch resets — `iter`, `count`,
    /// `push_to` and the word stream all agree with the sorted, deduped
    /// `Vec` reference, and the empty and full frontiers come out exact at
    /// every universe size (including the 64/65 word-boundary straddle the
    /// `p_extra` offset forces).
    #[test]
    fn frontier_mask_iteration_equals_sorted_vec(
        p_extra in 0usize..=6,
        raw in proptest::collection::vec(0usize..512, 0..=400),
        rounds in 1usize..4,
    ) {
        use parallel_bandwidth::sim::FrontierMask;
        // 62..=68 straddles the one-word/two-word boundary exactly.
        let p = 62 + p_extra;
        let mut mask = FrontierMask::new(p);
        for _ in 0..rounds {
            // Same mask across rounds: `clear` is an epoch bump, so stale
            // bits from earlier rounds must never leak into this one.
            mask.clear();
            let inserted: Vec<usize> = raw.iter().map(|i| i % p).collect();
            for &i in &inserted {
                mask.insert(i);
            }
            let mut want = inserted;
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(mask.iter().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(mask.count(), want.len());
            prop_assert_eq!(mask.is_empty(), want.is_empty());
            let mut pushed = Vec::new();
            mask.push_to(&mut pushed);
            prop_assert_eq!(pushed, want.clone());
            for i in 0..p {
                prop_assert_eq!(mask.contains(i), want.binary_search(&i).is_ok());
            }
        }
        // The empty and full frontiers, exactly.
        mask.clear();
        prop_assert!(mask.iter().next().is_none());
        prop_assert_eq!(mask.count(), 0);
        for i in 0..p {
            mask.insert(i);
        }
        prop_assert_eq!(mask.iter().collect::<Vec<_>>(), (0..p).collect::<Vec<_>>());
        prop_assert_eq!(mask.count(), p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mask-discovered vs declared-Vec vs dense execution (PR 10): at *any*
    /// frontier density — empty, a handful, exactly the word boundary,
    /// full — three ways of running the same program must be byte-identical
    /// (trace stream, `canonical_hash`, final states), at pool widths 1 and
    /// 8 alike:
    ///
    /// 1. dense `superstep` every step,
    /// 2. `superstep_active` with the frontier *declared* as the sorted
    ///    `Vec` the test computes by hand, and
    /// 3. `superstep_active(&[])` after the send step, so the frontier is
    ///    discovered purely by iterating the inbox [`FrontierMask`], and
    /// 4. `superstep_auto`, which lets the engine pick the path per
    ///    superstep.
    ///
    /// Modes 2 and 3 agreeing is the engine-level statement that mask
    /// iteration ≡ the sorted-Vec frontier; modes 1 and 4 agreeing pin the
    /// density rule's freedom — either branch of
    /// `pbw_sim::density::crossover` gives the same bytes.
    ///
    /// The senders charge work and pin some sends with `send_at`. Every
    /// mode runs with no hook, under a reliable `FaultPlan` (`FaultSpec::
    /// none()`: every fate `Deliver`, no stall or crash), or under a seeded
    /// plan with every fault kind enabled (drops, duplicates, delays ≤ 2,
    /// displacement ≤ 3, stalls and crashes ≤ 2), so the hooked delivery
    /// is held to the same bytes — fault ledger included — at every
    /// density. The reliable plan must also be invisible: its states,
    /// `canonical_hash` and trace events (with their `faults` counters
    /// unset) equal the unhooked run's, which checks the hooked lanes'
    /// `Deliver` path against lanes with no fates at widths 1 and 8.
    #[test]
    fn masked_declared_and_dense_paths_agree_at_any_density(
        p_sel in 0usize..3,
        sender_pct in 0usize..=100,
        max_fanout in 1usize..6,
        seed in 0u64..1000,
        hook_sel in 0usize..3,
    ) {
        use parallel_bandwidth::prelude::{FaultPlan, FaultSpec, FaultStats};
        use parallel_bandwidth::sim::{BspMachine, Outbox};
        use parallel_bandwidth::trace::{RecordingSink, TraceEvent};
        use rayon::ThreadPoolBuilder;
        use std::sync::Arc;

        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Hook {
            None,
            Reliable,
            Faulty,
        }
        let hook = [Hook::None, Hook::Reliable, Hook::Faulty][hook_sel];

        // 64/72 straddle the mask's word boundary (one exact word, one
        // word plus a ragged tail); 1024 spans many words. All keep g=8.
        let p = [64usize, 72, 1024][p_sel];
        let n_senders = (p * sender_pct) / 100; // 0 ⇒ empty frontier
        // 131 is prime and never equal to p here, so i ↦ (131·i + seed)
        // mod p is a bijection: exactly `n_senders` distinct senders.
        let senders: Vec<usize> = (0..n_senders)
            .map(|i| (i * 131 + seed as usize) % p)
            .collect();
        let is_sender: Vec<bool> = {
            let mut v = vec![false; p];
            for &s in &senders {
                v[s] = true;
            }
            v
        };
        let fanout_of = |src: usize| 1 + (src + seed as usize) % max_fanout;
        // The hand-computed sorted-Vec frontier for the drain superstep:
        // everyone the send step delivered to.
        let receivers: Vec<usize> = {
            let mut r: Vec<usize> = senders
                .iter()
                .flat_map(|&src| (0..fanout_of(src)).map(move |j| (src * 7 + j * 13 + 1) % p))
                .collect();
            r.sort_unstable();
            r.dedup();
            r
        };

        let spec = FaultSpec {
            drop_rate: 0.1,
            duplicate_rate: 0.1,
            delay_rate: 0.1,
            max_delay: 2,
            displace_rate: 0.1,
            max_displacement: 3,
            stall_rate: 0.05,
            crash_rate: 0.05,
            max_crash_len: 2,
        };
        // Faulty runs drain two more supersteps, so the last delays land.
        let drains = if hook == Hook::Faulty { 4 } else { 2 };

        #[derive(Clone, Copy, PartialEq)]
        enum Mode {
            Dense,
            Declared,
            Masked,
            Auto,
        }

        let run = |hook: Hook, mode: Mode, width: usize| -> (Vec<TraceEvent>, Vec<u64>, u64, FaultStats) {
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool construction is infallible in the shim")
                .install(|| {
                    let params = MachineParams::from_gap(p, 8, 4);
                    let sink = Arc::new(RecordingSink::new());
                    let mut machine: BspMachine<u64, u64> = BspMachine::new(params, |_| 0);
                    machine.set_sink(sink.clone()).set_trace_label("mask-vs-vec");
                    let plan = match hook {
                        Hook::None => None,
                        Hook::Reliable => Some(FaultPlan::new(FaultSpec::none(), seed)),
                        Hook::Faulty => Some(FaultPlan::new(spec, seed ^ 0x5A)),
                    };
                    if let Some(plan) = plan {
                        machine.set_delivery_hook(Arc::new(plan));
                    }
                    // Every third send is pinned, to a distinct odd slot per
                    // sender; the plain ones take the gaps.
                    let send = |pid: usize, s: &mut u64, inbox: &[u64], out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                        if is_sender[pid] {
                            out.charge_work(1 + pid as u64 % 3);
                            for j in 0..fanout_of(pid) {
                                let (dest, v) = ((pid * 7 + j * 13 + 1) % p, (pid + j) as u64);
                                if (pid + j).is_multiple_of(3) {
                                    out.send_at(dest, v, 2 * j as u64 + 1);
                                } else {
                                    out.send(dest, v);
                                }
                            }
                        }
                    };
                    let drain = |_pid: usize, s: &mut u64, inbox: &[u64], _out: &mut Outbox<u64>| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                    };
                    // The last drain of an unhooked run has an empty frontier.
                    match mode {
                        Mode::Dense => {
                            machine.superstep(send);
                            for _ in 0..drains {
                                machine.superstep(drain);
                            }
                        }
                        Mode::Declared => {
                            machine.superstep_active(&senders, send);
                            machine.superstep_active(&receivers, drain);
                            for _ in 1..drains {
                                machine.superstep_active(&[], drain);
                            }
                        }
                        Mode::Masked => {
                            machine.superstep_active(&senders, send);
                            for _ in 0..drains {
                                machine.superstep_active(&[], drain);
                            }
                        }
                        Mode::Auto => {
                            machine.superstep_auto(&senders, send);
                            for _ in 0..drains {
                                machine.superstep_auto(&[], drain);
                            }
                        }
                    }
                    let hash = machine.canonical_hash();
                    (sink.take(), machine.states().to_vec(), hash, machine.fault_stats())
                })
        };
        let json = |events: &[TraceEvent]| -> Vec<String> {
            events.iter().map(TraceEvent::to_json).collect()
        };

        let baseline = run(hook, Mode::Dense, 1);
        let want = (json(&baseline.0), &baseline.1, baseline.2, baseline.3);
        for mode in [Mode::Dense, Mode::Declared, Mode::Masked, Mode::Auto] {
            for width in [1usize, 8] {
                if mode == Mode::Dense && width == 1 {
                    continue;
                }
                let other = run(hook, mode, width);
                prop_assert_eq!(
                    &want,
                    &(json(&other.0), &other.1, other.2, other.3),
                    "mode={} width={} diverged from the dense width-1 run (p={}, {}% active, hook={:?})",
                    match mode {
                        Mode::Dense => "dense",
                        Mode::Declared => "declared",
                        Mode::Masked => "masked",
                        Mode::Auto => "auto",
                    },
                    width, p, sender_pct, hook
                );
            }
        }
        if hook == Hook::Reliable {
            // Every mode and width above matched this baseline, so the
            // unhooked dense width-1 run stands for all of them.
            let plain = run(Hook::None, Mode::Dense, 1);
            let unset = |events: &[TraceEvent]| -> Vec<String> {
                let events: Vec<TraceEvent> =
                    events.iter().cloned().map(|e| TraceEvent { faults: None, ..e }).collect();
                json(&events)
            };
            prop_assert_eq!(&baseline.1, &plain.1, "reliable hook changed the states");
            prop_assert_eq!(baseline.2, plain.2, "reliable hook changed canonical_hash");
            prop_assert_eq!(unset(&baseline.0), json(&plain.0), "reliable hook changed the trace");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential sample-sort oracle: for arbitrary (p, n/p, ratio,
    /// skew, sampling, seed), the BSP sample sort is byte-identical
    /// between the dense and sparse engine paths at pool widths 1 and 8 —
    /// rendered trace stream included — and its output equals the
    /// sequential `sort_unstable` oracle.
    #[test]
    fn sample_sort_differential_oracle_across_paths_and_widths(
        p_sel in 0usize..3,
        per in 4usize..=24,
        ratio in 1usize..=8,
        dist_sel in 0usize..4,
        seeded in any::<bool>(),
        seed in 0u64..1000,
    ) {
        use parallel_bandwidth::algos::sample_sort::{
            keyset, run_opts, KeyDist, SampleSortConfig, Sampling,
        };
        use parallel_bandwidth::trace::RecordingSink;
        use rayon::ThreadPoolBuilder;
        use std::sync::Arc;

        let p = [4usize, 8, 16][p_sel];
        let dist = KeyDist::ALL[dist_sel];
        let params = MachineParams::from_gap(p, 4, 4);
        let cfg = SampleSortConfig {
            ratio,
            sampling: if seeded { Sampling::Seeded } else { Sampling::Regular },
            seed,
        };
        let inputs = keyset(dist, p * per, seed);
        let mut oracle = inputs.clone();
        oracle.sort_unstable();

        let run = |sparse: bool, width: usize| {
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool construction is infallible in the shim")
                .install(|| {
                    let sink = Arc::new(RecordingSink::new());
                    let out = run_opts(params, &inputs, cfg, sparse, None, Some(sink.clone()));
                    let events: Vec<String> =
                        sink.take().iter().map(|e| e.to_json()).collect();
                    (events, out.output, out.summary, out.max_bucket)
                })
        };

        let baseline = run(false, 1);
        prop_assert_eq!(
            &baseline.1, &oracle,
            "dense width-1 output differs from sort_unstable ({:?}, p={}, per={})",
            dist, p, per
        );
        for (sparse, width) in [(true, 1), (false, 8), (true, 8)] {
            let other = run(sparse, width);
            prop_assert_eq!(
                &baseline, &other,
                "sparse={} width={} diverged from the dense 1-thread sort",
                sparse, width
            );
        }
    }
}

/// One shared-memory access of a processor's program, in program order.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read(usize),
    Write(usize, i64),
}

/// Decode a drawn program for processor `pid` on `m` cells. Kind 0 reads,
/// 1 writes, 2 is a read-modify-write of the processor's own cell, and odd
/// raw addresses land in a hot window of at most 4 cells so conflicts are
/// common at every `m`.
fn decode_program(pid: usize, m: usize, ops: &[(u8, usize, i64)]) -> Vec<Access> {
    let addr = |raw: usize| {
        if raw.is_multiple_of(2) {
            (raw / 2) % m
        } else {
            (raw / 2) % m.min(4)
        }
    };
    let mut program = Vec::new();
    for &(kind, raw, value) in ops {
        match kind {
            0 => program.push(Access::Read(addr(raw))),
            1 => program.push(Access::Write(addr(raw), value)),
            _ => {
                program.push(Access::Read(pid % m));
                program.push(Access::Write(pid % m, value));
            }
        }
    }
    program
}

/// The naive audit: every address's set of reading and of writing pids.
type CellSets = std::collections::BTreeMap<
    usize,
    (
        std::collections::BTreeSet<usize>,
        std::collections::BTreeSet<usize>,
    ),
>;

fn reference_cells(programs: &[Vec<Access>]) -> CellSets {
    let mut cells = CellSets::new();
    for (pid, program) in programs.iter().enumerate() {
        for &access in program {
            match access {
                Access::Read(addr) => cells.entry(addr).or_default().0.insert(pid),
                Access::Write(addr, _) => cells.entry(addr).or_default().1.insert(pid),
            };
        }
    }
    cells
}

/// Land each written cell's lowest writer's last write.
fn reference_writes(cells: &CellSets, programs: &[Vec<Access>], mem: &mut [i64]) {
    for (&addr, (_, writers)) in cells {
        if let Some(&pid) = writers.first() {
            mem[addr] = programs[pid]
                .iter()
                .rev()
                .find_map(|&access| match access {
                    Access::Write(a, v) if a == addr => Some(v),
                    _ => None,
                })
                .expect("a writer wrote the cell");
        }
    }
}

/// One PRAM step by definition: classify the lowest violating address
/// (read conflict, then write conflict, then hazard), else land the writes
/// and charge time and work.
fn reference_pram_step(
    mode: parallel_bandwidth::pram::AccessMode,
    programs: &[Vec<Access>],
    mem: &mut [i64],
) -> Result<parallel_bandwidth::pram::StepReport, parallel_bandwidth::pram::PramError> {
    use parallel_bandwidth::pram::{AccessMode, PramError, StepReport};
    let cells = reference_cells(programs);
    let exclusive_write = matches!(mode, AccessMode::Erew | AccessMode::Crew);
    for (&addr, (readers, writers)) in &cells {
        let (r, w) = (readers.len() as u64, writers.len() as u64);
        let own_rmw = r == 1 && w == 1 && readers == writers;
        if mode == AccessMode::Erew && r > 1 {
            return Err(PramError::ReadConflict {
                addr,
                contention: r,
            });
        }
        if exclusive_write && w > 1 {
            return Err(PramError::WriteConflict {
                addr,
                contention: w,
            });
        }
        if exclusive_write && r > 0 && w > 0 && !own_rmw {
            return Err(PramError::ReadWriteHazard { addr });
        }
    }
    reference_writes(&cells, programs, mem);
    let max_r = cells.values().map(|c| c.0.len() as u64).max().unwrap_or(0);
    let max_w = cells.values().map(|c| c.1.len() as u64).max().unwrap_or(0);
    let ops = programs.iter().map(|p| p.len() as u64);
    let mut time = ops.clone().max().unwrap_or(0).max(1);
    if mode == AccessMode::Qrqw {
        time = time.max(max_r).max(max_w);
    }
    Ok(StepReport {
        time,
        work: ops.map(|o| o.max(1)).sum(),
        max_read_contention: max_r,
        max_write_contention: max_w,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The PRAM contention audit against the naive per-address sets, in all
    /// four access modes, on memories both at most and more than four cells
    /// per processor: every step's report or error (variant, address and
    /// contention) and the memory after it match the reference, including
    /// repeated reads and writes and read-modify-writes of a processor's
    /// own cell.
    #[test]
    fn pram_audit_matches_a_naive_reference(
        mode_sel in 0usize..4,
        nprocs in 1usize..=8,
        roomy in any::<bool>(),
        m_raw in 0usize..64,
        steps in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0usize..512, -50i64..50), 0..5),
                8..=8,
            ),
            1..4,
        ),
    ) {
        use parallel_bandwidth::pram::{AccessMode, Pram};
        let mode = [
            AccessMode::Erew,
            AccessMode::Crew,
            AccessMode::Qrqw,
            AccessMode::CrcwArbitrary,
        ][mode_sel];
        let m = if roomy {
            4 * nprocs + 1 + m_raw
        } else {
            1 + m_raw % (4 * nprocs)
        };
        let mut pram = Pram::new(mode, m);
        let mut mem = vec![0i64; m];
        for step in &steps {
            let programs: Vec<Vec<Access>> = (0..nprocs)
                .map(|pid| decode_program(pid, m, &step[pid]))
                .collect();
            let got = pram.try_step(nprocs, |pid, ctx| {
                for &access in &programs[pid] {
                    match access {
                        Access::Read(addr) => {
                            ctx.read(addr);
                        }
                        Access::Write(addr, value) => ctx.write(addr, value),
                    }
                }
            });
            let want = reference_pram_step(mode, &programs, &mut mem);
            prop_assert_eq!(got, want, "mode {:?}, m={}, programs {:?}", mode, m, programs);
            prop_assert_eq!(pram.mem(), &mem[..]);
        }
    }

    /// The QSM contention audit against the same reference: the lowest
    /// location both read and written is the reported conflict, κ is the
    /// largest distinct-reader or distinct-writer count, and each written
    /// location keeps its lowest writer's value. No processor writes one
    /// location twice in a phase here (`qsm::tests` pins that case).
    #[test]
    fn qsm_audit_matches_a_naive_reference(
        nprocs in 1usize..=8,
        size_raw in 0usize..40,
        steps in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..2, 0usize..512, -50i64..50), 0..5),
                8..=8,
            ),
            1..4,
        ),
    ) {
        use parallel_bandwidth::sim::{QsmMachine, SimError};
        let size = 1 + size_raw;
        let mut qsm: QsmMachine<()> =
            QsmMachine::new(MachineParams::from_gap(nprocs, 1, 1), size, |_| ());
        let mut mem = vec![0i64; size];
        for step in &steps {
            let programs: Vec<Vec<Access>> = (0..nprocs)
                .map(|pid| {
                    let mut written = std::collections::BTreeSet::new();
                    decode_program(pid, size, &step[pid])
                        .into_iter()
                        .filter(|access| match *access {
                            Access::Write(addr, _) => written.insert(addr),
                            Access::Read(_) => true,
                        })
                        .collect()
                })
                .collect();
            let got = qsm.try_phase(|pid, _s, _res, ctx| {
                for &access in &programs[pid] {
                    match access {
                        Access::Read(addr) => ctx.read(addr),
                        Access::Write(addr, value) => ctx.write(addr, value),
                    }
                }
            });
            let cells = reference_cells(&programs);
            let conflict = cells
                .iter()
                .find(|(_, (r, w))| !r.is_empty() && !w.is_empty())
                .map(|(&addr, _)| addr);
            match conflict {
                Some(addr) => {
                    prop_assert_eq!(got.map(drop), Err(SimError::ReadWriteConflict { addr }));
                }
                None => {
                    let kappa = cells
                        .values()
                        .map(|(r, w)| r.len().max(w.len()) as u64)
                        .max()
                        .unwrap_or(0);
                    let report = got.expect("no location is both read and written");
                    prop_assert_eq!(report.profile.max_contention, kappa);
                    reference_writes(&cells, &programs, &mut mem);
                }
            }
            prop_assert_eq!(qsm.shared(), &mem[..]);
        }
    }
}
