//! Failure-injection integration tests: the engines and validators must
//! reject rule-breaking programs loudly, and degenerate or adversarial
//! configurations must not corrupt results.

use parallel_bandwidth::models::{MachineParams, PenaltyFn};
use parallel_bandwidth::pram::{AccessMode, Pram, PramError};
use parallel_bandwidth::sched::schedulers::{Scheduler, UnbalancedSend};
use parallel_bandwidth::sched::{evaluate_schedule, validate_schedule, workload, Schedule};
use parallel_bandwidth::sim::{BspMachine, QsmMachine, SimError};

#[test]
fn engine_rejects_double_injection() {
    let mp = MachineParams::from_gap(8, 2, 2);
    let mut m: BspMachine<(), u8> = BspMachine::new(mp, |_| ());
    let err = m
        .try_superstep(|pid, _s, _in, out| {
            if pid == 3 {
                out.send_at(0, 1, 9);
                out.send_at(1, 1, 9);
            }
        })
        .unwrap_err();
    assert_eq!(err, SimError::DuplicateSlot { pid: 3, slot: 9 });
    // The machine remains usable after the rejected superstep.
    let report = m.superstep(|_pid, _s, _in, out| out.send(0, 1));
    assert_eq!(report.delivered, 8);
}

#[test]
fn engine_rejects_qsm_read_write_mix() {
    let mp = MachineParams::from_gap(4, 2, 2);
    let mut q: QsmMachine<()> = QsmMachine::new(mp, 8, |_| ());
    let err = q
        .try_phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(3);
            } else {
                ctx.write(3, 1);
            }
        })
        .unwrap_err();
    assert_eq!(err, SimError::ReadWriteConflict { addr: 3 });
}

#[test]
fn pram_erew_violations_are_precise() {
    let mut pram = Pram::new(AccessMode::Erew, 8);
    let err = pram.try_step(5, |_pid, ctx| {
        ctx.read(2);
    });
    assert_eq!(
        err.unwrap_err(),
        PramError::ReadConflict {
            addr: 2,
            contention: 5
        }
    );
    // Same program is legal under CRCW and QRQW.
    let mut crcw = Pram::new(AccessMode::CrcwArbitrary, 8);
    assert!(crcw
        .try_step(5, |_pid, ctx| {
            ctx.read(2);
        })
        .is_ok());
}

#[test]
fn corrupted_schedule_is_rejected_before_costing() {
    let wl = workload::uniform_random(16, 4, 1);
    let mut sched = UnbalancedSend::new(0.2).schedule(&wl, 4, 0);
    // Corrupt: give processor 0 two messages in one slot.
    if sched.starts[0].len() >= 2 {
        let s = sched.starts[0][0];
        sched.starts[0][1] = s;
    }
    assert!(validate_schedule(&sched, &wl).is_err());
}

#[test]
fn truncated_schedule_shape_is_rejected() {
    let wl = workload::uniform_random(16, 4, 1);
    let sched = UnbalancedSend::new(0.2).schedule(&wl, 4, 0);
    // Drop the last processor's row.
    let rows: Vec<Vec<u64>> = sched.starts.iter().take(15).map(<[u64]>::to_vec).collect();
    let truncated = Schedule {
        starts: rows.into(),
    };
    assert!(validate_schedule(&truncated, &wl).is_err());
}

#[test]
fn extreme_overload_saturates_instead_of_panicking() {
    // Everything in one slot with m = 1: the exponential charge is e^{n−1},
    // astronomically large but finite (saturating), and ordering survives.
    let p = 64usize;
    let wl = workload::permutation(p, 2);
    let sched = Schedule {
        starts: vec![vec![0]; p].into(),
    };
    let cost = evaluate_schedule(&sched, &wl, 1, PenaltyFn::Exponential);
    assert!(cost.c_m.is_finite());
    assert!(cost.c_m > 1e20);
    let lin = evaluate_schedule(&sched, &wl, 1, PenaltyFn::Linear);
    assert!(lin.c_m < cost.c_m);
    assert_eq!(lin.c_m, p as f64); // n/m with everything in one slot
}

#[test]
fn adversary_noncompliance_is_detected() {
    use parallel_bandwidth::adversary::{AqtParams, ComplianceChecker};
    let params = AqtParams {
        w: 8,
        alpha: 1.0,
        beta: 0.25,
    };
    let mut checker = ComplianceChecker::new(8, params);
    // A rogue stream: source 0 floods.
    for _ in 0..8 {
        checker.record(&[(0, 1), (0, 2)]);
    }
    assert!(!checker.is_compliant());
    assert!(checker.violations().iter().any(|v| v.contains("source 0")));
}

#[test]
fn single_processor_machines_work_everywhere() {
    let mp = MachineParams::from_gap(1, 1, 1);
    let mut m: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
    let r = m.superstep(|_pid, s, _in, _out| *s = 7);
    assert_eq!(r.delivered, 0);
    assert_eq!(*m.state(0), 7);
    let mut q: QsmMachine<u64> = QsmMachine::new(mp, 4, |_| 0);
    q.phase(|_pid, _s, _res, ctx| ctx.write(0, 5));
    assert_eq!(q.shared()[0], 5);
}

#[test]
fn workload_with_self_sends_is_legal_and_costed() {
    // Nothing in the model forbids sending to yourself; it still consumes
    // bandwidth and counts in h on both sides.
    let wl = parallel_bandwidth::sched::Workload::from_dests(vec![vec![0, 0, 0], vec![]]);
    let sched = UnbalancedSend::new(0.2).schedule(&wl, 1, 3);
    let cost = evaluate_schedule(&sched, &wl, 1, PenaltyFn::Exponential);
    assert_eq!(cost.h, 3);
    assert_eq!(cost.n, 3);
}

#[test]
fn timeline_flags_overloads_that_penalties_price() {
    use parallel_bandwidth::sched::schedulers::{EagerSend, OfflineOptimal};
    use parallel_bandwidth::sim::timeline;
    let p = 64usize;
    let m = 8usize;
    let wl = workload::uniform_random(p, 16, 2);
    let eager =
        parallel_bandwidth::sched::schedule::to_profile(&EagerSend.schedule(&wl, m, 0), &wl);
    let good =
        parallel_bandwidth::sched::schedule::to_profile(&OfflineOptimal.schedule(&wl, m, 1), &wl);
    let u_eager = timeline::utilization(&eager, m);
    let u_good = timeline::utilization(&good, m);
    assert!(
        u_eager.overload_mass > 0.9,
        "eager mass {}",
        u_eager.overload_mass
    );
    assert_eq!(u_good.overload_mass, 0.0);
    assert!(timeline::render_strip(&eager, m, 40).contains('!'));
    assert!(!timeline::render_strip(&good, m, 40).contains('!'));
    // Unbalanced-Send at tiny ε²m may overload a few slots — the mass must
    // still be a small fraction.
    let us = parallel_bandwidth::sched::schedule::to_profile(
        &UnbalancedSend::new(0.3).schedule(&wl, m, 1),
        &wl,
    );
    assert!(timeline::utilization(&us, m).overload_mass < 0.5);
}
