//! End-to-end replay of a schedule on the `pbw-sim` BSP engine.
//!
//! Pure schedule evaluation (`evaluate_schedule`) prices a plan analytically;
//! this module actually *executes* it — every flit becomes an envelope pinned
//! to its injection slot, the engine validates the
//! one-injection-per-processor-per-step rule independently, delivery is
//! checked against the workload, and the run is priced under every model via
//! [`CostSummary`]. Agreement between the two paths is itself a tested
//! invariant.

use crate::schedule::Schedule;
use crate::workload::Workload;
use pbw_models::{MachineParams, SuperstepProfile};
use pbw_sim::{BspMachine, CostSummary};

/// A delivered flit: (source, message index within source, flit index
/// within message).
pub type FlitTag = (u32, u32, u32);

/// Outcome of executing a schedule on the simulator.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Cost of the communication superstep under every model.
    pub summary: CostSummary,
    /// The superstep's profile.
    pub profile: SuperstepProfile,
    /// Flits delivered to each processor (source-ordered).
    pub delivered: Vec<Vec<FlitTag>>,
}

/// Execute `schedule` for `wl` on a simulated BSP machine with `params`.
///
/// # Panics
/// Panics if the schedule violates the injection rule (the *engine* raises
/// this, independently of `validate_schedule`) or if delivery does not match
/// the workload.
pub fn run_schedule_on_bsp(
    wl: &Workload,
    schedule: &Schedule,
    params: MachineParams,
) -> ExecOutcome {
    assert_eq!(wl.p(), params.p, "workload and machine disagree on p");
    let mut machine: BspMachine<(), FlitTag> = BspMachine::new(params, |_| ());
    machine.set_trace_label("schedule-exec");
    let body = |pid: usize, _s: &mut (), _in: &[FlitTag], out: &mut pbw_sim::Outbox<FlitTag>| {
        for (k, (msg, &start)) in wl.msgs(pid).iter().zip(&schedule.starts[pid]).enumerate() {
            for f in 0..msg.len {
                out.send_at(msg.dest, (pid as u32, k as u32, f as u32), start + f);
            }
        }
    };
    // The engine picks the path: sparse workloads (the unbalanced regimes
    // Section 6 studies) run on the active-set path at O(senders + flits)
    // engine cost, dense ones on the parallel all-processor pass.
    let report = machine.superstep_auto(&schedule.active_senders(), body);
    // The deliveries are the inboxes the next superstep would read.
    let delivered: Vec<Vec<FlitTag>> = (0..wl.p())
        .map(|pid| machine.pending_inbox(pid).to_vec())
        .collect();

    // Verify delivery: each destination received exactly its flit total.
    let expect = wl.recv_counts();
    for (pid, got) in delivered.iter().enumerate() {
        assert_eq!(
            got.len() as u64,
            expect[pid],
            "processor {pid} received {} flits, expected {}",
            got.len(),
            expect[pid]
        );
    }

    let profile = report.profile;
    let summary = CostSummary::price(params, std::slice::from_ref(&profile));
    ExecOutcome {
        summary,
        profile,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{evaluate_schedule, to_profile};
    use crate::schedulers::{EagerSend, OfflineOptimal, Scheduler, UnbalancedSend};
    use crate::workload;
    use pbw_models::PenaltyFn;

    #[test]
    fn execution_profile_matches_analytic_profile() {
        let wl = workload::uniform_random(64, 8, 1);
        let params = MachineParams::from_bandwidth(64, 8, 4);
        let sched = UnbalancedSend::new(0.2).schedule(&wl, 8, 3);
        let exec = run_schedule_on_bsp(&wl, &sched, params);
        let analytic = to_profile(&sched, &wl);
        assert_eq!(exec.profile.injections, analytic.injections);
        assert_eq!(exec.profile.max_sent, analytic.max_sent);
        assert_eq!(exec.profile.max_received, analytic.max_received);
        assert_eq!(exec.profile.total_messages, analytic.total_messages);
    }

    #[test]
    fn engine_cost_matches_schedule_cost() {
        let wl = workload::single_hot_sender(32, 200, 2, 4);
        let params = MachineParams::from_bandwidth(32, 8, 2);
        let sched = OfflineOptimal.schedule(&wl, 8, 0);
        let exec = run_schedule_on_bsp(&wl, &sched, params);
        let cost = evaluate_schedule(&sched, &wl, 8, PenaltyFn::Exponential);
        // Engine's BSP(m,exp) communication term equals the analytic c_m
        // (work is 0 and L may dominate only if c_m < L, which it isn't
        // here).
        assert!((exec.summary.bsp_m_exp - cost.c_m.max(cost.h as f64)).abs() < 1e-9);
    }

    #[test]
    fn delivery_is_complete_for_flit_workloads() {
        let wl = workload::variable_length(16, 4, 3.0, 2);
        let params = MachineParams::from_bandwidth(16, 4, 2);
        let sched = crate::flits::UnbalancedFlitSend::new(0.2).schedule(&wl, 4, 1);
        let exec = run_schedule_on_bsp(&wl, &sched, params);
        let total: usize = exec.delivered.iter().map(Vec::len).sum();
        assert_eq!(total as u64, wl.n_flits());
    }

    #[test]
    fn eager_vs_scheduled_separation_on_engine() {
        // The whole point: same workload, same machine — the scheduled send
        // is exponentially cheaper under BSP(m,exp).
        let wl = workload::permutation(128, 5);
        let params = MachineParams::from_bandwidth(128, 16, 2);
        let eager = run_schedule_on_bsp(&wl, &EagerSend.schedule(&wl, 16, 0), params);
        let sched =
            run_schedule_on_bsp(&wl, &UnbalancedSend::new(0.2).schedule(&wl, 16, 0), params);
        assert!(eager.summary.bsp_m_exp > 100.0 * sched.summary.bsp_m_exp);
        // But under BSP(g) both cost the same (g·h = g·1... plus receive side).
        assert!((eager.summary.bsp_g - sched.summary.bsp_g).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "disagree on p")]
    fn mismatched_machine_rejected() {
        let wl = workload::permutation(8, 0);
        let params = MachineParams::from_bandwidth(16, 4, 2);
        let sched = EagerSend.schedule(&wl, 4, 0);
        let _ = run_schedule_on_bsp(&wl, &sched, params);
    }
}
