//! Invariant family 4: the cost-envelope audit.
//!
//! For **every** unit workload over the domain (every multiset of
//! `(src, dest)` pairs up to `max_messages`, for every `p` up to the
//! domain's and every bandwidth `m` dividing `p`):
//!
//! * the offline optimal packs into *exactly* `max(⌈n/m⌉, x̄)` slots with
//!   no slot over `m` — the lower bound it exists to witness;
//! * Unbalanced-Send (ε = 1/2, several seeds) obeys its structural
//!   contract: in-window senders start strictly inside the window
//!   `w = ⌈(1+ε)n/m⌉`, over-window senders send eagerly from slot 0, and
//!   the makespan never exceeds `max(w, x̄)`;
//! * [`evaluate_schedule`]'s slot accounting agrees with an independent
//!   recount of the schedule's slot loads;
//! * replaying either schedule on the *engine* produces the analytic
//!   profile ([`to_profile`]) — the engine and the calculator price the
//!   same object;
//! * whenever the w.h.p. event of Theorem 6.2 holds (`no_slot_exceeds_m` —
//!   deterministically checkable per instance), the schedule's BSP(m) time
//!   is within the theorem's target
//!   `max((1+ε)n/m, x̄, ȳ, L) + τ(p, m, L)`.
//!
//! The theorem itself is probabilistic; the checker never asserts the
//! w.h.p. event, only the *conditional* envelope — which must hold on
//! every instance, enumerated exhaustively, or the accounting is wrong.

use pbw_core::exec::run_schedule_on_bsp;
use pbw_core::schedule::to_profile;
use pbw_core::schedulers::{OfflineOptimal, Scheduler, UnbalancedSend};
use pbw_core::workload::Msg;
use pbw_core::{evaluate_schedule, validate_schedule, Schedule, Workload};
use pbw_models::bounds::unbalanced_send_target;
use pbw_models::{div_ceil, MachineParams, PenaltyFn};

use crate::{Budget, Domain, FamilyReport, Violation};

const EPS: f64 = 0.5;
const L: u64 = 2;
const SEEDS: [u64; 3] = [0, 1, 2];

/// Walk every unit workload in the domain.
pub fn check(domain: &Domain, budget: &mut Budget) -> FamilyReport {
    let mut report = FamilyReport::new("envelope");
    for p in 2..=domain.p {
        // All ordered pairs (src, dest), src != dest.
        let pairs: Vec<(usize, usize)> = (0..p)
            .flat_map(|s| (0..p).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        for multiset in multisets(pairs.len(), domain.max_messages) {
            let mut dests: Vec<Vec<usize>> = vec![Vec::new(); p];
            for idx in &multiset {
                let (s, d) = pairs[*idx];
                dests[s].push(d);
            }
            let wl = Workload::new(
                dests
                    .into_iter()
                    .map(|ds| ds.into_iter().map(Msg::unit).collect())
                    .collect(),
            );
            for m in (1..=p).filter(|m| p % m == 0) {
                if !check_instance(&wl, p, m, budget, &mut report) {
                    return report;
                }
            }
        }
    }
    report
}

/// All index-multisets of size `0..=max_len` over `0..k` (non-decreasing
/// index sequences — combinations with repetition).
fn multisets(k: usize, max_len: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for ms in &frontier {
            let lo = ms.last().copied().unwrap_or(0);
            for i in lo..k {
                let mut v = ms.clone();
                v.push(i);
                next.push(v);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn subject(wl: &Workload, p: usize, m: usize, scheduler: &str, seed: u64) -> String {
    let sends: Vec<String> = (0..p)
        .flat_map(|src| {
            wl.msgs(src)
                .iter()
                .map(move |msg| format!("{src}→{}", msg.dest))
        })
        .collect();
    format!(
        "workload=[{}] p={p} m={m} scheduler={scheduler} seed={seed}",
        sends.join(",")
    )
}

/// Independent recount of per-slot loads straight from the start lists.
fn recount_loads(schedule: &Schedule) -> Vec<u64> {
    let mut loads: Vec<u64> = Vec::new();
    for &slot in schedule.starts.slots() {
        if loads.len() <= slot as usize {
            loads.resize(slot as usize + 1, 0);
        }
        loads[slot as usize] += 1;
    }
    loads
}

/// Audit one `(workload, m)` instance; `false` when the budget ran dry.
fn check_instance(
    wl: &Workload,
    p: usize,
    m: usize,
    budget: &mut Budget,
    report: &mut FamilyReport,
) -> bool {
    let params = MachineParams::from_bandwidth(p, m, L);
    let n = wl.n_flits();
    let mut fail = |report: &mut FamilyReport, subj: String, detail: String| {
        report.record(Violation {
            family: "envelope",
            subject: subj,
            script: "clean".to_string(),
            detail,
        });
    };

    // --- Offline optimal: the exact lower-bound witness. ---
    if !budget.try_charge(1) {
        report.truncated = true;
        return false;
    }
    report.runs += 1;
    let subj = subject(wl, p, m, "Offline-Optimal", 0);
    let sched = OfflineOptimal.schedule(wl, m, 0);
    if let Err(e) = validate_schedule(&sched, wl) {
        fail(report, subj.clone(), format!("invalid schedule: {e:?}"));
        return true;
    }
    let cost = evaluate_schedule(&sched, wl, m, PenaltyFn::Exponential);
    let t_opt = if n == 0 {
        0
    } else {
        div_ceil(n, m as u64).max(wl.xbar())
    };
    if cost.makespan != t_opt {
        fail(
            report,
            subj.clone(),
            format!(
                "offline optimal took {} slots, bound is {t_opt}",
                cost.makespan
            ),
        );
    }
    if !cost.no_slot_exceeds_m {
        fail(
            report,
            subj.clone(),
            format!(
                "offline optimal overloaded a slot (max load {})",
                cost.max_slot_load
            ),
        );
    }
    check_engine_agreement(wl, &sched, params, &subj, report, &mut fail);

    // --- Unbalanced-Send: window structure + conditional Theorem 6.2. ---
    for seed in SEEDS {
        if !budget.try_charge(1) {
            report.truncated = true;
            return false;
        }
        report.runs += 1;
        let subj = subject(wl, p, m, "Unbalanced-Send", seed);
        let sched = UnbalancedSend::new(EPS).schedule(wl, m, seed);
        if let Err(e) = validate_schedule(&sched, wl) {
            fail(report, subj.clone(), format!("invalid schedule: {e:?}"));
            continue;
        }
        let w = (((1.0 + EPS) * n as f64 / m as f64).ceil() as u64).max(1);
        for pid in 0..p {
            let starts = &sched.starts[pid];
            let x_i = starts.len() as u64;
            if x_i <= w {
                if let Some(&bad) = starts.iter().find(|&&s| s >= w) {
                    fail(
                        report,
                        subj.clone(),
                        format!("in-window sender {pid} starts at slot {bad} ≥ window {w}"),
                    );
                }
            } else {
                let eager: Vec<u64> = (0..x_i).collect();
                if *starts != eager {
                    fail(
                        report,
                        subj.clone(),
                        format!("over-window sender {pid} is not eager: {starts:?}"),
                    );
                }
            }
        }
        let cost = evaluate_schedule(&sched, wl, m, PenaltyFn::Exponential);
        if cost.makespan > w.max(wl.xbar()) {
            fail(
                report,
                subj.clone(),
                format!(
                    "makespan {} exceeds max(window {w}, x̄ {})",
                    cost.makespan,
                    wl.xbar()
                ),
            );
        }
        // Recount the slot loads independently of `slot_loads`.
        let loads = recount_loads(&sched);
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let overloaded = loads.iter().filter(|&&l| l > m as u64).count() as u64;
        if max_load != cost.max_slot_load || overloaded != cost.overloaded_slots {
            fail(
                report,
                subj.clone(),
                format!(
                    "slot accounting disagrees: recount (max {max_load}, over {overloaded}) vs \
                     ScheduleCost (max {}, over {})",
                    cost.max_slot_load, cost.overloaded_slots
                ),
            );
        }
        check_engine_agreement(wl, &sched, params, &subj, report, &mut fail);
        if cost.no_slot_exceeds_m {
            let target = unbalanced_send_target(n, m, wl.xbar(), wl.ybar(), EPS, p, L);
            if cost.model_time > target + 1e-9 {
                fail(
                    report,
                    subj.clone(),
                    format!(
                        "Theorem 6.2 envelope violated: BSP(m) time {} > target {target} \
                         (n={n}, x̄={}, ȳ={})",
                        cost.model_time,
                        wl.xbar(),
                        wl.ybar()
                    ),
                );
            }
        }
    }
    report.leaves += 1;
    true
}

/// The engine must realize exactly the profile the calculator predicts.
fn check_engine_agreement(
    wl: &Workload,
    sched: &Schedule,
    params: MachineParams,
    subj: &str,
    report: &mut FamilyReport,
    fail: &mut impl FnMut(&mut FamilyReport, String, String),
) {
    let exec = run_schedule_on_bsp(wl, sched, params);
    let analytic = to_profile(sched, wl);
    let got = &exec.profile;
    if got.injections != analytic.injections
        || got.max_sent != analytic.max_sent
        || got.max_received != analytic.max_received
        || got.total_messages != analytic.total_messages
    {
        fail(
            report,
            subj.to_string(),
            format!("engine profile {got:?} differs from analytic profile {analytic:?}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_counts_match_combinatorics() {
        // Σ_{k=0..4} C(k+5, 5) over 6 pairs = 1 + 6 + 21 + 56 + 126.
        assert_eq!(multisets(6, 4).len(), 210);
        assert_eq!(multisets(2, 3).len(), 10);
        assert_eq!(multisets(3, 0).len(), 1);
    }

    #[test]
    fn tiny_envelope_is_clean() {
        let mut budget = Budget::new(50_000);
        let report = check(&crate::Domain::tiny(), &mut budget);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(!report.truncated);
        assert!(report.leaves > 0);
    }
}
