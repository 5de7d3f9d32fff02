//! Schedule representation, validation and pricing.
//!
//! A [`Schedule`] assigns every message of a [`Workload`] a *start slot*;
//! a message of length `ℓ` occupies slots `[start, start+ℓ)` — consuming one
//! unit of aggregate bandwidth in each (the Bhatt-et-al.-style contiguous
//! stream the paper adopts for long messages; unit messages occupy exactly
//! their start slot).
//!
//! [`validate_schedule`] checks the model rule that a processor injects at
//! most one flit per step; [`evaluate_schedule`] builds the machine-wide
//! per-step load histogram and prices it under a
//! [`PenaltyFn`], yielding the quantities every Section 6
//! experiment reports (makespan, `c_m`, overload counts, distance from the
//! `max(n/m, h)` lower bound).

use std::ops::{Index, IndexMut};

use crate::workload::Workload;
use pbw_models::{div_ceil, MachineParams, PenaltyFn, ProfileBuilder, SuperstepProfile};
use pbw_trace::{TraceEvent, TraceSink, TraceSource};
use rayon::prelude::*;

/// The fewest sources one pool chunk of a per-source check holds: a
/// source's check is a few slot comparisons, so shorter jobs run inline
/// (DESIGN §13).
const MIN_SOURCES_PER_CHUNK: usize = 1024;

/// Start slots in CSR form, aligned with a [`Workload`]'s source-major
/// message order: `table[src]` is the slice of `src`'s start slots, one
/// per message. A scheduler fills one flat vector, however many
/// processors send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartTable {
    /// `slots[offsets[src]..offsets[src + 1]]` belong to `src` (length
    /// `p + 1`, starting at 0).
    offsets: Vec<usize>,
    slots: Vec<u64>,
}

impl StartTable {
    /// Assemble from per-processor offsets into `slots`.
    ///
    /// # Panics
    /// Panics unless `offsets` starts at 0 and ends at `slots.len()`.
    pub(crate) fn new(offsets: Vec<usize>, slots: Vec<u64>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "start offsets must begin at 0");
        assert_eq!(
            offsets.last(),
            Some(&slots.len()),
            "start offsets must end at the slot count"
        );
        StartTable { offsets, slots }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table covers no processor.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each processor's start slots, in pid order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        self.offsets.windows(2).map(|w| &self.slots[w[0]..w[1]])
    }

    /// Every start slot, source-major.
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }
}

impl Index<usize> for StartTable {
    type Output = [u64];

    fn index(&self, src: usize) -> &[u64] {
        &self.slots[self.offsets[src]..self.offsets[src + 1]]
    }
}

impl IndexMut<usize> for StartTable {
    fn index_mut(&mut self, src: usize) -> &mut [u64] {
        &mut self.slots[self.offsets[src]..self.offsets[src + 1]]
    }
}

/// Per-processor rows, for hand-written schedules.
impl From<Vec<Vec<u64>>> for StartTable {
    fn from(rows: Vec<Vec<u64>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for row in &rows {
            offsets.push(offsets[offsets.len() - 1] + row.len());
        }
        StartTable::new(offsets, rows.concat())
    }
}

/// A start slot for every message of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `starts[src][k]` = injection slot of the first flit of the k-th
    /// message of processor `src`.
    pub starts: StartTable,
}

impl Schedule {
    /// Lay a schedule out source by source over per-source message
    /// `offsets`: `row(src, out)` appends one start slot per message of
    /// `src`, for `src` ascending.
    ///
    /// # Panics
    /// Panics if a row's slot count differs from its message count.
    pub(crate) fn lay_out(offsets: Vec<usize>, mut row: impl FnMut(usize, &mut Vec<u64>)) -> Self {
        let mut slots = Vec::with_capacity(offsets[offsets.len() - 1]);
        for src in 0..offsets.len() - 1 {
            row(src, &mut slots);
            assert_eq!(slots.len(), offsets[src + 1], "processor {src}'s start row");
        }
        Schedule {
            starts: StartTable::new(offsets, slots),
        }
    }

    /// Sources assigned at least one start slot, in ascending pid order.
    /// For a schedule matching its workload's shape this is exactly the
    /// workload's [`Workload::active_senders`] set; executors hand it to
    /// the engines' sparse path so replaying a sparse schedule costs
    /// O(senders + flits) per superstep instead of O(p).
    pub fn active_senders(&self) -> Vec<usize> {
        (0..self.starts.len())
            .filter(|&src| !self.starts[src].is_empty())
            .collect()
    }
}

/// Schedule validity errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule's shape does not match the workload's.
    ShapeMismatch {
        src: usize,
        expected: usize,
        got: usize,
    },
    /// A processor injects two flits in one step.
    Overlap { src: usize, slot: u64 },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::ShapeMismatch { src, expected, got } => write!(
                f,
                "processor {src}: schedule has {got} starts for {expected} messages"
            ),
            ScheduleError::Overlap { src, slot } => {
                write!(f, "processor {src} injects two flits at step {slot}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Check shape and the one-flit-per-processor-per-step rule.
pub fn validate_schedule(schedule: &Schedule, wl: &Workload) -> Result<(), ScheduleError> {
    validate_starts(&schedule.starts, wl)
}

/// [`validate_schedule`] on a bare start table.
pub(crate) fn validate_starts(starts: &StartTable, wl: &Workload) -> Result<(), ScheduleError> {
    if starts.len() != wl.p() {
        return Err(ScheduleError::ShapeMismatch {
            src: 0,
            expected: wl.p(),
            got: starts.len(),
        });
    }
    // Per-source checks are independent; the fallible parallel collect
    // surfaces the lowest-`src` error, matching the sequential scan.
    let checks: Result<Vec<()>, ScheduleError> = (0..starts.len())
        .into_par_iter()
        .with_min_len(MIN_SOURCES_PER_CHUNK)
        .map(|src| {
            let (starts, msgs) = (&starts[src], wl.msgs(src));
            if starts.len() != msgs.len() {
                return Err(ScheduleError::ShapeMismatch {
                    src,
                    expected: msgs.len(),
                    got: starts.len(),
                });
            }
            // Occupied intervals must be pairwise disjoint.
            let mut intervals: Vec<(u64, u64)> = starts
                .iter()
                .zip(msgs.iter())
                .map(|(&s, m)| (s, s + m.len))
                .collect();
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(ScheduleError::Overlap { src, slot: w[1].0 });
                }
            }
            Ok(())
        })
        .collect();
    checks.map(|_| ())
}

/// The machine-wide per-step flit load of a schedule.
pub fn slot_loads(schedule: &Schedule, wl: &Workload) -> Vec<u64> {
    // Per-source makespan maxima, then per-chunk histograms summed slot-wise
    // — both u64 merges are exact under any chunking, so the result is
    // identical at every thread count.
    let starts = &schedule.starts;
    let makespan = (0..starts.len())
        .into_par_iter()
        .with_min_len(MIN_SOURCES_PER_CHUNK)
        .map(|src| {
            starts[src]
                .iter()
                .zip(wl.msgs(src))
                .map(|(&s, m)| s + m.len)
                .max()
                .unwrap_or(0)
        })
        .collect::<Vec<u64>>()
        .into_iter()
        .max()
        .unwrap_or(0);
    (0..starts.len())
        .into_par_iter()
        .with_min_len(MIN_SOURCES_PER_CHUNK)
        .fold_chunks(
            || vec![0u64; makespan as usize],
            |mut loads, src| {
                for (&s, m) in starts[src].iter().zip(wl.msgs(src)) {
                    for t in s..s + m.len {
                        loads[t as usize] += 1;
                    }
                }
                loads
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

/// Convert a schedule into a [`SuperstepProfile`], so it can be priced under
/// any `pbw_models::CostModel` (including the QSM variants and the
/// self-scheduling metric).
pub fn to_profile(schedule: &Schedule, wl: &Workload) -> SuperstepProfile {
    let mut b = ProfileBuilder::new();
    let recv = wl.recv_counts();
    let sent = wl.send_counts();
    for i in 0..wl.p() {
        b.record_traffic(sent[i], recv[i]);
    }
    // The injection histogram is exactly the parallel slot-load pass.
    for (t, &count) in slot_loads(schedule, wl).iter().enumerate() {
        if count > 0 {
            b.record_injections(t as u64, count);
        }
    }
    b.build()
}

/// Audit a schedule slot-by-slot as one [`TraceEvent`], without executing it.
///
/// The schedule is converted into its exact [`SuperstepProfile`] (same path
/// as [`to_profile`]) and packaged with the per-model breakdown, per-slot
/// penalty contributions and per-model costs, exactly as the engines do for
/// executed supersteps — this is how offline experiments (e.g. the
/// Proposition 6.1 routing comparison) expose *which term bound* without a
/// simulator run. `delivered` is the workload's flit total, since a valid
/// schedule delivers every flit.
pub fn audit_schedule(
    schedule: &Schedule,
    wl: &Workload,
    params: MachineParams,
    label: impl Into<String>,
) -> TraceEvent {
    TraceEvent::for_superstep(
        TraceSource::Schedule,
        label,
        0,
        params,
        to_profile(schedule, wl),
        wl.send_counts(),
        wl.recv_counts(),
        max_per_proc_slot_occupancy(schedule, wl),
        wl.n_flits(),
    )
}

/// Emit a schedule audit into `sink`; skipped entirely when the sink is
/// disabled (so auditing can be left in experiment hot paths).
pub fn audit_schedule_to(
    sink: &dyn TraceSink,
    schedule: &Schedule,
    wl: &Workload,
    params: MachineParams,
    label: impl Into<String>,
) {
    if sink.enabled() {
        sink.record(audit_schedule(schedule, wl, params, label));
    }
}

/// Largest number of flits one processor injects in one slot (1 for any
/// schedule accepted by [`validate_schedule`]; recomputed here so audits
/// report what the schedule actually does, not what validation implies).
fn max_per_proc_slot_occupancy(schedule: &Schedule, wl: &Workload) -> u64 {
    // Per-source sweeps are independent; `max` over the per-source results
    // is exact under any chunking.
    let starts = &schedule.starts;
    (0..starts.len())
        .into_par_iter()
        .with_min_len(MIN_SOURCES_PER_CHUNK)
        .map(|src| {
            // Interval sweep over [start, start+len): ends sort before
            // starts at equal slots because -1 < +1.
            let row = &starts[src];
            let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(row.len() * 2);
            for (&s, m) in row.iter().zip(wl.msgs(src)) {
                if m.len > 0 {
                    deltas.push((s, 1));
                    deltas.push((s + m.len, -1));
                }
            }
            deltas.sort_unstable();
            let mut cur = 0i64;
            let mut best = 0i64;
            for (_, d) in deltas {
                cur += d;
                best = best.max(cur);
            }
            best
        })
        .collect::<Vec<i64>>()
        .into_iter()
        .max()
        .unwrap_or(0) as u64
}

/// Everything the Section 6 experiments report about one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleCost {
    /// Last occupied step + 1.
    pub makespan: u64,
    /// Maximum machine-wide flit load of any step.
    pub max_slot_load: u64,
    /// Number of steps whose load exceeds `m`.
    pub overloaded_slots: u64,
    /// Whether every step carried at most `m` flits (the w.h.p. event of
    /// Theorems 6.2–6.4).
    pub no_slot_exceeds_m: bool,
    /// `c_m = Σ_t f_m(m_t)` under the chosen penalty.
    pub c_m: f64,
    /// `h = max(x̄, ȳ)` of the workload.
    pub h: u64,
    /// Total flits `n`.
    pub n: u64,
    /// The global-bandwidth lower bound `max(⌈n/m⌉, h)`.
    pub opt_lower: f64,
    /// The BSP(m) communication time of the superstep: `max(h, c_m)`.
    pub model_time: f64,
    /// `model_time / opt_lower` — the optimality ratio the paper bounds by
    /// `(1+ε)` (plus additive terms, depending on the variant).
    pub ratio_to_opt: f64,
}

/// Price a schedule under aggregate bandwidth `m` and the given overload
/// penalty.
///
/// # Panics
/// Panics if the schedule is invalid (call [`validate_schedule`] first for a
/// `Result`).
pub fn evaluate_schedule(
    schedule: &Schedule,
    wl: &Workload,
    m: usize,
    penalty: PenaltyFn,
) -> ScheduleCost {
    validate_schedule(schedule, wl).unwrap_or_else(|e| panic!("invalid schedule: {e}"));
    let loads = slot_loads(schedule, wl);
    let n = wl.n_flits();
    let h = wl.h();
    let makespan = loads.len() as u64;
    let max_slot_load = loads.iter().copied().max().unwrap_or(0);
    let overloaded_slots = loads.iter().filter(|&&l| l > m as u64).count() as u64;
    let c_m = penalty.total_charge(&loads, m);
    let opt_lower = if n == 0 {
        0.0
    } else {
        (div_ceil(n, m as u64).max(h)) as f64
    };
    let model_time = (h as f64).max(c_m);
    let ratio_to_opt = if opt_lower > 0.0 {
        model_time / opt_lower
    } else {
        1.0
    };
    ScheduleCost {
        makespan,
        max_slot_load,
        overloaded_slots,
        no_slot_exceeds_m: overloaded_slots == 0,
        c_m,
        h,
        n,
        opt_lower,
        model_time,
        ratio_to_opt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Msg, Workload};

    fn unit_wl() -> Workload {
        // proc 0 sends 3 to proc 1; proc 1 sends 1 to proc 0.
        Workload::from_dests(vec![vec![1, 1, 1], vec![0]])
    }

    #[test]
    fn validate_accepts_disjoint_slots() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        assert!(validate_schedule(&s, &wl).is_ok());
    }

    #[test]
    fn validate_rejects_overlap() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 1], vec![0]].into(),
        };
        assert_eq!(
            validate_schedule(&s, &wl).unwrap_err(),
            ScheduleError::Overlap { src: 0, slot: 1 }
        );
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1], vec![0]].into(),
        };
        assert!(matches!(
            validate_schedule(&s, &wl).unwrap_err(),
            ScheduleError::ShapeMismatch {
                src: 0,
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn flit_intervals_overlap_detected() {
        // One message of length 3 at slot 0 and one of length 1 at slot 2.
        let wl = Workload::new(vec![
            vec![Msg { dest: 1, len: 3 }, Msg { dest: 1, len: 1 }],
            vec![],
        ]);
        let bad = Schedule {
            starts: vec![vec![0, 2], vec![]].into(),
        };
        assert_eq!(
            validate_schedule(&bad, &wl).unwrap_err(),
            ScheduleError::Overlap { src: 0, slot: 2 }
        );
        let good = Schedule {
            starts: vec![vec![0, 3], vec![]].into(),
        };
        assert!(validate_schedule(&good, &wl).is_ok());
    }

    #[test]
    fn slot_loads_count_flits() {
        let wl = Workload::new(vec![
            vec![Msg { dest: 1, len: 2 }],
            vec![Msg { dest: 0, len: 1 }],
        ]);
        let s = Schedule {
            starts: vec![vec![1], vec![2]].into(),
        };
        assert_eq!(slot_loads(&s, &wl), vec![0, 1, 2]);
    }

    #[test]
    fn evaluate_balanced_schedule() {
        let wl = unit_wl();
        // m = 1: stagger so that each slot carries one flit.
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![3]].into(),
        };
        let cost = evaluate_schedule(&s, &wl, 1, PenaltyFn::Exponential);
        assert_eq!(cost.makespan, 4);
        assert_eq!(cost.max_slot_load, 1);
        assert!(cost.no_slot_exceeds_m);
        assert_eq!(cost.c_m, 4.0);
        assert_eq!(cost.h, 3);
        // opt = max(ceil(4/1), 3) = 4; model time = max(3, 4) = 4.
        assert_eq!(cost.opt_lower, 4.0);
        assert!((cost.ratio_to_opt - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_overloaded_schedule() {
        let wl = unit_wl();
        // Both processors inject at slot 0 (and proc 0 continues): load
        // [2,1,1] with m = 1.
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        let cost = evaluate_schedule(&s, &wl, 1, PenaltyFn::Exponential);
        assert_eq!(cost.max_slot_load, 2);
        assert_eq!(cost.overloaded_slots, 1);
        assert!(!cost.no_slot_exceeds_m);
        assert!((cost.c_m - (1.0f64.exp() + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn linear_penalty_charges_ratio() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        let cost = evaluate_schedule(&s, &wl, 1, PenaltyFn::Linear);
        assert!((cost.c_m - (2.0 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn to_profile_matches_slot_loads() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        let prof = to_profile(&s, &wl);
        assert_eq!(prof.injections, slot_loads(&s, &wl));
        assert_eq!(prof.max_sent, 3);
        assert_eq!(prof.max_received, 3);
        assert_eq!(prof.total_messages, 4);
    }

    #[test]
    fn audit_matches_evaluation() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        let params = MachineParams::new_unchecked(2, 4, 1, 1);
        let ev = audit_schedule(&s, &wl, params, "unit");
        assert_eq!(ev.profile, to_profile(&s, &wl));
        assert_eq!(ev.delivered, wl.n_flits());
        assert_eq!(ev.max_proc_slot_injections, 1);
        let cost = evaluate_schedule(&s, &wl, 1, PenaltyFn::Exponential);
        assert!((ev.breakdown.bandwidth - cost.c_m).abs() < 1e-12);
        let slot_sum: f64 = ev.slot_penalties.iter().sum();
        assert!((slot_sum - cost.c_m).abs() < 1e-12);
    }

    #[test]
    fn audit_reports_real_per_proc_overlap() {
        // A deliberately invalid schedule: proc 0 injects two flits at slot 0.
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 0, 1], vec![0]].into(),
        };
        let ev = audit_schedule(&s, &wl, MachineParams::new_unchecked(2, 1, 2, 1), "bad");
        assert_eq!(ev.max_proc_slot_injections, 2);
    }

    #[test]
    fn audit_to_respects_disabled_sink() {
        let wl = unit_wl();
        let s = Schedule {
            starts: vec![vec![0, 1, 2], vec![0]].into(),
        };
        let params = MachineParams::new_unchecked(2, 4, 1, 1);
        let rec = pbw_trace::RecordingSink::new();
        audit_schedule_to(&pbw_trace::NullSink, &s, &wl, params, "off");
        audit_schedule_to(&rec, &s, &wl, params, "on");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.take()[0].label, "on");
    }

    #[test]
    fn empty_workload_evaluates_cleanly() {
        let wl = Workload::new(vec![vec![], vec![]]);
        let s = Schedule {
            starts: vec![vec![], vec![]].into(),
        };
        let cost = evaluate_schedule(&s, &wl, 4, PenaltyFn::Exponential);
        assert_eq!(cost.makespan, 0);
        assert_eq!(cost.opt_lower, 0.0);
        assert!((cost.ratio_to_opt - 1.0).abs() < 1e-12);
    }
}
