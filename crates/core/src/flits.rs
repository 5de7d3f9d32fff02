//! Long messages and start-up overheads (Section 6.1, final paragraphs).
//!
//! When messages have lengths and their flits must occupy **consecutive**
//! time steps (bufferless, wormhole-style streams as in Bhatt et al.), the
//! cyclic layout of Unbalanced-Send would fragment a message that crosses
//! the window boundary. The paper's fix: such a message simply *continues
//! past the window* — at most one message per processor can cross, so the
//! additive cost is at most `ℓ̂`, the maximum message length. This is
//! [`UnbalancedFlitSend`].
//!
//! When initiating a message additionally costs a gap `o` (the LogP
//! overhead), every message is prepended with a dummy preamble of length `o`
//! and scheduled with the flit algorithm on the inflated total
//! `n' = Σ(ℓ+o)`; the resulting bound is
//! `(1+ε)(1+o/ℓ̄)·n/m + ℓ̂ + o`. This is [`OverheadSend`].

use crate::schedule::{validate_starts, Schedule, ScheduleCost, ScheduleError, StartTable};
use crate::schedulers::Scheduler;
use crate::workload::{Msg, Workload};
use pbw_models::{div_ceil, PenaltyFn};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The long-message variant of Unbalanced-Send: messages of one processor
/// are laid out consecutively in a cyclic window of `(1+ε)n/m` flit-slots;
/// a message that would wrap instead runs straight past the window
/// (additive `ℓ̂`).
#[derive(Debug, Clone, Copy)]
pub struct UnbalancedFlitSend {
    /// The slack ε < 1.
    pub eps: f64,
}

impl UnbalancedFlitSend {
    /// Create with slack `eps ∈ (0,1)`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        UnbalancedFlitSend { eps }
    }
}

impl Scheduler for UnbalancedFlitSend {
    fn name(&self) -> &'static str {
        "Unbalanced-Flit-Send"
    }

    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule {
        let n = wl.n_flits();
        let w = (((1.0 + self.eps) * n as f64 / m as f64).ceil() as u64).max(1);
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let msgs = wl.msgs(pid);
            let x_i: u64 = msgs.iter().map(|m| m.len).sum();
            if msgs.is_empty() {
                return;
            }
            if x_i > w {
                // Oversized sender: eager consecutive stream from 0.
                let mut t = 0u64;
                out.extend(msgs.iter().map(|msg| {
                    let s = t;
                    t += msg.len;
                    s
                }));
                return;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(pid as u64);
            let j = rng.gen_range(0..w);
            // Lay the flit stream cyclically from j; the (at most one)
            // message crossing the window boundary extends past it.
            let mut cursor = j;
            out.extend(msgs.iter().map(|msg| {
                let start = cursor;
                let end = cursor + msg.len;
                if end < w {
                    cursor = end;
                } else if end == w {
                    cursor = 0;
                } else {
                    // Crossing message: keep it contiguous past w; the rest
                    // of the stream resumes at the wrapped position.
                    cursor = end - w;
                }
                start
            }))
        })
    }
}

/// A schedule in the presence of a per-message start-up overhead `o`: the
/// processor is busy during `[window_start, window_start + o + ℓ)` but the
/// network carries flits only during the final `ℓ` steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheadSchedule {
    /// `window_starts[src][k]`: start of the k-th message's (overhead +
    /// flits) window.
    pub window_starts: StartTable,
    /// The per-message start-up cost.
    pub o: u64,
}

/// The start-up-overhead variant: schedule the workload with every message
/// inflated by a dummy `o`-flit preamble (Section 6.1's "simple approach").
#[derive(Debug, Clone, Copy)]
pub struct OverheadSend {
    /// The slack ε < 1.
    pub eps: f64,
    /// The per-message start-up cost `o`.
    pub o: u64,
}

impl OverheadSend {
    /// Create with slack `eps ∈ (0,1)` and overhead `o`.
    pub fn new(eps: f64, o: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        OverheadSend { eps, o }
    }

    /// Produce the overhead-aware schedule.
    pub fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> OverheadSchedule {
        let inner = UnbalancedFlitSend::new(self.eps).schedule(&padded(wl, self.o), m, seed);
        OverheadSchedule {
            window_starts: inner.starts,
            o: self.o,
        }
    }
}

/// `wl` with every message inflated by a dummy `o`-flit preamble: each
/// message of length `ℓ` becomes `ℓ + o`, same layout and destinations.
fn padded(wl: &Workload, o: u64) -> Workload {
    let mut padded = Workload::new(Vec::new());
    padded.refill(wl.p(), wl.messages().len(), |src, out| {
        out.extend(wl.msgs(src).iter().map(|msg| Msg {
            dest: msg.dest,
            len: msg.len + o,
        }))
    });
    padded
}

/// Validate an overhead schedule: per-processor `(o + ℓ)`-windows must be
/// disjoint (the processor is busy during the whole window).
pub fn validate_overhead_schedule(
    sched: &OverheadSchedule,
    wl: &Workload,
) -> Result<(), ScheduleError> {
    // Reuse the plain validator on the inflated workload.
    validate_starts(&sched.window_starts, &padded(wl, sched.o))
}

/// Price an overhead schedule: network load counts only real flits (the
/// last `ℓ` steps of each window); `h` and `n` are flit quantities of the
/// *original* workload; makespan includes the overhead windows.
pub fn evaluate_overhead_schedule(
    sched: &OverheadSchedule,
    wl: &Workload,
    m: usize,
    penalty: PenaltyFn,
) -> ScheduleCost {
    validate_overhead_schedule(sched, wl)
        .unwrap_or_else(|e| panic!("invalid overhead schedule: {e}"));
    let o = sched.o;
    // Validation matched the table's shape to the workload's, so the flat
    // slots and messages align one to one.
    let windows = || sched.window_starts.slots().iter().zip(wl.messages());
    let makespan = windows()
        .map(|(&s, msg)| s + o + msg.len)
        .max()
        .unwrap_or(0);
    let mut loads = vec![0u64; makespan as usize];
    for (&s, msg) in windows() {
        for t in s + o..s + o + msg.len {
            loads[t as usize] += 1;
        }
    }
    let n = wl.n_flits();
    let h = wl.h();
    let max_slot_load = loads.iter().copied().max().unwrap_or(0);
    let overloaded_slots = loads.iter().filter(|&&l| l > m as u64).count() as u64;
    let c_m = penalty.total_charge(&loads, m);
    let opt_lower = if n == 0 {
        0.0
    } else {
        (div_ceil(n, m as u64).max(h)) as f64
    };
    let model_time = (h as f64).max(c_m);
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
        ratio_to_opt: if opt_lower > 0.0 {
            model_time / opt_lower
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{evaluate_schedule, validate_schedule};
    use crate::workload;

    #[test]
    fn flit_schedule_is_contiguous_per_message() {
        // Contiguity is the representation (start + len); validity is the
        // real check: no processor sends two flits at once.
        let wl = workload::variable_length(64, 8, 4.0, 3);
        let sched = UnbalancedFlitSend::new(0.2).schedule(&wl, 32, 1);
        validate_schedule(&sched, &wl).unwrap();
    }

    #[test]
    fn flit_schedule_respects_bandwidth_whp() {
        let wl = workload::variable_length(256, 16, 4.0, 5);
        let m = 128;
        let sched = UnbalancedFlitSend::new(0.3).schedule(&wl, m, 2);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        assert!(cost.no_slot_exceeds_m, "max load {}", cost.max_slot_load);
    }

    #[test]
    fn flit_makespan_within_window_plus_lhat() {
        let wl = workload::variable_length(256, 16, 4.0, 8);
        let m = 64;
        let eps = 0.25;
        let sched = UnbalancedFlitSend::new(eps).schedule(&wl, m, 3);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        let w = ((1.0 + eps) * wl.n_flits() as f64 / m as f64).ceil();
        let bound = w + wl.lhat() as f64 + wl.xbar() as f64;
        assert!(
            (cost.makespan as f64) <= bound,
            "makespan {} > {}",
            cost.makespan,
            bound
        );
        // Small senders: also check the tight w + ℓ̂ bound directly when no
        // sender exceeds the window.
        if wl.xbar() as f64 <= w {
            assert!((cost.makespan as f64) <= w + wl.lhat() as f64);
        }
    }

    #[test]
    fn flit_unit_workload_matches_unbalanced_send_shape() {
        // On unit messages the flit scheduler degenerates to cyclic
        // unit-slot assignment — same distribution as Unbalanced-Send.
        let wl = workload::uniform_random(64, 8, 4);
        let m = 16;
        let sched = UnbalancedFlitSend::new(0.2).schedule(&wl, m, 7);
        validate_schedule(&sched, &wl).unwrap();
        let w = ((1.2_f64) * wl.n_flits() as f64 / m as f64).ceil() as u64;
        for starts in sched.starts.iter() {
            for &s in starts {
                assert!(s < w, "unit flit start {s} outside window {w}");
            }
        }
    }

    #[test]
    fn oversized_flit_sender_sends_eagerly() {
        let mut sends = vec![Vec::new(); 8];
        sends[0] = vec![Msg { dest: 1, len: 500 }, Msg { dest: 2, len: 500 }];
        let wl = Workload::new(sends);
        let sched = UnbalancedFlitSend::new(0.2).schedule(&wl, 4, 0);
        assert_eq!(sched.starts[0], vec![0, 500]);
    }

    #[test]
    fn at_most_one_crossing_message() {
        // With x_i ≤ w, at most one message extends past the window.
        let wl = workload::variable_length(128, 4, 8.0, 9);
        let m = 64;
        let eps = 0.2;
        let w = ((1.0 + eps) * wl.n_flits() as f64 / m as f64).ceil() as u64;
        let sched = UnbalancedFlitSend::new(eps).schedule(&wl, m, 4);
        for (pid, starts) in sched.starts.iter().enumerate() {
            let x_i: u64 = wl.msgs(pid).iter().map(|m| m.len).sum();
            if x_i > w {
                continue;
            }
            let crossing = starts
                .iter()
                .zip(wl.msgs(pid))
                .filter(|(&s, msg)| s < w && s + msg.len > w)
                .count();
            assert!(crossing <= 1, "pid {pid}: {crossing} crossing messages");
        }
    }

    #[test]
    fn overhead_schedule_valid_and_charges_only_flits() {
        let wl = workload::variable_length(64, 8, 4.0, 6);
        let m = 32;
        let o = 3;
        let sched = OverheadSend::new(0.2, o).schedule(&wl, m, 1);
        validate_overhead_schedule(&sched, &wl).unwrap();
        let cost = evaluate_overhead_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        // Total network flits = n (original), not n + o·msgs.
        let loads_total: u64 = wl.n_flits();
        assert_eq!(cost.n, loads_total);
    }

    #[test]
    fn overhead_makespan_within_target() {
        let wl = workload::variable_length(128, 8, 4.0, 2);
        let m = 32;
        let (eps, o) = (0.25, 4u64);
        let sched = OverheadSend::new(eps, o).schedule(&wl, m, 9);
        let cost = evaluate_overhead_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        let target = pbw_models::bounds::overhead_send_target(
            wl.n_flits(),
            m,
            wl.lbar(),
            wl.lhat(),
            o,
            eps,
            wl.p(),
            1,
        );
        assert!(
            (cost.makespan as f64) <= target + wl.xbar() as f64 + (o as f64),
            "makespan {} > target {}",
            cost.makespan,
            target
        );
    }

    #[test]
    fn overhead_zero_matches_flit_send() {
        let wl = workload::variable_length(32, 4, 3.0, 8);
        let m = 16;
        let a = OverheadSend::new(0.2, 0).schedule(&wl, m, 5);
        let b = UnbalancedFlitSend::new(0.2).schedule(&wl, m, 5);
        assert_eq!(a.window_starts, b.starts);
    }

    #[test]
    fn overhead_windows_do_not_overlap() {
        let wl = workload::variable_length(32, 8, 2.0, 10);
        let sched = OverheadSend::new(0.3, 5).schedule(&wl, 16, 3);
        // Manual overlap check on (o+ℓ)-windows.
        for (src, starts) in sched.window_starts.iter().enumerate() {
            let mut ivals: Vec<(u64, u64)> = starts
                .iter()
                .zip(wl.msgs(src))
                .map(|(&s, m)| (s, s + sched.o + m.len))
                .collect();
            ivals.sort_unstable();
            for w in ivals.windows(2) {
                assert!(w[1].0 >= w[0].1, "src {src} windows overlap");
            }
        }
    }
}
