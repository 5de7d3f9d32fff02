//! The Section 6.1 scheduling algorithms.
//!
//! All schedulers consume a [`Workload`] and produce a [`Schedule`] of
//! injection slots. The randomized ones draw per-processor randomness from
//! independent ChaCha streams keyed by `(seed, pid)`, exactly the
//! information structure of the paper: each processor knows its own `x_i`
//! and the broadcast value `n`, nothing else.

use crate::schedule::{Schedule, StartTable};
use crate::workload::Workload;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A scheduling algorithm for unbalanced h-relations.
pub trait Scheduler {
    /// Display name for experiment tables.
    fn name(&self) -> &'static str;

    /// Produce injection slots for `wl` under aggregate bandwidth `m`.
    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule;
}

fn proc_rng(seed: u64, pid: usize) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(pid as u64);
    rng
}

/// The window `(1+ε)·n/m` of Theorems 6.2/6.3, as an integer ≥ 1.
fn window(n: u64, m: usize, eps: f64) -> u64 {
    (((1.0 + eps) * n as f64 / m as f64).ceil() as u64).max(1)
}

// ---------------------------------------------------------------------------
// Algorithm Unbalanced-Send (Theorem 6.2)
// ---------------------------------------------------------------------------

/// **Algorithm Unbalanced-Send** (Theorem 6.2).
///
/// Every processor `i` with `x_i ≤ (1+ε)n/m` picks a uniformly random offset
/// `j_i` in the window `[0, (1+ε)n/m)` and sends its messages in consecutive
/// slots *modulo the window* starting at `j_i`; processors with more
/// messages than the window send eagerly from slot 0.
///
/// W.h.p. (probability `1 − e^{−Ω(ε²m)}`, provided `n < e^{αm}`) no step
/// carries more than `m` messages, so the schedule completes in
/// `max((1+ε)n/m, x̄, ȳ)` even under the exponential overload penalty.
///
/// ```
/// use pbw_core::schedulers::{Scheduler, UnbalancedSend};
/// use pbw_core::{evaluate_schedule, workload};
/// use pbw_models::PenaltyFn;
///
/// let wl = workload::single_hot_sender(256, 2048, 4, 1);
/// let m = 64;
/// let plan = UnbalancedSend::new(0.3).schedule(&wl, m, 42);
/// let cost = evaluate_schedule(&plan, &wl, m, PenaltyFn::Exponential);
/// assert!(cost.ratio_to_opt < 1.35); // within (1+ε) of the offline optimum
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UnbalancedSend {
    /// The slack ε < 1.
    pub eps: f64,
}

impl UnbalancedSend {
    /// Create with slack `eps` (must be in `(0, 1)`).
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        UnbalancedSend { eps }
    }
}

impl Scheduler for UnbalancedSend {
    fn name(&self) -> &'static str {
        "Unbalanced-Send"
    }

    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule {
        assert!(
            wl.is_unit(),
            "Unbalanced-Send handles unit messages; use flits::UnbalancedFlitSend"
        );
        let n = wl.n_flits();
        let w = window(n, m, self.eps);
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let x_i = wl.msgs(pid).len() as u64;
            if x_i == 0 {
                return;
            }
            if x_i <= w {
                let j = proc_rng(seed, pid).gen_range(0..w);
                out.extend((0..x_i).map(|k| (j + k) % w));
            } else {
                out.extend(0..x_i);
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Algorithm Unbalanced-Consecutive-Send (Theorem 6.3)
// ---------------------------------------------------------------------------

/// **Algorithm Unbalanced-Consecutive-Send** (Theorem 6.3).
///
/// As [`UnbalancedSend`], but a processor sends all of its messages in
/// *consecutive* slots starting at its random offset (no wrap-around) — the
/// shape needed when message start-up costs make fragmentation expensive.
/// Completes in `max((1+ε)n/m + x̄', x̄, ȳ)` w.h.p., where `x̄'` is the
/// largest send count among in-window processors.
#[derive(Debug, Clone, Copy)]
pub struct UnbalancedConsecutiveSend {
    /// The slack ε < 1.
    pub eps: f64,
}

impl UnbalancedConsecutiveSend {
    /// Create with slack `eps` (must be in `(0, 1)`).
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        UnbalancedConsecutiveSend { eps }
    }
}

impl Scheduler for UnbalancedConsecutiveSend {
    fn name(&self) -> &'static str {
        "Unbalanced-Consecutive-Send"
    }

    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule {
        assert!(
            wl.is_unit(),
            "use flits::UnbalancedFlitSend for variable lengths"
        );
        let n = wl.n_flits();
        let w = window(n, m, self.eps);
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let x_i = wl.msgs(pid).len() as u64;
            if x_i == 0 {
                return;
            }
            let j = if x_i <= w {
                proc_rng(seed, pid).gen_range(0..w)
            } else {
                0
            };
            out.extend(j..j + x_i);
        })
    }
}

/// `x̄'` of Theorem 6.3: the maximum send count among processors with at
/// most `(1+ε)n/m` messages.
pub fn xbar_small(wl: &Workload, m: usize, eps: f64) -> u64 {
    let w = window(wl.n_flits(), m, eps);
    wl.send_counts()
        .into_iter()
        .filter(|&x| x <= w)
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Algorithm Unbalanced-Granular-Send (Theorem 6.4)
// ---------------------------------------------------------------------------

/// **Algorithm Unbalanced-Granular-Send** (Theorem 6.4).
///
/// Offsets are restricted to multiples of the granularity `t' = n/p` inside
/// a window of `c·n/m` slots, so only `c'·p/m` offset choices exist and the
/// union bound runs over `p/m` events instead of `n/m` — the failure
/// probability then requires only `p < e^{αm}` rather than `n < e^{αm}`.
/// Completes in `c·n/m` w.h.p.
#[derive(Debug, Clone, Copy)]
pub struct UnbalancedGranularSend {
    /// The window constant `c` (the theorem asserts some constant works;
    /// `c = 3` comfortably satisfies the analysis' `(1+ε)` slack).
    pub c: f64,
}

impl UnbalancedGranularSend {
    /// Create with window constant `c ≥ 2`.
    pub fn new(c: f64) -> Self {
        assert!(c >= 2.0, "the analysis needs c ≥ 2");
        UnbalancedGranularSend { c }
    }
}

impl Default for UnbalancedGranularSend {
    fn default() -> Self {
        Self::new(3.0)
    }
}

impl Scheduler for UnbalancedGranularSend {
    fn name(&self) -> &'static str {
        "Unbalanced-Granular-Send"
    }

    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule {
        assert!(wl.is_unit(), "granular send handles unit messages");
        let n = wl.n_flits();
        let p = wl.p() as u64;
        // t' = n/p, the "padded average" granularity (≥ 1).
        let t_prime = (n / p).max(1);
        let window = ((self.c * n as f64 / m as f64).ceil() as u64).max(t_prime);
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let x_i = wl.msgs(pid).len() as u64;
            if x_i == 0 {
                return;
            }
            let j0 = if x_i <= n / (m as u64).max(1) {
                // Number of grid offsets that keep the run inside the
                // window: (window − x_i)/t', at least 1.
                let choices = (window.saturating_sub(x_i) / t_prime).max(1);
                let j = proc_rng(seed, pid).gen_range(0..choices);
                j * t_prime
            } else {
                0
            };
            out.extend(j0..j0 + x_i);
        })
    }
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

/// The optimal *offline* schedule: with full knowledge of all `x_i`, the
/// wrap-around rule packs the messages into exactly
/// `T = max(⌈n/m⌉, x̄)` slots with every slot load ≤ `m` — the comparator
/// for the `(1+ε)`-optimality claims.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfflineOptimal;

impl Scheduler for OfflineOptimal {
    fn name(&self) -> &'static str {
        "Offline-Optimal"
    }

    fn schedule(&self, wl: &Workload, m: usize, _seed: u64) -> Schedule {
        assert!(wl.is_unit(), "offline optimal packs unit messages");
        let n = wl.n_flits();
        if n == 0 {
            return Schedule::lay_out(wl.offsets().to_vec(), |_, _| {});
        }
        let t = pbw_models::div_ceil(n, m as u64).max(wl.xbar());
        // Wrap-around rule: processors in descending x_i, consecutive slots
        // mod T from a running pointer. Slot loads differ by at most one, so
        // no slot exceeds ⌈n/T⌉ ≤ m; per-processor slots are distinct since
        // x_i ≤ T.
        let mut order: Vec<usize> = (0..wl.p()).collect();
        let counts = wl.send_counts();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut starts = StartTable::new(wl.offsets().to_vec(), vec![0; n as usize]);
        let mut ptr = 0u64;
        for &i in &order {
            for (k, s) in starts[i].iter_mut().enumerate() {
                *s = (ptr + k as u64) % t;
            }
            ptr = (ptr + counts[i]) % t;
        }
        Schedule { starts }
    }
}

/// The bandwidth-oblivious baseline: every processor pipelines its messages
/// from step 0 — exactly what a BSP(g) program does, since locally-limited
/// models need no staggering. Under the BSP(m) exponential penalty the
/// initial steps carry up to `p` flits and cost `e^{p/m − 1}` each.
#[derive(Debug, Clone, Copy, Default)]
pub struct EagerSend;

impl Scheduler for EagerSend {
    fn name(&self) -> &'static str {
        "Eager (oblivious)"
    }

    fn schedule(&self, wl: &Workload, _m: usize, _seed: u64) -> Schedule {
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let mut t = 0u64;
            out.extend(wl.msgs(pid).iter().map(|msg| {
                let s = t;
                t += msg.len;
                s
            }))
        })
    }
}

// ---------------------------------------------------------------------------
// The template generalization (Section 6.1, closing remark)
// ---------------------------------------------------------------------------

/// **Template-Send** — the paper's generalization:
///
/// > *"We can use the same algorithm on any sending pattern 'template',
/// > where the sending times are chosen by cyclically shifting the template
/// > by j slots."*
///
/// Each processor supplies a *template*: the relative slots (within the
/// window) at which it wants to inject — e.g. `0, s, 2s, …` to keep a
/// separation of `s` between its own messages. The scheduler shifts each
/// processor's template by an independent uniform offset (mod the window).
/// The Chernoff analysis is unchanged: each slot's expected load is still
/// `Σ x_i / window ≤ m/(1+ε)`.
#[derive(Debug, Clone)]
pub struct TemplateSend {
    /// The slack ε < 1 (window = `(1+ε)·n_slots/m` where `n_slots` is the
    /// total template mass).
    pub eps: f64,
    /// Per-message separation within a processor (template =
    /// `0, sep, 2·sep, …`). `sep = 1` recovers plain Unbalanced-Send.
    pub separation: u64,
}

impl TemplateSend {
    /// Create with slack `eps ∈ (0,1)` and per-processor message
    /// separation `sep ≥ 1`.
    pub fn new(eps: f64, separation: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        assert!(separation >= 1);
        TemplateSend { eps, separation }
    }
}

impl Scheduler for TemplateSend {
    fn name(&self) -> &'static str {
        "Template-Send"
    }

    fn schedule(&self, wl: &Workload, m: usize, seed: u64) -> Schedule {
        assert!(wl.is_unit(), "Template-Send handles unit messages");
        let sep = self.separation;
        // Template mass: each message occupies one slot but claims a
        // sep-wide stride of the cyclic window, so the window must cover
        // sep·x_i for every in-window processor; scale n accordingly.
        let n = wl.n_flits() * sep;
        let w = (((1.0 + self.eps) * n as f64 / m as f64).ceil() as u64).max(1);
        Schedule::lay_out(wl.offsets().to_vec(), |pid, out| {
            let x_i = wl.msgs(pid).len() as u64;
            if x_i == 0 {
                return;
            }
            if x_i * sep <= w {
                let j = proc_rng(seed, pid).gen_range(0..w);
                out.extend((0..x_i).map(|k| (j + k * sep) % w));
            } else {
                out.extend((0..x_i).map(|k| k * sep));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{evaluate_schedule, validate_schedule};
    use crate::workload;
    use pbw_models::PenaltyFn;

    #[test]
    fn unbalanced_send_is_valid_and_within_window() {
        let wl = workload::uniform_random(256, 64, 3);
        let m = 64;
        let sched = UnbalancedSend::new(0.2).schedule(&wl, m, 42);
        validate_schedule(&sched, &wl).unwrap();
        let w = (((1.2) * wl.n_flits() as f64 / m as f64).ceil()) as u64;
        for (pid, starts) in sched.starts.iter().enumerate() {
            if (wl.msgs(pid).len() as u64) <= w {
                assert!(starts.iter().all(|&s| s < w));
            }
        }
    }

    #[test]
    fn unbalanced_send_respects_bandwidth_whp() {
        // m = 128 and ε = 0.3: failure probability e^{−Ω(ε²m)} is tiny.
        let wl = workload::uniform_random(512, 128, 7);
        let m = 128;
        let sched = UnbalancedSend::new(0.3).schedule(&wl, m, 1);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        assert!(
            cost.no_slot_exceeds_m,
            "max load {} > m {}",
            cost.max_slot_load, m
        );
        // Within (1+ε) of the lower bound, up to rounding.
        assert!(cost.ratio_to_opt <= 1.35, "ratio {}", cost.ratio_to_opt);
    }

    #[test]
    fn unbalanced_send_handles_hot_sender() {
        let wl = workload::single_hot_sender(256, 8192, 4, 9);
        let m = 64;
        let sched = UnbalancedSend::new(0.2).schedule(&wl, m, 5);
        validate_schedule(&sched, &wl).unwrap();
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        assert!(cost.no_slot_exceeds_m);
        // Hot sender sends eagerly: makespan ≈ max(window, x̄).
        assert!(cost.makespan >= 8192);
        assert!(cost.ratio_to_opt < 1.3, "ratio {}", cost.ratio_to_opt);
    }

    #[test]
    fn unbalanced_send_is_deterministic_per_seed() {
        let wl = workload::uniform_random(64, 16, 0);
        let a = UnbalancedSend::new(0.2).schedule(&wl, 16, 11);
        let b = UnbalancedSend::new(0.2).schedule(&wl, 16, 11);
        let c = UnbalancedSend::new(0.2).schedule(&wl, 16, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "unit messages")]
    fn unbalanced_send_rejects_flit_workloads() {
        let wl = workload::variable_length(8, 4, 3.0, 0);
        let _ = UnbalancedSend::new(0.2).schedule(&wl, 4, 0);
    }

    #[test]
    fn consecutive_send_runs_are_contiguous() {
        let wl = workload::uniform_random(128, 32, 5);
        let sched = UnbalancedConsecutiveSend::new(0.2).schedule(&wl, 32, 3);
        validate_schedule(&sched, &wl).unwrap();
        for starts in sched.starts.iter() {
            for (k, w) in starts.windows(2).enumerate() {
                assert_eq!(w[1], w[0] + 1, "message {k} not consecutive");
            }
        }
    }

    #[test]
    fn consecutive_send_within_additive_bound() {
        let wl = workload::uniform_random(512, 64, 2);
        let m = 128;
        let eps = 0.3;
        let sched = UnbalancedConsecutiveSend::new(eps).schedule(&wl, m, 17);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        // Theorem 6.3 target: (1+ε)n/m + x̄' (here all processors are small).
        let target = (1.0 + eps) * wl.n_flits() as f64 / m as f64 + xbar_small(&wl, m, eps) as f64;
        assert!(
            cost.makespan as f64 <= target + 2.0,
            "makespan {} > {}",
            cost.makespan,
            target
        );
        assert!(cost.no_slot_exceeds_m);
    }

    #[test]
    fn granular_send_starts_on_grid() {
        let wl = workload::uniform_random(128, 64, 8);
        let n = wl.n_flits();
        let t_prime = n / 128;
        let sched = UnbalancedGranularSend::default().schedule(&wl, 32, 21);
        validate_schedule(&sched, &wl).unwrap();
        for (pid, starts) in sched.starts.iter().enumerate() {
            if wl.msgs(pid).len() as u64 <= n / 32 {
                if let Some(&first) = starts.first() {
                    assert_eq!(first % t_prime, 0, "pid {pid} start {first} off-grid");
                }
            }
        }
    }

    #[test]
    fn granular_send_within_c_bound() {
        let wl = workload::uniform_random(512, 32, 4);
        let m = 64;
        let c = 3.0;
        let sched = UnbalancedGranularSend::new(c).schedule(&wl, m, 2);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        let bound = c * wl.n_flits() as f64 / m as f64 + wl.xbar() as f64;
        assert!(
            (cost.makespan as f64) <= bound,
            "makespan {} > {}",
            cost.makespan,
            bound
        );
        assert!(cost.no_slot_exceeds_m);
    }

    #[test]
    fn offline_optimal_achieves_lower_bound_exactly() {
        for (p, per, m) in [(64usize, 16u64, 16usize), (128, 7, 32), (32, 100, 8)] {
            let wl = workload::uniform_random(p, per, 1);
            let sched = OfflineOptimal.schedule(&wl, m, 0);
            validate_schedule(&sched, &wl).unwrap();
            let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
            assert!(cost.no_slot_exceeds_m, "p={p}");
            assert_eq!(
                cost.makespan as f64,
                cost.opt_lower.max(wl.xbar() as f64),
                "p={p}"
            );
            assert!(
                (cost.ratio_to_opt - 1.0).abs() < 1e-9,
                "p={p} ratio={}",
                cost.ratio_to_opt
            );
        }
    }

    #[test]
    fn offline_optimal_hot_sender() {
        let wl = workload::single_hot_sender(64, 1000, 2, 3);
        let m = 16;
        let sched = OfflineOptimal.schedule(&wl, m, 0);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        assert!(cost.no_slot_exceeds_m);
        assert_eq!(cost.makespan, 1000); // x̄ dominates ⌈n/m⌉ = ⌈1126/16⌉ = 71
    }

    #[test]
    fn eager_send_overloads_under_global_penalty() {
        let p = 256;
        let wl = workload::permutation(p, 6);
        let m = 16;
        let eager = EagerSend.schedule(&wl, m, 0);
        let cost = evaluate_schedule(&eager, &wl, m, PenaltyFn::Exponential);
        // All p messages at slot 0: c_m = e^{p/m − 1} = e^15.
        assert_eq!(cost.max_slot_load, p as u64);
        assert!(cost.c_m > 1e6);
        let scheduled = UnbalancedSend::new(0.2).schedule(&wl, m, 0);
        let scost = evaluate_schedule(&scheduled, &wl, m, PenaltyFn::Exponential);
        assert!(scost.c_m < cost.c_m / 1000.0);
    }

    #[test]
    fn eager_send_flit_starts_are_cumulative() {
        let wl = workload::variable_length(4, 3, 4.0, 1);
        let sched = EagerSend.schedule(&wl, 4, 0);
        validate_schedule(&sched, &wl).unwrap();
        for (pid, starts) in sched.starts.iter().enumerate() {
            let mut expect = 0u64;
            for (k, &s) in starts.iter().enumerate() {
                assert_eq!(s, expect);
                expect += wl.msgs(pid)[k].len;
            }
        }
    }

    #[test]
    fn empty_processors_get_empty_plans() {
        let wl = workload::one_to_all(16);
        for sched in [
            UnbalancedSend::new(0.2).schedule(&wl, 4, 0),
            UnbalancedConsecutiveSend::new(0.2).schedule(&wl, 4, 0),
            UnbalancedGranularSend::default().schedule(&wl, 4, 0),
            OfflineOptimal.schedule(&wl, 4, 0),
            EagerSend.schedule(&wl, 4, 0),
        ] {
            validate_schedule(&sched, &wl).unwrap();
            for pid in 1..16 {
                assert!(sched.starts[pid].is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "ε must be in (0,1)")]
    fn rejects_bad_eps() {
        let _ = UnbalancedSend::new(1.5);
    }

    #[test]
    fn template_send_respects_separation() {
        let wl = workload::uniform_random(128, 16, 9);
        let m = 32;
        let sep = 4u64;
        let sched = TemplateSend::new(0.3, sep).schedule(&wl, m, 5);
        validate_schedule(&sched, &wl).unwrap();
        // Within one processor, any two slots differ by ≥ sep cyclically
        // (the template is an arithmetic progression mod the window, so
        // sorted adjacent gaps are at least sep — up to the single wrap
        // point, which is also ≥ sep because sep | window stride layout).
        let n = wl.n_flits() * sep;
        let w = ((1.3_f64) * n as f64 / m as f64).ceil() as u64;
        for slots in sched.starts.iter() {
            let mut v = slots.to_vec();
            v.sort_unstable();
            for pair in v.windows(2) {
                let gap = pair[1] - pair[0];
                let cyc = gap.min(w.saturating_sub(gap));
                assert!(gap >= sep || cyc >= 1, "gap {gap}");
            }
        }
    }

    #[test]
    fn template_send_sep_one_behaves_like_unbalanced_send() {
        // Identical window and layout law — and identical bandwidth
        // compliance.
        let wl = workload::uniform_random(256, 32, 4);
        let m = 64;
        let t = TemplateSend::new(0.3, 1).schedule(&wl, m, 8);
        let cost = evaluate_schedule(&t, &wl, m, PenaltyFn::Exponential);
        assert!(cost.ratio_to_opt < 1.45, "ratio {}", cost.ratio_to_opt);
    }

    #[test]
    fn template_send_spaced_still_near_optimal() {
        // With separation s the window stretches by s, so the completion
        // target becomes (1+ε)·s·n/m — the price of the spacing
        // constraint, not of the scheduler.
        let wl = workload::uniform_random(256, 16, 6);
        let m = 64;
        let sep = 3u64;
        let sched = TemplateSend::new(0.3, sep).schedule(&wl, m, 2);
        let cost = evaluate_schedule(&sched, &wl, m, PenaltyFn::Exponential);
        let target = 1.3 * (wl.n_flits() * sep) as f64 / m as f64 + 2.0;
        assert!(
            (cost.makespan as f64) <= target,
            "makespan {} > {}",
            cost.makespan,
            target
        );
        // Load still never explodes: expected per-slot load is m/(1+ε)·(1/sep)·sep.
        assert!(cost.c_m < 2.0 * cost.makespan as f64);
    }
}
