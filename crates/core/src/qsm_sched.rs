//! Unbalanced shared-memory access scheduling on the QSM(m) — the paper's
//! "exercise left to the reader".
//!
//! > *"The results are stated for the BSP(m); the same techniques can be
//! > used to obtain similar results for the QSM(m), an exercise left to
//! > the reader."* (Section 1)
//!
//! The exercise, worked: processor `i` holds `x_i` pending shared-memory
//! requests (reads of known addresses and/or writes). The QSM(m) charges
//! `c_m = Σ_t f_m(m_t)` over the per-step *request* injections, so exactly
//! the Unbalanced-Send window trick applies: each processor with
//! `x_i ≤ (1+ε)n/m` picks a uniformly random offset in a window of
//! `(1+ε)n/m` steps and issues its requests cyclically; oversized
//! processors issue eagerly. Per-step request load stays below `m` w.h.p.
//! (the Chernoff argument is verbatim — the random variables are request
//! indicators instead of message indicators), yielding a phase of cost
//! `max((1+ε)n/m, h, κ)`.
//!
//! Two deliverables:
//!
//! * [`schedule_requests`] — the pure scheduling computation (slots for
//!   each processor's requests), mirroring `schedulers::UnbalancedSend`.
//! * [`run_unbalanced_reads`] — an end-to-end QSM execution: every
//!   processor reads its (arbitrarily unbalanced, possibly contended)
//!   address list at the scheduled slots; the engine meters `c_m`, `h` and
//!   `κ`, and the values are verified.

use crate::schedule::{Schedule, ScheduleError};
use pbw_models::{CostModel, MachineParams, PenaltyFn, QsmM, SuperstepProfile};
use pbw_sim::{QsmMachine, Word};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A per-processor batch of shared-memory requests (addresses to read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBatch {
    /// `reqs[i]` = the addresses processor `i` wants to read.
    pub reqs: Vec<Vec<usize>>,
}

impl RequestBatch {
    /// Build, validating addresses against a memory of `msize` cells.
    pub fn new(reqs: Vec<Vec<usize>>, msize: usize) -> Self {
        for list in &reqs {
            for &a in list {
                assert!(a < msize, "address {a} out of range ({msize})");
            }
        }
        RequestBatch { reqs }
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.reqs.len()
    }

    /// Total requests `n`.
    pub fn n(&self) -> u64 {
        self.reqs.iter().map(|l| l.len() as u64).sum()
    }

    /// Per-processor offsets of the requests in pid order (length `p + 1`):
    /// the layout of a request schedule's start table.
    fn offsets(&self) -> Vec<usize> {
        let mut off = Vec::with_capacity(self.p() + 1);
        off.push(0);
        for list in &self.reqs {
            off.push(off[off.len() - 1] + list.len());
        }
        off
    }

    /// `x̄`: the maximum per-processor request count.
    pub fn xbar(&self) -> u64 {
        self.reqs.iter().map(|l| l.len() as u64).max().unwrap_or(0)
    }

    /// `κ` of the batch: the maximum number of processors requesting any
    /// one location.
    pub fn contention(&self) -> u64 {
        use std::collections::HashMap;
        let mut by_addr: HashMap<usize, u64> = HashMap::new();
        for list in &self.reqs {
            let mut seen: Vec<usize> = list.clone();
            seen.sort_unstable();
            seen.dedup();
            for a in seen {
                *by_addr.entry(a).or_default() += 1;
            }
        }
        by_addr.values().copied().max().unwrap_or(0)
    }
}

/// The Unbalanced-Send window schedule, applied to memory requests:
/// returns a slot for every request (`starts[i][k]` for `batch.reqs[i][k]`).
pub fn schedule_requests(batch: &RequestBatch, m: usize, eps: f64, seed: u64) -> Schedule {
    assert!(eps > 0.0 && eps < 1.0);
    let n = batch.n();
    let w = (((1.0 + eps) * n as f64 / m as f64).ceil() as u64).max(1);
    Schedule::lay_out(batch.offsets(), |pid, out| {
        let x_i = batch.reqs[pid].len() as u64;
        if x_i == 0 {
            return;
        }
        if x_i <= w {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(pid as u64);
            let j = rng.gen_range(0..w);
            out.extend((0..x_i).map(|k| (j + k) % w));
        } else {
            out.extend(0..x_i);
        }
    })
}

/// The consecutive variant of the request schedule (the QSM(m) mirror of
/// Theorem 6.3): each in-window processor issues its requests in
/// *consecutive* steps from its random offset (no wrap) — the shape needed
/// when request initiation has per-burst setup cost. Completes within
/// `max((1+ε)n/m + x̄', x̄)` steps w.h.p.
pub fn schedule_requests_consecutive(
    batch: &RequestBatch,
    m: usize,
    eps: f64,
    seed: u64,
) -> Schedule {
    assert!(eps > 0.0 && eps < 1.0);
    let n = batch.n();
    let w = (((1.0 + eps) * n as f64 / m as f64).ceil() as u64).max(1);
    Schedule::lay_out(batch.offsets(), |pid, out| {
        let x_i = batch.reqs[pid].len() as u64;
        if x_i == 0 {
            return;
        }
        let j = if x_i <= w {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(pid as u64);
            rng.gen_range(0..w)
        } else {
            0
        };
        out.extend(j..j + x_i);
    })
}

/// Validate a request schedule (shape + one request per processor per
/// step).
pub fn validate_request_schedule(
    schedule: &Schedule,
    batch: &RequestBatch,
) -> Result<(), ScheduleError> {
    if schedule.starts.len() != batch.p() {
        return Err(ScheduleError::ShapeMismatch {
            src: 0,
            expected: batch.p(),
            got: schedule.starts.len(),
        });
    }
    for (pid, (slots, reqs)) in schedule.starts.iter().zip(&batch.reqs).enumerate() {
        if slots.len() != reqs.len() {
            return Err(ScheduleError::ShapeMismatch {
                src: pid,
                expected: reqs.len(),
                got: slots.len(),
            });
        }
        let mut s = slots.to_vec();
        s.sort_unstable();
        for w in s.windows(2) {
            if w[0] == w[1] {
                return Err(ScheduleError::Overlap {
                    src: pid,
                    slot: w[0],
                });
            }
        }
    }
    Ok(())
}

/// Outcome of an end-to-end unbalanced-read phase on the QSM engine.
#[derive(Debug, Clone)]
pub struct QsmReadOutcome {
    /// QSM(m, exponential) cost of the read phase.
    pub cost: f64,
    /// The phase's profile (for re-pricing).
    pub profile: SuperstepProfile,
    /// The global lower bound `max(n/m, x̄, κ)`.
    pub lower: f64,
    /// `cost / lower`.
    pub ratio: f64,
    /// Whether every processor read the correct values.
    pub ok: bool,
}

/// Execute an unbalanced read batch on the QSM machine using the window
/// schedule, then verify every returned value.
pub fn run_unbalanced_reads(
    params: MachineParams,
    memory: &[Word],
    batch: &RequestBatch,
    eps: f64,
    seed: u64,
) -> QsmReadOutcome {
    assert_eq!(batch.p(), params.p, "batch and machine disagree on p");
    let schedule = schedule_requests(batch, params.m, eps, seed);
    validate_request_schedule(&schedule, batch)
        .unwrap_or_else(|e| panic!("invalid request schedule: {e}"));

    let mut qsm: QsmMachine<Vec<Word>> = QsmMachine::new(params, memory.len(), |_| Vec::new());
    qsm.shared_mut().copy_from_slice(memory);

    let reqs = &batch.reqs;
    let starts = &schedule.starts;
    qsm.phase(move |pid, _s, _res, ctx| {
        for (&addr, &slot) in reqs[pid].iter().zip(&starts[pid]) {
            ctx.read_at(addr, slot);
        }
    });
    let read_profile = qsm.profiles()[0].clone();
    qsm.phase(move |_pid, s, res, _ctx| {
        *s = res.iter().map(|r| r.value).collect();
    });

    let ok = qsm.states().iter().zip(&batch.reqs).all(|(vals, addrs)| {
        vals.len() == addrs.len() && vals.iter().zip(addrs).all(|(&v, &a)| v == memory[a])
    });

    let model = QsmM {
        m: params.m,
        penalty: PenaltyFn::Exponential,
    };
    let cost = model.superstep_cost(&read_profile);
    let lower = (batch.n() as f64 / params.m as f64)
        .max(batch.xbar() as f64)
        .max(batch.contention() as f64);
    QsmReadOutcome {
        cost,
        profile: read_profile,
        lower,
        ratio: if lower > 0.0 { cost / lower } else { 1.0 },
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn memory(msize: usize) -> Vec<Word> {
        (0..msize).map(|i| 7000 + i as Word).collect()
    }

    fn uniform_batch(p: usize, per: usize, msize: usize, seed: u64) -> RequestBatch {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        RequestBatch::new(
            (0..p)
                .map(|_| (0..per).map(|_| rng.gen_range(0..msize)).collect())
                .collect(),
            msize,
        )
    }

    #[test]
    fn batch_stats() {
        let b = RequestBatch::new(vec![vec![0, 1, 0], vec![1], vec![]], 4);
        assert_eq!(b.n(), 4);
        assert_eq!(b.xbar(), 3);
        assert_eq!(b.contention(), 2); // address 1 wanted by procs 0 and 1
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_rejects_bad_address() {
        let _ = RequestBatch::new(vec![vec![9]], 4);
    }

    #[test]
    fn schedule_is_valid_and_windowed() {
        let b = uniform_batch(128, 16, 64, 1);
        let s = schedule_requests(&b, 32, 0.2, 7);
        validate_request_schedule(&s, &b).unwrap();
        let w = ((1.2 * b.n() as f64 / 32.0).ceil()) as u64;
        for (pid, slots) in s.starts.iter().enumerate() {
            if (b.reqs[pid].len() as u64) <= w {
                assert!(slots.iter().all(|&t| t < w));
            }
        }
    }

    #[test]
    fn reads_verified_and_near_optimal() {
        let params = MachineParams::from_bandwidth(256, 64, 4);
        let mem = memory(128);
        let b = uniform_batch(256, 16, 128, 2);
        let out = run_unbalanced_reads(params, &mem, &b, 0.3, 11);
        assert!(out.ok);
        assert!(out.ratio < 1.5, "ratio {}", out.ratio);
    }

    #[test]
    fn hot_requester_handled() {
        // One processor wants 2048 reads; everyone else 4.
        let params = MachineParams::from_bandwidth(128, 32, 4);
        let mem = memory(64);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut reqs: Vec<Vec<usize>> = (0..128)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect();
        reqs[0] = (0..2048).map(|_| rng.gen_range(0..64)).collect();
        let b = RequestBatch::new(reqs, 64);
        let out = run_unbalanced_reads(params, &mem, &b, 0.3, 5);
        assert!(out.ok);
        // x̄ dominates; the schedule must not inflate it.
        assert!(out.cost >= 2048.0);
        assert!(out.ratio < 1.4, "ratio {}", out.ratio);
    }

    #[test]
    fn contended_location_priced_by_kappa() {
        // Everyone reads address 0: κ = p dominates — scheduling cannot
        // help contention (QSM charges κ regardless), and the outcome says
        // so honestly.
        let params = MachineParams::from_bandwidth(128, 32, 4);
        let mem = memory(8);
        let b = RequestBatch::new(vec![vec![0]; 128], 8);
        let out = run_unbalanced_reads(params, &mem, &b, 0.3, 9);
        assert!(out.ok);
        assert_eq!(out.profile.max_contention, 128);
        assert!(out.ratio <= 1.05, "κ should dominate, ratio {}", out.ratio);
    }

    #[test]
    fn consecutive_requests_are_contiguous_and_valid() {
        let b = uniform_batch(128, 16, 64, 6);
        let s = schedule_requests_consecutive(&b, 32, 0.25, 9);
        validate_request_schedule(&s, &b).unwrap();
        for slots in s.starts.iter() {
            for w in slots.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn consecutive_requests_within_additive_bound() {
        let b = uniform_batch(256, 16, 64, 7);
        let m = 64;
        let eps = 0.3;
        let s = schedule_requests_consecutive(&b, m, eps, 3);
        let makespan = s
            .starts
            .iter()
            .flat_map(|v| v.iter().copied())
            .max()
            .map(|t| t + 1)
            .unwrap_or(0);
        let target = (1.0 + eps) * b.n() as f64 / m as f64 + b.xbar() as f64;
        assert!(
            (makespan as f64) <= target + 2.0,
            "makespan {makespan} > {target}"
        );
    }

    #[test]
    fn empty_batch() {
        let params = MachineParams::from_bandwidth(16, 4, 2);
        let b = RequestBatch::new(vec![Vec::new(); 16], 4);
        let out = run_unbalanced_reads(params, &memory(4), &b, 0.2, 0);
        assert!(out.ok);
    }

    #[test]
    fn deterministic_per_seed() {
        let b = uniform_batch(64, 8, 32, 4);
        let a = schedule_requests(&b, 16, 0.2, 5);
        let c = schedule_requests(&b, 16, 0.2, 5);
        let d = schedule_requests(&b, 16, 0.2, 6);
        assert_eq!(a, c);
        assert_ne!(a, d);
    }
}
