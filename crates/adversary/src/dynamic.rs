//! The dynamic routers of Section 6.2 and stability analysis.
//!
//! Both routers partition the time line into intervals and route each
//! interval's arrivals as one static batch:
//!
//! * [`AlgorithmB`] (Theorem 6.7) — intervals of length `w`; each batch is
//!   scheduled with Unbalanced-Send on the BSP(m); a batch's *service time*
//!   is the real elapsed machine time of its superstep, `Σ_t max(1,
//!   f_m(m_t))` over the schedule's span — a rare overloaded step really
//!   costs its exponential penalty, exactly the failure mode the theorem's
//!   M/G/1 argument absorbs.
//! * [`BspGIntervalRouter`] (Theorem 6.5) — intervals of length
//!   `max(g·⌈w/g⌉, L)`; a batch with per-processor maximum `h` is one
//!   h-relation costing `g·h`(+L). Stable iff `β ≤ 1/g`.
//!
//! Service is consumed through a Lindley-type backlog recursion: every
//! interval contributes `interval_len` time units of capacity; unfinished
//! batches queue FIFO. A [`StabilityTrace`] records backlog and queue-length
//! trajectories for the stability experiments.

use crate::adversary::Adversary;
use pbw_core::schedule::{audit_schedule, slot_loads, Schedule};
use pbw_core::schedulers::{Scheduler, UnbalancedSend};
use pbw_core::workload::Workload;
use pbw_models::{MachineParams, PenaltyFn};
use pbw_trace::{TraceSink, TraceSource};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// What a bounded router queue does with messages that do not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Truncate the arriving batch: newest messages are shed first (the
    /// queue protects in-progress work).
    DropNewest,
    /// Evict the oldest unfinished batches to make room for fresh traffic
    /// (the queue protects recency).
    DropOldest,
}

/// Backpressure for the interval routers: a bounded batch queue with a
/// shedding policy and an overload watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureConfig {
    /// Largest number of messages the queue may hold; arrivals beyond it
    /// are shed per `policy`.
    pub max_queue_msgs: u64,
    /// Queue length at or above which an interval counts as *overloaded*
    /// (drives [`StabilityTrace::overload_intervals`] and
    /// [`StabilityTrace::recovery_intervals`]).
    pub high_watermark: u64,
    /// What to shed when full.
    pub policy: ShedPolicy,
}

impl BackpressureConfig {
    /// A bounded queue shedding newest arrivals, with the watermark at half
    /// the bound.
    pub fn bounded(max_queue_msgs: u64) -> Self {
        BackpressureConfig {
            max_queue_msgs,
            high_watermark: (max_queue_msgs / 2).max(1),
            policy: ShedPolicy::DropNewest,
        }
    }
}

/// Time series from a dynamic-routing run.
#[derive(Debug, Clone)]
pub struct StabilityTrace {
    /// Interval length in machine steps.
    pub interval_len: u64,
    /// Messages waiting (in unfinished batches) at each interval boundary.
    pub queue_msgs: Vec<u64>,
    /// Outstanding service time (time units of work not yet performed) at
    /// each interval boundary.
    pub backlog_time: Vec<f64>,
    /// Service time of each completed batch.
    pub service_times: Vec<f64>,
    /// Total messages injected.
    pub injected: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Per-batch sojourn times, in intervals (completion − arrival), for
    /// every batch that finished during the run.
    pub batch_delays: Vec<u64>,
    /// Messages shed by backpressure (0 without a [`BackpressureConfig`]).
    pub shed_msgs: u64,
    /// Intervals whose boundary queue length reached the high watermark.
    pub overload_intervals: u64,
    /// Messages retransmitted after in-transit loss (0 unless routed via
    /// [`AlgorithmB::run_with_faults`]).
    pub retransmitted: u64,
    /// The overload watermark in force (0 = unbounded queue).
    pub high_watermark: u64,
}

impl StabilityTrace {
    fn empty(interval_len: u64, intervals: u64) -> Self {
        StabilityTrace {
            interval_len,
            queue_msgs: Vec::with_capacity(intervals as usize),
            backlog_time: Vec::with_capacity(intervals as usize),
            service_times: Vec::new(),
            injected: 0,
            delivered: 0,
            batch_delays: Vec::new(),
            shed_msgs: 0,
            overload_intervals: 0,
            retransmitted: 0,
            high_watermark: 0,
        }
    }

    /// The q-th percentile of batch sojourn (in intervals); `None` if no
    /// batch completed or `q` is not in `[0, 1]`.
    pub fn delay_percentile(&self, q: f64) -> Option<u64> {
        if !(0.0..=1.0).contains(&q) || self.batch_delays.is_empty() {
            return None;
        }
        let mut d = self.batch_delays.clone();
        d.sort_unstable();
        let idx = ((d.len() - 1) as f64 * q).round() as usize;
        Some(d[idx])
    }

    /// Post-burst recovery time: intervals from the *last* overloaded
    /// boundary until the queue first falls back to half the watermark.
    /// `None` if the run never overloaded or never recovered.
    pub fn recovery_intervals(&self) -> Option<u64> {
        if self.high_watermark == 0 {
            return None;
        }
        let last_over = self
            .queue_msgs
            .iter()
            .rposition(|&q| q >= self.high_watermark)?;
        let target = self.high_watermark / 2;
        self.queue_msgs[last_over..]
            .iter()
            .position(|&q| q <= target)
            .map(|off| off as u64)
    }

    /// Mean batch sojourn in intervals.
    pub fn mean_delay(&self) -> f64 {
        if self.batch_delays.is_empty() {
            return 0.0;
        }
        self.batch_delays.iter().sum::<u64>() as f64 / self.batch_delays.len() as f64
    }

    /// Mean batch service time.
    pub fn mean_service(&self) -> f64 {
        if self.service_times.is_empty() {
            return 0.0;
        }
        self.service_times.iter().sum::<f64>() / self.service_times.len() as f64
    }

    /// Backlog growth per interval, estimated from the second half of the
    /// run (a stable system hovers near zero; an unstable one grows
    /// linearly).
    pub fn backlog_growth(&self) -> f64 {
        let n = self.backlog_time.len();
        if n < 8 {
            return 0.0;
        }
        let q3 = &self.backlog_time[n / 2..3 * n / 4];
        let q4 = &self.backlog_time[3 * n / 4..];
        let m3 = q3.iter().sum::<f64>() / q3.len() as f64;
        let m4 = q4.iter().sum::<f64>() / q4.len() as f64;
        (m4 - m3) / (n as f64 / 4.0)
    }

    /// Heuristic stability verdict: backlog does not grow by a significant
    /// fraction of the interval length per interval.
    pub fn looks_stable(&self) -> bool {
        self.backlog_growth() < 0.05 * self.interval_len as f64
    }

    /// Maximum queued message count over the last half of the run.
    pub fn max_late_queue(&self) -> u64 {
        let n = self.queue_msgs.len();
        self.queue_msgs[n / 2..].iter().copied().max().unwrap_or(0)
    }
}

/// A batch waiting for (or in) service.
#[derive(Debug, Clone)]
struct Batch {
    msgs: u64,
    service_left: f64,
    service_total: f64,
    arrived: u64, // interval index of arrival
}

/// Optional router behaviours threaded through [`run_interval_router_cfg`].
#[derive(Debug, Clone, Copy, Default)]
struct RouterCfg {
    /// Bounded queue + shedding; `None` = unbounded (the paper's model).
    bp: Option<BackpressureConfig>,
    /// In-transit loss `(φ, seed)`: each admitted message is independently
    /// lost with probability φ (after consuming its batch's bandwidth) and
    /// retransmitted with the next interval's arrivals.
    loss: Option<(f64, u64)>,
}

/// Message conservation: `injected == delivered + queue_msgs.last() +
/// shed_msgs` at every interval boundary (retransmission copies in flight
/// are counted inside `queue_msgs`).
fn run_interval_router_cfg<F>(
    adv: &mut dyn Adversary,
    interval_len: u64,
    intervals: u64,
    cfg: RouterCfg,
    mut service_of: F,
) -> StabilityTrace
where
    F: FnMut(&[(usize, usize)]) -> f64,
{
    let mut queue: Vec<Batch> = Vec::new();
    let mut trace = StabilityTrace::empty(interval_len, intervals);
    if let Some(bp) = cfg.bp {
        trace.high_watermark = bp.high_watermark;
    }
    // Messages lost in transit, awaiting retransmission next interval.
    let mut carry: Vec<(usize, usize)> = Vec::new();
    let mut t = 0u64;
    for interval_idx in 0..intervals {
        // Collect this interval's arrivals.
        let mut arrivals: Vec<(usize, usize)> = Vec::new();
        for _ in 0..interval_len {
            arrivals.extend(adv.inject(t));
            t += 1;
        }
        trace.injected += arrivals.len() as u64;
        // Retransmissions travel with the fresh traffic (already counted in
        // `injected` when first admitted).
        if !carry.is_empty() {
            let mut resend = std::mem::take(&mut carry);
            trace.retransmitted += resend.len() as u64;
            resend.extend(arrivals);
            arrivals = resend;
        }
        // Backpressure: the queue is bounded; shed per policy.
        if let Some(bp) = cfg.bp {
            let mut queued: u64 = queue.iter().map(|b| b.msgs).sum();
            if bp.policy == ShedPolicy::DropOldest {
                while queued + arrivals.len() as u64 > bp.max_queue_msgs && !queue.is_empty() {
                    let evicted = queue.remove(0);
                    queued -= evicted.msgs;
                    trace.shed_msgs += evicted.msgs;
                }
            }
            let room = bp.max_queue_msgs.saturating_sub(queued) as usize;
            if arrivals.len() > room {
                trace.shed_msgs += (arrivals.len() - room) as u64;
                arrivals.truncate(room);
            }
        }
        // They become a batch (service computed when it enters the queue —
        // the schedule is drawn when the batch starts transmitting, but its
        // duration is independent of queue state, so computing it now is
        // equivalent).
        let mut pushed_now = false;
        if !arrivals.is_empty() {
            let service = service_of(&arrivals);
            trace.service_times.push(service);
            // In-transit loss: every message consumed bandwidth above, but
            // the lost ones miss their ack and go back out next interval.
            let mut good = arrivals.len() as u64;
            if let Some((phi, seed)) = cfg.loss {
                if phi > 0.0 {
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        seed ^ interval_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for &msg in &arrivals {
                        if rng.gen_bool(phi) {
                            carry.push(msg);
                            good -= 1;
                        }
                    }
                }
            }
            queue.push(Batch {
                msgs: good,
                service_left: service,
                service_total: service,
                arrived: interval_idx,
            });
            pushed_now = true;
        }
        // Consume `interval_len` time units of capacity FIFO. The *current*
        // interval's batch is eligible only in the next interval (the paper
        // starts batch i at interval i+1), so withhold the batch that
        // arrived during this interval, if any.
        let withhold = usize::from(pushed_now);
        let eligible = queue.len() - withhold;
        let mut capacity = interval_len as f64;
        let mut done = 0usize;
        for b in queue.iter_mut().take(eligible) {
            if capacity <= 0.0 {
                break;
            }
            let used = b.service_left.min(capacity);
            b.service_left -= used;
            capacity -= used;
            if b.service_left <= 1e-9 {
                done += 1;
                trace.delivered += b.msgs;
                trace
                    .batch_delays
                    .push(interval_idx.saturating_sub(b.arrived));
            }
        }
        let _ = done;
        queue.retain(|b| b.service_left > 1e-9);
        // Sanity: a batch's service never exceeds its total.
        debug_assert!(queue
            .iter()
            .all(|b| b.service_left <= b.service_total + 1e-9));
        let boundary_q: u64 = queue.iter().map(|b| b.msgs).sum::<u64>() + carry.len() as u64;
        trace.queue_msgs.push(boundary_q);
        trace
            .backlog_time
            .push(queue.iter().map(|b| b.service_left).sum());
        if let Some(bp) = cfg.bp {
            if boundary_q >= bp.high_watermark {
                trace.overload_intervals += 1;
            }
        }
        debug_assert_eq!(
            trace.injected,
            trace.delivered + boundary_q + trace.shed_msgs
        );
    }
    trace
}

/// The real elapsed machine time of a schedule on the BSP(m): every step
/// of its span costs `max(1, f_m(load))` under the exponential penalty.
pub(crate) fn service_time(sched: &Schedule, wl: &Workload, m: usize) -> f64 {
    slot_loads(sched, wl)
        .iter()
        .map(|&l| PenaltyFn::Exponential.charge(l, m).max(1.0))
        .sum()
}

/// The paper's Algorithm B on the BSP(m): interval length `w`, per-batch
/// service measured from an actual Unbalanced-Send schedule under the
/// exponential penalty.
///
/// ```
/// use pbw_adversary::{AlgorithmB, AqtParams, SteadyAdversary};
///
/// let params = AqtParams { w: 64, alpha: 2.0, beta: 0.25 };
/// let mut adversary = SteadyAdversary::new(64, params);
/// let router = AlgorithmB { p: 64, m: 8, w: 64, eps: 0.3, seed: 1 };
/// let trace = router.run(&mut adversary, 100);
/// assert!(trace.looks_stable()); // α = 2 ≪ m/(1+ε)
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmB {
    /// Number of processors.
    pub p: usize,
    /// Aggregate bandwidth `m`.
    pub m: usize,
    /// Interval length `w` (the adversary's window).
    pub w: u64,
    /// Unbalanced-Send slack ε.
    pub eps: f64,
    /// RNG seed (each batch gets an independent substream).
    pub seed: u64,
}

impl AlgorithmB {
    /// Route `intervals` windows of traffic from `adv`; returns the trace.
    ///
    /// Each routed batch additionally emits one [`TraceSource::Router`]
    /// event into the process-global trace sink (a no-op unless one is
    /// installed via [`pbw_trace::set_global_sink`]).
    pub fn run(&self, adv: &mut dyn Adversary, intervals: u64) -> StabilityTrace {
        self.run_with_sink(adv, intervals, pbw_trace::global_sink())
    }

    /// [`run`](Self::run) with an explicit trace sink: one event per
    /// non-empty batch, `superstep` = batch index, sequenced in routing
    /// order. The event's profile is the batch's Unbalanced-Send schedule
    /// audited against its arrivals.
    pub fn run_with_sink(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        sink: Arc<dyn TraceSink>,
    ) -> StabilityTrace {
        self.route(adv, intervals, RouterCfg::default(), sink)
    }

    /// [`run`](Self::run) behind a bounded router queue: arrivals beyond
    /// `bp.max_queue_msgs` are shed per `bp.policy`, and the trace gains
    /// overload/shed/recovery metrics.
    pub fn run_with_backpressure(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        bp: BackpressureConfig,
    ) -> StabilityTrace {
        let cfg = RouterCfg {
            bp: Some(bp),
            ..RouterCfg::default()
        };
        self.route(adv, intervals, cfg, pbw_trace::global_sink())
    }

    /// [`run`](Self::run) over a lossy network: each admitted message is
    /// independently lost in transit with probability `phi` (seeded,
    /// deterministic in `(fault_seed, interval)`) and retransmitted with the
    /// next interval's arrivals. Every attempt consumes bandwidth, so the
    /// effective arrival rate is `α/(1−φ)` — this is the stability-margin
    /// erosion measurement for Section 6.2.
    pub fn run_with_faults(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        phi: f64,
        fault_seed: u64,
    ) -> StabilityTrace {
        self.run_with_faults_to(adv, intervals, phi, fault_seed, pbw_trace::global_sink())
    }

    /// [`run_with_faults`](Self::run_with_faults) with an explicit trace
    /// sink. Parallel φ-sweeps route each loss rate into a private
    /// recording sink and replay events in sweep order, keeping the global
    /// trace byte-identical at every thread count.
    pub fn run_with_faults_to(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        phi: f64,
        fault_seed: u64,
        sink: Arc<dyn TraceSink>,
    ) -> StabilityTrace {
        assert!((0.0..1.0).contains(&phi), "drop rate must be in [0, 1)");
        let cfg = RouterCfg {
            bp: None,
            loss: Some((phi, fault_seed)),
        };
        self.route(adv, intervals, cfg, sink)
    }

    fn route(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        cfg: RouterCfg,
        sink: Arc<dyn TraceSink>,
    ) -> StabilityTrace {
        let mut batch_idx = 0u64;
        let p = self.p;
        let m = self.m;
        let eps = self.eps;
        let seed = self.seed;
        // Machine view for trace pricing: gap g ≈ p/m, unit latency.
        let params = MachineParams::new_unchecked(p, (p as u64 / m.max(1) as u64).max(1), m, 1);
        run_interval_router_cfg(adv, self.w, intervals, cfg, move |arrivals| {
            batch_idx += 1;
            let mut sends: Vec<Vec<usize>> = vec![Vec::new(); p];
            for &(s, d) in arrivals {
                sends[s].push(d);
            }
            let wl = Workload::from_dests(sends);
            let sched =
                UnbalancedSend::new(eps).schedule(&wl, m, seed ^ batch_idx.wrapping_mul(0x9E37));
            if sink.enabled() {
                let mut ev = audit_schedule(&sched, &wl, params, "algorithm-b");
                ev.source = TraceSource::Router;
                ev.superstep = batch_idx - 1;
                sink.record(ev);
            }
            service_time(&sched, &wl, m)
        })
    }
}

/// The Theorem 6.5 BSP(g) router: intervals of `max(g·⌈w/g⌉, L)` steps;
/// each batch is one h-relation costing `max(g·h, L)`.
#[derive(Debug, Clone, Copy)]
pub struct BspGIntervalRouter {
    /// Number of processors.
    pub p: usize,
    /// Per-processor gap `g`.
    pub g: u64,
    /// Latency `L`.
    pub l: u64,
    /// The adversary window `w`.
    pub w: u64,
}

impl BspGIntervalRouter {
    /// The router's interval length `max(g·⌈w/g⌉, L)`.
    pub fn interval_len(&self) -> u64 {
        (self.g * pbw_models::div_ceil(self.w, self.g)).max(self.l)
    }

    /// Route `intervals` windows of traffic from `adv`.
    pub fn run(&self, adv: &mut dyn Adversary, intervals: u64) -> StabilityTrace {
        self.route(adv, intervals, RouterCfg::default())
    }

    /// [`run`](Self::run) behind a bounded router queue (see
    /// [`AlgorithmB::run_with_backpressure`]).
    pub fn run_with_backpressure(
        &self,
        adv: &mut dyn Adversary,
        intervals: u64,
        bp: BackpressureConfig,
    ) -> StabilityTrace {
        self.route(
            adv,
            intervals,
            RouterCfg {
                bp: Some(bp),
                ..RouterCfg::default()
            },
        )
    }

    fn route(&self, adv: &mut dyn Adversary, intervals: u64, cfg: RouterCfg) -> StabilityTrace {
        let p = self.p;
        let g = self.g;
        let l = self.l;
        run_interval_router_cfg(adv, self.interval_len(), intervals, cfg, move |arrivals| {
            let mut sent = vec![0u64; p];
            let mut recv = vec![0u64; p];
            for &(s, d) in arrivals {
                sent[s] += 1;
                recv[d] += 1;
            }
            let h = sent.iter().chain(recv.iter()).copied().max().unwrap_or(0);
            ((g * h) as f64).max(l as f64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        AqtParams, BurstyAdversary, RandomAdversary, SingleTargetAdversary, SteadyAdversary,
    };

    #[test]
    fn bsp_g_stable_below_beta_threshold() {
        // β = 1/(2g) < 1/g: stable (Theorem 6.5, second part).
        let (p, g) = (64usize, 8u64);
        let params = AqtParams {
            w: 64,
            alpha: 0.0625,
            beta: 0.0625,
        }; // 1/(2g)
        let mut adv = SingleTargetAdversary::new(p, params, 0);
        let router = BspGIntervalRouter {
            p,
            g,
            l: 8,
            w: params.w,
        };
        let trace = router.run(&mut adv, 400);
        assert!(trace.looks_stable(), "growth={}", trace.backlog_growth());
        assert!(trace.max_late_queue() < 32);
    }

    #[test]
    fn bsp_g_unstable_above_beta_threshold() {
        // β = 2/g > 1/g: the single-target adversary defeats BSP(g)
        // (Theorem 6.5, first part).
        let (p, g) = (64usize, 8u64);
        let params = AqtParams {
            w: 64,
            alpha: 0.25,
            beta: 0.25,
        }; // 2/g
        let mut adv = SingleTargetAdversary::new(p, params, 0);
        let router = BspGIntervalRouter {
            p,
            g,
            l: 8,
            w: params.w,
        };
        let trace = router.run(&mut adv, 400);
        assert!(!trace.looks_stable(), "growth={}", trace.backlog_growth());
        // Queue grows roughly linearly: late queue much larger than early.
        assert!(trace.queue_msgs.last().unwrap() > &(trace.queue_msgs[10] + 50));
    }

    #[test]
    fn algorithm_b_stable_at_same_local_rate_that_kills_bsp_g() {
        // The headline of Section 6.2: a local rate β ≫ 1/g that makes
        // BSP(g) unstable is comfortably routed on the BSP(m).
        let (p, m) = (64usize, 8usize); // g = 8
        let params = AqtParams {
            w: 64,
            alpha: 2.0,
            beta: 0.25,
        }; // β = 2/g
        let mut adv = SingleTargetAdversary::new(p, params, 0);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 5,
        };
        let trace = algo.run(&mut adv, 400);
        assert!(trace.looks_stable(), "growth={}", trace.backlog_growth());
    }

    #[test]
    fn algorithm_b_stable_near_global_capacity() {
        // α close to (but below) m/(1+ε): stable.
        let (p, m) = (64usize, 8usize);
        let params = AqtParams {
            w: 128,
            alpha: 5.0,
            beta: 0.5,
        };
        let mut adv = SteadyAdversary::new(p, params);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 9,
        };
        let trace = algo.run(&mut adv, 300);
        assert!(trace.looks_stable(), "growth={}", trace.backlog_growth());
        assert!(trace.delivered > 0);
    }

    #[test]
    fn algorithm_b_unstable_above_global_capacity() {
        // α > m: no schedule can keep up (Corollary 6.6 analogue for m).
        let (p, m) = (64usize, 8usize);
        let params = AqtParams {
            w: 64,
            alpha: 12.0,
            beta: 0.5,
        };
        let mut adv = SteadyAdversary::new(p, params);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 2,
        };
        let trace = algo.run(&mut adv, 300);
        assert!(!trace.looks_stable(), "growth={}", trace.backlog_growth());
    }

    #[test]
    fn bursty_traffic_handled_when_stable() {
        let (p, m) = (32usize, 8usize);
        let params = AqtParams {
            w: 64,
            alpha: 3.0,
            beta: 0.25,
        };
        let mut adv = BurstyAdversary::new(p, params);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 3,
        };
        let trace = algo.run(&mut adv, 200);
        assert!(trace.looks_stable(), "growth={}", trace.backlog_growth());
        // Most of what was injected got delivered.
        assert!(trace.delivered as f64 >= 0.9 * trace.injected as f64);
    }

    #[test]
    fn random_traffic_delivery_accounting() {
        let (p, m) = (32usize, 4usize);
        let params = AqtParams {
            w: 32,
            alpha: 2.0,
            beta: 0.25,
        };
        let mut adv = RandomAdversary::new(p, params, 11);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 13,
        };
        let trace = algo.run(&mut adv, 200);
        let pending: u64 = *trace.queue_msgs.last().unwrap();
        assert_eq!(trace.delivered + pending, trace.injected);
    }

    #[test]
    fn expected_service_scales_with_w_squared_over_u_shape() {
        // Thm 6.7's service bound is O(w²/u); at fixed utilization the mean
        // *batch* service grows linearly with w (each batch carries αw
        // messages served at rate ~m). Check linear growth in w.
        let (p, m) = (64usize, 8usize);
        let mut services = Vec::new();
        for w in [32u64, 64, 128] {
            let params = AqtParams {
                w,
                alpha: 4.0,
                beta: 0.25,
            };
            let mut adv = SteadyAdversary::new(p, params);
            let algo = AlgorithmB {
                p,
                m,
                w,
                eps: 0.3,
                seed: 1,
            };
            let trace = algo.run(&mut adv, 100);
            services.push(trace.mean_service());
        }
        assert!(services[1] > services[0] * 1.5);
        assert!(services[2] > services[1] * 1.5);
    }

    #[test]
    fn router_emits_one_trace_event_per_batch() {
        use pbw_trace::RecordingSink;
        let (p, m) = (32usize, 4usize);
        let params = AqtParams {
            w: 32,
            alpha: 2.0,
            beta: 0.25,
        };
        let mut adv = RandomAdversary::new(p, params, 11);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 13,
        };
        let sink = Arc::new(RecordingSink::new());
        let trace = algo.run_with_sink(&mut adv, 50, sink.clone());
        let events = sink.snapshot();
        // One event per scheduled batch, in routing order.
        assert_eq!(events.len(), trace.service_times.len());
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.source, TraceSource::Router);
            assert_eq!(ev.superstep, i as u64);
            assert_eq!(ev.label, "algorithm-b");
            assert_eq!(ev.params.p, p);
            assert_eq!(ev.params.m, m);
        }
        // The audited batches account for every injected message.
        let traced: u64 = events.iter().map(|e| e.profile.total_messages).sum();
        assert_eq!(traced, trace.injected);
    }

    #[test]
    fn trace_growth_zero_for_short_runs() {
        let mut trace = StabilityTrace::empty(10, 4);
        trace.queue_msgs = vec![0; 4];
        trace.backlog_time = vec![0.0; 4];
        assert_eq!(trace.backlog_growth(), 0.0);
        assert!(trace.looks_stable());
        assert_eq!(trace.mean_service(), 0.0);
    }

    #[test]
    fn delay_percentile_rejects_out_of_range_quantiles() {
        let mut trace = StabilityTrace::empty(10, 4);
        trace.batch_delays = vec![1, 2, 3];
        assert_eq!(trace.delay_percentile(-0.1), None);
        assert_eq!(trace.delay_percentile(1.1), None);
        assert_eq!(trace.delay_percentile(f64::NAN), None);
        assert_eq!(trace.delay_percentile(0.0), Some(1));
        assert_eq!(trace.delay_percentile(1.0), Some(3));
    }

    #[test]
    fn recovery_intervals_measures_post_burst_drain() {
        let mut trace = StabilityTrace::empty(10, 6);
        trace.high_watermark = 10;
        trace.queue_msgs = vec![0, 5, 12, 9, 3, 1];
        // Last overload at index 2; watermark/2 = 5 first reached at index 4.
        assert_eq!(trace.recovery_intervals(), Some(2));

        trace.queue_msgs = vec![0, 5, 4, 3, 2, 1];
        assert_eq!(trace.recovery_intervals(), None); // never overloaded
        trace.queue_msgs = vec![0, 12, 11, 10, 10, 13];
        assert_eq!(trace.recovery_intervals(), None); // never recovered

        trace.high_watermark = 0;
        assert_eq!(trace.recovery_intervals(), None); // no watermark in force
    }

    #[test]
    fn backpressure_bounds_an_overloaded_queue_and_sheds() {
        // α > m: unbounded, the queue grows without bound; bounded, it
        // saturates at the cap and the excess is shed.
        let (p, m) = (64usize, 8usize);
        let params = AqtParams {
            w: 64,
            alpha: 12.0,
            beta: 0.5,
        };
        let bp = BackpressureConfig::bounded(512);

        let mut adv = SteadyAdversary::new(p, params);
        let unbounded = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 2,
        }
        .run(&mut adv, 150);
        let mut adv = SteadyAdversary::new(p, params);
        let bounded = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 2,
        }
        .run_with_backpressure(&mut adv, 150, bp);

        assert!(unbounded.max_late_queue() > bp.max_queue_msgs);
        assert!(bounded.queue_msgs.iter().all(|&q| q <= bp.max_queue_msgs));
        assert!(bounded.shed_msgs > 0);
        assert!(bounded.overload_intervals > 0);
        // Conservation with shedding.
        let pending = *bounded.queue_msgs.last().unwrap();
        assert_eq!(
            bounded.delivered + pending + bounded.shed_msgs,
            bounded.injected
        );
    }

    #[test]
    fn drop_oldest_policy_keeps_the_queue_bounded_too() {
        let (p, g) = (64usize, 8u64);
        let params = AqtParams {
            w: 64,
            alpha: 0.25,
            beta: 0.25,
        }; // unstable for BSP(g)
        let mut adv = SingleTargetAdversary::new(p, params, 0);
        let router = BspGIntervalRouter {
            p,
            g,
            l: 8,
            w: params.w,
        };
        let bp = BackpressureConfig {
            max_queue_msgs: 256,
            high_watermark: 128,
            policy: ShedPolicy::DropOldest,
        };
        let trace = router.run_with_backpressure(&mut adv, 300, bp);
        assert!(trace.queue_msgs.iter().all(|&q| q <= bp.max_queue_msgs));
        assert!(trace.shed_msgs > 0);
        let pending = *trace.queue_msgs.last().unwrap();
        assert_eq!(trace.delivered + pending + trace.shed_msgs, trace.injected);
    }

    #[test]
    fn zero_drop_rate_routes_identically_to_the_reliable_path() {
        let (p, m) = (32usize, 4usize);
        let params = AqtParams {
            w: 32,
            alpha: 2.0,
            beta: 0.25,
        };
        let mut adv = RandomAdversary::new(p, params, 11);
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 13,
        };
        let reliable = algo.run(&mut adv, 100);
        let mut adv = RandomAdversary::new(p, params, 11);
        let faultless = algo.run_with_faults(&mut adv, 100, 0.0, 7);
        assert_eq!(reliable.queue_msgs, faultless.queue_msgs);
        assert_eq!(reliable.delivered, faultless.delivered);
        assert_eq!(faultless.retransmitted, 0);
    }

    #[test]
    fn in_transit_loss_erodes_the_stability_margin() {
        // α = 5 against capacity m/(1+ε) ≈ 6.15: stable when reliable, but
        // φ = 0.4 inflates the effective rate to α/(1−φ) ≈ 8.3 > m and the
        // backlog diverges. Retransmissions are seeded and replayable.
        let (p, m) = (64usize, 8usize);
        let params = AqtParams {
            w: 128,
            alpha: 5.0,
            beta: 0.5,
        };
        let algo = AlgorithmB {
            p,
            m,
            w: params.w,
            eps: 0.3,
            seed: 9,
        };

        let mut adv = SteadyAdversary::new(p, params);
        let reliable = algo.run(&mut adv, 300);
        assert!(
            reliable.looks_stable(),
            "growth={}",
            reliable.backlog_growth()
        );

        let mut adv = SteadyAdversary::new(p, params);
        let lossy = algo.run_with_faults(&mut adv, 300, 0.4, 7);
        assert!(lossy.retransmitted > 0);
        assert!(!lossy.looks_stable(), "growth={}", lossy.backlog_growth());

        // Same fault seed ⇒ bit-identical trace.
        let mut adv = SteadyAdversary::new(p, params);
        let replay = algo.run_with_faults(&mut adv, 300, 0.4, 7);
        assert_eq!(lossy.queue_msgs, replay.queue_msgs);
        assert_eq!(lossy.retransmitted, replay.retransmitted);
        assert_eq!(lossy.backlog_time, replay.backlog_time);
    }
}
