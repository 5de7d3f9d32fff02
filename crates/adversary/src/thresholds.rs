//! Empirical calibration of the Theorem 6.7 stability thresholds.
//!
//! Theorem 6.7 is stated abstractly: *if* algorithm A solves the static
//! problem in `σ = max(a·n/m, b·x̄, b·ȳ)` with per-batch failure
//! probability `r` (and a polynomially decaying tail), *then* Algorithm B
//! is stable for `α ≤ m/a − m·u/(w·a)` and `β ≤ 1/b − u/(w·b)` with slack
//! `u ≥ ⌊1.21·r·w⌋ + 1`.
//!
//! This module closes the loop empirically: it runs Unbalanced-Send on a
//! calibration set of random batches, fits `(a, b)` as the smallest
//! constants covering every observed service time, estimates `r` as the
//! observed failure frequency against that envelope, and derives the
//! theorem's `(u, α*, β*)`. The dynamic experiments then verify that
//! traffic below the derived `α*` is in fact absorbed.

use crate::dynamic::service_time;
use pbw_core::schedulers::{Scheduler, UnbalancedSend};
use pbw_core::workload::{self, Workload};
use pbw_models::bounds;

/// Calibration result for algorithm A = Unbalanced-Send(ε).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Fitted `a`: service ≤ a·n/m on (1−r) of batches.
    pub a: f64,
    /// Fitted `b`: service ≤ b·max(x̄, ȳ) on the h-bound regime.
    pub b: f64,
    /// Observed failure rate against the `(a, b)` envelope.
    pub r: f64,
    /// The theorem's slack `u = ⌊1.21·r·w⌋ + 1`.
    pub u: f64,
    /// Derived global-rate threshold `α* = m/a − m·u/(w·a)`.
    pub alpha_star: f64,
    /// Derived local-rate threshold `β* = 1/b − u/(w·b)`.
    pub beta_star: f64,
}

/// The real elapsed machine time of a batch scheduled by Unbalanced-Send
/// under the exponential penalty (the service-time notion of `dynamic.rs`).
pub fn batch_service(wl: &Workload, m: usize, eps: f64, seed: u64) -> f64 {
    service_time(&UnbalancedSend::new(eps).schedule(wl, m, seed), wl, m)
}

/// Calibrate `(a, b, r)` over `batches` random workloads of roughly
/// `per_batch` messages each, then derive the Theorem 6.7 thresholds for
/// window `w`.
pub fn calibrate(
    p: usize,
    m: usize,
    eps: f64,
    w: f64,
    batches: usize,
    per_batch: u64,
    seed: u64,
) -> Calibration {
    assert!(batches > 0);
    // Envelope constants: start at the theorem's nominal values and grow
    // `a` until at most a 5% failure rate remains, then measure r exactly.
    let mut samples: Vec<(f64, f64, f64)> = Vec::with_capacity(batches); // (service, n/m, h)
    for i in 0..batches {
        let wl = workload::uniform_random(p, per_batch.max(1) / p as u64 + 1, seed ^ (i as u64));
        let service = batch_service(&wl, m, eps, seed.wrapping_add(i as u64 * 77));
        samples.push((service, wl.n_flits() as f64 / m as f64, wl.h() as f64));
    }
    let b = 1.0 + eps;
    let mut a = 1.0 + eps;
    loop {
        let failures = samples
            .iter()
            .filter(|&&(s, nm, h)| s > (a * nm).max(b * h))
            .count();
        let rate = failures as f64 / batches as f64;
        if rate <= 0.05 || a > 16.0 {
            let r = rate.max(1.0 / batches as f64); // conservative floor
            let u = bounds::dynamic_slack_u(r, w);
            return Calibration {
                a,
                b,
                r,
                u,
                alpha_star: bounds::dynamic_bsp_m_alpha_threshold(m, a, u, w),
                beta_star: bounds::dynamic_bsp_m_beta_threshold(b, u, w),
            };
        }
        a *= 1.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AqtParams, SteadyAdversary};
    use crate::dynamic::AlgorithmB;

    #[test]
    fn calibration_produces_sane_constants() {
        let cal = calibrate(64, 8, 0.3, 64.0, 50, 256, 1);
        assert!(cal.a >= 1.3 && cal.a < 8.0, "a={}", cal.a);
        assert!((cal.b - 1.3).abs() < 1e-9);
        assert!(cal.r <= 0.06);
        assert!(cal.u >= 1.0);
        assert!(cal.alpha_star > 0.0 && cal.alpha_star < 8.0);
        assert!(cal.beta_star > 0.0 && cal.beta_star < 1.0);
    }

    #[test]
    fn traffic_below_derived_threshold_is_stable() {
        let (p, m, w) = (64usize, 8usize, 64u64);
        let cal = calibrate(p, m, 0.3, w as f64, 50, 256, 2);
        // Drive at 80% of the derived α*.
        let alpha = 0.8 * cal.alpha_star;
        let params = AqtParams {
            w,
            alpha,
            beta: cal.beta_star.min(0.5),
        };
        let mut adv = SteadyAdversary::new(p, params);
        let trace = AlgorithmB {
            p,
            m,
            w,
            eps: 0.3,
            seed: 3,
        }
        .run(&mut adv, 300);
        assert!(trace.looks_stable(), "growth {}", trace.backlog_growth());
    }

    #[test]
    fn batch_service_at_least_lower_bound() {
        let wl = workload::uniform_random(64, 16, 4);
        let s = batch_service(&wl, 8, 0.3, 9);
        assert!(s >= wl.n_flits() as f64 / 8.0);
        assert!(s >= wl.xbar() as f64);
    }

    #[test]
    fn service_scales_with_batch_size() {
        let small = batch_service(&workload::uniform_random(64, 8, 1), 8, 0.3, 5);
        let large = batch_service(&workload::uniform_random(64, 32, 1), 8, 0.3, 5);
        assert!(large > 2.0 * small);
    }
}
