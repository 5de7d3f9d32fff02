//! Overload penalty functions `f_m` of the globally-limited models.
//!
//! Section 2 of the paper defines, for a step in which `m_t` messages are
//! injected into a network of aggregate bandwidth `m`:
//!
//! ```text
//! f_m(m_t) = 0                      if m_t = 0
//! f_m(m_t) = 1                      if 1 ≤ m_t ≤ m
//! f_m(m_t) ≥ m_t / m, increasing    if m_t > m
//! ```
//!
//! Two instantiations are distinguished:
//!
//! * **Linear** (`f_m^ℓ(m_t) = m_t/m`) — the *minimum* admissible charge,
//!   used for lower bounds. Models a network that absorbs any injection rate
//!   and sustains throughput `m`.
//! * **Exponential** (`f_m^u(m_t) = e^{m_t/m − 1}` for `m_t > m`) — the
//!   pessimistic charge used for upper bounds. Models a network whose
//!   performance deteriorates drastically past its bandwidth limit; `m` is
//!   the breaking point.
//!
//! The paper's scheduling theorems are proved under the exponential penalty —
//! that is what makes "never exceed `m`" a real algorithmic obligation — and
//! the experiment harness prices schedules under both.

use serde::{Deserialize, Serialize};

/// The overload charge `f_m` applied per machine step by BSP(m)/QSM(m).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PenaltyFn {
    /// `f_m^ℓ(m_t) = m_t / m` when `m_t > m`: the minimum admissible charge
    /// (lower-bound semantics).
    Linear,
    /// `f_m^u(m_t) = e^{m_t/m − 1}` when `m_t > m`: the pessimistic charge
    /// (upper-bound semantics). This is the default because the paper's
    /// algorithms are required to perform well under it.
    #[default]
    Exponential,
}

impl PenaltyFn {
    /// The per-step charge `f_m(m_t)` for injecting `m_t` messages into a
    /// network of aggregate bandwidth `m`.
    ///
    /// Saturates at `f64::MAX` rather than overflowing to infinity so that
    /// comparisons and sums stay well-behaved in degenerate configurations.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[inline]
    pub fn charge(&self, m_t: u64, m: usize) -> f64 {
        assert!(m > 0, "aggregate bandwidth m must be positive");
        if m_t == 0 {
            return 0.0;
        }
        if m_t as u128 <= m as u128 {
            return 1.0;
        }
        let ratio = m_t as f64 / m as f64;
        match self {
            PenaltyFn::Linear => ratio,
            PenaltyFn::Exponential => {
                let v = (ratio - 1.0).exp();
                if v.is_finite() {
                    v
                } else {
                    f64::MAX
                }
            }
        }
    }

    /// Total superstep communication charge `c_m = Σ_t f_m(m_t)` for a
    /// per-step injection histogram, summed left to right.
    ///
    /// An empty histogram costs `+0.0`: a bare `.sum()` would fold from
    /// `-0.0` (the IEEE additive identity), which prints differently in
    /// trace JSON.
    #[inline]
    pub fn total_charge(&self, injections: &[u64], m: usize) -> f64 {
        if injections.is_empty() {
            return 0.0;
        }
        injections.iter().map(|&m_t| self.charge(m_t, m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_injections_free() {
        assert_eq!(PenaltyFn::Linear.charge(0, 8), 0.0);
        assert_eq!(PenaltyFn::Exponential.charge(0, 8), 0.0);
    }

    #[test]
    fn within_budget_costs_one() {
        for m_t in 1..=8 {
            assert_eq!(PenaltyFn::Linear.charge(m_t, 8), 1.0);
            assert_eq!(PenaltyFn::Exponential.charge(m_t, 8), 1.0);
        }
    }

    #[test]
    fn linear_charge_is_ratio() {
        assert!((PenaltyFn::Linear.charge(16, 8) - 2.0).abs() < 1e-12);
        assert!((PenaltyFn::Linear.charge(24, 8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_charge_matches_formula() {
        let m = 8usize;
        for m_t in [9u64, 16, 32, 80] {
            let expect = (m_t as f64 / m as f64 - 1.0).exp();
            assert!((PenaltyFn::Exponential.charge(m_t, m) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn exponential_dominates_linear() {
        // f_m^u(m_t) ≥ f_m^ℓ(m_t) for all m_t ≥ m (stated in Section 2).
        for m in [1usize, 2, 8, 64, 1000] {
            for mult in 1..40u64 {
                let m_t = m as u64 * mult + 3;
                assert!(
                    PenaltyFn::Exponential.charge(m_t, m) >= PenaltyFn::Linear.charge(m_t, m),
                    "m={m} m_t={m_t}"
                );
            }
        }
    }

    #[test]
    fn exponential_saturates_instead_of_inf() {
        let v = PenaltyFn::Exponential.charge(u64::MAX, 1);
        assert!(v.is_finite());
        assert_eq!(v, f64::MAX);
    }

    #[test]
    fn total_charge_sums_steps() {
        let inj = [0u64, 4, 8, 16];
        let m = 8usize;
        let lin = PenaltyFn::Linear.total_charge(&inj, m);
        assert!((lin - (0.0 + 1.0 + 1.0 + 2.0)).abs() < 1e-12);
        let exp = PenaltyFn::Exponential.total_charge(&inj, m);
        assert!((exp - (0.0 + 1.0 + 1.0 + 1.0f64.exp())).abs() < 1e-9);
    }

    #[test]
    fn charge_is_monotone_in_m_t() {
        for model in [PenaltyFn::Linear, PenaltyFn::Exponential] {
            let mut prev = 0.0;
            for m_t in 0..100u64 {
                let c = model.charge(m_t, 10);
                assert!(c >= prev, "{model:?} not monotone at m_t={m_t}");
                prev = c;
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bandwidth_panics() {
        let _ = PenaltyFn::Linear.charge(1, 0);
    }
}
