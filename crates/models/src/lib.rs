//! # pbw-models
//!
//! Machine-model definitions and cost semantics for the SPAA'97 paper
//! *"Modeling Parallel Bandwidth: Local vs. Global Restrictions"* by
//! Adler, Gibbons, Matias and Ramachandran.
//!
//! The paper contrasts two families of bulk-synchronous models:
//!
//! * **Locally-limited** models — [`cost::BspG`] and [`cost::QsmG`] — charge a
//!   per-processor gap `g` for every message a processor sends or receives.
//!   The cost of a superstep is `max(w, g·h, L)`.
//! * **Globally-limited** models — [`cost::BspM`] and [`cost::QsmM`] — allow
//!   the machine as a whole to inject `m` messages per time step. Exceeding
//!   the limit in step `t` (injecting `m_t > m` messages) costs
//!   `f_m(m_t)` for that step instead of `1`; the cost of a superstep is
//!   `max(w, h, c_m, L)` with `c_m = Σ_t f_m(m_t)`.
//!
//! Both families are priced from the same [`profile::SuperstepProfile`], an
//! exact record of what happened during a superstep, so a single simulated
//! execution can be priced under every model simultaneously (that is how the
//! experiment harness produces its comparison tables).
//!
//! The [`bounds`] module collects every closed-form bound quoted in the paper
//! (Table 1, Theorem 4.1, Proposition 6.1, Theorems 6.2–6.7, Section 5); the
//! experiment harness prints these as the "paper" column next to measured
//! model costs.

pub mod bounds;
pub mod breakdown;
pub mod cost;
pub mod emulation;
pub mod mask;
pub mod params;
pub mod penalty;
pub mod profile;
pub mod summary;
pub mod tally;

pub use cost::{BspG, BspM, CostModel, QsmG, QsmM, SelfSchedulingBspM};
pub use mask::FrontierMask;
pub use params::MachineParams;
pub use penalty::PenaltyFn;
pub use profile::{ProfileBuilder, SuperstepProfile};
pub use summary::CostSummary;
pub use tally::{AccessTally, CellAccess};

/// Base-2 logarithm clamped below at 1.0, so that `lg` of tiny arguments
/// never turns a denominator negative or zero.
///
/// The paper writes `lg x` with the implicit convention that all such terms
/// are at least constant; this helper makes that convention executable.
#[inline]
pub fn lg(x: f64) -> f64 {
    if x <= 2.0 {
        1.0
    } else {
        x.log2()
    }
}

/// `⌈log_3 p⌉` as used by the ternary non-receipt broadcast of Section 4.2.
#[inline]
pub fn ceil_log3(p: u64) -> u64 {
    if p <= 1 {
        return 0;
    }
    let mut k = 0u64;
    let mut reach = 1u64;
    while reach < p {
        reach = reach.saturating_mul(3);
        k += 1;
    }
    k
}

/// `⌈log_b p⌉` for an arbitrary integer base `b ≥ 2`.
#[inline]
pub fn ceil_log_base(b: u64, p: u64) -> u64 {
    assert!(b >= 2, "logarithm base must be at least 2");
    if p <= 1 {
        return 0;
    }
    let mut k = 0u64;
    let mut reach = 1u64;
    while reach < p {
        reach = reach.saturating_mul(b);
        k += 1;
    }
    k
}

/// Integer ceiling division.
#[inline]
pub fn div_ceil(a: u64, b: u64) -> u64 {
    assert!(b > 0, "division by zero");
    a / b + u64::from(!a.is_multiple_of(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg_clamps_small_arguments() {
        assert_eq!(lg(0.0), 1.0);
        assert_eq!(lg(1.0), 1.0);
        assert_eq!(lg(2.0), 1.0);
        assert!((lg(8.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ceil_log3_small_values() {
        assert_eq!(ceil_log3(1), 0);
        assert_eq!(ceil_log3(2), 1);
        assert_eq!(ceil_log3(3), 1);
        assert_eq!(ceil_log3(4), 2);
        assert_eq!(ceil_log3(9), 2);
        assert_eq!(ceil_log3(10), 3);
        assert_eq!(ceil_log3(27), 3);
    }

    #[test]
    fn ceil_log_base_matches_log3() {
        for p in 1..200u64 {
            assert_eq!(ceil_log_base(3, p), ceil_log3(p), "p={p}");
        }
    }

    #[test]
    fn ceil_log_base_powers() {
        assert_eq!(ceil_log_base(2, 1024), 10);
        assert_eq!(ceil_log_base(2, 1025), 11);
        assert_eq!(ceil_log_base(4, 16), 2);
        assert_eq!(ceil_log_base(4, 17), 3);
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 5), 0);
        assert_eq!(div_ceil(1, 5), 1);
        assert_eq!(div_ceil(5, 5), 1);
        assert_eq!(div_ceil(6, 5), 2);
        assert_eq!(div_ceil(10, 5), 2);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_zero_divisor_panics() {
        let _ = div_ceil(1, 0);
    }
}
