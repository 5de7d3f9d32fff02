//! The density rule: when does the active-set (sparse) superstep path run
//! instead of the dense all-processor pass?
//!
//! The dense path walks all `p` processors (O(p), with perfect streaming
//! constants); the sparse path walks only the processors that can act
//! (O(active + messages), with stamp checks and indirection per touched
//! slot). Both are byte-identical in every observable (inboxes, profiles,
//! traces, `canonical_hash`), so the choice is wall time only, and the BSP
//! engine makes it itself: [`crate::BspMachine::superstep_auto`] for a
//! declared active set, and the sender-mask check after every unhooked
//! dense closure pass.
//!
//! The rule is a constant: sparse while `active · FACTOR ≤ p`. A
//! once-per-process timing probe used to calibrate the factor within
//! `2..=16`; its reading sat at the ceiling in almost every process, so the
//! rule fixes the factor there (DESIGN.md §14).

/// The break-even ratio: the sparse path runs while at most `1/FACTOR` of
/// the processors are active.
pub const FACTOR: usize = 16;

/// Should `active` processors out of `p` take the sparse (active-set) path?
/// `true` = sparse.
#[inline]
pub fn crossover(active: usize, p: usize) -> bool {
    active.saturating_mul(FACTOR) <= p
}

/// The factor [`crossover`] applies.
#[inline]
pub fn crossover_factor() -> usize {
    FACTOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_is_the_constant_rule_on_both_sides_of_p_over_16() {
        assert_eq!(crossover_factor(), 16);
        for p in [16usize, 1024, 1 << 16] {
            assert!(crossover(0, p));
            assert!(crossover(p / 16, p), "p/16 active out of {p} is sparse");
            assert!(
                !crossover(p / 16 + 1, p),
                "p/16 + 1 active out of {p} is dense"
            );
            assert!(!crossover(p, p));
        }
        assert!(!crossover(usize::MAX, 1 << 16));
    }
}
