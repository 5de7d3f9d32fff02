//! The density rule: when does a declared-active-set superstep run the
//! sparse closure pass instead of the dense all-processor one?
//!
//! The dense pass runs every closure, all `p` of them, in parallel (O(p),
//! with perfect streaming constants); the sparse pass runs only the
//! frontier, sequentially (O(active), with a mask walk per word). Both leave
//! the same ascending sender list behind, and delivery walks only that list
//! either way, so the results are byte-identical in every observable
//! (inboxes, profiles, traces, `canonical_hash`) and the choice is wall time
//! only. [`crate::BspMachine::superstep_auto`] makes it from the declared
//! active set plus the processors holding an inbox; nothing else in the
//! engine consults the rule.
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
