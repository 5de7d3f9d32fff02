//! Epoch-stamped sparse counters for the engines' per-superstep tallies.
//!
//! The BSP/QSM/PRAM engines keep several dense per-index tally vectors
//! (per-destination arena counts, per-processor receive counts, per-address
//! reader/writer counts). Clearing those with `fill(0)` costs Θ(table size)
//! every superstep even when only a handful of indices are touched — the
//! dense floor the active-set execution path removes.
//!
//! An [`EpochCounts`] replaces `fill(0)` with an epoch stamp: every slot
//! carries the epoch at which it was last written, and a slot's count is
//! *valid only if its stamp equals the current epoch*. Resetting the table
//! is then one epoch bump plus clearing the dirty set — O(1) — and a full
//! pass over the table never happens. The dirty set is a [`FrontierMask`]
//! recording every index written this epoch; consumers iterate exactly the
//! touched slots, in **ascending index order** (the mask's iteration order),
//! instead of all slots. Ascending order is safe for every consumer — the
//! arena layout pass, the profile maxima, the QSM conflict scans — because
//! none of them observes the enumeration order, only the touched *set*.
//!
//! The epoch counter is a `u64` that only increments; at one reset per
//! superstep it cannot wrap within any realistic run, so a stale stamp can
//! never alias the current epoch.

use crate::mask::FrontierMask;

/// One tally slot: the count and the epoch that validates it, side by side
/// so a random-index `add` touches one cache line, not one per array.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    count: u64,
    stamp: u64,
}

/// A `u64` tally table with O(1) reset and dirty-set iteration.
#[derive(Debug, Clone, Default)]
pub struct EpochCounts {
    slots: Vec<Slot>,
    epoch: u64,
    touched: FrontierMask,
}

impl EpochCounts {
    /// A table of `n` slots, all reading 0.
    pub fn new(n: usize) -> Self {
        Self {
            // Stamps start below the first epoch, so every slot is stale
            // (i.e. reads 0) until first touched.
            slots: vec![Slot::default(); n],
            epoch: 1,
            touched: FrontierMask::new(n),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reset every slot to 0 by bumping the epoch. O(1) — no slot is
    /// actually written.
    #[inline]
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Add `n` to slot `idx`, marking it touched for this epoch. `n` may be
    /// 0: the slot still joins the dirty set (the arena layout pass relies
    /// on counted-but-empty destinations being enumerable).
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        let slot = &mut self.slots[idx];
        if slot.stamp != self.epoch {
            slot.stamp = self.epoch;
            slot.count = n;
            self.touched.insert(idx);
        } else {
            slot.count += n;
        }
    }

    /// Slot `idx`'s count this epoch (0 if untouched since the last reset).
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        let slot = &self.slots[idx];
        if slot.stamp == self.epoch {
            slot.count
        } else {
            0
        }
    }

    /// The set of indices touched since the last reset; iterate it for the
    /// dirty slots in ascending index order.
    #[inline]
    pub fn touched(&self) -> &FrontierMask {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touched(c: &EpochCounts) -> Vec<usize> {
        c.touched().iter().collect()
    }

    #[test]
    fn fresh_table_reads_zero() {
        let c = EpochCounts::new(4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        for i in 0..4 {
            assert_eq!(c.get(i), 0);
        }
        assert!(c.touched().is_empty());
    }

    #[test]
    fn add_accumulates_and_tracks_touched_ascending() {
        let mut c = EpochCounts::new(8);
        c.add(5, 2);
        c.add(1, 1);
        c.add(5, 3);
        assert_eq!(c.get(5), 5);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(0), 0);
        assert_eq!(touched(&c), vec![1, 5]);
    }

    #[test]
    fn reset_clears_without_touching_slots() {
        let mut c = EpochCounts::new(4);
        c.add(2, 7);
        c.reset();
        assert_eq!(c.get(2), 0);
        assert!(c.touched().is_empty());
        // A stale count is overwritten, not accumulated into, on re-touch.
        c.add(2, 1);
        assert_eq!(c.get(2), 1);
        assert_eq!(touched(&c), vec![2]);
    }

    #[test]
    fn zero_add_still_marks_touched() {
        let mut c = EpochCounts::new(3);
        c.add(1, 0);
        assert_eq!(c.get(1), 0);
        assert_eq!(touched(&c), vec![1]);
    }

    #[test]
    fn many_resets_stay_consistent() {
        let mut c = EpochCounts::new(2);
        for round in 0..100u64 {
            c.add(round as usize % 2, round);
            assert_eq!(c.get(round as usize % 2), round);
            c.reset();
        }
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 0);
    }

    #[test]
    fn touched_straddles_word_boundaries() {
        let mut c = EpochCounts::new(200);
        for &i in &[130, 64, 63, 0, 199] {
            c.add(i, 1);
        }
        assert_eq!(touched(&c), vec![0, 63, 64, 130, 199]);
    }
}
