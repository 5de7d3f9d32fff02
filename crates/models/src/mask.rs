//! Hierarchical bitset frontiers with O(1) reset.
//!
//! The engines' per-superstep *sets* — the active frontier, the arena's
//! touched destinations, the stalled/crashed processor sets — used to live
//! in sorted `Vec<Pid>` lists and per-pid `Vec<bool>` flag vectors. Both
//! representations pay for what they avoid: the frontier vector needs an
//! O(f log f) sort + dedup every superstep to restore canonical pid order,
//! and the flag vectors need either an O(p) `fill(false)` or careful
//! "never read unhooked" discipline.
//!
//! A [`FrontierMask`] replaces both with a two-level u64 bitset:
//!
//! * **leaf words** — bit `pid % 64` of leaf word `pid / 64`;
//! * **summary words** — bit `w % 64` of summary word `w / 64` is set when
//!   leaf word `w` has been written this epoch (a *superset* of the
//!   non-empty leaves: bulk clears like [`FrontierMask::and_not`] may zero
//!   a leaf without unsetting its summary bit — iteration skips zero
//!   words, so the slack is invisible).
//!
//! Both levels are epoch-stamped: every word carries the epoch at which it
//! was last written, so clearing the mask is one epoch bump, never an O(p)
//! sweep, and a stale word is simply never observed. Iteration walks the summary words, then
//! each marked leaf word, emitting set bits via `trailing_zeros` — so it
//! visits members in **ascending pid order** at O(popcount) cost plus a
//! fixed O(words/64) summary scan, and never scans empty regions. Ascending
//! order is load-bearing: it is exactly the canonical delivery order the
//! engines' sorted-Vec frontiers used to establish by sorting, which is why
//! a mask-built frontier is byte-identical to the sorted one.
//!
//! The epoch counter is a `u64` that only increments; at one clear per
//! superstep it cannot wrap within any realistic run.

/// Iterator over the set bits of one u64, yielding `base + bit_index` in
/// ascending order (test reference for the hand-rolled iterators below).
#[cfg(test)]
struct WordBits {
    base: usize,
    word: u64,
}

#[cfg(test)]
impl Iterator for WordBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// One bitset word and the epoch that validates it, side by side so a
/// random-index insert touches one cache line per level, not one per array.
#[derive(Debug, Clone, Copy, Default)]
struct StampedWord {
    bits: u64,
    stamp: u64,
}

/// Iterator over a mask's non-empty leaf words (see
/// [`FrontierMask::words`]). Hand-rolled state machine instead of an
/// adapter chain: the engines drive this from their innermost superstep
/// loops, where the generic `flat_map`/`filter` plumbing showed up as
/// measurable per-call overhead.
pub struct MaskWords<'a> {
    leaves: &'a [StampedWord],
    summary: &'a [StampedWord],
    epoch: u64,
    /// Index of the summary word whose remaining bits are in `bits`
    /// (starts one before 0, wrapping).
    s: usize,
    bits: u64,
}

impl Iterator for MaskWords<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        loop {
            while self.bits != 0 {
                let w = self.s * 64 + self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                // Summary bit set this epoch ⟹ the leaf was stamped this
                // epoch, so its bits are valid without a stamp check.
                let word = self.leaves[w].bits;
                if word != 0 {
                    return Some((w, word));
                }
            }
            loop {
                self.s = self.s.wrapping_add(1);
                if self.s >= self.summary.len() {
                    return None;
                }
                let sum = &self.summary[self.s];
                if sum.stamp == self.epoch {
                    self.bits = sum.bits;
                    break;
                }
            }
        }
    }
}

/// Iterator over a mask's members in ascending order (see
/// [`FrontierMask::iter`]).
pub struct MaskIter<'a> {
    words: MaskWords<'a>,
    base: usize,
    word: u64,
}

impl Iterator for MaskIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (w, word) = self.words.next()?;
            self.base = w * 64;
            self.word = word;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// A two-level epoch-stamped bitset over `0..universe`.
#[derive(Debug, Clone, Default)]
pub struct FrontierMask {
    universe: usize,
    /// Leaf words; `leaves[w].bits` is valid only when its stamp == epoch.
    leaves: Vec<StampedWord>,
    /// Summary words over the leaves; same stamping discipline.
    summary: Vec<StampedWord>,
    epoch: u64,
}

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

impl FrontierMask {
    /// An empty mask over members `0..universe`.
    pub fn new(universe: usize) -> Self {
        let leaves = words_for(universe);
        Self {
            universe,
            // Stamps start below the first epoch, so every word is stale
            // (i.e. reads empty) until first written.
            leaves: vec![StampedWord::default(); leaves],
            summary: vec![StampedWord::default(); words_for(leaves)],
            epoch: 1,
        }
    }

    /// The exclusive upper bound on members.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Remove every member by bumping the epoch. O(1) — no word is written.
    #[inline]
    pub fn clear(&mut self) {
        self.epoch += 1;
    }

    /// Insert `i`.
    ///
    /// # Panics
    /// Panics if `i >= universe`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.universe,
            "mask member {i} out of universe 0..{}",
            self.universe
        );
        let w = i / 64;
        let bit = 1u64 << (i % 64);
        let leaf = &mut self.leaves[w];
        if leaf.stamp != self.epoch {
            leaf.stamp = self.epoch;
            leaf.bits = bit;
            self.mark_summary(w);
        } else {
            leaf.bits |= bit;
        }
    }

    /// OR a whole leaf word in at once: sets every `w * 64 + bit` for each
    /// set bit of `word`. The word-at-a-time entry point the engines' flag
    /// scans and mask unions feed.
    #[inline]
    pub fn insert_word(&mut self, w: usize, word: u64) {
        if word == 0 {
            return;
        }
        debug_assert!(
            w * 64 + (63 - word.leading_zeros() as usize) < self.universe,
            "word {w} sets bits past universe {}",
            self.universe
        );
        let leaf = &mut self.leaves[w];
        if leaf.stamp != self.epoch {
            leaf.stamp = self.epoch;
            leaf.bits = word;
            self.mark_summary(w);
        } else {
            leaf.bits |= word;
        }
    }

    #[inline]
    fn mark_summary(&mut self, w: usize) {
        let sum = &mut self.summary[w / 64];
        let bit = 1u64 << (w % 64);
        if sum.stamp != self.epoch {
            sum.stamp = self.epoch;
            sum.bits = bit;
        } else {
            sum.bits |= bit;
        }
    }

    /// Whether `i` is a member. Out-of-universe queries return `false`
    /// (the engines probe destinations against crash masks without
    /// pre-filtering).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let w = i / 64;
        match self.leaves.get(w) {
            Some(leaf) => leaf.stamp == self.epoch && leaf.bits >> (i % 64) & 1 != 0,
            None => false,
        }
    }

    /// Leaf word `w` as of this epoch (0 when stale or out of range) — the
    /// word-wise read side of [`FrontierMask::insert_word`].
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        match self.leaves.get(w) {
            Some(leaf) if leaf.stamp == self.epoch => leaf.bits,
            _ => 0,
        }
    }

    /// Number of leaf words covering the universe.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words()
            .map(|(_, word)| word.count_ones() as usize)
            .sum()
    }

    /// Whether the mask has no members.
    pub fn is_empty(&self) -> bool {
        self.words().next().is_none()
    }

    /// The non-empty leaf words touched this epoch, as `(leaf_index, word)`
    /// pairs in ascending index order. This is the cache-blocked iteration
    /// the delivery passes walk: one 64-pid block at a time, empty blocks
    /// skipped via the summary level.
    #[inline]
    pub fn words(&self) -> MaskWords<'_> {
        MaskWords {
            leaves: &self.leaves,
            summary: &self.summary,
            epoch: self.epoch,
            s: usize::MAX,
            bits: 0,
        }
    }

    /// The first non-empty leaf word at index `>= from`, as `(leaf_index,
    /// word)`: the cursor form of [`FrontierMask::words`], for loops that
    /// must mutate the mask's owner between words. Empty regions are
    /// skipped through the summary level, so a full walk costs what
    /// [`FrontierMask::words`] costs.
    #[inline]
    pub fn next_word(&self, from: usize) -> Option<(usize, u64)> {
        let mut s = from / 64;
        let mut bits = match self.summary.get(s) {
            Some(sum) if sum.stamp == self.epoch => sum.bits & (!0u64 << (from % 64)),
            Some(_) => 0,
            None => return None,
        };
        loop {
            while bits != 0 {
                let w = s * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Summary bit set this epoch ⟹ the leaf was stamped this
                // epoch, so its bits are valid without a stamp check.
                let word = self.leaves[w].bits;
                if word != 0 {
                    return Some((w, word));
                }
            }
            s += 1;
            let sum = self.summary.get(s)?;
            bits = if sum.stamp == self.epoch { sum.bits } else { 0 };
        }
    }

    /// The members in ascending order.
    #[inline]
    pub fn iter(&self) -> MaskIter<'_> {
        MaskIter {
            words: self.words(),
            base: 0,
            word: 0,
        }
    }

    /// Append the members, ascending, to `out` (which is *not* cleared —
    /// callers recycle their own buffers).
    pub fn push_to(&self, out: &mut Vec<usize>) {
        for (w, word) in self.words() {
            let base = w * 64;
            let mut bits = word;
            while bits != 0 {
                out.push(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// `self |= other`. Word-at-a-time: cost is O(other's touched words),
    /// independent of either universe.
    pub fn union_with(&mut self, other: &FrontierMask) {
        for (w, word) in other.words() {
            self.insert_word(w, word);
        }
    }

    /// `self &= !other`. Word-at-a-time over `self`'s touched words; the
    /// summary level is left as a superset (iteration skips zeroed words).
    pub fn and_not(&mut self, other: &FrontierMask) {
        for s in 0..self.summary.len() {
            if self.summary[s].stamp != self.epoch {
                continue;
            }
            let mut sum = self.summary[s].bits;
            while sum != 0 {
                let w = s * 64 + sum.trailing_zeros() as usize;
                sum &= sum - 1;
                self.leaves[w].bits &= !other.word(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(m: &FrontierMask) -> Vec<usize> {
        m.iter().collect()
    }

    /// Walk the mask with the `next_word` cursor.
    fn cursor_words(m: &FrontierMask) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some((w, word)) = m.next_word(from) {
            out.push((w, word));
            from = w + 1;
        }
        out
    }

    #[test]
    fn fresh_mask_is_empty() {
        let m = FrontierMask::new(200);
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert_eq!(collect(&m), Vec::<usize>::new());
        assert!(!m.contains(0));
        assert!(!m.contains(199));
    }

    #[test]
    fn iteration_is_ascending_and_deduplicated() {
        let mut m = FrontierMask::new(300);
        for &i in &[299, 0, 64, 63, 65, 128, 0, 64, 299] {
            m.insert(i);
        }
        assert_eq!(collect(&m), vec![0, 63, 64, 65, 128, 299]);
        assert_eq!(m.count(), 6);
        assert!(m.contains(63));
        assert!(m.contains(299));
        assert!(!m.contains(1));
        assert!(!m.contains(66));
    }

    #[test]
    fn clear_is_an_epoch_bump() {
        let mut m = FrontierMask::new(1 << 12);
        for i in (0..(1 << 12)).step_by(7) {
            m.insert(i);
        }
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(0));
        assert_eq!(m.word(0), 0);
        // Re-inserting after a clear starts from scratch, not from stale
        // words.
        m.insert(70);
        assert_eq!(collect(&m), vec![70]);
    }

    #[test]
    fn word_boundaries_round_trip() {
        // Every boundary-straddling pair around the leaf and summary word
        // edges (64 and 64*64) must read back exactly.
        let mut m = FrontierMask::new(1 << 13);
        let edges = [0, 63, 64, 127, 128, 4095, 4096, 4097, 8191];
        for &i in &edges {
            m.insert(i);
        }
        assert_eq!(collect(&m), edges.to_vec());
        assert_eq!(cursor_words(&m), m.words().collect::<Vec<_>>());
        // A cursor starting mid-summary-word skips the leaf words before
        // it, and crosses into the next summary word.
        assert_eq!(m.next_word(3), Some((63, 1 << 63)));
        assert_eq!(m.next_word(64), Some((64, 0b11)));
        assert_eq!(m.next_word(128), None);
    }

    #[test]
    fn insert_word_matches_bitwise_inserts() {
        let mut a = FrontierMask::new(256);
        let mut b = FrontierMask::new(256);
        let word = 0xdead_beef_0badu64;
        a.insert_word(2, word);
        for bit in (WordBits { base: 128, word }) {
            b.insert(bit);
        }
        assert_eq!(collect(&a), collect(&b));
        assert_eq!(a.word(2), word);
        assert_eq!(a.word(1), 0);
    }

    #[test]
    fn union_and_and_not_compose() {
        let mut a = FrontierMask::new(500);
        let mut b = FrontierMask::new(500);
        for i in (0..500).step_by(3) {
            a.insert(i);
        }
        for i in (0..500).step_by(5) {
            b.insert(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        let want: Vec<usize> = (0..500).filter(|i| i % 3 == 0 || i % 5 == 0).collect();
        assert_eq!(collect(&u), want);

        let mut d = a.clone();
        d.and_not(&b);
        let want: Vec<usize> = (0..500).filter(|i| i % 3 == 0 && i % 5 != 0).collect();
        assert_eq!(collect(&d), want);
        // and_not may leave empty words behind the summary; count,
        // iteration and the cursor must agree anyway.
        assert_eq!(d.count(), want.len());
        assert_eq!(cursor_words(&d), d.words().collect::<Vec<_>>());
    }

    #[test]
    fn push_to_appends_without_clearing() {
        let mut m = FrontierMask::new(100);
        m.insert(9);
        m.insert(64);
        let mut v = vec![7usize];
        m.push_to(&mut v);
        assert_eq!(v, vec![7, 9, 64]);
    }

    #[test]
    fn full_mask_iterates_every_member() {
        let n = 130;
        let mut m = FrontierMask::new(n);
        for i in 0..n {
            m.insert(i);
        }
        assert_eq!(collect(&m), (0..n).collect::<Vec<_>>());
        assert_eq!(m.count(), n);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_past_universe_panics() {
        let mut m = FrontierMask::new(64);
        m.insert(64);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let mut m = FrontierMask::new(10);
        m.insert(3);
        assert!(!m.contains(64));
        assert!(!m.contains(usize::MAX / 128));
        assert_eq!(m.word(17), 0);
    }
}
