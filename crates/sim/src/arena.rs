//! Flat per-destination message arena for the superstep delivery path.
//!
//! A [`MsgArena`] replaces the `Vec<Vec<M>>` inbox-of-inboxes: one backing
//! `Vec<M>` holds every message delivered at a superstep boundary, and a
//! per-destination segment table marks each destination's contiguous slice.
//! The engines keep two arenas and *swap* them every superstep (read last
//! boundary's deliveries from one, fill the other), so at steady state the
//! backing storage is reused and a superstep performs no inbox allocations
//! at all, however many messages it moves.
//!
//! Every fill follows one protocol:
//!
//! 1. **Counting pass** — after [`MsgArena::clear`], the engine walks its
//!    send lanes (and fault fates, retained inboxes and due late arrivals)
//!    once, accumulating the exact number of payloads each destination will
//!    receive straight into the segment table with [`MsgArena::count`] /
//!    [`MsgArena::count_ones`]. [`MsgArena::begin_counted`] then turns the
//!    counts into segments by prefix sum and arms one write cursor per
//!    counted destination.
//! 2. **Placement pass** — the engine replays its *sequential delivery
//!    order* (source pid, then send order, then due arrivals), calling
//!    [`MsgArena::place`] for each payload. Because segment `d` is written
//!    only by deliveries to `d`, and those deliveries occur in the same
//!    relative order as the replay, each destination's slice ends up in
//!    exactly the order the old per-destination `Vec::push` produced — the
//!    order the fault ledger, pending queue, and byte-identical trace
//!    contract are defined by. [`MsgArena::finish`] then asserts every
//!    reserved slot was filled and publishes the segments.
//!
//! ## Epoch-stamped segments
//!
//! Segment validity is tracked by an epoch stamp per destination instead of
//! a dense offset table zeroed every superstep: a destination's segment is
//! meaningful only if its stamp equals the arena's current epoch, and
//! [`MsgArena::clear`] resets the arena by bumping the epoch — O(1), never
//! an O(p) `fill(0)`. Only counted destinations are stamped and laid out,
//! so a whole fill costs O(touched + messages) regardless of `p`; unstamped
//! destinations read as empty. The arena also publishes the destinations
//! that received at least one message ([`MsgArena::touched`]), which is how
//! the engines seed the next superstep's frontier without scanning all `p`
//! inboxes. Segments are laid out in ascending destination order; the
//! layout order is unobservable anyway — `inbox(d)` content and order
//! depend only on the placement replay.
//!
//! ## Safety
//!
//! During a fill the backing vector's length stays 0 while `place` writes
//! initialized payloads into reserved capacity through raw pointers; the
//! cursor bound check (a hard assert, not a debug assert) keeps every write
//! inside its destination's segment and therefore inside the reservation.
//! If the engine panics mid-fill, already-placed payloads are leaked — never
//! double-dropped — because the vector still reports length 0. `finish`
//! publishes the length only after checking that the number of placements
//! equals the reserved total, so no uninitialized slot is ever readable.

use pbw_models::FrontierMask;

/// One destination's segment metadata, interleaved so the layout pass, the
/// placement cursor bump, and the inbox read each touch a single cache line
/// per destination instead of one line in each of four parallel arrays.
/// All four fields are `u32` — 16 bytes per destination, four per cache
/// line — which halves the memory traffic of the counting and layout
/// sweeps. A fill is capped at `u32::MAX` payloads (enforced by
/// `begin_counted`); any larger superstep would hold tens of gigabytes of
/// envelopes in memory before ever reaching the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    /// Start of the segment (valid iff `stamp` equals the arena epoch).
    start: u32,
    /// One-past-the-end of the segment (same validity rule). Doubles as the
    /// count accumulator between [`MsgArena::count`] and
    /// [`MsgArena::begin_counted`].
    end: u32,
    /// Next write index during a fill.
    cursor: u32,
    /// Epoch at which this destination was last counted.
    stamp: u32,
}

/// A reusable flat message store with one contiguous segment per
/// destination and O(1) reset.
#[derive(Debug)]
pub(crate) struct MsgArena<M> {
    /// Backing storage; `len()` is 0 while a fill is open, the segment total
    /// once published.
    data: Vec<M>,
    /// Per-destination segment table.
    segs: Vec<Seg>,
    /// Current epoch; bumped by `clear`. A `u32`
    /// can wrap within a very long run, so the bump hard-resets every stamp
    /// when it does (once per ~4G resets) — stale stamps never alias.
    epoch: u32,
    /// Destinations holding at least one message this fill, as a bitset
    /// mask (cleared by an O(1) epoch bump alongside the arena's own).
    touched: FrontierMask,
    /// Total payloads reserved by the open (or last published) fill.
    total: usize,
    /// Payloads placed since `begin_counted`.
    placed: usize,
    /// Whether a fill is open (`begin_counted` called, `finish` not yet).
    filling: bool,
}

impl<M> MsgArena<M> {
    /// An empty arena with `p` destinations: every segment is empty.
    pub(crate) fn new(p: usize) -> Self {
        Self {
            data: Vec::new(),
            // Stamps start below the first epoch, so every destination is
            // unstamped (empty) until a fill lays it out.
            segs: vec![Seg::default(); p],
            epoch: 1,
            touched: FrontierMask::new(p),
            total: 0,
            placed: 0,
            filling: false,
        }
    }

    /// Drop all stored payloads and reset every segment to empty, in O(1):
    /// the epoch bump invalidates every stamp at once. Keeps the backing
    /// capacity. Every fill's counting pass starts here.
    pub(crate) fn clear(&mut self) {
        debug_assert!(!self.filling, "clear during an open fill");
        self.data.clear();
        self.bump_epoch();
        self.touched.clear();
        self.total = 0;
        self.placed = 0;
        self.filling = false;
    }

    /// Restart the epoch counter at `epoch`, leaving every stamp as it is,
    /// so a test can reach the wrap in [`MsgArena::bump_epoch`] without
    /// ~4G clears.
    #[cfg(test)]
    fn seed_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Invalidate every stamp by bumping the epoch. On the (once per ~4G
    /// resets) wrap, hard-reset every stamp instead, so a stale segment can
    /// never alias the restarted counter.
    #[inline]
    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            for seg in &mut self.segs {
                seg.stamp = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Accumulate `n` payloads for `dest` directly into the segment table
    /// (`end` doubles as the count accumulator until
    /// [`MsgArena::begin_counted`] converts the counts to offsets by prefix
    /// sum). Must run between [`MsgArena::clear`] and `begin_counted`. A
    /// zero increment on a never-counted destination is a no-op: the
    /// destination stays unstamped and reads as empty, exactly as if it
    /// were laid out with an empty segment.
    #[inline]
    pub(crate) fn count(&mut self, dest: usize, n: usize) {
        debug_assert!(!self.filling, "count during an open fill");
        if n == 0 {
            return;
        }
        let seg = &mut self.segs[dest];
        if seg.stamp != self.epoch {
            seg.stamp = self.epoch;
            seg.end = n as u32;
            self.touched.insert(dest);
        } else {
            seg.end += n as u32;
        }
    }

    /// Count one payload for every destination in `dests` — the batched
    /// form of [`MsgArena::count`]`(d, 1)`, with the epoch hoisted. This is
    /// the unhooked per-sender counting kernel.
    pub(crate) fn count_ones(&mut self, dests: &[usize]) {
        debug_assert!(!self.filling, "count during an open fill");
        let epoch = self.epoch;
        // Newly touched destinations are accumulated one leaf word at a
        // time and flushed with a single `insert_word` per run — for the
        // (typical) ascending destination lanes this replaces a two-level
        // mask insert per destination with one per 64. `insert_word` ORs,
        // so revisiting a leaf after a non-monotonic jump still lands every
        // bit.
        let mut cur_leaf = usize::MAX;
        let mut cur_bits = 0u64;
        for &d in dests {
            let seg = &mut self.segs[d];
            if seg.stamp != epoch {
                seg.stamp = epoch;
                seg.end = 1;
                let leaf = d / 64;
                if leaf != cur_leaf {
                    if cur_bits != 0 {
                        self.touched.insert_word(cur_leaf, cur_bits);
                    }
                    cur_leaf = leaf;
                    cur_bits = 0;
                }
                cur_bits |= 1u64 << (d % 64);
            } else {
                seg.end += 1;
            }
        }
        if cur_bits != 0 {
            self.touched.insert_word(cur_leaf, cur_bits);
        }
    }

    /// Open a fill from the counts accumulated by [`MsgArena::count`] /
    /// [`MsgArena::count_ones`]: one in-place prefix-sum walk over the
    /// touched mask turns each count into its segment bounds, O(touched).
    /// The epoch is *not* bumped: the stamps the counting pass set mark
    /// exactly the destinations this fill lays out.
    ///
    /// Returns the largest single segment laid out (0 when none): the
    /// layout walk reads every count anyway, and on the unhooked path that
    /// maximum *is* the superstep's max receive count.
    ///
    /// # Panics
    /// Panics if a fill is already open.
    pub(crate) fn begin_counted(&mut self) -> u64 {
        assert!(!self.filling, "begin while a fill is already open");
        self.data.clear();
        let mut total = 0usize;
        let mut max_seg = 0usize;
        let Self {
            ref touched,
            ref mut segs,
            ..
        } = *self;
        for (leaf, word) in touched.words() {
            let base = leaf * 64;
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let seg = &mut segs[base + bit as usize];
                let c = seg.end as usize;
                seg.start = total as u32;
                seg.cursor = total as u32;
                total += c;
                seg.end = total as u32;
                max_seg = max_seg.max(c);
            }
        }
        assert!(
            total <= u32::MAX as usize,
            "fill exceeds u32 payload indexing"
        );
        self.data.reserve(total);
        self.total = total;
        self.placed = 0;
        self.filling = true;
        max_seg as u64
    }

    /// Place the next payload for `dest`, in delivery order.
    ///
    /// # Panics
    /// Panics if no fill is open, `dest` was never counted by this fill, or
    /// `dest`'s segment is already full (either of which would mean the
    /// counting pass and the delivery replay disagree).
    #[inline]
    pub(crate) fn place(&mut self, dest: usize, payload: M) {
        assert!(self.filling, "place outside an open fill");
        let seg = &mut self.segs[dest];
        assert!(
            seg.stamp == self.epoch,
            "delivery to destination {dest}, which the counting pass never counted"
        );
        let cursor = seg.cursor;
        assert!(
            cursor < seg.end,
            "delivery overflows destination {dest}'s counted segment"
        );
        seg.cursor = cursor + 1;
        // SAFETY: `begin_counted` reserved capacity for the segment
        // total; the stamp assert proves `seg.end` belongs to this fill's
        // layout, and the cursor assert keeps the write strictly inside it
        // (hence inside the reservation). The length is still 0, so this
        // writes an initialized value into reserved, unobservable capacity
        // (leaked, not double-dropped, on panic).
        unsafe { self.data.as_mut_ptr().add(cursor as usize).write(payload) };
        self.placed += 1;
    }

    /// Close the fill and publish the segments.
    ///
    /// # Panics
    /// Panics if the number of placements differs from the reserved total —
    /// every counted slot must have been filled.
    pub(crate) fn finish(&mut self) {
        assert!(self.filling, "finish without an open fill");
        assert_eq!(
            self.placed, self.total,
            "counting pass and delivery replay disagree"
        );
        // SAFETY: exactly `total` slots were initialized by `place` (one per
        // placement, each at a distinct index by the per-destination cursor
        // discipline) into capacity reserved by `begin_counted`.
        unsafe { self.data.set_len(self.total) };
        self.filling = false;
    }

    /// Destination `d`'s messages, in delivery order. Unstamped
    /// destinations (never counted by the last fill, or cleared) are empty.
    ///
    /// # Panics
    /// Panics if a fill is open.
    #[inline]
    pub(crate) fn inbox(&self, d: usize) -> &[M] {
        assert!(!self.filling, "inbox read during an open fill");
        let seg = &self.segs[d];
        if seg.stamp == self.epoch {
            &self.data[seg.start as usize..seg.end as usize]
        } else {
            &[]
        }
    }

    /// Number of messages stored for destination `d`.
    #[inline]
    pub(crate) fn len(&self, d: usize) -> usize {
        let seg = &self.segs[d];
        if seg.stamp == self.epoch {
            (seg.end - seg.start) as usize
        } else {
            0
        }
    }

    /// Destinations holding at least one message in the current fill, as a
    /// bitset. The sparse frontier unions this mask into the next
    /// superstep's word-at-a-time, without scanning all `p` inboxes.
    #[inline]
    pub(crate) fn touched(&self) -> &FrontierMask {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one whole fill: clear, count `sends` (destination, payload) in
    /// order, lay out, place them in the same order, publish.
    fn fill<M: Clone>(a: &mut MsgArena<M>, sends: &[(usize, M)]) {
        a.clear();
        for (d, _) in sends {
            a.count(*d, 1);
        }
        a.begin_counted();
        for (d, m) in sends {
            a.place(*d, m.clone());
        }
        a.finish();
    }

    fn touched(a: &MsgArena<impl Sized>) -> Vec<usize> {
        a.touched().iter().collect()
    }

    #[test]
    fn fresh_arena_has_empty_inboxes() {
        let a: MsgArena<u32> = MsgArena::new(4);
        for d in 0..4 {
            assert!(a.inbox(d).is_empty());
            assert_eq!(a.len(d), 0);
        }
        assert!(a.touched().is_empty());
    }

    #[test]
    fn fill_preserves_interleaved_delivery_order() {
        let mut a: MsgArena<u32> = MsgArena::new(3);
        // Delivery order interleaves destinations, as the engines' replay
        // does.
        fill(&mut a, &[(2, 20), (0, 1), (2, 21), (0, 2), (2, 22)]);
        assert_eq!(a.inbox(0), &[1, 2]);
        assert_eq!(a.inbox(1), &[] as &[u32]);
        assert_eq!(a.inbox(2), &[20, 21, 22]);
        assert_eq!(touched(&a), vec![0, 2]);
    }

    #[test]
    fn count_and_count_ones_accumulate_into_one_layout() {
        let mut a: MsgArena<u32> = MsgArena::new(8);
        a.clear();
        a.count(6, 2);
        a.count_ones(&[1, 6, 1]);
        // A zero count leaves the destination unstamped: empty, untouched.
        a.count(4, 0);
        assert_eq!(a.begin_counted(), 3, "largest segment");
        for (d, m) in [(6, 60), (1, 10), (6, 61), (1, 11), (6, 62)] {
            a.place(d, m);
        }
        a.finish();
        assert_eq!(a.inbox(6), &[60, 61, 62]);
        assert_eq!(a.inbox(1), &[10, 11]);
        assert!(a.inbox(4).is_empty());
        assert_eq!(a.len(0), 0);
        assert_eq!(touched(&a), vec![1, 6]);
    }

    #[test]
    fn refill_reuses_without_stale_contents() {
        let mut a: MsgArena<String> = MsgArena::new(2);
        fill(&mut a, &[(0, "a".into()), (1, "b".into())]);
        fill(&mut a, &[(1, "c".into()), (1, "d".into())]);
        // Destination 0's old segment is stale, not re-served.
        assert!(a.inbox(0).is_empty());
        assert_eq!(a.inbox(1), &["c".to_string(), "d".to_string()]);
        assert_eq!(touched(&a), vec![1]);
    }

    #[test]
    fn clear_empties_every_segment() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        fill(&mut a, &[(0, 1), (1, 2)]);
        a.clear();
        assert!(a.inbox(0).is_empty());
        assert!(a.inbox(1).is_empty());
        assert!(a.touched().is_empty());
    }

    #[test]
    fn epoch_wrap_hard_resets_stale_stamps() {
        let mut a: MsgArena<u32> = MsgArena::new(130);
        fill(&mut a, &[(129, 7), (3, 8)]);
        // Destinations 3 and 129 now carry stamp 2, the epoch the counter
        // reaches again one fill after the wrap.
        assert_eq!(a.epoch, 2);
        a.seed_epoch(u32::MAX - 1);
        fill(&mut a, &[(64, 1), (0, 2), (64, 3)]);
        assert_eq!(a.epoch, u32::MAX);
        assert_eq!(a.inbox(64), &[1, 3]);
        assert_eq!(a.inbox(0), &[2]);
        assert_eq!(touched(&a), vec![0, 64]);
        // The wrap itself.
        fill(&mut a, &[(5, 50)]);
        assert_eq!(a.epoch, 1);
        assert_eq!(a.inbox(5), &[50]);
        assert_eq!(touched(&a), vec![5]);
        // Back at epoch 2: without the hard reset, 3's and 129's stale
        // stamps would match again and serve dead segments.
        fill(&mut a, &[(0, 60), (129, 61), (0, 62)]);
        assert_eq!(a.epoch, 2);
        assert_eq!(a.inbox(0), &[60, 62]);
        assert_eq!(a.inbox(129), &[61]);
        for d in (1..129).filter(|&d| d != 64) {
            assert!(a.inbox(d).is_empty(), "dest {d} survived the wrap");
            assert_eq!(a.len(d), 0, "dest {d}");
        }
        assert!(a.inbox(64).is_empty());
        assert_eq!(touched(&a), vec![0, 129]);
    }

    #[test]
    #[should_panic(expected = "never counted")]
    fn placing_to_an_uncounted_destination_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(4);
        a.clear();
        a.count(1, 1);
        a.begin_counted();
        a.place(3, 1);
    }

    #[test]
    #[should_panic(expected = "counted segment")]
    fn overflowing_a_segment_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        a.clear();
        a.count(0, 1);
        a.begin_counted();
        a.place(0, 1);
        a.place(0, 2);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn underfilling_panics_at_finish() {
        let mut a: MsgArena<u8> = MsgArena::new(1);
        a.clear();
        a.count(0, 2);
        a.begin_counted();
        a.place(0, 1);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "open fill")]
    fn inbox_read_during_fill_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(1);
        a.clear();
        a.count(0, 1);
        a.begin_counted();
        let _ = a.inbox(0);
    }

    #[test]
    fn steady_state_refill_does_not_grow() {
        let mut a: MsgArena<u64> = MsgArena::new(8);
        let sends = |round: usize| -> Vec<(usize, u64)> {
            (0..8)
                .flat_map(|d| (0..4).map(move |k| (d, (round * 100 + d * 10 + k) as u64)))
                .collect()
        };
        for round in 0..3 {
            fill(&mut a, &sends(round));
        }
        let cap_after_warmup = a.data.capacity();
        for round in 3..10 {
            fill(&mut a, &sends(round));
        }
        assert_eq!(a.data.capacity(), cap_after_warmup);
        assert_eq!(a.inbox(7)[3], 973);
    }
}
