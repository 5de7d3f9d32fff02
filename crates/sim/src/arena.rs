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
//! ## Zero outside `touched`
//!
//! Between fills the arena keeps one invariant: a destination that is not
//! in the touched mask ([`MsgArena::touched`]) has an all-zero segment. So
//! [`MsgArena::inbox`] and [`MsgArena::len`] read a segment with no validity
//! check (an untouched destination reads `0..0`), and the counting pass
//! recognises a first touch by `end == 0`. [`MsgArena::clear`] restores the
//! invariant by zeroing only the previous fill's touched segments, so a
//! whole fill costs O(touched + messages) regardless of `p`. The touched
//! mask is also how the engines seed the next superstep's frontier without
//! scanning all `p` inboxes.
//!
//! While a fill is open, `start` is the destination's write cursor and
//! `end` its bound, so one compare rejects a placement to an uncounted
//! (`0..0`) or full destination. Segments are laid out contiguously in
//! ascending destination order, so [`MsgArena::finish`] restores each
//! `start` from the previous touched segment's `end`. The layout order is
//! unobservable: `inbox(d)` content and order depend only on the placement
//! replay.
//!
//! ## Safety
//!
//! During a fill the backing vector's length stays 0 while `place` writes
//! initialized payloads into reserved capacity through raw pointers. The
//! cursor bound check (a hard assert, not a debug assert) keeps every write
//! inside its destination's segment, and the zero-outside-touched invariant
//! keeps every segment inside the reservation. If the engine panics
//! mid-fill, already-placed payloads are leaked — never double-dropped —
//! because the vector still reports length 0. `finish` publishes the length
//! only after checking that every touched segment is full and that the
//! segments cover the reserved total, so no uninitialized slot is ever
//! readable.

use pbw_models::FrontierMask;

/// One destination's segment, both bounds side by side so the layout pass,
/// the placement cursor bump and the inbox read each touch one cache line
/// per destination. Two `u32`s — 8 bytes per destination, eight per cache
/// line. A fill is capped at `u32::MAX` payloads (enforced by the counting
/// pass); any larger superstep would hold tens of gigabytes of envelopes in
/// memory before ever reaching the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    /// Start of the segment; the write cursor while a fill is open.
    start: u32,
    /// One-past-the-end of the segment. Doubles as the count accumulator
    /// between [`MsgArena::count`] and [`MsgArena::begin_counted`].
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Seg>() == 8);

/// A reusable flat message store with one contiguous segment per
/// destination and O(touched) reset. A clone between fills is a whole
/// snapshot of the inboxes, touched mask included (BSP checkpoints keep
/// one).
#[derive(Debug, Clone)]
pub(crate) struct MsgArena<M> {
    /// Backing storage; `len()` is 0 while a fill is open, the segment total
    /// once published.
    data: Vec<M>,
    /// Per-destination segment table, all zero outside `touched`.
    segs: Vec<Seg>,
    /// Destinations counted by this fill, as a bitset mask.
    touched: FrontierMask,
    /// Payloads counted by the open fill, or published by the last one.
    total: u64,
    /// Whether a fill is open (`begin_counted` called, `finish` not yet).
    filling: bool,
}

/// Call `f` on every touched destination's segment, in ascending
/// destination order.
#[inline]
fn for_each_touched(touched: &FrontierMask, segs: &mut [Seg], mut f: impl FnMut(usize, &mut Seg)) {
    for (leaf, mut bits) in touched.words() {
        while bits != 0 {
            let d = leaf * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(d, &mut segs[d]);
        }
    }
}

impl<M> MsgArena<M> {
    /// An empty arena with `p` destinations: every segment is empty.
    pub(crate) fn new(p: usize) -> Self {
        Self {
            data: Vec::new(),
            segs: vec![Seg::default(); p],
            touched: FrontierMask::new(p),
            total: 0,
            filling: false,
        }
    }

    /// Drop all stored payloads and reset every segment to empty by zeroing
    /// the touched ones, O(touched). Keeps the backing capacity. Every
    /// fill's counting pass starts here.
    pub(crate) fn clear(&mut self) {
        debug_assert!(!self.filling, "clear during an open fill");
        self.data.clear();
        for_each_touched(&self.touched, &mut self.segs, |_, seg| {
            *seg = Seg::default()
        });
        self.touched.clear();
        self.total = 0;
        self.filling = false;
    }

    /// Add `n` payloads to the fill's running total.
    ///
    /// # Panics
    /// Panics once the fill passes `u32::MAX` payloads.
    #[inline]
    fn add_to_total(&mut self, n: usize) {
        self.total = self.total.saturating_add(n as u64);
        assert!(
            self.total <= u64::from(u32::MAX),
            "fill exceeds u32 payload indexing"
        );
    }

    /// Accumulate `n` payloads for `dest` directly into the segment table
    /// (`end` doubles as the count accumulator until
    /// [`MsgArena::begin_counted`] converts the counts to offsets by prefix
    /// sum). Must run between [`MsgArena::clear`] and `begin_counted`. A
    /// zero increment is a no-op: a never-counted destination stays
    /// untouched and reads as empty.
    ///
    /// # Panics
    /// Panics once the fill passes `u32::MAX` payloads.
    #[inline]
    pub(crate) fn count(&mut self, dest: usize, n: usize) {
        debug_assert!(!self.filling, "count during an open fill");
        if n == 0 {
            return;
        }
        self.add_to_total(n);
        let seg = &mut self.segs[dest];
        if seg.end == 0 {
            self.touched.insert(dest);
        }
        // The running total bounds every segment's count, so neither the
        // cast nor the sum can wrap.
        seg.end += n as u32;
    }

    /// Count one payload for every destination in `dests` — the batched
    /// form of [`MsgArena::count`]`(d, 1)`, with the cap checked once. This
    /// is the unhooked per-sender counting kernel.
    ///
    /// # Panics
    /// Panics once the fill passes `u32::MAX` payloads.
    pub(crate) fn count_ones(&mut self, dests: &[usize]) {
        debug_assert!(!self.filling, "count during an open fill");
        self.add_to_total(dests.len());
        // Newly touched destinations are accumulated one leaf word at a
        // time and flushed with a single `insert_word` per run — for the
        // (typical) ascending destination lanes this replaces a two-level
        // mask insert per destination with one per 64. `insert_word` ORs,
        // so revisiting a leaf after a non-monotonic jump still lands every
        // bit.
        let mut cur_leaf = usize::MAX;
        let mut cur_bits = 0u64;
        for &d in dests {
            let Some(seg) = self.segs.get_mut(d) else {
                // Flush before failing, so `clear` still finds every
                // counted segment.
                self.touched.insert_word(cur_leaf, cur_bits);
                panic!(
                    "destination {d} out of range for {} destinations",
                    self.segs.len()
                );
            };
            if seg.end == 0 {
                let leaf = d / 64;
                if leaf != cur_leaf {
                    self.touched.insert_word(cur_leaf, cur_bits);
                    cur_leaf = leaf;
                    cur_bits = 0;
                }
                cur_bits |= 1u64 << (d % 64);
            }
            seg.end += 1;
        }
        self.touched.insert_word(cur_leaf, cur_bits);
    }

    /// Open a fill from the counts accumulated by [`MsgArena::count`] /
    /// [`MsgArena::count_ones`]: one in-place prefix-sum walk over the
    /// touched mask turns each count into its segment bounds, O(touched),
    /// with each `start` armed as the destination's write cursor.
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
        let mut next = 0u32;
        let mut max_seg = 0u32;
        for_each_touched(&self.touched, &mut self.segs, |_, seg| {
            let c = seg.end;
            seg.start = next;
            next += c;
            seg.end = next;
            max_seg = max_seg.max(c);
        });
        self.data.reserve(self.total as usize);
        self.filling = true;
        u64::from(max_seg)
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
        let cursor = seg.start;
        // An uncounted destination's segment is `0..0`, so this one
        // compare refuses it as well as a full one; the mask only words
        // the message.
        assert!(
            cursor < seg.end,
            "delivery to destination {dest}{}",
            if self.touched.contains(dest) {
                " overflows its counted segment"
            } else {
                ", which the counting pass never counted"
            }
        );
        seg.start = cursor + 1;
        // SAFETY: `begin_counted` reserved capacity for the fill's total,
        // and every segment lies inside it: touched ones by the layout
        // walk, untouched ones are `0..0`. The assert keeps the write
        // strictly inside `dest`'s segment. The length is still 0, so this
        // writes an initialized value into reserved, unobservable capacity
        // (leaked, not double-dropped, on panic).
        unsafe { self.data.as_mut_ptr().add(cursor as usize).write(payload) };
    }

    /// Close the fill and publish the segments: check that every touched
    /// segment is full, and move each `start` back from the cursor's final
    /// position to the previous touched segment's `end`.
    ///
    /// # Panics
    /// Panics if a counted slot was never filled.
    pub(crate) fn finish(&mut self) {
        assert!(self.filling, "finish without an open fill");
        let mut next = 0u32;
        for_each_touched(&self.touched, &mut self.segs, |d, seg| {
            assert!(
                seg.start == seg.end,
                "counting pass and delivery replay disagree at destination {d}"
            );
            seg.start = next;
            next = seg.end;
        });
        assert_eq!(
            u64::from(next),
            self.total,
            "counting pass and delivery replay disagree"
        );
        // SAFETY: the touched segments tile `0..total`, and each is full:
        // its cursor wrote every slot exactly once, into capacity reserved
        // by `begin_counted`.
        unsafe { self.data.set_len(next as usize) };
        self.filling = false;
    }

    /// Destination `d`'s messages, in delivery order. A destination the
    /// last fill did not count (or a cleared one) is empty.
    ///
    /// # Panics
    /// Panics if a fill is open.
    #[inline]
    pub(crate) fn inbox(&self, d: usize) -> &[M] {
        assert!(!self.filling, "inbox read during an open fill");
        let Seg { start, end } = self.segs[d];
        &self.data[start as usize..end as usize]
    }

    /// Number of messages stored for destination `d`.
    #[inline]
    pub(crate) fn len(&self, d: usize) -> usize {
        let Seg { start, end } = self.segs[d];
        (end - start) as usize
    }

    /// Payloads the last fill published (while a fill is open: counted).
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
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
        // A zero count leaves the destination untouched: empty.
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
        // Destination 0's old segment was zeroed by the clear, not re-served.
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
    #[should_panic(expected = "fill exceeds u32 payload indexing")]
    fn counting_one_past_the_u32_cap_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        a.clear();
        a.count(0, u32::MAX as usize);
        a.count(0, 1);
    }

    #[test]
    #[should_panic(expected = "fill exceeds u32 payload indexing")]
    fn counting_ones_past_the_u32_cap_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        a.clear();
        a.count(1, u32::MAX as usize);
        a.count_ones(&[0]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "fill exceeds u32 payload indexing")]
    fn a_count_past_u32_panics_instead_of_truncating() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        a.clear();
        a.count(1, 1 << 32);
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

    mod fill_props {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// One generated fill: a destination window (`lo`, `width`), its
        /// counting calls as `(batched, n, raw destinations)` and the seed
        /// of its placement order. A batched call is one `count_ones` over
        /// the destinations; otherwise each gets `count(d, n)`, zero counts
        /// included.
        type Fill = (usize, usize, Vec<(bool, usize, Vec<usize>)>, u64);

        fn fills() -> impl Strategy<Value = Vec<Fill>> {
            let call = (
                any::<bool>(),
                0usize..4,
                proptest::collection::vec(0usize..1024, 0..12),
            );
            let fill = (
                0usize..1024,
                0usize..1024,
                proptest::collection::vec(call, 0..8),
                any::<u64>(),
            );
            proptest::collection::vec(fill, 1..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // A sequence of fills over one arena reads exactly like a
            // `Vec<Vec<u32>>` inbox table rebuilt per fill. Each fill counts
            // inside its own window of destinations, so most destinations
            // an earlier fill counted sit out the current one; batched
            // counts revisit leaf words out of order, and placement follows
            // a seeded shuffle of the counted deliveries.
            #[test]
            fn fills_match_a_vec_of_vecs_reference(p in 1usize..260, fills in fills()) {
                let mut a: MsgArena<u32> = MsgArena::new(p);
                let mut payload = 0u32;
                for (lo, width, calls, order) in fills {
                    let (lo, width) = (lo % p, 1 + width % p);
                    let dest = |raw: usize| (lo + raw % width) % p;
                    a.clear();
                    for d in 0..p {
                        prop_assert_eq!(a.len(d), 0, "dest {} after clear", d);
                        prop_assert!(a.inbox(d).is_empty(), "dest {} after clear", d);
                    }
                    prop_assert!(a.touched().is_empty());
                    let mut deliveries = Vec::new();
                    for (batched, n, raws) in &calls {
                        let ds: Vec<usize> = raws.iter().map(|&r| dest(r)).collect();
                        if *batched {
                            a.count_ones(&ds);
                            deliveries.extend(&ds);
                        } else {
                            for &d in &ds {
                                a.count(d, *n);
                                deliveries.extend(std::iter::repeat_n(d, *n));
                            }
                        }
                    }
                    let mut rng = ChaCha8Rng::seed_from_u64(order);
                    for i in (1..deliveries.len()).rev() {
                        deliveries.swap(i, rng.gen_range(0..=i));
                    }
                    let mut want = vec![Vec::new(); p];
                    let max_seg = a.begin_counted();
                    for &d in &deliveries {
                        a.place(d, payload);
                        want[d].push(payload);
                        payload += 1;
                    }
                    a.finish();
                    let longest = want.iter().map(Vec::len).max().unwrap_or(0);
                    prop_assert_eq!(max_seg, longest as u64);
                    for (d, msgs) in want.iter().enumerate() {
                        prop_assert_eq!(a.inbox(d), &msgs[..], "dest {}", d);
                        prop_assert_eq!(a.len(d), msgs.len(), "dest {}", d);
                    }
                    let counted: Vec<usize> = (0..p).filter(|&d| !want[d].is_empty()).collect();
                    prop_assert_eq!(touched(&a), counted);
                }
            }
        }
    }
}
