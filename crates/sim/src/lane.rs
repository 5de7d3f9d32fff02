//! Per-block send lanes: the recycled storage behind [`crate::Outbox`] and
//! [`crate::QsmCtx`], and the one closure pass both engines run over it.
//!
//! The pids are cut into blocks of [`block_len`] consecutive pids, each
//! owning one [`Lane`]. A block's closures append their messages (BSP) or
//! requests (QSM) to its lane in pid order: keys and items in two flat
//! arrays, slots only once one of them is pinned, and a [`Sender`] record
//! per pid that posted or charged work. Sealing a lane validates it and
//! resolves slots and (hooked) fates into arrays indexed by message, so
//! the lanes in block order list every message in the canonical delivery
//! order with no per-processor storage. A lane is reset when its block
//! opens, so no superstep reads what a rejected or panicked one left, and
//! keeps its capacity, so steady supersteps allocate nothing for sends.
//! Blocks depend on `p` alone, so the dense pass's results cannot depend
//! on how the pool chunks them.

use std::ops::Range;

use crate::hook::{BatchDests, DeliveryHook, Fate};
use crate::{Pid, SimError};
use pbw_models::FrontierMask;
use rayon::prelude::*;

/// Pids per block at `p` processors: `p / 8`, clamped to `1..=64`. A
/// machine of 64 or more processors keeps at least 8 blocks, so an
/// 8-wide pool can still split its dense pass; from 512 processors up
/// every block holds 64 pids, so a lane's fixed cost is spread over 64
/// pids and a fixed set of senders touches the same lanes at any `p`.
pub(crate) fn block_len(p: usize) -> usize {
    (p / 8).clamp(1, 64)
}

/// The slot a plain message holds in a lane with a pin, until the seal
/// resolves it. No pin may equal it: [`Lane::push_at`] panics on one, so it
/// can never pass for a plain message.
const UNPINNED: u64 = u64::MAX;

/// One pid that posted a message or charged work, in its block's lane:
/// its messages end at `end` and start where the previous record ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sender {
    pub(crate) pid: Pid,
    end: usize,
    pub(crate) work: u64,
}

/// A lane's senders with the message range each one posted.
pub(crate) fn ranged(
    senders: &[Sender],
) -> impl DoubleEndedIterator<Item = (Sender, Range<usize>)> + '_ {
    (0..senders.len()).map(move |i| {
        let start = if i == 0 { 0 } else { senders[i - 1].end };
        (senders[i], start..senders[i].end)
    })
}

/// Largest number of injections any single processor charged to one slot of
/// a superstep, over `lanes` whose slots are materialized. The pipelining
/// rule requires this to be ≤ 1; it is recomputed from the resolved slots
/// for each trace event — rather than assumed — so the conformance suite
/// checks the engine, not itself.
pub(crate) fn max_slot_multiplicity<'a, T: 'a>(lanes: impl Iterator<Item = &'a Lane<T>>) -> u64 {
    let per_sender = lanes.flat_map(|lane| ranged(&lane.senders).map(|(_, r)| &lane.slots[r]));
    let runs = per_sender.flat_map(|slots| {
        let mut sorted = slots.to_vec();
        sorted.sort_unstable();
        let longest = sorted.chunk_by(|a, b| a == b).map(<[u64]>::len).max();
        longest.map(|n| n as u64)
    });
    runs.max().unwrap_or(0)
}

/// One block's sends for one superstep.
#[derive(Debug)]
pub(crate) struct Lane<T> {
    /// Destination (BSP) or address (QSM) of each message.
    pub(crate) keys: Vec<usize>,
    /// Payload (BSP) or request (QSM) of each message.
    pub(crate) items: Vec<T>,
    /// Sorted claimed slots of the sender being resolved, unless all its
    /// messages are pinned in ascending order: the seal's recycled scratch.
    claims: Vec<u64>,
    /// Ascending pids that posted or charged work.
    pub(crate) senders: Vec<Sender>,
    /// Injection slot of each message. Empty until the lane's first pin,
    /// then each message's pinned slot or [`UNPINNED`], up to its last pin;
    /// the seal marks the rest and resolves them in place. Still empty
    /// after the seal when nothing reads slots this step and no sender
    /// pinned one: every sender's slots are then `0..n`.
    pub(crate) slots: Vec<u64>,
    /// Fate of each message (hooked steps only).
    pub(crate) fates: Vec<Fate>,
    /// First out-of-range key, and first slot collision, found by `seal`.
    pub(crate) bad_key: Option<SimError>,
    pub(crate) bad_slot: Option<SimError>,
    /// The pid whose closure is running, where its messages start and the
    /// work it charged so far.
    pid: Pid,
    start: usize,
    work: u64,
    /// Capacity reserved when an array first grows: the block length.
    hint: usize,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            items: Vec::new(),
            claims: Vec::new(),
            senders: Vec::new(),
            slots: Vec::new(),
            fates: Vec::new(),
            bad_key: None,
            bad_slot: None,
            pid: 0,
            start: 0,
            work: 0,
            hint: 0,
        }
    }
}

impl<T> Lane<T> {
    /// Append one message of the open pid.
    #[inline]
    pub(crate) fn push(&mut self, key: usize, item: T) {
        if self.keys.capacity() == 0 {
            self.keys.reserve(self.hint);
            self.items.reserve(self.hint);
        }
        self.keys.push(key);
        self.items.push(item);
    }

    /// Append one message of the open pid, pinned to injection step `slot`.
    /// The plain messages since the lane's previous pin are marked
    /// [`UNPINNED`] first; the seal marks those after its last.
    ///
    /// # Panics
    /// If `slot` is [`UNPINNED`], which no superstep can reach.
    #[inline]
    pub(crate) fn push_at(&mut self, key: usize, item: T, slot: u64) {
        assert!(slot != UNPINNED, "injection slot {slot} is out of range");
        if self.slots.capacity() == 0 {
            self.slots.reserve(self.keys.capacity().max(self.hint));
        }
        self.slots.resize(self.keys.len(), UNPINNED);
        self.push(key, item);
        self.slots.push(slot);
    }

    /// Charge `w` units of local work to the open pid.
    #[inline]
    pub(crate) fn charge(&mut self, w: u64) {
        self.work += w;
    }

    /// The keys the open pid has posted so far.
    #[inline]
    pub(crate) fn posted(&self) -> &[usize] {
        &self.keys[self.start..]
    }

    /// Empty the lane for a new superstep, keeping its capacity. O(1) for
    /// payloads without drop glue: delivery drains them.
    fn reset(&mut self, hint: usize) {
        self.keys.clear();
        self.items.clear();
        self.senders.clear();
        self.slots.clear();
        self.fates.clear();
        self.bad_key = None;
        self.bad_slot = None;
        self.hint = hint;
    }

    fn open(&mut self, pid: Pid) {
        self.pid = pid;
        self.start = self.keys.len();
        self.work = 0;
    }

    fn close(&mut self) {
        let end = self.keys.len();
        if end > self.start || self.work != 0 {
            if self.senders.capacity() == 0 {
                self.senders.reserve(self.hint);
            }
            self.senders.push(Sender {
                pid: self.pid,
                end,
                work: self.work,
            });
        }
    }

    /// Validate, resolve and (hooked) fate every sender, in pid order. A
    /// sender with an out-of-range key records the lane's `bad_key` and
    /// ends the seal; after a slot collision the remaining senders are
    /// only key-checked. Either error rejects the step, so nothing after it
    /// is read.
    fn seal(&mut self, cfg: &Pass) {
        let pinned = !self.slots.is_empty();
        if pinned {
            self.slots.resize(self.keys.len(), UNPINNED);
        }
        for (Sender { pid, .. }, r) in ranged(&self.senders) {
            let keys = &self.keys[r.clone()];
            // A vectorizable max over the lane, then a rescan for the
            // first offender only when there is one.
            if keys
                .iter()
                .copied()
                .max()
                .is_some_and(|max| max >= cfg.bound)
            {
                let key = keys.iter().copied().find(|&k| k >= cfg.bound);
                self.bad_key = Some((cfg.key_error)(pid, key.unwrap_or(cfg.bound), cfg.bound));
                return;
            }
            if !(cfg.materialize || pinned) || self.bad_slot.is_some() {
                continue;
            }
            if !pinned {
                self.slots.extend(0..r.len() as u64);
            } else if let Err(slot) = resolve_slots(&mut self.slots[r.clone()], &mut self.claims) {
                self.bad_slot = Some(SimError::DuplicateSlot { pid, slot });
                continue;
            }
            if let Some((h, step)) = cfg.hook {
                let dests = if cfg.uniform {
                    BatchDests::Uniform(pid)
                } else {
                    BatchDests::Lane(keys)
                };
                h.fate_batch(step, pid, dests, &self.slots[r], &mut self.fates);
            }
        }
    }
}

/// Resolve one processor's injection slots in place. `slots` holds each of
/// its messages' pinned slot, or [`UNPINNED`] for a plain one: pinned
/// slots are honoured, and the plain messages take, in order, the earliest
/// slots no pin claimed. Two pins on one slot return the smallest such slot
/// as the error.
///
/// A sender whose messages are all pinned, with pins that strictly ascend
/// as staggered and scheduled sends do, is done after one read-only pass.
/// Any other sender's pins are copied into `claims`, recycled scratch, so
/// a steady superstep never allocates; the copy is sorted and checked for
/// duplicates only when the pins do not ascend.
fn resolve_slots(slots: &mut [u64], claims: &mut Vec<u64>) -> Result<(), u64> {
    let (mut ascending, mut floor, mut plain) = (true, 0, 0);
    for &s in slots.iter() {
        if s == UNPINNED {
            plain += 1;
        } else {
            // `floor` is the least slot the next pin may take if pins
            // ascend; no pin is `u64::MAX`, so `s + 1` cannot overflow.
            ascending &= s >= floor;
            floor = s + 1;
        }
    }
    if ascending && plain == 0 {
        return Ok(());
    }
    claims.clear();
    claims.extend(slots.iter().copied().filter(|&s| s != UNPINNED));
    if !ascending {
        claims.sort_unstable();
        if let Some(w) = claims.windows(2).find(|w| w[0] == w[1]) {
            return Err(w[0]);
        }
    }
    if plain == 0 {
        return Ok(());
    }
    // The plain messages fill the gaps of the sorted claims in order:
    // `next` only grows, so the cursor passes each claim once.
    let (mut next, mut c) = (0, 0);
    for s in slots.iter_mut().filter(|s| **s == UNPINNED) {
        while claims.get(c) == Some(&next) {
            next += 1;
            c += 1;
        }
        *s = next;
        next += 1;
    }
    Ok(())
}

/// Storage wrapping a lane: [`crate::Outbox`] and [`crate::QsmCtx`]. A
/// crate-private trait, so callers outside the engines cannot reach it.
pub(crate) trait AsLane<T> {
    fn lane(&mut self) -> &mut Lane<T>;
}

/// What one closure pass needs besides the closures, and how it seals
/// each lane.
pub(crate) struct Pass<'a> {
    /// Pids per block ([`block_len`]).
    pub(crate) block: usize,
    /// Stalled and crashed processors, whose closures are skipped (hooked
    /// steps only).
    pub(crate) down: Option<(&'a FrontierMask, &'a FrontierMask)>,
    /// Keys must lie below this: `p` (BSP) or the memory size (QSM).
    pub(crate) bound: usize,
    /// The error an out-of-range key raises: `(pid, key, bound)`.
    pub(crate) key_error: fn(Pid, usize, usize) -> SimError,
    /// Whether every sender's slots are read downstream.
    pub(crate) materialize: bool,
    /// The hook and step index fates are computed for, if any.
    pub(crate) hook: Option<(&'a dyn DeliveryHook, u64)>,
    /// Whether a batch's destination is its sender (QSM) rather than the
    /// message keys (BSP).
    pub(crate) uniform: bool,
}

impl Pass<'_> {
    /// Run `pid`'s closure into its block's open lane, unless it is down.
    #[inline]
    fn visit<S, T, W: AsLane<T>>(
        &self,
        pid: Pid,
        state: &mut S,
        w: &mut W,
        f: &impl Fn(Pid, &mut S, &mut W),
    ) {
        if self
            .down
            .is_some_and(|(stalled, crashed)| stalled.contains(pid) || crashed.contains(pid))
        {
            return;
        }
        w.lane().open(pid);
        f(pid, state, w);
        w.lane().close();
    }

    /// Dense pass: every block in parallel, one task per block, each
    /// running its pids in order into its own lane and then sealing it.
    pub(crate) fn dense<S, T, W, F>(&self, states: &mut [S], lanes: &mut [W], f: F)
    where
        S: Send,
        W: AsLane<T> + Send,
        F: Fn(Pid, &mut S, &mut W) + Sync,
    {
        let _: Vec<()> = states
            .par_chunks_mut(self.block)
            .zip(lanes.par_iter_mut())
            .enumerate()
            .map(|(b, (states, w))| {
                w.lane().reset(self.block);
                for (i, state) in states.iter_mut().enumerate() {
                    self.visit(b * self.block + i, state, w, &f);
                }
                w.lane().seal(self);
            })
            .collect();
    }

    /// Sparse pass: the frontier's pids in ascending order, walked word by
    /// word in place, each into its block's lane. Blocks open in ascending
    /// order and are listed in `live`; each is sealed once its last
    /// frontier pid has run.
    pub(crate) fn sparse<S, T, W, F>(
        &self,
        states: &mut [S],
        lanes: &mut [W],
        live: &mut Vec<usize>,
        frontier: &FrontierMask,
        f: F,
    ) where
        W: AsLane<T>,
        F: Fn(Pid, &mut S, &mut W),
    {
        live.clear();
        let mut from = 0;
        while let Some((leaf, word)) = frontier.next_word(from) {
            from = leaf + 1;
            let mut bits = word;
            while bits != 0 {
                let pid = leaf * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let b = pid / self.block;
                if live.last() != Some(&b) {
                    if let Some(&prev) = live.last() {
                        lanes[prev].lane().seal(self);
                    }
                    lanes[b].lane().reset(self.block);
                    live.push(b);
                }
                self.visit(pid, &mut states[pid], &mut lanes[b], &f);
            }
        }
        if let Some(&last) = live.last() {
            lanes[last].lane().seal(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct W(Lane<u8>);
    impl AsLane<u8> for W {
        fn lane(&mut self) -> &mut Lane<u8> {
            &mut self.0
        }
    }

    fn pass(block: usize, bound: usize) -> Pass<'static> {
        Pass {
            block,
            down: None,
            bound,
            key_error: |pid, dest, _| SimError::BadDestination { pid, dest },
            materialize: false,
            hook: None,
            uniform: false,
        }
    }

    #[test]
    fn block_len_is_a_pure_function_of_p() {
        assert_eq!(block_len(1), 1);
        assert_eq!(block_len(64), 8);
        assert_eq!(block_len(256), 32);
        assert_eq!(block_len(512), 64);
        assert_eq!(block_len(1 << 20), 64);
    }

    #[test]
    fn senders_record_their_ranges_and_slots_resolve_around_pins() {
        let mut w = W(Lane::default());
        w.0.reset(4);
        let pass = pass(4, 8);
        for pid in 0..4 {
            pass.visit(pid, &mut (), &mut w, &|pid, _, w: &mut W| match pid {
                0 => w.0.charge(5),
                2 => {
                    w.0.push(1, 10);
                    w.0.push_at(3, 11, 0);
                    w.0.push(2, 12);
                }
                3 => w.0.push(0, 13),
                _ => {}
            });
        }
        w.0.seal(&pass);
        let got: Vec<(Pid, u64, Range<usize>)> = ranged(&w.0.senders)
            .map(|(s, r)| (s.pid, s.work, r))
            .collect();
        assert_eq!(got, vec![(0, 5, 0..0), (2, 0, 0..3), (3, 0, 3..4)]);
        // A pin makes the lane resolve every sender's slots.
        assert_eq!(w.0.slots, vec![1, 0, 2, 0]);
        assert!(w.0.bad_key.is_none() && w.0.bad_slot.is_none());
    }

    #[test]
    fn seal_reports_the_first_offender() {
        let mut lane: Lane<u8> = Lane::default();
        lane.reset(4);
        for (pid, sends) in [
            (0, &[(1, Some(3)), (2, Some(3))][..]),
            (1, &[(9, None)][..]),
        ] {
            lane.open(pid);
            for &(key, slot) in sends {
                match slot {
                    Some(s) => lane.push_at(key, 0, s),
                    None => lane.push(key, 0),
                }
            }
            lane.close();
        }
        lane.seal(&pass(4, 4));
        assert_eq!(
            lane.bad_slot,
            Some(SimError::DuplicateSlot { pid: 0, slot: 3 })
        );
        assert_eq!(
            lane.bad_key,
            Some(SimError::BadDestination { pid: 1, dest: 9 })
        );
    }

    mod resolver_props {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use std::collections::BTreeSet;

        /// One sender's messages, `Some(slot)` for a pinned one. `kind`
        /// picks the shape: 0 every message pinned, pins ascending; 1 every
        /// message pinned, pins shuffled; 2 none pinned; 3 a random mix,
        /// pins ascending; 4 a random mix, pins shuffled. Pins are distinct
        /// slots below `2n + 2`, so plain messages must fill the gaps
        /// between claims, until `dup` makes up to two of them collide.
        fn sender(kind: u8, dup: bool, n: usize, seed: u64) -> Vec<Option<u64>> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut shuffle = |v: &mut [u64]| {
                for i in (1..v.len()).rev() {
                    v.swap(i, rng.gen_range(0..=i));
                }
            };
            let mut pool: Vec<u64> = (0..2 * n as u64 + 2).collect();
            shuffle(&mut pool);
            let pinned = match kind {
                0 | 1 => n,
                2 => 0,
                _ => pool[0] as usize % (n + 1),
            };
            let mut pins = pool[..pinned].to_vec();
            let ascending = kind != 1 && kind != 4;
            if ascending {
                pins.sort_unstable();
            }
            if dup && pinned >= 2 {
                // Up to two collisions, each a pin copied onto its
                // neighbour, which keeps ascending pins non-decreasing.
                for &r in &pool[1..3] {
                    let j = r as usize % (pinned - 1);
                    pins[j + 1] = pins[j];
                }
                if !ascending {
                    shuffle(&mut pins);
                }
            }
            let mut at: Vec<u64> = (0..n as u64).collect();
            shuffle(&mut at);
            let mut at: Vec<usize> = at[..pinned].iter().map(|&i| i as usize).collect();
            at.sort_unstable();
            let mut pins = pins.into_iter();
            let mut at = at.into_iter().peekable();
            (0..n)
                .map(|i| (at.next_if_eq(&i).is_some()).then(|| pins.next().unwrap()))
                .collect()
        }

        /// The naive resolver: claimed slots in a set, then each plain
        /// message in order takes the smallest slot still free.
        fn reference(sends: &[Option<u64>]) -> Result<Vec<u64>, u64> {
            let mut claimed = BTreeSet::new();
            let mut dups = BTreeSet::new();
            for &slot in sends.iter().flatten() {
                if !claimed.insert(slot) {
                    dups.insert(slot);
                }
            }
            if let Some(&slot) = dups.first() {
                return Err(slot);
            }
            let resolved = sends.iter().map(|s| {
                s.unwrap_or_else(|| {
                    let free = (0..).find(|t| !claimed.contains(t)).unwrap();
                    claimed.insert(free);
                    free
                })
            });
            Ok(resolved.collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Every sender of a lane resolves in place exactly as the
            // naive reference does, up to the first collision, which
            // reports the smallest duplicated slot; plain senders before
            // the lane's first pin are back-filled as unpinned.
            #[test]
            fn in_place_resolution_matches_the_naive_reference(
                senders in proptest::collection::vec(
                    (0u8..5, any::<bool>(), 0usize..24, any::<u64>()),
                    1..5,
                ),
                materialize in any::<bool>(),
            ) {
                let sends: Vec<Vec<Option<u64>>> = senders
                    .iter()
                    .map(|&(kind, dup, n, seed)| sender(kind, dup, n, seed))
                    .collect();
                let mut lane: Lane<u8> = Lane::default();
                lane.reset(4);
                for (pid, msgs) in sends.iter().enumerate() {
                    lane.open(pid);
                    for &slot in msgs {
                        match slot {
                            Some(s) => lane.push_at(0, 0, s),
                            None => lane.push(0, 0),
                        }
                    }
                    lane.close();
                }
                lane.seal(&Pass { materialize, ..pass(4, 1) });

                let mut want = Vec::new();
                let mut bad = None;
                for (pid, msgs) in sends.iter().enumerate() {
                    match reference(msgs) {
                        Ok(slots) => want.extend(slots),
                        Err(slot) => {
                            bad = Some(SimError::DuplicateSlot { pid, slot });
                            break;
                        }
                    }
                }
                prop_assert_eq!(&lane.bad_slot, &bad);
                let pinned = sends.iter().flatten().any(Option::is_some);
                if bad.is_none() && !(pinned || materialize) {
                    prop_assert!(lane.slots.is_empty());
                } else {
                    prop_assert_eq!(&lane.slots[..want.len()], &want[..]);
                }
            }
        }
    }
}
