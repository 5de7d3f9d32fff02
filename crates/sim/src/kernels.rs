//! Data-oriented batch kernels for the superstep communication passes.
//!
//! The engines keep a flat structure-of-arrays destination lane next to
//! every outbox (`Outbox::dests`), so the counting pass — "how many payloads
//! land in each destination arena this superstep?" — never has to walk
//! `Envelope` structs (whose inline payloads make the walk a cache-miss per
//! message for any non-trivial `M`). These kernels sweep the `usize` lane
//! directly, in exact-width chunks that rustc fully unrolls, with the
//! per-message fate/liveness decision computed as a branchless 0/1 increment
//! instead of a `match` per element.
//!
//! Every kernel is bit-equivalent to the scalar per-envelope loop it
//! replaced; `#[cfg(test)]` keeps those scalar references alive and the
//! proptests below pin the equivalence on random inputs — including the
//! empty batch, a single message, and lengths straddling the chunk width.

use crate::hook::Fate;
use crate::Pid;
use pbw_models::{EpochCounts, FrontierMask};

/// Exact-width inner chunk: small enough that rustc fully unrolls the inner
/// loop, large enough to hide the loop-carried scatter dependency.
const LANE: usize = 8;

/// Whether `fate` places a payload into the destination arena *this*
/// superstep (drops never arrive; delays arrive in a later superstep).
#[inline(always)]
fn counts_now(fate: Fate) -> bool {
    matches!(fate, Fate::Deliver | Fate::Duplicate | Fate::Displace(_))
}

/// Unhooked dense counting: histogram one sender's destination lane into the
/// per-processor arena counts. With no hook every message counts — the
/// kernel is a pure scatter-increment over the lane.
pub fn count_dests(dests: &[Pid], counts: &mut [usize]) {
    let mut chunks = dests.chunks_exact(LANE);
    for chunk in &mut chunks {
        for &d in chunk {
            counts[d] += 1;
        }
    }
    for &d in chunks.remainder() {
        counts[d] += 1;
    }
}

/// Hooked dense counting: like [`count_dests`], but message `i` counts only
/// if its fate arrives this superstep and its destination is alive. The
/// decision is a branchless 0/1 increment — dense counts tolerate `+= 0` —
/// so the unrolled chunks have no per-element control flow. The crash lane
/// is read word-wise out of the [`FrontierMask`]: one shift + mask per
/// destination, no byte table.
pub fn count_dests_hooked(
    dests: &[Pid],
    fates: &[Fate],
    crashed: &FrontierMask,
    counts: &mut [usize],
) {
    debug_assert_eq!(dests.len(), fates.len());
    let mut d_chunks = dests.chunks_exact(LANE);
    let mut f_chunks = fates.chunks_exact(LANE);
    for (dc, fc) in (&mut d_chunks).zip(&mut f_chunks) {
        for (&d, &f) in dc.iter().zip(fc) {
            counts[d] += (counts_now(f) & !crashed.contains(d)) as usize;
        }
    }
    for (&d, &f) in d_chunks.remainder().iter().zip(f_chunks.remainder()) {
        counts[d] += (counts_now(f) & !crashed.contains(d)) as usize;
    }
}

/// Hooked sparse counting: [`count_dests_hooked`] against epoch-stamped
/// tallies. Unlike the dense kernel this one *must* branch: `add(d, 0)`
/// would stamp `d` into the dirty set and change which arenas the sparse
/// layout visits.
pub fn count_dests_sparse_hooked(
    dests: &[Pid],
    fates: &[Fate],
    crashed: &FrontierMask,
    counts: &mut EpochCounts,
) {
    debug_assert_eq!(dests.len(), fates.len());
    for (&d, &f) in dests.iter().zip(fates) {
        if counts_now(f) && !crashed.contains(d) {
            counts.add(d, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar per-envelope loop the dense kernels replaced, verbatim
    /// (per-pid bool flags, as the engines carried before the mask).
    fn scalar_count(dests: &[Pid], fates: Option<&[Fate]>, crashed: &[bool], counts: &mut [usize]) {
        for (msg_idx, &dest) in dests.iter().enumerate() {
            let fate = match fates {
                Some(f) => f[msg_idx],
                None => Fate::Deliver,
            };
            match fate {
                Fate::Deliver | Fate::Duplicate | Fate::Displace(_) => {
                    if !(fates.is_some() && crashed[dest]) {
                        counts[dest] += 1;
                    }
                }
                Fate::Drop | Fate::Delay(_) => {}
            }
        }
    }

    /// Lift the scalar reference's bool flags into the mask the kernels take.
    fn crash_mask_of(crashed: &[bool]) -> FrontierMask {
        let mut m = FrontierMask::new(crashed.len());
        for (pid, &c) in crashed.iter().enumerate() {
            if c {
                m.insert(pid);
            }
        }
        m
    }

    fn fate_strategy() -> impl Strategy<Value = Fate> {
        (0u32..5, 1u32..4, 1u64..4).prop_map(|(k, d, s)| match k {
            0 => Fate::Deliver,
            1 => Fate::Drop,
            2 => Fate::Duplicate,
            3 => Fate::Delay(d),
            _ => Fate::Displace(s),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Dense kernels match the scalar loop — lengths 0..40 cover empty,
        // single-message, and tails on both sides of the chunk width.
        #[test]
        fn dense_kernels_match_scalar(
            p in 1usize..16,
            msgs in proptest::collection::vec((0usize..16, fate_strategy()), 0..40),
            crash_mask in 0u16..u16::MAX,
        ) {
            let dests: Vec<Pid> = msgs.iter().map(|(d, _)| d % p).collect();
            let fates: Vec<Fate> = msgs.iter().map(|&(_, f)| f).collect();
            let crashed: Vec<bool> = (0..p).map(|i| crash_mask & (1 << i) != 0).collect();

            let mut expect = vec![0usize; p];
            scalar_count(&dests, None, &crashed, &mut expect);
            let mut got = vec![0usize; p];
            count_dests(&dests, &mut got);
            prop_assert_eq!(&got, &expect, "unhooked");

            let mut expect = vec![0usize; p];
            scalar_count(&dests, Some(&fates), &crashed, &mut expect);
            let mut got = vec![0usize; p];
            count_dests_hooked(&dests, &fates, &crash_mask_of(&crashed), &mut got);
            prop_assert_eq!(&got, &expect, "hooked");
        }

        // The sparse kernel agrees with its dense twin slot-for-slot.
        #[test]
        fn sparse_kernel_matches_dense(
            p in 1usize..16,
            msgs in proptest::collection::vec((0usize..16, fate_strategy()), 0..40),
            crash_mask in 0u16..u16::MAX,
        ) {
            let dests: Vec<Pid> = msgs.iter().map(|(d, _)| d % p).collect();
            let fates: Vec<Fate> = msgs.iter().map(|&(_, f)| f).collect();
            let crashed: Vec<bool> = (0..p).map(|i| crash_mask & (1 << i) != 0).collect();

            let crashed = crash_mask_of(&crashed);
            let mut dense = vec![0usize; p];
            count_dests_hooked(&dests, &fates, &crashed, &mut dense);
            let mut sparse = EpochCounts::new(p);
            count_dests_sparse_hooked(&dests, &fates, &crashed, &mut sparse);
            for (pid, &d) in dense.iter().enumerate() {
                prop_assert_eq!(sparse.get(pid), d as u64, "hooked pid {}", pid);
            }
        }
    }
}
