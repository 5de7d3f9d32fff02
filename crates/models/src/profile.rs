//! Exact records of what happened during a superstep.
//!
//! A [`SuperstepProfile`] captures every quantity any of the four cost models
//! needs: the maximum local work `w`, per-processor send/receive maxima
//! (`h`), the per-step injection histogram (`m_t` for every step `t` of the
//! superstep, from which `c_m` is computed), the total message count `n`
//! (for the self-scheduling metric) and, for the QSM models, per-processor
//! read/write maxima and the maximum location contention `κ`.
//!
//! Profiles are produced by the simulator in `pbw-sim` but can also be built
//! directly (e.g. by the pure schedule evaluators in `pbw-core`) through
//! [`ProfileBuilder`].

use serde::{Deserialize, Serialize};

/// Everything the cost models of Section 2 need to price one superstep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuperstepProfile {
    /// `w = max_i w_i`: maximum local work performed by any processor.
    pub max_work: u64,
    /// `max_i s_i`: maximum number of messages sent by any processor.
    pub max_sent: u64,
    /// `max_i r_i`: maximum number of messages received by any processor.
    pub max_received: u64,
    /// `n`: total number of messages sent during the superstep.
    pub total_messages: u64,
    /// Injection histogram: `injections[t] = m_t`, the number of message
    /// sends initiated in step `t` of the superstep. Its length `τ` is the
    /// number of (occupied) steps of the superstep.
    pub injections: Vec<u64>,
    /// `max_i r_i` over QSM shared-memory reads.
    pub max_reads: u64,
    /// `max_i w_i` over QSM shared-memory writes.
    pub max_writes: u64,
    /// `κ`: maximum, over all shared locations, of the number of processors
    /// reading it or the number of processors writing it (QSM only).
    pub max_contention: u64,
}

impl SuperstepProfile {
    /// `h` as defined for the BSP models: `max_i max(s_i, r_i)`.
    #[inline]
    pub fn h_bsp(&self) -> u64 {
        self.max_sent.max(self.max_received)
    }

    /// `h` as defined for the QSM models: `max(1, max_i {r_i, w_i})`.
    #[inline]
    pub fn h_qsm(&self) -> u64 {
        self.max_reads.max(self.max_writes).max(1)
    }

    /// Number of steps `τ` spanned by the injection schedule.
    #[inline]
    pub fn num_steps(&self) -> usize {
        self.injections.len()
    }

    /// Merge another profile *sequentially after* this one, as if the two
    /// supersteps were fused: injection histograms concatenate, maxima
    /// combine, totals add.
    ///
    /// Used when an algorithm's cost is reported superstep-by-superstep but a
    /// caller wants a single aggregate profile.
    pub fn concat(&self, later: &SuperstepProfile) -> SuperstepProfile {
        let mut injections = Vec::with_capacity(self.injections.len() + later.injections.len());
        injections.extend_from_slice(&self.injections);
        injections.extend_from_slice(&later.injections);
        SuperstepProfile {
            max_work: self.max_work.max(later.max_work),
            max_sent: self.max_sent.max(later.max_sent),
            max_received: self.max_received.max(later.max_received),
            total_messages: self.total_messages + later.total_messages,
            injections,
            max_reads: self.max_reads.max(later.max_reads),
            max_writes: self.max_writes.max(later.max_writes),
            max_contention: self.max_contention.max(later.max_contention),
        }
    }
}

/// Incremental builder for [`SuperstepProfile`], fed with per-processor
/// observations by the simulator or a schedule evaluator.
#[derive(Debug, Clone, Default)]
pub struct ProfileBuilder {
    profile: SuperstepProfile,
}

impl ProfileBuilder {
    /// Start an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record processor-local work of `w` units (taking the max across
    /// processors).
    pub fn record_work(&mut self, w: u64) -> &mut Self {
        self.profile.max_work = self.profile.max_work.max(w);
        self
    }

    /// Record that some processor sent `s` messages and received `r`.
    pub fn record_traffic(&mut self, sent: u64, received: u64) -> &mut Self {
        self.profile.max_sent = self.profile.max_sent.max(sent);
        self.profile.max_received = self.profile.max_received.max(received);
        self
    }

    /// Record a message injection at step `slot` (0-based within the
    /// superstep), growing the histogram as needed.
    pub fn record_injection(&mut self, slot: u64) -> &mut Self {
        self.record_injections(slot, 1)
    }

    /// Record `count` message injections at step `slot`.
    pub fn record_injections(&mut self, slot: u64, count: u64) -> &mut Self {
        let idx = usize::try_from(slot).expect("slot exceeds addressable range");
        if self.profile.injections.len() <= idx {
            self.profile.injections.resize(idx + 1, 0);
        }
        self.profile.injections[idx] += count;
        self.profile.total_messages += count;
        self
    }

    /// Record one injection per slot in `slots` — the batched form of
    /// calling [`ProfileBuilder::record_injection`] once per element, to
    /// which it is bit-equivalent (pinned by a proptest below).
    ///
    /// The batch hoists what the per-call form repeats per message: one
    /// max-scan over the `u64` lane (a branch-free reduction rustc
    /// autovectorizes) decides the final histogram length, one resize grows
    /// it, and the scatter loop then increments with no bounds/`try_from`
    /// checks in its body beyond the slice index.
    pub fn record_injections_batch(&mut self, slots: &[u64]) -> &mut Self {
        let Some(&max_slot) = slots.iter().max() else {
            return self;
        };
        let top = usize::try_from(max_slot).expect("slot exceeds addressable range");
        if self.profile.injections.len() <= top {
            self.profile.injections.resize(top + 1, 0);
        }
        for &slot in slots {
            self.profile.injections[slot as usize] += 1;
        }
        self.profile.total_messages += slots.len() as u64;
        self
    }

    /// Move one injection already recorded at step `slot` to step
    /// `slot + d`, growing the histogram as needed: a router displacement.
    /// The message count stays, so recording at `slot` and then moving is
    /// bit-equivalent to recording at `slot + d` (pinned by a proptest
    /// below).
    ///
    /// # Panics
    /// If no injection is recorded at `slot`.
    pub fn displace_injection(&mut self, slot: u64, d: u64) -> &mut Self {
        let to = usize::try_from(slot + d).expect("slot exceeds addressable range");
        if self.profile.injections.len() <= to {
            self.profile.injections.resize(to + 1, 0);
        }
        let from = &mut self.profile.injections[slot as usize];
        *from = from.checked_sub(1).expect("no injection recorded at slot");
        self.profile.injections[to] += 1;
        self
    }

    /// Record the injections of a whole population of *sequentially-slotted*
    /// senders at once: `senders_by_len[k]` senders each injected exactly
    /// `k + 1` messages at slots `0..=k`. Bit-equivalent to calling
    /// [`ProfileBuilder::record_injections_batch`] with `[0, 1, .., k]` that
    /// many times (the histogram is a sum, so per-sender order is
    /// unobservable) — but costs O(max len), not O(messages). This is the
    /// aggregation the engines' delivery pass uses for plain `send` traffic,
    /// where every sender's slots are `0..n` by construction.
    pub fn record_injections_by_len(&mut self, senders_by_len: &[u64]) -> &mut Self {
        // Trailing zero buckets must not stretch the histogram: only the
        // longest sender actually observed decides its final length.
        let top = match senders_by_len.iter().rposition(|&c| c != 0) {
            Some(i) => i + 1,
            None => return self,
        };
        if self.profile.injections.len() < top {
            self.profile.injections.resize(top, 0);
        }
        // Slot `k` receives one injection from every sender with length
        // > k: a suffix sum over the length buckets.
        let mut senders_at_least = 0u64;
        let mut total = 0u64;
        for k in (0..top).rev() {
            senders_at_least += senders_by_len[k];
            total += senders_by_len[k] * (k as u64 + 1);
            self.profile.injections[k] += senders_at_least;
        }
        self.profile.total_messages += total;
        self
    }

    /// Record that some processor issued `reads` shared-memory reads and
    /// `writes` shared-memory writes (QSM).
    pub fn record_memory_ops(&mut self, reads: u64, writes: u64) -> &mut Self {
        self.profile.max_reads = self.profile.max_reads.max(reads);
        self.profile.max_writes = self.profile.max_writes.max(writes);
        self
    }

    /// Record location contention `κ_x` for some location (taking the max).
    pub fn record_contention(&mut self, kappa: u64) -> &mut Self {
        self.profile.max_contention = self.profile.max_contention.max(kappa);
        self
    }

    /// Finish and return the profile.
    pub fn build(self) -> SuperstepProfile {
        self.profile
    }

    /// Snapshot the profile built so far and reset the builder for the next
    /// superstep.
    ///
    /// The builder's injection histogram keeps its capacity across the
    /// reset, so an engine that holds one `ProfileBuilder` for the lifetime
    /// of a machine performs a constant number of allocations per superstep
    /// (the snapshot's own histogram) regardless of message volume.
    pub fn snapshot_reset(&mut self) -> SuperstepProfile {
        let snapshot = self.profile.clone();
        self.profile.max_work = 0;
        self.profile.max_sent = 0;
        self.profile.max_received = 0;
        self.profile.total_messages = 0;
        self.profile.injections.clear();
        self.profile.max_reads = 0;
        self.profile.max_writes = 0;
        self.profile.max_contention = 0;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_maxima() {
        let mut b = ProfileBuilder::new();
        b.record_work(3).record_work(7).record_work(5);
        b.record_traffic(2, 9).record_traffic(4, 1);
        let p = b.build();
        assert_eq!(p.max_work, 7);
        assert_eq!(p.max_sent, 4);
        assert_eq!(p.max_received, 9);
        assert_eq!(p.h_bsp(), 9);
    }

    #[test]
    fn injections_build_histogram() {
        let mut b = ProfileBuilder::new();
        b.record_injection(0);
        b.record_injection(2);
        b.record_injection(2);
        b.record_injections(5, 4);
        let p = b.build();
        assert_eq!(p.injections, vec![1, 0, 2, 0, 0, 4]);
        assert_eq!(p.total_messages, 7);
        assert_eq!(p.num_steps(), 6);
    }

    #[test]
    fn qsm_h_is_at_least_one() {
        let p = SuperstepProfile::default();
        assert_eq!(p.h_qsm(), 1);
        let mut b = ProfileBuilder::new();
        b.record_memory_ops(3, 5);
        assert_eq!(b.build().h_qsm(), 5);
    }

    #[test]
    fn contention_maxes() {
        let mut b = ProfileBuilder::new();
        b.record_contention(2)
            .record_contention(17)
            .record_contention(4);
        assert_eq!(b.build().max_contention, 17);
    }

    #[test]
    fn concat_fuses_sequentially() {
        let mut b1 = ProfileBuilder::new();
        b1.record_work(5)
            .record_injections(0, 3)
            .record_traffic(3, 1);
        let p1 = b1.build();
        let mut b2 = ProfileBuilder::new();
        b2.record_work(2)
            .record_injections(1, 2)
            .record_traffic(1, 4);
        let p2 = b2.build();
        let c = p1.concat(&p2);
        assert_eq!(c.max_work, 5);
        assert_eq!(c.injections, vec![3, 0, 2]);
        assert_eq!(c.total_messages, 5);
        assert_eq!(c.max_sent, 3);
        assert_eq!(c.max_received, 4);
    }

    #[test]
    fn snapshot_reset_round_trips_and_keeps_capacity() {
        let mut b = ProfileBuilder::new();
        b.record_work(5)
            .record_traffic(3, 2)
            .record_injections(4, 7);
        b.record_memory_ops(1, 2).record_contention(9);
        let first = b.snapshot_reset();
        assert_eq!(first.max_work, 5);
        assert_eq!(first.injections, vec![0, 0, 0, 0, 7]);
        assert_eq!(first.max_contention, 9);
        let cap = b.profile.injections.capacity();
        assert!(cap >= 5);
        // After the reset the builder prices a fresh superstep.
        b.record_work(1).record_injection(0);
        let second = b.snapshot_reset();
        assert_eq!(second, {
            let mut fresh = ProfileBuilder::new();
            fresh.record_work(1).record_injection(0);
            fresh.build()
        });
        assert_eq!(b.profile.injections.capacity(), cap);
    }

    #[test]
    fn empty_profile_is_neutral_for_concat() {
        let mut b = ProfileBuilder::new();
        b.record_work(4).record_injection(1);
        let p = b.build();
        let e = SuperstepProfile::default();
        assert_eq!(e.concat(&p).total_messages, p.total_messages);
        assert_eq!(p.concat(&e).max_work, 4);
    }

    mod batch_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The batched injection scatter is bit-identical to recording
            // each slot individually — including the empty batch, a single
            // slot, odd tail lengths, and a builder with prior history.
            // Each slot then carries a displacement (0 for none): moving
            // the batch-recorded injection by `d` must equal recording it
            // at `slot + d` — past the histogram's end as well as onto an
            // occupied slot.
            #[test]
            fn injections_batch_matches_scalar(
                sends in proptest::collection::vec((0u64..64, 0u64..4), 0..50),
                pre in proptest::collection::vec(0u64..16, 0..4),
                edges in any::<bool>(),
            ) {
                // With `edges`, three more messages: one at slot 1, one
                // moved from slot 0 onto it, and one moved past every slot
                // the batch or the history can reach.
                let mut sends = sends;
                if edges {
                    sends.extend([(1, 0), (0, 1), (63, 70)]);
                }
                let slots: Vec<u64> = sends.iter().map(|&(s, _)| s).collect();
                let mut batch = ProfileBuilder::new();
                for &s in &pre {
                    batch.record_injection(s);
                }
                batch.record_injections_batch(&slots);
                for &(s, d) in sends.iter().filter(|&&(_, d)| d != 0) {
                    batch.displace_injection(s, d);
                }
                let mut scalar = ProfileBuilder::new();
                for &s in &pre {
                    scalar.record_injection(s);
                }
                for &(s, d) in &sends {
                    scalar.record_injection(s + d);
                }
                prop_assert_eq!(batch.build(), scalar.build());
            }
        }
    }
}
