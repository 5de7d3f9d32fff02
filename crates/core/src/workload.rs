//! Unbalanced h-relation workloads.
//!
//! Section 6 motivates imbalance from irregular applications: input skew,
//! data already local (nearly-sorted lists), skewed intermediate results
//! (joins), uneven task spawning. The generators here cover those regimes,
//! parameterized by a skew knob, so experiments can sweep from perfectly
//! balanced to single-hot-sender relations.

use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One message of an h-relation: destination and length in flits
/// (`len = 1` for the fixed-size-message Sections 6.1 algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Destination processor.
    pub dest: usize,
    /// Length in flits (≥ 1).
    pub len: u64,
}

impl Msg {
    /// A unit (single-flit) message.
    pub fn unit(dest: usize) -> Self {
        Msg { dest, len: 1 }
    }
}

/// An h-relation in CSR form: one flat, source-major message array and
/// `p + 1` offsets into it, so building, copying or scheduling a relation
/// costs a fixed number of allocations however many processors send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// `msgs[offsets[i]..offsets[i + 1]]` are processor `i`'s messages
    /// (length `p + 1`, starting at 0).
    offsets: Vec<usize>,
    /// Every message, source-major.
    msgs: Vec<Msg>,
}

impl Workload {
    /// Build from explicit per-source message lists (a validating adapter
    /// onto the flat layout).
    ///
    /// # Panics
    /// Panics on an out-of-range destination or a zero-length message.
    pub fn new(sends: Vec<Vec<Msg>>) -> Self {
        Workload::from_fn(sends.len(), |i, out| out.extend_from_slice(&sends[i]))
    }

    /// Build source by source: `source(i, out)` appends processor `i`'s
    /// messages to `out`, for `i` in `0..p` ascending, so generators keep
    /// their draw order.
    ///
    /// # Panics
    /// Panics on an out-of-range destination or a zero-length message.
    pub fn from_fn(p: usize, source: impl FnMut(usize, &mut Vec<Msg>)) -> Self {
        let mut wl = Workload {
            offsets: Vec::new(),
            msgs: Vec::new(),
        };
        wl.refill(p, 0, source);
        for m in &wl.msgs {
            assert!(m.dest < p, "destination {} out of range (p={p})", m.dest);
            assert!(m.len >= 1, "zero-length message");
        }
        wl
    }

    /// Rebuild in place for `p` processors, as [`from_fn`](Self::from_fn)
    /// does but reusing this relation's arrays and with no validation
    /// walk: the caller vouches that every message `source` appends is
    /// valid. Reserving `capacity` messages up front lets the message
    /// array grow at most once.
    pub(crate) fn refill(
        &mut self,
        p: usize,
        capacity: usize,
        mut source: impl FnMut(usize, &mut Vec<Msg>),
    ) {
        let Workload { offsets, msgs } = self;
        offsets.clear();
        msgs.clear();
        offsets.reserve(p + 1);
        msgs.reserve(capacity);
        offsets.push(0);
        for i in 0..p {
            source(i, msgs);
            offsets.push(msgs.len());
        }
    }

    /// Build a unit-message workload from `(src → [dest...])` lists.
    pub fn from_dests(dests: Vec<Vec<usize>>) -> Self {
        Workload::from_fn(dests.len(), |i, out| {
            out.extend(dests[i].iter().copied().map(Msg::unit))
        })
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Messages sent by processor `i`.
    pub fn msgs(&self, i: usize) -> &[Msg] {
        &self.msgs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Every message, source-major: processor `i`'s are
    /// `messages()[offsets()[i]..offsets()[i + 1]]`.
    pub(crate) fn messages(&self) -> &[Msg] {
        &self.msgs
    }

    /// Per-source message offsets into [`messages`](Self::messages)
    /// (length `p + 1`).
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Total number of messages.
    pub fn n_messages(&self) -> u64 {
        self.msgs.len() as u64
    }

    /// Total number of flits `n` (equals `n_messages` for unit workloads);
    /// this is the `n` of Theorems 6.2–6.4.
    pub fn n_flits(&self) -> u64 {
        self.msgs.iter().map(|m| m.len).sum()
    }

    /// Per-source flit totals `x_i`.
    pub fn send_counts(&self) -> Vec<u64> {
        (0..self.p())
            .map(|i| self.msgs(i).iter().map(|m| m.len).sum())
            .collect()
    }

    /// Per-destination flit totals `y_i`.
    pub fn recv_counts(&self) -> Vec<u64> {
        let mut y = vec![0u64; self.p()];
        for m in &self.msgs {
            y[m.dest] += m.len;
        }
        y
    }

    /// `x̄ = max_i x_i`.
    pub fn xbar(&self) -> u64 {
        self.send_counts().into_iter().max().unwrap_or(0)
    }

    /// `ȳ = max_i y_i`.
    pub fn ybar(&self) -> u64 {
        self.recv_counts().into_iter().max().unwrap_or(0)
    }

    /// `h = max(x̄, ȳ)`.
    pub fn h(&self) -> u64 {
        self.xbar().max(self.ybar())
    }

    /// `ℓ̂`: maximum message length.
    pub fn lhat(&self) -> u64 {
        self.msgs.iter().map(|m| m.len).max().unwrap_or(0)
    }

    /// `ℓ̄`: mean message length (0 when empty).
    pub fn lbar(&self) -> f64 {
        let msgs = self.n_messages();
        if msgs == 0 {
            0.0
        } else {
            self.n_flits() as f64 / msgs as f64
        }
    }

    /// Whether every message is a single flit.
    pub fn is_unit(&self) -> bool {
        self.msgs.iter().all(|m| m.len == 1)
    }

    /// Sources with at least one message, in ascending pid order — the
    /// active-sender set callers hand to the engines' sparse execution path
    /// (`BspMachine::superstep_active`) so an unbalanced workload costs
    /// O(senders + messages) per superstep instead of O(p).
    pub fn active_senders(&self) -> Vec<usize> {
        (0..self.p())
            .filter(|&i| self.offsets[i] < self.offsets[i + 1])
            .collect()
    }

    /// The imbalance measure the paper's separation hinges on:
    /// `h / (n/p)` — the global bound beats the local one by `Θ(g)` exactly
    /// when this is `≥ g` (Section 1). Returns `0` for empty workloads.
    pub fn imbalance(&self) -> f64 {
        let n = self.n_flits();
        if n == 0 {
            return 0.0;
        }
        self.h() as f64 / (n as f64 / self.p() as f64)
    }
}

// ---------------------------------------------------------------------------
// Generators (all unit-message; flit generators live in `crate::flits`)
// ---------------------------------------------------------------------------

/// Balanced random relation: every processor sends `per_proc` unit messages
/// to uniformly random destinations.
pub fn uniform_random(p: usize, per_proc: u64, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Workload::from_fn(p, |_, out| {
        out.extend((0..per_proc).map(|_| Msg::unit(rng.gen_range(0..p))))
    })
}

/// A random permutation relation: each processor sends exactly one message,
/// each processor receives exactly one (`h = 1`, `n = p`).
pub fn permutation(p: usize, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dests: Vec<usize> = (0..p).collect();
    // Fisher–Yates.
    for i in (1..p).rev() {
        let j = rng.gen_range(0..=i);
        dests.swap(i, j);
    }
    Workload::from_fn(p, |src, out| out.push(Msg::unit(dests[src])))
}

/// Single hot sender: processor 0 sends `hot` messages (random
/// destinations), everyone else sends `cold`. This is the maximal-imbalance
/// regime where the globally-limited models win by `Θ(g)`.
pub fn single_hot_sender(p: usize, hot: u64, cold: u64, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Workload::from_fn(p, |src, out| {
        let count = if src == 0 { hot } else { cold };
        out.extend((0..count).map(|_| {
            // Avoid self-sends from the hot processor so the receive side
            // spreads.
            let mut d = rng.gen_range(0..p);
            if d == src {
                d = (d + 1) % p;
            }
            Msg::unit(d)
        }))
    })
}

/// Single hot receiver: every processor sends `per_proc` messages, all to
/// processor 0 with probability `focus`, else uniform. Exercises the `ȳ`
/// term of the bounds.
pub fn single_hot_receiver(p: usize, per_proc: u64, focus: f64, seed: u64) -> Workload {
    assert!((0.0..=1.0).contains(&focus));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Workload::from_fn(p, |_, out| {
        out.extend((0..per_proc).map(|_| {
            if rng.gen_bool(focus) {
                Msg::unit(0)
            } else {
                Msg::unit(rng.gen_range(0..p))
            }
        }))
    })
}

/// Zipf-skewed send counts: processor of rank `r` (random rank assignment)
/// sends `⌈scale / (r+1)^θ⌉` messages to uniform destinations. `θ = 0` is
/// balanced; `θ ≥ 1` concentrates traffic on a few senders — the join-skew
/// regime from the paper's introduction.
pub fn zipf_senders(p: usize, scale: u64, theta: f64, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ranks: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = rng.gen_range(0..=i);
        ranks.swap(i, j);
    }
    Workload::from_fn(p, |src, out| {
        let r = ranks[src] as f64;
        let count = (scale as f64 / (r + 1.0).powf(theta)).ceil() as u64;
        out.extend((0..count).map(|_| Msg::unit(rng.gen_range(0..p))))
    })
}

/// Bimodal relation: a fraction `hot_frac` of processors send `hot`
/// messages, the rest send `cold`.
pub fn bimodal(p: usize, hot_frac: f64, hot: u64, cold: u64, seed: u64) -> Workload {
    assert!((0.0..=1.0).contains(&hot_frac));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let hot_count = ((p as f64) * hot_frac).round() as usize;
    Workload::from_fn(p, |src, out| {
        let count = if src < hot_count { hot } else { cold };
        out.extend((0..count).map(|_| Msg::unit(rng.gen_range(0..p))))
    })
}

/// Total exchange (all-to-all personalized communication): every processor
/// sends one unit message to every other processor.
pub fn total_exchange(p: usize) -> Workload {
    Workload::from_fn(p, |src, out| {
        out.extend((0..p).filter(|&d| d != src).map(Msg::unit))
    })
}

/// One-to-all personalized communication: processor 0 sends a distinct
/// message to each other processor (the Section 1 motivating example).
pub fn one_to_all(p: usize) -> Workload {
    Workload::from_fn(p, |src, out| {
        if src == 0 {
            out.extend((1..p).map(Msg::unit))
        }
    })
}

/// Geometric message-length sampler used by the flit experiments: lengths
/// `≥ 1` with mean `mean_len`.
pub fn geometric_len<R: Rng>(rng: &mut R, mean_len: f64) -> u64 {
    assert!(mean_len >= 1.0);
    if mean_len == 1.0 {
        return 1;
    }
    let q = 1.0 / mean_len;
    let geo = rand::distributions::Uniform::new(0.0f64, 1.0);
    let u: f64 = geo.sample(rng);
    (1.0 + (u.ln() / (1.0 - q).ln()).floor()).max(1.0) as u64
}

/// Variable-length workload: every processor sends `per_proc` messages with
/// geometric lengths of the given mean.
pub fn variable_length(p: usize, per_proc: u64, mean_len: f64, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Workload::from_fn(p, |_, out| {
        out.extend((0..per_proc).map(|_| Msg {
            dest: rng.gen_range(0..p),
            len: geometric_len(&mut rng, mean_len),
        }))
    })
}

// ---------------------------------------------------------------------------
// Imbalance statistics
// ---------------------------------------------------------------------------

/// Distribution statistics of a workload's per-processor send load —
/// the quantitative face of "skew in the inputs" (§6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceStats {
    /// Mean flits per processor `n/p`.
    pub mean: f64,
    /// `x̄ / (n/p)` — the ratio the Θ(g) separation condition reads.
    pub peak_ratio: f64,
    /// Gini coefficient of the send loads (0 = perfectly balanced,
    /// → 1 = one sender owns everything).
    pub gini: f64,
    /// Fraction of processors carrying 90% of the flits (read: "the hot
    /// set").
    pub hot_set_fraction: f64,
}

impl Workload {
    /// Compute imbalance statistics of the send side.
    pub fn imbalance_stats(&self) -> ImbalanceStats {
        let mut loads = self.send_counts();
        let p = loads.len().max(1);
        let n: u64 = loads.iter().sum();
        if n == 0 {
            return ImbalanceStats {
                mean: 0.0,
                peak_ratio: 0.0,
                gini: 0.0,
                hot_set_fraction: 0.0,
            };
        }
        let mean = n as f64 / p as f64;
        loads.sort_unstable();
        // Gini via the sorted-rank formula: G = (2·Σ i·x_i)/(p·Σ x_i) − (p+1)/p.
        let weighted: f64 = loads
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        let gini = (2.0 * weighted) / (p as f64 * n as f64) - (p as f64 + 1.0) / p as f64;
        // Hot set: smallest suffix of the sorted loads covering 90% of n.
        let mut acc = 0u64;
        let mut hot = 0usize;
        for &x in loads.iter().rev() {
            acc += x;
            hot += 1;
            if acc as f64 >= 0.9 * n as f64 {
                break;
            }
        }
        ImbalanceStats {
            mean,
            peak_ratio: *loads.last().unwrap() as f64 / mean,
            gini: gini.max(0.0),
            hot_set_fraction: hot as f64 / p as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_explicit_workload() {
        let wl = Workload::new(vec![
            vec![Msg { dest: 1, len: 2 }, Msg { dest: 2, len: 3 }],
            vec![Msg { dest: 0, len: 1 }],
            vec![],
        ]);
        assert_eq!(wl.p(), 3);
        assert_eq!(wl.n_messages(), 3);
        assert_eq!(wl.n_flits(), 6);
        assert_eq!(wl.send_counts(), vec![5, 1, 0]);
        assert_eq!(wl.recv_counts(), vec![1, 2, 3]);
        assert_eq!(wl.xbar(), 5);
        assert_eq!(wl.ybar(), 3);
        assert_eq!(wl.h(), 5);
        assert_eq!(wl.lhat(), 3);
        assert!((wl.lbar() - 2.0).abs() < 1e-12);
        assert!(!wl.is_unit());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_destination() {
        let _ = Workload::new(vec![vec![Msg::unit(5)]]);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn rejects_zero_length() {
        let _ = Workload::new(vec![vec![Msg { dest: 0, len: 0 }]]);
    }

    #[test]
    fn uniform_random_is_balanced_in_expectation() {
        let wl = uniform_random(64, 32, 1);
        assert_eq!(wl.n_flits(), 64 * 32);
        assert_eq!(wl.xbar(), 32);
        assert!(wl.is_unit());
        // Receive side concentrates mildly; imbalance stays small.
        assert!(wl.imbalance() < 3.0, "imbalance={}", wl.imbalance());
    }

    #[test]
    fn permutation_has_h_one() {
        let wl = permutation(128, 7);
        assert_eq!(wl.n_flits(), 128);
        assert_eq!(wl.xbar(), 1);
        assert_eq!(wl.ybar(), 1);
        // Every destination hit exactly once.
        assert!(wl.recv_counts().iter().all(|&y| y == 1));
    }

    #[test]
    fn permutation_is_deterministic_per_seed() {
        assert_eq!(permutation(64, 3), permutation(64, 3));
        assert_ne!(permutation(64, 3), permutation(64, 4));
    }

    #[test]
    fn single_hot_sender_imbalance() {
        let p = 64;
        let wl = single_hot_sender(p, 1024, 1, 9);
        assert_eq!(wl.xbar(), 1024);
        assert_eq!(wl.n_flits(), 1024 + (p as u64 - 1));
        // h/(n/p) ≈ p·hot/n ≈ 60: the Θ(g) advantage regime for any g ≤ 60.
        assert!(wl.imbalance() > 30.0);
    }

    #[test]
    fn hot_receiver_concentrates_ybar() {
        let wl = single_hot_receiver(32, 16, 1.0, 5);
        assert_eq!(wl.ybar(), 32 * 16);
        assert_eq!(wl.xbar(), 16);
    }

    #[test]
    fn zipf_theta_zero_is_balanced() {
        let wl = zipf_senders(16, 10, 0.0, 2);
        assert!(wl.send_counts().iter().all(|&x| x == 10));
    }

    #[test]
    fn zipf_high_theta_concentrates() {
        let wl = zipf_senders(64, 1000, 1.5, 2);
        let counts = wl.send_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert_eq!(max, 1000); // rank-0 processor
        assert!(min <= 2);
    }

    #[test]
    fn bimodal_split() {
        let wl = bimodal(10, 0.2, 100, 1, 3);
        let counts = wl.send_counts();
        assert_eq!(counts.iter().filter(|&&c| c == 100).count(), 2);
        assert_eq!(counts.iter().filter(|&&c| c == 1).count(), 8);
    }

    #[test]
    fn total_exchange_counts() {
        let wl = total_exchange(8);
        assert_eq!(wl.n_flits(), 8 * 7);
        assert_eq!(wl.xbar(), 7);
        assert_eq!(wl.ybar(), 7);
    }

    #[test]
    fn one_to_all_counts() {
        let wl = one_to_all(16);
        assert_eq!(wl.n_flits(), 15);
        assert_eq!(wl.xbar(), 15);
        assert_eq!(wl.ybar(), 1);
        assert!((wl.imbalance() - 16.0).abs() < 0.01);
    }

    #[test]
    fn variable_length_mean_tracks_target() {
        let wl = variable_length(32, 64, 8.0, 11);
        let mean = wl.lbar();
        assert!(mean > 5.0 && mean < 11.0, "mean={mean}");
        assert!(wl.lhat() >= 8);
    }

    #[test]
    fn geometric_len_is_at_least_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..1000 {
            assert!(geometric_len(&mut rng, 4.0) >= 1);
        }
        for _ in 0..10 {
            assert_eq!(geometric_len(&mut rng, 1.0), 1);
        }
    }

    #[test]
    fn imbalance_stats_balanced() {
        let wl = zipf_senders(64, 10, 0.0, 1); // everyone sends 10
        let st = wl.imbalance_stats();
        assert!((st.mean - 10.0).abs() < 1e-9);
        assert!((st.peak_ratio - 1.0).abs() < 1e-9);
        assert!(st.gini < 0.01, "gini {}", st.gini);
        assert!(st.hot_set_fraction > 0.85);
    }

    #[test]
    fn imbalance_stats_hot_sender() {
        let wl = single_hot_sender(64, 6300, 0, 2);
        let st = wl.imbalance_stats();
        assert!(st.gini > 0.9, "gini {}", st.gini);
        assert!(st.peak_ratio > 50.0);
        assert!(st.hot_set_fraction <= 2.0 / 64.0 + 1e-9);
    }

    #[test]
    fn imbalance_stats_empty() {
        let wl = Workload::new(vec![vec![], vec![]]);
        let st = wl.imbalance_stats();
        assert_eq!(st.gini, 0.0);
        assert_eq!(st.mean, 0.0);
    }

    #[test]
    fn gini_monotone_in_zipf_theta() {
        let g0 = zipf_senders(64, 200, 0.4, 3).imbalance_stats().gini;
        let g1 = zipf_senders(64, 200, 1.0, 3).imbalance_stats().gini;
        let g2 = zipf_senders(64, 200, 1.6, 3).imbalance_stats().gini;
        assert!(g0 < g1 && g1 < g2, "{g0} {g1} {g2}");
    }

    #[test]
    fn empty_workload_stats() {
        let wl = Workload::new(vec![vec![], vec![]]);
        assert_eq!(wl.n_flits(), 0);
        assert_eq!(wl.h(), 0);
        assert_eq!(wl.imbalance(), 0.0);
        assert!((wl.lbar() - 0.0).abs() < 1e-12);
        assert!(wl.is_unit());
    }
}
