//! Realizing h-relations on the CRCW PRAM in `O(h)` time (Section 4.1).
//!
//! The paper converts CRCW PRAM lower bounds into BSP(g)/QSM(g) lower bounds
//! by showing the *converse* simulation is cheap: any BSP(g) superstep
//! (an h-relation) can be realized on a CRCW PRAM in `O(h)` time. Three
//! constructions are given, all implemented here:
//!
//! * [`realize_dense`] — the polynomial-processor algorithm: a `p × x̄p`
//!   array holds message ids, each row is drained by repeatedly extracting
//!   its leftmost nonzero entry (a constant-time CRCW primitive).
//! * [`realize_teams`] — the `(p·lg lg p)`-processor branch for small `x̄`:
//!   every undelivered message concurrently writes a per-destination claim
//!   cell each round (Arbitrary rule); exactly one wins per destination per
//!   round, so `ȳ` rounds suffice.
//! * [`realize_chainsort`] — the branch for `x̄ ≥ lg lg p`: messages are
//!   integer chain sorted by destination (charged at the published
//!   `O(lg lg p)` time / `O(p·x̄·lg lg p)` work of Bhatt et al. \[12\]), then
//!   each destination scans its run in `O(ȳ)` steps.
//!
//! All three return an [`HrelationOutcome`] with the delivered messages and
//! the exact time/work the PRAM engine charged, so tests can assert the
//! `O(h)` shape.

use crate::machine::{AccessMode, Pram};
use crate::primitives::{leftmost_nonzero_rows, max_o1, Fidelity};
use crate::Word;

/// A point-to-point message of an h-relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Message {
    /// Sending processor.
    pub src: usize,
    /// Destination processor.
    pub dest: usize,
    /// Payload tag.
    pub tag: Word,
}

/// Result of realizing an h-relation.
#[derive(Debug, Clone)]
pub struct HrelationOutcome {
    /// Messages delivered to each destination, in delivery order.
    pub received: Vec<Vec<Message>>,
    /// PRAM time charged.
    pub time: u64,
    /// PRAM work charged.
    pub work: u64,
    /// `h = max_i max(s_i, r_i)` of the input relation.
    pub h: u64,
}

/// Flatten per-processor send lists into a global message table and compute
/// `(x̄, ȳ, h)`.
fn flatten(sends: &[Vec<(usize, Word)>]) -> (Vec<Message>, u64, u64) {
    let p = sends.len();
    let mut msgs = Vec::new();
    let mut recv_counts = vec![0u64; p];
    let mut xbar = 0u64;
    for (src, list) in sends.iter().enumerate() {
        xbar = xbar.max(list.len() as u64);
        for &(dest, tag) in list {
            assert!(dest < p, "destination {dest} out of range");
            recv_counts[dest] += 1;
            msgs.push(Message { src, dest, tag });
        }
    }
    let ybar = recv_counts.iter().copied().max().unwrap_or(0);
    (msgs, xbar, ybar)
}

/// Verify that `outcome` delivered exactly the multiset of messages in
/// `sends`, each to its correct destination.
pub fn check_delivery(sends: &[Vec<(usize, Word)>], outcome: &HrelationOutcome) -> bool {
    let (mut expect, _, _) = flatten(sends);
    let mut got: Vec<Message> = Vec::new();
    for (dest, list) in outcome.received.iter().enumerate() {
        for m in list {
            if m.dest != dest {
                return false;
            }
            got.push(*m);
        }
    }
    expect.sort();
    got.sort();
    expect == got
}

/// The Section 4.1 polynomial-processor `O(h)` realization.
///
/// Memory plan: message-id array `A` of `p` rows × `x̄·p` columns (row `i` =
/// messages destined for processor `i`, block `j` = those sent by `j`),
/// scratch of the same size for the leftmost-nonzero knockout, an `out`
/// vector of `p` cells, per-processor counts and the `x̄` computation, and a
/// receive region.
///
/// `fid` selects whether the constant-time primitives execute all their
/// virtual processors or charge their published cost (see
/// [`Fidelity`]).
pub fn realize_dense(sends: &[Vec<(usize, Word)>], fid: Fidelity) -> HrelationOutcome {
    let p = sends.len();
    assert!(p > 0);
    let (msgs, xbar, ybar) = flatten(sends);
    let n = msgs.len();
    let h = xbar.max(ybar);
    if n == 0 {
        return HrelationOutcome {
            received: vec![Vec::new(); p],
            time: 0,
            work: 0,
            h,
        };
    }

    let cols = (xbar as usize) * p;
    let base_arr = 0;
    let base_scratch = base_arr + p * cols;
    let base_out = base_scratch + p * cols;
    let base_cnt = base_out + p; // per-proc send counts
    let base_cnt_scratch = base_cnt + p;
    let cell_xbar = base_cnt_scratch + p;
    let base_recv = cell_xbar + 1; // p rows × n cols
    let base_cursor = base_recv + p * n;
    let total_cells = base_cursor + p;

    let mut pram = Pram::new(AccessMode::CrcwArbitrary, total_cells);

    // Each processor publishes its send count, then x̄ is computed with the
    // constant-time maximum ("a simple constant time computation with p²
    // processors").
    let counts: Vec<Word> = sends.iter().map(|l| l.len() as Word).collect();
    pram.step(p, |pid, ctx| ctx.write(base_cnt + pid, counts[pid]));
    max_o1(&mut pram, base_cnt, p, base_cnt_scratch, cell_xbar, fid);
    debug_assert_eq!(pram.mem()[cell_xbar], xbar as Word);

    // Placement: processor j's k-th message to destination i goes to
    // A[i][j·x̄ + (#earlier messages from j to i)]. Each processor writes its
    // ≤ x̄ messages in ≤ x̄ steps (local bookkeeping is free).
    let mut placements: Vec<Vec<(usize, Word)>> = vec![Vec::new(); p]; // (cell, msgid+1)
    {
        let mut per_pair: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for (id, m) in msgs.iter().enumerate() {
            let k = per_pair.entry((m.src, m.dest)).or_insert(0);
            let col = m.src * xbar as usize + *k;
            assert!(
                *k < xbar as usize,
                "block overflow: >x̄ messages on one (src,dest) pair"
            );
            *k += 1;
            placements[m.src].push((base_arr + m.dest * cols + col, (id + 1) as Word));
        }
    }
    for step in 0..xbar as usize {
        let placements = &placements;
        pram.step(p, move |pid, ctx| {
            if let Some(&(cell, v)) = placements[pid].get(step) {
                ctx.write(cell, v);
            }
        });
    }

    // Drain loop: leftmost nonzero per row → transmit → zero, until empty.
    let mut rounds = 0u64;
    loop {
        leftmost_nonzero_rows(&mut pram, base_arr, p, cols, base_scratch, base_out, fid);
        let any = (0..p).any(|i| pram.mem()[base_out + i] >= 0);
        if !any {
            break;
        }
        pram.step(p, move |pid, ctx| {
            let col = ctx.read(base_out + pid);
            if col < 0 {
                return;
            }
            let cell = base_arr + pid * cols + col as usize;
            let id_plus = ctx.read(cell);
            let cursor = ctx.read(base_cursor + pid);
            ctx.write(base_recv + pid * n + cursor as usize, id_plus);
            ctx.write(base_cursor + pid, cursor + 1);
            ctx.write(cell, 0);
        });
        rounds += 1;
        assert!(rounds <= n as u64 + 1, "drain loop failed to make progress");
    }
    debug_assert_eq!(rounds, ybar);

    let received = collect_received(&pram, base_recv, base_cursor, p, n, &msgs);
    HrelationOutcome {
        received,
        time: pram.time(),
        work: pram.work(),
        h,
    }
}

/// The concurrent-write "teams" realization (paper branch for
/// `x̄ < lg lg p`): every undelivered message writes a claim cell for its
/// destination each round; the Arbitrary rule picks one winner per
/// destination per round, so `ȳ` rounds complete the relation in `O(h)`
/// time.
pub fn realize_teams(sends: &[Vec<(usize, Word)>]) -> HrelationOutcome {
    let p = sends.len();
    assert!(p > 0);
    let (msgs, xbar, ybar) = flatten(sends);
    let n = msgs.len();
    let h = xbar.max(ybar);
    if n == 0 {
        return HrelationOutcome {
            received: vec![Vec::new(); p],
            time: 0,
            work: 0,
            h,
        };
    }

    let base_claim = 0; // p cells
    let base_done = p; // n cells
    let base_recv = base_done + n; // p × n
    let base_cursor = base_recv + p * n;
    let total = base_cursor + p;
    let mut pram = Pram::new(AccessMode::CrcwArbitrary, total);

    let dests: Vec<usize> = msgs.iter().map(|m| m.dest).collect();
    let mut rounds = 0u64;
    loop {
        // Every pending message claims its destination cell; the Arbitrary
        // rule (deterministically: the lowest message id) wins.
        let dests = &dests;
        pram.step(n, move |pid, ctx| {
            let done = ctx.read(base_done + pid);
            if done == 0 {
                ctx.write(base_claim + dests[pid], (pid + 1) as Word);
            }
        });
        // Destinations accept the winning message and clear their claim.
        pram.step(p, move |pid, ctx| {
            let claim = ctx.read(base_claim + pid);
            if claim > 0 {
                let cursor = ctx.read(base_cursor + pid);
                ctx.write(base_recv + pid * n + cursor as usize, claim);
                ctx.write(base_cursor + pid, cursor + 1);
                ctx.write(base_done + (claim - 1) as usize, 1);
                ctx.write(base_claim + pid, 0);
            }
        });
        rounds += 1;
        let all_done = (0..n).all(|i| pram.mem()[base_done + i] == 1);
        if all_done {
            break;
        }
        assert!(rounds <= n as u64 + 1, "teams loop failed to make progress");
    }
    debug_assert_eq!(rounds, ybar);

    let received = collect_received(&pram, base_recv, base_cursor, p, n, &msgs);
    HrelationOutcome {
        received,
        time: pram.time(),
        work: pram.work(),
        h,
    }
}

/// The chain-sort realization (paper branch for `x̄ ≥ lg lg p`): messages are
/// stably integer chain sorted by destination — charged at the published
/// `O(lg lg p)` time and `O(p·x̄·lg lg p)` work of \[12\] — after which each
/// destination identifies and scans its contiguous run in `O(ȳ)` steps.
pub fn realize_chainsort(sends: &[Vec<(usize, Word)>]) -> HrelationOutcome {
    let p = sends.len();
    assert!(p > 0);
    let (msgs, xbar, ybar) = flatten(sends);
    let n = msgs.len();
    let h = xbar.max(ybar);
    if n == 0 {
        return HrelationOutcome {
            received: vec![Vec::new(); p],
            time: 0,
            work: 0,
            h,
        };
    }

    let base_sorted = 0; // n cells: msgid+1, sorted by destination
    let base_first = n; // p cells: first index of each destination's run (+1, 0 = none)
    let base_recv = base_first + p;
    let base_cursor = base_recv + p * n;
    let total = base_cursor + p;
    let mut pram = Pram::new(AccessMode::CrcwArbitrary, total);

    // Integer chain sort by destination — computed directly, charged at the
    // cost published in [12] (Bhatt–Diks–Hagerup–Prasad–Radzik–Saxena):
    // O(lg lg p) time, O(p·x̄·lg lg p) work.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&id| msgs[id].dest); // stable
    let lglg = (64 - (p.max(4) as u64).leading_zeros() as u64).max(2); // lg p
    let lglg = (64 - lglg.leading_zeros() as u64).max(1); // lg lg p
    pram.charge_time(lglg);
    pram.charge_work((p as u64) * xbar.max(1) * lglg);
    for (slot, &id) in order.iter().enumerate() {
        pram.mem_mut()[base_sorted + slot] = (id + 1) as Word;
    }

    // Run-head detection: processor k checks whether sorted[k] starts a new
    // destination run (one concurrent-read step).
    let msgs_ref = &msgs;
    pram.step(n, move |pid, ctx| {
        let id = (ctx.read(base_sorted + pid) - 1) as usize;
        let dest = msgs_ref[id].dest;
        let is_head = if pid == 0 {
            true
        } else {
            let prev_id = (ctx.read(base_sorted + pid - 1) - 1) as usize;
            msgs_ref[prev_id].dest != dest
        };
        if is_head {
            ctx.write(base_first + dest, (pid + 1) as Word);
        }
    });

    // Each destination scans its run: ȳ rounds, one read per round.
    for round in 0..ybar {
        let msgs_ref = &msgs;
        pram.step(p, move |pid, ctx| {
            let first = ctx.read(base_first + pid);
            if first == 0 {
                return;
            }
            let idx = (first - 1) as usize + round as usize;
            if idx >= n {
                return;
            }
            let id_plus = ctx.read(base_sorted + idx);
            let id = (id_plus - 1) as usize;
            if msgs_ref[id].dest != pid {
                return;
            }
            let cursor = ctx.read(base_cursor + pid);
            ctx.write(base_recv + pid * n + cursor as usize, id_plus);
            ctx.write(base_cursor + pid, cursor + 1);
        });
    }

    let received = collect_received(&pram, base_recv, base_cursor, p, n, &msgs);
    HrelationOutcome {
        received,
        time: pram.time(),
        work: pram.work(),
        h,
    }
}

fn collect_received(
    pram: &Pram,
    base_recv: usize,
    base_cursor: usize,
    p: usize,
    n: usize,
    msgs: &[Message],
) -> Vec<Vec<Message>> {
    (0..p)
        .map(|i| {
            let cnt = pram.mem()[base_cursor + i] as usize;
            (0..cnt)
                .map(|k| {
                    let id_plus = pram.mem()[base_recv + i * n + k];
                    msgs[(id_plus - 1) as usize]
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_relation() -> Vec<Vec<(usize, Word)>> {
        vec![
            vec![(1, 10), (2, 11), (1, 12)], // proc 0 sends 3
            vec![(0, 20)],
            vec![(0, 30), (3, 31)],
            vec![],
        ]
    }

    #[test]
    fn dense_delivers_everything() {
        let sends = simple_relation();
        let out = realize_dense(&sends, Fidelity::Faithful);
        assert!(check_delivery(&sends, &out));
        assert_eq!(out.h, 3);
    }

    #[test]
    fn dense_charged_matches_faithful_delivery() {
        let sends = simple_relation();
        let a = realize_dense(&sends, Fidelity::Faithful);
        let b = realize_dense(&sends, Fidelity::Charged);
        assert_eq!(a.received, b.received);
    }

    #[test]
    fn teams_delivers_everything() {
        let sends = simple_relation();
        let out = realize_teams(&sends);
        assert!(check_delivery(&sends, &out));
    }

    #[test]
    fn chainsort_delivers_everything() {
        let sends = simple_relation();
        let out = realize_chainsort(&sends);
        assert!(check_delivery(&sends, &out));
    }

    #[test]
    fn empty_relation_is_free() {
        let sends: Vec<Vec<(usize, Word)>> = vec![vec![]; 4];
        for out in [
            realize_dense(&sends, Fidelity::Charged),
            realize_teams(&sends),
            realize_chainsort(&sends),
        ] {
            assert_eq!(out.time, 0);
            assert!(out.received.iter().all(|r| r.is_empty()));
        }
    }

    #[test]
    fn all_to_one_hotspot() {
        // ȳ = p - 1: everyone sends to processor 0.
        let p = 8;
        let sends: Vec<Vec<(usize, Word)>> = (0..p)
            .map(|src| {
                if src == 0 {
                    vec![]
                } else {
                    vec![(0, src as Word)]
                }
            })
            .collect();
        for out in [
            realize_dense(&sends, Fidelity::Charged),
            realize_teams(&sends),
            realize_chainsort(&sends),
        ] {
            assert!(check_delivery(&sends, &out));
            assert_eq!(out.received[0].len(), p - 1);
            assert_eq!(out.h, (p - 1) as u64);
        }
    }

    #[test]
    fn one_to_all_scatter() {
        // x̄ = p - 1: processor 0 sends to everyone else.
        let p = 8;
        let mut sends: Vec<Vec<(usize, Word)>> = vec![vec![]; p];
        sends[0] = (1..p).map(|d| (d, 100 + d as Word)).collect();
        for out in [
            realize_dense(&sends, Fidelity::Charged),
            realize_teams(&sends),
            realize_chainsort(&sends),
        ] {
            assert!(check_delivery(&sends, &out));
        }
    }

    #[test]
    fn multiple_messages_same_pair() {
        let sends = vec![vec![(1, 1), (1, 2), (1, 3), (1, 4)], vec![]];
        for out in [
            realize_dense(&sends, Fidelity::Charged),
            realize_teams(&sends),
            realize_chainsort(&sends),
        ] {
            assert!(check_delivery(&sends, &out));
            assert_eq!(out.received[1].len(), 4);
        }
    }

    #[test]
    fn time_scales_linearly_with_h() {
        // Time must be O(h): doubling h should roughly double time, not
        // square it. Use the teams variant (fully faithful).
        let p = 8;
        let mk = |h: usize| -> Vec<Vec<(usize, Word)>> {
            (0..p)
                .map(|src| (0..h).map(|k| (((src + 1) % p), k as Word)).collect())
                .collect()
        };
        let t1 = realize_teams(&mk(4)).time;
        let t2 = realize_teams(&mk(8)).time;
        assert!(t2 <= t1 * 3, "t1={t1} t2={t2}: not O(h)");
        assert!(t2 >= t1, "t must grow with h");
    }

    #[test]
    fn dense_time_is_linear_in_h() {
        let p = 4;
        let mk = |h: usize| -> Vec<Vec<(usize, Word)>> {
            (0..p)
                .map(|src| (0..h).map(|k| (((src + 1) % p), k as Word)).collect())
                .collect()
        };
        let t1 = realize_dense(&mk(3), Fidelity::Charged).time;
        let t2 = realize_dense(&mk(6), Fidelity::Charged).time;
        assert!(t2 <= t1 * 3, "t1={t1} t2={t2}");
    }

    #[test]
    fn delivery_order_in_teams_is_lowest_id_first() {
        // Within one destination, lower message ids win earlier rounds.
        let sends = vec![vec![(2, 5), (2, 6)], vec![(2, 7)], vec![]];
        let out = realize_teams(&sends);
        let tags: Vec<Word> = out.received[2].iter().map(|m| m.tag).collect();
        assert_eq!(tags, vec![5, 6, 7]);
    }
}
