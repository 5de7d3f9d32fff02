//! The randomized `O(h + lg* p)` h-relation realization (Section 4.1).
//!
//! For converting *randomized* CRCW lower bounds, the paper routes an
//! h-relation in `O(h + lg* p)` time and linear work w.h.p.:
//!
//! 1. place the elements in an `O(h·n)` array **approximately sorted** by
//!    destination — the Goodrich–Matias–Vishkin approximate integer
//!    sorting \[27\] runs in `O(lg*(nh))` time and `O(nh)` work;
//! 2. link each element to its nearest right neighbour with the
//!    Berkman–Vishkin *nearest-one* structure \[11\] — `O(α(nh))` time;
//! 3. identify each destination's sub-list head and notify the
//!    destination — `O(lg*(nh))` time;
//! 4. every destination scans its sub-list in `O(h)` time.
//!
//! Steps 1–3 are deep randomized PRAM machinery whose faithful execution
//! is out of scope (their innards are not what the paper measures); they
//! are implemented at **charged fidelity** — the result is computed
//! directly and the published cost is charged, like the charged mode of
//! [`crate::primitives`]. Step 4, the `O(h)` payload, runs for real on the
//! engine. The total therefore measures as `O(h + lg* n)`, the quantity
//! the conversion needs (the tests check both the `h` scaling and the
//! near-constant additive term).

use crate::hrelation::{HrelationOutcome, Message};
use crate::machine::{AccessMode, Pram};
use crate::Word;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `lg* x` (iterated base-2 logarithm).
pub fn log_star(mut x: f64) -> u64 {
    let mut k = 0;
    while x > 1.0 {
        x = x.log2();
        k += 1;
        if k > 8 {
            break; // lg* of anything physical is ≤ 5
        }
    }
    k
}

/// Realize an h-relation with the randomized construction. `seed` drives
/// the approximate sort's randomness (here: the random scatter into the
/// padded array, which the charged sort then orders).
pub fn realize_randomized(sends: &[Vec<(usize, Word)>], seed: u64) -> HrelationOutcome {
    let p = sends.len();
    assert!(p > 0);
    let mut msgs: Vec<Message> = Vec::new();
    let mut recv_counts = vec![0u64; p];
    let mut xbar = 0u64;
    for (src, list) in sends.iter().enumerate() {
        xbar = xbar.max(list.len() as u64);
        for &(dest, tag) in list {
            assert!(dest < p, "destination out of range");
            recv_counts[dest] += 1;
            msgs.push(Message { src, dest, tag });
        }
    }
    let ybar = recv_counts.iter().copied().max().unwrap_or(0);
    let h = xbar.max(ybar);
    let n = msgs.len();
    if n == 0 {
        return HrelationOutcome {
            received: vec![Vec::new(); p],
            time: 0,
            work: 0,
            h,
        };
    }

    // Padded array of size O(h·n): elements land at random positions that
    // the approximate sort orders by destination (charged).
    let padded = (2 * n * (h as usize).max(1)).max(4 * n);
    let base_arr = 0; // padded cells: msgid+1 or 0
    let base_next = padded; // nearest-right links (index+1, 0 = none)
    let base_first = 2 * padded; // p cells: head position +1 per destination
    let base_recv = base_first + p; // p × n receive area
    let base_cursor = base_recv + p * n;
    let total = base_cursor + p;
    let mut pram = Pram::new(AccessMode::CrcwArbitrary, total);

    // Step 1 (charged): approximate integer sort by destination — elements
    // appear in the padded array ordered by destination with random gaps.
    // Cost (GMV [27]): O(lg*(nh)) time, O(nh) work w.h.p.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&id| msgs[id].dest);
    {
        // Scatter with random gaps while preserving destination order: walk
        // the padded array, flipping a coin to leave gaps (the "approximate"
        // in approximate sorting: position is only ordered, not compact).
        let mut pos = 0usize;
        let slack = padded - n;
        let mut gaps_left = slack;
        for &id in &order {
            while gaps_left > 0 && rng.gen_bool((gaps_left as f64 / padded as f64).min(0.5)) {
                pos += 1;
                gaps_left -= 1;
            }
            pram.mem_mut()[base_arr + pos] = (id + 1) as Word;
            pos += 1;
        }
        let lg_star = log_star((n as f64) * (h as f64).max(1.0));
        pram.charge_time(lg_star.max(1));
        pram.charge_work((n as u64) * h.max(1));
    }

    // Step 2 (charged): nearest-right links via Berkman–Vishkin [11]:
    // O(α(nh)) ≈ O(1) time, O(nh) work.
    {
        let mut next_occupied = 0 as Word; // 0 = none
        for i in (0..padded).rev() {
            pram.mem_mut()[base_next + i] = next_occupied;
            if pram.mem()[base_arr + i] != 0 {
                next_occupied = (i + 1) as Word;
            }
        }
        pram.charge_time(2);
        pram.charge_work((n as u64) * h.max(1));
    }

    // Step 3 (charged sub-list head identification + real notification):
    // heads are the first element of each destination run.
    {
        let lg_star = log_star(n as f64 * h.max(1) as f64);
        pram.charge_time(lg_star.max(1));
        pram.charge_work(n as u64);
        // Real step: each head element writes its position to its
        // destination's head cell (one CRCW step over n virtual procs).
        let msgs_ref = &msgs;
        let mem_snapshot: Vec<Word> = (0..padded).map(|i| pram.mem()[base_arr + i]).collect();
        // Positions of elements, for the closure to find "previous element".
        let mut positions: Vec<usize> = Vec::with_capacity(n);
        for (i, &v) in mem_snapshot.iter().enumerate() {
            if v != 0 {
                positions.push(i);
            }
        }
        let positions = positions; // k-th occupied slot
        pram.step(n, move |idx, ctx| {
            let pos = positions[idx];
            let id = (ctx.read(base_arr + pos) - 1) as usize;
            let dest = msgs_ref[id].dest;
            let is_head = if idx == 0 {
                true
            } else {
                let prev_pos = positions[idx - 1];
                let prev_id = (ctx.read(base_arr + prev_pos) - 1) as usize;
                msgs_ref[prev_id].dest != dest
            };
            if is_head {
                ctx.write(base_first + dest, (pos + 1) as Word);
            }
        });
    }

    // Step 4 (real): each destination scans its sub-list via the links.
    let mut rounds = 0u64;
    loop {
        let msgs_ref = &msgs;
        let report = pram.step(p, move |pid, ctx| {
            let head = ctx.read(base_first + pid);
            if head == 0 {
                return;
            }
            let pos = (head - 1) as usize;
            let id_plus = ctx.read(base_arr + pos);
            if id_plus == 0 {
                return;
            }
            let id = (id_plus - 1) as usize;
            if msgs_ref[id].dest != pid {
                // End of this destination's run.
                ctx.write(base_first + pid, 0);
                return;
            }
            let cursor = ctx.read(base_cursor + pid);
            ctx.write(
                base_recv + pid * (msgs_ref.len()) + cursor as usize,
                id_plus,
            );
            ctx.write(base_cursor + pid, cursor + 1);
            // Advance to the nearest right element (or stop).
            let nxt = ctx.read(base_next + pos);
            ctx.write(base_first + pid, nxt);
        });
        let _ = report;
        rounds += 1;
        let any_active = (0..p).any(|i| pram.mem()[base_first + i] != 0);
        if !any_active {
            break;
        }
        assert!(rounds <= n as u64 + 2, "scan failed to terminate");
    }

    let received: Vec<Vec<Message>> = (0..p)
        .map(|i| {
            let cnt = pram.mem()[base_cursor + i] as usize;
            (0..cnt)
                .map(|k| {
                    let id_plus = pram.mem()[base_recv + i * n + k];
                    msgs[(id_plus - 1) as usize]
                })
                .collect()
        })
        .collect();
    HrelationOutcome {
        received,
        time: pram.time(),
        work: pram.work(),
        h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrelation::check_delivery;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(1e30), 5);
    }

    #[test]
    fn randomized_delivers_simple() {
        let sends = vec![
            vec![(1, 10), (2, 11), (1, 12)],
            vec![(0, 20)],
            vec![(0, 30), (3, 31)],
            vec![],
        ];
        let out = realize_randomized(&sends, 1);
        assert!(check_delivery(&sends, &out));
    }

    #[test]
    fn randomized_delivers_hotspot() {
        let p = 8;
        let sends: Vec<Vec<(usize, Word)>> = (0..p)
            .map(|s| if s == 0 { vec![] } else { vec![(0, s as Word)] })
            .collect();
        let out = realize_randomized(&sends, 2);
        assert!(check_delivery(&sends, &out));
        assert_eq!(out.received[0].len(), p - 1);
    }

    #[test]
    fn randomized_delivers_across_seeds() {
        let sends = vec![vec![(2, 1), (2, 2)], vec![(2, 3), (0, 4)], vec![(1, 5)]];
        for seed in 0..16 {
            let out = realize_randomized(&sends, seed);
            assert!(check_delivery(&sends, &out), "seed={seed}");
        }
    }

    #[test]
    fn time_is_h_plus_small_additive() {
        let p = 8;
        let mk = |h: usize| -> Vec<Vec<(usize, Word)>> {
            (0..p)
                .map(|src| (0..h).map(|k| (((src + 1) % p), k as Word)).collect())
                .collect()
        };
        let t4 = realize_randomized(&mk(4), 3).time;
        let t16 = realize_randomized(&mk(16), 3).time;
        // O(h + lg*): quadrupling h should roughly quadruple the h part.
        assert!(t16 > 2 * t4 / 2, "t4={t4} t16={t16}");
        assert!(t16 <= 6 * t4, "t4={t4} t16={t16}: not linear in h");
    }

    #[test]
    fn empty_relation() {
        let out = realize_randomized(&vec![vec![]; 4], 0);
        assert_eq!(out.time, 0);
    }

    #[test]
    fn scan_order_is_destination_sorted() {
        // Delivery per destination follows the (approximately sorted)
        // array order, which groups by destination.
        let sends = vec![vec![(1, 9), (1, 8), (1, 7)], vec![]];
        let out = realize_randomized(&sends, 5);
        assert_eq!(out.received[1].len(), 3);
        assert!(check_delivery(&sends, &out));
    }
}
