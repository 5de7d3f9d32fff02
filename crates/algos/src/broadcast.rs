//! Broadcasting one value to all `p` processors (Table 1 row 2, Theorem 4.1
//! and the Section 4.2 non-receipt algorithm).
//!
//! Four executable algorithms, each shaped for its model's cost metric:
//!
//! * [`qsm_m`] — processor-doubling fills `m` cells in `Θ(lg m)` phases,
//!   then the remaining processors read cells `pid mod m` with staggered
//!   injections: `Θ(lg m + p/m)`.
//! * [`qsm_g`] — read-side fan-out-`g` tree (`κ = g` per phase, `g·h = g`):
//!   `Θ(g·lg p / lg g)`.
//! * [`bsp_m`] — fan-out-`L` tree among `m` group leaders, then a staggered
//!   group fan-out: `O(L·lg m / lg L + p/m + L)`.
//! * [`bsp_g`] — fan-out-`⌈L/g⌉` message tree: `Θ(L·lg p / lg(L/g))`
//!   (matching the Theorem 4.1 lower bound up to constants).
//! * [`ternary_nonreceipt`] — the Section 4.2 single-bit broadcast that
//!   extracts information from *non-receipt*: when `L ≤ g` it finishes in
//!   exactly `⌈lg₃ p⌉` supersteps of `h = 1`, i.e. time `g·⌈lg₃ p⌉`,
//!   beating any receive-only algorithm.

use crate::Measured;
use pbw_models::{BspG, BspM, CostModel, MachineParams, PenaltyFn, QsmG, QsmM};
use pbw_sim::{BspMachine, Outbox, QsmMachine, Word};

const MAGIC: Word = 4242;

/// Broadcast on the QSM(m): `Θ(lg m + p/m)`.
pub fn qsm_m(params: MachineParams) -> Measured {
    let m = params.m;
    // State: the value, once known.
    let mut qsm: QsmMachine<Option<Word>> =
        QsmMachine::new(params, m, |pid| if pid == 0 { Some(MAGIC) } else { None });

    // Seed: processor 0 publishes into cell 0 (cells double as the
    // per-processor mailboxes the final fan-out reads).
    qsm.phase(|pid, s, _res, ctx| {
        if pid == 0 {
            if let Some(v) = *s {
                ctx.write(0, v);
            }
        }
    });

    // Doubling among the first m processors: round r: knowers [0, 2^r)
    // write cells [2^r, 2^{r+1}); owners read their own cell next phase.
    let mut known = 1usize;
    let mut rounds = 1usize;
    while known < m {
        let k = known;
        qsm.phase(move |pid, s, _res, ctx| {
            if pid < k {
                if let Some(v) = *s {
                    let target = pid + k;
                    if target < m {
                        ctx.write(target, v);
                    }
                }
            }
        });
        qsm.phase(move |pid, s, _res, ctx| {
            if pid >= k && pid < (2 * k).min(m) && s.is_none() {
                ctx.read(pid);
            }
        });
        qsm.phase(move |pid, s, res, _ctx| {
            if pid >= k && pid < (2 * k).min(m) {
                if let Some(r) = res.first() {
                    *s = Some(r.value);
                }
            }
        });
        known *= 2;
        rounds += 1;
    }

    // Distribution: processors m..p read cell (pid mod m), staggered so each
    // machine step carries exactly m requests and each cell queues p/m
    // readers over p/m distinct steps.
    qsm.phase(move |pid, _s, _res, ctx| {
        if pid >= m {
            ctx.read_at(pid % m, (pid / m) as u64);
        }
    });
    qsm.phase(move |pid, s, res, _ctx| {
        if pid >= m {
            if let Some(r) = res.first() {
                *s = Some(r.value);
            }
        }
    });

    let ok = qsm.states().iter().all(|s| *s == Some(MAGIC));
    let model = QsmM {
        m,
        penalty: PenaltyFn::Exponential,
    };
    Measured {
        time: model.run_cost(qsm.profiles()),
        rounds: rounds + 2,
        ok,
    }
}

/// Broadcast on the QSM(g): read-side fan-out-`g` tree,
/// `Θ(g·lg p / lg g)`.
pub fn qsm_g(params: MachineParams) -> Measured {
    let p = params.p;
    let f = (params.g as usize).max(2);
    let mut qsm: QsmMachine<Option<Word>> =
        QsmMachine::new(params, p, |pid| if pid == 0 { Some(MAGIC) } else { None });
    // Cell i is processor i's mailbox; proc 0 seeds its own.
    qsm.phase(|pid, s, _res, ctx| {
        if pid == 0 {
            if let Some(v) = *s {
                ctx.write(0, v);
            }
        }
    });
    let mut known = 1usize;
    let mut rounds = 1usize;
    while known < p {
        let k = known;
        let upper = (k * (f + 1)).min(p); // this round informs [k, k(f+1))
                                          // Newcomers read a parent's cell: κ ≤ f readers per parent cell.
        qsm.phase(move |pid, _s, _res, ctx| {
            if pid >= k && pid < upper {
                ctx.read((pid - k) % k);
            }
        });
        // Newcomers learn the value and publish to their own cell.
        qsm.phase(move |pid, s, res, ctx| {
            if pid >= k && pid < upper {
                if let Some(r) = res.first() {
                    *s = Some(r.value);
                    ctx.write(pid, r.value);
                }
            }
        });
        known = upper;
        rounds += 1;
    }
    let ok = qsm.states().iter().all(|s| *s == Some(MAGIC));
    let model = QsmG { g: params.g };
    Measured {
        time: model.run_cost(qsm.profiles()),
        rounds,
        ok,
    }
}

/// Broadcast on the BSP(m): leader tree (fan-out `L`) + staggered group
/// fan-out; `O(L·lg m / lg L + p/m + L)`.
pub fn bsp_m(params: MachineParams) -> Measured {
    let p = params.p;
    let m = params.m;
    assert!(p.is_multiple_of(m), "m must divide p");
    let group = p / m;
    let f = (params.l as usize).max(2);
    let mut bsp: BspMachine<Option<Word>, Word> =
        BspMachine::new(params, |pid| if pid == 0 { Some(MAGIC) } else { None });

    // Tree among leaders (processors g·group): known leader ranks double by
    // factor f each round.
    let mut known = 1usize; // leader ranks [0, known) hold the value
    let mut rounds = 0usize;
    while known < m {
        let k = known;
        let upper = (k * f).min(m);
        bsp.superstep(move |pid, s, _in, out| {
            if pid % group == 0 {
                let rank = pid / group;
                if rank < k {
                    if let Some(v) = *s {
                        // Send to ranks rank + k, rank + 2k, … < upper,
                        // staggered one injection slot apart.
                        let mut slot = 0u64;
                        let mut child = rank + k;
                        while child < upper {
                            out.send_at(child * group, v, slot);
                            slot += 1;
                            child += k;
                        }
                    }
                }
            }
        });
        bsp.superstep(move |pid, s, inbox, _out| {
            if pid % group == 0 && s.is_none() {
                if let Some(&v) = inbox.first() {
                    *s = Some(v);
                }
            }
        });
        known = upper;
        rounds += 1;
    }

    // Leaders fan out to their group, one member per slot (machine-wide m
    // messages per slot).
    bsp.superstep(move |pid, s, _in, out| {
        if pid % group == 0 {
            if let Some(v) = *s {
                for r in 1..group {
                    out.send_at(pid + r, v, (r - 1) as u64);
                }
            }
        }
    });
    bsp.superstep(|_pid, s, inbox, _out| {
        if s.is_none() {
            if let Some(&v) = inbox.first() {
                *s = Some(v);
            }
        }
    });

    let ok = bsp.states().iter().all(|s| *s == Some(MAGIC));
    let model = BspM {
        m,
        l: params.l,
        penalty: PenaltyFn::Exponential,
    };
    Measured {
        time: model.run_cost(bsp.profiles()),
        rounds: rounds + 1,
        ok,
    }
}

/// Broadcast on the BSP(g): fan-out-`max(2, ⌈L/g⌉)` message tree,
/// `Θ(L·lg p / lg(L/g))`.
pub fn bsp_g(params: MachineParams) -> Measured {
    let p = params.p;
    let f = ((params.l as f64 / params.g as f64).ceil() as usize).max(2);
    let mut bsp: BspMachine<Option<Word>, Word> =
        BspMachine::new(params, |pid| if pid == 0 { Some(MAGIC) } else { None });
    let mut known = 1usize;
    let mut rounds = 0usize;
    while known < p {
        let k = known;
        let upper = (k * (f + 1)).min(p);
        let send = move |pid: usize, s: &mut Option<Word>, _in: &[Word], out: &mut Outbox<Word>| {
            if pid < k {
                if let Some(v) = *s {
                    let mut child = pid + k;
                    while child < upper {
                        out.send(child, v);
                        child += k;
                    }
                }
            }
        };
        let absorb =
            move |pid: usize, s: &mut Option<Word>, inbox: &[Word], _out: &mut Outbox<Word>| {
                if pid >= k && s.is_none() {
                    if let Some(&v) = inbox.first() {
                        *s = Some(v);
                    }
                }
            };
        // Early rounds are the sparse regime the active-set path exists
        // for: only `k` senders out of `p`, and the absorb superstep's
        // frontier is discovered from the retained inboxes alone. The
        // engine picks the path for each superstep.
        let active: Vec<usize> = (0..k).collect();
        bsp.superstep_auto(&active, send);
        bsp.superstep_auto(&[], absorb);
        known = upper;
        rounds += 1;
    }
    let ok = bsp.states().iter().all(|s| *s == Some(MAGIC));
    let model = BspG {
        g: params.g,
        l: params.l,
    };
    Measured {
        time: model.run_cost(bsp.profiles()),
        rounds,
        ok,
    }
}

/// The Section 4.2 single-bit broadcast on the BSP(g), exploiting
/// non-receipt: after round `i`, processors `0..3^i` know the bit; total
/// `⌈lg₃ p⌉` supersteps of `h = 1`.
///
/// Returns `(Measured, recovered_bits_ok)` — the run is repeated for both
/// bit values to demonstrate that the *same* protocol transfers either.
pub fn ternary_nonreceipt(params: MachineParams, bit: bool) -> Measured {
    let p = params.p;
    #[derive(Clone, Copy)]
    struct St {
        knows: bool,
        bit: bool,
    }
    let mut bsp: BspMachine<St, ()> = BspMachine::new(params, |pid| St {
        knows: pid == 0,
        bit: pid == 0 && bit,
    });

    // One superstep per round: processors first decode the previous
    // round's (non-)receipt, then the knowers send this round's signal —
    // so each superstep has h = 1 and costs max(g, L), and the whole
    // protocol takes ⌈lg₃ p⌉ supersteps plus one final decode.
    let decode = move |k_prev: usize, pid: usize, s: &mut St, inbox_len: usize| {
        if k_prev > 0 && pid >= k_prev && pid < 3 * k_prev && !s.knows {
            let got = inbox_len > 0;
            if pid < 2 * k_prev {
                // bit 0 ⇒ sender pid−k would have sent here; silence ⇒ 1.
                s.bit = !got;
            } else {
                // bit 1 ⇒ sender pid−2k would have sent here.
                s.bit = got;
            }
            s.knows = true;
        }
    };
    let mut frontier = 1usize; // 3^{i-1}
    let mut prev = 0usize;
    let mut rounds = 0usize;
    while frontier < p {
        let k = frontier;
        let pk = prev;
        bsp.superstep(move |pid, s, inbox, out| {
            decode(pk, pid, s, inbox.len());
            // Knowing processors j < k send one (empty) message: to j+k if
            // the bit is 0, to j+2k if the bit is 1.
            if pid < k && s.knows {
                let target = if s.bit { pid + 2 * k } else { pid + k };
                if target < p {
                    out.send(target, ());
                }
            }
        });
        prev = k;
        frontier *= 3;
        rounds += 1;
    }
    // Final decode for the last round's frontier.
    let pk = prev;
    if pk > 0 && pk < p {
        bsp.superstep(move |pid, s, inbox, _out| decode(pk, pid, s, inbox.len()));
    }
    let ok = bsp.states().iter().all(|s| s.knows && s.bit == bit);
    let model = BspG {
        g: params.g,
        l: params.l,
    };
    Measured {
        time: model.run_cost(bsp.profiles()),
        rounds,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbw_models::bounds;

    fn params(p: usize, g: u64, l: u64) -> MachineParams {
        MachineParams::from_gap(p, g, l)
    }

    #[test]
    fn qsm_m_broadcast_correct_and_cheap() {
        let mp = params(256, 16, 4);
        let r = qsm_m(mp);
        assert!(r.ok);
        let bound = bounds::broadcast_qsm_m(mp.p, mp.m);
        assert!(r.time <= 6.0 * bound, "time {} vs Θ({bound})", r.time);
        assert!(r.time >= bound * 0.5);
    }

    #[test]
    fn qsm_g_broadcast_correct_and_matches_bound() {
        let mp = params(256, 4, 4);
        let r = qsm_g(mp);
        assert!(r.ok);
        let bound = bounds::broadcast_qsm_g(mp.p, mp.g);
        assert!(r.time <= 4.0 * bound, "time {} vs Θ({bound})", r.time);
    }

    #[test]
    fn bsp_m_broadcast_correct() {
        let mp = params(256, 16, 8);
        let r = bsp_m(mp);
        assert!(r.ok);
        let bound = bounds::broadcast_bsp_m(mp.p, mp.m, mp.l);
        assert!(r.time <= 6.0 * bound, "time {} vs {bound}", r.time);
    }

    #[test]
    fn bsp_g_broadcast_correct_and_above_lower_bound() {
        let mp = params(1024, 2, 32);
        let r = bsp_g(mp);
        assert!(r.ok);
        // Theorem 4.1: no deterministic algorithm beats
        // L·lg p / (2·lg(2L/g+1)).
        let lower = bounds::broadcast_bsp_g_lower(mp.p, mp.g, mp.l);
        assert!(
            r.time >= lower * 0.99,
            "measured {} below the Thm 4.1 bound {lower}",
            r.time
        );
        let upper = bounds::broadcast_bsp_g(mp.p, mp.g, mp.l);
        assert!(r.time <= 6.0 * upper);
    }

    #[test]
    fn ternary_broadcast_both_bits() {
        let mp = params(243, 27, 8); // L ≤ g: the non-receipt regime
        for bit in [false, true] {
            let r = ternary_nonreceipt(mp, bit);
            assert!(r.ok, "bit={bit}");
            // Exactly ⌈lg₃ 243⌉ = 5 rounds of cost max(g, L) = g, plus one
            // message-free final decode superstep of cost L.
            assert_eq!(r.rounds, 5);
            assert_eq!(r.time, (mp.g * 5 + mp.l) as f64);
        }
    }

    #[test]
    fn ternary_broadcast_non_power_of_three() {
        let mp = params(100, 10, 5);
        for bit in [false, true] {
            let r = ternary_nonreceipt(mp, bit);
            assert!(r.ok);
            assert_eq!(r.rounds as u64, pbw_models::ceil_log3(100));
        }
    }

    #[test]
    fn ternary_beats_receive_only_tree_when_l_le_g() {
        let mp = params(729, 27, 27);
        let ternary = ternary_nonreceipt(mp, true);
        let tree = bsp_g(mp);
        assert!(ternary.ok && tree.ok);
        assert!(
            ternary.time < tree.time,
            "ternary {} !< tree {}",
            ternary.time,
            tree.time
        );
    }

    #[test]
    fn global_beats_local_broadcast_shape() {
        // Table 1: QSM separation Θ(lg p / lg g) at m = p/g.
        let mp = params(4096, 8, 8);
        let gm = qsm_m(mp);
        let gg = qsm_g(mp);
        assert!(gm.ok && gg.ok);
        assert!(
            gg.time > gm.time,
            "QSM(g) {} !> QSM(m) {}",
            gg.time,
            gm.time
        );
    }

    #[test]
    fn broadcast_works_on_small_machines() {
        let mp = params(4, 2, 2);
        assert!(qsm_m(mp).ok);
        assert!(qsm_g(mp).ok);
        assert!(bsp_m(mp).ok);
        assert!(bsp_g(mp).ok);
        assert!(ternary_nonreceipt(mp, true).ok);
    }

    #[test]
    fn broadcast_single_processor() {
        let mp = params(1, 1, 1);
        assert!(qsm_m(mp).ok);
        assert!(bsp_g(mp).ok);
        assert!(ternary_nonreceipt(mp, false).ok);
    }
}
