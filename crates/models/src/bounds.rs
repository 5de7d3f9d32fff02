//! Every closed-form bound quoted in the paper, as executable formulas.
//!
//! These are the "paper" column of the experiment tables: the harness runs an
//! algorithm on the simulator, measures its model cost, and prints it next to
//! the bound from this module. Bounds are stated up to constant factors in
//! the paper (Θ/O/Ω); the functions here return the *leading term* with unit
//! constants, so comparisons check shape (who wins, growth rate, crossover),
//! not absolute constants.
//!
//! Section references follow the SPAA'97 paper.

use crate::{div_ceil, lg};

// ---------------------------------------------------------------------------
// Table 1 (Section 4): separations at n = p, m = p/g
// ---------------------------------------------------------------------------

/// One-to-all personalized communication on QSM(m): `Θ(p)` (Table 1).
pub fn one_to_all_qsm_m(p: usize) -> f64 {
    p as f64
}

/// One-to-all personalized communication on QSM(g): `Θ(g·p)` (Table 1).
pub fn one_to_all_qsm_g(p: usize, g: u64) -> f64 {
    g as f64 * p as f64
}

/// One-to-all personalized communication on BSP(m): `Θ(p + L)` (Table 1).
pub fn one_to_all_bsp_m(p: usize, l: u64) -> f64 {
    p as f64 + l as f64
}

/// One-to-all personalized communication on BSP(g): `Θ(g·p + L)` (Table 1).
pub fn one_to_all_bsp_g(p: usize, g: u64, l: u64) -> f64 {
    g as f64 * p as f64 + l as f64
}

/// Broadcasting on QSM(m): `Θ(lg m + p/m)` (Table 1).
pub fn broadcast_qsm_m(p: usize, m: usize) -> f64 {
    lg(m as f64) + p as f64 / m as f64
}

/// Broadcasting on QSM(g): `Θ(g·lg p / lg g)` (Table 1).
pub fn broadcast_qsm_g(p: usize, g: u64) -> f64 {
    g as f64 * lg(p as f64) / lg(g as f64)
}

/// Broadcasting on BSP(m): `O(L·lg m / lg L + p/m + L)` (Table 1).
pub fn broadcast_bsp_m(p: usize, m: usize, l: u64) -> f64 {
    l as f64 * lg(m as f64) / lg(l as f64) + p as f64 / m as f64 + l as f64
}

/// Broadcasting on BSP(g): `Θ(L·lg p / lg(L/g))` (Table 1). The tree that
/// achieves it has fan-out `⌈L/g⌉`; the formula clamps `L/g` at 2 so the
/// denominator stays positive (when `L ≤ g` a fan-out-2, or with non-receipt
/// a fan-out-3, tree is optimal).
pub fn broadcast_bsp_g(p: usize, g: u64, l: u64) -> f64 {
    let fan = (l as f64 / g as f64).max(2.0);
    l as f64 * lg(p as f64) / lg(fan)
}

/// Deterministic broadcast *lower bound* on BSP(g), Theorem 4.1:
/// `L·lg p / (2·lg(2L/g + 1))`.
pub fn broadcast_bsp_g_lower(p: usize, g: u64, l: u64) -> f64 {
    let ratio = 2.0 * l as f64 / g as f64 + 1.0;
    l as f64 * lg(p as f64) / (2.0 * ratio.log2().max(f64::MIN_POSITIVE))
}

/// The Section 4.2 ternary *non-receipt* broadcast on BSP(g): exactly
/// `g·⌈lg₃ p⌉` when `L ≤ g`.
pub fn broadcast_ternary_bsp_g(p: usize, g: u64) -> f64 {
    g as f64 * crate::ceil_log3(p as u64) as f64
}

/// Parity / summation of `n` inputs on QSM(m): `Θ(lg m + n/m)` (Table 1).
pub fn summation_qsm_m(n: usize, m: usize) -> f64 {
    lg(m as f64) + n as f64 / m as f64
}

/// Parity / summation on QSM(g): `Ω(g·lg n / lg lg n)` (Table 1; via
/// Beame–Håstad through the CRCW→QSM(g) conversion of Section 4.1).
pub fn summation_qsm_g_lower(n: usize, g: u64) -> f64 {
    g as f64 * lg(n as f64) / lg(lg(n as f64))
}

/// Parity / summation on BSP(m): `O(L·lg m / lg L + n/m + L)` (Table 1).
pub fn summation_bsp_m(n: usize, m: usize, l: u64) -> f64 {
    l as f64 * lg(m as f64) / lg(l as f64) + n as f64 / m as f64 + l as f64
}

/// Parity / summation on BSP(g): `Θ(L·lg n / lg(L/g))` (Table 1).
pub fn summation_bsp_g(n: usize, g: u64, l: u64) -> f64 {
    let fan = (l as f64 / g as f64).max(2.0);
    l as f64 * lg(n as f64) / lg(fan)
}

/// List ranking on QSM(m): `O(lg m + n/m)` (Table 1).
pub fn list_ranking_qsm_m(n: usize, m: usize) -> f64 {
    lg(m as f64) + n as f64 / m as f64
}

/// List ranking on BSP(m): `O(L·lg m + n/m)` (Table 1).
pub fn list_ranking_bsp_m(n: usize, m: usize, l: u64) -> f64 {
    l as f64 * lg(m as f64) + n as f64 / m as f64
}

/// List ranking / sorting lower bound on the g-models:
/// `Ω(g·lg n / lg lg n)` (Table 1).
pub fn g_model_lower(n: usize, g: u64) -> f64 {
    summation_qsm_g_lower(n, g)
}

/// Sorting `n` keys on QSM(m): `Θ(n/m)` for `m = O(n^{1−ε})` (Table 1).
pub fn sorting_qsm_m(n: usize, m: usize) -> f64 {
    n as f64 / m as f64
}

/// Sorting on BSP(m): `Θ(n/m + L)` for `m = O(n^{1−ε})` (Table 1).
pub fn sorting_bsp_m(n: usize, m: usize, l: u64) -> f64 {
    n as f64 / m as f64 + l as f64
}

// ---------------------------------------------------------------------------
// Section 6.1: the static unbalanced routing problem
// ---------------------------------------------------------------------------

/// Proposition 6.1 — the routing problem on BSP(g) takes `Θ(g(x̄+ȳ) + L)`.
pub fn routing_bsp_g(xbar: u64, ybar: u64, g: u64, l: u64) -> f64 {
    g as f64 * (xbar + ybar) as f64 + l as f64
}

/// The global-bandwidth routing lower bound: `max(n/m, h)` with
/// `h = max(x̄, ȳ)` (Section 1/6).
pub fn routing_global_lower(n: u64, m: usize, xbar: u64, ybar: u64) -> f64 {
    (n as f64 / m as f64).max(xbar.max(ybar) as f64)
}

/// `τ`, the cost to compute and broadcast the total message count `n` on the
/// BSP(m): `O(p/m + L + L·lg m / lg L)` (Section 1, used in Theorems
/// 6.2–6.4).
pub fn tau_preamble(p: usize, m: usize, l: u64) -> f64 {
    p as f64 / m as f64 + l as f64 + l as f64 * lg(m as f64) / lg(l as f64)
}

/// Theorem 6.2 — the w.h.p. completion-time target of Unbalanced-Send:
/// `max((1+ε)n/m, x̄, ȳ, L) + τ`.
pub fn unbalanced_send_target(
    n: u64,
    m: usize,
    xbar: u64,
    ybar: u64,
    eps: f64,
    p: usize,
    l: u64,
) -> f64 {
    let sigma = ((1.0 + eps) * n as f64 / m as f64)
        .max(xbar as f64)
        .max(ybar as f64)
        .max(l as f64);
    sigma + tau_preamble(p, m, l)
}

/// Theorem 6.3 — the target of Unbalanced-Consecutive-Send:
/// `max((1+ε)n/m + x̄', x̄, ȳ) + τ`, where `x̄'` is the largest send count
/// among processors with at most `(1+ε)n/m` messages.
#[allow(clippy::too_many_arguments)] // the theorem's own parameter list
pub fn consecutive_send_target(
    n: u64,
    m: usize,
    xbar: u64,
    xbar_small: u64,
    ybar: u64,
    eps: f64,
    p: usize,
    l: u64,
) -> f64 {
    let sigma = ((1.0 + eps) * n as f64 / m as f64 + xbar_small as f64)
        .max(xbar as f64)
        .max(ybar as f64);
    sigma + tau_preamble(p, m, l)
}

/// Theorem 6.4 — Unbalanced-Granular-Send completes in `c·n/m` for a
/// constant `c`, provided `p < e^{αm}`. We report the target with the
/// explicit window constant used by our implementation.
pub fn granular_send_target(n: u64, m: usize, c: f64) -> f64 {
    c * n as f64 / m as f64
}

/// The long-message (flit) variant target (Section 6.1): the additive term is
/// `ℓ̂`, the maximum message length, instead of `x̄'`.
#[allow(clippy::too_many_arguments)] // the theorem's own parameter list
pub fn flit_send_target(
    n: u64,
    m: usize,
    xbar: u64,
    ybar: u64,
    lhat: u64,
    eps: f64,
    p: usize,
    l: u64,
) -> f64 {
    let sigma = ((1.0 + eps) * n as f64 / m as f64 + lhat as f64)
        .max(xbar as f64)
        .max(ybar as f64);
    sigma + tau_preamble(p, m, l)
}

/// The startup-overhead variant (Section 6.1, LogP-style gap `o`):
/// `(1+ε)(1 + o/ℓ̄)·n/m + ℓ̂ + o` plus `τ`, where `ℓ̄` is the mean message
/// length.
#[allow(clippy::too_many_arguments)] // the theorem's own parameter list
pub fn overhead_send_target(
    n: u64,
    m: usize,
    lbar: f64,
    lhat: u64,
    o: u64,
    eps: f64,
    p: usize,
    l: u64,
) -> f64 {
    assert!(lbar > 0.0, "mean message length must be positive");
    (1.0 + eps) * (1.0 + o as f64 / lbar) * n as f64 / m as f64
        + lhat as f64
        + o as f64
        + tau_preamble(p, m, l)
}

// ---------------------------------------------------------------------------
// Section 6.2: the dynamic problem (Adversarial Queuing Theory)
// ---------------------------------------------------------------------------

/// Theorem 6.5 — on BSP(g) with `g > 1`, the system is unstable for any
/// algorithm when the local arrival rate `β > 1/g`, and stable (with the
/// interval algorithm) when `β ≤ 1/g`. Returns the stability threshold on β.
pub fn dynamic_bsp_g_beta_threshold(g: u64) -> f64 {
    1.0 / g as f64
}

/// Corollary 6.6 — no algorithm on BSP(g) is stable above total rate `p/g`.
pub fn dynamic_bsp_g_alpha_threshold(p: usize, g: u64) -> f64 {
    p as f64 / g as f64
}

/// Theorem 6.7 — Algorithm B on BSP(m) is stable provided
/// `α ≤ m/a − m·u/(w·a)` (global rate) where `A` completes in
/// `max(a·n/m, b·x̄, b·ȳ)`.
pub fn dynamic_bsp_m_alpha_threshold(m: usize, a: f64, u: f64, w: f64) -> f64 {
    m as f64 / a - m as f64 * u / (w * a)
}

/// Theorem 6.7 — the matching local-rate threshold `β ≤ 1/b − u/(w·b)`.
pub fn dynamic_bsp_m_beta_threshold(b: f64, u: f64, w: f64) -> f64 {
    1.0 / b - u / (w * b)
}

/// Theorem 6.7 — the slack parameter `u ≥ ⌊1.21·r·w⌋ + 1` required for
/// stability, where `r` is the per-interval failure probability of `A`.
pub fn dynamic_slack_u(r: f64, w: f64) -> f64 {
    (1.21 * r * w).floor() + 1.0
}

/// Theorem 6.7 — expected service time of any arrival: `O(w²/u)`.
pub fn dynamic_expected_service(w: f64, u: f64) -> f64 {
    w * w / u
}

/// Claim 6.8 — the M/G/1 system `S''` has arrival rate `r` and expected
/// service time `< 1.21·w/u`; it is stable when `1.21·r·w/u < 1`.
pub fn mg1_utilization(r: f64, w: f64, u: f64) -> f64 {
    1.21 * r * w / u
}

/// Claim 6.8 — mean queue length at departure instants for an M/G/1 queue:
/// `r·μ̄ + r²·μ̄₂ / (2(1 − r·μ̄))` (Pollaczek–Khinchine), where `μ̄` is the
/// mean service time and `μ̄₂` its second moment.
pub fn mg1_mean_queue(r: f64, mu1: f64, mu2: f64) -> f64 {
    let rho = r * mu1;
    assert!(rho < 1.0, "M/G/1 queue is unstable at utilization {rho}");
    rho + r * r * mu2 / (2.0 * (1.0 - rho))
}

/// The service-time distribution `S₀''` of Claim 6.8 takes value `k·w/u`
/// with probability `1/k⁴ − 1/(k+1)⁴` for integers `k ≥ 1`. Its first
/// moment is `(w/u)·Σ k·(1/k⁴ − 1/(k+1)⁴) = (w/u)·Σ 1/k⁴·(telescoped)`
/// `< 1.21·w/u` — we compute the series numerically.
pub fn mg1_service_moments(w: f64, u: f64, terms: usize) -> (f64, f64) {
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    for k in 1..=terms {
        let kf = k as f64;
        let pk = 1.0 / kf.powi(4) - 1.0 / (kf + 1.0).powi(4);
        let v = kf * w / u;
        m1 += pk * v;
        m2 += pk * v * v;
    }
    (m1, m2)
}

// ---------------------------------------------------------------------------
// Section 5: concurrent read in limited bandwidth
// ---------------------------------------------------------------------------

/// Theorem 5.1 — one CRCW PRAM(m) step simulates on QSM(m) in `O(p/m)`
/// (for `m = O(p^{1−ε})`).
pub fn cr_sim_slowdown(p: usize, m: usize) -> f64 {
    p as f64 / m as f64
}

/// Theorem 5.2 / abstract — the ER-vs-CR separation:
/// `Ω(p·lg m / (m·lg p))`.
pub fn er_cr_separation(p: usize, m: usize) -> f64 {
    p as f64 * lg(m as f64) / (m as f64 * lg(p as f64))
}

/// Lemma 5.3 — Leader Recognition on QSM(m) requires
/// `Ω(p·lg m / (m·w))` time, `w` = bits per memory cell.
pub fn leader_qsm_m_lower(p: usize, m: usize, word_bits: u64) -> f64 {
    p as f64 * lg(m as f64) / (m as f64 * word_bits as f64)
}

/// Leader Recognition on the CRCW PRAM(m): `O(max(lg p / w, 1))`.
pub fn leader_crcw_pram_m(p: usize, word_bits: u64) -> f64 {
    (lg(p as f64) / word_bits as f64).max(1.0)
}

/// The previously best known ER/CR separation, `2^Ω(√lg p)` (from \[1\]),
/// which the paper's `Ω(p·lg m/(m·lg p))` improves upon when `m ≪ p`.
pub fn previous_er_cr_separation(p: usize) -> f64 {
    2f64.powf(lg(p as f64).sqrt())
}

// ---------------------------------------------------------------------------
// Section 4.1: h-relation realization on the CRCW PRAM
// ---------------------------------------------------------------------------

/// The deterministic CRCW h-relation realization runs in `O(h)` time
/// (Section 4.1): we report `h` plus the constant number of setup rounds
/// used by our implementation.
pub fn hrelation_crcw_time(h: u64, setup_rounds: u64) -> f64 {
    (h + setup_rounds) as f64
}

/// Naive-emulation bound of Section 4: a QSM(g)/BSP(g) algorithm runs on the
/// corresponding m-model in the same time by splitting each communication
/// step into `g` substeps of `p/g = m` messages each.
pub fn g_to_m_emulation_substeps(p: usize, m: usize) -> u64 {
    div_ceil(p as u64, m as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_one_to_all_separation_is_g() {
        let (p, g, l) = (1024usize, 16u64, 16u64);
        let sep = one_to_all_bsp_g(p, g, l) / one_to_all_bsp_m(p, l);
        // Θ(g) separation for n = p.
        assert!(sep > g as f64 * 0.9 && sep < g as f64 * 1.1, "sep={sep}");
    }

    #[test]
    fn table1_broadcast_separation_shape() {
        // QSM separation Θ(lg p / lg g) when m = p/g.
        let (p, g) = (1 << 20, 16u64);
        let m = p / g as usize;
        let sep = broadcast_qsm_g(p, g) / broadcast_qsm_m(p, m);
        let predicted = lg(p as f64) / lg(g as f64);
        // Same growth within a small constant: QSM(m) cost is lg m + g ≈ g
        // dominated for this regime, so ratio tracks (g lg p / lg g) / (lg m + g).
        let expected = (g as f64 * lg(p as f64) / lg(g as f64)) / (lg(m as f64) + g as f64);
        assert!((sep - expected).abs() < 1e-9);
        assert!(predicted > 1.0);
    }

    #[test]
    fn thm41_lower_bound_below_upper() {
        for l in [4u64, 16, 64, 256] {
            for g in [1u64, 2, 4, 8] {
                let p = 4096;
                assert!(
                    broadcast_bsp_g_lower(p, g, l) <= broadcast_bsp_g(p, g, l) * 2.0 + 1e-9,
                    "L={l} g={g}"
                );
            }
        }
    }

    #[test]
    fn ternary_broadcast_beats_binary_when_l_le_g() {
        let (p, g, l) = (6561usize, 32u64, 8u64);
        // g·⌈lg₃p⌉ = 32·8 = 256 vs binary-tree L·lg p ≥ 8·12.68… — here the
        // ternary trick costs g per round; check exact value.
        assert_eq!(broadcast_ternary_bsp_g(p, g), 32.0 * 8.0);
        assert!(l <= g);
    }

    #[test]
    fn routing_local_vs_global_gap() {
        // One hot sender: x̄ = n, others 0. Global lower bound = max(n/m, n) = n;
        // local bound = g·n. Gap = g.
        let (n, m, g, l) = (10_000u64, 64usize, 16u64, 1u64);
        let local = routing_bsp_g(n, 0, g, l);
        let global = routing_global_lower(n, m, n, 1);
        assert!((local / global - g as f64).abs() < 0.01);
    }

    #[test]
    fn routing_balanced_no_gap() {
        // Perfect balance: x̄ = ȳ = n/p; with m = p/g the two bounds match to
        // within the additive L.
        let (p, g) = (1024usize, 16u64);
        let m = p / g as usize;
        let per = 100u64;
        let n = per * p as u64;
        let local = routing_bsp_g(per, per, g, 1);
        let global = routing_global_lower(n, m, per, per);
        // local = g·2·per, global = n/m = g·per → ratio 2.
        assert!((local / global - 2.0).abs() < 0.01);
    }

    #[test]
    fn unbalanced_send_target_dominated_by_terms() {
        let t = unbalanced_send_target(100_000, 64, 500, 700, 0.1, 1024, 16);
        let sigma = (1.1 * 100_000.0 / 64.0f64).max(700.0);
        assert!((t - (sigma + tau_preamble(1024, 64, 16))).abs() < 1e-9);
    }

    #[test]
    fn granular_target_linear_in_n() {
        assert_eq!(granular_send_target(1000, 10, 3.0), 300.0);
        assert_eq!(granular_send_target(2000, 10, 3.0), 600.0);
    }

    #[test]
    fn dynamic_thresholds() {
        assert!((dynamic_bsp_g_beta_threshold(4) - 0.25).abs() < 1e-12);
        assert!((dynamic_bsp_g_alpha_threshold(64, 4) - 16.0).abs() < 1e-12);
        let a = dynamic_bsp_m_alpha_threshold(16, 1.2, 2.0, 100.0);
        assert!(a > 0.0 && a < 16.0 / 1.2);
        let b = dynamic_bsp_m_beta_threshold(1.0, 2.0, 100.0);
        assert!(b > 0.9 && b < 1.0);
    }

    #[test]
    fn mg1_moments_converge_below_paper_constant() {
        let (m1, _m2) = mg1_service_moments(1.0, 1.0, 100_000);
        // Expected service time < 1.21·w/u (Claim 6.8 quotes Σ1/k³ < 1.21).
        assert!(m1 < 1.21, "m1={m1}");
        assert!(m1 > 1.0);
    }

    #[test]
    fn mg1_mean_queue_matches_pk() {
        // M/M/1 sanity check: exponential service mean 0.5 (μ2 = 2·0.25),
        // arrival 1.0 → ρ=0.5, Lq at departures = ρ + ρ²/(1-ρ) = 1.0.
        let q = mg1_mean_queue(1.0, 0.5, 0.5);
        assert!((q - (0.5 + 0.5 / 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn mg1_mean_queue_rejects_overload() {
        let _ = mg1_mean_queue(2.0, 1.0, 1.0);
    }

    #[test]
    fn er_cr_separation_beats_previous_for_small_m() {
        // When m ≪ p the new separation dwarfs 2^√lg p (abstract claim).
        let p = 1 << 20;
        let m = 16;
        assert!(er_cr_separation(p, m) > previous_er_cr_separation(p));
    }

    #[test]
    fn er_cr_separation_modest_for_large_m() {
        let p = 1 << 20;
        let m = p / 2;
        assert!(er_cr_separation(p, m) < previous_er_cr_separation(p));
    }

    #[test]
    fn leader_bounds_consistent() {
        let (p, m, w) = (1 << 16, 64, 32);
        let lower = leader_qsm_m_lower(p, m, w);
        let crcw = leader_crcw_pram_m(p, w);
        assert!(lower > crcw, "separation must favour CRCW PRAM(m)");
    }

    #[test]
    fn emulation_substeps_is_g_under_parity() {
        assert_eq!(g_to_m_emulation_substeps(1024, 64), 16);
    }
}
