//! # pbw-algos
//!
//! The problem algorithms of Sections 4 and 5 of the SPAA'97 paper, each
//! executed on the `pbw-sim` / `pbw-pram` engines with exact cost metering,
//! so the experiment harness can regenerate Table 1 and the Section 5
//! separations by *measurement* rather than by quoting formulas.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`one_to_all`] | the Section 1 motivating example (Θ(g) separation) |
//! | [`broadcast`] | Table 1 row 2, Theorem 4.1, and the §4.2 ternary non-receipt broadcast |
//! | [`reduce`] | parity / summation (Table 1 row 3) |
//! | [`prefix`] | parallel prefix sums (the scan behind τ and the sorting offsets) |
//! | [`collectives`] | total exchange / transpose / gather (the §3 applications) |
//! | [`list_ranking`] | list ranking (Table 1 row 4) via the paper's PRAM→QSM(m) conversion |
//! | [`columnsort`] | Leighton's columnsort — the deterministic sorting substrate of \[2\] |
//! | [`sort`] | sorting on QSM(m)/BSP(m) in O(n/m) (Table 1 row 5) |
//! | [`sample_sort`] | BSP sample sort as a real-algorithm workload: data-driven bucket skew as the emergent BSP(g)/BSP(m) gap |
//! | [`bitonic`] | the balanced, locally-limited-friendly block bitonic sorter (the g-model's native algorithm) |
//! | [`convert`] | the "general strategy" of Section 4: EREW/QRQW PRAM → QSM(m)/BSP(m) |
//! | [`leader`] | Leader Recognition (Theorem 5.2 / Lemma 5.3) |
//! | [`cr_sim`] | simulating a CRCW PRAM(m) step on the QSM(m) (Theorem 5.1) |
//! | [`sensitivity`] | the Theorem 4.1 sensitivity argument as an executable audit |

pub mod bitonic;
pub mod broadcast;
pub mod collectives;
pub mod columnsort;
pub mod convert;
pub mod cr_sim;
pub mod leader;
pub mod list_ranking;
pub mod one_to_all;
pub mod prefix;
pub mod reduce;
pub mod sample_sort;
pub mod sensitivity;
pub mod sort;

/// A measured algorithm execution: its model cost, superstep/phase count and
/// a correctness flag (every algorithm verifies its own output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Cost under the model the algorithm targets.
    pub time: f64,
    /// Number of supersteps / phases / PRAM steps executed.
    pub rounds: usize,
    /// Whether the output was verified correct.
    pub ok: bool,
}

impl Measured {
    /// Assert correctness and return the time.
    pub fn time_checked(&self) -> f64 {
        assert!(self.ok, "algorithm produced an incorrect result");
        self.time
    }
}
