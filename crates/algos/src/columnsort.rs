//! Leighton's columnsort — the deterministic sorting substrate behind the
//! paper's Table 1 sorting bound (via Adler–Byers–Karp \[2\], which adapts
//! columnsort to the limited-bandwidth setting).
//!
//! Columnsort sorts an `r × s` matrix (column-major, `s | r`,
//! `r ≥ 2(s−1)²`) into column-major order in eight steps:
//!
//! 1. sort each column,
//! 2. *transpose*: reshape reading column-major / writing row-major,
//! 3. sort each column,
//! 4. *untranspose*: the inverse reshape,
//! 5. sort each column,
//! 6. *shift*: shift the matrix forward by `r/2` positions (a half-column of
//!    `−∞` pads the front, `+∞` the back, giving `s+1` columns),
//! 7. sort each column,
//! 8. *unshift*.
//!
//! Each step is exposed individually (the machine-level sort in
//! [`crate::sort`] prices the permutation steps as communication), and
//! [`columnsort`] runs the whole pipeline on an arbitrary slice, choosing
//! dimensions and padding with sentinels automatically.

use pbw_sim::Word;

/// A column-major `r × s` matrix of words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    /// Rows per column.
    pub r: usize,
    /// Number of columns.
    pub s: usize,
    /// Elements, column-major: entry `(i, j)` at `data[j*r + i]`.
    pub data: Vec<Word>,
}

impl Matrix {
    /// Build from column-major data.
    pub fn new(r: usize, s: usize, data: Vec<Word>) -> Self {
        assert_eq!(data.len(), r * s, "data must fill the matrix");
        Matrix { r, s, data }
    }

    /// Whether the dimensions satisfy Leighton's requirements.
    pub fn dims_valid(&self) -> bool {
        let (r, s) = (self.r, self.s);
        s >= 1 && r % s.max(1) == 0 && (s <= 1 || r >= 2 * (s - 1) * (s - 1))
    }

    /// Step 1/3/5/7: sort every column ascending.
    pub fn sort_columns(&mut self) {
        for j in 0..self.s {
            self.data[j * self.r..(j + 1) * self.r].sort_unstable();
        }
    }

    /// Step 2: reshape reading column-major, writing row-major.
    pub fn transpose(&mut self) {
        let (r, s) = (self.r, self.s);
        let mut out = vec![0; r * s];
        // Element k of the column-major stream goes to row-major position k:
        // row k/s, column k%s → column-major index (k%s)*r + k/s.
        for (k, &v) in self.data.iter().enumerate() {
            out[(k % s) * r + k / s] = v;
        }
        self.data = out;
    }

    /// Step 4: inverse of [`Matrix::transpose`].
    pub fn untranspose(&mut self) {
        let (r, s) = (self.r, self.s);
        let mut out = vec![0; r * s];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.data[(k % s) * r + k / s];
        }
        self.data = out;
    }

    /// Steps 6–8 fused with the final column sort: shift the column-major
    /// stream forward by `r/2`, sort the `s+1` resulting columns (with `−∞`
    /// and `+∞` sentinels), and unshift.
    pub fn shift_sort_unshift(&mut self) {
        let (r, s) = (self.r, self.s);
        let half = r / 2;
        // Build the (s+1)-column shifted matrix.
        let mut wide = vec![Word::MAX; r * (s + 1)];
        wide[..half].fill(Word::MIN);
        wide[half..half + r * s].copy_from_slice(&self.data);
        let mut m = Matrix::new(r, s + 1, wide);
        m.sort_columns();
        // Unshift: drop the sentinels.
        self.data.copy_from_slice(&m.data[half..half + r * s]);
    }

    /// Run all eight steps.
    pub fn columnsort_in_place(&mut self) {
        assert!(
            self.dims_valid(),
            "columnsort needs s | r and r ≥ 2(s−1)² (r={}, s={})",
            self.r,
            self.s
        );
        self.sort_columns(); // 1
        self.transpose(); // 2
        self.sort_columns(); // 3
        self.untranspose(); // 4
        self.sort_columns(); // 5
        self.shift_sort_unshift(); // 6–8
    }

    /// Whether the matrix is sorted in column-major order.
    pub fn is_sorted(&self) -> bool {
        self.data.windows(2).all(|w| w[0] <= w[1])
    }
}

/// Pick columnsort dimensions for `n` elements: `s ≈ n^{1/3}/2`, `r` the
/// smallest multiple of `s` with `r·s ≥ n` and `r ≥ 2(s−1)²`. Returns
/// `(r, s)`; the caller pads with `Word::MAX` to `r·s`.
pub fn plan_dims(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let mut s = ((n as f64 / 2.0).powf(1.0 / 3.0).floor() as usize).max(1);
    loop {
        let need_rows = n
            .div_ceil(s)
            .max(if s > 1 { 2 * (s - 1) * (s - 1) } else { 1 });
        // Round up to a multiple of s.
        let r = need_rows.div_ceil(s) * s;
        // Keep padding within a constant factor of n; shrink s otherwise.
        if r * s <= 8 * n || s == 1 {
            return (r, s);
        }
        s -= 1;
    }
}

/// Sort an arbitrary slice with columnsort (pads with sentinels, strips them
/// after).
///
/// ```
/// use pbw_algos::columnsort::columnsort;
/// assert_eq!(columnsort(&[5, 3, 9, 1, 4]), vec![1, 3, 4, 5, 9]);
/// ```
pub fn columnsort(xs: &[Word]) -> Vec<Word> {
    if xs.len() <= 1 {
        return xs.to_vec();
    }
    let (r, s) = plan_dims(xs.len());
    let mut data = vec![Word::MAX; r * s];
    data[..xs.len()].copy_from_slice(xs);
    let mut m = Matrix::new(r, s, data);
    m.columnsort_in_place();
    m.data.truncate(xs.len());
    m.data
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_vec(n: usize, seed: u64) -> Vec<Word> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-10_000..10_000)).collect()
    }

    #[test]
    fn transpose_untranspose_roundtrip() {
        let data: Vec<Word> = (0..24).collect();
        let mut m = Matrix::new(6, 4, data.clone());
        m.transpose();
        assert_ne!(m.data, data);
        m.untranspose();
        assert_eq!(m.data, data);
    }

    #[test]
    fn transpose_reshapes_correctly() {
        // 4×2, column-major [0,1,2,3 | 4,5,6,7]. Picking entries up column
        // by column (stream 0..7) and laying them down row by row gives
        // rows (0,1),(2,3),(4,5),(6,7), i.e. column-major
        // [0,2,4,6 | 1,3,5,7].
        let mut m = Matrix::new(4, 2, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        m.transpose();
        assert_eq!(m.data, vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn columnsort_exact_matrix() {
        // r = 8, s = 2: r ≥ 2(s−1)² = 2, s | r. 16 values.
        let vals = random_vec(16, 1);
        let mut m = Matrix::new(8, 2, vals.clone());
        m.columnsort_in_place();
        let mut expect = vals;
        expect.sort_unstable();
        assert_eq!(m.data, expect);
        assert!(m.is_sorted());
    }

    #[test]
    fn columnsort_three_columns() {
        // s = 3 needs r ≥ 8; use r = 9 (s | r).
        let vals = random_vec(27, 2);
        let mut m = Matrix::new(9, 3, vals.clone());
        m.columnsort_in_place();
        let mut expect = vals;
        expect.sort_unstable();
        assert_eq!(m.data, expect);
    }

    #[test]
    #[should_panic(expected = "columnsort needs")]
    fn rejects_invalid_dims() {
        // s = 4 with r = 8 violates r ≥ 2·9 = 18.
        let mut m = Matrix::new(8, 4, vec![0; 32]);
        m.columnsort_in_place();
    }

    #[test]
    fn plan_dims_satisfies_constraints() {
        for n in [1usize, 2, 5, 17, 100, 1000, 12345, 100_000] {
            let (r, s) = plan_dims(n);
            assert!(r * s >= n, "n={n}");
            assert!(r % s == 0, "n={n}: s∤r ({r},{s})");
            if s > 1 {
                assert!(r >= 2 * (s - 1) * (s - 1), "n={n}: r too small ({r},{s})");
            }
            assert!(r * s <= 8 * n.max(2), "n={n}: padding blow-up ({r},{s})");
        }
    }

    #[test]
    fn columnsort_arbitrary_sizes() {
        for n in [1usize, 2, 3, 10, 63, 64, 65, 500, 4097] {
            let vals = random_vec(n, n as u64);
            let got = columnsort(&vals);
            let mut expect = vals;
            expect.sort_unstable();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn columnsort_with_duplicates() {
        let vals: Vec<Word> = (0..200).map(|i| (i % 7) as Word).collect();
        let got = columnsort(&vals);
        let mut expect = vals;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn columnsort_already_sorted_and_reversed() {
        let sorted: Vec<Word> = (0..128).collect();
        assert_eq!(columnsort(&sorted), sorted);
        let reversed: Vec<Word> = (0..128).rev().collect();
        assert_eq!(columnsort(&reversed), sorted);
    }

    #[test]
    fn columnsort_extremes() {
        let vals = vec![Word::MAX, Word::MIN, 0, Word::MAX, Word::MIN];
        let got = columnsort(&vals);
        assert_eq!(got, vec![Word::MIN, Word::MIN, 0, Word::MAX, Word::MAX]);
    }
}
