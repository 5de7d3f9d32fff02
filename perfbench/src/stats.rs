//! Percentiles of per-op wall times.
//!
//! A percentile is reported only when at least [`MIN_ABOVE`] samples lie
//! above its rank: with fewer, one slow op moves it, and it says more
//! about the run's length than about the program.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_ABOVE: usize = 10;

/// Nearest-rank index (0-based) of the `q`-th quantile, `0 < q <= 1`, in
/// a sorted sample of `n > 0` values: the smallest index `i` such that at
/// least `q·n` samples are `<= sorted[i]`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    // The epsilon keeps q·n that is an exact integer in real arithmetic
    // (0.9·20 = 18.000000000000004 in f64) from rounding up a rank.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above the `q`-th quantile's rank.
pub fn samples_above(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The `q`-th quantile of `sorted` (ascending), or `None` when fewer than
/// [`MIN_ABOVE`] samples lie above its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || samples_above(sorted.len(), q) < MIN_ABOVE {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of an unsorted sample by the same nearest-rank rule, without the
/// samples-above requirement (for small sets such as repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 0.5)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_indices() {
        assert_eq!(rank(1, 0.5), 0);
        assert_eq!(rank(2, 0.5), 0);
        assert_eq!(rank(3, 0.5), 1);
        assert_eq!(rank(10, 0.9), 8);
        assert_eq!(rank(20, 0.9), 17);
        assert_eq!(rank(100, 0.9), 89);
        assert_eq!(rank(100, 1.0), 99);
        assert_eq!(rank(7, 0.01), 0);
    }

    #[test]
    fn median_needs_ten_samples_above() {
        // n = 20: rank 9, ten samples above -> reported.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // n = 19: rank 9, nine above -> refused.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(samples_above(19, 0.5), 9);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_above(100, 0.9), 10);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(samples_above(99, 0.9), 9);
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(40), 0.9), None);
    }

    #[test]
    fn empty_and_unsorted_inputs() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
