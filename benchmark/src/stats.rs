//! Order statistics for benchmark samples: medians, quartiles, and the
//! rule that decides which percentile a sample is large enough to report.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the percentile is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Five-number summary plus the sample count — what every timing in a
/// result record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Self {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile range as a share of the median — the dispersion the
    /// acceptance rule of the benchmark contract is stated in.
    #[must_use]
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `values` in ascending order (NaN-free by construction: every sample is
/// a clock difference or a count).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median of `values`.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(&sorted(values)).1
}

/// First quartile, median and third quartile of an ascending slice, by
/// the exclusive method of Python's `statistics.quantiles(values, n=4)`
/// (the method the acceptance rule is computed with). A single sample is
/// its own quartiles.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the sample, as the exclusive method does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice:
/// the smallest sample with at least `p` percent of the sample at or
/// below it.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether a sample of `n` supports reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples must lie strictly beyond its rank.
#[must_use]
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Relative difference of `b` from `a`, as a share of `a`.
#[must_use]
pub fn relative_difference(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 3.0, 4.5));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]: the
        // exclusive method extrapolates on tiny samples.
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        // p50 needs 20 samples, p99 needs 1000.
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(!supports_percentile(0, 50.0));
        // The paced workload's 140 queries carry p90 (14 beyond), not p99.
        assert!(supports_percentile(140, 90.0));
        assert!(!supports_percentile(140, 99.0));
    }

    #[test]
    fn summary_carries_the_five_numbers_and_the_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.iqr_share(), 1.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_difference_is_a_share_of_the_first() {
        assert_eq!(relative_difference(100.0, 95.0), 0.05);
        assert_eq!(relative_difference(100.0, 105.0), 0.05);
    }
}
