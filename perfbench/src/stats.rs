//! Exact order statistics over raw samples.
//!
//! Quantiles are nearest-rank over the sorted samples: no buckets, no
//! interpolation, so a reported value is always a value that was
//! measured.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median and p99 of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    /// `None` unless at least ten samples lie beyond the p99.
    pub p99: Option<f64>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50: quantile(&sorted, 0.50),
        p99: (beyond(sorted.len(), 0.99) >= 10).then(|| quantile(&sorted, 0.99)),
    }
}

/// Median of a sample set (nearest rank, so the lower middle for even n).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.91), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert!(summarize(&small).p99.is_none());
        let big: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&big);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, Some(989.0));
    }
}
