//! Order statistics over the benchmark's samples.

/// The `p`-th percentile (0–100) of `sorted`, nearest-rank: the
/// smallest sample with at least `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place (total order; the benchmark never records
/// a NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&ten, 99.0), 10.0);
        assert_eq!(percentile_sorted(&ten, 50.0), 5.0);
    }

    #[test]
    fn sort_orders_ascending() {
        let mut samples = [2.5, -1.0, 9.0, 0.0];
        sort(&mut samples);
        assert_eq!(samples, [-1.0, 0.0, 2.5, 9.0]);
    }
}
