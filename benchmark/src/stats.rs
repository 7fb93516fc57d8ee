//! Order statistics for latency samples and for the spread of repeated
//! runs.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// The 99th percentile, or `None` when fewer than ten samples lie beyond
/// it (fewer than 1,000 samples): a p99 of a smaller sample is one or
/// two outliers, not a percentile.
pub fn p99(sorted: &[f64]) -> Option<f64> {
    (sorted.len() >= 1_000).then(|| percentile(sorted, 0.99))
}

/// The highest percentile, up to the 99th, that still has ten samples
/// beyond it, with the percentile used. A sample of fewer than twenty
/// falls back to its median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let q = if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    };
    (q, percentile(sorted, q))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median_of(values: Vec<f64>) -> f64 {
    median(&sorted(values))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver's spread check
/// uses: the spread of a metric is `(q3 - q1) / q2`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let m = data.len();
    assert!(m >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median_of(vec![9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&short), None);
        let enough: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(p99(&enough), Some(990.0));
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(enough.iter().filter(|&&x| x > 990.0).count(), 10);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, v) = tail(&hundred);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0);
        let big: Vec<f64> = (1..=5_000).map(f64::from).collect();
        assert_eq!(tail(&big), (0.99, 4_950.0));
        let tiny: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&tiny), (0.5, 5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
    }
}
