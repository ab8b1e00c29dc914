//! Order statistics the harness reports: nearest-rank percentiles for
//! latency samples, and the median / quartiles used to summarise repeated
//! runs and closed-loop windows.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of the sample at or below it. `p` in `(0, 1]`.
/// Returns `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place (samples are never NaN: they come
/// from `Instant` differences and counters).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Median with the midpoint convention (mean of the two central samples
/// for an even count). Returns `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the *exclusive* method
/// (`statistics.quantiles(values, n=4)` in Python, which the benchmark
/// driver uses): position `i * (n + 1) / 4`, linearly interpolated and
/// clamped to the sample range. Needs at least two samples; a single
/// sample is returned three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark contract bounds. `0.0` when the median is zero.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // Five samples: p50 is the 3rd, p95 and p99 the 5th.
        let s = [1.0, 2.0, 3.0, 4.0, 50.0];
        assert_eq!(percentile(&s, 0.50), 3.0);
        assert_eq!(percentile(&s, 0.95), 50.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
    }
}
