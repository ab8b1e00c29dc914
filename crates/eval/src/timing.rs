//! Wall-clock measurement helpers for the experiment harness.

use std::time::Instant;

/// Summary of a set of per-query timings, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingSummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (p50).
    pub median_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// Maximum.
    pub max_ms: f64,
    /// Number of samples.
    pub samples: usize,
}

impl TimingSummary {
    /// Summarizes raw millisecond samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        Self {
            mean_ms: mean,
            median_ms: percentile(&samples, 0.50),
            p95_ms: percentile(&samples, 0.95),
            max_ms: samples[n - 1],
            samples: n,
        }
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times one closure invocation, returning `(result, elapsed_ms)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// Runs `f` once per item, collecting per-item wall-clock milliseconds.
pub fn time_each<I, T>(items: &[I], mut f: impl FnMut(&I) -> T) -> (Vec<T>, Vec<f64>) {
    let mut outs = Vec::with_capacity(items.len());
    let mut times = Vec::with_capacity(items.len());
    for item in items {
        let (out, ms) = time_once(|| f(item));
        outs.push(out);
        times.push(ms);
    }
    (outs, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = TimingSummary::from_samples(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.samples, 4);
        assert!((s.mean_ms - 2.5).abs() < 1e-12);
        assert_eq!(s.median_ms, 2.0);
        assert_eq!(s.max_ms, 4.0);
        assert_eq!(s.p95_ms, 4.0);
    }

    #[test]
    fn empty_samples() {
        assert_eq!(
            TimingSummary::from_samples(vec![]),
            TimingSummary::default()
        );
    }

    #[test]
    fn single_sample() {
        let s = TimingSummary::from_samples(vec![7.5]);
        assert_eq!(s.median_ms, 7.5);
        assert_eq!(s.p95_ms, 7.5);
    }

    #[test]
    fn time_once_returns_value_and_positive_time() {
        let (v, ms) = time_once(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_each_preserves_order() {
        let items = vec![1, 2, 3];
        let (outs, times) = time_each(&items, |&i| i * 10);
        assert_eq!(outs, vec![10, 20, 30]);
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
    }
}
