//! Order statistics for benchmark samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(values,
//! n=4)` (the "exclusive" method), because that is what the driver that
//! judges this benchmark computes; tail percentiles use nearest rank, so a
//! reported p95 is always a latency some request really saw.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Sample count the three figures rest on.
    pub n: usize,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the driver bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `p` (0..1) of an ascending sample at position `p·(n+1)`,
/// clamped to the sample's range — `statistics.quantiles`' exclusive rule.
fn exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n.max(2) - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    let (a, b) = (sorted[lo - 1], sorted[lo.min(n - 1)]);
    a + (b - a) * frac
}

/// Quartiles of a sample; `None` when it is empty. One sample is its own
/// three quartiles.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        1 => Some(Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n: 1,
        }),
        n => Some(Quartiles {
            q1: exclusive(&v, 0.25),
            median: exclusive(&v, 0.5),
            q3: exclusive(&v, 0.75),
            n,
        }),
    }
}

/// Median of a sample (0 when empty, so a missing layer prints as 0).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.median)
}

/// Nearest-rank percentile `q` (0..1): the smallest sample with at least
/// `q·n` samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Whether a sample of `n` supports reporting percentile `q`: at least ten
/// samples must lie beyond it (choosing-metrics §1).
pub fn tail_supported(n: usize, q: f64) -> bool {
    // A small epsilon keeps 200 × (1 − 0.95) from rounding down to 9.99….
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

/// The highest of p50/p90/p95/p99 a sample of `n` supports.
pub fn highest_tail(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| tail_supported(n, q))
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive rule extrapolates; we clamp to the sample instead.
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(quartiles(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.spread()), (7.0, 7.0, 7.0, 0.0));
        assert_eq!(percentile(&[], 0.95), None);
        assert_eq!(percentile(&[4.0], 0.95), Some(4.0));
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartiles(&v).unwrap().spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles_are_real_samples() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&v, 1.0), Some(200.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
        assert_eq!(highest_tail(50), 0.5);
        assert_eq!(highest_tail(100), 0.90);
        assert_eq!(highest_tail(220), 0.95);
        assert_eq!(highest_tail(1500), 0.99);
    }
}
