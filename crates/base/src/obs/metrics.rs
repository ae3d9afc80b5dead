//! Fixed-bucket latency histograms with deterministic snapshots.
//!
//! A [`Histogram`] is the latency record of one pipeline stage: each
//! execution context's `PipelineMetrics` keeps one per stage, and the
//! report, EXPLAIN ANALYZE and `calibrate` read its
//! [`HistogramSnapshot`]. A stage's figures belong to the context
//! that ran it.
//!
//! Design constraints (DESIGN.md, "observability"):
//!
//! * **std-only** — built from `std::sync::atomic`; no registry
//!   dependencies.
//! * **lock-free hot path** — [`Histogram::observe`] is three relaxed
//!   atomic adds and never allocates.
//! * **deterministic snapshots** — fixed bucket bounds, so snapshots
//!   from different contexts, runs and processes compare directly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram
/// buckets: a 1–2–5 ladder from 1µs to 10s. Values above the last
/// bound land in a final overflow bucket.
pub(crate) const BUCKET_BOUNDS_NANOS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Number of buckets including the trailing overflow bucket.
pub(crate) const BUCKET_COUNT: usize = BUCKET_BOUNDS_NANOS.len() + 1;

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_NANOS`].
///
/// Fixed bounds keep `observe` allocation-free and make snapshots from
/// different processes/runs directly comparable — the same property
/// Prometheus client libraries rely on.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create a free-standing histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation of `nanos`.
    pub fn observe(&self, nanos: u64) {
        let idx = BUCKET_BOUNDS_NANOS.partition_point(|&bound| bound < nanos);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state; supports quantile
/// estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (nanoseconds).
    pub sum: u64,
    /// Per-bucket observation counts (last entry is the overflow
    /// bucket).
    pub buckets: [u64; BUCKET_COUNT],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { count: 0, sum: 0, buckets: [0; BUCKET_COUNT] }
    }
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of
    /// the bucket containing the target rank. Overflow-bucket hits
    /// report twice the last finite bound.
    ///
    /// Degenerate histograms get exact answers instead of bucket
    /// estimates: an empty histogram reports 0, and a single-sample
    /// histogram reports the sample itself (recoverable as `sum` when
    /// `count == 1`) — so p50/p95/p99 are defined for every histogram
    /// a snapshot can contain.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 {
            return self.sum;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return BUCKET_BOUNDS_NANOS
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1] * 2);
            }
        }
        BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1] * 2
    }

    /// Median estimate (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new();
        // Exactly on a bound lands in that bound's bucket.
        h.observe(1_000);
        // One over a bound lands in the next bucket.
        h.observe(1_001);
        // Below the first bound lands in bucket 0.
        h.observe(1);
        // Above the last bound lands in the overflow bucket.
        h.observe(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1] + 1);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 2); // 1 and 1_000
        assert_eq!(s.buckets[1], 1); // 1_001 -> (1_000, 2_000]
        assert_eq!(s.buckets[BUCKET_COUNT - 1], 1); // overflow
    }

    #[test]
    fn histogram_quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(500); // bucket 0, bound 1_000
        }
        h.observe(3_000_000); // bucket bound 5_000_000
        let s = h.snapshot();
        assert_eq!(s.p50(), 1_000);
        assert_eq!(s.p95(), 1_000);
        assert_eq!(s.quantile(1.0), 5_000_000);
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn quantiles_on_empty_and_single_sample_histograms_are_defined() {
        // Empty: every quantile is 0.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p95(), 0);
        assert_eq!(empty.p99(), 0);
        // Single sample: every quantile is the sample itself, not the
        // containing bucket's upper bound.
        let h = Histogram::new();
        h.observe(1_500);
        let s = h.snapshot();
        assert_eq!(s.p50(), 1_500);
        assert_eq!(s.p95(), 1_500);
        assert_eq!(s.p99(), 1_500);
        assert_eq!(s.quantile(0.0), 1_500);
        assert_eq!(s.quantile(1.0), 1_500);
    }

    /// Pipelined stages observe one context's histograms from several
    /// threads: two histograms fed by the same 4-thread workload hold
    /// the same snapshot whatever the interleaving.
    #[test]
    fn snapshot_is_deterministic_across_identical_runs_at_four_workers() {
        let run = || {
            let h = Histogram::new();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let h = &h;
                    scope.spawn(move || {
                        for i in 0..1_000u64 {
                            h.observe((t + 1) * 10_000 + i);
                        }
                    });
                }
            });
            h.snapshot()
        };
        let s = run();
        assert_eq!(s, run());
        assert_eq!(s.count, 4_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }
}
