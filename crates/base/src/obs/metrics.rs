//! Process-global metrics registry: counters, gauges, and fixed-bucket
//! latency histograms with deterministic snapshots.
//!
//! Every process-wide telemetry value has a name here and exports
//! through one code path (`--metrics-out`). Per-query accounting is
//! not read back from it: a query's stage record is its execution
//! context's `PipelineMetrics`, which mirrors each record into the
//! `stage.*` series here.
//!
//! Design constraints (DESIGN.md, "observability"):
//!
//! * **std-only** — built from `std::sync::atomic` plus the workspace's
//!   own [`crate::sync::RwLock`]; no registry dependencies.
//! * **lock-free hot path** — [`Counter::add`], [`Gauge::set`] and
//!   [`Histogram::observe`] are single relaxed atomic operations on
//!   handles the caller caches (an `Arc`); the registry map is only
//!   locked on first lookup.
//! * **deterministic snapshots** — [`MetricsSnapshot`] stores its
//!   series in `BTreeMap`s, so [`MetricsSnapshot::to_json`] renders
//!   in a stable order regardless of registration order or thread
//!   interleaving.
//! * **monotonic registry** — metrics are never unregistered or reset
//!   under concurrent writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::json::{self, Layout::{Block, Inline}, Value, Writer};
use crate::sync::RwLock;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Create a free-standing counter (tests; registry use goes through
    /// [`Registry::counter`]).
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Create a free-standing gauge.
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value (CAS
    /// loop). High-water marks — peak allocation bytes per scope — are
    /// max-merged rather than last-write-wins, so concurrent scopes
    /// never lower each other's peak.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

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

    /// Mean observation in nanoseconds (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of instruments. One process-global instance is
/// reachable through [`global`]/[`counter`]/[`gauge`]/[`histogram`];
/// tests build private registries to stay isolated.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry.
pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or register a counter in the global registry. Callers on hot
/// paths should cache the returned handle (e.g. in a `OnceLock`).
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or register a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get or register a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Snapshot the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

// ---------------------------------------------------------------------------
// Snapshots and exporters
// ---------------------------------------------------------------------------

/// A deterministic, immutable copy of a registry's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Render as a single deterministic JSON document: `counters`,
    /// `gauges` and `histograms`, one instrument per line in name
    /// order, a histogram as `{"count": .., "sum_nanos": ..,
    /// "mean_nanos": .., "p50_nanos": .., "p95_nanos": ..,
    /// "p99_nanos": .., "buckets": [..]}`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Block);
        w.key("counters").object(Block);
        for (k, v) in &self.counters {
            w.member(k, *v);
        }
        w.end().key("gauges").object(Block);
        for (k, v) in &self.gauges {
            w.member(k, *v);
        }
        w.end().key("histograms").object(Block);
        for (k, h) in &self.histograms {
            w.key(k).object(Inline).member("count", h.count).member("sum_nanos", h.sum);
            w.member("mean_nanos", h.mean()).member("p50_nanos", h.p50());
            w.member("p95_nanos", h.p95()).member("p99_nanos", h.p99());
            w.key("buckets").array(Inline);
            for b in &h.buckets {
                w.value(*b);
            }
            w.end().end();
        }
        w.end().end();
        w.finish()
    }

}

/// Validate a [`MetricsSnapshot::to_json`] document. `source` names it
/// in diagnostics. The snapshot must parse with a `counters` object,
/// every counter must be a non-negative finite number, and every
/// histogram's bucket counts must sum to its `count`.
pub fn validate(text: &str, source: &str) -> Result<(), String> {
    let at = |msg: String| format!("{source}: {msg}");
    let doc = json::parse(text).map_err(|e| at(format!("invalid JSON: {e}")))?;
    let counters = doc.get("counters").and_then(Value::as_object);
    for (name, value) in counters.ok_or_else(|| at("no \"counters\" object".into()))? {
        let v = value.as_f64().ok_or_else(|| at(format!("counter {name:?} is not a number")))?;
        if !v.is_finite() || v < 0.0 {
            return Err(at(format!("counter {name:?} is negative or non-finite ({v})")));
        }
    }
    let count = |v: &Value| v.as_f64().filter(|c| c.is_finite() && *c >= 0.0);
    for (name, hist) in doc.get("histograms").and_then(Value::as_object).into_iter().flatten() {
        let bad = |what: String| at(format!("histogram {name:?} {what}"));
        let total = hist.get("count").and_then(count);
        let total = total.ok_or_else(|| bad("missing \"count\"".into()))?;
        let buckets = hist.get("buckets").and_then(Value::as_array);
        let buckets = buckets.ok_or_else(|| bad("missing \"buckets\"".into()))?;
        let mut sum = 0.0;
        for (i, b) in buckets.iter().enumerate() {
            sum += count(b).ok_or_else(|| bad(format!("bucket {i} is invalid")))?;
        }
        if sum != total {
            return Err(bad(format!("buckets sum to {sum} but count is {total}")));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_concurrent_increments_from_scoped_threads() {
        let registry = Registry::new();
        let c = registry.counter("test.concurrent");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        // The handle and a fresh lookup observe the same cell.
        assert_eq!(registry.counter("test.concurrent").get(), 40_000);
    }

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

    #[test]
    fn gauge_set_max_keeps_the_high_water_mark() {
        let g = Gauge::new();
        g.set_max(10.0);
        g.set_max(3.0);
        assert_eq!(g.get(), 10.0);
        g.set_max(12.5);
        assert_eq!(g.get(), 12.5);
        // Plain set still overwrites downwards.
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn snapshot_is_deterministic_across_identical_runs_at_four_workers() {
        // Two registries fed by the same 4-thread workload must render
        // byte-identical snapshots regardless of interleaving.
        let run = || {
            let registry = Registry::new();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let c = registry.counter("work.items");
                    let h = registry.histogram("work.nanos");
                    let g = registry.gauge("work.last");
                    scope.spawn(move || {
                        for i in 0..1_000u64 {
                            c.inc();
                            h.observe((t + 1) * 10_000 + i);
                        }
                        g.set(4.0);
                    });
                }
            });
            registry.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    /// Counters only grow: a snapshot taken while four threads still
    /// count and one taken after they finish agree counter by counter
    /// (earlier <= later), and the later one holds every increment.
    #[test]
    fn counters_are_monotonic_across_snapshots_of_a_live_registry() {
        let registry = Registry::new();
        let during = std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = registry.counter(&format!("live.items.{}", t % 2));
                let h = registry.histogram("live.nanos");
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        c.inc();
                        h.observe(t * 1_000 + i);
                    }
                });
            }
            registry.snapshot()
        });
        let after = registry.snapshot();
        assert_counters_monotonic(&during, &after);
        assert_eq!(after.counters.values().sum::<u64>(), 80_000);
        let h = &after.histograms["live.nanos"];
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    fn assert_counters_monotonic(earlier: &MetricsSnapshot, later: &MetricsSnapshot) {
        for (name, &was) in &earlier.counters {
            let now = later.counters.get(name).copied().unwrap_or(0);
            assert!(now >= was, "counter {name} went backwards: {was} -> {now}");
        }
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn a_counter_that_shrinks_fails_the_monotonicity_check() {
        let registry = Registry::new();
        registry.counter("shrinks").add(5);
        let earlier = registry.snapshot();
        let mut later = earlier.clone();
        later.counters.insert("shrinks".to_string(), 4);
        assert_counters_monotonic(&earlier, &later);
    }

    #[test]
    fn validate_reads_what_to_json_wrote() {
        let registry = Registry::new();
        registry.counter("a.count").add(2);
        registry.gauge("b.gauge").set(-0.5);
        let h = registry.histogram("stage.kernel.nanos");
        for nanos in [900, 1_500, 40_000, 7_000_000] {
            h.observe(nanos);
        }
        assert_eq!(validate(&registry.snapshot().to_json(), "m.json"), Ok(()));
        assert_eq!(validate(&Registry::new().snapshot().to_json(), "m.json"), Ok(()));
    }

    /// One rejection for each of `validate`'s two checks.
    #[test]
    fn validate_refuses_each_broken_rule() {
        let refused = |text: &str, why: &str| {
            let err = validate(text, "m.json").unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        };
        refused(
            "{\"counters\": {\"a\": -1}}",
            "m.json: counter \"a\" is negative or non-finite (-1)",
        );
        refused("{\"counters\": {\"a\": \"1\"}}", "m.json: counter \"a\" is not a number");
        refused("{\"gauges\": {}}", "m.json: no \"counters\" object");
        let histogram =
            "{\"counters\": {}, \"histograms\": {\"h\": {\"count\": 3, \"buckets\": [1, 1]}}}";
        refused(histogram, "m.json: histogram \"h\" buckets sum to 2 but count is 3");
    }
}
