//! Process-global metrics registry: counters, gauges, and fixed-bucket
//! latency histograms with deterministic snapshots.
//!
//! The registry supersedes the ad-hoc `static AtomicU64` clusters that
//! previously lived in `fault::Degradation` and alongside the pipeline
//! stage accounting: every long-lived telemetry value now has a name,
//! lives in one place, and exports through one code path.
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
//!   series in `BTreeMap`s, so [`MetricsSnapshot::to_json`] and
//!   [`MetricsSnapshot::to_text`] render in a stable order regardless
//!   of registration order or thread interleaving.
//! * **monotonic registry** — metrics are never unregistered; per-query
//!   deltas are taken with [`MetricsSnapshot::since`] instead of
//!   resetting shared state under concurrent writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::json::{Layout::{Block, Inline}, Writer};
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
    pub const fn new() -> Self {
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
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Create a free-standing gauge.
    pub const fn new() -> Self {
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
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram
/// buckets: a 1–2–5 ladder from 1µs to 10s. Values above the last
/// bound land in a final overflow bucket.
pub const BUCKET_BOUNDS_NANOS: [u64; 22] = [
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
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_NANOS.len() + 1;

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

    /// Record a [`std::time::Duration`] observation.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
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
/// estimation and snapshot subtraction.
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
    /// a snapshot can contain, including one-observation `since`
    /// deltas.
    pub fn quantile(&self, q: f64) -> u64 {
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
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// Bucket-wise difference `self - earlier` (saturating, so a
    /// snapshot pair taken across a registry restart degrades to the
    /// later snapshot instead of wrapping).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(earlier.buckets[i])
            }),
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
pub fn global() -> &'static Registry {
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
    /// The delta accumulated between `earlier` and `self`: counters and
    /// histograms subtract (a series absent from `earlier` keeps its
    /// full value); gauges are last-write-wins, so the current value is
    /// kept as-is.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), v.since(e)),
                    None => (k.clone(), *v),
                })
                .collect(),
        }
    }

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

    /// Render in the Prometheus text exposition format (version 0.0.4)
    /// — the flavour served by `--serve-metrics` at `/metrics`.
    ///
    /// Instrument names are sanitised to `[a-zA-Z0-9_:]` (dots become
    /// underscores) and prefixed `vr_`; histograms expand to the
    /// conventional cumulative `_bucket{le="..."}` series plus `_sum`
    /// and `_count`. BTreeMap iteration keeps the output
    /// deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_f64(*v)));
        }
        for (k, h) in &self.histograms {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                match BUCKET_BOUNDS_NANOS.get(i) {
                    Some(bound) => out.push_str(&format!(
                        "{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
                    )),
                    None => out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
                    )),
                }
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Render as flat `name value` lines (one instrument per line,
    /// sorted) — the text flavour for quick diffing and grepping.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {}\n", fmt_f64(*v)));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {k} count={} mean_nanos={} p50_nanos={} p95_nanos={} p99_nanos={}\n",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        out
    }
}

/// Sanitise a registry name into a legal Prometheus metric name:
/// `vr_` prefix, every character outside `[a-zA-Z0-9_:]` replaced by
/// an underscore.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("vr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
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
        // A since-delta that isolates one observation gets the same
        // exact treatment.
        h.observe(9_000);
        let delta = h.snapshot().since(&s);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.p95(), 9_000);
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
    fn prometheus_export_is_wellformed_and_cumulative() {
        let registry = Registry::new();
        registry.counter("a.count").add(2);
        registry.gauge("b.gauge").set(0.5);
        let h = registry.histogram("stage.kernel.nanos");
        h.observe(1_500);
        h.observe(900);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE vr_a_count counter\nvr_a_count 2\n"));
        assert!(text.contains("# TYPE vr_b_gauge gauge\nvr_b_gauge 0.5\n"));
        assert!(text.contains("# TYPE vr_stage_kernel_nanos histogram\n"));
        // Buckets are cumulative: the 2_000 bound has seen both
        // observations, the 1_000 bound only the 900ns one.
        assert!(text.contains("vr_stage_kernel_nanos_bucket{le=\"1000\"} 1\n"));
        assert!(text.contains("vr_stage_kernel_nanos_bucket{le=\"2000\"} 2\n"));
        assert!(text.contains("vr_stage_kernel_nanos_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("vr_stage_kernel_nanos_sum 2400\n"));
        assert!(text.contains("vr_stage_kernel_nanos_count 2\n"));
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

    #[test]
    fn snapshot_since_subtracts_counters_and_histograms() {
        let registry = Registry::new();
        let c = registry.counter("delta.count");
        let h = registry.histogram("delta.nanos");
        c.add(5);
        h.observe(100);
        let before = registry.snapshot();
        c.add(7);
        h.observe(200);
        h.observe(2_000_000_000);
        let delta = registry.snapshot().since(&before);
        assert_eq!(delta.counters["delta.count"], 7);
        assert_eq!(delta.histograms["delta.nanos"].count, 2);
        // A series born after `before` keeps its full value.
        registry.counter("delta.late").add(3);
        let delta2 = registry.snapshot().since(&before);
        assert_eq!(delta2.counters["delta.late"], 3);
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
    fn text_exporter_renders_all_instrument_kinds() {
        let registry = Registry::new();
        registry.counter("a.count").add(2);
        registry.gauge("b.gauge").set(0.5);
        registry.histogram("c.nanos").observe(1_500);
        let snap = registry.snapshot();
        let text = snap.to_text();
        assert!(text.contains("counter a.count 2"));
        assert!(text.contains("gauge b.gauge 0.5"));
        assert!(text.contains("histogram c.nanos count=1"));
    }
}
