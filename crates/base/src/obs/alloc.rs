//! Counting [`GlobalAlloc`] wrapper with per-thread scoped accounting.
//!
//! The second observability layer needs a memory story: EXPLAIN
//! ANALYZE annotates every plan node with allocation counts, bytes,
//! and a peak (high-water) figure, and those numbers have to come from
//! the allocator itself — not from guesses about buffer sizes. This
//! module wraps [`std::alloc::System`] in a counting shim and installs
//! it as the global allocator (under the `obs` feature, like the rest
//! of the telemetry surface).
//!
//! Cost model, mirroring `obs::trace`:
//!
//! * **feature off** — the wrapper is not installed; allocation goes
//!   straight to `System`.
//! * **tracking off (the default)** — exactly one relaxed atomic add
//!   per allocation (the process-total counter). No thread-local
//!   access, no branch beyond the flag load.
//! * **tracking on** (`VR_ALLOC_TRACK=1` or [`set_tracking`]) —
//!   additionally maintains per-thread counters (allocations, bytes,
//!   live bytes, peak live bytes) in const-initialised `Cell`s, which
//!   [`ScopeGuard`] brackets into per-scope deltas. The accounting
//!   path allocates nothing itself, so it cannot recurse.
//!
//! Scopes nest: a guard saves the thread's running peak on entry,
//! re-bases it at the current live size, and max-merges it back on
//! exit, so an inner scope's high-water mark is charged to every
//! enclosing scope as well. All accounting is per-thread; a scope
//! only observes allocations made by the thread it lives on — which
//! is exactly the pipeline's situation, where each stage's measured
//! region runs on one thread at a time.
//!
//! Like every other obs path, the numbers here are telemetry only:
//! nothing downstream of a query reads them, so enabling tracking
//! cannot perturb results (`tests/cli.rs` pins this).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Process-wide allocation count (updated on every `alloc`, tracking
/// on or off — the "one relaxed atomic" of the disabled path).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Runtime gate for the per-thread accounting below.
static TRACK: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Allocations made by this thread since it started.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by this thread's allocations.
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Live (allocated minus freed) bytes attributed to this thread.
    static TL_CURRENT: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of `TL_CURRENT` since the innermost open scope
    /// re-based it (or since thread start).
    static TL_PEAK: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator. Installed as `#[global_allocator]` when the
/// `obs` feature is on; constructible standalone for tests.
pub struct CountingAlloc;

#[cfg(feature = "obs")]
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Whether per-thread accounting is live. Compile-time `false` without
/// the `obs` feature.
#[inline]
pub fn tracking_enabled() -> bool {
    cfg!(feature = "obs") && TRACK.load(Ordering::Relaxed)
}

/// Turn per-thread accounting on or off. A no-op without the `obs`
/// feature.
pub fn set_tracking(on: bool) {
    if cfg!(feature = "obs") {
        TRACK.store(on, Ordering::Relaxed);
    }
}

/// Enable tracking if the `VR_ALLOC_TRACK` environment variable is set
/// to anything other than `0` or the empty string.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("VR_ALLOC_TRACK") {
        if !v.is_empty() && v != "0" {
            set_tracking(true);
        }
    }
}

/// Process-wide allocation count since start.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

#[inline]
fn note_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    if tracking_enabled() {
        let size = size as u64;
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        TL_BYTES.with(|c| c.set(c.get() + size));
        let live = TL_CURRENT.with(|c| {
            let v = c.get() + size;
            c.set(v);
            v
        });
        TL_PEAK.with(|c| {
            if live > c.get() {
                c.set(live);
            }
        });
    }
}

#[inline]
fn note_dealloc(size: usize) {
    if tracking_enabled() {
        TL_CURRENT.with(|c| c.set(c.get().saturating_sub(size as u64)));
    }
}

// SAFETY: every method delegates the actual allocation to `System`
// unchanged; the bookkeeping around it touches only atomics and
// const-initialised (destructor-free) thread-local `Cell`s, and never
// allocates, so it cannot recurse into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounted as a fresh allocation of the new size replacing
            // the old block, so live-byte tracking stays balanced.
            note_alloc(new_size);
            note_dealloc(layout.size());
        }
        p
    }
}

/// Allocation activity observed by one [`ScopeGuard`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations made on the scope's thread while it was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// High-water mark of live bytes *above the scope's entry level* —
    /// the scope's own contribution to peak memory.
    pub peak_bytes: u64,
}

impl AllocDelta {
    /// Merge another delta into this one: counts add, peaks take the
    /// max (two sequential scopes cannot be live at once).
    pub fn merge(&mut self, other: &AllocDelta) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }
}

/// RAII bracket over a region of thread-local allocation accounting.
/// Construct with [`ScopeGuard::begin`], read the delta with
/// [`ScopeGuard::finish`]. Inert (all-zero delta) when tracking is
/// off.
#[must_use = "a scope guard measures the region it is alive for"]
pub struct ScopeGuard {
    active: bool,
    start_allocs: u64,
    start_bytes: u64,
    entry_current: u64,
    saved_peak: u64,
}

impl ScopeGuard {
    /// Open a scope on the current thread.
    #[inline]
    pub fn begin() -> Self {
        if !tracking_enabled() {
            return Self {
                active: false,
                start_allocs: 0,
                start_bytes: 0,
                entry_current: 0,
                saved_peak: 0,
            };
        }
        let entry_current = TL_CURRENT.with(Cell::get);
        let saved_peak = TL_PEAK.with(|c| {
            let saved = c.get();
            // Re-base the running peak at the entry level so the scope
            // measures only its own high-water contribution.
            c.set(entry_current);
            saved
        });
        Self {
            active: true,
            start_allocs: TL_ALLOCS.with(Cell::get),
            start_bytes: TL_BYTES.with(Cell::get),
            entry_current,
            saved_peak,
        }
    }

    /// Close the scope and return what it observed.
    pub fn finish(mut self) -> AllocDelta {
        self.close()
    }

    fn close(&mut self) -> AllocDelta {
        if !self.active {
            return AllocDelta::default();
        }
        self.active = false;
        let peak = TL_PEAK.with(Cell::get);
        // Propagate the scope's peak outward: the enclosing scope's
        // high-water mark must not be lowered by this re-basing.
        TL_PEAK.with(|c| c.set(self.saved_peak.max(peak)));
        AllocDelta {
            allocs: TL_ALLOCS.with(Cell::get).saturating_sub(self.start_allocs),
            bytes: TL_BYTES.with(Cell::get).saturating_sub(self.start_bytes),
            peak_bytes: peak.saturating_sub(self.entry_current),
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        // Restore the enclosing scope's peak even when the delta is
        // never read (early return, panic unwind).
        self.close();
    }
}

/// Run `f` under a scope and return its result with the delta.
#[inline]
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    let guard = ScopeGuard::begin();
    let value = f();
    (value, guard.finish())
}

/// Record a scope's delta into the global registry under
/// `alloc.<scope>.allocs` / `alloc.<scope>.bytes` (counters) and
/// `alloc.<scope>.peak_bytes` (max-merged gauge). Call sites on hot
/// paths should cache handles instead; this is for once-per-instance
/// call sites like the VCD scheduler.
pub fn record_scope(scope: &str, delta: &AllocDelta) {
    if delta.allocs == 0 && delta.bytes == 0 && delta.peak_bytes == 0 {
        return;
    }
    let registry = super::metrics::global();
    registry.counter(&format!("alloc.{scope}.allocs")).add(delta.allocs);
    registry.counter(&format!("alloc.{scope}.bytes")).add(delta.bytes);
    registry.gauge(&format!("alloc.{scope}.peak_bytes")).set_max(delta.peak_bytes as f64);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    /// Tracking is process-global; tests that flip it on serialise.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_tracking<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock();
        set_tracking(true);
        let result = f();
        set_tracking(false);
        result
    }

    #[test]
    fn total_alloc_counter_advances() {
        let before = total_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        drop(v);
        // Other test threads may allocate concurrently, so only the
        // direction is asserted.
        assert!(total_allocs() > before, "allocation did not tick the process counter");
    }

    #[test]
    fn scope_observes_allocations_and_peak() {
        with_tracking(|| {
            let (_, delta) = measure(|| {
                let a: Vec<u8> = Vec::with_capacity(64 * 1024);
                drop(a);
                let b: Vec<u8> = Vec::with_capacity(16 * 1024);
                b
            });
            assert!(delta.allocs >= 2, "expected both Vec allocations, saw {}", delta.allocs);
            assert!(delta.bytes >= 80 * 1024, "expected >= 80 KiB, saw {}", delta.bytes);
            // The 64 KiB buffer was freed before the 16 KiB one was
            // made, so the scope's high water is the larger buffer.
            assert!(delta.peak_bytes >= 64 * 1024);
            assert!(delta.peak_bytes < 96 * 1024);
        });
    }

    #[test]
    fn nested_scopes_charge_inner_peaks_to_outer_scopes() {
        with_tracking(|| {
            let (inner_delta, outer_delta) = {
                let outer = ScopeGuard::begin();
                let (_, inner_delta) = measure(|| {
                    let big: Vec<u8> = Vec::with_capacity(128 * 1024);
                    drop(big);
                });
                (inner_delta, outer.finish())
            };
            assert!(inner_delta.peak_bytes >= 128 * 1024);
            // The outer scope saw the same high water even though the
            // buffer was gone before the inner scope closed.
            assert!(outer_delta.peak_bytes >= inner_delta.peak_bytes);
            assert!(outer_delta.allocs >= inner_delta.allocs);
        });
    }

    #[test]
    fn identical_workloads_report_identical_alloc_counts() {
        // The allocator-accounting determinism contract: the same
        // workload on the same thread reports the same counts. (The
        // VR_WORKERS=1 pipeline variant lives in vr-vdbms.)
        with_tracking(|| {
            let workload = || {
                measure(|| {
                    let mut v: Vec<Vec<u8>> = Vec::new();
                    for i in 0..50 {
                        v.push(vec![0u8; 256 + i]);
                    }
                    v.iter().map(|b| b.len() as u64).sum::<u64>()
                })
            };
            let (sum_a, delta_a) = workload();
            let (sum_b, delta_b) = workload();
            assert_eq!(sum_a, sum_b);
            assert_eq!(delta_a, delta_b);
        });
    }

    #[test]
    fn disabled_tracking_reports_zero_deltas() {
        let _guard = TEST_LOCK.lock();
        set_tracking(false);
        let (_, delta) = measure(|| vec![0u8; 4096]);
        assert_eq!(delta, AllocDelta::default());
    }
}
