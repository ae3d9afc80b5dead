//! Std-only concurrency primitives: what `std` does not already
//! provide.
//!
//! The workspace builds with zero registry dependencies (DESIGN.md,
//! "std-only substitution"). Bounded channels are
//! `std::sync::mpsc::sync_channel`; this module adds —
//!
//! * [`Mutex`] / [`RwLock`] / [`Condvar`] wrappers over `std::sync`
//!   that return guards directly instead of a poison `Result` (a
//!   poisoned lock means a panicked holder; propagating the panic is
//!   the only sane response in this codebase),
//! * [`run_jobs`], the one indexed worker pool: the generator's camera
//!   and panorama jobs, the VCD's query instances and GOP-parallel
//!   decode all fan out through it,
//! * [`panic_message`] and [`stage_panic`], the one place a caught
//!   panic becomes an [`Error::StagePanic`],
//! * the worker budget and a cooperative [`CancelToken`].

use crate::{fault, Error, Result};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Lock wrappers
// ---------------------------------------------------------------------------

/// A mutex whose `lock()` returns the guard directly.
///
/// Poisoning (a holder panicked) is converted into a panic here: the
/// protected data may be mid-update and no caller in this workspace
/// can recover meaningfully.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("vr_base::sync::Mutex poisoned: a holder panicked")
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards
/// directly (see [`Mutex`] for the poisoning policy).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().expect("vr_base::sync::RwLock poisoned: a holder panicked")
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().expect("vr_base::sync::RwLock poisoned: a holder panicked")
    }
}

/// A condition variable paired with [`Mutex`] guards.
#[derive(Debug, Default)]
pub(crate) struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub(crate) const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Atomically release the guard and wait for a notification, but
    /// give up after `dur`; the returned flag reports whether the wait
    /// timed out.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: std::sync::MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (std::sync::MutexGuard<'a, T>, bool) {
        let (guard, res) = self
            .0
            .wait_timeout(guard, dur)
            .expect("vr_base::sync::Condvar: mutex poisoned");
        (guard, res.timed_out())
    }

    /// Wake every waiter.
    pub(crate) fn notify_all(&self) {
        self.0.notify_all()
    }
}

// ---------------------------------------------------------------------------
// Indexed job runner
// ---------------------------------------------------------------------------

/// Run `job(i)` for every `i < n` on up to `workers` threads and return
/// the results in index order, whatever order the jobs finished in.
///
/// Each worker takes the next index from one shared counter, so a slow
/// job never leaves a worker idle behind it. The calling thread is one
/// of the workers, so with one worker (or one job) nothing is spawned;
/// and the memory its jobs free stays with the thread that goes on to
/// use the results, where a spawned thread's would sit resident and
/// unused once it exits. A panicking job becomes [`stage_panic`]'s
/// error, named `name(i): payload`. Workers stop taking jobs once they
/// see a failure; since indices are handed out in order, every job
/// below a failed one has still run, so the error returned is the
/// lowest-index job's — the one a sequential run stops at.
pub fn run_jobs<T: Send + Sync>(
    n: usize,
    workers: usize,
    name: impl Fn(usize) -> String + Sync,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<OnceLock<Result<T>>> = (0..n).map(|_| OnceLock::new()).collect();
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| job(i)))
                .unwrap_or_else(|p| Err(stage_panic(format!("{}: {}", name(i), panic_message(p)))));
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            // Each index is taken by exactly one worker.
            let _ = slots[i].set(result);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(n) {
            s.spawn(worker);
        }
        worker();
    });
    // Slots are filled up to at least the lowest failure, so reading in
    // order meets that error before any job that never started.
    slots.into_iter().map_while(OnceLock::into_inner).collect()
}

/// Best-effort text from a caught panic's payload.
pub fn panic_message(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A panic contained at a stage boundary, as a typed error: counts it
/// in fault accounting and wraps `message` (usually
/// [`panic_message`]'s) in [`Error::StagePanic`].
pub fn stage_panic(message: String) -> Error {
    fault::note_stage_panic();
    Error::StagePanic(message)
}

// ---------------------------------------------------------------------------
// Worker budget
// ---------------------------------------------------------------------------

/// Default number of workers for parallel execution.
///
/// Resolved once per process: `VR_WORKERS` (a positive integer) wins;
/// otherwise `std::thread::available_parallelism()`. `VR_WORKERS=1`
/// forces the sequential code paths everywhere for debugging. Callers
/// that need a race-free per-run override (tests, benches) should set
/// the worker count on their execution context instead of mutating
/// the environment.
pub fn worker_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Ok(raw) = std::env::var("VR_WORKERS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// The machine's actual parallelism, independent of `VR_WORKERS`: the
/// ceiling above which extra compute threads only add spawn and
/// scheduling overhead. Data-parallel fan-outs clamp to it so a
/// hand-tuned `workers=4` never oversubscribes a smaller host (the
/// classic single-core case where 4-way eager decode *lost* to the
/// sequential path).
pub fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation token: cheap to clone, checked by the
/// pipeline once per frame. Cancellation fires either explicitly (via
/// [`cancel`](CancelToken::cancel)) or implicitly once an optional
/// deadline passes — the benchmark driver hands each query instance a
/// deadline-bearing token so a straggler can be cut off and reported
/// as a degraded row instead of blocking the batch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<std::time::Instant>,
}

impl CancelToken {
    /// A token that never cancels unless [`cancel`](CancelToken::cancel)
    /// is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: std::time::Instant) -> Self {
        Self { flag: Arc::default(), deadline: Some(deadline) }
    }

    /// Request cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => {
                // Latch, so clones without a clock check agree and the
                // (cheap) flag path answers subsequent calls.
                self.flag.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Run `f` on its own thread and fail the test if it has not
    /// returned within `limit` (a worker left blocked).
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(limit).expect("finished within the time limit")
    }

    #[test]
    fn jobs_fill_slots_in_order_and_fail_at_the_lowest_index() {
        for workers in [1, 2, 3, 8] {
            let squares = run_jobs(7, workers, |i| format!("job {i}"), |i| Ok(i * i)).unwrap();
            assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36]);
            assert!(run_jobs(0, workers, |_| String::new(), Ok).unwrap().is_empty());
            // Job 2 panics, job 5 errors: the lowest index wins, named.
            let err = within(Duration::from_secs(30), move || {
                run_jobs(
                    8,
                    workers,
                    |i| format!("job {i}"),
                    |i| match i {
                        2 => panic!("boom"),
                        5 => Err(Error::InvalidConfig("five".into())),
                        _ => Ok(i),
                    },
                )
                .unwrap_err()
            });
            assert!(
                matches!(&err, Error::StagePanic(m) if m == "job 2: boom"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn cancel_token_fires_on_request_and_deadline() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.cancelled());
        clone.cancel();
        assert!(t.cancelled(), "clones share the flag");

        let t = CancelToken::with_deadline(Instant::now() + Duration::from_millis(25));
        assert!(!t.cancelled());
        std::thread::sleep(Duration::from_millis(30));
        assert!(t.cancelled(), "deadline passed");
        assert!(t.cancelled(), "cancellation latches");
    }

    #[test]
    fn worker_budget_is_at_least_one() {
        assert!(worker_budget() >= 1);
        // Cached: repeated calls agree.
        assert_eq!(worker_budget(), worker_budget());
    }

    #[test]
    fn mutex_and_rwlock_guard_directly() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(*rw.read(), vec![1, 2, 3]);
    }
}
