//! Std-only concurrency primitives.
//!
//! The workspace builds with zero registry dependencies (DESIGN.md,
//! "std-only substitution"): this module supplies the small slice of
//! `crossbeam` and `parking_lot` the repository actually used —
//!
//! * a bounded MPMC [`channel`] with blocking send/recv and
//!   disconnect-on-drop semantics (the storage pipe's backpressure
//!   mechanism),
//! * [`Mutex`] / [`RwLock`] / [`Condvar`] wrappers over `std::sync`
//!   that return guards directly instead of a poison `Result` (a
//!   poisoned lock means a panicked holder; propagating the panic is
//!   the only sane response in this codebase),
//! * a [`parallel_chunks`] helper for the batch engine's
//!   data-parallel frame maps.
//!
//! Everything here is built from `std::sync` + `std::thread` only.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("vr_base::sync::Mutex poisoned: a holder panicked")
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().expect("vr_base::sync::Mutex poisoned: a holder panicked")
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

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
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

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().expect("vr_base::sync::RwLock poisoned: a holder panicked")
    }
}

/// A condition variable paired with [`Mutex`] guards.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Atomically release the guard and wait for a notification.
    pub fn wait<'a, T>(
        &self,
        guard: std::sync::MutexGuard<'a, T>,
    ) -> std::sync::MutexGuard<'a, T> {
        self.0.wait(guard).expect("vr_base::sync::Condvar: mutex poisoned")
    }

    /// Like [`wait`](Condvar::wait), but give up after `dur`; the
    /// returned flag reports whether the wait timed out.
    pub fn wait_timeout<'a, T>(
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

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one()
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all()
    }
}

// ---------------------------------------------------------------------------
// Bounded MPMC channel
// ---------------------------------------------------------------------------

/// Error returned by [`Sender::send`] when every receiver has been
/// dropped; carries the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is full; carries the unsent value back.
    Full(T),
    /// Every receiver has been dropped; carries the unsent value back.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender has been dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is ready, but senders are still alive.
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout; senders are still alive.
    Timeout,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    /// Signals receivers: an item arrived or the last sender left.
    readable: Condvar,
    /// Signals senders: a slot opened or the last receiver left.
    writable: Condvar,
}

/// The sending half of a bounded channel; cloneable (MPMC).
pub struct Sender<T>(Arc<Channel<T>>);

/// The receiving half of a bounded channel; cloneable (MPMC).
pub struct Receiver<T>(Arc<Channel<T>>);

/// Create a bounded MPMC channel with room for `capacity` in-flight
/// messages (`capacity >= 1`). `send` blocks while the queue is full;
/// `recv` blocks while it is empty. Dropping the last sender
/// disconnects receivers once the queue drains; dropping the last
/// receiver makes further sends fail immediately.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            senders: 1,
            receivers: 1,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

impl<T> Sender<T> {
    /// Block until the value is enqueued, or fail with the value if
    /// every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.state.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < st.capacity {
                st.queue.push_back(value);
                drop(st);
                self.0.readable.notify_one();
                return Ok(());
            }
            st = self.0.writable.wait(st);
        }
    }

    /// Non-blocking send: enqueue if a slot is free, otherwise report
    /// [`TrySendError::Full`] without waiting. Callers that fall back
    /// to the blocking [`send`](Sender::send) can time that wait —
    /// which is exactly how the pipeline's contention counter works.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.state.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() < st.capacity {
            st.queue.push_back(value);
            drop(st);
            self.0.readable.notify_one();
            Ok(())
        } else {
            Err(TrySendError::Full(value))
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Self(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake blocked receivers so they observe the disconnect.
            self.0.readable.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives, or fail once the channel is
    /// empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.writable.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.0.readable.wait(st);
        }
    }

    /// Block until a message arrives, the senders disconnect, or
    /// `timeout` elapses — the pipeline's stage watchdogs use this to
    /// turn a stalled upstream stage into a typed error instead of an
    /// unbounded hang.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.0.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.writable.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timed_out) = self.0.readable.wait_timeout(st, deadline - now);
            st = guard;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.state.lock();
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            self.0.writable.notify_one();
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().receivers += 1;
        Self(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            // Wake blocked senders so they observe the broken pipe.
            self.0.writable.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Data-parallel map
// ---------------------------------------------------------------------------

/// Apply `f` to every element of `items` in place, splitting the slice
/// across `workers` scoped threads. `f` receives `(global_index,
/// &mut item)`. With one worker (or one item) runs inline.
pub fn parallel_chunks<T: Send, F>(items: &mut [T], workers: usize, f: F)
where
    F: Fn(usize, &mut T) + Send + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, part) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, item) in part.iter_mut().enumerate() {
                    f(c * chunk + i, item);
                }
            });
        }
    });
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
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
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
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
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
    flag: Arc<std::sync::atomic::AtomicBool>,
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

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn channel_round_trips_in_order() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_blocks_until_capacity_frees() {
        let (tx, rx) = channel(1);
        tx.send(1u32).unwrap();
        let start = Instant::now();
        let sender = std::thread::spawn(move || {
            tx.send(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(rx.recv(), Ok(1));
        sender.join().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(40), "send returned early");
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        let (tx, rx) = channel::<u32>(1);
        let receiver = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(7).unwrap();
        assert_eq!(receiver.join().unwrap(), 7);
    }

    #[test]
    fn dropping_receiver_breaks_send() {
        let (tx, rx) = channel(1);
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
    }

    #[test]
    fn dropping_sender_drains_then_disconnects() {
        let (tx, rx) = channel(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpmc_fan_in_fan_out_delivers_everything() {
        let (tx, rx) = channel::<usize>(8);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> =
            consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expect: Vec<usize> =
            (0..3).flat_map(|p| (0..50).map(move |i| p * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = channel(1);
        assert_eq!(tx.try_send(1u8), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.recv(), Ok(3));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::<u32>(1);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Disconnected)
        );
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
        assert!(t.deadline().is_some());
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
        assert_eq!(rw.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_chunks_covers_all_indices() {
        let mut data = vec![0usize; 37];
        parallel_chunks(&mut data, 4, |i, slot| *slot = i * 2);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
        // Single-worker inline path.
        let mut small = vec![0usize; 3];
        parallel_chunks(&mut small, 1, |i, slot| *slot = i + 10);
        assert_eq!(small, vec![10, 11, 12]);
    }
}
