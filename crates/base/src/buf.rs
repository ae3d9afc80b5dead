//! The zero-copy data plane: shared byte buffers and a frame-plane pool.
//!
//! Storage reads, container parsing, and packet handling all used to
//! hand each consumer a fresh `Vec<u8>`. The types here replace that
//! copy-per-consumer model with reference-counted views:
//!
//! * [`SharedBuf`] — an immutable byte buffer over `Arc<Vec<u8>>`. Cloning
//!   is a refcount bump; the bytes are read exactly once (at the
//!   storage layer) and every downstream consumer borrows them.
//! * [`BufSlice`] — an owned zero-copy range view into a `SharedBuf`
//!   (a container sample). Holding a slice keeps the whole backing
//!   buffer alive, so long-lived holders should copy out if they only
//!   need a tiny range of a huge file.
//! * [`FramePool`] — an arena that recycles plane-sized `Vec<u8>`
//!   buffers (wrapped in unique `Arc`s) so steady-state decode/encode
//!   loops allocate nothing per frame.

use std::ops::{Deref, Range};
use crate::sync::Mutex;
use std::sync::Arc;

/// An immutable, cheaply-cloneable byte buffer backed by a shared
/// vector (`Arc<Vec<u8>>`: wrapping an owned `Vec` never copies the
/// bytes, unlike `Arc<[u8]>` whose inline refcount header forces one).
#[derive(Debug, Clone)]
pub struct SharedBuf {
    data: Arc<Vec<u8>>,
}

impl SharedBuf {
    /// Wrap an owned vector (no byte copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self { data: Arc::new(v) }
    }

    /// Number of bytes.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// The full contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// A zero-copy view of `range`. Panics if the range is out of
    /// bounds (same contract as slice indexing).
    pub fn slice(&self, range: Range<usize>) -> BufSlice {
        assert!(
            range.start <= range.end && range.end <= self.data.len(),
            "slice {}..{} out of bounds for SharedBuf of {} bytes",
            range.start,
            range.end,
            self.data.len()
        );
        BufSlice { data: self.data.clone(), start: range.start, end: range.end }
    }
}

impl Deref for SharedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for SharedBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for SharedBuf {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u8]> for SharedBuf {
    fn from(s: &[u8]) -> Self {
        Self::from_vec(s.to_vec())
    }
}

impl PartialEq for SharedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for SharedBuf {}

impl PartialEq<[u8]> for SharedBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for SharedBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for SharedBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<SharedBuf> for Vec<u8> {
    fn eq(&self, other: &SharedBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for SharedBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}
impl<const N: usize> PartialEq<[u8; N]> for SharedBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

/// An owned zero-copy range view into a [`SharedBuf`].
#[derive(Debug, Clone)]
pub struct BufSlice {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl BufSlice {
    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for BufSlice {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BufSlice {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<SharedBuf> for BufSlice {
    fn from(buf: SharedBuf) -> Self {
        let end = buf.len();
        BufSlice { data: buf.data, start: 0, end }
    }
}

impl From<Vec<u8>> for BufSlice {
    fn from(v: Vec<u8>) -> Self {
        SharedBuf::from_vec(v).into()
    }
}

impl PartialEq for BufSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for BufSlice {}

impl PartialEq<[u8]> for BufSlice {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<u8>> for BufSlice {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Frames' worth of plane buffers each `Decoder`/`Encoder` pool
/// retains. Sized for the deepest pipeline configuration:
/// `PIPE_DEPTH` (8) frames in flight per channel, plus the codec
/// reference frames.
pub const DEFAULT_POOL_FRAMES: usize = 16;

/// An arena recycling plane-sized byte buffers through the pipeline.
///
/// Buffers are stored as *unique* `Arc<Vec<u8>>` so a recycled take is
/// completely allocation-free: the `Arc` shell and the `Vec` backing
/// store both come back from the free list. [`FramePool::take`] resets
/// contents to `fill`, so a pooled buffer is observationally identical
/// to `vec![fill; len]` — pooling can never change decoded output.
///
/// Pools are per-owner (each `Decoder`/`Encoder` creates its own), not
/// process-global, so allocation accounting stays deterministic when
/// tests run concurrently.
#[derive(Debug)]
pub struct FramePool {
    free: Mutex<Vec<Arc<Vec<u8>>>>,
    /// Maximum retained buffers (plane count, i.e. 3× frames).
    cap: usize,
}

impl FramePool {
    /// A pool retaining up to `frames` frames (3 planes each).
    pub fn new(frames: usize) -> Arc<Self> {
        Arc::new(Self { free: Mutex::new(Vec::new()), cap: frames.max(1) * 3 })
    }

    /// Take a buffer of exactly `len` bytes, every byte set to `fill`.
    /// Reuses a retained buffer when one is available (allocation-free
    /// once warm, as long as `len` fits the recycled capacity),
    /// otherwise allocates fresh.
    pub fn take(&self, len: usize, fill: u8) -> Arc<Vec<u8>> {
        let recycled = self.free.lock().pop();
        match recycled {
            Some(mut arc) => {
                let v = Arc::get_mut(&mut arc).expect("pool buffers are unique");
                v.clear();
                v.resize(len, fill);
                arc
            }
            None => Arc::new(vec![fill; len]),
        }
    }

    /// Return a buffer to the pool. No-ops (dropping the buffer) if the
    /// `Arc` is still shared or the pool is at capacity.
    pub fn put(&self, arc: Arc<Vec<u8>>) {
        if Arc::strong_count(&arc) != 1 {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.cap {
            free.push(arc);
        }
    }

    /// Number of buffers currently retained (for tests/introspection).
    pub fn retained(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_buf_round_trips_and_compares() {
        let buf = SharedBuf::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
        assert_eq!(buf, vec![1, 2, 3, 4, 5]);
        assert_eq!(buf, [1u8, 2, 3, 4, 5]);
        assert_eq!(buf, b"\x01\x02\x03\x04\x05");
        assert_eq!(&buf[1..3], &[2, 3]);
        let clone = buf.clone();
        assert_eq!(clone, buf);
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let buf = SharedBuf::from_vec((0u8..100).collect());
        let s = buf.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s.as_slice(), &(10u8..20).collect::<Vec<_>>()[..]);
        // Views survive the parent buffer being dropped.
        drop(buf);
        assert_eq!(s[2..5], [12, 13, 14]);
        // Full-buffer conversion.
        let full: BufSlice = SharedBuf::from_vec(vec![9, 9]).into();
        assert_eq!(full.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        SharedBuf::from_vec(vec![0; 4]).slice(2..8);
    }

    #[test]
    fn pool_recycles_unique_buffers() {
        let pool = FramePool::new(2);
        let a = pool.take(16, 0);
        assert_eq!(a.as_slice(), &[0u8; 16]);
        pool.put(a);
        assert_eq!(pool.retained(), 1);
        // A recycled take is reset to the requested fill and length.
        let b = pool.take(8, 128);
        assert_eq!(b.as_slice(), &[128u8; 8]);
        // Shared buffers are not retained.
        let c = b.clone();
        pool.put(b);
        assert_eq!(pool.retained(), 0);
        drop(c);
    }

    #[test]
    fn pool_respects_capacity() {
        let pool = FramePool::new(1); // cap = 3 planes
        for _ in 0..5 {
            pool.put(Arc::new(vec![0u8; 4]));
        }
        assert_eq!(pool.retained(), 3);
    }
}
