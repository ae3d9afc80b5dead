//! Named-pipe transport for online mode on a single machine.
//!
//! §3.2: "a VDBMS may access each video using either a named pipe (on
//! a single local file system) or via the RTP protocol". This module
//! provides the named-pipe side as bounded blocking channels in a
//! process-wide registry — the same blocking semantics as a FIFO
//! (writers block when the pipe is full, readers block when it is
//! empty) without requiring OS-specific mkfifo.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use vr_base::fault::{self, IoOp};
use vr_base::sync::Mutex;
use vr_base::{BufSlice, Error, Result};

/// Writing half of a pipe. Messages are [`BufSlice`] views, so pushing
/// a container sample through a pipe shares the file bytes instead of
/// copying them per message.
pub struct PipeWriter {
    tx: SyncSender<BufSlice>,
    /// The pipe's name and the messages written so far: the key of an
    /// injected write fault.
    name: String,
    sent: u64,
}

/// Reading half of a pipe (forward-only, blocking).
pub struct PipeReader {
    rx: Receiver<BufSlice>,
}

impl PipeWriter {
    /// Write one message, blocking while the pipe is full. Accepts
    /// anything convertible to a [`BufSlice`] (a `Vec<u8>`, a
    /// `SharedBuf`, or a zero-copy container-sample view). Fails when
    /// the reader is gone; transient (injected) write faults are
    /// retried with bounded, seeded backoff.
    pub fn write(&mut self, data: impl Into<BufSlice>) -> Result<()> {
        let mut data = Some(data.into());
        self.sent += 1;
        let tx = &self.tx;
        fault::with_retry_io("pipe.write", IoOp::Write, &self.name, self.sent, || {
            let payload = data.take().expect("payload consumed only by a successful send");
            match tx.send(payload) {
                Ok(()) => Ok(()),
                Err(SendError(payload)) => {
                    data = Some(payload);
                    Err(Error::Io(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "reader closed",
                    )))
                }
            }
        })
    }
}

impl PipeReader {
    /// Read the next message, blocking while the pipe is empty.
    /// Returns `None` when the writer is closed and the pipe drained.
    pub fn read(&self) -> Option<BufSlice> {
        self.rx.recv().ok()
    }
}

/// A registry of named pipes.
#[derive(Default)]
pub struct PipeRegistry {
    pipes: Mutex<HashMap<String, Receiver<BufSlice>>>,
}

impl PipeRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a pipe with the given name and buffer capacity
    /// (messages). Returns the writer; the reader is claimed with
    /// [`open`](Self::open).
    pub fn create(&self, name: &str, capacity: usize) -> Result<PipeWriter> {
        let mut pipes = self.pipes.lock();
        if pipes.contains_key(name) {
            return Err(Error::InvalidConfig(format!("pipe {name} already exists")));
        }
        let (tx, rx) = sync_channel(capacity.max(1));
        pipes.insert(name.to_string(), rx);
        Ok(PipeWriter { tx, name: name.to_string(), sent: 0 })
    }

    /// Claim the reading end of a named pipe (each pipe has one
    /// reader).
    pub fn open(&self, name: &str) -> Result<PipeReader> {
        let mut pipes = self.pipes.lock();
        let rx = pipes
            .remove(name)
            .ok_or_else(|| Error::NotFound(format!("pipe {name}")))?;
        Ok(PipeReader { rx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn messages_flow_in_order() {
        let reg = PipeRegistry::new();
        let mut w = reg.create("cam-0", 8).unwrap();
        let r = reg.open("cam-0").unwrap();
        w.write(vec![1]).unwrap();
        w.write(vec![2]).unwrap();
        assert_eq!(r.read().unwrap(), vec![1]);
        assert_eq!(r.read().unwrap(), vec![2]);
        drop(w);
        assert!(r.read().is_none(), "closed and drained");
    }

    #[test]
    fn duplicate_names_rejected() {
        let reg = PipeRegistry::new();
        let _w = reg.create("x", 1).unwrap();
        assert!(reg.create("x", 1).is_err());
        assert!(reg.open("missing").is_err());
    }

    #[test]
    fn writer_blocks_when_full() {
        let reg = PipeRegistry::new();
        let mut w = reg.create("slow", 1).unwrap();
        let r = reg.open("slow").unwrap();
        w.write(vec![0]).unwrap();
        // A second write must block until the reader drains.
        let handle = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            w.write(vec![1]).unwrap();
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(r.read().unwrap(), vec![0]);
        let blocked_for = handle.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(40),
            "writer should have blocked, took {blocked_for:?}"
        );
        assert_eq!(r.read().unwrap(), vec![1]);
    }

    #[test]
    fn broken_pipe_is_an_error() {
        let reg = PipeRegistry::new();
        let mut w = reg.create("b", 4).unwrap();
        let r = reg.open("b").unwrap();
        drop(r);
        assert!(w.write(vec![1]).is_err());
    }
}
