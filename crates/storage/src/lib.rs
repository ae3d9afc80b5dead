//! Storage and transport substrate.
//!
//! The VCD stages inputs and exposes them to engines under test in
//! several ways (§3.2):
//!
//! * **flat files** on a local file system ([`flat::FlatStore`]) —
//!   offline mode, single node;
//! * a **distributed file system** ([`dfs::MiniDfs`], the HDFS
//!   analogue) — offline mode for distributed engines: replicated
//!   fixed-size blocks over in-process "datanodes" with failover;
//! * **named pipes** ([`pipe`]) — online mode on a single machine:
//!   blocking bounded channels keyed by name;
//! * **RTP** ([`rtp`]) — online mode over a network: RFC 3550-style
//!   packetization with sequence numbers, fragmentation, marker bits,
//!   and a reordering jitter buffer;
//! * a **real-time pacer** ([`pacer`]) that throttles delivery to the
//!   camera's capture rate ("the VCD blocks on attempts to read video
//!   data beyond this rate").

#![forbid(unsafe_code)]

pub mod dfs;
pub mod flat;
pub mod pacer;
pub mod pipe;
pub mod rtp;

pub use dfs::MiniDfs;
pub use flat::FlatStore;
pub use pacer::Pacer;
