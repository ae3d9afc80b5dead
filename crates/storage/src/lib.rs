//! Storage and transport substrate.
//!
//! The VCD exposes inputs to engines under test in two modes (§3.2):
//!
//! * **flat files** on a local file system ([`flat::FlatStore`]) —
//!   offline mode: the dataset, and write mode's results;
//! * **RTP** ([`rtp`]) — online mode: RFC 3550-style packetization
//!   with sequence numbers, fragmentation, marker bits, and a
//!   reordering depacketizer that settles loss at sample boundaries;
//! * a **real-time pacer** ([`pacer`]) that throttles delivery to the
//!   camera's capture rate ("the VCD blocks on attempts to read video
//!   data beyond this rate").
//!
//! The online pieces are composed in one place, the paced feed of
//! `vr_vdbms::kernels::FrameStream`.

#![forbid(unsafe_code)]

pub mod flat;
pub mod pacer;
pub mod rtp;

pub use flat::FlatStore;
pub use pacer::Pacer;
