//! Bit-level I/O for the video codec and container formats.
//!
//! The codec (`vr-codec`) writes entropy-coded transform coefficients
//! with Exp-Golomb codes over a [`BitWriter`]; the container
//! (`vr-container`) uses the byte-oriented helpers in [`bytesio`]; both
//! guard their payloads with [`crc32`].

#![forbid(unsafe_code)]

pub mod bytesio;
pub mod crc;
pub mod expgolomb;
#[cfg(test)]
mod oracle;
pub mod reader;
pub mod writer;
pub mod zigzag;

pub use crc::crc32;
pub use reader::BitReader;
pub use writer::BitWriter;
