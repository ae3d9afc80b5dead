//! `.vrsx` container side-index files.
//!
//! A sidecar is the on-disk home of derived, regenerable data — the
//! semantic index's tracklet records — kept *next to* a dataset rather
//! than muxed into its `.vrmf` inputs, so ingesting never rewrites
//! source videos and a stale or corrupt index can be discarded without
//! touching them.
//!
//! Layout mirrors the main container's defensive framing:
//!
//! `magic ∥ version ∥ section-count ∥ table (+CRC) ∥ payloads`
//!
//! where the table holds, per section, a 4-byte name, payload length,
//! and payload CRC-32. The table itself carries a CRC-32 so a damaged
//! header fails fast at open time, and every payload is verified on
//! parse — a sidecar either opens fully intact or not at all, which is
//! what lets readers fail *closed* into a pixel rescan.

use vr_base::{Error, Result};
use vr_bitstream::bytesio::{ByteReader, ByteWriter};
use vr_bitstream::crc32;

/// Sidecar format magic.
pub(crate) const SIDECAR_MAGIC: &[u8; 4] = b"VRSX";
/// Sidecar format version.
pub(crate) const SIDECAR_VERSION: u16 = 1;
/// Sanity bound on the section count (a table this large is corrupt).
const MAX_SECTIONS: u32 = 64;

/// Builds a sidecar file from named sections.
#[derive(Default)]
pub struct SidecarWriter {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SidecarWriter {
    pub fn new() -> Self {
        SidecarWriter::default()
    }

    pub fn add_section(&mut self, name: [u8; 4], payload: Vec<u8>) {
        self.sections.push((name, payload));
    }

    pub fn finish(self) -> Vec<u8> {
        let mut table = ByteWriter::new();
        for (name, payload) in &self.sections {
            table.put_bytes(name);
            table.put_u32(payload.len() as u32);
            table.put_u32(crc32(payload));
        }
        let table = table.finish();

        let mut w = ByteWriter::new();
        w.put_bytes(SIDECAR_MAGIC);
        w.put_u16(SIDECAR_VERSION);
        w.put_u32(self.sections.len() as u32);
        w.put_bytes(&table);
        w.put_u32(crc32(&table));
        for (_, payload) in &self.sections {
            w.put_bytes(payload);
        }
        w.finish()
    }
}

/// A parsed, fully verified sidecar.
pub struct Sidecar {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl Sidecar {
    /// Parse and verify. Any framing damage — bad magic, wrong version,
    /// table CRC mismatch, truncated or corrupt payload — is an
    /// [`Error::Corrupt`]; nothing partial ever escapes.
    pub fn parse(bytes: &[u8]) -> Result<Sidecar> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_bytes(4)?;
        if magic != SIDECAR_MAGIC {
            return Err(Error::Corrupt("bad sidecar magic".into()));
        }
        let version = r.get_u16()?;
        if version != SIDECAR_VERSION {
            return Err(Error::Corrupt(format!(
                "unsupported sidecar version {version} (expected {SIDECAR_VERSION})"
            )));
        }
        let count = r.get_u32()?;
        if count > MAX_SECTIONS {
            return Err(Error::Corrupt(format!("absurd sidecar section count {count}")));
        }
        let table_len = (count as usize)
            .checked_mul(12)
            .ok_or_else(|| Error::Corrupt("sidecar table overflow".into()))?;
        let table = r.get_bytes(table_len)?.to_vec();
        let table_crc = r.get_u32()?;
        if crc32(&table) != table_crc {
            return Err(Error::Corrupt("sidecar table CRC mismatch".into()));
        }
        let mut tr = ByteReader::new(&table);
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let mut name = [0u8; 4];
            name.copy_from_slice(tr.get_bytes(4)?);
            let len = tr.get_u32()? as usize;
            let crc = tr.get_u32()?;
            let payload = r.get_bytes(len)?.to_vec();
            if crc32(&payload) != crc {
                return Err(Error::Corrupt(format!(
                    "sidecar section {:?} payload CRC mismatch",
                    String::from_utf8_lossy(&name)
                )));
            }
            sections.push((name, payload));
        }
        if r.remaining() != 0 {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after sidecar payloads",
                r.remaining()
            )));
        }
        Ok(Sidecar { sections })
    }

    /// Payload of the named section, if present.
    pub fn section(&self, name: &[u8; 4]) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SidecarWriter::new();
        w.add_section(*b"META", vec![1, 2, 3, 4]);
        w.add_section(*b"TRKS", vec![9; 100]);
        w.finish()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let s = Sidecar::parse(&bytes).unwrap();
        assert_eq!(s.section(b"META"), Some(&[1, 2, 3, 4][..]));
        assert_eq!(s.section(b"TRKS"), Some(&[9; 100][..]));
        assert_eq!(s.section(b"NOPE"), None);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Sidecar::parse(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample();
        for cut in [1, 10, bytes.len() - 1] {
            assert!(Sidecar::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(Sidecar::parse(&bytes).is_err());
    }
}
