//! Persisted tracklet records — the unit the side index stores.
//!
//! A record is one tracked object instance in one video: its class, its
//! frame extent, an exact per-frame presence bitset (tracklets survive
//! short occlusion gaps, so presence is not a plain interval), and the
//! scalar-quantized embedding the ingest pass extracted. The wire
//! format is fixed-width big-endian via `vr_bitstream::bytesio`, so
//! identical records serialize to identical bytes.

use vr_base::{Error, Result};
use vr_bitstream::bytesio::{ByteReader, ByteWriter};
use vr_scene::entity::ObjectClass;

use crate::quant::Quantized;

/// One tracklet in the side index.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackRecord {
    /// Dataset-global record id (also the HNSW node id).
    pub id: u32,
    /// Dataset video index the tracklet was observed in.
    pub video: u32,
    pub class: ObjectClass,
    /// First frame (inclusive) with an observation.
    pub first_frame: u32,
    /// Last frame (inclusive) with an observation.
    pub last_frame: u32,
    /// Presence bitset over `first_frame..=last_frame` (bit i = frame
    /// `first_frame + i` has an observation).
    pub presence: Vec<u8>,
    /// Quantized embedding.
    pub quant: Quantized,
}

impl TrackRecord {
    /// Number of frames the record spans (gaps included).
    pub(crate) fn span(&self) -> u32 {
        self.last_frame - self.first_frame + 1
    }

    /// Whether the tracklet was observed at `frame`.
    pub(crate) fn present(&self, frame: u32) -> bool {
        if frame < self.first_frame || frame > self.last_frame {
            return false;
        }
        let bit = (frame - self.first_frame) as usize;
        self.presence[bit / 8] & (1 << (bit % 8)) != 0
    }

    /// Whether any observed frame falls in `[lo, hi]` (inclusive).
    pub(crate) fn present_in_range(&self, lo: u32, hi: u32) -> bool {
        let lo = lo.max(self.first_frame);
        let hi = hi.min(self.last_frame);
        (lo..=hi).any(|f| self.present(f))
    }

    fn class_to_u8(class: ObjectClass) -> u8 {
        match class {
            ObjectClass::Vehicle => 0,
            ObjectClass::Pedestrian => 1,
        }
    }

    fn class_from_u8(v: u8) -> Result<ObjectClass> {
        match v {
            0 => Ok(ObjectClass::Vehicle),
            1 => Ok(ObjectClass::Pedestrian),
            other => Err(Error::Corrupt(format!("bad record class {other}"))),
        }
    }
}

/// Serialize a record set (all sharing embedding dimension `dim`).
pub(crate) fn serialize_records(dim: usize, records: &[TrackRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(dim as u32);
    w.put_u32(records.len() as u32);
    for r in records {
        debug_assert_eq!(r.quant.dim(), dim);
        debug_assert_eq!(r.presence.len(), (r.span() as usize + 7) / 8);
        w.put_u32(r.id);
        w.put_u32(r.video);
        w.put_u8(TrackRecord::class_to_u8(r.class));
        w.put_u32(r.first_frame);
        w.put_u32(r.last_frame);
        w.put_bytes(&r.presence);
        // Raw IEEE-754 bits: byte-stable across writes.
        w.put_u32(r.quant.min.to_bits());
        w.put_u32(r.quant.scale.to_bits());
        w.put_bytes(&r.quant.codes);
    }
    w.finish()
}

/// Inverse of [`serialize_records`], with structural validation.
pub(crate) fn deserialize_records(data: &[u8]) -> Result<(usize, Vec<TrackRecord>)> {
    let mut r = ByteReader::new(data);
    let dim = r.get_u32()? as usize;
    if dim == 0 || dim > 4096 {
        return Err(Error::Corrupt(format!("absurd embedding dimension {dim}")));
    }
    let count = r.get_u32()? as usize;
    if count > 1 << 24 {
        return Err(Error::Corrupt(format!("absurd record count {count}")));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let id = r.get_u32()?;
        if id as usize != i {
            return Err(Error::Corrupt(format!("record id {id} out of order (expected {i})")));
        }
        let video = r.get_u32()?;
        let class = TrackRecord::class_from_u8(r.get_u8()?)?;
        let first_frame = r.get_u32()?;
        let last_frame = r.get_u32()?;
        if last_frame < first_frame {
            return Err(Error::Corrupt(format!("record {id}: inverted frame extent")));
        }
        let span = (last_frame - first_frame) as usize + 1;
        if span > 1 << 20 {
            return Err(Error::Corrupt(format!("record {id}: absurd span {span}")));
        }
        let presence = r.get_bytes((span + 7) / 8)?.to_vec();
        let min = f32::from_bits(r.get_u32()?);
        let scale = f32::from_bits(r.get_u32()?);
        if !min.is_finite() || !scale.is_finite() || scale < 0.0 {
            return Err(Error::Corrupt(format!("record {id}: bad quantization params")));
        }
        let codes = r.get_bytes(dim)?.to_vec();
        let rec = TrackRecord {
            id,
            video,
            class,
            first_frame,
            last_frame,
            presence,
            quant: Quantized { codes, min, scale },
        };
        if !rec.present(first_frame) || !rec.present(last_frame) {
            return Err(Error::Corrupt(format!(
                "record {id}: presence bitset does not cover its extent"
            )));
        }
        out.push(rec);
    }
    if r.remaining() != 0 {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after records",
            r.remaining()
        )));
    }
    Ok((dim, out))
}

/// Build the presence bitset for a sorted observation frame list.
pub fn presence_bitset(first: u32, last: u32, observed: &[u32]) -> Vec<u8> {
    let span = (last - first) as usize + 1;
    let mut bits = vec![0u8; (span + 7) / 8];
    for &f in observed {
        debug_assert!((first..=last).contains(&f));
        let bit = (f - first) as usize;
        bits[bit / 8] |= 1 << (bit % 8);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32) -> TrackRecord {
        TrackRecord {
            id,
            video: 1,
            class: if id % 2 == 0 { ObjectClass::Vehicle } else { ObjectClass::Pedestrian },
            first_frame: 3,
            last_frame: 12,
            presence: presence_bitset(3, 12, &[3, 4, 5, 8, 9, 12]),
            quant: Quantized { codes: vec![0, 128, 255, 7], min: -1.5, scale: 0.25 },
        }
    }

    #[test]
    fn presence_semantics() {
        let r = rec(0);
        assert!(r.present(3) && r.present(12) && r.present(8));
        assert!(!r.present(6) && !r.present(2) && !r.present(13));
        assert!(r.present_in_range(6, 8));
        assert!(!r.present_in_range(6, 7));
        assert!(r.present_in_range(0, 100));
    }

    #[test]
    fn round_trip_is_exact_and_deterministic() {
        let records = vec![rec(0), rec(1), rec(2)];
        let a = serialize_records(4, &records);
        let b = serialize_records(4, &records);
        assert_eq!(a, b);
        let (dim, back) = deserialize_records(&a).unwrap();
        assert_eq!(dim, 4);
        assert_eq!(back, records);
    }

    #[test]
    fn validation_rejects_malformed_records() {
        let records = vec![rec(0)];
        let good = serialize_records(4, &records);
        // Truncated.
        assert!(deserialize_records(&good[..good.len() - 2]).is_err());
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(deserialize_records(&long).is_err());
        // Absurd dimension.
        let mut bad_dim = good;
        bad_dim[0..4].copy_from_slice(&0u32.to_be_bytes());
        assert!(deserialize_records(&bad_dim).is_err());
    }
}
