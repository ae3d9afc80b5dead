//! The loaded semantic index: tracklet records + an HNSW graph, serving
//! aggregation / top-k / similarity without touching pixels.
//!
//! Only the records are persisted (`.vrsx` sidecar); the graph is
//! rebuilt at load from a [`VrRng`] forked off the dataset seed, which
//! keeps the file format free of graph internals *and* keeps load
//! deterministic — same sidecar, same graph, same answers.

use std::collections::BTreeMap;

use vr_base::rng::{mix64, VrRng};
use vr_base::{Error, Result};
use vr_container::sidecar::{Sidecar, SidecarWriter};
use vr_scene::entity::ObjectClass;

use crate::hnsw::{Hnsw, HnswConfig};
use crate::record::{deserialize_records, serialize_records, TrackRecord};

/// Embedding dimension the ingest pass produces.
pub const EMBED_DIM: usize = 16;

/// RNG stream tag for the HNSW level draws.
const LEVEL_STREAM: u64 = 0x1DE7;

/// One ranked segment from a top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHit {
    pub video: u32,
    pub segment: u32,
    /// Distinct tracklets of the queried class present in the segment.
    pub count: u32,
}

/// Aggregation over a raw record set. The rescan path answers straight
/// from a fresh scan's records without building an index;
/// [`SemanticIndex::count_distinct`] delegates here so both routes
/// share one definition and can never drift apart.
pub fn count_records(
    records: &[TrackRecord],
    class: Option<ObjectClass>,
    video: Option<u32>,
) -> u64 {
    records
        .iter()
        .filter(|r| class.is_none_or(|c| r.class == c))
        .filter(|r| video.is_none_or(|v| r.video == v))
        .count() as u64
}

/// Top-k time segments by distinct-tracklet count over a raw record
/// set. Segments are fixed windows of `window` frames per video;
/// ranking is count descending with (video, segment) ascending as the
/// deterministic tie-break. Every segment of every video participates,
/// so empty segments can round out the tail of the ranking.
pub fn top_segments_of(
    video_frames: &BTreeMap<u32, u32>,
    records: &[TrackRecord],
    class: Option<ObjectClass>,
    window: u32,
    k: usize,
) -> Vec<SegmentHit> {
    let window = window.max(1);
    let mut counts: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for (&video, &frames) in video_frames {
        for segment in 0..frames.div_ceil(window) {
            counts.insert((video, segment), 0);
        }
    }
    for rec in records {
        if !class.is_none_or(|c| rec.class == c) {
            continue;
        }
        let first_seg = rec.first_frame / window;
        let last_seg = rec.last_frame / window;
        for segment in first_seg..=last_seg {
            let lo = segment * window;
            let hi = lo + window - 1;
            if rec.present_in_range(lo, hi) {
                if let Some(c) = counts.get_mut(&(rec.video, segment)) {
                    *c += 1;
                }
            }
        }
    }
    let mut hits: Vec<SegmentHit> = counts
        .into_iter()
        .map(|((video, segment), count)| SegmentHit { video, segment, count })
        .collect();
    hits.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(a.video.cmp(&b.video))
            .then(a.segment.cmp(&b.segment))
    });
    hits.truncate(k);
    hits
}

/// Brute-force k nearest tracklets to `track` by squared-L2 embedding
/// distance (self excluded) — the rescan path's similarity answer,
/// exact and graph-free. Uses the same metric as the HNSW graph so the
/// two routes rank by identical distances.
pub fn similar_records(records: &[TrackRecord], track: u32, k: usize) -> Result<Vec<(u32, f32)>> {
    let Some(anchor) = records.get(track as usize) else {
        return Err(Error::NotFound(format!("tracklet {track} not in record set")));
    };
    let query = anchor.quant.dequantize();
    let mut hits: Vec<(u32, f32)> = records
        .iter()
        .filter(|r| r.id != track)
        .map(|r| {
            let v = r.quant.dequantize();
            let d: f32 = query.iter().zip(&v).map(|(a, b)| (a - b) * (a - b)).sum();
            (r.id, d)
        })
        .collect();
    hits.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    Ok(hits)
}

pub struct SemanticIndex {
    seed: u64,
    /// Frame count per dataset video index (BTreeMap: only traffic
    /// videos are indexed, and indices need not be contiguous).
    video_frames: BTreeMap<u32, u32>,
    records: Vec<TrackRecord>,
    graph: Hnsw,
}

impl SemanticIndex {
    /// Serialize a record set into `.vrsx` sidecar bytes.
    pub fn to_sidecar_bytes(
        seed: u64,
        video_frames: &BTreeMap<u32, u32>,
        records: &[TrackRecord],
    ) -> Vec<u8> {
        let mut meta = vr_bitstream::bytesio::ByteWriter::new();
        meta.put_u64(seed);
        meta.put_u32(EMBED_DIM as u32);
        meta.put_u32(video_frames.len() as u32);
        for (&video, &frames) in video_frames {
            meta.put_u32(video);
            meta.put_u32(frames);
        }
        let mut w = SidecarWriter::new();
        w.add_section(*b"META", meta.finish());
        w.add_section(*b"TRKS", serialize_records(EMBED_DIM, records));
        w.finish()
    }

    /// Parse sidecar bytes, validate every record against the metadata,
    /// and rebuild the HNSW graph. Fails closed: any inconsistency is
    /// an error, never a partially loaded index.
    pub fn from_sidecar_bytes(bytes: &[u8]) -> Result<SemanticIndex> {
        let sidecar = Sidecar::parse(bytes)?;
        let meta = sidecar
            .section(b"META")
            .ok_or_else(|| Error::Corrupt("sidecar missing META section".into()))?;
        let mut r = vr_bitstream::bytesio::ByteReader::new(meta);
        let seed = r.get_u64()?;
        let dim = r.get_u32()? as usize;
        let video_count = r.get_u32()? as usize;
        if video_count > 1 << 16 {
            return Err(Error::Corrupt(format!("absurd video count {video_count}")));
        }
        let mut video_frames = BTreeMap::new();
        for _ in 0..video_count {
            let video = r.get_u32()?;
            let frames = r.get_u32()?;
            if video_frames.insert(video, frames).is_some() {
                return Err(Error::Corrupt(format!("duplicate video index {video}")));
            }
        }
        if r.remaining() != 0 {
            return Err(Error::Corrupt("trailing bytes in META section".into()));
        }

        let trks = sidecar
            .section(b"TRKS")
            .ok_or_else(|| Error::Corrupt("sidecar missing TRKS section".into()))?;
        let (rec_dim, records) = deserialize_records(trks)?;
        if rec_dim != dim {
            return Err(Error::Corrupt(format!(
                "record dimension {rec_dim} does not match META dimension {dim}"
            )));
        }
        for rec in &records {
            let frames = *video_frames.get(&rec.video).ok_or_else(|| {
                Error::Corrupt(format!("record {} references unknown video {}", rec.id, rec.video))
            })?;
            if rec.last_frame >= frames {
                return Err(Error::Corrupt(format!(
                    "record {} extends past video {} ({} frames)",
                    rec.id, rec.video, frames
                )));
            }
        }

        let mut graph = Hnsw::new(dim, HnswConfig::default());
        let mut rng = VrRng::seed_from(mix64(seed, LEVEL_STREAM));
        for rec in &records {
            graph.insert(rec.quant.dequantize(), &mut rng);
        }
        Ok(SemanticIndex { seed, video_frames, records, graph })
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn video_frames(&self) -> &BTreeMap<u32, u32> {
        &self.video_frames
    }

    /// Aggregation: distinct tracklets, optionally filtered by class
    /// and/or video.
    pub fn count_distinct(&self, class: Option<ObjectClass>, video: Option<u32>) -> u64 {
        count_records(&self.records, class, video)
    }

    /// Top-k time segments by distinct-tracklet count. Segments are
    /// fixed windows of `window` frames per video; ranking is count
    /// descending with (video, segment) ascending as the deterministic
    /// tie-break.
    pub fn top_segments(
        &self,
        class: Option<ObjectClass>,
        window: u32,
        k: usize,
    ) -> Vec<SegmentHit> {
        top_segments_of(&self.video_frames, &self.records, class, window, k)
    }

    /// Similarity: k nearest tracklets to `track` by embedding
    /// distance (self excluded).
    pub fn similar(&self, track: u32, k: usize) -> Result<Vec<(u32, f32)>> {
        if track as usize >= self.records.len() {
            return Err(Error::NotFound(format!("tracklet {track} not in index")));
        }
        let query = self.records[track as usize].quant.dequantize();
        let mut hits = self.graph.search(&query, k + 1);
        hits.retain(|&(id, _)| id != track);
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Quantized;
    use crate::record::presence_bitset;

    fn make_record(id: u32, video: u32, class: ObjectClass, frames: &[u32], bias: f32) -> TrackRecord {
        let first = *frames.first().unwrap();
        let last = *frames.last().unwrap();
        let values: Vec<f32> = (0..EMBED_DIM).map(|i| bias + i as f32 * 0.01).collect();
        TrackRecord {
            id,
            video,
            class,
            first_frame: first,
            last_frame: last,
            presence: presence_bitset(first, last, frames),
            quant: Quantized::quantize(&values).unwrap(),
        }
    }

    fn tiny_index() -> SemanticIndex {
        let mut video_frames = BTreeMap::new();
        video_frames.insert(0, 24u32);
        video_frames.insert(2, 24u32);
        let records = vec![
            make_record(0, 0, ObjectClass::Vehicle, &[0, 1, 2, 3], 0.0),
            make_record(1, 0, ObjectClass::Vehicle, &[2, 3, 8, 9], 0.05),
            make_record(2, 0, ObjectClass::Pedestrian, &[0, 1, 2], 0.9),
            make_record(3, 2, ObjectClass::Vehicle, &[16, 17, 18, 19, 20], 0.5),
        ];
        let bytes = SemanticIndex::to_sidecar_bytes(77, &video_frames, &records);
        SemanticIndex::from_sidecar_bytes(&bytes).unwrap()
    }

    #[test]
    fn sidecar_round_trip_and_byte_determinism() {
        let idx = tiny_index();
        let again = SemanticIndex::to_sidecar_bytes(
            idx.seed(),
            idx.video_frames(),
            &idx.records,
        );
        let twice = SemanticIndex::to_sidecar_bytes(
            idx.seed(),
            idx.video_frames(),
            &idx.records,
        );
        assert_eq!(again, twice);
        let reloaded = SemanticIndex::from_sidecar_bytes(&again).unwrap();
        assert_eq!(reloaded.records, idx.records);
        assert_eq!(reloaded.seed(), 77);
    }

    #[test]
    fn count_distinct_filters() {
        let idx = tiny_index();
        assert_eq!(idx.count_distinct(None, None), 4);
        assert_eq!(idx.count_distinct(Some(ObjectClass::Vehicle), None), 3);
        assert_eq!(idx.count_distinct(Some(ObjectClass::Pedestrian), None), 1);
        assert_eq!(idx.count_distinct(Some(ObjectClass::Vehicle), Some(0)), 2);
        assert_eq!(idx.count_distinct(None, Some(2)), 1);
    }

    #[test]
    fn top_segments_uses_exact_presence() {
        let idx = tiny_index();
        let hits = idx.top_segments(Some(ObjectClass::Vehicle), 8, 3);
        // Segment (0,0): records 0 and 1 → 2. Record 1 has a gap over
        // frames 4..7 but reappears at 8 → segment (0,1) counts 1.
        // Segment (2,2): record 3 → 1.
        assert_eq!(hits[0], SegmentHit { video: 0, segment: 0, count: 2 });
        assert_eq!(hits[1], SegmentHit { video: 0, segment: 1, count: 1 });
        assert_eq!(hits[2], SegmentHit { video: 2, segment: 2, count: 1 });
    }

    #[test]
    fn similarity_excludes_self_and_prefers_near_embeddings() {
        let idx = tiny_index();
        let hits = idx.similar(0, 2).unwrap();
        assert_eq!(hits[0].0, 1, "nearest to record 0 should be record 1");
        assert!(hits.iter().all(|&(id, _)| id != 0));
        assert!(idx.similar(99, 2).is_err());
    }

    #[test]
    fn corrupt_sidecar_fails_closed() {
        let idx = tiny_index();
        let bytes =
            SemanticIndex::to_sidecar_bytes(idx.seed(), idx.video_frames(), &idx.records);
        for at in [0usize, 7, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(SemanticIndex::from_sidecar_bytes(&bad).is_err(), "flip at {at}");
        }
        assert!(SemanticIndex::from_sidecar_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn record_referencing_unknown_video_is_rejected() {
        let mut video_frames = BTreeMap::new();
        video_frames.insert(0, 24u32);
        let records = vec![make_record(0, 5, ObjectClass::Vehicle, &[0, 1], 0.0)];
        let bytes = SemanticIndex::to_sidecar_bytes(1, &video_frames, &records);
        assert!(SemanticIndex::from_sidecar_bytes(&bytes).is_err());
    }
}
