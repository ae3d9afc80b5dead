//! Container muxing.

use crate::{SampleInfo, Track, TrackKind, MAGIC, VERSION};
use vr_base::Timestamp;
use vr_bitstream::bytesio::ByteWriter;
use vr_bitstream::crc32;

/// Handle to a track within a [`ContainerWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackHandle(usize);

/// Builds a container in memory; finalize with
/// [`finish`](ContainerWriter::finish).
#[derive(Debug, Default)]
pub struct ContainerWriter {
    tracks: Vec<Track>,
    data: Vec<u8>,
}

impl ContainerWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a track; samples are then pushed against the returned
    /// handle.
    pub fn add_track(&mut self, kind: TrackKind, config: Vec<u8>) -> TrackHandle {
        self.tracks.push(Track { kind, config, samples: Vec::new() });
        TrackHandle(self.tracks.len() - 1)
    }

    /// Append a sample to a track. Samples must be pushed in
    /// presentation order per track; tracks may interleave freely.
    pub fn push_sample(
        &mut self,
        track: TrackHandle,
        data: &[u8],
        timestamp: Timestamp,
        keyframe: bool,
    ) {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(data);
        self.tracks[track.0].samples.push(SampleInfo {
            offset,
            size: data.len() as u32,
            timestamp,
            keyframe,
            crc: crc32(data),
        });
    }

    /// Serialize the container.
    pub fn finish(self) -> Vec<u8> {
        // Index section.
        let mut idx = ByteWriter::new();
        idx.put_u32(self.tracks.len() as u32);
        for t in &self.tracks {
            idx.put_u8(t.kind.to_u8());
            idx.put_blob(&t.config);
            idx.put_u32(t.samples.len() as u32);
            for s in &t.samples {
                idx.put_u64(s.offset);
                idx.put_u32(s.size);
                idx.put_u64(s.timestamp.as_micros());
                idx.put_u8(s.keyframe as u8);
                idx.put_u32(s.crc);
            }
        }
        let index = idx.finish();

        let mut out = ByteWriter::new();
        out.put_bytes(MAGIC);
        out.put_u16(VERSION);
        out.put_u32(index.len() as u32);
        out.put_u32(crc32(&index));
        out.put_bytes(&index);
        out.put_u64(self.data.len() as u64);
        out.put_bytes(&self.data);
        out.finish()
    }
}
