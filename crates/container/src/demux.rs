//! Container demuxing: random-access (offline mode) and forward-only
//! cursors (online mode).

use crate::{SampleInfo, Track, TrackKind, MAGIC, VERSION};
use vr_base::{BufSlice, Error, Result, SharedBuf, Timestamp};
use vr_bitstream::bytesio::ByteReader;
use vr_bitstream::crc32;

/// A parsed container. Shares the file bytes ([`SharedBuf`]); samples
/// resolve to borrowed slices or owned zero-copy [`BufSlice`] views
/// into the data section — the file is read once and never copied.
#[derive(Debug)]
pub struct Container {
    tracks: Vec<Track>,
    data: SharedBuf,
    /// Offset of the data section within the shared buffer.
    data_start: usize,
}

impl Container {
    /// Parse a container from a shared buffer (a `Vec<u8>` converts
    /// for free — no byte copy).
    pub fn parse(bytes: impl Into<SharedBuf>) -> Result<Self> {
        let bytes = bytes.into();
        let mut r = ByteReader::new(&bytes);
        let magic = r.get_bytes(4)?;
        if magic != MAGIC {
            return Err(Error::Corrupt("not a VRMF container".into()));
        }
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(Error::Corrupt(format!("unsupported container version {version}")));
        }
        let index_len = r.get_u32()? as usize;
        let expected_crc = r.get_u32()?;
        let index = r.get_bytes(index_len)?;
        if crc32(index) != expected_crc {
            return Err(Error::Corrupt("container index CRC mismatch".into()));
        }

        let mut ir = ByteReader::new(index);
        let track_count = ir.get_u32()? as usize;
        if track_count > 1 << 16 {
            return Err(Error::Corrupt(format!("absurd track count {track_count}")));
        }
        let mut tracks = Vec::with_capacity(track_count);
        for _ in 0..track_count {
            let kind = TrackKind::from_u8(ir.get_u8()?)?;
            let config = ir.get_blob()?.to_vec();
            let sample_count = ir.get_u32()? as usize;
            let mut samples = Vec::with_capacity(sample_count);
            for _ in 0..sample_count {
                let offset = ir.get_u64()?;
                let size = ir.get_u32()?;
                let timestamp = Timestamp::from_micros(ir.get_u64()?);
                let keyframe = ir.get_u8()? != 0;
                let crc = ir.get_u32()?;
                samples.push(SampleInfo { offset, size, timestamp, keyframe, crc });
            }
            tracks.push(Track { kind, config, samples });
        }

        let data_len = r.get_u64()? as usize;
        if r.remaining() < data_len {
            return Err(Error::Corrupt(format!(
                "container truncated: data section wants {data_len}, {} remain",
                r.remaining()
            )));
        }
        let data_start = r.position();
        // Validate every sample lies inside the data section. The
        // end offset is computed with checked arithmetic: a corrupted
        // index can carry offsets near u64::MAX, and a wrapped sum
        // would sail past this check.
        for (ti, t) in tracks.iter().enumerate() {
            for (si, s) in t.samples.iter().enumerate() {
                let end = s
                    .offset
                    .checked_add(s.size as u64)
                    .ok_or_else(|| {
                        Error::Corrupt(format!("sample {si} of track {ti} overflows u64"))
                    })?;
                if end > data_len as u64 {
                    return Err(Error::Corrupt(format!(
                        "sample {si} of track {ti} out of bounds"
                    )));
                }
            }
        }
        Ok(Self { tracks, data: bytes, data_start })
    }

    /// Random access to a sample as an owned zero-copy [`BufSlice`]
    /// view (shares the container's buffer; useful for handing samples
    /// to pipes or threads without copying and without a borrow).
    pub fn sample_slice(&self, track: usize, index: usize) -> Result<BufSlice> {
        let (start, end) = self.sample_range(track, index)?;
        Ok(self.data.slice(start..end))
    }

    /// The complete serialized container (what was parsed) — lets a
    /// holder re-persist the file without re-muxing.
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Track headers and sample tables.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Index of the first track of `kind`, if any.
    pub fn track_of_kind(&self, kind: TrackKind) -> Option<usize> {
        self.tracks.iter().position(|t| t.kind == kind)
    }

    /// Random access to a sample's payload (offline mode).
    pub fn sample(&self, track: usize, index: usize) -> Result<&[u8]> {
        let (start, end) = self.sample_range(track, index)?;
        Ok(&self.data.as_slice()[start..end])
    }

    /// Resolve a sample's validated byte range within the shared
    /// buffer. Bounds were validated at parse; re-check with checked
    /// arithmetic anyway so a length-corrupted index can never slice
    /// past the buffer — it surfaces as a typed error instead.
    fn sample_range(&self, track: usize, index: usize) -> Result<(usize, usize)> {
        let t = self
            .tracks
            .get(track)
            .ok_or_else(|| Error::NotFound(format!("track {track}")))?;
        let s = t
            .samples
            .get(index)
            .ok_or_else(|| Error::NotFound(format!("sample {index} of track {track}")))?;
        let start = self
            .data_start
            .checked_add(s.offset as usize)
            .ok_or_else(|| Error::Corrupt(format!("sample {index} offset overflow")))?;
        let end = start
            .checked_add(s.size as usize)
            .ok_or_else(|| Error::Corrupt(format!("sample {index} length overflow")))?;
        if end > self.data.len() || start > end {
            return Err(Error::Corrupt(format!("sample {index} of track {track} truncated")));
        }
        Ok((start, end))
    }

    /// A forward-only cursor over a track (online mode: "video data is
    /// exposed via a forward-only iterator with unknown total
    /// duration", §3.2).
    pub fn cursor(&self, track: usize) -> Result<SampleCursor<'_>> {
        if track >= self.tracks.len() {
            return Err(Error::NotFound(format!("track {track}")));
        }
        Ok(SampleCursor { container: self, track, next: 0 })
    }
}

/// Forward-only sample cursor. Deliberately exposes no seek or length
/// operations; online-mode consumers cannot peek ahead.
#[derive(Debug)]
pub struct SampleCursor<'a> {
    container: &'a Container,
    track: usize,
    next: usize,
}

impl SampleCursor<'_> {
    /// The next sample as an owned zero-copy [`BufSlice`] view
    /// (online mode handing samples across threads or into pipes).
    pub fn next_sample_slice(&mut self) -> Option<(SampleInfo, BufSlice)> {
        let t = &self.container.tracks[self.track];
        let info = *t.samples.get(self.next)?;
        let data = self.container.sample_slice(self.track, self.next).ok()?;
        self.next += 1;
        Some((info, data))
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use vr_base::VrRng;

    /// Arbitrary bytes must never panic the demuxer. Seeded
    /// randomized sweep (the former proptest case).
    #[test]
    fn prop_garbage_never_panics() {
        let mut rng = VrRng::seed_from(0xde87_0001);
        for _ in 0..256 {
            let len = rng.range(0, 2047);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let _ = Container::parse(data);
        }
    }

    #[test]
    fn sample_crc_catches_payload_corruption() {
        use crate::ContainerWriter;
        let mut w = ContainerWriter::new();
        let t = w.add_track(crate::TrackKind::Video, Vec::new());
        w.push_sample(t, &[1u8; 16], vr_base::Timestamp::ZERO, true);
        w.push_sample(t, &[2u8; 16], vr_base::Timestamp::from_micros(1000), false);
        let mut bytes = w.finish();
        // Flip a byte in the *data* section (the last payload byte):
        // the index CRC still matches, so parse succeeds.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let c = Container::parse(bytes).unwrap();
        // The read hands back the corrupted payload; its index CRC,
        // which the decode scan checks before decoding, flags it.
        let crc_ok = |i: usize| crc32(c.sample(0, i).unwrap()) == c.tracks()[0].samples[i].crc;
        assert!(crc_ok(0), "untouched sample verifies");
        assert!(!crc_ok(1), "flipped payload byte fails its CRC");
    }

    #[test]
    fn sample_slice_is_a_zero_copy_view() {
        use crate::ContainerWriter;
        let mut w = ContainerWriter::new();
        let t = w.add_track(crate::TrackKind::Video, Vec::new());
        w.push_sample(t, &[7u8; 24], vr_base::Timestamp::ZERO, true);
        w.push_sample(t, &[9u8; 24], vr_base::Timestamp::from_micros(1000), false);
        let c = Container::parse(w.finish()).unwrap();
        for i in 0..2 {
            let borrowed = c.sample(0, i).unwrap();
            let slice = c.sample_slice(0, i).unwrap();
            assert_eq!(slice.as_slice(), borrowed);
            // Same backing storage, not a copy: both views start at
            // the same address inside the container's shared buffer.
            assert_eq!(slice.as_slice().as_ptr(), borrowed.as_ptr());
        }
        // The cursor's owned slices alias the same buffer too.
        let mut cur = c.cursor(0).unwrap();
        let mut n = 0;
        while let Some((info, slice)) = cur.next_sample_slice() {
            assert_eq!(slice.as_slice(), c.sample(0, n).unwrap());
            assert_eq!(info.keyframe, n == 0);
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn bit_flips_in_valid_containers_never_panic() {
        use crate::ContainerWriter;
        let mut w = ContainerWriter::new();
        let t = w.add_track(crate::TrackKind::Video, b"config".to_vec());
        for i in 0..4u64 {
            w.push_sample(t, &[i as u8; 40], vr_base::Timestamp::from_micros(i * 1000), i == 0);
        }
        let bytes = w.finish();
        for pos in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xFF;
            let _ = Container::parse(mutated); // must not panic
        }
        // Truncations at every length must not panic either.
        for len in (0..bytes.len()).step_by(11) {
            let _ = Container::parse(bytes[..len].to_vec());
        }
    }
}
