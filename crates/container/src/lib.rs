//! A box-structured media container, the repository's MP4 analogue.
//!
//! Input videos produced by the VCG are "encoded using the H264 codec
//! and stored as flat files … separately muxed using the MP4 container
//! format" (§3.1, §5). This crate provides that container:
//!
//! * a **file header** with magic and version,
//! * one or more **tracks** — video (codec configuration =
//!   [`vr_codec::VideoInfo`]), WebVTT captions (Q6b embeds captions "as
//!   a metadata track within the input video's container"), and
//!   opaque metadata (per-frame ground truth),
//! * a **sample index** per track (offset, size, timestamp, keyframe
//!   flag, payload CRC) enabling random access for *offline* benchmark
//!   mode, while *online* mode reads samples strictly forward,
//! * a CRC-32 over the index so corruption fails fast at open time,
//!   plus a CRC-32 per sample payload so a resilient reader can skip
//!   an individually corrupted sample and continue
//!   ([`SampleInfo::crc`]).
//!
//! Layout: `magic ∥ version ∥ index-length ∥ index (+CRC) ∥ data`.
//! Sample offsets are relative to the data section, so the index can
//! be built before the data is positioned.

#![forbid(unsafe_code)]

mod demux;
mod mux;
pub mod sidecar;

pub use demux::{Container, SampleCursor};
pub use mux::ContainerWriter;
pub use sidecar::{Sidecar, SidecarWriter};

use vr_base::{Error, Result, Timestamp};

/// Container format magic.
pub(crate) const MAGIC: &[u8; 4] = b"VRMF";
/// Container format version. Version 2 added a CRC-32 per sample
/// payload to the index.
pub(crate) const VERSION: u16 = 2;

/// What a track carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackKind {
    /// Encoded video; config blob is a serialized
    /// [`vr_codec::VideoInfo`].
    Video,
    /// WebVTT caption text; one sample per cue block (or one for the
    /// whole file).
    Captions,
    /// Opaque metadata (e.g. serialized ground truth).
    Metadata,
}

impl TrackKind {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            TrackKind::Video => 0,
            TrackKind::Captions => 1,
            TrackKind::Metadata => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(TrackKind::Video),
            1 => Ok(TrackKind::Captions),
            2 => Ok(TrackKind::Metadata),
            other => Err(Error::Corrupt(format!("unknown track kind {other}"))),
        }
    }
}

/// Index entry for one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleInfo {
    /// Offset within the data section.
    pub offset: u64,
    /// Payload size in bytes.
    pub size: u32,
    /// Presentation timestamp.
    pub timestamp: Timestamp,
    /// Whether the sample is independently decodable.
    pub keyframe: bool,
    /// CRC-32 of the payload bytes, for per-sample integrity checks.
    pub crc: u32,
}

/// Per-track header and sample table.
#[derive(Debug, Clone)]
pub struct Track {
    /// What the track carries.
    pub kind: TrackKind,
    /// Codec- or format-specific configuration blob.
    pub config: Vec<u8>,
    /// Sample table in presentation order.
    pub samples: Vec<SampleInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::FrameRate;
    use vr_codec::{encode_sequence, EncoderConfig, Profile, VideoInfo};
    use vr_frame::Frame;

    fn tiny_video() -> vr_codec::EncodedVideo {
        let frames: Vec<Frame> = (0..5)
            .map(|i| {
                let mut f = Frame::new(32, 32);
                for y in 0..32 {
                    for x in 0..32 {
                        f.set_y(x, y, ((x + y) * 4 + i * 3) as u8);
                    }
                }
                f
            })
            .collect();
        encode_sequence(&EncoderConfig::constant_qp(24).with_gop(3), &frames).unwrap()
    }

    #[test]
    fn mux_demux_round_trip() {
        let video = tiny_video();
        let mut w = ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, video.info.serialize());
        for (i, p) in video.packets.iter().enumerate() {
            w.push_sample(
                t,
                &p.data,
                Timestamp::of_frame(i as u64, FrameRate(30)),
                p.keyframe,
            );
        }
        let bytes = w.finish();

        let c = Container::parse(bytes).unwrap();
        assert_eq!(c.tracks().len(), 1);
        let track = &c.tracks()[0];
        assert_eq!(track.kind, TrackKind::Video);
        assert_eq!(track.samples.len(), 5);
        let info = VideoInfo::deserialize(&track.config).unwrap();
        assert_eq!(info.width, 32);
        assert_eq!(info.profile, Profile::H264Like);
        // Random access: every sample matches what was muxed.
        for (i, p) in video.packets.iter().enumerate() {
            assert_eq!(c.sample(0, i).unwrap(), &p.data[..]);
            assert_eq!(track.samples[i].keyframe, p.keyframe);
        }
        // And the video still decodes end to end.
        let mut dec = vr_codec::Decoder::new(info);
        for i in 0..5 {
            dec.decode(c.sample(0, i).unwrap()).unwrap();
        }
    }

    #[test]
    fn multiple_tracks() {
        let mut w = ContainerWriter::new();
        let v = w.add_track(TrackKind::Video, b"cfg-v".to_vec());
        let c = w.add_track(TrackKind::Captions, Vec::new());
        let m = w.add_track(TrackKind::Metadata, b"gt".to_vec());
        w.push_sample(v, b"frame0", Timestamp::ZERO, true);
        w.push_sample(c, b"WEBVTT...", Timestamp::ZERO, true);
        w.push_sample(m, b"truth0", Timestamp::ZERO, true);
        w.push_sample(v, b"frame1", Timestamp::from_micros(33_333), false);
        let bytes = w.finish();

        let parsed = Container::parse(bytes).unwrap();
        assert_eq!(parsed.tracks().len(), 3);
        assert_eq!(parsed.tracks()[1].kind, TrackKind::Captions);
        assert_eq!(parsed.sample(0, 1).unwrap(), b"frame1");
        assert_eq!(parsed.sample(1, 0).unwrap(), b"WEBVTT...");
        assert_eq!(parsed.sample(2, 0).unwrap(), b"truth0");
        assert_eq!(parsed.tracks()[2].config, b"gt");
        assert!(parsed.sample(0, 2).is_err());
        assert!(parsed.sample(5, 0).is_err());
        // Track lookup by kind.
        assert_eq!(parsed.track_of_kind(TrackKind::Metadata), Some(2));
        assert_eq!(parsed.track_of_kind(TrackKind::Video), Some(0));
    }

    #[test]
    fn corruption_detected() {
        let mut w = ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, b"cfg".to_vec());
        w.push_sample(t, b"datadata", Timestamp::ZERO, true);
        let bytes = w.finish();

        // Flip a bit in the index region (right after the magic).
        let mut corrupted = bytes.clone();
        corrupted[10] ^= 0x01;
        assert!(Container::parse(corrupted).is_err());

        // Truncation is rejected too.
        let truncated = bytes[..bytes.len() - 3].to_vec();
        assert!(Container::parse(truncated).is_err());

        // Bad magic.
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(Container::parse(bad_magic).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("vr-container-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clip.vrmf");
        let mut w = ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, b"cfg".to_vec());
        w.push_sample(t, b"abc", Timestamp::ZERO, true);
        std::fs::write(&path, w.finish()).unwrap();
        let c = Container::parse(std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(c.sample(0, 0).unwrap(), b"abc");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forward_cursor_is_sequential() {
        let mut w = ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, Vec::new());
        for i in 0..4u64 {
            w.push_sample(t, &[i as u8; 3], Timestamp::of_frame(i, FrameRate(30)), i == 0);
        }
        let c = Container::parse(w.finish()).unwrap();
        let mut cursor = c.cursor(0).unwrap();
        let mut seen = 0;
        while let Some((info, data)) = cursor.next_sample_slice() {
            assert_eq!(data, vec![seen as u8; 3]);
            assert_eq!(info.timestamp.frame_index(FrameRate(30)), seen);
            seen += 1;
        }
        assert_eq!(seen, 4);
    }
}
