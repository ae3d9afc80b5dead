//! Bit-identity of the codec at the benchmark's own encode settings:
//! `EncodeStage` writes every query output as one 30-frame GOP at
//! constant QP 10, and Q4 hands it upsampled frames. The clip is the
//! benchmark city's first traffic camera, 30 frames rendered at
//! 192×108 and upsampled to 384×216 — 216 is not a multiple of 16, so
//! the last macroblock row is an edge row. One H264Like row (the
//! pipeline's profile) and one HevcLike row (predictive motion
//! vectors, intra DC prediction) pin CRC-32s of the packets and of
//! every decoded plane, captured before the per-block rewrite.

use vr_base::{Duration, Hyperparameters, Resolution};
use vr_bitstream::crc32;
use vr_codec::{encode_sequence, EncoderConfig, Profile};
use vr_frame::{ops, Frame};

/// Thirty frames of the benchmark dataset's first traffic camera,
/// bilinearly upsampled 2× the way Q4 does it.
fn upsampled_traffic_clip() -> Vec<Frame> {
    let hyper =
        Hyperparameters::new(1, Resolution::new(192, 108), Duration::from_secs(1.0), 42).unwrap();
    let city = visual_road::scene::VisualCity::generate(&hyper, 0.15);
    let cam = city.traffic_cameras().next().expect("traffic camera");
    (0..30)
        .map(|i| {
            let f = visual_road::render::render_camera_frame(&city, cam, i as f64 / 30.0, 192, 108);
            ops::interpolate_bilinear(&f, 384, 216)
        })
        .collect()
}

/// `[packets, Y, U, V]` CRCs: packets concatenated in order, each
/// plane concatenated over the decoded frames.
fn fingerprint(cfg: &EncoderConfig, frames: &[Frame]) -> [u32; 4] {
    let video = encode_sequence(cfg, frames).unwrap();
    let decoded = video.decode_all().unwrap();
    let packets: Vec<u8> = video.packets.iter().flat_map(|p| p.data.iter().copied()).collect();
    let plane = |pick: fn(&Frame) -> &[u8]| -> u32 {
        crc32(&decoded.iter().flat_map(|f| pick(f).iter().copied()).collect::<Vec<u8>>())
    };
    [crc32(&packets), plane(|f| &f.y), plane(|f| &f.u), plane(|f| &f.v)]
}

const GOLDEN: [(&str, [u32; 4]); 2] = [
    ("traffic384x216/h264/qp10/gop30", [0x82627989, 0xbbc58661, 0xaf1a3277, 0x1124eb84]),
    ("traffic384x216/hevc/qp10/gop30", [0x23b3919d, 0x645f4061, 0x5e670fee, 0x4ca723c2]),
];

#[test]
fn benchmark_encode_settings_match_golden_crcs() {
    let frames = upsampled_traffic_clip();
    assert_eq!((frames[0].width(), frames[0].height()), (384, 216));
    let actual: Vec<(String, [u32; 4])> =
        [("h264", Profile::H264Like), ("hevc", Profile::HevcLike)]
            .into_iter()
            .map(|(name, profile)| {
                let cfg = EncoderConfig::constant_qp(10).with_profile(profile).with_gop(30);
                (format!("traffic384x216/{name}/qp10/gop30"), fingerprint(&cfg, &frames))
            })
            .collect();
    let render: String = actual
        .iter()
        .map(|(n, c)| {
            format!(
                "    (\"{n}\", [{:#010x}, {:#010x}, {:#010x}, {:#010x}]),\n",
                c[0], c[1], c[2], c[3]
            )
        })
        .collect();
    let golden: Vec<(String, [u32; 4])> = GOLDEN.iter().map(|(n, c)| (n.to_string(), *c)).collect();
    assert!(actual == golden, "codec output changed; actual table:\n{render}");
}
