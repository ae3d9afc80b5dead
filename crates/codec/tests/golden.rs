//! Bit-identity of the codec, as a test: CRC-32 of every packet byte
//! and of every decoded plane for fixed clips, pinned to constants
//! captured before the hot-path rewrite. Any change to an encoded
//! byte or a reconstructed sample — a rounding rule, a summation
//! order, a mode decision — fails here first.

#[path = "../src/testutil.rs"]
mod testutil;

use vr_base::{Duration, Hyperparameters, Resolution};
use vr_bitstream::crc32;
use vr_codec::{encode_sequence, EncoderConfig, Profile};
use vr_frame::Frame;

/// The benchmark dataset's hyperparameters (`benchmark/src/workload.rs`).
fn bench_hyper() -> Hyperparameters {
    Hyperparameters::new(1, Resolution::new(192, 108), Duration::from_secs(1.0), 42).unwrap()
}

/// 72×56: neither dimension is a multiple of 16, so the clamped edge
/// paths of gather/scatter/SAD are on the golden path too.
fn square_clip() -> Vec<Frame> {
    testutil::moving_square_sequence(72, 56, 12, 7)
}

/// Twelve rendered frames of the benchmark city's first traffic camera.
fn traffic_clip() -> Vec<Frame> {
    let hyper = bench_hyper();
    let city = visual_road::scene::VisualCity::generate(&hyper, 0.15);
    let cam = city.traffic_cameras().next().expect("traffic camera");
    (0..12)
        .map(|i| visual_road::render::render_camera_frame(&city, cam, i as f64 / 30.0, 192, 108))
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

const GOLDEN: [(&str, [u32; 4]); 9] = [
    ("square/h264/qp10", [0xf9e235fe, 0x0f8fb121, 0x861c5191, 0xdcadeb69]),
    ("square/h264/qp26", [0x797b2b78, 0x629db0e3, 0x29c09002, 0xf09e33eb]),
    ("square/hevc/qp10", [0x647e8719, 0x8532a67f, 0xb93afc37, 0x3893b013]),
    ("square/hevc/qp26", [0x4a496815, 0x59c9a9a6, 0x84a78d50, 0xba24cb01]),
    ("traffic/h264/qp10", [0x8b86a4b1, 0x2ced6753, 0x79c2a0a6, 0xd27387d8]),
    ("traffic/h264/qp26", [0xd58cc477, 0x997573b6, 0x288c7f7e, 0xff9ec657]),
    ("traffic/hevc/qp10", [0x9c27cf11, 0x48b2eadf, 0x561c2e54, 0x1fea0a40]),
    ("traffic/hevc/qp26", [0x5edc8258, 0x8f24189b, 0x75e73658, 0x743894be]),
    ("square/h264/bitrate300k", [0x60db57b8, 0xdc752ee9, 0xc29911d0, 0x4d7dea56]),
];

#[test]
fn packets_and_planes_match_golden_crcs() {
    let clips = [("square", square_clip()), ("traffic", traffic_clip())];
    let mut actual = Vec::new();
    for (clip, frames) in &clips {
        for (pname, profile) in [("h264", Profile::H264Like), ("hevc", Profile::HevcLike)] {
            for qp in [10u8, 26] {
                // GOP 5: every clip crosses two keyframes.
                let cfg = EncoderConfig::constant_qp(qp).with_profile(profile).with_gop(5);
                actual.push((format!("{clip}/{pname}/qp{qp}"), fingerprint(&cfg, frames)));
            }
        }
    }
    let cfg = EncoderConfig::bitrate(300_000).with_gop(5);
    actual.push(("square/h264/bitrate300k".to_string(), fingerprint(&cfg, &clips[0].1)));

    let render = |rows: &[(String, [u32; 4])]| -> String {
        rows.iter()
            .map(|(n, c)| {
                format!(
                    "    (\"{n}\", [{:#010x}, {:#010x}, {:#010x}, {:#010x}]),\n",
                    c[0], c[1], c[2], c[3]
                )
            })
            .collect()
    };
    let golden: Vec<(String, [u32; 4])> = GOLDEN.iter().map(|(n, c)| (n.to_string(), *c)).collect();
    assert!(actual == golden, "codec output changed; actual table:\n{}", render(&actual));
}

/// The benchmark's `vcg.dataset_bytes`: the whole generated dataset
/// (every camera, panoramas, containers) is byte-for-byte the size it
/// was before the rewrite.
#[test]
fn benchmark_dataset_is_still_386483_bytes() {
    use visual_road::vcg::{GenConfig, Vcg};
    let dataset = Vcg::new(GenConfig::default()).generate(&bench_hyper()).unwrap();
    assert_eq!(dataset.total_bytes(), 386_483);
}
