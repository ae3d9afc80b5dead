//! Computer-vision substrate: the stand-ins for YOLO and OpenALPR.
//!
//! The benchmark "requires that all VDBMSs use specified,
//! state-of-the-art algorithms, and focuses on evaluating the
//! execution performance of queries that need to apply those
//! algorithms rather than their quality" (§4). Accordingly this crate
//! provides:
//!
//! * [`YoloDetector`] — a *real* pixel-level detector (background
//!   modelling → foreground connected components → geometric
//!   classification) wrapped in a deterministic [`cost::CostModel`]
//!   calibrated to CNN-like per-frame compute, so query runtimes have
//!   the right shape (Q2(c) dominates Figures 5/6) *and* the right
//!   data-dependence (NoScope-style difference cascades genuinely
//!   save work on static scenes).
//! * [`OracleDetector`] — scene-geometry ground truth plus seeded
//!   jitter/drop-out; the VCD uses it to produce reference boxes for
//!   semantic validation.
//! * [`AlprRecognizer`] — license-plate localization and glyph
//!   decoding from pixels (plates are rendered as 5×7 glyph bitmaps).
//! * [`eval`] — precision/recall/average-precision, used to reproduce
//!   the §6.3.1 video-quality experiment.

#![forbid(unsafe_code)]

pub mod alpr;
pub mod cost;
pub mod detect;
pub mod diff;
pub mod embed;
pub mod eval;
pub mod oracle;
pub mod track;
pub mod yolo;

pub use alpr::AlprRecognizer;
pub use detect::{nms, Detection};
pub use embed::{embed_tracklet, TRACK_EMBED_DIM};
pub use oracle::OracleDetector;
pub use track::{associate, Tracklet, TrackerConfig};
pub use yolo::{YoloConfig, YoloDetector};

#[cfg(test)]
pub(crate) mod testutil {
    use vr_frame::Frame;

    /// `n` consecutive frames of every traffic camera of the benchmark
    /// city (L = 1, seed 42) at the benchmark's 192×108, one clip per
    /// camera.
    pub fn traffic_clips(n: usize) -> Vec<Vec<Frame>> {
        let hyper = vr_base::Hyperparameters::new(
            1,
            vr_base::Resolution::new(192, 108),
            vr_base::Duration::from_secs(1.0),
            42,
        )
        .unwrap();
        let city = vr_scene::VisualCity::generate(&hyper, 0.15);
        city.traffic_cameras()
            .map(|cam| {
                (0..n)
                    .map(|i| vr_render::render_camera_frame(&city, cam, i as f64 / 30.0, 192, 108))
                    .collect()
            })
            .collect()
    }
}
