//! A generated benchmark dataset: the city, its videos, and their
//! provenance.

use vr_base::{CameraId, Hyperparameters, Result, TileId};
use vr_scene::VisualCity;
use vr_storage::FlatStore;
use vr_vdbms::query::{FaceParams, SampleContext};
use vr_vdbms::InputVideo;

/// What a dataset video depicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoRole {
    /// A traffic camera stream (the input to Q1–Q8).
    Traffic,
    /// One 120° face of a panoramic rig (the inputs to Q9).
    PanoramicFace {
        /// Rig index within the city.
        rig: usize,
        /// Face index 0–3.
        face: u8,
    },
    /// A pre-stitched equirectangular 360° video (the input to Q10).
    Panorama360 {
        /// Rig index within the city.
        rig: usize,
    },
}

/// Provenance of one dataset video.
#[derive(Debug, Clone, Copy)]
pub struct VideoMeta {
    /// The capturing camera (absent for derived 360° videos).
    pub camera: Option<CameraId>,
    /// Tile the camera sits in.
    pub tile: TileId,
    pub role: VideoRole,
}

/// Every complete panoramic rig in `meta`, by rig index: the rig and
/// its face video indices, ordered by face.
pub fn rig_faces(meta: &[VideoMeta]) -> Vec<(usize, [usize; 4])> {
    let mut rigs: std::collections::BTreeMap<usize, [usize; 4]> = Default::default();
    for (i, m) in meta.iter().enumerate() {
        if let VideoRole::PanoramicFace { rig, face } = m.role {
            rigs.entry(rig).or_insert([usize::MAX; 4])[face as usize] = i;
        }
    }
    rigs.into_iter().filter(|(_, faces)| faces.iter().all(|&i| i != usize::MAX)).collect()
}

/// A complete benchmark dataset.
pub struct Dataset {
    /// The hyperparameters it was generated from.
    pub hyper: Hyperparameters,
    /// The simulated city (retained for ground-truth queries).
    pub city: VisualCity,
    /// The input videos, in deterministic generation order.
    pub videos: Vec<InputVideo>,
    /// Provenance parallel to `videos`.
    pub meta: Vec<VideoMeta>,
    /// The entity-density scale the city was populated with.
    pub density_scale: f64,
}

impl Dataset {
    /// Indices of all traffic-camera videos.
    pub fn traffic_indices(&self) -> Vec<usize> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.role == VideoRole::Traffic)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of pre-stitched 360° videos.
    pub fn panorama_indices(&self) -> Vec<usize> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m.role, VideoRole::Panorama360 { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// The sampling context the VCD draws Table 3 parameters from.
    pub(crate) fn sample_context(&self) -> SampleContext {
        let mut known_plates = Vec::new();
        for t in 0..self.city.tile_count() {
            for v in &self.city.tile(TileId(t as u32)).vehicles {
                known_plates.push(v.plate);
            }
        }
        let rigs: Vec<[FaceParams; 4]> = self
            .city
            .panoramic_rigs()
            .iter()
            .map(|rig| {
                std::array::from_fn(|i| FaceParams {
                    yaw: rig[i].camera.yaw,
                    pitch: rig[i].camera.pitch,
                    hfov_deg: rig[i].camera.hfov_deg,
                })
            })
            .collect();
        SampleContext { known_plates, rigs }
    }

    /// Total encoded bytes across all videos.
    pub fn total_bytes(&self) -> usize {
        self.videos
            .iter()
            .map(|v| {
                v.container
                    .tracks()
                    .iter()
                    .flat_map(|t| t.samples.iter())
                    .map(|s| s.size as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Total video frames across all inputs.
    pub fn total_frames(&self) -> usize {
        self.videos.iter().map(|v| v.frame_count()).sum()
    }

    /// Persist every video as a flat file ("stored as flat files",
    /// §3.1).
    pub fn write_to_store(&self, store: &FlatStore) -> Result<()> {
        for video in &self.videos {
            // The container owns its file bytes; re-serialize by
            // reading them back out via the store path. Containers
            // keep the original buffer, so we round-trip through the
            // samples: simplest is to keep the raw bytes at hand.
            // InputVideo retains no raw buffer accessor, so rebuild:
            let bytes = video.container.raw_bytes();
            store.put(&video.name, bytes)?;
        }
        Ok(())
    }

    /// Reload a dataset's videos from a store (the city and meta must
    /// be regenerated from the hyperparameters, which is cheap).
    pub fn reload_videos(&mut self, store: &FlatStore) -> Result<()> {
        for video in &mut self.videos {
            *video = InputVideo::from_store(store, &video.name)?;
        }
        Ok(())
    }
}
