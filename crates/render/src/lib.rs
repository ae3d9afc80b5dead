//! Deterministic software rendering of Visual City camera views.
//!
//! The substitute for Unreal Engine 4 (DESIGN.md): given a city, a
//! camera, and a timestamp, produce the frame that camera captures.
//! The renderer is *deterministic* — identical inputs produce
//! bit-identical frames on every platform — which is what lets a seed
//! reproduce a whole dataset.
//!
//! Rendering pipeline per frame (steps 1–2 and the static half of 3
//! never read the time, so a [`CameraRenderer`] draws them once per
//! camera and each frame starts from a copy):
//!
//! 1. **Sky** — gradient from the pixel ray's elevation, tinted by
//!    weather (sunset warmth, overcast gray).
//! 2. **Ground** — per-pixel ray/ground-plane intersection classified
//!    as road (asphalt + dashed lane markings), sidewalk, or grass.
//! 3. **Geometry** — z-buffered quads for buildings, trees, vehicles
//!    (with a glyph-textured license plate on the front face), and
//!    pedestrians, lit by a weather-dependent sun.
//! 4. **Atmosphere** — depth fog and deterministic rain streaks.
//!
//! Photorealism is a non-goal (§6.3.1 only requires that frames carry
//! enough semantic structure for detection and codecs); temporal
//! coherence and geometric consistency with the ground truth are the
//! goals.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod raster;
pub mod scene_render;
pub mod shade;

pub use scene_render::{render_camera, render_camera_frame, CameraRenderer};
