//! Geometry primitives for the Visual Road stack.
//!
//! The simulator (`vr-scene`) places vehicles, pedestrians, and
//! cameras in a 3D world; the renderer projects them to pixels; the
//! driver validates detections with rectangle overlap metrics. This
//! crate supplies those shared pieces: vectors, axis-aligned boxes,
//! pixel rectangles with IoU/Jaccard, pinhole and equirectangular
//! camera models, and arc-length-parameterized paths.
//!
//! Coordinate conventions:
//! * **World space** is right-handed with `x` east, `y` north, `z` up,
//!   in meters.
//! * **Camera space** has `x` right, `y` down, `z` forward.
//! * **Pixel space** has the origin at the top-left of the frame.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod camera;
pub mod path;
pub mod rect;
pub mod vec;

pub use aabb::Aabb3;
pub use camera::{Camera, Equirect};
pub use path::Path;
pub use rect::Rect;
pub use vec::{Vec2, Vec3};
