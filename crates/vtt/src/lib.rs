//! WebVTT captions: parsing, serialization, and rasterization.
//!
//! Query Q6(b) overlays "a WebVTT file embedded as a metadata track
//! within the input video's container" onto an input video, honoring
//! the `line` and `position` cue settings (§4.1). This crate supplies
//! the format ([`WebVtt`], [`Cue`]) and a bitmap-font rasterizer
//! ([`render`]) so captions become pixels the ω-coalesce join can
//! composite.

#![forbid(unsafe_code)]

pub mod cue;
mod font;
pub mod plate;
pub mod render;

pub use cue::{Cue, WebVtt};
pub use render::{render_cues_frame, CaptionStyle};
