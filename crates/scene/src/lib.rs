//! Visual City: the simulated metropolitan area (§3).
//!
//! This crate is the repository's substitute for CARLA + Unreal
//! Engine (see DESIGN.md). It simulates the *world*; the sibling
//! `vr-render` crate turns camera views of that world into pixels.
//!
//! * A **tile pool** of 72 tiles — 2 base maps × 12 weather
//!   configurations × 3 vehicle/pedestrian densities (§5).
//! * Each **tile** carries a road network, buildings, landscaping,
//!   vehicles with unique six-character license plates, and
//!   pedestrians, all spawned deterministically from the tile's seed.
//! * A **city** is `L` tiles drawn uniformly with replacement and laid
//!   out as a disconnected grid (§3.1, Figure 2), with 4 traffic
//!   cameras and 1 panoramic camera (4 × 120° faces) per tile.
//! * Entity positions are closed-form functions of simulation time, so
//!   any (camera, timestamp) view — and its exact **ground truth** —
//!   can be evaluated independently and in parallel (this is what
//!   makes distributed generation embarrassingly parallel, Figure 9).

#![forbid(unsafe_code)]

pub mod city;
pub mod entity;
pub mod groundtruth;
pub mod road;
pub mod tile;
mod tilepool;
pub mod weather;

pub use city::{CityCamera, VisualCity};
pub use entity::{ObjectClass, Pedestrian, Vehicle};
pub use groundtruth::{FrameTruth, TruthObject};
pub use tile::Tile;
pub use tilepool::{Density, MapKind, TileSpec};
pub use weather::Weather;
