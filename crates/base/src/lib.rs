//! Foundation types shared by every Visual Road crate.
//!
//! This crate deliberately has no dependencies: everything downstream —
//! the city simulator, the codec, the benchmark driver — builds on the
//! identifiers, units, error type, and deterministic random number
//! generator defined here.
//!
//! # Determinism
//!
//! Visual Road's headline reproducibility property is that a benchmark
//! configuration `{L, R, t, s}` always produces the identical dataset
//! (§3.1 of the paper). To guarantee that across compiler and library
//! versions, the generator's randomness comes from [`rng::VrRng`], a
//! xoshiro256++ generator seeded via SplitMix64, implemented in this
//! crate rather than borrowed from an external crate whose stream might
//! change between releases.

pub mod admission;
pub mod buf;
pub mod error;
pub mod fault;
pub mod id;
pub mod json;
pub mod obs;
pub mod presets;
pub mod rng;
pub mod sync;
pub mod units;

pub use buf::{BufSlice, FramePool, SharedBuf};
pub use error::{Error, Result};
pub use id::{CameraId, CameraKind, LicensePlate, PedestrianId, QueryId, TileId, VehicleId, VideoId};
pub use rng::VrRng;
pub use units::{Duration, FrameRate, Resolution, Timestamp};

/// Benchmark hyperparameters (§3.1): the only four knobs a Visual Road
/// user may turn in version 1.0 of the benchmark.
///
/// * `scale` — the scale factor *L*: number of tiles in the city, and
///   (via `4L`) the number of instances in each query batch.
/// * `resolution` — applied globally to every camera.
/// * `duration` — simulation length, applied globally to every camera.
/// * `seed` — reinitializes the pseudorandom number generator so other
///   users can deterministically reproduce the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hyperparameters {
    /// Scale factor `L >= 1`.
    pub scale: u32,
    /// Global camera resolution `R`.
    pub resolution: Resolution,
    /// Global simulation duration `t`.
    pub duration: Duration,
    /// Random seed `s`.
    pub seed: u64,
}

impl Hyperparameters {
    /// Create a hyperparameter set, validating the scale factor.
    pub fn new(scale: u32, resolution: Resolution, duration: Duration, seed: u64) -> Result<Self> {
        if scale == 0 {
            return Err(Error::InvalidConfig("scale factor L must be >= 1".into()));
        }
        if resolution.width == 0 || resolution.height == 0 {
            return Err(Error::InvalidConfig("resolution must be nonzero".into()));
        }
        Ok(Self { scale, resolution, duration, seed })
    }

    /// Number of instances in each query batch (`4L`, §3.1).
    pub fn batch_size(&self) -> usize {
        4 * self.scale as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperparameters_validate_scale() {
        let r = Resolution::new(960, 540);
        let d = Duration::from_secs(1.0);
        assert!(Hyperparameters::new(0, r, d, 42).is_err());
        let h = Hyperparameters::new(4, r, d, 42).unwrap();
        assert_eq!(h.batch_size(), 16);
    }

    #[test]
    fn hyperparameters_validate_resolution() {
        let d = Duration::from_secs(1.0);
        assert!(Hyperparameters::new(1, Resolution::new(0, 540), d, 1).is_err());
        assert!(Hyperparameters::new(1, Resolution::new(960, 0), d, 1).is_err());
    }
}
