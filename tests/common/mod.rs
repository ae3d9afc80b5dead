//! Helpers shared by the integration suites (`mod common;`).

use visual_road::prelude::*;

/// The dataset most suites run on: L = 1, 128×72, 0.4 s, density 0.2 —
/// seconds of work that still crosses every engine and both tile
/// layouts.
pub fn tiny_dataset(seed: u64) -> Dataset {
    let hyper =
        Hyperparameters::new(1, Resolution::new(128, 72), Duration::from_secs(0.4), seed).unwrap();
    Vcg::new(GenConfig { density_scale: 0.2, ..Default::default() }).generate(&hyper).unwrap()
}
