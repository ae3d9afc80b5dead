//! The 72-tile pool (§5): 2 base maps × 12 weather configurations ×
//! 3 vehicle/pedestrian densities.

use crate::weather::{Weather, ALL_WEATHER};
use vr_base::VrRng;

/// Number of tiles in the Visual Road 1.0 pool.
pub(crate) const TILE_POOL_SIZE: usize = 72;

/// Base map geometry a tile is built from (the paper uses CARLA's
/// TOWN01 and TOWN02 resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// A rectangular street grid.
    Town01,
    /// A ring road with crossing avenues.
    Town02,
    /// A procedurally-generated street layout (the paper's future-work
    /// extension); the payload selects the variant.
    Procedural(u8),
}

/// Vehicle/pedestrian density tier. The paper's "rush hour" tile
/// contains 120 vehicles and 512 pedestrians (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Density {
    Light,
    Medium,
    RushHour,
}

impl Density {
    /// Nominal vehicle count per tile at full simulation scale.
    pub(crate) fn vehicles(&self) -> u32 {
        match self {
            Density::Light => 20,
            Density::Medium => 60,
            Density::RushHour => 120,
        }
    }

    /// Nominal pedestrian count per tile at full simulation scale.
    pub(crate) fn pedestrians(&self) -> u32 {
        match self {
            Density::Light => 64,
            Density::Medium => 200,
            Density::RushHour => 512,
        }
    }
}

/// One entry of the tile pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileSpec {
    pub map: MapKind,
    pub weather: Weather,
    pub density: Density,
}

/// The full 72-entry pool, in a fixed deterministic order.
pub(crate) fn tile_pool() -> Vec<TileSpec> {
    let mut pool = Vec::with_capacity(TILE_POOL_SIZE);
    for map in [MapKind::Town01, MapKind::Town02] {
        for weather in ALL_WEATHER {
            for density in [Density::Light, Density::Medium, Density::RushHour] {
                pool.push(TileSpec { map, weather, density });
            }
        }
    }
    pool
}

/// The base pool extended with `variants` procedurally-generated map
/// layouts, each crossed with every weather and density — the paper's
/// "support increasingly complex procedurally-generated tiles" future
/// work. `variants = 0` gives the version-1.0 pool.
pub(crate) fn tile_pool_extended(variants: u8) -> Vec<TileSpec> {
    let mut pool = tile_pool();
    for v in 0..variants {
        for weather in ALL_WEATHER {
            for density in [Density::Light, Density::Medium, Density::RushHour] {
                pool.push(TileSpec { map: MapKind::Procedural(v), weather, density });
            }
        }
    }
    pool
}

/// Draw a tile spec uniformly with replacement from the extended pool
/// (§3.1: "each tile is drawn uniformly with replacement from a pool of
/// tiles").
pub(crate) fn draw_tile_extended(rng: &mut VrRng, variants: u8) -> TileSpec {
    let pool = tile_pool_extended(variants);
    *rng.choose(&pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_72_distinct_tiles() {
        let pool = tile_pool();
        assert_eq!(pool.len(), TILE_POOL_SIZE);
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), TILE_POOL_SIZE);
    }

    #[test]
    fn rush_hour_matches_paper() {
        assert_eq!(Density::RushHour.vehicles(), 120);
        assert_eq!(Density::RushHour.pedestrians(), 512);
        assert!(Density::Light.vehicles() < Density::Medium.vehicles());
        assert!(Density::Medium.pedestrians() < Density::RushHour.pedestrians());
    }

    #[test]
    fn extended_pool_grows_by_36_per_variant() {
        assert_eq!(tile_pool_extended(0).len(), 72);
        assert_eq!(tile_pool_extended(1).len(), 72 + 36);
        assert_eq!(tile_pool_extended(4).len(), 72 + 144);
        // Extended entries are distinct from the base pool.
        let set: std::collections::HashSet<_> =
            tile_pool_extended(2).into_iter().collect();
        assert_eq!(set.len(), 72 + 72);
    }

    #[test]
    fn draws_are_deterministic_and_cover_pool() {
        let mut a = VrRng::seed_from(5);
        let mut b = VrRng::seed_from(5);
        for _ in 0..100 {
            assert_eq!(draw_tile_extended(&mut a, 0), draw_tile_extended(&mut b, 0));
        }
        // With enough draws, a large part of the pool appears.
        let mut rng = VrRng::seed_from(6);
        let seen: std::collections::HashSet<_> =
            (0..2000).map(|_| draw_tile_extended(&mut rng, 0)).collect();
        assert!(seen.len() > 60, "only {} of 72 tiles drawn", seen.len());
    }
}
