//! Tile construction: a populated patch of Visual City.

use crate::entity::{Pedestrian, Vehicle};
use crate::road::{RoadNetwork, ROAD_WIDTH, TILE_SIZE};
use crate::tilepool::TileSpec;
use crate::weather::Weather;
use vr_base::{PedestrianId, VehicleId, VrRng};
use vr_frame::Rgb;
use vr_geom::{Aabb3, Vec2, Vec3};

/// A static building (box) with a facade color.
#[derive(Debug, Clone)]
pub struct Building {
    /// Tile-local bounding box (ground at z = 0).
    pub aabb: Aabb3,
    pub color: Rgb,
}

/// A piece of landscaping (rendered as a green column).
#[derive(Debug, Clone)]
pub struct Tree {
    pub position: Vec2,
    pub height: f32,
}

/// One instantiated tile: geometry plus the dynamic population.
///
/// "Each tile is configured and populated using a tile-specific
/// configuration (e.g., pedestrians and vehicles are randomly spawned
/// in number and locations specific to that tile)" — §3.1.
#[derive(Debug, Clone)]
pub struct Tile {
    pub spec: TileSpec,
    pub network: RoadNetwork,
    pub vehicles: Vec<Vehicle>,
    pub pedestrians: Vec<Pedestrian>,
    pub buildings: Vec<Building>,
    pub trees: Vec<Tree>,
}

/// Facade palette.
const BUILDING_COLORS: [Rgb; 6] = [
    Rgb::new(170, 150, 130),
    Rgb::new(140, 140, 150),
    Rgb::new(185, 170, 140),
    Rgb::new(120, 110, 100),
    Rgb::new(160, 130, 110),
    Rgb::new(150, 160, 170),
];

impl Tile {
    /// Build a tile from its spec and seed.
    ///
    /// `density_scale` multiplies the spec's nominal entity counts so
    /// in-session experiments can run with lighter populations without
    /// changing the tile's character (1.0 = the paper's counts).
    pub(crate) fn generate(spec: TileSpec, seed: u64, density_scale: f64) -> Self {
        let mut rng = VrRng::seed_from(seed);
        let network = RoadNetwork::generate(spec.map);

        let n_vehicles =
            ((spec.density.vehicles() as f64 * density_scale).round() as u32).max(1);
        let n_pedestrians =
            ((spec.density.pedestrians() as f64 * density_scale).round() as u32).max(1);

        let vehicles: Vec<Vehicle> = (0..n_vehicles)
            .map(|i| {
                let route = rng.choose(&network.vehicle_loops).clone();
                Vehicle::spawn(VehicleId(i), route, &mut rng)
            })
            .collect();
        let pedestrians: Vec<Pedestrian> = (0..n_pedestrians)
            .map(|i| {
                let route = rng.choose(&network.sidewalk_loops).clone();
                Pedestrian::spawn(PedestrianId(i), route, &mut rng)
            })
            .collect();

        // Buildings: rejection-sample positions that keep clear of the
        // road corridors.
        let mut buildings = Vec::new();
        let n_buildings = rng.range(12, 28);
        let mut attempts = 0;
        while buildings.len() < n_buildings && attempts < 400 {
            attempts += 1;
            let w = rng.range_f32(10.0, 28.0);
            let d = rng.range_f32(10.0, 28.0);
            let h = rng.range_f32(8.0, 42.0);
            let cx = rng.range_f32(20.0, TILE_SIZE - 20.0);
            let cy = rng.range_f32(20.0, TILE_SIZE - 20.0);
            let clearance = w.max(d) / 2.0 + ROAD_WIDTH / 2.0 + 3.0;
            if min_distance_to_roads(&network, Vec2::new(cx, cy)) < clearance {
                continue;
            }
            let center = Vec3::new(cx, cy, h / 2.0);
            buildings.push(Building {
                aabb: Aabb3::centered(center, w, d, h),
                color: *rng.choose(&BUILDING_COLORS),
            });
        }

        // Landscaping: trees between sidewalk and buildings.
        let n_trees = rng.range(15, 40);
        let mut trees = Vec::new();
        let mut attempts = 0;
        while trees.len() < n_trees && attempts < 300 {
            attempts += 1;
            let p = Vec2::new(
                rng.range_f32(8.0, TILE_SIZE - 8.0),
                rng.range_f32(8.0, TILE_SIZE - 8.0),
            );
            if min_distance_to_roads(&network, p) < ROAD_WIDTH / 2.0 + 1.0 {
                continue;
            }
            trees.push(Tree { position: p, height: rng.range_f32(3.0, 8.0) });
        }

        Self { spec, network, vehicles, pedestrians, buildings, trees }
    }

    /// The tile's weather configuration.
    pub fn weather(&self) -> Weather {
        self.spec.weather
    }
}

/// Distance from a point to the nearest road centerline.
fn min_distance_to_roads(network: &RoadNetwork, p: Vec2) -> f32 {
    network
        .segments
        .iter()
        .map(|s| point_segment_distance(p, s.a, s.b))
        .fold(f32::MAX, f32::min)
}

/// Distance from point `p` to segment `ab`.
fn point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> f32 {
    let ab = b - a;
    let len2 = ab.dot(ab);
    if len2 < 1e-9 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tilepool::{tile_pool, Density, MapKind};
    use crate::weather::ALL_WEATHER;

    fn spec() -> TileSpec {
        TileSpec { map: MapKind::Town01, weather: ALL_WEATHER[0], density: Density::Medium }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Tile::generate(spec(), 99, 0.5);
        let b = Tile::generate(spec(), 99, 0.5);
        assert_eq!(a.vehicles.len(), b.vehicles.len());
        assert_eq!(a.vehicles[0].plate, b.vehicles[0].plate);
        assert_eq!(a.buildings.len(), b.buildings.len());
        let c = Tile::generate(spec(), 100, 0.5);
        assert_ne!(a.vehicles[0].plate, c.vehicles[0].plate);
    }

    #[test]
    fn density_scale_reduces_population() {
        let full = Tile::generate(spec(), 1, 1.0);
        let light = Tile::generate(spec(), 1, 0.1);
        assert_eq!(full.vehicles.len(), 60); // Medium density
        assert_eq!(light.vehicles.len(), 6);
        assert_eq!(full.pedestrians.len(), 200);
        // Even scale 0 keeps at least one of each (cameras need
        // something to look at).
        let none = Tile::generate(spec(), 1, 0.0);
        assert_eq!(none.vehicles.len(), 1);
    }

    #[test]
    fn buildings_avoid_roads() {
        let tile = Tile::generate(spec(), 7, 0.2);
        assert!(!tile.buildings.is_empty());
        for b in &tile.buildings {
            let c = b.aabb.center();
            let dist = min_distance_to_roads(&tile.network, c.ground());
            assert!(dist > ROAD_WIDTH / 2.0, "building at {c:?} sits on a road");
        }
    }

    #[test]
    fn plates_are_unique_within_tile() {
        let tile = Tile::generate(spec(), 3, 1.0);
        let plates: std::collections::HashSet<_> =
            tile.vehicles.iter().map(|v| v.plate).collect();
        assert_eq!(plates.len(), tile.vehicles.len());
    }

    #[test]
    fn every_pool_tile_generates() {
        for (i, s) in tile_pool().into_iter().enumerate() {
            let tile = Tile::generate(s, i as u64, 0.05);
            assert!(!tile.vehicles.is_empty(), "tile {i}");
            assert!(!tile.network.segments.is_empty());
        }
    }

    #[test]
    fn point_segment_distance_basics() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        assert_eq!(point_segment_distance(Vec2::new(5.0, 3.0), a, b), 3.0);
        assert_eq!(point_segment_distance(Vec2::new(-4.0, 0.0), a, b), 4.0);
        assert_eq!(point_segment_distance(Vec2::new(13.0, 4.0), a, b), 5.0);
        assert_eq!(point_segment_distance(Vec2::new(1.0, 1.0), a, a), 2.0f32.sqrt());
    }
}
