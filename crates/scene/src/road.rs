//! Road networks for the two base maps.
//!
//! Coordinates are tile-local meters in `[0, TILE_SIZE]²`. Roads are
//! centerline segments with a width; vehicles circulate on closed
//! loops derived from the network, pedestrians on sidewalk loops
//! offset outward from the roads.

use crate::tilepool::MapKind;
use vr_base::VrRng;
use vr_geom::{Path, Vec2};

/// Tile edge length in meters. (The paper's tiles are "several square
//  kilometers"; the simulation scales distances down uniformly, which
/// leaves camera-relative geometry — and therefore video content —
/// unchanged.)
pub(crate) const TILE_SIZE: f32 = 256.0;

/// Road width in meters (two lanes).
pub const ROAD_WIDTH: f32 = 8.0;

/// Sidewalk offset from the road centerline.
pub const SIDEWALK_OFFSET: f32 = ROAD_WIDTH / 2.0 + 2.0;

/// A straight road segment (centerline + width).
#[derive(Debug, Clone, Copy)]
pub struct RoadSegment {
    pub a: Vec2,
    pub b: Vec2,
    pub width: f32,
}

impl RoadSegment {
    /// Point at parameter `t ∈ [0, 1]` along the centerline.
    pub(crate) fn point_at(&self, t: f32) -> Vec2 {
        self.a.lerp(self.b, t)
    }
}

/// A tile's road network.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    /// Centerline segments (for rendering the road surface).
    pub segments: Vec<RoadSegment>,
    /// Closed loops vehicles circulate on.
    pub vehicle_loops: Vec<Path>,
    /// Closed loops pedestrians walk on (offset from roads).
    pub sidewalk_loops: Vec<Path>,
}

impl RoadNetwork {
    /// Build the network for a base map.
    pub(crate) fn generate(map: MapKind) -> Self {
        match map {
            MapKind::Town01 => grid_town(),
            MapKind::Town02 => ring_town(),
            MapKind::Procedural(variant) => procedural_town(variant),
        }
    }
}

/// A procedurally-generated street layout (the paper's future-work
/// "increasingly complex procedurally-generated tiles"): a seeded
/// irregular grid of 2–4 avenues per axis with block loops derived
/// from adjacent road pairs.
fn procedural_town(variant: u8) -> RoadNetwork {
    let mut rng = VrRng::seed_from(0x9C0C_ED00 ^ variant as u64);
    let axis_positions = |rng: &mut VrRng| -> Vec<f32> {
        let n = rng.range(2, 4);
        let mut xs: Vec<f32> = Vec::new();
        let mut attempts = 0;
        while xs.len() < n && attempts < 50 {
            attempts += 1;
            let c = rng.range_f32(40.0, TILE_SIZE - 40.0);
            if xs.iter().all(|&x| (x - c).abs() >= 48.0) {
                xs.push(c);
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs
    };
    let cols = axis_positions(&mut rng);
    let rows = axis_positions(&mut rng);
    let mut segments = Vec::new();
    for &c in &cols {
        segments.push(RoadSegment {
            a: Vec2::new(c, 16.0),
            b: Vec2::new(c, TILE_SIZE - 16.0),
            width: ROAD_WIDTH,
        });
    }
    for &r in &rows {
        segments.push(RoadSegment {
            a: Vec2::new(16.0, r),
            b: Vec2::new(TILE_SIZE - 16.0, r),
            width: ROAD_WIDTH,
        });
    }
    let lane = ROAD_WIDTH / 4.0;
    let mut vehicle_loops = Vec::new();
    let mut sidewalk_loops = Vec::new();
    for ci in 0..cols.len().saturating_sub(1) {
        for ri in 0..rows.len().saturating_sub(1) {
            vehicle_loops.push(rect_loop(
                cols[ci] + lane,
                rows[ri] + lane,
                cols[ci + 1] - lane,
                rows[ri + 1] - lane,
            ));
            sidewalk_loops.push(rect_loop(
                cols[ci] + SIDEWALK_OFFSET,
                rows[ri] + SIDEWALK_OFFSET,
                cols[ci + 1] - SIDEWALK_OFFSET,
                rows[ri + 1] - SIDEWALK_OFFSET,
            ));
        }
    }
    // Outer perimeter loop keeps single-avenue layouts drivable.
    let (c0, c1) = (*cols.first().unwrap(), *cols.last().unwrap());
    let (r0, r1) = (*rows.first().unwrap(), *rows.last().unwrap());
    vehicle_loops.push(rect_loop(c0 - lane, r0 - lane, c1 + lane, r1 + lane));
    if sidewalk_loops.is_empty() {
        sidewalk_loops.push(rect_loop(
            c0 - SIDEWALK_OFFSET,
            r0 - SIDEWALK_OFFSET,
            c1 + SIDEWALK_OFFSET,
            r1 + SIDEWALK_OFFSET,
        ));
    }
    RoadNetwork { segments, vehicle_loops, sidewalk_loops }
}

/// TOWN01 analogue: a 3×3 street grid.
fn grid_town() -> RoadNetwork {
    let coords = [48.0f32, 128.0, 208.0];
    let mut segments = Vec::new();
    for &c in &coords {
        segments.push(RoadSegment {
            a: Vec2::new(c, 16.0),
            b: Vec2::new(c, TILE_SIZE - 16.0),
            width: ROAD_WIDTH,
        });
        segments.push(RoadSegment {
            a: Vec2::new(16.0, c),
            b: Vec2::new(TILE_SIZE - 16.0, c),
            width: ROAD_WIDTH,
        });
    }
    // Vehicle loops: the four inner blocks, traversed clockwise, each
    // running along road centerlines (offset by a lane half-width so
    // opposing loops don't overlap exactly).
    let lane = ROAD_WIDTH / 4.0;
    let mut vehicle_loops = Vec::new();
    for by in 0..2 {
        for bx in 0..2 {
            let x0 = coords[bx] + lane;
            let x1 = coords[bx + 1] - lane;
            let y0 = coords[by] + lane;
            let y1 = coords[by + 1] - lane;
            vehicle_loops.push(rect_loop(x0, y0, x1, y1));
        }
    }
    // Outer loop around the whole grid.
    vehicle_loops.push(rect_loop(
        coords[0] - lane,
        coords[0] - lane,
        coords[2] + lane,
        coords[2] + lane,
    ));
    // Sidewalk loops: outside each block, offset outward.
    let mut sidewalk_loops = Vec::new();
    for by in 0..2 {
        for bx in 0..2 {
            let x0 = coords[bx] + SIDEWALK_OFFSET;
            let x1 = coords[bx + 1] - SIDEWALK_OFFSET;
            let y0 = coords[by] + SIDEWALK_OFFSET;
            let y1 = coords[by + 1] - SIDEWALK_OFFSET;
            sidewalk_loops.push(rect_loop(x0, y0, x1, y1));
        }
    }
    RoadNetwork { segments, vehicle_loops, sidewalk_loops }
}

/// TOWN02 analogue: a ring road with two crossing avenues.
fn ring_town() -> RoadNetwork {
    let lo = 40.0f32;
    let hi = TILE_SIZE - 40.0;
    let mid = TILE_SIZE / 2.0;
    let segments = vec![
        RoadSegment { a: Vec2::new(lo, lo), b: Vec2::new(hi, lo), width: ROAD_WIDTH },
        RoadSegment { a: Vec2::new(hi, lo), b: Vec2::new(hi, hi), width: ROAD_WIDTH },
        RoadSegment { a: Vec2::new(hi, hi), b: Vec2::new(lo, hi), width: ROAD_WIDTH },
        RoadSegment { a: Vec2::new(lo, hi), b: Vec2::new(lo, lo), width: ROAD_WIDTH },
        RoadSegment { a: Vec2::new(mid, lo), b: Vec2::new(mid, hi), width: ROAD_WIDTH },
        RoadSegment { a: Vec2::new(lo, mid), b: Vec2::new(hi, mid), width: ROAD_WIDTH },
    ];
    let lane = ROAD_WIDTH / 4.0;
    let vehicle_loops = vec![
        rect_loop(lo + lane, lo + lane, hi - lane, hi - lane),
        rect_loop(lo + lane, lo + lane, mid - lane, mid - lane),
        rect_loop(mid + lane, mid + lane, hi - lane, hi - lane),
        rect_loop(lo + lane, mid + lane, mid - lane, hi - lane),
        rect_loop(mid + lane, lo + lane, hi - lane, mid - lane),
    ];
    let sidewalk_loops = vec![
        rect_loop(
            lo + SIDEWALK_OFFSET,
            lo + SIDEWALK_OFFSET,
            hi - SIDEWALK_OFFSET,
            hi - SIDEWALK_OFFSET,
        ),
        rect_loop(
            lo - SIDEWALK_OFFSET,
            lo - SIDEWALK_OFFSET,
            hi + SIDEWALK_OFFSET,
            hi + SIDEWALK_OFFSET,
        ),
    ];
    RoadNetwork { segments, vehicle_loops, sidewalk_loops }
}

/// A closed rectangular path (clockwise, first point repeated last).
fn rect_loop(x0: f32, y0: f32, x1: f32, y1: f32) -> Path {
    Path::new(vec![
        Vec2::new(x0, y0),
        Vec2::new(x1, y0),
        Vec2::new(x1, y1),
        Vec2::new(x0, y1),
        Vec2::new(x0, y0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_maps_generate() {
        for map in [MapKind::Town01, MapKind::Town02, MapKind::Procedural(3)] {
            let net = RoadNetwork::generate(map);
            assert!(!net.segments.is_empty());
            assert!(!net.vehicle_loops.is_empty());
            assert!(!net.sidewalk_loops.is_empty());
            // Every loop is closed and has positive length.
            for l in net.vehicle_loops.iter().chain(&net.sidewalk_loops) {
                assert!(l.length() > 10.0);
                let pts = l.points();
                assert_eq!(pts[0], *pts.last().unwrap(), "loop must close");
            }
        }
    }

    #[test]
    fn maps_are_distinct() {
        let g = RoadNetwork::generate(MapKind::Town01);
        let r = RoadNetwork::generate(MapKind::Town02);
        // The layouts differ: the grid's first segment is not the
        // ring's, and total centerline length differs too.
        let total = |net: &RoadNetwork| -> f32 {
            net.segments.iter().map(|s| s.a.distance(s.b)).sum()
        };
        assert!((total(&g) - total(&r)).abs() > 50.0);
    }

    #[test]
    fn geometry_stays_inside_tile() {
        for map in [MapKind::Town01, MapKind::Town02, MapKind::Procedural(0)] {
            let net = RoadNetwork::generate(map);
            for s in &net.segments {
                for p in [s.a, s.b] {
                    assert!(p.x >= 0.0 && p.x <= TILE_SIZE);
                    assert!(p.y >= 0.0 && p.y <= TILE_SIZE);
                }
            }
            for l in &net.vehicle_loops {
                for p in l.points() {
                    assert!(p.x >= 0.0 && p.x <= TILE_SIZE, "loop point {p:?}");
                    assert!(p.y >= 0.0 && p.y <= TILE_SIZE);
                }
            }
        }
    }

    #[test]
    fn procedural_variants_differ_and_are_deterministic() {
        let a1 = RoadNetwork::generate(MapKind::Procedural(1));
        let a2 = RoadNetwork::generate(MapKind::Procedural(1));
        assert_eq!(a1.segments.len(), a2.segments.len());
        for (s1, s2) in a1.segments.iter().zip(&a2.segments) {
            assert_eq!(s1.a, s2.a);
            assert_eq!(s1.b, s2.b);
        }
        // Different variants usually differ in layout; check a few.
        let layouts: std::collections::HashSet<String> = (0..8u8)
            .map(|v| {
                RoadNetwork::generate(MapKind::Procedural(v))
                    .segments
                    .iter()
                    .map(|s| format!("{:.0},{:.0};", s.a.x, s.a.y))
                    .collect()
            })
            .collect();
        assert!(layouts.len() >= 4, "procedural variants too uniform");
    }

    #[test]
    fn segment_helpers() {
        let s = RoadSegment { a: Vec2::new(0.0, 0.0), b: Vec2::new(10.0, 0.0), width: 8.0 };
        assert_eq!(s.point_at(0.5), Vec2::new(5.0, 0.0));
    }
}
