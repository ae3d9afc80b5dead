//! Dynamic entities: vehicles and pedestrians.
//!
//! Entity motion is a *closed-form* function of simulation time (a
//! constant speed along a closed path), so the state at any timestamp
//! can be computed directly — no stepping, no accumulated error, and
//! trivially parallel across cameras and time ranges.

use vr_base::{LicensePlate, PedestrianId, VehicleId, VrRng};
use vr_frame::Rgb;
use vr_geom::{Aabb3, Path, Vec2, Vec3};

/// Rendered license-plate width in meters.
///
/// Real plates are ~0.5 m wide, which no supported resolution could
/// resolve into readable glyphs from a 10–20 m camera mast. Visual
/// City vehicles carry enlarged plates so that plate legibility
/// kicks in at the same camera distances where the paper's 1κ-4κ
/// OpenALPR pipeline becomes effective (see DESIGN.md substitutions).
pub const PLATE_WIDTH_M: f32 = 1.2;
/// Rendered license-plate height in meters.
pub const PLATE_HEIGHT_M: f32 = 0.6;

/// Object classes the benchmark queries over (Q2c's domain is
/// {Pedestrian, Vehicle}).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    Vehicle,
    Pedestrian,
}

impl ObjectClass {
    /// The constant overlay color `c_j` associated with the class
    /// (Q2c associates one color per class).
    pub fn color(&self) -> Rgb {
        match self {
            ObjectClass::Vehicle => Rgb::new(220, 40, 40),
            ObjectClass::Pedestrian => Rgb::new(40, 220, 40),
        }
    }
}

/// Pose of an entity at some instant.
#[derive(Debug, Clone, Copy)]
pub struct Pose {
    /// Ground position (tile-local meters).
    pub position: Vec2,
    /// Heading in radians.
    pub yaw: f32,
}

/// A vehicle circulating on a road loop.
#[derive(Debug, Clone)]
pub struct Vehicle {
    pub id: VehicleId,
    pub plate: LicensePlate,
    /// Closed path the vehicle drives (tile-local).
    pub route: Path,
    /// Speed in m/s.
    pub speed: f32,
    /// Initial arc-length offset along the route.
    pub s0: f32,
    /// Body dimensions (length, width, height) in meters.
    pub dims: (f32, f32, f32),
    /// Body color.
    pub color: Rgb,
}

/// Vehicle body color palette (distinct from the road surface and
/// from class-overlay colors).
const VEHICLE_COLORS: [Rgb; 8] = [
    Rgb::new(200, 200, 210),
    Rgb::new(30, 30, 38),
    Rgb::new(160, 30, 30),
    Rgb::new(30, 60, 150),
    Rgb::new(220, 220, 220),
    Rgb::new(90, 90, 100),
    Rgb::new(20, 110, 70),
    Rgb::new(190, 160, 60),
];

impl Vehicle {
    /// Spawn a vehicle on `route` with randomized speed, offset, size
    /// and color.
    pub(crate) fn spawn(id: VehicleId, route: Path, rng: &mut VrRng) -> Self {
        let length = rng.range_f32(3.8, 5.4);
        Self {
            id,
            plate: LicensePlate::random(rng),
            speed: rng.range_f32(4.0, 14.0),
            s0: rng.range_f32(0.0, route.length().max(1.0)),
            route,
            dims: (length, 1.9, rng.range_f32(1.4, 2.1)),
            color: *rng.choose(&VEHICLE_COLORS),
        }
    }

    /// Pose at simulation time `t` seconds.
    pub fn pose_at(&self, t: f64) -> Pose {
        let s = self.s0 + self.speed * t as f32;
        let position = self.route.position_looped(s);
        let dir = self.route.direction_looped(s);
        Pose { position, yaw: dir.y.atan2(dir.x) }
    }

    /// The eight corners of the *oriented* body box at time `t`;
    /// ground truth projects these for 2D boxes.
    pub(crate) fn obb_corners_at(&self, t: f64, tile_origin: Vec2) -> [Vec3; 8] {
        let pose = self.pose_at(t);
        let fwd = Vec2::new(pose.yaw.cos(), pose.yaw.sin());
        let side = fwd.perp();
        let c = pose.position + tile_origin;
        let (hl, hw, hh) = (self.dims.0 / 2.0, self.dims.1 / 2.0, self.dims.2);
        let mut out = [Vec3::ZERO; 8];
        let mut i = 0;
        for &f in &[-hl, hl] {
            for &s in &[-hw, hw] {
                for &z in &[0.0, hh] {
                    out[i] = Vec3::from_ground(c + fwd * f + side * s, z);
                    i += 1;
                }
            }
        }
        out
    }

    /// World position of the center of the front-facing license plate
    /// at time `t`, plus the outward normal of the plate.
    pub(crate) fn plate_at(&self, t: f64, tile_origin: Vec2) -> (Vec3, Vec3) {
        let pose = self.pose_at(t);
        let forward = Vec2::new(pose.yaw.cos(), pose.yaw.sin());
        let pos = pose.position + tile_origin + forward * (self.dims.0 / 2.0);
        (Vec3::from_ground(pos, 0.3 + PLATE_HEIGHT_M / 2.0), Vec3::from_ground(forward, 0.0))
    }
}

/// A pedestrian walking a sidewalk loop.
#[derive(Debug, Clone)]
pub struct Pedestrian {
    pub id: PedestrianId,
    pub route: Path,
    /// Walking speed in m/s.
    pub speed: f32,
    /// Initial arc-length offset.
    pub s0: f32,
    /// Height in meters.
    pub height: f32,
    /// Clothing color.
    pub color: Rgb,
}

impl Pedestrian {
    /// Spawn a pedestrian on `route` with randomized parameters.
    pub(crate) fn spawn(id: PedestrianId, route: Path, rng: &mut VrRng) -> Self {
        let color = Rgb::new(
            rng.range(40, 230) as u8,
            rng.range(40, 230) as u8,
            rng.range(40, 230) as u8,
        );
        Self {
            id,
            speed: rng.range_f32(0.7, 2.2),
            s0: rng.range_f32(0.0, route.length().max(1.0)),
            route,
            height: rng.range_f32(1.5, 1.95),
            color,
        }
    }

    /// Pose at simulation time `t` seconds.
    pub fn pose_at(&self, t: f64) -> Pose {
        let s = self.s0 + self.speed * t as f32;
        let position = self.route.position_looped(s);
        let dir = self.route.direction_looped(s);
        Pose { position, yaw: dir.y.atan2(dir.x) }
    }

    /// World-space bounding box at time `t`.
    pub(crate) fn aabb_at(&self, t: f64, tile_origin: Vec2) -> Aabb3 {
        let pose = self.pose_at(t);
        let center = Vec3::from_ground(pose.position + tile_origin, self.height / 2.0);
        Aabb3::centered(center, 0.55, 0.55, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_route() -> Path {
        Path::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(0.0, 100.0),
            Vec2::new(0.0, 0.0),
        ])
    }

    #[test]
    fn vehicle_motion_is_continuous() {
        let mut rng = VrRng::seed_from(1);
        let v = Vehicle::spawn(VehicleId(0), square_route(), &mut rng);
        let dt = 0.1;
        let mut prev = v.pose_at(0.0).position;
        for i in 1..200 {
            let cur = v.pose_at(i as f64 * dt).position;
            let step = prev.distance(cur);
            assert!(
                step <= v.speed * dt as f32 * 1.8 + 1e-3,
                "discontinuous jump of {step} m at step {i}"
            );
            prev = cur;
        }
    }

    #[test]
    fn vehicle_loops_periodically() {
        let mut rng = VrRng::seed_from(2);
        let v = Vehicle::spawn(VehicleId(1), square_route(), &mut rng);
        let period = (400.0 / v.speed) as f64;
        let a = v.pose_at(3.0);
        let b = v.pose_at(3.0 + period);
        assert!(a.position.distance(b.position) < 0.01);
    }

    #[test]
    fn poses_are_deterministic_per_seed() {
        let mut r1 = VrRng::seed_from(3);
        let mut r2 = VrRng::seed_from(3);
        let v1 = Vehicle::spawn(VehicleId(0), square_route(), &mut r1);
        let v2 = Vehicle::spawn(VehicleId(0), square_route(), &mut r2);
        assert_eq!(v1.plate, v2.plate);
        assert_eq!(v1.pose_at(7.3).position, v2.pose_at(7.3).position);
    }

    #[test]
    fn plate_is_at_vehicle_front() {
        let mut rng = VrRng::seed_from(4);
        let v = Vehicle::spawn(VehicleId(0), square_route(), &mut rng);
        let t = 1.0;
        let pose = v.pose_at(t);
        let (plate_pos, normal) = v.plate_at(t, Vec2::ZERO);
        let offset = plate_pos.ground() - pose.position;
        // Plate sits half a body-length ahead of the center ...
        assert!((offset.length() - v.dims.0 / 2.0).abs() < 0.01);
        assert!((plate_pos.z - (0.3 + PLATE_HEIGHT_M / 2.0)).abs() < 1e-6);
        // ... facing the direction of travel.
        assert!(normal.ground().dot(offset.normalized().unwrap()) > 0.99);
    }

    #[test]
    fn pedestrians_are_slower_than_vehicles() {
        let mut rng = VrRng::seed_from(5);
        for i in 0..50 {
            let v = Vehicle::spawn(VehicleId(i), square_route(), &mut rng);
            let p = Pedestrian::spawn(PedestrianId(i), square_route(), &mut rng);
            assert!(p.speed < v.speed + 0.1);
            assert!(p.height > 1.0 && p.height < 2.2);
        }
    }

    #[test]
    fn class_colors_are_distinct() {
        assert_ne!(ObjectClass::Vehicle.color(), ObjectClass::Pedestrian.color());
    }
}
