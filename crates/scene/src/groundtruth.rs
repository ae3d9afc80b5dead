//! Automatic ground truth (§2, §3.2).
//!
//! "If a VDBMS query result indicates that a pedestrian is present in
//! frame *i* of video *j*, Visual Road is able to evaluate the
//! geometry of the scene that produced the video and automatically
//! determine whether this result is correct."
//!
//! Ground truth is computed directly from scene geometry: entity
//! bounding boxes are projected through the camera, and occlusion is
//! decided by ray tests against the tile's buildings. The VCG writes
//! each traffic camera's unoccluded truth objects into its container's
//! metadata track as `OutputBox` rows.

use crate::city::{CityCamera, VisualCity};
use crate::entity::ObjectClass;
use vr_base::LicensePlate;
use vr_geom::{Rect, Vec3};

/// Maximum distance at which an entity is enumerated in ground truth.
/// Deliberately generous: evaluation protocols need to know about
/// far-away objects too (to ignore detections of them rather than
/// count them as false positives).
pub(crate) const MAX_VISIBLE_DISTANCE: f32 = 400.0;
/// Minimum projected box area (px²) for an entity to be enumerated.
pub(crate) const MIN_VISIBLE_AREA: u64 = 6;
/// Minimum projected plate width (px) for a plate to be readable —
/// calibrated to the block-code recognizer's resolving power (seven
/// 2-wide code cells need roughly this many pixels).
pub(crate) const MIN_PLATE_WIDTH_PX: f32 = 26.0;
/// Minimum projected plate height (px): three block rows.
pub(crate) const MIN_PLATE_HEIGHT_PX: f32 = 9.0;
/// Minimum cosine between the plate normal and the camera direction:
/// past ~60° off-axis the code blocks smear into each other.
pub(crate) const MIN_PLATE_FACING: f32 = 0.5;

/// One object visible (or occluded) in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthObject {
    pub class: ObjectClass,
    /// Entity id within its tile.
    pub entity_id: u32,
    /// Projected bounding rectangle, clipped to the frame.
    pub rect: Rect,
    /// Distance from the camera to the entity center (m).
    pub distance: f32,
    /// Whether a building occludes the line of sight.
    pub occluded: bool,
    /// The vehicle's license plate (vehicles only).
    pub plate: Option<LicensePlate>,
    /// Whether the plate is identifiable: front-facing, large enough
    /// on screen, and unobstructed (drives Q8's entry/exit semantics).
    pub plate_visible: bool,
}

/// Ground truth for one (camera, timestamp) pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameTruth {
    pub objects: Vec<TruthObject>,
}

impl FrameTruth {
    /// Visible (non-occluded) objects of a class.
    pub fn visible(&self, class: ObjectClass) -> impl Iterator<Item = &TruthObject> {
        self.objects.iter().filter(move |o| o.class == class && !o.occluded)
    }
}

/// Compute the ground truth for `camera` at simulation time `t`
/// seconds, for a frame of `width`×`height` pixels.
pub fn frame_truth(
    city: &VisualCity,
    camera: &CityCamera,
    t: f64,
    width: u32,
    height: u32,
) -> FrameTruth {
    let tile = city.tile(camera.tile);
    let origin = city.tile_origin(camera.tile);
    let cam = &camera.camera;
    let mut objects = Vec::new();

    for v in &tile.vehicles {
        let corners = v.obb_corners_at(t, origin);
        if let Some(obj) = project_corners(
            city,
            camera,
            ObjectClass::Vehicle,
            v.id.0,
            &corners,
            width,
            height,
        ) {
            // Plate visibility: front-facing enough to resolve the
            // code, unoccluded, and large enough *after projection*
            // (the projected quad accounts for foreshortening in both
            // axes).
            let (plate_pos, plate_normal) = v.plate_at(t, origin);
            let to_cam = cam.position - plate_pos;
            let facing =
                plate_normal.dot(to_cam.normalized().unwrap_or(Vec3::UP)) > MIN_PLATE_FACING;
            let plate_rect = project_plate_quad(cam, plate_pos, plate_normal, width, height);
            let plate_visible = facing
                && !obj.occluded
                && plate_rect
                    .map(|r| {
                        r.width() as f32 >= MIN_PLATE_WIDTH_PX
                            && r.height() as f32 >= MIN_PLATE_HEIGHT_PX
                            && !r.clipped(width, height).is_empty()
                            && r.clipped(width, height).area() == r.area()
                    })
                    .unwrap_or(false);
            objects.push(TruthObject {
                plate: Some(v.plate),
                plate_visible,
                ..obj
            });
        }
    }
    for p in &tile.pedestrians {
        let aabb = p.aabb_at(t, origin);
        if let Some(obj) = project_entity(
            city,
            camera,
            ObjectClass::Pedestrian,
            p.id.0,
            aabb,
            width,
            height,
        ) {
            objects.push(obj);
        }
    }
    FrameTruth { objects }
}

/// Project the four corners of a plate quad; `None` when any corner
/// is behind the camera.
fn project_plate_quad(
    cam: &vr_geom::Camera,
    center: Vec3,
    normal: Vec3,
    width: u32,
    height: u32,
) -> Option<Rect> {
    let side = Vec3::new(-normal.y, normal.x, 0.0);
    let half_w = crate::entity::PLATE_WIDTH_M / 2.0;
    let half_h = crate::entity::PLATE_HEIGHT_M / 2.0;
    let corners = [
        center + side * half_w + Vec3::UP * half_h,
        center + side * half_w - Vec3::UP * half_h,
        center - side * half_w + Vec3::UP * half_h,
        center - side * half_w - Vec3::UP * half_h,
    ];
    let mut min_x = f32::MAX;
    let mut min_y = f32::MAX;
    let mut max_x = f32::MIN;
    let mut max_y = f32::MIN;
    for c in corners {
        let (x, y, _) = cam.project(c, width, height)?;
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    Some(Rect::new(
        min_x.floor() as i32,
        min_y.floor() as i32,
        max_x.ceil() as i32,
        max_y.ceil() as i32,
    ))
}

/// Project one entity's axis-aligned box; `None` when it is
/// off-frame, too far, or too small.
fn project_entity(
    city: &VisualCity,
    camera: &CityCamera,
    class: ObjectClass,
    entity_id: u32,
    aabb: vr_geom::Aabb3,
    width: u32,
    height: u32,
) -> Option<TruthObject> {
    project_corners(city, camera, class, entity_id, &aabb.corners(), width, height)
}

/// Project a set of world-space corner points into a 2D truth box.
fn project_corners(
    city: &VisualCity,
    camera: &CityCamera,
    class: ObjectClass,
    entity_id: u32,
    corners: &[Vec3; 8],
    width: u32,
    height: u32,
) -> Option<TruthObject> {
    let cam = &camera.camera;
    let center = {
        let mut c = Vec3::ZERO;
        for p in corners {
            c += *p;
        }
        c / 8.0
    };
    let distance = cam.position.distance(center);
    if distance > MAX_VISIBLE_DISTANCE {
        return None;
    }
    // Project all eight corners; require every corner in front of the
    // camera (entities are small; partial straddles are rare and
    // treated as not-visible).
    let mut min_x = f32::MAX;
    let mut min_y = f32::MAX;
    let mut max_x = f32::MIN;
    let mut max_y = f32::MIN;
    for corner in corners.iter().copied() {
        let (x, y, _) = cam.project(corner, width, height)?;
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    let rect = Rect::new(
        min_x.floor() as i32,
        min_y.floor() as i32,
        max_x.ceil() as i32,
        max_y.ceil() as i32,
    )
    .clipped(width, height);
    if rect.is_empty() || rect.area() < MIN_VISIBLE_AREA {
        return None;
    }
    // Occlusion: ray from the camera to the entity center, tested
    // against the tile's buildings.
    let tile = city.tile(camera.tile);
    let dir = (center - cam.position).normalized()?;
    let occluded = tile
        .buildings
        .iter()
        .any(|b| {
            let world = offset_aabb(b.aabb, city.tile_origin(camera.tile));
            world.ray_hit(cam.position, dir, distance * 0.98).is_some()
        });
    Some(TruthObject {
        class,
        entity_id,
        rect,
        distance,
        occluded,
        plate: None,
        plate_visible: false,
    })
}

fn offset_aabb(aabb: vr_geom::Aabb3, origin: vr_geom::Vec2) -> vr_geom::Aabb3 {
    aabb.translated(Vec3::from_ground(origin, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::{Duration, Hyperparameters, Resolution};

    fn city() -> VisualCity {
        let h = Hyperparameters::new(2, Resolution::K1, Duration::from_secs(10.0), 20).unwrap();
        VisualCity::generate(&h, 0.3)
    }

    #[test]
    fn some_camera_sees_something() {
        let city = city();
        let mut total = 0usize;
        for cam in city.cameras() {
            for step in 0..5 {
                let truth = frame_truth(&city, cam, step as f64 * 2.0, 960, 540);
                total += truth.objects.len();
            }
        }
        assert!(total > 0, "no camera ever saw any entity");
    }

    #[test]
    fn rects_are_clipped_to_frame() {
        let city = city();
        for cam in city.cameras() {
            let truth = frame_truth(&city, cam, 1.0, 320, 180);
            for o in &truth.objects {
                assert!(o.rect.x0 >= 0 && o.rect.y0 >= 0);
                assert!(o.rect.x1 <= 320 && o.rect.y1 <= 180);
                assert!(o.rect.area() >= MIN_VISIBLE_AREA);
                assert!(o.distance <= MAX_VISIBLE_DISTANCE);
            }
        }
    }

    #[test]
    fn truth_is_deterministic() {
        let a = city();
        let b = city();
        let cam_a = &a.cameras()[0];
        let cam_b = &b.cameras()[0];
        assert_eq!(
            frame_truth(&a, cam_a, 3.0, 480, 270),
            frame_truth(&b, cam_b, 3.0, 480, 270)
        );
    }

    #[test]
    fn vehicles_carry_plates_pedestrians_do_not() {
        let city = city();
        for cam in city.cameras() {
            let truth = frame_truth(&city, cam, 0.5, 960, 540);
            for o in &truth.objects {
                match o.class {
                    ObjectClass::Vehicle => assert!(o.plate.is_some()),
                    ObjectClass::Pedestrian => {
                        assert!(o.plate.is_none());
                        assert!(!o.plate_visible);
                    }
                }
            }
        }
    }

    #[test]
    fn plate_visibility_happens_sometimes() {
        // Across a few seconds of a medium-density city some vehicle
        // should present a readable plate to some traffic camera.
        let city = city();
        let mut any = false;
        'outer: for cam in city.traffic_cameras() {
            for step in 0..30 {
                let truth = frame_truth(&city, cam, step as f64 * 0.5, 960, 540);
                if truth.objects.iter().any(|o| o.plate_visible) {
                    any = true;
                    break 'outer;
                }
            }
        }
        assert!(any, "no plate ever became identifiable");
    }
}
