//! City assembly: tiles plus cameras (§3.1, Figure 2).

use crate::road::TILE_SIZE;
use crate::tile::Tile;
use vr_base::{CameraId, CameraKind, Hyperparameters, TileId, VrRng};
use vr_geom::{Camera, Vec2, Vec3};

/// Gap between tiles in the disconnected grid layout.
pub(crate) const TILE_GAP: f32 = 64.0;

/// Traffic cameras per tile (`c_t` in the camera configuration
/// `C = {c_t, c_p} = {4, 1}`, §3.1).
pub(crate) const TRAFFIC_CAMERAS_PER_TILE: u32 = 4;
/// Panoramic rigs per tile (`c_p`).
pub(crate) const PANORAMIC_RIGS_PER_TILE: u32 = 1;
/// 2D faces per panoramic rig (four 120° cameras, §3.1).
pub(crate) const PANORAMIC_FACES: u32 = 4;

/// A camera placed in the city.
#[derive(Debug, Clone)]
pub struct CityCamera {
    pub id: CameraId,
    pub tile: TileId,
    pub kind: CameraKind,
    /// World-space camera model.
    pub camera: Camera,
}

/// An instantiated Visual City.
#[derive(Debug, Clone)]
pub struct VisualCity {
    tiles: Vec<Tile>,
    origins: Vec<Vec2>,
    cameras: Vec<CityCamera>,
}

impl VisualCity {
    /// Build a city from benchmark hyperparameters.
    ///
    /// `density_scale` scales entity populations (1.0 = the paper's
    /// counts; in-session experiments use smaller values).
    pub fn generate(hyper: &Hyperparameters, density_scale: f64) -> Self {
        Self::generate_extended(hyper, density_scale, 0)
    }

    /// Build a city drawing from the tile pool extended with
    /// `procedural_variants` procedurally-generated layouts (0 = the
    /// version-1.0 pool; see
    /// [`tile_pool_extended`](crate::tilepool::tile_pool_extended)).
    pub fn generate_extended(
        hyper: &Hyperparameters,
        density_scale: f64,
        procedural_variants: u8,
    ) -> Self {
        let mut rng = VrRng::seed_from(hyper.seed);
        let l = hyper.scale as usize;
        let cols = (l as f64).sqrt().ceil() as usize;

        let mut tiles = Vec::with_capacity(l);
        let mut origins = Vec::with_capacity(l);
        for i in 0..l {
            let spec = crate::tilepool::draw_tile_extended(&mut rng, procedural_variants);
            let tile_seed = rng.next_u64();
            tiles.push(Tile::generate(spec, tile_seed, density_scale));
            let col = (i % cols) as f32;
            let row = (i / cols) as f32;
            origins.push(Vec2::new(col * (TILE_SIZE + TILE_GAP), row * (TILE_SIZE + TILE_GAP)));
        }

        // Cameras. Ids are assigned in a fixed order: per tile, the
        // traffic cameras first, then the four panoramic faces.
        let mut cameras = Vec::new();
        let mut next_id = 0u32;
        for (ti, tile) in tiles.iter().enumerate() {
            let origin = origins[ti];
            let mut cam_rng = rng.fork(ti as u64 ^ 0xCA3E_7A00);
            for _ in 0..TRAFFIC_CAMERAS_PER_TILE {
                let cam = place_traffic_camera(tile, origin, &mut cam_rng);
                cameras.push(CityCamera {
                    id: CameraId(next_id),
                    tile: TileId(ti as u32),
                    kind: CameraKind::Traffic,
                    camera: cam,
                });
                next_id += 1;
            }
            for _ in 0..PANORAMIC_RIGS_PER_TILE {
                let faces = place_panoramic_rig(tile, origin, &mut cam_rng);
                for (f, cam) in faces.into_iter().enumerate() {
                    cameras.push(CityCamera {
                        id: CameraId(next_id),
                        tile: TileId(ti as u32),
                        kind: CameraKind::PanoramicFace(f as u8),
                        camera: cam,
                    });
                    next_id += 1;
                }
            }
        }
        Self { tiles, origins, cameras }
    }

    /// Number of tiles (the scale factor L).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// A tile by id.
    pub fn tile(&self, id: TileId) -> &Tile {
        &self.tiles[id.0 as usize]
    }

    /// World-space origin of a tile.
    pub fn tile_origin(&self, id: TileId) -> Vec2 {
        self.origins[id.0 as usize]
    }

    /// All cameras in id order.
    pub fn cameras(&self) -> &[CityCamera] {
        &self.cameras
    }

    /// Traffic cameras only (the inputs to Q7/Q8).
    pub fn traffic_cameras(&self) -> impl Iterator<Item = &CityCamera> {
        self.cameras.iter().filter(|c| c.kind == CameraKind::Traffic)
    }

    /// Panoramic rigs, each as its four faces in order (inputs to Q9).
    pub fn panoramic_rigs(&self) -> Vec<[&CityCamera; 4]> {
        let mut rigs = Vec::new();
        let faces: Vec<&CityCamera> =
            self.cameras.iter().filter(|c| c.kind.is_panoramic()).collect();
        for chunk in faces.chunks(PANORAMIC_FACES as usize) {
            if let [a, b, c, d] = chunk {
                rigs.push([*a, *b, *c, *d]);
            }
        }
        rigs
    }

    /// A camera by id.
    pub fn camera(&self, id: CameraId) -> Option<&CityCamera> {
        self.cameras.iter().find(|c| c.id == id)
    }
}

/// Place a traffic camera: 10–20 m above a random point on a roadway,
/// randomly oriented, pitched down at the street (§3.1).
fn place_traffic_camera(tile: &Tile, origin: Vec2, rng: &mut VrRng) -> Camera {
    let seg = rng.choose(&tile.network.segments);
    let t = rng.range_f32(0.15, 0.85);
    let p = seg.point_at(t) + origin;
    let height = rng.range_f32(10.0, 20.0);
    let yaw = rng.range_f32(0.0, std::f32::consts::TAU);
    let pitch = rng.range_f32(-0.75, -0.35);
    Camera::new(Vec3::from_ground(p, height), yaw, pitch, 90.0)
}

/// Place a panoramic rig: 5–10 m above a random sidewalk point, four
/// 120° faces at 90° yaw intervals (§3.1).
fn place_panoramic_rig(tile: &Tile, origin: Vec2, rng: &mut VrRng) -> [Camera; 4] {
    let walk = rng.choose(&tile.network.sidewalk_loops);
    let s = rng.range_f32(0.0, walk.length().max(1.0));
    let p = walk.position_at(s) + origin;
    let height = rng.range_f32(5.0, 10.0);
    let base_yaw = rng.range_f32(0.0, std::f32::consts::TAU);
    let pos = Vec3::from_ground(p, height);
    std::array::from_fn(|i| {
        Camera::new(pos, base_yaw + i as f32 * std::f32::consts::FRAC_PI_2, 0.0, 120.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::{Duration, Resolution};

    fn hyper(l: u32, seed: u64) -> Hyperparameters {
        Hyperparameters::new(l, Resolution::K1, Duration::from_secs(10.0), seed).unwrap()
    }

    #[test]
    fn camera_counts_match_configuration() {
        let city = VisualCity::generate(&hyper(4, 1), 0.1);
        assert_eq!(city.tile_count(), 4);
        assert_eq!(city.cameras().len(), 4 * (4 + 4)); // 4 traffic + 4 pano faces
        assert_eq!(city.traffic_cameras().count(), 16);
        assert_eq!(city.panoramic_rigs().len(), 4);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = VisualCity::generate(&hyper(3, 42), 0.1);
        let b = VisualCity::generate(&hyper(3, 42), 0.1);
        for (ca, cb) in a.cameras().iter().zip(b.cameras()) {
            assert_eq!(ca.camera.position, cb.camera.position);
            assert_eq!(ca.camera.yaw, cb.camera.yaw);
        }
        assert_eq!(
            a.tile(TileId(0)).vehicles[0].plate,
            b.tile(TileId(0)).vehicles[0].plate
        );
        let c = VisualCity::generate(&hyper(3, 43), 0.1);
        assert_ne!(
            a.cameras()[0].camera.position,
            c.cameras()[0].camera.position
        );
    }

    #[test]
    fn traffic_cameras_look_down_from_height() {
        let city = VisualCity::generate(&hyper(8, 7), 0.05);
        for cam in city.traffic_cameras() {
            let z = cam.camera.position.z;
            assert!((10.0..=20.0).contains(&z), "traffic cam height {z}");
            assert!(cam.camera.pitch < 0.0, "traffic cam must pitch down");
            assert_eq!(cam.camera.hfov_deg, 90.0);
        }
    }

    #[test]
    fn panoramic_faces_cover_the_circle() {
        let city = VisualCity::generate(&hyper(1, 9), 0.05);
        let rigs = city.panoramic_rigs();
        assert_eq!(rigs.len(), 1);
        let rig = rigs[0];
        // Shared position, 5-10 m up, 120° FOV, yaws 90° apart.
        let z = rig[0].camera.position.z;
        assert!((5.0..=10.0).contains(&z), "pano height {z}");
        for f in &rig {
            assert_eq!(f.camera.position, rig[0].camera.position);
            assert_eq!(f.camera.hfov_deg, 120.0);
            assert_eq!(f.camera.pitch, 0.0);
        }
        for i in 0..4 {
            let expected = rig[0].camera.yaw + i as f32 * std::f32::consts::FRAC_PI_2;
            assert!((rig[i].camera.yaw - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn tiles_are_disconnected() {
        let city = VisualCity::generate(&hyper(4, 11), 0.05);
        let o0 = city.tile_origin(TileId(0));
        let o1 = city.tile_origin(TileId(1));
        assert!(o0.distance(o1) >= TILE_SIZE + TILE_GAP - 1.0);
    }

    #[test]
    fn scale_one_city_works() {
        let city = VisualCity::generate(&hyper(1, 2), 0.1);
        assert_eq!(city.tile_count(), 1);
        assert_eq!(city.cameras().len(), 8);
        assert!(city.camera(CameraId(0)).is_some());
        assert!(city.camera(CameraId(99)).is_none());
    }
}
