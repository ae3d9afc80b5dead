//! Camera models: pinhole perspective (traffic cameras and panoramic
//! rig faces) and the equirectangular mapping used for 360° video
//! (Q9/Q10).

use crate::vec::Vec3;

/// A pinhole perspective camera.
///
/// Orientation is given by `yaw` (radians counter-clockwise from the
/// +x axis, about the world z-axis) and `pitch` (radians above the
/// horizon; negative looks down — traffic cameras are mounted 10–20 m
/// up and pitch downward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// World-space position of the optical center.
    pub position: Vec3,
    /// Heading in radians (0 = +x / east).
    pub yaw: f32,
    /// Elevation in radians (0 = level, negative = looking down).
    pub pitch: f32,
    /// Horizontal field of view in degrees. Panoramic rig faces use
    /// 120° (§3.1); traffic cameras use a conventional 90°.
    pub hfov_deg: f32,
}

impl Camera {
    /// Construct a camera.
    pub fn new(position: Vec3, yaw: f32, pitch: f32, hfov_deg: f32) -> Self {
        Self { position, yaw, pitch, hfov_deg }
    }

    /// Unit forward vector.
    pub fn forward(&self) -> Vec3 {
        let (sy, cy) = self.yaw.sin_cos();
        let (sp, cp) = self.pitch.sin_cos();
        Vec3::new(cy * cp, sy * cp, sp)
    }

    /// Unit right vector (horizontal, perpendicular to forward).
    pub(crate) fn right(&self) -> Vec3 {
        let (sy, cy) = self.yaw.sin_cos();
        Vec3::new(sy, -cy, 0.0)
    }

    /// Unit up vector (completes the right-handed camera basis).
    pub(crate) fn up(&self) -> Vec3 {
        self.right().cross(self.forward())
    }

    /// Transform a world-space point into camera space
    /// (x right, y down, z forward).
    pub(crate) fn world_to_camera(&self, p: Vec3) -> Vec3 {
        let rel = p - self.position;
        Vec3::new(rel.dot(self.right()), -rel.dot(self.up()), rel.dot(self.forward()))
    }

    /// Focal length in pixels for a frame `width` pixels wide.
    pub(crate) fn focal_px(&self, width: u32) -> f32 {
        let half = (self.hfov_deg.to_radians() / 2.0).tan();
        width as f32 / (2.0 * half)
    }

    /// Project a world point to pixel coordinates on a `width`×`height`
    /// frame. Returns `(x, y, depth)`; `None` if the point is behind
    /// the camera. The returned pixel may lie outside the frame (useful
    /// for clipping boxes that straddle the frame edge).
    pub fn project(&self, p: Vec3, width: u32, height: u32) -> Option<(f32, f32, f32)> {
        let c = self.world_to_camera(p);
        if c.z <= 1e-4 {
            return None;
        }
        let f = self.focal_px(width);
        let x = width as f32 / 2.0 + f * c.x / c.z;
        let y = height as f32 / 2.0 + f * c.y / c.z;
        Some((x, y, c.z))
    }

    /// The world-space ray direction through pixel `(x, y)`.
    pub fn pixel_ray(&self, x: f32, y: f32, width: u32, height: u32) -> Vec3 {
        let f = self.focal_px(width);
        let cx = (x - width as f32 / 2.0) / f;
        let cy = (y - height as f32 / 2.0) / f;
        (self.forward() + self.right() * cx - self.up() * cy)
            .normalized()
            .unwrap_or(Vec3::UP)
    }

    /// Whether any part of a sphere at `center` with `radius` could be
    /// visible (coarse frustum test used for culling).
    pub fn sphere_visible(&self, center: Vec3, radius: f32, width: u32, height: u32) -> bool {
        let c = self.world_to_camera(center);
        if c.z < -radius {
            return false;
        }
        if c.z <= 0.0 {
            return true; // straddles the image plane; keep it
        }
        let f = self.focal_px(width);
        let margin = radius / c.z * f;
        let x = width as f32 / 2.0 + f * c.x / c.z;
        let y = height as f32 / 2.0 + f * c.y / c.z;
        x >= -margin
            && x <= width as f32 + margin
            && y >= -margin
            && y <= height as f32 + margin
    }
}

/// The equirectangular projection used for 360° panoramic video
/// (§4.2.2): longitude maps linearly to `x`, latitude to `y`.
#[derive(Debug, Clone, Copy)]
pub struct Equirect {
    pub width: u32,
    pub height: u32,
}

impl Equirect {
    /// Construct a mapping for a `width`×`height` equirectangular frame
    /// (conventionally 2:1).
    pub fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Direction (unit vector) corresponding to pixel `(x, y)`.
    /// `x = 0` is longitude −π (due west of the seam), the frame center
    /// is longitude 0 (the +x axis); `y = 0` is the zenith.
    pub fn pixel_to_dir(&self, x: f32, y: f32) -> Vec3 {
        let lon = (x / self.width as f32 - 0.5) * 2.0 * std::f32::consts::PI;
        let lat = (0.5 - y / self.height as f32) * std::f32::consts::PI;
        let (sl, cl) = lat.sin_cos();
        let (so, co) = lon.sin_cos();
        Vec3::new(cl * co, cl * so, sl)
    }

    /// Pixel corresponding to a direction (inverse of
    /// [`pixel_to_dir`](Self::pixel_to_dir)).
    #[cfg(test)]
    fn dir_to_pixel(&self, d: Vec3) -> (f32, f32) {
        let lon = d.y.atan2(d.x);
        let lat = (d.z / d.length().max(1e-12)).asin();
        let x = (lon / (2.0 * std::f32::consts::PI) + 0.5) * self.width as f32;
        let y = (0.5 - lat / std::f32::consts::PI) * self.height as f32;
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32, eps: f32) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn forward_follows_yaw_and_pitch() {
        let c = Camera::new(Vec3::ZERO, 0.0, 0.0, 90.0);
        assert!(close(c.forward().x, 1.0, 1e-6));
        let c = Camera::new(Vec3::ZERO, std::f32::consts::FRAC_PI_2, 0.0, 90.0);
        assert!(close(c.forward().y, 1.0, 1e-6));
        let c = Camera::new(Vec3::ZERO, 0.0, -std::f32::consts::FRAC_PI_2, 90.0);
        assert!(close(c.forward().z, -1.0, 1e-6));
    }

    #[test]
    fn basis_is_orthonormal() {
        let c = Camera::new(Vec3::new(3.0, -2.0, 10.0), 1.1, -0.4, 120.0);
        let (f, r, u) = (c.forward(), c.right(), c.up());
        assert!(close(f.length(), 1.0, 1e-5));
        assert!(close(r.length(), 1.0, 1e-5));
        assert!(close(u.length(), 1.0, 1e-5));
        assert!(close(f.dot(r), 0.0, 1e-5));
        assert!(close(f.dot(u), 0.0, 1e-5));
        assert!(close(r.dot(u), 0.0, 1e-5));
    }

    #[test]
    fn center_pixel_is_forward() {
        let c = Camera::new(Vec3::ZERO, 0.3, -0.2, 90.0);
        let p = c.position + c.forward() * 10.0;
        let (x, y, z) = c.project(p, 640, 480).unwrap();
        assert!(close(x, 320.0, 0.01));
        assert!(close(y, 240.0, 0.01));
        assert!(close(z, 10.0, 1e-3));
    }

    #[test]
    fn behind_camera_is_rejected() {
        let c = Camera::new(Vec3::ZERO, 0.0, 0.0, 90.0);
        assert!(c.project(Vec3::new(-5.0, 0.0, 0.0), 640, 480).is_none());
    }

    #[test]
    fn rightward_point_lands_right_of_center() {
        let c = Camera::new(Vec3::ZERO, 0.0, 0.0, 90.0);
        // forward = +x; right = -y (since right = (sin 0, -cos 0, 0)).
        let p = Vec3::new(10.0, -3.0, 0.0);
        let (x, _, _) = c.project(p, 640, 480).unwrap();
        assert!(x > 320.0);
    }

    #[test]
    fn pixel_ray_inverts_projection() {
        let c = Camera::new(Vec3::new(1.0, 2.0, 8.0), 0.7, -0.5, 100.0);
        let target = Vec3::new(20.0, 14.0, 0.0);
        let (x, y, _) = c.project(target, 800, 600).unwrap();
        let ray = c.pixel_ray(x, y, 800, 600);
        let want = (target - c.position).normalized().unwrap();
        assert!(close(ray.dot(want), 1.0, 1e-4));
    }

    #[test]
    fn sphere_culling() {
        let c = Camera::new(Vec3::ZERO, 0.0, 0.0, 90.0);
        assert!(c.sphere_visible(Vec3::new(10.0, 0.0, 0.0), 1.0, 640, 480));
        assert!(!c.sphere_visible(Vec3::new(-10.0, 0.0, 0.0), 1.0, 640, 480));
        // Off-axis but large sphere still overlaps the frustum.
        assert!(c.sphere_visible(Vec3::new(5.0, 20.0, 0.0), 30.0, 640, 480));
    }

    #[test]
    fn equirect_round_trip() {
        let eq = Equirect::new(1024, 512);
        for (x, y) in [(100.0, 100.0), (512.0, 256.0), (900.0, 30.0), (10.0, 500.0)] {
            let d = eq.pixel_to_dir(x, y);
            assert!(close(d.length(), 1.0, 1e-5));
            let (px, py) = eq.dir_to_pixel(d);
            assert!(close(px, x, 0.1), "x {px} vs {x}");
            assert!(close(py, y, 0.1), "y {py} vs {y}");
        }
    }

    #[test]
    fn equirect_center_is_plus_x() {
        let eq = Equirect::new(1024, 512);
        let d = eq.pixel_to_dir(512.0, 256.0);
        assert!(close(d.x, 1.0, 1e-5));
    }
}
