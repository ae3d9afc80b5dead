//! Z-buffered triangle/quad rasterization.

use vr_frame::{Rgb, RgbImage};
use vr_geom::{Camera, Vec3};

/// A render target: color plus depth.
#[derive(Clone)]
pub struct Raster {
    pub img: RgbImage,
    /// Camera-space depth per pixel; `f32::INFINITY` = sky.
    pub depth: Vec<f32>,
}

impl Raster {
    /// New target filled with black at infinite depth.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            img: RgbImage::new(width, height),
            depth: vec![f32::INFINITY; (width * height) as usize],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.img.width()
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.img.height()
    }

    /// Depth-tested pixel write.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, z: f32, c: Rgb) {
        let i = (y * self.width() + x) as usize;
        if z < self.depth[i] {
            self.depth[i] = z;
            self.img.set(x, y, c);
        }
    }

    /// Depth at a pixel.
    #[inline]
    pub fn z(&self, x: u32, y: u32) -> f32 {
        self.depth[(y * self.width() + x) as usize]
    }

    /// Fill a world-space triangle with a flat color, depth-tested.
    /// Vertices behind the camera cause the triangle to be skipped
    /// (geometry in this scene is small relative to camera distances,
    /// so near-plane clipping is not worth its complexity).
    pub fn fill_triangle(&mut self, cam: &Camera, v: [Vec3; 3], color: Rgb) {
        self.fill_triangle_shaded(cam, v, &mut |_, _| color);
    }

    /// Fill a world-space triangle, computing each pixel's color from
    /// barycentric attribute coordinates `(b1, b2)` of vertices 1 and
    /// 2 (vertex 0 has `1 - b1 - b2`). Used for textured quads
    /// (license plates).
    pub fn fill_triangle_shaded(
        &mut self,
        cam: &Camera,
        v: [Vec3; 3],
        shade: &mut dyn FnMut(f32, f32) -> Rgb,
    ) {
        let (w, h) = (self.width(), self.height());
        let mut p = [(0.0f32, 0.0f32, 0.0f32); 3];
        for i in 0..3 {
            match cam.project(v[i], w, h) {
                Some(xyz) => p[i] = xyz,
                None => return,
            }
        }
        let (x0, y0, z0) = p[0];
        let (x1, y1, z1) = p[1];
        let (x2, y2, z2) = p[2];
        let min_x = x0.min(x1).min(x2).floor().max(0.0) as i64;
        let max_x = x0.max(x1).max(x2).ceil().min(w as f32 - 1.0) as i64;
        let min_y = y0.min(y1).min(y2).floor().max(0.0) as i64;
        let max_y = y0.max(y1).max(y2).ceil().min(h as f32 - 1.0) as i64;
        if min_x > max_x || min_y > max_y {
            return;
        }
        let denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2);
        if denom.abs() < 1e-9 {
            return;
        }
        let inv = 1.0 / denom;
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let fx = px as f32 + 0.5;
                let fy = py as f32 + 0.5;
                let b0 = ((y1 - y2) * (fx - x2) + (x2 - x1) * (fy - y2)) * inv;
                let b1 = ((y2 - y0) * (fx - x2) + (x0 - x2) * (fy - y2)) * inv;
                let b2 = 1.0 - b0 - b1;
                if b0 < 0.0 || b1 < 0.0 || b2 < 0.0 {
                    continue;
                }
                let z = b0 * z0 + b1 * z1 + b2 * z2;
                let c = shade(b1, b2);
                self.put(px as u32, py as u32, z, c);
            }
        }
    }

    /// Fill a world-space quad (two triangles) with a flat color.
    /// Vertices in order around the perimeter.
    pub fn fill_quad(&mut self, cam: &Camera, q: [Vec3; 4], color: Rgb) {
        self.fill_triangle(cam, [q[0], q[1], q[2]], color);
        self.fill_triangle(cam, [q[0], q[2], q[3]], color);
    }

    /// Fill a quad where the shader receives `(u, v)` coordinates:
    /// `u` runs 0→1 from edge `q0→q1`, `v` from edge `q0→q3`.
    pub fn fill_quad_textured(
        &mut self,
        cam: &Camera,
        q: [Vec3; 4],
        shade: &mut dyn FnMut(f32, f32) -> Rgb,
    ) {
        // Triangle 1: q0, q1, q2 → (u, v) = (b1 + b2, b2).
        self.fill_triangle_shaded(cam, [q[0], q[1], q[2]], &mut |b1, b2| {
            shade(b1 + b2, b2)
        });
        // Triangle 2: q0, q2, q3 → (u, v) = (b1, b1 + b2).
        self.fill_triangle_shaded(cam, [q[0], q[2], q[3]], &mut |b1, b2| {
            shade(b1, b1 + b2)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::new(Vec3::new(0.0, 0.0, 0.0), 0.0, 0.0, 90.0)
    }

    #[test]
    fn triangle_covers_expected_pixels() {
        let mut r = Raster::new(64, 64);
        // A big quad 10 m ahead, facing the camera.
        let q = [
            Vec3::new(10.0, 4.0, -4.0),
            Vec3::new(10.0, -4.0, -4.0),
            Vec3::new(10.0, -4.0, 4.0),
            Vec3::new(10.0, 4.0, 4.0),
        ];
        r.fill_quad(&cam(), q, Rgb::new(200, 0, 0));
        // Center pixel is covered at depth 10.
        assert_eq!(r.img.get(32, 32), Rgb::new(200, 0, 0));
        assert!((r.z(32, 32) - 10.0).abs() < 0.1);
        // A corner pixel is not.
        assert_eq!(r.img.get(0, 0), Rgb::new(0, 0, 0));
        assert!(r.z(0, 0).is_infinite());
    }

    #[test]
    fn depth_test_keeps_nearer_surface() {
        let mut r = Raster::new(32, 32);
        let far = [
            Vec3::new(20.0, 5.0, -5.0),
            Vec3::new(20.0, -5.0, -5.0),
            Vec3::new(20.0, -5.0, 5.0),
            Vec3::new(20.0, 5.0, 5.0),
        ];
        let near = [
            Vec3::new(10.0, 2.0, -2.0),
            Vec3::new(10.0, -2.0, -2.0),
            Vec3::new(10.0, -2.0, 2.0),
            Vec3::new(10.0, 2.0, 2.0),
        ];
        r.fill_quad(&cam(), far, Rgb::new(0, 0, 255));
        r.fill_quad(&cam(), near, Rgb::new(255, 0, 0));
        assert_eq!(r.img.get(16, 16), Rgb::new(255, 0, 0));
        // Draw order must not matter.
        let mut r2 = Raster::new(32, 32);
        r2.fill_quad(&cam(), near, Rgb::new(255, 0, 0));
        r2.fill_quad(&cam(), far, Rgb::new(0, 0, 255));
        assert_eq!(r2.img.get(16, 16), Rgb::new(255, 0, 0));
    }

    #[test]
    fn behind_camera_geometry_is_skipped() {
        let mut r = Raster::new(32, 32);
        let q = [
            Vec3::new(-10.0, 5.0, -5.0),
            Vec3::new(-10.0, -5.0, -5.0),
            Vec3::new(-10.0, -5.0, 5.0),
            Vec3::new(-10.0, 5.0, 5.0),
        ];
        r.fill_quad(&cam(), q, Rgb::new(9, 9, 9));
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(r.img.get(x, y), Rgb::new(0, 0, 0));
            }
        }
    }

    #[test]
    fn textured_quad_uv_orientation() {
        let mut r = Raster::new(64, 64);
        // Quad facing camera; u goes from camera-left (+y world) to
        // camera-right, v from bottom to top of the quad as defined.
        let q = [
            Vec3::new(10.0, 4.0, -4.0),  // q0: u=0, v=0
            Vec3::new(10.0, -4.0, -4.0), // q1: u=1
            Vec3::new(10.0, -4.0, 4.0),  // q2
            Vec3::new(10.0, 4.0, 4.0),   // q3: v=1
        ];
        r.fill_quad_textured(&cam(), q, &mut |u, v| {
            Rgb::new((u * 255.0) as u8, (v * 255.0) as u8, 0)
        });
        // With hfov 90° and focal = 32 px, the quad spans ±12.8 px
        // around the frame center (pixels ~19..45 on both axes).
        // Camera right = -y, so q0 (y=+4) lands on the LEFT, u=0.
        let left = r.img.get(21, 32);
        let right = r.img.get(43, 32);
        assert!(left.r < 70, "left u should be small: {left:?}");
        assert!(right.r > 185, "right u should be large: {right:?}");
        // v: q0 is z=-4 (bottom of the quad → lower image half).
        let top = r.img.get(32, 21);
        let bottom = r.img.get(32, 43);
        assert!(bottom.g < 70, "bottom v small: {bottom:?}");
        assert!(top.g > 185, "top v large: {top:?}");
    }

    #[test]
    fn degenerate_triangle_is_skipped() {
        let mut r = Raster::new(16, 16);
        let p = Vec3::new(5.0, 0.0, 0.0);
        r.fill_triangle(&cam(), [p, p, p], Rgb::new(1, 1, 1));
        assert_eq!(r.img.get(8, 8), Rgb::new(0, 0, 0));
    }
}
