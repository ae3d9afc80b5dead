//! 3D axis-aligned bounding boxes.

use crate::vec::Vec3;

/// An axis-aligned box in world space, described by its min/max corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb3 {
    /// A box centered at `c` with full extents `(sx, sy, sz)`.
    pub fn centered(c: Vec3, sx: f32, sy: f32, sz: f32) -> Self {
        let half = Vec3::new(sx / 2.0, sy / 2.0, sz / 2.0);
        Self { min: c - half, max: c + half }
    }

    /// Center point.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) / 2.0
    }

    /// The eight corner points.
    pub fn corners(&self) -> [Vec3; 8] {
        let (a, b) = (self.min, self.max);
        [
            Vec3::new(a.x, a.y, a.z),
            Vec3::new(b.x, a.y, a.z),
            Vec3::new(a.x, b.y, a.z),
            Vec3::new(b.x, b.y, a.z),
            Vec3::new(a.x, a.y, b.z),
            Vec3::new(b.x, a.y, b.z),
            Vec3::new(a.x, b.y, b.z),
            Vec3::new(b.x, b.y, b.z),
        ]
    }

    /// Translate by `d`.
    pub fn translated(&self, d: Vec3) -> Aabb3 {
        Aabb3 { min: self.min + d, max: self.max + d }
    }

    /// Ray–box intersection (slab method): the smallest `t ≥ 0` with
    /// `origin + dir·t` inside the box, if one exists with `t <= tmax`.
    /// Used for occlusion tests in ground-truth generation.
    pub fn ray_hit(&self, origin: Vec3, dir: Vec3, tmax: f32) -> Option<f32> {
        let mut t0 = 0.0f32;
        let mut t1 = tmax;
        for axis in 0..3 {
            let (o, d, lo, hi) = match axis {
                0 => (origin.x, dir.x, self.min.x, self.max.x),
                1 => (origin.y, dir.y, self.min.y, self.max.y),
                _ => (origin.z, dir.z, self.min.z, self.max.z),
            };
            if d.abs() < 1e-9 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (mut ta, mut tb) = ((lo - o) * inv, (hi - o) * inv);
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return None;
            }
        }
        Some(t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_round_trip() {
        let b = Aabb3::centered(Vec3::new(1.0, 2.0, 3.0), 4.0, 2.0, 6.0);
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.max - b.min, Vec3::new(4.0, 2.0, 6.0));
    }

    #[test]
    fn corners_count_and_extremes() {
        let b = Aabb3::centered(Vec3::ZERO, 2.0, 2.0, 2.0);
        let corners = b.corners();
        assert_eq!(corners.len(), 8);
        assert!(corners.iter().any(|c| *c == b.min));
        assert!(corners.iter().any(|c| *c == b.max));
    }

    #[test]
    fn ray_hits_and_misses() {
        let b = Aabb3::centered(Vec3::new(10.0, 0.0, 0.0), 2.0, 2.0, 2.0);
        // Straight-on hit at t = 9 (box spans x 9..11).
        let t = b.ray_hit(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 100.0).unwrap();
        assert!((t - 9.0).abs() < 1e-4);
        // Pointing away: miss.
        assert!(b.ray_hit(Vec3::ZERO, Vec3::new(-1.0, 0.0, 0.0), 100.0).is_none());
        // Offset parallel ray: miss.
        assert!(b
            .ray_hit(Vec3::new(0.0, 5.0, 0.0), Vec3::new(1.0, 0.0, 0.0), 100.0)
            .is_none());
        // tmax shorter than the hit distance: miss.
        assert!(b.ray_hit(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 5.0).is_none());
        // Origin inside the box: hit at t = 0.
        let t = b
            .ray_hit(Vec3::new(10.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 100.0)
            .unwrap();
        assert_eq!(t, 0.0);
    }
}
