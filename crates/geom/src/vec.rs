//! 2- and 3-component float vectors.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 2D vector (or point) in `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

/// A 3D vector (or point) in `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    pub fn dot(self, o: Vec2) -> f32 {
        self.x * o.x + self.y * o.y
    }

    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction; `None` for (near-)zero input.
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        (len > 1e-12).then(|| self / len)
    }

    /// Perpendicular vector (counter-clockwise).
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `o` at `t = 1`.
    pub fn lerp(self, o: Vec2, t: f32) -> Vec2 {
        self + (o - self) * t
    }

    /// Distance to another point.
    pub fn distance(self, o: Vec2) -> f32 {
        (o - self).length()
    }
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// World "up" (z-up convention).
    pub const UP: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Embed a 2D ground-plane point at height `z`.
    pub const fn from_ground(p: Vec2, z: f32) -> Self {
        Self { x: p.x, y: p.y, z }
    }

    /// Drop the height component.
    pub const fn ground(self) -> Vec2 {
        Vec2 { x: self.x, y: self.y }
    }

    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    pub(crate) fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction; `None` for (near-)zero input.
    pub fn normalized(self) -> Option<Vec3> {
        let len = self.length();
        (len > 1e-12).then(|| self / len)
    }

    /// Distance to another point.
    pub fn distance(self, o: Vec3) -> f32 {
        (o - self).length()
    }
}

macro_rules! impl_vec_ops {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, o: $t) -> $t { Self { $($f: self.$f + o.$f),+ } }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, o: $t) { $(self.$f += o.$f;)+ }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, o: $t) -> $t { Self { $($f: self.$f - o.$f),+ } }
        }
        impl Mul<f32> for $t {
            type Output = $t;
            fn mul(self, s: f32) -> $t { Self { $($f: self.$f * s),+ } }
        }
        impl Div<f32> for $t {
            type Output = $t;
            fn div(self, s: f32) -> $t { Self { $($f: self.$f / s),+ } }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t { Self { $($f: -self.$f),+ } }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn vec2_basics() {
        let a = Vec2::new(3.0, 4.0);
        assert!(close(a.length(), 5.0));
        assert!(close(a.dot(Vec2::new(1.0, 0.0)), 3.0));
        let n = a.normalized().unwrap();
        assert!(close(n.length(), 1.0));
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(close(c.dot(a), 0.0));
        assert!(close(c.dot(b), 0.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn ground_embedding_round_trips() {
        let p = Vec2::new(7.5, -2.0);
        assert_eq!(Vec3::from_ground(p, 3.0).ground(), p);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, 5.0);
        assert_eq!(a + b, Vec2::new(4.0, 7.0));
        assert_eq!(b - a, Vec2::new(2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, 2.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }
}
