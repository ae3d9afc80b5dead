//! Arc-length-parameterized polyline paths.
//!
//! Vehicles and pedestrians in Visual City move along road-network
//! paths at (piecewise-)constant speed; the simulator asks "where is
//! this entity after it has travelled `s` meters?", which is exactly
//! the query a cumulative-arc-length polyline answers.

use crate::vec::Vec2;

/// A polyline with precomputed cumulative arc lengths.
#[derive(Debug, Clone)]
pub struct Path {
    points: Vec<Vec2>,
    /// `cumulative[i]` = distance from the start to `points[i]`.
    cumulative: Vec<f32>,
}

impl Path {
    /// Build a path from waypoints. Consecutive duplicate points are
    /// tolerated (they contribute zero length). Needs at least two
    /// points to have direction; a single point is a degenerate path.
    pub fn new(points: Vec<Vec2>) -> Self {
        assert!(!points.is_empty(), "a path needs at least one point");
        let mut cumulative = Vec::with_capacity(points.len());
        let mut total = 0.0f32;
        cumulative.push(0.0);
        for w in points.windows(2) {
            total += w[0].distance(w[1]);
            cumulative.push(total);
        }
        Self { points, cumulative }
    }

    /// Total length in meters.
    pub fn length(&self) -> f32 {
        *self.cumulative.last().unwrap()
    }

    /// The waypoints.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Position after travelling `s` meters from the start. `s` is
    /// clamped to `[0, length]`.
    pub fn position_at(&self, s: f32) -> Vec2 {
        let s = s.clamp(0.0, self.length());
        let i = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        if i + 1 >= self.points.len() {
            return *self.points.last().unwrap();
        }
        let seg = self.cumulative[i + 1] - self.cumulative[i];
        if seg <= 1e-9 {
            return self.points[i];
        }
        let t = (s - self.cumulative[i]) / seg;
        self.points[i].lerp(self.points[i + 1], t)
    }

    /// Unit travel direction at arc length `s` (direction of the
    /// containing segment). Falls back to +x on degenerate paths.
    pub(crate) fn direction_at(&self, s: f32) -> Vec2 {
        let s = s.clamp(0.0, self.length());
        let mut i = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        // Skip zero-length segments and the path end.
        while i + 1 < self.points.len()
            && (self.cumulative[i + 1] - self.cumulative[i]) <= 1e-9
        {
            i += 1;
        }
        if i + 1 >= self.points.len() {
            if self.points.len() >= 2 {
                let n = self.points.len();
                return (self.points[n - 1] - self.points[n - 2])
                    .normalized()
                    .unwrap_or(Vec2::new(1.0, 0.0));
            }
            return Vec2::new(1.0, 0.0);
        }
        (self.points[i + 1] - self.points[i])
            .normalized()
            .unwrap_or(Vec2::new(1.0, 0.0))
    }

    /// Position on a looped version of the path: arc length wraps
    /// modulo the total length. Vehicles circulate on closed loops.
    pub fn position_looped(&self, s: f32) -> Vec2 {
        let len = self.length();
        if len <= 1e-9 {
            return self.points[0];
        }
        self.position_at(s.rem_euclid(len))
    }

    /// Direction on a looped version of the path.
    pub fn direction_looped(&self, s: f32) -> Vec2 {
        let len = self.length();
        if len <= 1e-9 {
            return Vec2::new(1.0, 0.0);
        }
        self.direction_at(s.rem_euclid(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> Path {
        Path::new(vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0), Vec2::new(10.0, 10.0)])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(l_path().length(), 20.0);
    }

    #[test]
    fn position_interpolates() {
        let p = l_path();
        assert_eq!(p.position_at(0.0), Vec2::new(0.0, 0.0));
        assert_eq!(p.position_at(5.0), Vec2::new(5.0, 0.0));
        assert_eq!(p.position_at(10.0), Vec2::new(10.0, 0.0));
        assert_eq!(p.position_at(15.0), Vec2::new(10.0, 5.0));
        assert_eq!(p.position_at(20.0), Vec2::new(10.0, 10.0));
    }

    #[test]
    fn position_clamps() {
        let p = l_path();
        assert_eq!(p.position_at(-5.0), Vec2::new(0.0, 0.0));
        assert_eq!(p.position_at(100.0), Vec2::new(10.0, 10.0));
    }

    #[test]
    fn direction_follows_segments() {
        let p = l_path();
        assert_eq!(p.direction_at(5.0), Vec2::new(1.0, 0.0));
        assert_eq!(p.direction_at(15.0), Vec2::new(0.0, 1.0));
        // At the very end the direction of the final segment holds.
        assert_eq!(p.direction_at(20.0), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn looping_wraps() {
        let p = l_path();
        assert_eq!(p.position_looped(25.0), p.position_at(5.0));
        assert_eq!(p.position_looped(-5.0), p.position_at(15.0));
        assert_eq!(p.direction_looped(45.0), p.direction_at(5.0));
    }

    #[test]
    fn duplicate_points_are_tolerated() {
        let p = Path::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
        ]);
        assert_eq!(p.length(), 4.0);
        assert_eq!(p.position_at(2.0), Vec2::new(2.0, 0.0));
        assert_eq!(p.direction_at(0.0), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn degenerate_single_point() {
        let p = Path::new(vec![Vec2::new(3.0, 3.0)]);
        assert_eq!(p.length(), 0.0);
        assert_eq!(p.position_looped(17.0), Vec2::new(3.0, 3.0));
    }
}

#[cfg(test)]
mod randomized_tests {
    //! Seeded randomized invariant checks (the former proptest suite),
    //! driven by the in-repo deterministic generator.
    use super::*;
    use vr_base::VrRng;

    fn arb_path(rng: &mut VrRng) -> Path {
        let n = rng.range(2, 11);
        Path::new(
            (0..n)
                .map(|_| Vec2::new(rng.range_f32(-100.0, 100.0), rng.range_f32(-100.0, 100.0)))
                .collect(),
        )
    }

    #[test]
    fn prop_position_is_on_or_between_waypoints() {
        let mut rng = VrRng::seed_from(0x9a74_0001);
        for _ in 0..200 {
            let p = arb_path(&mut rng);
            let t = rng.range_f32(0.0, 1.0);
            let s = t * p.length();
            let pos = p.position_at(s);
            // The position lies within the waypoints' bounding box.
            let (mut min_x, mut min_y) = (f32::MAX, f32::MAX);
            let (mut max_x, mut max_y) = (f32::MIN, f32::MIN);
            for w in p.points() {
                min_x = min_x.min(w.x);
                max_x = max_x.max(w.x);
                min_y = min_y.min(w.y);
                max_y = max_y.max(w.y);
            }
            assert!(pos.x >= min_x - 1e-3 && pos.x <= max_x + 1e-3);
            assert!(pos.y >= min_y - 1e-3 && pos.y <= max_y + 1e-3);
        }
    }

    #[test]
    fn prop_arc_length_is_monotone() {
        let mut rng = VrRng::seed_from(0x9a74_0002);
        for _ in 0..200 {
            let p = arb_path(&mut rng);
            let a = rng.range_f32(0.0, 1.0);
            let b = rng.range_f32(0.0, 1.0);
            // Distance travelled along the path between two arc
            // lengths never exceeds their difference (paths don't
            // teleport).
            let (lo, hi) = (a.min(b) * p.length(), a.max(b) * p.length());
            let d = p.position_at(lo).distance(p.position_at(hi));
            assert!(d <= (hi - lo) + 1e-3, "{d} > {}", hi - lo);
        }
    }

    #[test]
    fn prop_direction_is_unit() {
        let mut rng = VrRng::seed_from(0x9a74_0003);
        for _ in 0..200 {
            let p = arb_path(&mut rng);
            let t = rng.range_f32(0.0, 1.0);
            let d = p.direction_at(t * p.length());
            assert!((d.length() - 1.0).abs() < 1e-4);
        }
    }
}
