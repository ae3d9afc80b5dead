//! Pixel-space rectangles and overlap metrics.
//!
//! Semantic validation (§3.2, §4.1) compares VDBMS-reported bounding
//! boxes with ground-truth boxes using the Jaccard distance with the
//! PASCAL VOC threshold `ε = 0.5`.

/// A half-open axis-aligned rectangle in pixel coordinates:
/// `x0 <= x < x1`, `y0 <= y < y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    pub x0: i32,
    pub y0: i32,
    pub x1: i32,
    pub y1: i32,
}

impl Rect {
    /// Construct from corner coordinates (not required to be ordered;
    /// the result is normalized so `x0 <= x1`, `y0 <= y1`).
    pub fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        Self { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Construct from origin and size.
    pub fn from_origin_size(x: i32, y: i32, w: u32, h: u32) -> Self {
        Self { x0: x, y0: y, x1: x + w as i32, y1: y + h as i32 }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        (self.x1 - self.x0).max(0) as u32
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        (self.y1 - self.y0).max(0) as u32
    }

    /// Pixel area.
    pub fn area(&self) -> u64 {
        self.width() as u64 * self.height() as u64
    }

    /// True when the rectangle contains no pixels.
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }

    /// Whether the pixel `(x, y)` lies inside.
    pub fn contains(&self, x: i32, y: i32) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Intersection; possibly empty.
    pub fn intersect(&self, o: &Rect) -> Rect {
        Rect {
            x0: self.x0.max(o.x0),
            y0: self.y0.max(o.y0),
            x1: self.x1.min(o.x1),
            y1: self.y1.min(o.y1),
        }
    }

    /// Smallest rectangle containing both.
    pub fn union_bounds(&self, o: &Rect) -> Rect {
        if self.is_empty() {
            return *o;
        }
        if o.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }

    /// Intersection-over-union in `[0, 1]`. Empty∪empty yields 0.
    pub fn iou(&self, o: &Rect) -> f64 {
        let inter = self.intersect(o);
        if inter.is_empty() {
            return 0.0;
        }
        let i = inter.area() as f64;
        let u = (self.area() + o.area()) as f64 - i;
        if u <= 0.0 {
            0.0
        } else {
            i / u
        }
    }

    /// Jaccard distance `1 - IoU`; the semantic-validation metric.
    pub fn jaccard_distance(&self, o: &Rect) -> f64 {
        1.0 - self.iou(o)
    }

    /// Clip to the frame `0..w, 0..h`.
    pub fn clipped(&self, w: u32, h: u32) -> Rect {
        self.intersect(&Rect::from_origin_size(0, 0, w, h))
    }

    /// Grow by `m` pixels on every side (negative shrinks).
    pub fn inflated(&self, m: i32) -> Rect {
        Rect::new(self.x0 - m, self.y0 - m, self.x1 + m, self.y1 + m)
    }

    /// Center point.
    pub fn center(&self) -> (f32, f32) {
        ((self.x0 + self.x1) as f32 / 2.0, (self.y0 + self.y1) as f32 / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect { x0: 0, y0: 5, x1: 10, y1: 20 });
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 15);
    }

    #[test]
    fn contains_half_open() {
        let r = Rect::from_origin_size(0, 0, 4, 4);
        assert!(r.contains(0, 0));
        assert!(r.contains(3, 3));
        assert!(!r.contains(4, 3));
        assert!(!r.contains(-1, 0));
    }

    #[test]
    fn iou_identical_is_one() {
        let r = Rect::from_origin_size(5, 5, 10, 10);
        assert_eq!(r.iou(&r), 1.0);
        assert_eq!(r.jaccard_distance(&r), 0.0);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = Rect::from_origin_size(0, 0, 5, 5);
        let b = Rect::from_origin_size(10, 10, 5, 5);
        assert_eq!(a.iou(&b), 0.0);
        assert_eq!(a.jaccard_distance(&b), 1.0);
    }

    #[test]
    fn iou_half_overlap() {
        // a and b each 2x1, overlapping in a 1x1 region: IoU = 1/3.
        let a = Rect::from_origin_size(0, 0, 2, 1);
        let b = Rect::from_origin_size(1, 0, 2, 1);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pascal_voc_threshold_examples() {
        // Shifting a 10x10 box by 2 pixels keeps IoU above 0.5 ...
        let a = Rect::from_origin_size(0, 0, 10, 10);
        assert!(a.jaccard_distance(&Rect::from_origin_size(2, 0, 10, 10)) < 0.5);
        // ... shifting by 5 pixels pushes the distance past 0.5.
        assert!(a.jaccard_distance(&Rect::from_origin_size(5, 5, 10, 10)) > 0.5);
    }

    #[test]
    fn clip_and_union() {
        let r = Rect::new(-5, -5, 10, 10).clipped(8, 8);
        assert_eq!(r, Rect::from_origin_size(0, 0, 8, 8));
        let u = Rect::from_origin_size(0, 0, 2, 2)
            .union_bounds(&Rect::from_origin_size(5, 5, 2, 2));
        assert_eq!(u, Rect::new(0, 0, 7, 7));
        // Union with an empty rect returns the other operand.
        let empty = Rect::from_origin_size(0, 0, 0, 0);
        assert_eq!(empty.union_bounds(&r), r);
    }

    #[test]
    fn inflate_and_center() {
        let r = Rect::from_origin_size(2, 2, 4, 4).inflated(1);
        assert_eq!(r, Rect::new(1, 1, 7, 7));
        assert_eq!(r.center(), (4.0, 4.0));
    }
}

#[cfg(test)]
mod randomized_tests {
    //! Seeded randomized invariant checks (the former proptest suite),
    //! driven by the in-repo deterministic generator.
    use super::*;
    use vr_base::VrRng;

    fn arb_rect(rng: &mut VrRng) -> Rect {
        let x = rng.range_i64(-100, 100) as i32;
        let y = rng.range_i64(-100, 100) as i32;
        let w = rng.range(1, 120) as u32;
        let h = rng.range(1, 120) as u32;
        Rect::from_origin_size(x, y, w, h)
    }

    #[test]
    fn prop_iou_is_symmetric_and_bounded() {
        let mut rng = VrRng::seed_from(0x9ec7_0001);
        for _ in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            let ab = a.iou(&b);
            let ba = b.iou(&a);
            assert!((ab - ba).abs() < 1e-12, "{a:?} {b:?}");
            assert!((0.0..=1.0).contains(&ab), "{a:?} {b:?}");
        }
    }

    #[test]
    fn prop_intersection_within_both() {
        let mut rng = VrRng::seed_from(0x9ec7_0002);
        for _ in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            let i = a.intersect(&b);
            if !i.is_empty() {
                assert!(i.x0 >= a.x0 && i.x1 <= a.x1, "{a:?} {b:?}");
                assert!(i.x0 >= b.x0 && i.x1 <= b.x1, "{a:?} {b:?}");
                assert!(i.area() <= a.area());
                assert!(i.area() <= b.area());
            }
        }
    }

    #[test]
    fn prop_union_contains_both() {
        let mut rng = VrRng::seed_from(0x9ec7_0003);
        for _ in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            let u = a.union_bounds(&b);
            for r in [a, b] {
                assert!(u.x0 <= r.x0 && u.x1 >= r.x1, "{a:?} {b:?}");
                assert!(u.y0 <= r.y0 && u.y1 >= r.y1, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn prop_clip_never_grows() {
        let mut rng = VrRng::seed_from(0x9ec7_0004);
        for _ in 0..256 {
            let a = arb_rect(&mut rng);
            let w = rng.range(1, 200) as u32;
            let h = rng.range(1, 200) as u32;
            let c = a.clipped(w, h);
            assert!(c.area() <= a.area(), "{a:?} {w}x{h}");
            if !c.is_empty() {
                assert!(c.x0 >= 0 && c.y0 >= 0);
                assert!(c.x1 <= w as i32 && c.y1 <= h as i32);
            }
        }
    }

    /// Exhaustive small-input sweep: every pair of 1–3 pixel rects in
    /// a 6×6 grid satisfies the IoU/intersection invariants at once.
    #[test]
    fn exhaustive_small_rect_pairs() {
        let mut rects = Vec::new();
        for x in 0..4i32 {
            for y in 0..4i32 {
                for w in 1..=3u32 {
                    for h in 1..=3u32 {
                        rects.push(Rect::from_origin_size(x, y, w, h));
                    }
                }
            }
        }
        for a in &rects {
            for b in &rects {
                let i = a.intersect(b);
                assert!(i.area() <= a.area().min(b.area()));
                let iou = a.iou(b);
                assert!((0.0..=1.0).contains(&iou));
                if a == b {
                    assert_eq!(iou, 1.0);
                }
            }
        }
    }
}
