//! Integer-pel motion estimation: diamond search over a reference
//! plane, seeded by a predicted vector.

use crate::blocks::{Block, PlaneRef};

/// A motion vector in integer pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    pub dx: i16,
    pub dy: i16,
}

/// Result of a motion search.
#[derive(Debug, Clone, Copy)]
pub struct MotionResult {
    pub mv: MotionVector,
    pub sad: u32,
}

/// Large diamond search pattern (LDSP).
const LDSP: [(i32, i32); 8] =
    [(0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2)];
/// Small diamond search pattern (SDSP) for refinement.
const SDSP: [(i32, i32); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];

/// Diamond search for the best match in `reference` of `cur`, the
/// `N`×`N` block gathered at `(bx, by)`, starting from `pred` and
/// constrained to ±`range` around the zero vector.
///
/// Diamond search is the classic fast block-matching algorithm (used
/// by real encoders as the default): it converges to a local SAD
/// minimum checking a handful of candidates instead of `(2·range+1)²`.
pub fn diamond_search<const N: usize>(
    cur: &Block<N>,
    reference: &PlaneRef<'_>,
    bx: i32,
    by: i32,
    pred: MotionVector,
    range: i16,
) -> MotionResult {
    let clamp_mv = |v: i32| v.clamp(-(range as i32), range as i32);
    let sad_at = |dx: i32, dy: i32, bound: u32| reference.sad(cur, bx + dx, by + dy, bound);
    let mut best = MotionVector {
        dx: clamp_mv(pred.dx as i32) as i16,
        dy: clamp_mv(pred.dy as i32) as i16,
    };
    let mut best_sad = sad_at(best.dx as i32, best.dy as i32, u32::MAX);
    // Always consider the zero vector: static background dominates
    // traffic-camera footage and the zero MV codes cheapest.
    if best != MotionVector::default() {
        let zero_sad = sad_at(0, 0, best_sad);
        if zero_sad < best_sad {
            best = MotionVector::default();
            best_sad = zero_sad;
        }
    }
    // Large diamond until the center is best (bounded iterations).
    for _ in 0..32 {
        let mut improved = false;
        for &(ox, oy) in &LDSP {
            let dx = clamp_mv(best.dx as i32 + ox);
            let dy = clamp_mv(best.dy as i32 + oy);
            if dx == best.dx as i32 && dy == best.dy as i32 {
                continue;
            }
            let sad = sad_at(dx, dy, best_sad);
            if sad < best_sad {
                best = MotionVector { dx: dx as i16, dy: dy as i16 };
                best_sad = sad;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    // Small diamond refinement.
    for &(ox, oy) in &SDSP {
        let dx = clamp_mv(best.dx as i32 + ox);
        let dy = clamp_mv(best.dy as i32 + oy);
        let sad = sad_at(dx, dy, best_sad);
        if sad < best_sad {
            best = MotionVector { dx: dx as i16, dy: dy as i16 };
            best_sad = sad;
        }
    }
    MotionResult { mv: best, sad: best_sad }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a plane with a distinctive 8x8 pattern at (px, py).
    fn plane_with_pattern(w: u32, h: u32, px: i32, py: i32) -> Vec<u8> {
        let mut data = vec![50u8; (w * h) as usize];
        for r in 0..8i32 {
            for c in 0..8i32 {
                let (x, y) = (px + c, py + r);
                if x >= 0 && y >= 0 && x < w as i32 && y < h as i32 {
                    data[(y as u32 * w + x as u32) as usize] = (100 + r * 13 + c * 7) as u8;
                }
            }
        }
        data
    }

    #[test]
    fn finds_pure_translation() {
        let w = 64;
        let h = 64;
        let ref_data = plane_with_pattern(w, h, 24, 24);
        let cur_data = plane_with_pattern(w, h, 29, 22); // moved +5, -2
        let rp = PlaneRef::new(&ref_data, w, h);
        let cp = PlaneRef::new(&cur_data, w, h);
        // Block at the pattern's current location; best MV points back
        // to the reference location: mv = ref_pos - cur_pos = (-5, +2).
        let r =
            diamond_search::<8>(&cp.gather(29, 22, true), &rp, 29, 22, MotionVector::default(), 16);
        assert_eq!(r.mv, MotionVector { dx: -5, dy: 2 });
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn static_block_gets_zero_mv() {
        let data = plane_with_pattern(64, 64, 24, 24);
        let p = PlaneRef::new(&data, 64, 64);
        let r = diamond_search::<8>(
            &p.gather(24, 24, true),
            &p,
            24,
            24,
            MotionVector { dx: 3, dy: 3 },
            16,
        );
        assert_eq!(r.mv, MotionVector::default());
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn respects_search_range() {
        let ref_data = plane_with_pattern(96, 32, 80, 12);
        let cur_data = plane_with_pattern(96, 32, 8, 12); // moved far
        let rp = PlaneRef::new(&ref_data, 96, 32);
        let cp = PlaneRef::new(&cur_data, 96, 32);
        let r =
            diamond_search::<8>(&cp.gather(8, 12, true), &rp, 8, 12, MotionVector::default(), 4);
        assert!(r.mv.dx.abs() <= 4 && r.mv.dy.abs() <= 4);
    }

    #[test]
    fn prediction_seeds_the_search() {
        // With a tight range, a good predictor finds a match the
        // zero-seeded search cannot reach in one diamond pass.
        let ref_data = plane_with_pattern(128, 64, 70, 30);
        let cur_data = plane_with_pattern(128, 64, 40, 30); // +30 shift
        let rp = PlaneRef::new(&ref_data, 128, 64);
        let cp = PlaneRef::new(&cur_data, 128, 64);
        let seeded = diamond_search::<8>(
            &cp.gather(40, 30, true),
            &rp,
            40,
            30,
            MotionVector { dx: 30, dy: 0 },
            32,
        );
        assert_eq!(seeded.mv, MotionVector { dx: 30, dy: 0 });
        assert_eq!(seeded.sad, 0);
    }
}
