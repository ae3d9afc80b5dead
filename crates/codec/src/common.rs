//! Helpers shared bit-exactly between encoder and decoder.
//!
//! Everything here affects reconstruction, so both sides must use the
//! same definitions — keeping them in one module makes drift
//! impossible.

use crate::blocks::{Block, PlaneRef, Rows};
use crate::motion::MotionVector;
use crate::quant::Levels;
use crate::transform::{idct, idct_dc, N};
use vr_frame::round_u8;

/// Macroblock edge length (luma).
pub const MB: usize = 16;

/// Macroblock grid dimensions for a frame.
pub fn mb_grid(width: u32, height: u32) -> (u32, u32) {
    (width.div_ceil(MB as u32), height.div_ceil(MB as u32))
}

/// Chroma motion vector derived from a luma vector (floor division by
/// two via arithmetic shift — identical on both sides).
pub fn chroma_mv(mv: MotionVector) -> MotionVector {
    MotionVector { dx: mv.dx >> 1, dy: mv.dy >> 1 }
}

/// Origins of the six 8×8 blocks of the macroblock at luma `(bx, by)`,
/// in bitstream order, as `(plane, x0, y0)` with plane 0/1/2 = Y/U/V:
/// four luma quadrants, then one block per chroma plane.
pub fn mb_blocks(bx: i32, by: i32) -> [(usize, i32, i32); 6] {
    let n = N as i32;
    [
        (0, bx, by),
        (0, bx + n, by),
        (0, bx, by + n),
        (0, bx + n, by + n),
        (1, bx / 2, by / 2),
        (2, bx / 2, by / 2),
    ]
}

/// Quadrant `sub` (0..4, the order of [`mb_blocks`]) of a 16×16
/// block, borrowed in place.
#[inline]
pub fn quadrant<'a>(mb: &Rows<'a, MB>, sub: usize) -> Rows<'a, N> {
    let (x, y) = ((sub % 2) * N, (sub / 2) * N);
    std::array::from_fn(|r| mb[y + r][x..].first_chunk().expect("quadrant row"))
}

/// Flat intra predictor for the 8×8 block at `(x0, y0)`: the mean of
/// the reconstructed row above and column left of the block. Falls
/// back to 128 when no neighbours exist (top-left block) or when the
/// profile disables DC prediction.
pub fn intra_flat_pred(plane: &PlaneRef<'_>, x0: i32, y0: i32, enabled: bool) -> u8 {
    if !enabled {
        return 128;
    }
    let (width, height) = (plane.width, plane.height);
    let mut sum = 0u32;
    let mut count = 0u32;
    if y0 > 0 {
        let y = (y0 - 1) as u32;
        for c in 0..N as i32 {
            let x = x0 + c;
            if x >= 0 && x < width as i32 && y < height {
                sum += plane.data[(y * width + x as u32) as usize] as u32;
                count += 1;
            }
        }
    }
    if x0 > 0 {
        let x = (x0 - 1) as u32;
        for r in 0..N as i32 {
            let y = y0 + r;
            if y >= 0 && y < height as i32 && x < width {
                sum += plane.data[(y as u32 * width + x) as usize] as u32;
                count += 1;
            }
        }
    }
    if count == 0 {
        128
    } else {
        // A mean of bytes: in 0..=255 once rounded.
        (sum as f32 / count as f32).round() as u8
    }
}

/// Closed-loop reconstruction of one block: dequantize, inverse
/// transform, add the prediction, round to samples. The encoder and
/// the decoder both call this and nothing else, so they cannot drift.
///
/// How much of the transform runs depends on where the nonzero levels
/// are; each shortcut is the dense computation with exact no-ops left
/// out (see [`idct`], which dequantizes the masked rows as it goes):
/// all-zero levels add `+0.0` to samples that are already whole, so
/// the prediction comes back untouched; a lone DC level adds one value
/// to every sample. The final add-and-round runs eight lanes per row
/// through [`round_u8`], which has no libm call and no saturating cast.
#[inline]
pub fn reconstruct(block: &Levels, step: f32, pred: &Rows<'_, N>) -> Block<N> {
    if block.is_zero() {
        return pred.map(|row| *row);
    }
    let mut out = [[0u8; N]; N];
    if block.is_dc_only() {
        let dc = idct_dc(block.levels[0] as f32 * step);
        for (o, p) in out.iter_mut().zip(pred) {
            for k in 0..N {
                o[k] = round_u8(dc + p[k] as f32);
            }
        }
    } else {
        let rec = idct(&block.levels, step, block.rows, block.cols);
        for ((o, p), r) in out.iter_mut().zip(pred).zip(&rec) {
            for k in 0..N {
                o[k] = round_u8(r[k] + p[k] as f32);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_frame() {
        assert_eq!(mb_grid(64, 48), (4, 3));
        assert_eq!(mb_grid(65, 49), (5, 4));
        assert_eq!(mb_grid(16, 16), (1, 1));
        assert_eq!(mb_grid(2, 2), (1, 1));
    }

    #[test]
    fn chroma_mv_floors() {
        assert_eq!(chroma_mv(MotionVector { dx: 5, dy: -5 }), MotionVector { dx: 2, dy: -3 });
        assert_eq!(chroma_mv(MotionVector { dx: 4, dy: -4 }), MotionVector { dx: 2, dy: -2 });
    }

    #[test]
    fn intra_pred_fallbacks() {
        let plane = vec![100u8; 64];
        let plane = PlaneRef::new(&plane, 8, 8);
        assert_eq!(intra_flat_pred(&plane, 0, 0, true), 128);
        assert_eq!(intra_flat_pred(&plane, 4, 4, false), 128);
    }

    #[test]
    fn intra_pred_uses_neighbours() {
        // 16x16 plane: top row 50, left column 70, rest 0.
        let mut plane = vec![0u8; 256];
        plane[..16].fill(50);
        for y in 0..16 {
            plane[y * 16] = 70;
        }
        // Block at (1, 1): neighbours are row y=0 (x=1..=8, value 50)
        // and column x=0 (y=1..=8, value 70) → mean 60.
        assert_eq!(intra_flat_pred(&PlaneRef::new(&plane, 16, 16), 1, 1, true), 60);
        // Off the right edge only the in-plane neighbours count: four
        // samples of row y=0 (x=12..=15, value 50) and eight of column
        // x=11 (value 0) → 200 / 12, rounded.
        assert_eq!(intra_flat_pred(&PlaneRef::new(&plane, 16, 16), 12, 1, true), 17);
    }

    #[test]
    fn mb_blocks_and_quadrants_line_up() {
        let mb: Block<MB> = std::array::from_fn(|r| std::array::from_fn(|c| (r * 16 + c) as u8));
        for (sub, &(plane, x0, y0)) in mb_blocks(32, 16)[..4].iter().enumerate() {
            assert_eq!(plane, 0);
            let q = quadrant(&mb.each_ref(), sub);
            assert_eq!(q[0][0], mb[(y0 - 16) as usize][(x0 - 32) as usize]);
            assert_eq!(q[7][7], mb[(y0 - 16) as usize + 7][(x0 - 32) as usize + 7]);
        }
        assert_eq!(mb_blocks(32, 16)[4..], [(1, 16, 8), (2, 16, 8)]);
    }

    #[test]
    fn reconstruct_shortcuts_match_the_dense_path() {
        let mut rng = vr_base::VrRng::seed_from(0xc0de_0003);
        for case in 0..3000 {
            let step = crate::quant::qstep(rng.range(0, 51) as u8);
            let mut levels = [0i32; 64];
            match case % 3 {
                0 => {}
                1 => levels[0] = rng.range_i64(-300, 300) as i32,
                _ => {
                    for _ in 0..rng.range(1, 10) {
                        levels[rng.range(0, 63)] = rng.range_i64(-40, 40) as i32;
                    }
                }
            }
            let flat = rng.next_u32() as u8;
            let pred: Block<N> = std::array::from_fn(|_| {
                std::array::from_fn(|_| if case % 2 == 0 { flat } else { rng.next_u32() as u8 })
            });
            assert_eq!(
                reconstruct(&Levels::new(levels), step, &pred.each_ref()),
                crate::oracle::reconstruct(&levels, step, &pred),
                "case {case}"
            );
        }
    }
}
