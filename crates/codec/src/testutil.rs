//! Synthetic test clips. Also compiled into `tests/golden.rs` by
//! `#[path]`, so the golden constants pin exactly these frames.

use vr_base::VrRng;
use vr_frame::Frame;

/// A short synthetic sequence with a moving bright square over a
/// gradient background — temporally coherent, so P-frames win.
pub fn moving_square_sequence(w: u32, h: u32, n: usize, seed: u64) -> Vec<Frame> {
    let mut rng = VrRng::seed_from(seed);
    let base_x = rng.range(0, (w / 2) as usize) as i64;
    let base_y = rng.range(0, (h / 2) as usize) as i64;
    (0..n)
        .map(|t| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    f.set_y(x, y, ((x + 2 * y + t as u32) % 200) as u8 + 20);
                }
            }
            let sq = 16u32;
            let ox = (base_x + 2 * t as i64).rem_euclid((w - sq) as i64) as u32;
            let oy = (base_y + t as i64).rem_euclid((h - sq) as i64) as u32;
            for y in oy..oy + sq {
                for x in ox..ox + sq {
                    f.set_y(x, y, 235);
                }
            }
            let (cw, ch) = f.chroma_dims();
            for cy in 0..ch {
                for cx in 0..cw {
                    f.set_u(cx, cy, 96 + (cx % 64) as u8);
                    f.set_v(cx, cy, 160 - (cy % 64) as u8);
                }
            }
            f
        })
        .collect()
}
