//! The machine-readable license-plate texture, shared by the renderer
//! (which paints it) and the ALPR recognizer (which inverts it).
//!
//! Real plates carry human-readable glyphs that OpenALPR resolves
//! from 1κ–4κ video. At this repository's scaled-down resolutions a
//! projected plate is a few dozen pixels wide — too small for 5×7
//! glyph strokes — so Visual City plates encode their six characters
//! as a **block code** (in the spirit of AprilTag fiducials): seven
//! cells across the plate, the first six carrying one character each
//! as a 2×3 grid of dark/bright blocks (6 bits ≥ 36 alphabet values),
//! the seventh carrying an XOR parity cell that rejects false reads.
//! The substitution preserves what Q8 needs: identification is a real
//! pixel-decoding task whose success depends on projected size,
//! orientation, and occlusion. See DESIGN.md.
//!
//! Texture coordinates: `u ∈ [0, 1]` left→right, `v_up ∈ [0, 1]`
//! bottom→top across the *inner* (bright) plate area. A white margin
//! of [`MARGIN_U`]/[`MARGIN_V`] frames the cells.

use vr_base::LicensePlate;

/// Horizontal white margin inside the bright area.
pub(crate) const MARGIN_U: f32 = 0.08;
/// Vertical white margin inside the bright area.
pub(crate) const MARGIN_V: f32 = 0.14;
/// Cells across the plate: six characters plus a parity cell.
pub const CELLS: usize = 7;
/// Bit-block columns per cell.
pub const CELL_COLS: u32 = 2;
/// Bit-block rows per cell.
pub const CELL_ROWS: u32 = 3;

/// The seven cell values of a plate: its six glyph codes plus a
/// checksum cell.
pub fn cell_values(plate: &LicensePlate) -> [u8; CELLS] {
    let codes = plate.glyph_codes();
    [codes[0], codes[1], codes[2], codes[3], codes[4], codes[5], checksum(&codes)]
}

/// Position-weighted checksum: unlike plain XOR it catches shifted or
/// systematically-biased reads, which are the common failure mode of
/// a misaligned sampler.
fn checksum(codes: &[u8; 6]) -> u8 {
    let mut acc = 0x17u32;
    for (i, &c) in codes.iter().enumerate() {
        acc = acc.wrapping_mul(37).wrapping_add((i as u32 + 1) * c as u32);
    }
    (acc % 64) as u8
}

/// Reconstruct a plate from seven decoded cell values; `None` when a
/// value is out of alphabet range or the parity cell disagrees.
pub fn decode_cells(values: [u8; CELLS]) -> Option<LicensePlate> {
    let codes = [values[0], values[1], values[2], values[3], values[4], values[5]];
    if checksum(&codes) != values[6] {
        return None;
    }
    LicensePlate::from_glyph_codes(codes)
}

/// Whether the texel at `(u, v_up)` of the inner plate area is dark.
pub fn is_dark(values: &[u8; CELLS], u: f32, v_up: f32) -> bool {
    if !(MARGIN_U..=(1.0 - MARGIN_U)).contains(&u)
        || !(MARGIN_V..=(1.0 - MARGIN_V)).contains(&v_up)
    {
        return false;
    }
    let gu = (u - MARGIN_U) / (1.0 - 2.0 * MARGIN_U);
    let gv_down = 1.0 - (v_up - MARGIN_V) / (1.0 - 2.0 * MARGIN_V);
    let cell = ((gu * CELLS as f32) as usize).min(CELLS - 1);
    let cu = (gu * CELLS as f32 - cell as f32).clamp(0.0, 0.9999);
    let col = ((cu * CELL_COLS as f32) as u32).min(CELL_COLS - 1);
    let row = ((gv_down * CELL_ROWS as f32) as u32).min(CELL_ROWS - 1);
    let bit = row * CELL_COLS + col;
    (values[cell] >> bit) & 1 == 1
}

/// Texture coordinate `(u, v_up)` of the center of block
/// `(col, row)` of `cell` — the recognizer's sampling point, exactly
/// inverse to [`is_dark`]'s quantization.
pub fn block_center(cell: usize, col: u32, row: u32) -> (f32, f32) {
    let cu = (col as f32 + 0.5) / CELL_COLS as f32;
    let gu = (cell as f32 + cu) / CELLS as f32;
    let u = MARGIN_U + gu * (1.0 - 2.0 * MARGIN_U);
    let gv_down = (row as f32 + 0.5) / CELL_ROWS as f32;
    let v_up = MARGIN_V + (1.0 - gv_down) * (1.0 - 2.0 * MARGIN_V);
    (u, v_up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::VrRng;

    #[test]
    fn cells_round_trip_with_parity() {
        let mut rng = VrRng::seed_from(1);
        for _ in 0..200 {
            let plate = LicensePlate::random(&mut rng);
            let values = cell_values(&plate);
            assert_eq!(decode_cells(values), Some(plate));
            // Corrupting any single cell breaks parity.
            for i in 0..CELLS {
                let mut bad = values;
                bad[i] ^= 0x01;
                assert_ne!(decode_cells(bad), Some(plate), "cell {i}");
            }
        }
    }

    #[test]
    fn block_centers_invert_the_texture() {
        let mut rng = VrRng::seed_from(2);
        for _ in 0..50 {
            let plate = LicensePlate::random(&mut rng);
            let values = cell_values(&plate);
            for cell in 0..CELLS {
                for row in 0..CELL_ROWS {
                    for col in 0..CELL_COLS {
                        let (u, v) = block_center(cell, col, row);
                        let bit = row * CELL_COLS + col;
                        assert_eq!(
                            is_dark(&values, u, v),
                            (values[cell] >> bit) & 1 == 1,
                            "cell {cell} block ({col},{row})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn margins_are_always_bright() {
        let values = cell_values(&LicensePlate(*b"ZZZZZZ"));
        for t in [0.0f32, 0.02, 0.98, 1.0] {
            assert!(!is_dark(&values, 0.01, t));
            assert!(!is_dark(&values, 0.99, t));
            assert!(!is_dark(&values, t, 0.02));
            assert!(!is_dark(&values, t, 0.99));
        }
    }

    #[test]
    fn distinct_plates_have_distinct_textures() {
        let a = cell_values(&LicensePlate(*b"AAAAAA"));
        let b = cell_values(&LicensePlate(*b"AAAAAB"));
        assert_ne!(a, b);
    }
}
