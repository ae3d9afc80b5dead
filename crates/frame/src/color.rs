//! Color types and BT.601 full-range RGB ↔ YUV conversion.

/// A YUV color sample. `u`/`v` are offset-binary with 128 neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Yuv {
    pub y: u8,
    pub u: u8,
    pub v: u8,
}

/// An RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rgb {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Rgb {
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    pub const WHITE: Rgb = Rgb { r: 255, g: 255, b: 255 };

    /// Construct from components.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Integer luma (same weights as [`rgb_to_yuv`]).
    pub fn luma(&self) -> u8 {
        ((77 * self.r as u32 + 150 * self.g as u32 + 29 * self.b as u32) >> 8) as u8
    }
}

impl Yuv {
    /// Construct from components.
    pub const fn new(y: u8, u: u8, v: u8) -> Self {
        Self { y, u, v }
    }

    /// Neutral gray at the given luma.
    pub const fn gray(y: u8) -> Self {
        Self { y, u: 128, v: 128 }
    }
}

/// BT.601 full-range RGB → YUV using 8-bit fixed-point arithmetic.
///
/// Fixed-point (rather than float) keeps the conversion exactly
/// reproducible across platforms, which the determinism tests rely on.
pub fn rgb_to_yuv(c: Rgb) -> Yuv {
    let (r, g, b) = (c.r as i32, c.g as i32, c.b as i32);
    let y = (77 * r + 150 * g + 29 * b + 128) >> 8;
    let u = ((-43 * r - 85 * g + 128 * b + 128) >> 8) + 128;
    let v = ((128 * r - 107 * g - 21 * b + 128) >> 8) + 128;
    Yuv { y: clamp(y), u: clamp(u), v: clamp(v) }
}

/// BT.601 full-range YUV → RGB using 8-bit fixed-point arithmetic.
pub fn yuv_to_rgb(c: Yuv) -> Rgb {
    let y = c.y as i32;
    let u = c.u as i32 - 128;
    let v = c.v as i32 - 128;
    let r = y + ((359 * v + 128) >> 8);
    let g = y - ((88 * u + 183 * v + 128) >> 8);
    let b = y + ((454 * u + 128) >> 8);
    Rgb { r: clamp(r), g: clamp(g), b: clamp(b) }
}

#[inline]
fn clamp(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Round a float sample to the nearest `u8`, halves away from zero,
/// saturating: bit-for-bit `x.round().clamp(0.0, 255.0) as u8`, but
/// with neither the libm `roundf` call that `f32::round` is on the
/// baseline x86-64 target nor a saturating float-to-int cast, so a
/// per-sample loop around it vectorizes end to end (compare-selects,
/// two adds, a compare, a byte pack).
///
/// Exactness: the two selects clamp to `[0, 255]` and send NaN to 0
/// (`x > 0.0` is false for NaN), as `NaN as u8 == 0` did. Adding 2^23
/// to `c` lands in `[2^23, 2^23 + 256)`, where the spacing of floats is
/// 1, so the sum is exactly `2^23 + rne(c)` (round to nearest, ties to
/// even) and its low mantissa byte is `rne(c)`; subtracting 2^23 again
/// is exact. `c - rne(c)` is exact (Sterbenz for `c >= 1/2`, `c - 0`
/// below) and lies in `[-1/2, 1/2]`; it is `1/2` exactly when `c` is a
/// tie that went down to even, the one case where halves-away-from-zero
/// is one more. No carry: a tie that went down is at most 254.
#[inline]
pub fn round_u8(x: f32) -> u8 {
    const MAGIC: f32 = 8_388_608.0; // 2^23
    let c = if x > 0.0 { x } else { 0.0 };
    let c = if c < 255.0 { c } else { 255.0 };
    let m = c + MAGIC;
    let nearest_even = m - MAGIC;
    m.to_bits() as u8 + (c - nearest_even >= 0.5) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_have_expected_luma_order() {
        let yr = rgb_to_yuv(Rgb::new(255, 0, 0)).y;
        let yg = rgb_to_yuv(Rgb::new(0, 255, 0)).y;
        let yb = rgb_to_yuv(Rgb::new(0, 0, 255)).y;
        assert!(yg > yr && yr > yb, "luma order G > R > B violated: {yg} {yr} {yb}");
    }

    #[test]
    fn black_and_white_map_to_extremes() {
        assert_eq!(rgb_to_yuv(Rgb::BLACK), Yuv { y: 0, u: 128, v: 128 });
        let w = rgb_to_yuv(Rgb::WHITE);
        assert!(w.y >= 254);
        assert!(w.u.abs_diff(128) <= 1 && w.v.abs_diff(128) <= 1);
    }

    #[test]
    fn round_trip_error_is_small() {
        let mut max_err = 0i32;
        for r in (0..=255).step_by(15) {
            for g in (0..=255).step_by(15) {
                for b in (0..=255).step_by(15) {
                    let c = Rgb::new(r as u8, g as u8, b as u8);
                    let back = yuv_to_rgb(rgb_to_yuv(c));
                    max_err = max_err
                        .max((back.r as i32 - c.r as i32).abs())
                        .max((back.g as i32 - c.g as i32).abs())
                        .max((back.b as i32 - c.b as i32).abs());
                }
            }
        }
        assert!(max_err <= 4, "round-trip error {max_err}");
    }

    #[test]
    fn gray_has_neutral_chroma() {
        for v in [0u8, 50, 128, 200, 255] {
            let c = rgb_to_yuv(Rgb::new(v, v, v));
            assert!(c.u.abs_diff(128) <= 1, "u {} for gray {v}", c.u);
            assert!(c.v.abs_diff(128) <= 1, "v {} for gray {v}", c.v);
        }
        assert_eq!(Yuv::gray(10), Yuv { y: 10, u: 128, v: 128 });
    }

    #[test]
    fn luma_helper_matches_conversion() {
        for c in [Rgb::new(10, 200, 30), Rgb::new(255, 128, 0), Rgb::new(3, 3, 250)] {
            assert!(c.luma().abs_diff(rgb_to_yuv(c).y) <= 1);
        }
    }

    /// The libm form `round_u8` replaces.
    fn round_u8_oracle(x: f32) -> u8 {
        x.round().clamp(0.0, 255.0) as u8
    }

    /// The clamp-and-truncate form the compare-select one replaced.
    fn round_u8_truncating_oracle(x: f32) -> u8 {
        let c = x.clamp(0.0, 255.0);
        let t = c as i32;
        let frac = c - t as f32;
        (t + (frac >= 0.5) as i32) as u8
    }

    /// Against both older forms on every float in `[-1, 257]` that has
    /// at most 12 fractional bits, around every tie, and on four
    /// million random bit patterns (NaNs, infinities, subnormals and
    /// huge values included).
    #[test]
    fn round_u8_matches_the_truncating_form_on_random_bits() {
        let check = |x: f32| {
            let want = round_u8_truncating_oracle(x);
            assert_eq!(round_u8(x), want, "x = {x:e} ({:#x})", x.to_bits());
            assert_eq!(round_u8_oracle(x), want, "x = {x:e} ({:#x})", x.to_bits());
        };
        for k in -4096i32..=257 * 4096 {
            check(k as f32 / 4096.0);
        }
        for k in 0i32..=256 {
            let tie = k as f32 + 0.5;
            for d in -4i32..=4 {
                check(f32::from_bits(tie.to_bits().wrapping_add_signed(d)));
            }
        }
        let mut rng = vr_base::VrRng::seed_from(0x5e1e_c701);
        for _ in 0..4_000_000 {
            check(f32::from_bits(rng.next_u32()));
        }
    }

    #[test]
    fn round_u8_matches_libm_round_everywhere_it_matters() {
        // Every k/256 from -2 to 258, which covers every sum of a u8
        // and an 8-fractional-bit residual.
        for k in -512i32..=66_048 {
            let x = k as f32 / 256.0;
            assert_eq!(round_u8(x), round_u8_oracle(x), "x = {x}");
        }
        // One ulp either side of every tie.
        for k in -2i32..=257 {
            let tie = k as f32 + 0.5;
            for bits in [tie.to_bits() - 1, tie.to_bits(), tie.to_bits() + 1] {
                let x = f32::from_bits(bits);
                assert_eq!(round_u8(x), round_u8_oracle(x), "x = {x:e} ({bits:#x})");
            }
        }
        for x in [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.49999997,
            254.99998,
            255.00002,
        ] {
            assert_eq!(round_u8(x), round_u8_oracle(x), "x = {x:e}");
        }
        assert_eq!(round_u8(f32::NAN), 0);
        assert_eq!(round_u8(0.5), 1);
        assert_eq!(round_u8(254.5), 255);
    }
}
