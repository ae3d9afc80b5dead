//! The planar YUV 4:2:0 [`Frame`] and packed [`RgbImage`] types.

use crate::color::{rgb_to_yuv, yuv_to_rgb, Rgb, Yuv};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use vr_base::FramePool;

/// One copy-on-write sample plane of a [`Frame`].
///
/// Behaves like a `Vec<u8>` at every call site (it derefs to `[u8]`
/// for reads and writes), but cloning is a refcount bump instead of a
/// buffer copy: planes are shared until one side mutates, at which
/// point the writer transparently gets a private copy. A plane drawn
/// from a [`FramePool`] carries its pool handle and returns its buffer
/// on drop once it is the last holder, making steady-state
/// decode/encode loops allocation-free.
pub struct Plane {
    /// Always `Some` outside `drop`.
    data: Option<Arc<Vec<u8>>>,
    /// Pool to recycle the buffer into, if pooled.
    pool: Option<Arc<FramePool>>,
}

impl Plane {
    /// A fresh (unpooled) plane of `len` samples, all `fill`.
    pub fn new(len: usize, fill: u8) -> Self {
        Self { data: Some(Arc::new(vec![fill; len])), pool: None }
    }

    /// Wrap an owned buffer (no copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self { data: Some(Arc::new(v)), pool: None }
    }

    /// A plane of `len` samples, all `fill`, drawn from `pool`
    /// (allocation-free once the pool is warm). Observationally
    /// identical to [`Plane::new`].
    pub fn pooled(len: usize, fill: u8, pool: &Arc<FramePool>) -> Self {
        Self { data: Some(pool.take(len, fill)), pool: Some(Arc::clone(pool)) }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.as_ref().expect("plane present").len()
    }

    /// Whether the plane has no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples as a shared slice.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_ref().expect("plane present").as_slice()
    }

    /// The samples as a mutable slice (copy-on-write: if the plane is
    /// shared, the caller gets a private copy first).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Arc::make_mut(self.data.as_mut().expect("plane present")).as_mut_slice()
    }

    /// Whether this plane currently shares its buffer with another.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(self.data.as_ref().expect("plane present")) > 1
    }
}

impl Deref for Plane {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for Plane {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl Clone for Plane {
    /// O(1): bumps the refcount; the buffer is shared until mutated.
    fn clone(&self) -> Self {
        Self { data: self.data.clone(), pool: self.pool.clone() }
    }
}

impl Drop for Plane {
    fn drop(&mut self) {
        if let (Some(arc), Some(pool)) = (self.data.take(), self.pool.take()) {
            pool.put(arc);
        }
    }
}

impl PartialEq for Plane {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Plane {}

impl PartialEq<Vec<u8>> for Plane {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Plane> for Vec<u8> {
    fn eq(&self, other: &Plane) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<[u8]> for Plane {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plane")
            .field("len", &self.len())
            .field("shared", &self.is_shared())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl<'a> IntoIterator for &'a Plane {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut Plane {
    type Item = &'a mut u8;
    type IntoIter = std::slice::IterMut<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl From<Vec<u8>> for Plane {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

/// A planar YUV 4:2:0 frame.
///
/// * The luma plane `Y` has one sample per pixel.
/// * The chroma planes `U`/`V` each have one sample per 2×2 pixel
///   block, so width and height must be even.
/// * Neutral chroma is 128; the paper's "drop the chroma channels"
///   (Q2a) therefore maps to setting U = V = 128.
///
/// The "null" sentinel color ω used by Q2(c)/Q6 (§4.1) is pure black:
/// `Y = 0, U = 128, V = 128`.
///
/// Planes are copy-on-write ([`Plane`]): `Frame::clone` is O(1) and
/// frames travel through pipeline channels without copying pixels.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    /// Y plane, `width * height` samples, row-major.
    pub y: Plane,
    /// U plane, `(width/2) * (height/2)` samples.
    pub u: Plane,
    /// V plane, `(width/2) * (height/2)` samples.
    pub v: Plane,
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

impl Frame {
    /// The ω sentinel (§4.1): pure black.
    pub const OMEGA: Yuv = Yuv { y: 0, u: 128, v: 128 };

    /// Allocate a black frame. Panics if either dimension is odd or
    /// zero (4:2:0 chroma requires even dimensions).
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width >= 2 && height >= 2, "frame dimensions must be >= 2");
        assert!(width % 2 == 0 && height % 2 == 0, "4:2:0 frames need even dimensions");
        let luma = (width * height) as usize;
        let chroma = luma / 4;
        Self {
            width,
            height,
            y: Plane::new(luma, 0),
            u: Plane::new(chroma, 128),
            v: Plane::new(chroma, 128),
        }
    }

    /// Allocate a black frame whose planes come from (and return to)
    /// `pool`. Identical contents to [`Frame::new`]; allocation-free
    /// once the pool is warm.
    pub fn new_pooled(width: u32, height: u32, pool: &Arc<FramePool>) -> Self {
        assert!(width >= 2 && height >= 2, "frame dimensions must be >= 2");
        assert!(width % 2 == 0 && height % 2 == 0, "4:2:0 frames need even dimensions");
        let luma = (width * height) as usize;
        let chroma = luma / 4;
        Self {
            width,
            height,
            y: Plane::pooled(luma, 0, pool),
            u: Plane::pooled(chroma, 128, pool),
            v: Plane::pooled(chroma, 128, pool),
        }
    }

    /// A frame filled with a uniform color.
    pub fn filled(width: u32, height: u32, color: Yuv) -> Self {
        let mut f = Self::new(width, height);
        f.y.fill(color.y);
        f.u.fill(color.u);
        f.v.fill(color.v);
        f
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` of the chroma planes.
    pub fn chroma_dims(&self) -> (u32, u32) {
        (self.width / 2, self.height / 2)
    }

    /// Luma sample at `(x, y)`.
    #[inline]
    pub fn get_y(&self, x: u32, y: u32) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.y[(y * self.width + x) as usize]
    }

    /// Set the luma sample at `(x, y)`.
    #[inline]
    pub fn set_y(&mut self, x: u32, y: u32, v: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.y[(y * self.width + x) as usize] = v;
    }

    /// U sample at chroma coordinates `(cx, cy)`.
    #[inline]
    pub fn get_u(&self, cx: u32, cy: u32) -> u8 {
        self.u[(cy * self.width / 2 + cx) as usize]
    }

    /// V sample at chroma coordinates `(cx, cy)`.
    #[inline]
    pub fn get_v(&self, cx: u32, cy: u32) -> u8 {
        self.v[(cy * self.width / 2 + cx) as usize]
    }

    /// Set the U sample at chroma coordinates.
    #[inline]
    pub fn set_u(&mut self, cx: u32, cy: u32, v: u8) {
        self.u[(cy * self.width / 2 + cx) as usize] = v;
    }

    /// Set the V sample at chroma coordinates.
    #[inline]
    pub fn set_v(&mut self, cx: u32, cy: u32, v: u8) {
        self.v[(cy * self.width / 2 + cx) as usize] = v;
    }

    /// Full YUV color at pixel `(x, y)` (chroma replicated from the
    /// containing 2×2 block).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Yuv {
        Yuv {
            y: self.get_y(x, y),
            u: self.get_u(x / 2, y / 2),
            v: self.get_v(x / 2, y / 2),
        }
    }

    /// Set the full YUV color at pixel `(x, y)`. The chroma of the
    /// containing 2×2 block is overwritten.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Yuv) {
        self.set_y(x, y, c.y);
        self.set_u(x / 2, y / 2, c.u);
        self.set_v(x / 2, y / 2, c.v);
    }

    /// Whether the pixel at `(x, y)` is the ω sentinel (black).
    ///
    /// A tolerance of ±4 on each channel absorbs codec quantization
    /// noise, matching how the reference implementation re-detects ω
    /// regions after a lossy round trip.
    #[inline]
    pub fn is_omega(&self, x: u32, y: u32) -> bool {
        let c = self.get(x, y);
        c.y <= 4 && c.u.abs_diff(128) <= 4 && c.v.abs_diff(128) <= 4
    }

    /// Convert to a packed RGB image.
    pub fn to_rgb(&self) -> RgbImage {
        let mut img = RgbImage::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                img.set(x, y, yuv_to_rgb(self.get(x, y)));
            }
        }
        img
    }

    /// Build a frame from a packed RGB image (dimensions must be even).
    /// Chroma is averaged over each 2×2 block.
    ///
    /// One pass over row pairs: each pixel is converted once, its luma
    /// written and its chroma added to its block's sums.
    pub fn from_rgb(img: &RgbImage) -> Self {
        let mut f = Frame::new(img.width(), img.height());
        let w = img.width() as usize;
        let yuv = |p: &[u8]| rgb_to_yuv(Rgb { r: p[0], g: p[1], b: p[2] });
        let rows = img
            .data
            .chunks_exact(6 * w)
            .zip(f.y.as_mut_slice().chunks_exact_mut(2 * w))
            .zip(f.u.as_mut_slice().chunks_exact_mut(w / 2))
            .zip(f.v.as_mut_slice().chunks_exact_mut(w / 2));
        for (((rgb, luma), u_row), v_row) in rows {
            let (rgb_top, rgb_bottom) = rgb.split_at(3 * w);
            let (luma_top, luma_bottom) = luma.split_at_mut(w);
            let blocks = rgb_top
                .chunks_exact(6)
                .zip(rgb_bottom.chunks_exact(6))
                .zip(luma_top.chunks_exact_mut(2).zip(luma_bottom.chunks_exact_mut(2)))
                .zip(u_row.iter_mut().zip(v_row.iter_mut()));
            for (((top, bottom), (y_top, y_bottom)), (u, v)) in blocks {
                let c = [yuv(&top[..3]), yuv(&top[3..]), yuv(&bottom[..3]), yuv(&bottom[3..])];
                y_top[0] = c[0].y;
                y_top[1] = c[1].y;
                y_bottom[0] = c[2].y;
                y_bottom[1] = c[3].y;
                *u = (c.iter().map(|c| c.u as u32).sum::<u32>() / 4) as u8;
                *v = (c.iter().map(|c| c.v as u32).sum::<u32>() / 4) as u8;
            }
        }
        f
    }

    /// Total sample count across all three planes.
    pub fn sample_count(&self) -> usize {
        self.y.len() + self.u.len() + self.v.len()
    }
}

/// A packed 8-bit-per-channel RGB image.
#[derive(Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: u32,
    height: u32,
    /// Interleaved RGB data, `3 * width * height` bytes.
    pub data: Vec<u8>,
}

impl std::fmt::Debug for RgbImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RgbImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

impl RgbImage {
    /// Allocate a black image.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0);
        Self { width, height, data: vec![0; (width * height * 3) as usize] }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Color at `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        let i = ((y * self.width + x) * 3) as usize;
        Rgb { r: self.data[i], g: self.data[i + 1], b: self.data[i + 2] }
    }

    /// Set the color at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        let i = ((y * self.width + x) * 3) as usize;
        self.data[i] = c.r;
        self.data[i + 1] = c.g;
        self.data[i + 2] = c.b;
    }

    /// Fill the whole image with one color.
    pub fn fill(&mut self, c: Rgb) {
        for px in self.data.chunks_exact_mut(3) {
            px[0] = c.r;
            px[1] = c.g;
            px[2] = c.b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn odd_dimensions_rejected() {
        let _ = Frame::new(3, 4);
    }

    #[test]
    fn new_frame_is_black() {
        let f = Frame::new(4, 4);
        assert!(f.is_omega(0, 0));
        assert!(f.is_omega(3, 3));
        assert_eq!(f.sample_count(), 16 + 4 + 4);
    }

    #[test]
    fn pixel_round_trip() {
        let mut f = Frame::new(8, 8);
        let c = Yuv { y: 200, u: 90, v: 160 };
        f.set(5, 3, c);
        assert_eq!(f.get(5, 3), c);
        // Chroma is shared by the 2x2 block.
        assert_eq!(f.get(4, 2).u, 90);
        assert!(!f.is_omega(5, 3));
    }

    #[test]
    fn filled_frame() {
        let c = Yuv { y: 77, u: 10, v: 240 };
        let f = Frame::filled(6, 4, c);
        for y in 0..4 {
            for x in 0..6 {
                assert_eq!(f.get(x, y), c);
            }
        }
    }

    #[test]
    fn rgb_round_trip_is_close() {
        let img = {
            let mut i = RgbImage::new(16, 16);
            for y in 0..16 {
                for x in 0..16 {
                    i.set(x, y, Rgb { r: (x * 16) as u8, g: (y * 16) as u8, b: 128 });
                }
            }
            i
        };
        let f = Frame::from_rgb(&img);
        let back = f.to_rgb();
        // Chroma subsampling + integer rounding: allow modest error.
        let mut max_err = 0i32;
        for i in 0..img.data.len() {
            max_err = max_err.max((img.data[i] as i32 - back.data[i] as i32).abs());
        }
        assert!(max_err <= 12, "max channel error {max_err}");
    }

    /// The two-pass conversion `from_rgb` replaced (every pixel
    /// converted once for luma and again for its block's chroma), kept
    /// verbatim as the differential oracle.
    fn from_rgb_oracle(img: &RgbImage) -> Frame {
        let mut f = Frame::new(img.width(), img.height());
        for y in 0..img.height() {
            for x in 0..img.width() {
                let c = rgb_to_yuv(img.get(x, y));
                f.set_y(x, y, c.y);
            }
        }
        let (cw, ch) = f.chroma_dims();
        for cy in 0..ch {
            for cx in 0..cw {
                let mut su = 0u32;
                let mut sv = 0u32;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let c = rgb_to_yuv(img.get(cx * 2 + dx, cy * 2 + dy));
                        su += c.u as u32;
                        sv += c.v as u32;
                    }
                }
                f.set_u(cx, cy, (su / 4) as u8);
                f.set_v(cx, cy, (sv / 4) as u8);
            }
        }
        f
    }

    #[test]
    fn from_rgb_matches_the_two_pass_oracle() {
        let mut rng = vr_base::VrRng::seed_from(23);
        // 2×2 up, including widths that are not multiples of 16 and
        // tall/flat shapes; every byte random.
        for (w, h) in [(2, 2), (4, 2), (2, 6), (6, 4), (18, 10), (34, 2), (96, 54), (130, 74)] {
            for _ in 0..4 {
                let mut img = RgbImage::new(w, h);
                for b in &mut img.data {
                    *b = rng.next_u64() as u8;
                }
                assert_eq!(Frame::from_rgb(&img), from_rgb_oracle(&img), "{w}x{h}");
            }
        }
        // The extremes of every channel.
        let mut img = RgbImage::new(4, 4);
        for (i, b) in img.data.iter_mut().enumerate() {
            *b = [0, 255][(i * 7 / 3) % 2];
        }
        assert_eq!(Frame::from_rgb(&img), from_rgb_oracle(&img));
    }

    #[test]
    fn omega_tolerance_absorbs_noise() {
        let mut f = Frame::new(4, 4);
        f.set(1, 1, Yuv { y: 3, u: 126, v: 131 });
        assert!(f.is_omega(1, 1));
        f.set(1, 1, Yuv { y: 30, u: 128, v: 128 });
        assert!(!f.is_omega(1, 1));
    }

    #[test]
    fn plane_clone_is_shared_until_written() {
        let mut f = Frame::new(4, 4);
        f.set_y(1, 1, 200);
        let g = f.clone();
        assert!(f.y.is_shared() && g.y.is_shared());
        assert_eq!(f, g);
        // Writing one side detaches it; the other is untouched.
        let mut h = g.clone();
        h.set_y(0, 0, 99);
        assert_eq!(h.get_y(0, 0), 99);
        assert_eq!(g.get_y(0, 0), 0);
        assert_eq!(f.get_y(1, 1), 200);
    }

    #[test]
    fn pooled_frames_match_fresh_and_recycle() {
        let pool = vr_base::FramePool::new(4);
        let a = Frame::new_pooled(8, 6, &pool);
        assert_eq!(a, Frame::new(8, 6), "pooled frame must be bit-identical to fresh");
        drop(a);
        assert_eq!(pool.retained(), 3, "all three planes return to the pool");
        // A recycled frame is reset even if the previous user wrote it.
        let mut b = Frame::new_pooled(8, 6, &pool);
        b.set_y(3, 3, 250);
        drop(b);
        let c = Frame::new_pooled(8, 6, &pool);
        assert_eq!(c, Frame::new(8, 6));
        // A plane still shared elsewhere is not recycled into the pool.
        let d = Frame::new_pooled(8, 6, &pool);
        let alias = d.y.clone();
        drop(d);
        assert_eq!(pool.retained(), 2);
        drop(alias);
    }

    #[test]
    fn rgb_image_accessors() {
        let mut img = RgbImage::new(3, 2);
        let c = Rgb { r: 1, g: 2, b: 3 };
        img.set(2, 1, c);
        assert_eq!(img.get(2, 1), c);
        img.fill(Rgb { r: 9, g: 9, b: 9 });
        assert_eq!(img.get(0, 0), Rgb { r: 9, g: 9, b: 9 });
    }
}
