//! Plane ↔ block gather/scatter with edge clamping, and the SAD
//! metric used by mode decision and motion estimation.
//!
//! Blocks are fixed-size `u8` arrays (`N` = 8 for a transform block,
//! 16 for a macroblock), so every row loop has a constant trip count.
//! Whether a block lies wholly inside its plane is the caller's to
//! say: a macroblock inside the frame has all six of its blocks inside
//! their planes, so the encoder and decoder test once per macroblock,
//! not once per block. Saying `inside = false` of a block that is
//! inside is always safe, only slower.

use vr_frame::Frame;

/// An `N`×`N` block of samples, row-major.
pub type Block<const N: usize> = [[u8; N]; N];

/// The borrowed rows of an `N`×`N` block: a gathered block
/// (`block.each_ref()`), a quadrant of a macroblock, or a block read in
/// place from a plane ([`PlaneRef::rows_at`]). The transform and
/// reconstruction take rows, so a block is read where it already is
/// instead of being copied into an array first.
pub type Rows<'a, const N: usize> = [&'a [u8; N]; N];

/// A borrowed view of one image plane.
#[derive(Debug, Clone, Copy)]
pub struct PlaneRef<'a> {
    pub data: &'a [u8],
    pub width: u32,
    pub height: u32,
}

impl<'a> PlaneRef<'a> {
    /// Wrap a plane buffer.
    pub fn new(data: &'a [u8], width: u32, height: u32) -> Self {
        debug_assert_eq!(data.len(), (width * height) as usize);
        Self { data, width, height }
    }

    /// The Y, U and V planes of a frame.
    pub fn of(frame: &'a Frame) -> [PlaneRef<'a>; 3] {
        let (w, h) = (frame.width(), frame.height());
        let (cw, ch) = frame.chroma_dims();
        [Self::new(&frame.y, w, h), Self::new(&frame.u, cw, ch), Self::new(&frame.v, cw, ch)]
    }

    /// Sample with edge clamping (reads outside the plane return the
    /// nearest edge sample — the standard unrestricted-MV behaviour).
    #[inline]
    pub fn sample(&self, x: i32, y: i32) -> u8 {
        let x = x.clamp(0, self.width as i32 - 1) as u32;
        let y = y.clamp(0, self.height as i32 - 1) as u32;
        self.data[(y * self.width + x) as usize]
    }

    /// Whether the `n`×`n` block with origin `(x0, y0)` lies wholly
    /// inside the plane.
    #[inline]
    pub fn contains(&self, x0: i32, y0: i32, n: usize) -> bool {
        x0 >= 0
            && y0 >= 0
            && x0 + n as i32 <= self.width as i32
            && y0 + n as i32 <= self.height as i32
    }

    /// Row `r` of the inside block at `(x0, y0)`.
    #[inline]
    fn row<const N: usize>(&self, x0: i32, y0: i32, r: usize) -> &'a [u8; N] {
        let start = (y0 as usize + r) * self.width as usize + x0 as usize;
        self.data[start..].first_chunk().expect("block row inside the plane")
    }

    /// The rows of the `N`×`N` block at `(x0, y0)`, clamped where it
    /// leaves the plane: borrowed in place when `inside` (see
    /// [`gather`](Self::gather)) or when only rows above or below the
    /// plane are clamped, else gathered into `scratch` and borrowed
    /// from there.
    #[inline]
    pub fn rows_at<'s, const N: usize>(
        &'s self,
        x0: i32,
        y0: i32,
        inside: bool,
        scratch: &'s mut Option<Block<N>>,
    ) -> Rows<'s, N> {
        debug_assert!(!inside || self.contains(x0, y0, N));
        if inside {
            std::array::from_fn(|r| self.row(x0, y0, r))
        } else if x0 >= 0 && x0 + N as i32 <= self.width as i32 {
            let last = self.height as i32 - 1;
            std::array::from_fn(|r| self.row(x0, (y0 + r as i32).clamp(0, last), 0))
        } else {
            scratch.insert(self.gather(x0, y0, false)).each_ref()
        }
    }

    /// Gather the `N`×`N` block with origin `(x0, y0)`. `inside`
    /// promises [`contains`](Self::contains) for that block; when false
    /// the block may be partially outside and is clamped: rows once
    /// each, columns once per block.
    pub fn gather<const N: usize>(&self, x0: i32, y0: i32, inside: bool) -> Block<N> {
        debug_assert!(!inside || self.contains(x0, y0, N));
        let mut out = [[0u8; N]; N];
        if inside {
            for (r, row) in out.iter_mut().enumerate() {
                *row = *self.row(x0, y0, r);
            }
        } else {
            let width = self.width as usize;
            let xs: [usize; N] =
                std::array::from_fn(|c| (x0 + c as i32).clamp(0, width as i32 - 1) as usize);
            for (r, row) in out.iter_mut().enumerate() {
                let y = (y0 + r as i32).clamp(0, self.height as i32 - 1) as usize;
                let line = &self.data[y * width..(y + 1) * width];
                for (s, &x) in row.iter_mut().zip(&xs) {
                    *s = line[x];
                }
            }
        }
        out
    }

    /// Sum of absolute differences between `cur` and this plane's
    /// `N`×`N` block at `(x1, y1)` (clamped where it leaves the plane).
    /// The workhorse of motion search. Once the running sum reaches
    /// `early_out` the search has no use for the exact figure, and any
    /// value `>= early_out` may come back; below the bound the sum is
    /// exact.
    #[inline]
    pub fn sad<const N: usize>(&self, cur: &Block<N>, x1: i32, y1: i32, early_out: u32) -> u32 {
        // Inside blocks, most of a search's, skip building the rows.
        if self.contains(x1, y1, N) {
            sad_rows(cur, |r| self.row(x1, y1, r), early_out)
        } else {
            let mut scratch = None;
            let rows = self.rows_at(x1, y1, false, &mut scratch);
            sad_rows(cur, |r| rows[r], early_out)
        }
    }
}

/// SAD of one row: `N` byte differences widened into one sum, the
/// shape of `psadbw` (16 lanes for a macroblock row).
#[inline]
fn sad_row<const N: usize>(a: &[u8; N], b: &[u8; N]) -> u32 {
    let mut sum = 0u32;
    for i in 0..N {
        sum += a[i].abs_diff(b[i]) as u32;
    }
    sum
}

/// SAD of `cur` against the block whose row `r` is `row(r)`, with the
/// early-out contract of [`PlaneRef::sad`].
#[inline]
fn sad_rows<'b, const N: usize>(
    cur: &Block<N>,
    row: impl Fn(usize) -> &'b [u8; N],
    early_out: u32,
) -> u32 {
    let mut total = 0u32;
    // Four rows between bound checks: the check is a branch the row
    // sums cannot be vectorized across.
    for (r4, rows) in cur.chunks(4).enumerate() {
        for (r, a) in rows.iter().enumerate() {
            total += sad_row(a, row(r4 * 4 + r));
        }
        if total >= early_out {
            break;
        }
    }
    total
}

/// A mutably borrowed image plane: the reconstruction target.
#[derive(Debug)]
pub struct PlaneMut<'a> {
    pub data: &'a mut [u8],
    pub width: u32,
    pub height: u32,
}

impl<'a> PlaneMut<'a> {
    /// The Y, U and V planes of a frame. This is where a copy-on-write
    /// [`vr_frame::Plane`] is made unique, so callers resolve a frame
    /// once and not per block.
    pub fn of(frame: &'a mut Frame) -> [PlaneMut<'a>; 3] {
        let (w, h) = (frame.width(), frame.height());
        let (cw, ch) = frame.chroma_dims();
        [
            PlaneMut { data: frame.y.as_mut_slice(), width: w, height: h },
            PlaneMut { data: frame.u.as_mut_slice(), width: cw, height: ch },
            PlaneMut { data: frame.v.as_mut_slice(), width: cw, height: ch },
        ]
    }

    /// A read-only view of the plane as reconstructed so far.
    pub fn as_ref(&self) -> PlaneRef<'_> {
        PlaneRef { data: self.data, width: self.width, height: self.height }
    }

    /// Write an `N`×`N` block at `(x0, y0)`, dropping samples that fall
    /// outside (edge macroblocks of non-multiple-of-16 frames).
    /// `inside` promises [`PlaneRef::contains`] for the block.
    pub fn scatter<const N: usize>(&mut self, x0: i32, y0: i32, inside: bool, block: &Block<N>) {
        debug_assert!(!inside || self.as_ref().contains(x0, y0, N));
        let (width, height) = (self.width as usize, self.height as usize);
        if inside {
            for (r, row) in block.iter().enumerate() {
                let start = (y0 as usize + r) * width + x0 as usize;
                self.data[start..start + N].copy_from_slice(row);
            }
            return;
        }
        for (r, row) in block.iter().enumerate() {
            let y = y0 + r as i32;
            if y < 0 || y >= height as i32 {
                continue;
            }
            for (c, &s) in row.iter().enumerate() {
                let x = x0 + c as i32;
                if x >= 0 && x < width as i32 {
                    self.data[y as usize * width + x as usize] = s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::VrRng;

    fn plane_4x4() -> Vec<u8> {
        (0..16).map(|i| i as u8 * 10).collect()
    }

    /// The runtime-`n`, per-sample-clamped SAD the const-size one
    /// replaced.
    #[allow(clippy::too_many_arguments)]
    fn sad_oracle(
        a: &PlaneRef<'_>,
        x0: i32,
        y0: i32,
        b: &PlaneRef<'_>,
        x1: i32,
        y1: i32,
        n: usize,
    ) -> u32 {
        let mut total = 0u32;
        for r in 0..n as i32 {
            for c in 0..n as i32 {
                total += a.sample(x0 + c, y0 + r).abs_diff(b.sample(x1 + c, y1 + r)) as u32;
            }
        }
        total
    }

    #[test]
    fn sample_clamps_edges() {
        let data = plane_4x4();
        let p = PlaneRef::new(&data, 4, 4);
        assert_eq!(p.sample(0, 0), 0);
        assert_eq!(p.sample(-5, -5), 0);
        assert_eq!(p.sample(3, 3), 150);
        assert_eq!(p.sample(10, 10), 150);
        assert_eq!(p.sample(10, 0), 30);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let data = plane_4x4();
        let p = PlaneRef::new(&data, 4, 4);
        let block: Block<4> = p.gather(0, 0, true);
        let mut out = vec![0u8; 16];
        PlaneMut { data: &mut out, width: 4, height: 4 }.scatter(0, 0, true, &block);
        assert_eq!(out, data);
    }

    /// `gather` and `rows_at` agree with `sample` on inside blocks,
    /// blocks clamped only above or below, and blocks clamped sideways.
    #[test]
    fn gather_clamps_like_sample() {
        fn check<const N: usize>(p: &PlaneRef<'_>, x0: i32, y0: i32) {
            let inside = p.contains(x0, y0, N);
            let block: Block<N> = p.gather(x0, y0, inside);
            let mut scratch = None;
            let rows = p.rows_at::<N>(x0, y0, inside, &mut scratch);
            for (r, row) in block.iter().enumerate() {
                assert_eq!(rows[r], row, "row {r} of ({x0}, {y0})");
                for (c, &s) in row.iter().enumerate() {
                    assert_eq!(s, p.sample(x0 + c as i32, y0 + r as i32));
                }
            }
        }
        let mut rng = VrRng::seed_from(0xb10c_0001);
        let data: Vec<u8> = (0..40 * 24).map(|_| rng.next_u32() as u8).collect();
        let p = PlaneRef::new(&data, 40, 24);
        for _ in 0..200 {
            let (x0, y0) = (rng.range_i64(-20, 44) as i32, rng.range_i64(-20, 28) as i32);
            check::<8>(&p, x0, y0);
            check::<16>(&p, x0, y0);
        }
    }

    #[test]
    fn scatter_drops_samples_outside() {
        let mut out = vec![0u8; 16];
        let block: Block<2> = [[255, 7], [128, 10]];
        PlaneMut { data: &mut out, width: 4, height: 4 }.scatter(3, 3, false, &block);
        // (3,3) is inside; the other three samples are dropped.
        assert_eq!(out[15], 255);
        assert_eq!(out.iter().filter(|&&v| v != 0).count(), 1);
    }

    #[test]
    fn sad_zero_for_identical() {
        let data = plane_4x4();
        let p = PlaneRef::new(&data, 4, 4);
        assert_eq!(p.sad::<4>(&p.gather(0, 0, true), 0, 0, u32::MAX), 0);
        // Off-edge blocks compare clamped samples on both sides.
        assert_eq!(p.sad::<4>(&p.gather(-1, -1, false), -1, -1, u32::MAX), 0);
    }

    #[test]
    fn sad_counts_differences() {
        let a = vec![10u8; 16];
        let b = vec![13u8; 16];
        let pa = PlaneRef::new(&a, 4, 4);
        let pb = PlaneRef::new(&b, 4, 4);
        assert_eq!(pb.sad::<4>(&pa.gather(0, 0, true), 0, 0, u32::MAX), 48);
    }

    #[test]
    fn sad_early_out_is_a_bound() {
        let a = vec![0u8; 256];
        let b = vec![255u8; 256];
        let pa = PlaneRef::new(&a, 16, 16);
        let pb = PlaneRef::new(&b, 16, 16);
        let s = pb.sad::<16>(&pa.gather(0, 0, true), 0, 0, 100);
        assert!(s >= 100, "early-out result must be >= the bound");
        assert!(s < 256 * 255, "early-out should not compute the full sum");
    }

    /// SAD16 and SAD8 against the per-sample oracle, on inside and
    /// edge-clamped blocks: full sums match exactly; under an early-out
    /// bound the result is exact below the bound and `>=` it otherwise.
    #[test]
    fn sad_matches_oracle_inside_and_clamped() {
        fn check<const N: usize>(rng: &mut VrRng, a: &PlaneRef<'_>, b: &PlaneRef<'_>) {
            let w = a.width as i64;
            let h = a.height as i64;
            let n = N as i64;
            let mut edge = 0;
            for _ in 0..400 {
                let (x0, y0) = (rng.range_i64(-n, w) as i32, rng.range_i64(-n, h) as i32);
                let (x1, y1) = (rng.range_i64(-n, w) as i32, rng.range_i64(-n, h) as i32);
                edge += (!a.contains(x0, y0, N) || !b.contains(x1, y1, N)) as u32;
                let cur: Block<N> = a.gather(x0, y0, a.contains(x0, y0, N));
                let want = sad_oracle(a, x0, y0, b, x1, y1, N);
                assert_eq!(b.sad(&cur, x1, y1, u32::MAX), want);
                let bound = rng.below(want as u64 * 2 + 2) as u32;
                let got = b.sad(&cur, x1, y1, bound);
                if want < bound {
                    assert_eq!(got, want);
                } else {
                    assert!(got >= bound && got <= want, "{got} vs bound {bound}, sum {want}");
                }
            }
            assert!(edge > 50, "the sweep must reach clamped blocks");
        }
        let mut rng = VrRng::seed_from(0xb10c_0002);
        let a: Vec<u8> = (0..72 * 40).map(|_| rng.next_u32() as u8).collect();
        let b: Vec<u8> = (0..72 * 40).map(|_| rng.next_u32() as u8).collect();
        let (pa, pb) = (PlaneRef::new(&a, 72, 40), PlaneRef::new(&b, 72, 40));
        check::<16>(&mut rng, &pa, &pb);
        check::<8>(&mut rng, &pa, &pb);
    }
}
