//! License-plate recognition (the OpenALPR stand-in for Q8).
//!
//! Plates in Visual City carry a parity-checked block code (see
//! `vr_vtt::plate` for the encoding and the rationale). The
//! recognizer is a genuine pixel-level pipeline:
//!
//! 1. locate bright, chroma-neutral, plate-shaped connected
//!    components (the renderer frames plates in dark pixels, so the
//!    bright component is exactly the coded area);
//! 2. adaptively threshold the region;
//! 3. sample each code block through the shared layout and vote;
//! 4. accept only when the parity cell validates and the votes are
//!    confident.

use crate::cost::CostModel;
use vr_base::LicensePlate;
use vr_frame::Frame;
use vr_geom::Rect;
use vr_vtt::plate::{block_center, decode_cells, CELLS, CELL_COLS, CELL_ROWS};

/// A recognized plate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateRead {
    pub rect: Rect,
    pub plate: LicensePlate,
    /// Aggregate vote confidence in `[0, 1]`.
    pub confidence: f32,
}

/// A located plate region: bounding box plus estimated corners of the
/// bright coded area (TL, TR, BL, BR in image coordinates). Corners
/// let the decoder rectify the perspective-projected quad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateCandidate {
    pub rect: Rect,
    pub corners: [(f32, f32); 4],
}

impl PlateCandidate {
    /// An axis-aligned candidate covering `rect` exactly.
    pub fn axis_aligned(rect: Rect) -> Self {
        let (x0, y0) = (rect.x0 as f32, rect.y0 as f32);
        let (x1, y1) = (rect.x1 as f32 - 1.0, rect.y1 as f32 - 1.0);
        Self { rect, corners: [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] }
    }
}

/// The plate recognizer.
pub struct AlprRecognizer {
    /// Minimum aggregate confidence to accept a read.
    pub min_confidence: f32,
    cost: CostModel,
}

impl Default for AlprRecognizer {
    fn default() -> Self {
        Self::new(6.0)
    }
}

impl AlprRecognizer {
    /// Create a recognizer with the given synthetic compute cost
    /// (MACs per pixel; ALPR engines are cheaper than full-frame CNN
    /// detection but far from free).
    pub fn new(macs_per_pixel: f64) -> Self {
        Self { min_confidence: 0.55, cost: CostModel::new(macs_per_pixel) }
    }

    /// Find and decode every readable plate in a frame.
    pub fn recognize(&mut self, frame: &Frame) -> Vec<PlateRead> {
        self.cost.run((frame.width() * frame.height()) as usize);
        let mut out = Vec::new();
        for cand in find_plate_candidates(frame) {
            if let Some(read) = self.read_candidate(frame, &cand) {
                if read.confidence >= self.min_confidence {
                    out.push(read);
                }
            }
        }
        out
    }

    /// Decode an axis-aligned plate region (convenience wrapper over
    /// [`read_candidate`](Self::read_candidate)).
    pub fn read_plate(&self, frame: &Frame, rect: Rect) -> Option<PlateRead> {
        self.read_candidate(frame, &PlateCandidate::axis_aligned(rect))
    }

    /// Decode a located plate, refining the corner estimate over a
    /// small offset/scale neighbourhood (corner detection on a
    /// ~25-pixel quad is ±1 px; the checksum arbitrates). Returns the
    /// highest-confidence decode that validates.
    pub fn read_candidate(&self, frame: &Frame, cand: &PlateCandidate) -> Option<PlateRead> {
        let mut best: Option<PlateRead> = None;
        // Center of the quad, for outward expansion.
        let cx = cand.corners.iter().map(|c| c.0).sum::<f32>() / 4.0;
        let cy = cand.corners.iter().map(|c| c.1).sum::<f32>() / 4.0;
        for expand in [0.0f32, 0.5, 1.0] {
            for dx in [-1.0f32, -0.5, 0.0, 0.5, 1.0] {
                for dy in [-1.0f32, -0.5, 0.0, 0.5, 1.0] {
                    let shifted = PlateCandidate {
                        rect: cand.rect,
                        corners: cand.corners.map(|(x, y)| {
                            // Push each corner outward (rasterized
                            // edges erode the bright component by
                            // about half a pixel) and shift.
                            let ox = (x - cx).signum() * expand;
                            let oy = (y - cy).signum() * expand;
                            (x + ox + dx, y + oy + dy)
                        }),
                    };
                    if let Some(read) = self.decode_quad(frame, &shifted) {
                        if best.map(|b| read.confidence > b.confidence).unwrap_or(true) {
                            best = Some(read);
                        }
                    }
                }
            }
        }
        best
    }

    /// Single decode attempt through a fixed corner quad.
    fn decode_quad(&self, frame: &Frame, cand: &PlateCandidate) -> Option<PlateRead> {
        let rect = cand.rect.clipped(frame.width(), frame.height());
        if rect.width() < 14 || rect.height() < 5 {
            return None;
        }
        // Adaptive threshold from the region's luma range.
        let (mut lo, mut hi) = (255u8, 0u8);
        for y in rect.y0..rect.y1 {
            for x in rect.x0..rect.x1 {
                let v = frame.get_y(x as u32, y as u32);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi - lo < 40 {
            return None; // no code blocks present
        }
        let threshold = (lo as u32 + hi as u32) / 2;
        // Bilinear map from plate texture coordinates through the
        // corner quad: (u, v_down) -> image point.
        let [tl, tr, bl, br] = cand.corners;
        let map = |u: f32, v_down: f32| -> (f32, f32) {
            let top = (tl.0 + (tr.0 - tl.0) * u, tl.1 + (tr.1 - tl.1) * u);
            let bot = (bl.0 + (br.0 - bl.0) * u, bl.1 + (br.1 - bl.1) * u);
            (top.0 + (bot.0 - top.0) * v_down, top.1 + (bot.1 - top.1) * v_down)
        };
        // Vote each block with a 5-point stencil around its center.
        let cell_w = rect.width() as f32 / CELLS as f32;
        let mut values = [0u8; CELLS];
        let mut confidence_sum = 0.0f32;
        let mut blocks = 0.0f32;
        for (cell, value) in values.iter_mut().enumerate() {
            for row in 0..CELL_ROWS {
                for col in 0..CELL_COLS {
                    let (u, v_up) = block_center(cell, col, row);
                    let mut dark_votes = 0u32;
                    const STENCIL: [(f32, f32); 5] =
                        [(0.0, 0.0), (-0.25, -0.25), (0.25, -0.25), (-0.25, 0.25), (0.25, 0.25)];
                    for (du, dv) in STENCIL {
                        let uu = (u + du * cell_w / rect.width() as f32 / CELL_COLS as f32)
                            .clamp(0.0, 1.0);
                        let vv = (v_up + dv / rect.height() as f32).clamp(0.0, 1.0);
                        let (x, y) = map(uu, 1.0 - vv);
                        let xi = (x.round().max(0.0) as u32).min(frame.width() - 1);
                        let yi = (y.round().max(0.0) as u32).min(frame.height() - 1);
                        if (frame.get_y(xi, yi) as u32) < threshold {
                            dark_votes += 1;
                        }
                    }
                    if dark_votes >= 3 {
                        *value |= 1 << (row * CELL_COLS + col);
                    }
                    // Unanimous votes are confident; split votes are
                    // not.
                    confidence_sum += (dark_votes as f32 - 2.5).abs() / 2.5;
                    blocks += 1.0;
                }
            }
        }
        let plate = decode_cells(values)?;
        Some(PlateRead { rect, plate, confidence: confidence_sum / blocks })
    }
}

/// Locate plate-shaped regions: bright, chroma-neutral connected
/// components with a landscape aspect ratio. Corner points of each
/// component are estimated with the diagonal-extreme method
/// (TL = argmin x+y, TR = argmax x−y, BL = argmin x−y,
/// BR = argmax x+y), which is exact for convex quads.
pub fn find_plate_candidates(frame: &Frame) -> Vec<PlateCandidate> {
    let (w, h) = (frame.width(), frame.height());
    // One state per pixel: background, or plate-like foreground not
    // yet visited / already visited by a component walk.
    const BACKGROUND: u8 = 0;
    const UNVISITED: u8 = 1;
    const VISITED: u8 = 2;
    let (rw, cw) = (w as usize, (w / 2) as usize);
    let mut state = vec![BACKGROUND; (w * h) as usize];
    for (y, (row, luma)) in state.chunks_exact_mut(rw).zip(frame.y.chunks_exact(rw)).enumerate() {
        let c = (y / 2) * cw;
        let chroma = frame.u[c..c + cw].iter().zip(&frame.v[c..c + cw]);
        let pairs = row.chunks_exact_mut(2).zip(luma.chunks_exact(2));
        for ((pair, lpair), (&u, &v)) in pairs.zip(chroma) {
            let neutral = u.abs_diff(128) < 22 && v.abs_diff(128) < 22;
            for (s, &l) in pair.iter_mut().zip(lpair) {
                *s = if neutral && l > 150 { UNVISITED } else { BACKGROUND };
            }
        }
    }
    let mut candidates = Vec::new();
    let mut queue: Vec<u32> = Vec::new();
    for start in 0..state.len() {
        if state[start] != UNVISITED {
            continue;
        }
        state[start] = VISITED;
        queue.clear();
        queue.push(start as u32);
        let mut min_x = u32::MAX;
        let mut min_y = u32::MAX;
        let mut max_x = 0u32;
        let mut max_y = 0u32;
        // Diagonal extremes for corner estimation.
        let mut tl = (0u32, 0u32, i64::MAX); // argmin x+y
        let mut br = (0u32, 0u32, i64::MIN); // argmax x+y
        let mut tr = (0u32, 0u32, i64::MIN); // argmax x-y
        let mut bl = (0u32, 0u32, i64::MAX); // argmin x-y
        let mut head = 0;
        while head < queue.len() {
            let idx = queue[head];
            head += 1;
            let x = idx % w;
            let y = idx / w;
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
            let sum = x as i64 + y as i64;
            let diff = x as i64 - y as i64;
            if sum < tl.2 {
                tl = (x, y, sum);
            }
            if sum > br.2 {
                br = (x, y, sum);
            }
            if diff > tr.2 {
                tr = (x, y, diff);
            }
            if diff < bl.2 {
                bl = (x, y, diff);
            }
            for (nx, ny) in
                [(x.wrapping_sub(1), y), (x + 1, y), (x, y.wrapping_sub(1)), (x, y + 1)]
            {
                if nx < w && ny < h {
                    let ni = (ny * w + nx) as usize;
                    if state[ni] == UNVISITED {
                        state[ni] = VISITED;
                        queue.push(ni as u32);
                    }
                }
            }
        }
        let rect = Rect::new(min_x as i32, min_y as i32, max_x as i32 + 1, max_y as i32 + 1);
        let (bw, bh) = (rect.width(), rect.height());
        if !(14..=400).contains(&bw) || !(5..=200).contains(&bh) {
            continue;
        }
        let aspect = bw as f32 / bh as f32;
        if !(1.2..=5.5).contains(&aspect) {
            continue;
        }
        candidates.push(PlateCandidate {
            rect,
            corners: [
                (tl.0 as f32, tl.1 as f32),
                (tr.0 as f32, tr.1 as f32),
                (bl.0 as f32, bl.1 as f32),
                (br.0 as f32, br.1 as f32),
            ],
        });
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_frame::Yuv;
    use vr_vtt::plate::cell_values;

    /// Paint the inner coded area of a plate into `rect` via the
    /// shared texture, framed by a dark border — the same structure
    /// the renderer produces.
    fn paint_plate(frame: &mut Frame, rect: Rect, plate: LicensePlate) {
        let values = cell_values(&plate);
        let border = rect.inflated(2).clipped(frame.width(), frame.height());
        for y in border.y0..border.y1 {
            for x in border.x0..border.x1 {
                frame.set(x as u32, y as u32, Yuv::new(25, 128, 128));
            }
        }
        for y in rect.y0..rect.y1 {
            for x in rect.x0..rect.x1 {
                let u = (x - rect.x0) as f32 / (rect.width() as f32 - 1.0);
                let v_up = 1.0 - (y - rect.y0) as f32 / (rect.height() as f32 - 1.0);
                let dark = vr_vtt::plate::is_dark(&values, u, v_up);
                let c = if dark { Yuv::new(25, 128, 128) } else { Yuv::new(220, 128, 128) };
                frame.set(x as u32, y as u32, c);
            }
        }
    }

    /// The per-pixel form [`find_plate_candidates`] replaced: a `bool`
    /// mask built through `Frame::get`, and a separate `seen` vector.
    fn find_plate_candidates_oracle(frame: &Frame) -> Vec<PlateCandidate> {
        let (w, h) = (frame.width(), frame.height());
        let mut mask = vec![false; (w * h) as usize];
        for y in 0..h {
            for x in 0..w {
                let p = frame.get(x, y);
                mask[(y * w + x) as usize] =
                    p.y > 150 && p.u.abs_diff(128) < 22 && p.v.abs_diff(128) < 22;
            }
        }
        let mut seen = vec![false; mask.len()];
        let mut candidates = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for start in 0..mask.len() {
            if !mask[start] || seen[start] {
                continue;
            }
            seen[start] = true;
            queue.clear();
            queue.push(start as u32);
            let mut min_x = u32::MAX;
            let mut min_y = u32::MAX;
            let mut max_x = 0u32;
            let mut max_y = 0u32;
            let mut tl = (0u32, 0u32, i64::MAX);
            let mut br = (0u32, 0u32, i64::MIN);
            let mut tr = (0u32, 0u32, i64::MIN);
            let mut bl = (0u32, 0u32, i64::MAX);
            let mut head = 0;
            while head < queue.len() {
                let idx = queue[head];
                head += 1;
                let x = idx % w;
                let y = idx / w;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
                let sum = x as i64 + y as i64;
                let diff = x as i64 - y as i64;
                if sum < tl.2 {
                    tl = (x, y, sum);
                }
                if sum > br.2 {
                    br = (x, y, sum);
                }
                if diff > tr.2 {
                    tr = (x, y, diff);
                }
                if diff < bl.2 {
                    bl = (x, y, diff);
                }
                for (nx, ny) in
                    [(x.wrapping_sub(1), y), (x + 1, y), (x, y.wrapping_sub(1)), (x, y + 1)]
                {
                    if nx < w && ny < h {
                        let ni = (ny * w + nx) as usize;
                        if mask[ni] && !seen[ni] {
                            seen[ni] = true;
                            queue.push(ni as u32);
                        }
                    }
                }
            }
            let rect = Rect::new(min_x as i32, min_y as i32, max_x as i32 + 1, max_y as i32 + 1);
            let (bw, bh) = (rect.width(), rect.height());
            if !(14..=400).contains(&bw) || !(5..=200).contains(&bh) {
                continue;
            }
            let aspect = bw as f32 / bh as f32;
            if !(1.2..=5.5).contains(&aspect) {
                continue;
            }
            candidates.push(PlateCandidate {
                rect,
                corners: [
                    (tl.0 as f32, tl.1 as f32),
                    (tr.0 as f32, tr.1 as f32),
                    (bl.0 as f32, bl.1 as f32),
                    (br.0 as f32, br.1 as f32),
                ],
            });
        }
        candidates
    }

    #[test]
    fn plate_finder_matches_the_per_pixel_oracle() {
        let mut rng = vr_base::VrRng::seed_from(8);
        let mut found = 0;
        for case in 0..40 {
            // Painted plates on a noisy background whose chroma
            // straddles the ±22 neutral band, so the mask is ragged.
            let (w, h) = (160 + 2 * rng.range(0, 40) as u32, 90 + 2 * rng.range(0, 20) as u32);
            let mut frame = Frame::filled(w, h, Yuv::gray(60));
            for y in frame.y.iter_mut() {
                *y = 100 + rng.range(0, 100) as u8;
            }
            for c in frame.u.iter_mut().chain(frame.v.iter_mut()) {
                *c = 100 + rng.range(0, 56) as u8;
            }
            for _ in 0..rng.range(1, 3) {
                let pw = rng.range(20, 60);
                let rect = Rect::from_origin_size(
                    rng.range(4, w as usize - pw - 4) as i32,
                    rng.range(4, h as usize - 30) as i32,
                    pw as u32,
                    pw as u32 * 2 / 5,
                );
                paint_plate(&mut frame, rect, LicensePlate::parse("AB12CZ").unwrap());
            }
            let want = find_plate_candidates_oracle(&frame);
            found += want.len();
            assert_eq!(find_plate_candidates(&frame), want, "painted case {case}");
        }
        assert!(found > 0, "the painted frames must yield candidates");
        for (cam, clip) in crate::testutil::traffic_clips(8).iter().enumerate() {
            for (i, frame) in clip.iter().enumerate() {
                let want = find_plate_candidates_oracle(frame);
                assert_eq!(find_plate_candidates(frame), want, "camera {cam} frame {i}");
            }
        }
    }

    #[test]
    fn reads_a_clean_frontal_plate() {
        let plate = LicensePlate::parse("AB12CZ").unwrap();
        let mut frame = Frame::filled(160, 90, Yuv::gray(70));
        let rect = Rect::from_origin_size(40, 30, 72, 28);
        paint_plate(&mut frame, rect, plate);
        let alpr = AlprRecognizer::new(0.0);
        let read = alpr.read_plate(&frame, rect).expect("plate should decode");
        assert_eq!(read.plate, plate);
        assert!(read.confidence > 0.8, "confidence {}", read.confidence);
    }

    #[test]
    fn reads_a_small_plate() {
        // The size regime that matters: ~30 px wide.
        let plate = LicensePlate::parse("QW34ER").unwrap();
        let mut frame = Frame::filled(160, 90, Yuv::gray(60));
        let rect = Rect::from_origin_size(60, 40, 30, 13);
        paint_plate(&mut frame, rect, plate);
        let alpr = AlprRecognizer::new(0.0);
        let read = alpr.read_plate(&frame, rect).expect("small plate should decode");
        assert_eq!(read.plate, plate);
    }

    #[test]
    fn full_pipeline_localizes_and_reads() {
        let plate = LicensePlate::parse("XY99QA").unwrap();
        let mut frame = Frame::filled(240, 140, Yuv::gray(60));
        let rect = Rect::from_origin_size(90, 60, 56, 24);
        paint_plate(&mut frame, rect, plate);
        let mut alpr = AlprRecognizer::new(0.0);
        let reads = alpr.recognize(&frame);
        assert!(
            reads.iter().any(|r| r.plate == plate),
            "plate not found; reads: {reads:?}"
        );
    }

    #[test]
    fn parity_rejects_corrupted_plates() {
        let plate = LicensePlate::parse("AB12CZ").unwrap();
        let mut frame = Frame::filled(160, 90, Yuv::gray(70));
        let rect = Rect::from_origin_size(40, 30, 70, 28);
        paint_plate(&mut frame, rect, plate);
        // Corrupt the code area by painting a dark bar through it
        // (forces extra bits on).
        for y in 32..56 {
            for x in 45..54 {
                frame.set(x, y, Yuv::new(25, 128, 128));
            }
        }
        let alpr = AlprRecognizer::new(0.0);
        match alpr.read_plate(&frame, rect) {
            None => {}
            Some(read) => {
                assert_ne!(read.plate, plate, "corrupted plate must not read as the original")
            }
        }
    }

    #[test]
    fn tiny_or_flat_regions_are_rejected() {
        let frame = Frame::filled(64, 64, Yuv::gray(200));
        let alpr = AlprRecognizer::new(0.0);
        assert!(alpr.read_plate(&frame, Rect::from_origin_size(0, 0, 8, 4)).is_none());
        // Large but contrast-free region.
        assert!(alpr.read_plate(&frame, Rect::from_origin_size(0, 0, 60, 24)).is_none());
    }

    #[test]
    fn no_false_reads_on_plain_scenes() {
        let mut frame = Frame::filled(160, 90, Yuv::gray(90));
        // A bright rectangle with plate-like aspect but no code.
        for y in 30..46 {
            for x in 20..60 {
                frame.set(x, y, Yuv::new(210, 128, 128));
            }
        }
        let mut alpr = AlprRecognizer::new(0.0);
        assert!(alpr.recognize(&frame).is_empty());
    }

    #[test]
    fn whole_alphabet_round_trips() {
        use vr_base::id::PLATE_ALPHABET;
        let alpr = AlprRecognizer::new(0.0);
        for chunk in PLATE_ALPHABET.chunks(6) {
            if chunk.len() < 6 {
                break;
            }
            let mut chars = [0u8; 6];
            chars.copy_from_slice(chunk);
            let plate = LicensePlate(chars);
            let mut frame = Frame::filled(200, 100, Yuv::gray(50));
            let rect = Rect::from_origin_size(30, 30, 96, 36);
            paint_plate(&mut frame, rect, plate);
            let read = alpr.read_plate(&frame, rect).expect("decode");
            assert_eq!(read.plate, plate, "alphabet chunk {chunk:?}");
        }
    }
}
