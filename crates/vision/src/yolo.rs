//! The YOLO stand-in: a real pixel-level object detector.
//!
//! Pipeline: (1) compute a difference-of-surround foreground mask
//! (deviation from a box-downsampled local estimate over luma and
//! chroma, with a vegetation veto), OR-ed with slow-EMA temporal
//! background subtraction once the model is warm; (2) extract
//! connected components; (3) trim the surround halo from each
//! component's box by row/column density; (4) merge fragments of
//! large objects; (5) classify geometrically (pedestrians tall,
//! vehicles wide), score by shape quality and saturation, and NMS.
//! A [`CostModel`] adds CNN-scale arithmetic per frame (with a
//! network-input floor — see [`NETWORK_INPUT_PIXELS`]).

use crate::cost::CostModel;
use crate::detect::{nms, Detection};

/// The network's fixed input raster (YOLOv2 resizes every frame to
/// 416×416 before inference, so per-frame cost has a floor that does
/// not shrink with small frames).
pub const NETWORK_INPUT_PIXELS: usize = 416 * 416;
use vr_frame::Frame;
use vr_geom::Rect;
use vr_scene::ObjectClass;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct YoloConfig {
    /// Synthetic compute per pixel of network input (see
    /// [`CostModel`]); the input is at least
    /// [`NETWORK_INPUT_PIXELS`]. The default is calibrated so Q2(c)
    /// dominates the microbenchmarks the way a real CNN does
    /// (Figure 5), at roughly 0.3 % of YOLOv2's true 8.5 GMAC/frame —
    /// consistent with the repository's overall scale-down.
    pub macs_per_pixel: f64,
    /// Foreground threshold on combined luma/chroma deviation.
    pub fg_threshold: u32,
    /// Minimum blob area in pixels.
    pub min_area: u32,
    /// Whether to maintain a temporal background model across frames
    /// (improves moving-object recall on video).
    pub temporal_background: bool,
}

impl Default for YoloConfig {
    fn default() -> Self {
        Self { macs_per_pixel: 120.0, fg_threshold: 42, min_area: 36, temporal_background: true }
    }
}

impl YoloConfig {
    /// A configuration with no synthetic compute (for tests and for
    /// the cascade's cheap specialized model).
    pub fn fast() -> Self {
        Self { macs_per_pixel: 0.0, ..Default::default() }
    }
}

/// Shrink a component's bounding box by trimming leading/trailing
/// rows and columns whose pixel density is below 35 % of the densest
/// row/column — the sparse ring a difference-of-surround mask grows
/// around hard edges.
fn trim_sparse_border(pixels: &[u32], w: u32, rect: Rect) -> Rect {
    let bw = rect.width() as usize;
    let bh = rect.height() as usize;
    if bw == 0 || bh == 0 {
        return rect;
    }
    let mut cols = vec![0u32; bw];
    let mut rows = vec![0u32; bh];
    for &idx in pixels {
        let x = (idx % w) as i32 - rect.x0;
        let y = (idx / w) as i32 - rect.y0;
        if x >= 0 && (x as usize) < bw && y >= 0 && (y as usize) < bh {
            cols[x as usize] += 1;
            rows[y as usize] += 1;
        }
    }
    let col_peak = *cols.iter().max().unwrap_or(&0);
    let row_peak = *rows.iter().max().unwrap_or(&0);
    let col_min = (col_peak as f32 * 0.35) as u32;
    let row_min = (row_peak as f32 * 0.35) as u32;
    let x0 = cols.iter().position(|&c| c > col_min).unwrap_or(0);
    let x1 = bw - cols.iter().rev().position(|&c| c > col_min).unwrap_or(0);
    let y0 = rows.iter().position(|&c| c > row_min).unwrap_or(0);
    let y1 = bh - rows.iter().rev().position(|&c| c > row_min).unwrap_or(0);
    if x0 >= x1 || y0 >= y1 {
        return rect;
    }
    Rect::new(
        rect.x0 + x0 as i32,
        rect.y0 + y0 as i32,
        rect.x0 + x1 as i32,
        rect.y0 + y1 as i32,
    )
}

/// Union-merge same-class detections whose slightly-inflated boxes
/// overlap, iterating to a fixpoint.
fn merge_fragments(mut dets: Vec<Detection>) -> Vec<Detection> {
    loop {
        let mut merged_any = false;
        let mut out: Vec<Detection> = Vec::with_capacity(dets.len());
        'outer: for d in dets.drain(..) {
            for o in out.iter_mut() {
                if o.class == d.class
                    && !o.rect.inflated(3).intersect(&d.rect.inflated(3)).is_empty()
                {
                    o.rect = o.rect.union_bounds(&d.rect);
                    o.score = o.score.max(d.score);
                    merged_any = true;
                    continue 'outer;
                }
            }
            out.push(d);
        }
        dets = out;
        if !merged_any {
            return dets;
        }
    }
}

/// The detector. Stateful: carries the temporal background model.
pub struct YoloDetector {
    cfg: YoloConfig,
    cost: CostModel,
    /// Running per-pixel luma background (same resolution as input).
    background: Option<Vec<f32>>,
    /// Frames folded into the background so far.
    warmup: u32,
}

impl YoloDetector {
    /// Create a detector.
    pub fn new(cfg: YoloConfig) -> Self {
        let cost = CostModel::new(cfg.macs_per_pixel);
        Self { cfg, cost, background: None, warmup: 0 }
    }

    /// Reset temporal state (video boundary).
    pub fn reset(&mut self) {
        self.background = None;
        self.warmup = 0;
    }

    /// Whether the temporal background model has converged enough to
    /// drive detection (two frames fold the static scene in).
    fn background_ready(&self) -> bool {
        self.cfg.temporal_background && self.warmup >= 2 && self.background.is_some()
    }

    /// Detect objects in a frame.
    pub fn detect(&mut self, frame: &Frame) -> Vec<Detection> {
        let (w, h) = (frame.width(), frame.height());
        self.cost.run(((w * h) as usize).max(NETWORK_INPUT_PIXELS));

        // Local surround estimate: the frame box-downsampled 8x and
        // bilinearly upsampled back. Pixels of *small* structures
        // (vehicles, pedestrians) deviate from their surround; the
        // interiors of large structures (roads, facades, sky) do not,
        // and their edges survive only as slivers the shape filters
        // drop. A difference-of-surround blob detector, in effect.
        let surround = {
            let ds = vr_frame::ops::downsample(frame, (w / 16).max(2), (h / 16).max(2));
            vr_frame::ops::interpolate_bilinear(&ds, w, h)
        };

        // Foreground mask. The primary cue is chromatic: scene
        // objects (vehicle bodies, clothing) are saturated while the
        // static world (asphalt, concrete, facades) is near-neutral —
        // except vegetation, which gets an explicit green veto. A
        // temporal background-subtraction cue (slow EMA) is OR-ed in
        // once warm, catching low-saturation movers.
        let mut mask = vec![false; (w * h) as usize];
        let background = self.background.as_deref().filter(|_| self.background_ready());
        let temporal_threshold = (self.cfg.fg_threshold / 2) as f32;
        let (rw, cw) = (w as usize, (w / 2) as usize);
        for (y, row) in mask.chunks_exact_mut(rw).enumerate() {
            let (r, c) = (y * rw, (y / 2) * cw);
            let (luma, sluma) = (&frame.y[r..r + rw], &surround.y[r..r + rw]);
            let (u, v) = (&frame.u[c..c + cw], &frame.v[c..c + cw]);
            let (su, sv) = (&surround.u[c..c + cw], &surround.v[c..c + cw]);
            let bg_row = background.map(|bg| &bg[r..r + rw]);
            for (x, m) in row.iter_mut().enumerate() {
                let cx = x / 2;
                let dev = (luma[x] as i32 - sluma[x] as i32).unsigned_abs()
                    + (u[cx] as i32 - su[cx] as i32).unsigned_abs() * 2
                    + (v[cx] as i32 - sv[cx] as i32).unsigned_abs() * 2;
                // Vegetation veto: terrain and tree canopies render
                // green (u and v both below neutral).
                let greenish = u[cx] < 124 && v[cx] < 124;
                let mut fg = !greenish && dev > self.cfg.fg_threshold;
                if let (false, Some(bg)) = (fg, bg_row) {
                    fg = (luma[x] as f32 - bg[x]).abs() > temporal_threshold;
                }
                *m = fg;
            }
        }

        // Temporal background update (slow EMA so transient movers do
        // not become background), after the mask.
        if self.cfg.temporal_background {
            match &mut self.background {
                Some(bg) if bg.len() == frame.y.len() => {
                    for (b, &p) in bg.iter_mut().zip(&frame.y) {
                        *b += 0.05 * (p as f32 - *b);
                    }
                }
                _ => {
                    self.background =
                        Some(frame.y.iter().map(|&p| p as f32).collect());
                }
            }
            self.warmup = self.warmup.saturating_add(1);
        }

        // Connected components (4-connectivity, iterative BFS).
        let (u, v) = (frame.u.as_slice(), frame.v.as_slice());
        let mut seen = vec![false; mask.len()];
        let mut detections = Vec::new();
        let mut queue = Vec::new();
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
            let mut count = 0u32;
            let mut saturation_sum = 0u64;
            let mut head = 0usize;
            while head < queue.len() {
                let idx = queue[head];
                head += 1;
                let x = idx % w;
                let y = idx / w;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
                count += 1;
                let c = ((y / 2) * (w / 2) + x / 2) as usize;
                saturation_sum += (u[c].abs_diff(128) as u64) + (v[c].abs_diff(128) as u64);
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbors {
                    if nx < w && ny < h {
                        let ni = (ny * w + nx) as usize;
                        if mask[ni] && !seen[ni] {
                            seen[ni] = true;
                            queue.push(ni as u32);
                        }
                    }
                }
            }
            if count < self.cfg.min_area {
                continue;
            }
            // Trim the surround-difference halo: drop border rows and
            // columns whose mask density is far below the peak.
            let raw = Rect::new(min_x as i32, min_y as i32, max_x as i32 + 1, max_y as i32 + 1);
            let rect = trim_sparse_border(&queue, w, raw);
            let bw = rect.width().max(1);
            let bh = rect.height().max(1);
            // Degenerate slivers (lane markings, rain streaks) out.
            if bw < 3 || bh < 3 {
                continue;
            }
            let fill = count as f32 / (bw * bh) as f32;
            if fill < 0.25 {
                continue;
            }
            // Extreme aspect ratios are structure, not objects
            // (rooflines, lane markings, poles).
            let aspect = bw as f32 / bh as f32;
            if !(0.22..=4.5).contains(&aspect) {
                continue;
            }
            let class = if bh as f32 > 1.35 * bw as f32 {
                ObjectClass::Pedestrian
            } else {
                ObjectClass::Vehicle
            };
            // Rank by shape quality AND saturation: the world's static
            // structure is near-neutral, so saturated blobs are far
            // more likely to be vehicles/pedestrians.
            let saturation = (saturation_sum as f32 / count as f32 / 45.0).min(1.0);
            let score = (fill * 0.25
                + saturation * 0.45
                + 0.3 * (count as f32 / 3000.0).min(1.0))
            .clamp(0.05, 0.99);
            detections.push(Detection { class, rect, score });
        }
        // Large objects exceed the surround scale and fragment into
        // several blobs; merge same-class boxes that touch when grown
        // slightly.
        let merged = merge_fragments(detections);
        nms(merged, 0.45)
    }

    /// Diagnostics: accumulated cost-model checksum.
    pub fn cost_checksum(&self) -> f32 {
        self.cost.checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_frame::Yuv;

    /// The per-pixel form [`YoloDetector::detect`] replaced: the mask
    /// and the blob walk's saturation read `Frame::get` per pixel.
    fn detect_oracle(det: &mut YoloDetector, frame: &Frame) -> Vec<Detection> {
        let (w, h) = (frame.width(), frame.height());
        det.cost.run(((w * h) as usize).max(NETWORK_INPUT_PIXELS));

        let surround = {
            let ds = vr_frame::ops::downsample(frame, (w / 16).max(2), (h / 16).max(2));
            vr_frame::ops::interpolate_bilinear(&ds, w, h)
        };

        let mut mask = vec![false; (w * h) as usize];
        let bg_ready = det.background_ready();
        for y in 0..h {
            for x in 0..w {
                let p = frame.get(x, y);
                let sp = surround.get(x, y);
                let dev = (p.y as i32 - sp.y as i32).unsigned_abs()
                    + (p.u as i32 - sp.u as i32).unsigned_abs() * 2
                    + (p.v as i32 - sp.v as i32).unsigned_abs() * 2;
                let greenish = p.u < 124 && p.v < 124;
                let mut fg = !greenish && dev > det.cfg.fg_threshold;
                if !fg && bg_ready {
                    let bg = det.background.as_ref().expect("ready");
                    let tdev = (p.y as f32 - bg[(y * w + x) as usize]).abs();
                    fg = tdev > (det.cfg.fg_threshold / 2) as f32;
                }
                mask[(y * w + x) as usize] = fg;
            }
        }

        if det.cfg.temporal_background {
            match &mut det.background {
                Some(bg) if bg.len() == frame.y.len() => {
                    for (b, &p) in bg.iter_mut().zip(&frame.y) {
                        *b += 0.05 * (p as f32 - *b);
                    }
                }
                _ => {
                    det.background =
                        Some(frame.y.iter().map(|&p| p as f32).collect());
                }
            }
            det.warmup = det.warmup.saturating_add(1);
        }

        let mut seen = vec![false; mask.len()];
        let mut detections = Vec::new();
        let mut queue = Vec::new();
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
            let mut count = 0u32;
            let mut saturation_sum = 0u64;
            let mut head = 0usize;
            while head < queue.len() {
                let idx = queue[head];
                head += 1;
                let x = idx % w;
                let y = idx / w;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
                count += 1;
                let p = frame.get(x, y);
                saturation_sum += (p.u.abs_diff(128) as u64) + (p.v.abs_diff(128) as u64);
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbors {
                    if nx < w && ny < h {
                        let ni = (ny * w + nx) as usize;
                        if mask[ni] && !seen[ni] {
                            seen[ni] = true;
                            queue.push(ni as u32);
                        }
                    }
                }
            }
            if count < det.cfg.min_area {
                continue;
            }
            let raw = Rect::new(min_x as i32, min_y as i32, max_x as i32 + 1, max_y as i32 + 1);
            let rect = trim_sparse_border(&queue, w, raw);
            let bw = rect.width().max(1);
            let bh = rect.height().max(1);
            if bw < 3 || bh < 3 {
                continue;
            }
            let fill = count as f32 / (bw * bh) as f32;
            if fill < 0.25 {
                continue;
            }
            let aspect = bw as f32 / bh as f32;
            if !(0.22..=4.5).contains(&aspect) {
                continue;
            }
            let class = if bh as f32 > 1.35 * bw as f32 {
                ObjectClass::Pedestrian
            } else {
                ObjectClass::Vehicle
            };
            let saturation = (saturation_sum as f32 / count as f32 / 45.0).min(1.0);
            let score = (fill * 0.25
                + saturation * 0.45
                + 0.3 * (count as f32 / 3000.0).min(1.0))
            .clamp(0.05, 0.99);
            detections.push(Detection { class, rect, score });
        }
        let merged = merge_fragments(detections);
        nms(merged, 0.45)
    }

    #[test]
    fn detect_matches_the_per_pixel_oracle() {
        let clips = crate::testutil::traffic_clips(8);
        let (mut frames, mut detections) = (0, 0);
        for cfg in [YoloConfig::default(), YoloConfig::fast()] {
            for clip in &clips {
                // One detector per camera, so the temporal background
                // warms over the clip as it does in a query.
                let mut det = YoloDetector::new(cfg.clone());
                let mut oracle = YoloDetector::new(cfg.clone());
                for (i, frame) in clip.iter().enumerate() {
                    let got = det.detect(frame);
                    assert_eq!(got, detect_oracle(&mut oracle, frame), "frame {i}");
                    (frames, detections) = (frames + 1, detections + got.len());
                }
                assert_eq!(det.background, oracle.background);
            }
        }
        assert!(frames >= 60 && detections > 0, "{frames} frames, {detections} detections");
        // The synthetic scene, including a warm temporal model.
        let mut det = YoloDetector::new(YoloConfig::fast());
        let mut oracle = YoloDetector::new(YoloConfig::fast());
        for _ in 0..3 {
            assert_eq!(det.detect(&scene_frame()), detect_oracle(&mut oracle, &scene_frame()));
        }
    }

    /// A gray frame with one bright wide box and one tall colored box.
    fn scene_frame() -> Frame {
        let mut f = Frame::filled(128, 128, Yuv::gray(100));
        // Vehicle-ish: wide bright blob.
        for y in 60..76 {
            for x in 20..52 {
                f.set(x, y, Yuv::new(200, 100, 180));
            }
        }
        // Pedestrian-ish: tall narrow blob (clothing chroma must not
        // trip the vegetation veto, i.e. not green).
        for y in 30..58 {
            for x in 90..100 {
                f.set(x, y, Yuv::new(160, 80, 170));
            }
        }
        f
    }

    #[test]
    fn detects_and_classifies_blobs() {
        let mut det = YoloDetector::new(YoloConfig::fast());
        let out = det.detect(&scene_frame());
        assert!(out.len() >= 2, "expected two blobs, got {out:?}");
        let vehicle = out
            .iter()
            .find(|d| d.rect.contains(35, 68))
            .expect("wide blob found");
        assert_eq!(vehicle.class, ObjectClass::Vehicle);
        let ped = out
            .iter()
            .find(|d| d.rect.contains(94, 44))
            .expect("tall blob found");
        assert_eq!(ped.class, ObjectClass::Pedestrian);
    }

    #[test]
    fn blank_frame_detects_nothing() {
        let mut det = YoloDetector::new(YoloConfig::fast());
        let out = det.detect(&Frame::filled(64, 64, Yuv::gray(90)));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn detection_is_deterministic() {
        let mut a = YoloDetector::new(YoloConfig::fast());
        let mut b = YoloDetector::new(YoloConfig::fast());
        assert_eq!(a.detect(&scene_frame()), b.detect(&scene_frame()));
    }

    #[test]
    fn bounding_boxes_are_tight() {
        let mut det = YoloDetector::new(YoloConfig::fast());
        let out = det.detect(&scene_frame());
        let vehicle = out.iter().find(|d| d.rect.contains(35, 68)).unwrap();
        let truth = Rect::new(20, 60, 52, 76);
        assert!(
            vehicle.rect.iou(&truth) > 0.5,
            "IoU {} for {:?} vs {:?}",
            vehicle.rect.iou(&truth),
            vehicle.rect,
            truth
        );
    }

    #[test]
    fn temporal_model_flags_movers() {
        let mut det = YoloDetector::new(YoloConfig::fast());
        let base = Frame::filled(64, 64, Yuv::gray(100));
        for _ in 0..5 {
            det.detect(&base);
        }
        // A modest-contrast mover that spatial cues alone would rank
        // borderline becomes clearly foreground via the temporal term.
        let mut moved = base.clone();
        for y in 20..36 {
            for x in 10..34 {
                moved.set_y(x, y, 130);
            }
        }
        let out = det.detect(&moved);
        assert!(!out.is_empty(), "temporal detection failed");
        det.reset();
        // After reset the background re-seeds from the next frame.
        let out2 = det.detect(&moved);
        // Spatial-only path may or may not fire at this contrast; the
        // call must simply not panic and stay deterministic.
        let _ = out2;
    }
}
