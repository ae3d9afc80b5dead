//! The functional engine — the LightDB-architecture model (§6.2).
//!
//! LightDB is "specialized for virtual reality video workloads": a
//! lazy functional algebra over temporal-spatial video, executing
//! GOP-at-a-time with GPU kernels. Architectural consequences
//! reproduced here by construction:
//!
//! * **Streaming execution.** Every single-input query runs the
//!   shared pipeline's streaming policy — decode, process, and release
//!   one frame at a time (bounded memory — no thrash at large scale
//!   factors, Figure 6). Q1 uses the keyframe-seeking range scan (the
//!   lazy algebra's temporal predicate pushdown); Q2(d) and Q7 hold
//!   only their m-frame window ([`TemporalMaskKernel`],
//!   [`ObjectDetection`]), and Q3/Q10 one frame's tiles
//!   ([`TileReencode`]). Q8 streams its cameras in order; Q9 drains
//!   its four faces before stitching.
//! * **Fast fixed-point kernels.** The shared `vr-frame` kernels *are*
//!   the fixed-point fast path ("GPU").
//! * **Device-memory pool.** Q3/Q4 hold per-video device allocations
//!   that are only released when the engine quiesces between batches;
//!   past 40 concurrently-held videos the pool is exhausted ("LightDB
//!   … fails due to lack of GPU memory \[after\] more than 40 videos.
//!   We work around this by issuing these queries in two batches").
//! * **CPU-only captioning (Q6b).** The caption path renders through a
//!   deliberately scalar, per-pixel compositor with framework
//!   overhead ("LightDB … suffers from a CPU-only implementation of
//!   the captioning query").

use crate::engine::Vdbms;
use crate::io::{ExecContext, InputVideo, QueryOutput};
use crate::kernels::{boxes_frame, caption_track, TileReencode};
use crate::pipeline::{
    self, DetectBoxes, FrameSource, ObjectDetection, Pipeline, TemporalMaskKernel,
};
use crate::plan::PlanNode;
use crate::query::{QueryInstance, QueryKind, QuerySpec};
use crate::reference;
use vr_base::{Error, Result, Timestamp};
use vr_frame::{ops, Frame};
use vr_vision::cost::CostModel;
use vr_vision::{Detection, YoloConfig};

/// Functional-engine configuration.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Device-memory pool: maximum videos Q3/Q4 may hold
    /// simultaneously before quiescing (the paper observed 40).
    pub device_video_slots: usize,
    /// Extra scalar-compositor arithmetic per caption pixel.
    pub caption_macs_per_pixel: f64,
}

impl Default for FunctionalConfig {
    fn default() -> Self {
        Self { device_video_slots: 40, caption_macs_per_pixel: 30.0 }
    }
}

/// The LightDB-like engine.
pub struct FunctionalEngine {
    cfg: FunctionalConfig,
    /// Device allocations held since the last quiesce (video names);
    /// mutexed so concurrent instances of one batch share the pool.
    device_held: vr_base::sync::Mutex<Vec<String>>,
}

impl FunctionalEngine {
    /// Create an engine with the default configuration.
    pub fn new() -> Self {
        Self::with_config(FunctionalConfig::default())
    }

    /// Create an engine with an explicit configuration.
    pub fn with_config(cfg: FunctionalConfig) -> Self {
        Self { cfg, device_held: vr_base::sync::Mutex::new(Vec::new()) }
    }

    /// Videos currently holding device allocations.
    pub fn device_slots_used(&self) -> usize {
        self.device_held.lock().len()
    }

    /// Claim a device slot for a Q3/Q4 input.
    fn claim_device_slot(&self, name: &str) -> Result<()> {
        let mut held = self.device_held.lock();
        if !held.iter().any(|n| n == name) {
            if held.len() >= self.cfg.device_video_slots {
                return Err(Error::ResourceExhausted(format!(
                    "device memory pool exhausted after {} videos; \
                     quiesce between batches to release it",
                    held.len()
                )));
            }
            held.push(name.to_string());
        }
        Ok(())
    }
}

impl Default for FunctionalEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Vdbms for FunctionalEngine {
    fn name(&self) -> &'static str {
        "functional (LightDB-like)"
    }

    fn supports(&self, _kind: QueryKind) -> bool {
        true
    }

    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[InputVideo],
        ctx: &ExecContext,
    ) -> Result<QueryOutput> {
        let pl = Pipeline::new(ctx);
        let input = |i: usize| -> Result<&InputVideo> {
            instance
                .inputs
                .get(i)
                .and_then(|&idx| inputs.get(idx))
                .ok_or_else(|| Error::InvalidConfig(format!("missing input {i}")))
        };
        let output = match &instance.spec {
            QuerySpec::Q1 { rect, t1, t2 } => {
                // Random access: seek to the keyframe preceding t1 and
                // decode only the selected range (the lazy algebra's
                // temporal predicate pushdown).
                let inp = input(0)?;
                let info = inp.video_info()?;
                let n = inp.frame_count();
                let last =
                    (t2.frame_index(info.frame_rate) as usize).min(n.saturating_sub(1));
                let first = (t1.frame_index(info.frame_rate) as usize).min(last);
                let rect = *rect;
                let mut scan = pl.range_scan(inp, first, last)?;
                let mut kernel = pipeline::map(move |f, _| ops::crop(&f, rect));
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q2a => {
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = pipeline::map(|mut f: Frame, _| {
                    ops::grayscale_in_place(&mut f);
                    f
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q2b { d } => {
                let d = *d;
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = pipeline::map(move |f, _| ops::gaussian_blur(&f, d));
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q2c { class } => {
                // Streamed detection with the fast fixed-point path
                // (no framework conversion) — the shared operator.
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = DetectBoxes::new(*class, YoloConfig::default());
                let r = pl.run_streaming(&mut scan, &mut kernel)?;
                QueryOutput::BoxedVideo { video: r.video, boxes: r.boxes.unwrap_or_default() }
            }
            QuerySpec::Q2d { m, epsilon } => {
                // Streamed with a genuine m-frame look-ahead ring:
                // only the current window (and the encoder) are
                // resident — the bounded-memory property that keeps
                // this engine stable at large scale factors.
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = TemporalMaskKernel::new(*m, *epsilon, scan.len());
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q3 { dx, dy, bitrates } => {
                let inp = input(0)?;
                self.claim_device_slot(&inp.name)?;
                let mut scan = pl.stream_scan(inp)?;
                let mut kernel = TileReencode::q3(scan.info(), *dx, *dy, bitrates)?;
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q4 { alpha, beta } => {
                let inp = input(0)?;
                self.claim_device_slot(&inp.name)?;
                let (alpha, beta) = (*alpha, *beta);
                let mut scan = pl.stream_scan(inp)?;
                let mut kernel = pipeline::map(move |f, _| {
                    ops::interpolate_bilinear(&f, f.width() * alpha, f.height() * beta)
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q5 { alpha, beta } => {
                let (alpha, beta) = (*alpha, *beta);
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = pipeline::map(move |f, _| {
                    ops::downsample(&f, (f.width() / alpha).max(2), (f.height() / beta).max(2))
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q6a => {
                let inp = input(0)?;
                let mut scan = pl.stream_scan(inp)?;
                let mut kernel = pipeline::try_map(|f: Frame, i: usize| {
                    let boxes = crate::kernels::box_track(inp, i)?;
                    let dets: Vec<Detection> = boxes
                        .iter()
                        .map(|b| Detection { class: b.class, rect: b.rect, score: 1.0 })
                        .collect();
                    let overlay = boxes_frame(f.width(), f.height(), &dets);
                    Ok(ops::coalesce(&f, &overlay))
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q6b => {
                // CPU-only captioning: scalar compositor with
                // framework overhead per frame.
                let inp = input(0)?;
                let doc = caption_track(inp)?;
                let style = vr_vtt::CaptionStyle::default();
                let mut cost = CostModel::new(self.cfg.caption_macs_per_pixel);
                let mut scan = pl.stream_scan(inp)?;
                let mut kernel = pipeline::map(move |f: Frame, i| {
                    cost.run((f.width() * f.height()) as usize);
                    let t = Timestamp::of_frame(i as u64, vr_base::FrameRate(30));
                    let overlay =
                        vr_vtt::render_cues_frame(&doc, t, f.width(), f.height(), &style);
                    // Scalar per-pixel coalesce (no plane fast path).
                    // COW planes resolve once up front; the loop body
                    // stays scalar.
                    let mut out = f.clone();
                    let (w, h) = (f.width(), f.height());
                    let (oy, ou, ov) =
                        (out.y.as_mut_slice(), out.u.as_mut_slice(), out.v.as_mut_slice());
                    for y in 0..h {
                        for x in 0..w {
                            if !overlay.is_omega(x, y) {
                                let c = overlay.get(x, y);
                                oy[(y * w + x) as usize] = c.y;
                                ou[((y / 2) * w / 2 + x / 2) as usize] = c.u;
                                ov[((y / 2) * w / 2 + x / 2) as usize] = c.v;
                            }
                        }
                    }
                    out
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q7 { class } => {
                let mut scan = pl.stream_scan(input(0)?)?;
                let mut kernel = ObjectDetection::new(*class, YoloConfig::default(), scan.len());
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q8 { plate } => {
                let videos: Result<Vec<&InputVideo>> = instance
                    .inputs
                    .iter()
                    .map(|&i| {
                        inputs.get(i).ok_or_else(|| {
                            Error::InvalidConfig(format!("missing input {i}"))
                        })
                    })
                    .collect();
                QueryOutput::Video(reference::q8_vehicle_tracking(&pl, &videos?, *plate)?)
            }
            QuerySpec::Q9 { faces, output } => QueryOutput::Video(reference::q9_stitch(
                &pl,
                &[input(0)?, input(1)?, input(2)?, input(3)?],
                faces,
                *output,
            )?),
            QuerySpec::Q10 { high_bitrate, low_bitrate, high_tiles, client } => {
                let mut scan = pl.stream_scan(input(0)?)?;
                let (hb, lb) = (*high_bitrate, *low_bitrate);
                let mut kernel = TileReencode::q10(scan.info(), hb, lb, high_tiles, *client)?;
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
        };
        pl.sink(instance.index, &output)?;
        Ok(output)
    }

    fn plan(&self, instance: &QueryInstance, ctx: &ExecContext) -> PlanNode {
        use crate::plan::{Policy, ScanOp};
        // The lazy algebra streams everything; Q1's temporal predicate
        // pushes down into a keyframe-seeking range scan.
        let (policy, scan, kernel) = match &instance.spec {
            QuerySpec::Q1 { .. } => (Policy::Streaming, ScanOp::Range, "crop".to_string()),
            QuerySpec::Q2a => {
                (Policy::Streaming, ScanOp::Stream, "grayscale-in-place".to_string())
            }
            QuerySpec::Q2b { d } => {
                (Policy::Streaming, ScanOp::Stream, format!("gaussian_blur(d={d})"))
            }
            QuerySpec::Q2c { class } => {
                (Policy::Streaming, ScanOp::Stream, format!("detect_boxes({class:?})"))
            }
            QuerySpec::Q2d { m, .. } => {
                (Policy::Streaming, ScanOp::Stream, format!("temporal-mask-window(m={m})"))
            }
            QuerySpec::Q3 { .. } => {
                (Policy::Streaming, ScanOp::Stream, "subquery-reencode".to_string())
            }
            QuerySpec::Q4 { alpha, beta } => (
                Policy::Streaming,
                ScanOp::Stream,
                format!("interpolate-bilinear(x{alpha},x{beta})"),
            ),
            QuerySpec::Q5 { .. } => (Policy::Streaming, ScanOp::Stream, "downsample".to_string()),
            QuerySpec::Q6a => (Policy::Streaming, ScanOp::Stream, "box-overlay".to_string()),
            QuerySpec::Q6b => {
                (Policy::Streaming, ScanOp::Stream, "caption-overlay(scalar)".to_string())
            }
            QuerySpec::Q7 { class } => {
                (Policy::Streaming, ScanOp::Stream, format!("object-detection({class:?})"))
            }
            QuerySpec::Q8 { .. } => (
                Policy::StreamingMulti,
                ScanOp::Multi(instance.inputs.len()),
                "plate-track".to_string(),
            ),
            QuerySpec::Q9 { .. } => {
                (Policy::StreamingMulti, ScanOp::Multi(4), "panoramic-stitch".to_string())
            }
            QuerySpec::Q10 { .. } => {
                (Policy::Streaming, ScanOp::Stream, "tile-encode".to_string())
            }
        };
        crate::plan::build(
            &crate::plan::PlanDesc {
                engine: "functional",
                query: instance.spec.kind().label(),
                policy,
                scan,
                kernel,
                gate: None,
            },
            ctx,
        )
    }

    fn quiesce(&mut self) {
        self.device_held.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_pool_exhausts_after_slots() {
        let mut engine = FunctionalEngine::with_config(FunctionalConfig {
            device_video_slots: 3,
            ..Default::default()
        });
        let inputs: Vec<InputVideo> = (0..5)
            .map(|i| crate::io::tests::tiny_input(&format!("dev-{i}.vrmf")))
            .collect();
        let ctx = ExecContext::default();
        for i in 0..3 {
            let instance = QueryInstance {
                index: i,
                spec: QuerySpec::Q4 { alpha: 2, beta: 2 },
                inputs: vec![i],
            };
            engine.execute(&instance, &inputs, &ctx).unwrap();
        }
        assert_eq!(engine.device_slots_used(), 3);
        let instance = QueryInstance {
            index: 3,
            spec: QuerySpec::Q4 { alpha: 2, beta: 2 },
            inputs: vec![3],
        };
        match engine.execute(&instance, &inputs, &ctx) {
            Err(Error::ResourceExhausted(_)) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // Quiescing (batching the queries in two) releases the pool.
        engine.quiesce();
        engine.execute(&instance, &inputs, &ctx).unwrap();
    }

    #[test]
    fn q4_upsamples_resolution() {
        let engine = FunctionalEngine::new();
        let inputs = vec![crate::io::tests::tiny_input("up.vrmf")];
        let instance = QueryInstance {
            index: 0,
            spec: QuerySpec::Q4 { alpha: 2, beta: 2 },
            inputs: vec![0],
        };
        let out = engine.execute(&instance, &inputs, &ExecContext::default()).unwrap();
        let video = out.primary_video().unwrap();
        assert_eq!((video.info.width, video.info.height), (64, 64));
        assert_eq!(video.len(), 4);
        video.decode_all().unwrap();
    }

    #[test]
    fn same_input_reuses_its_slot() {
        let engine = FunctionalEngine::with_config(FunctionalConfig {
            device_video_slots: 1,
            ..Default::default()
        });
        let inputs = vec![crate::io::tests::tiny_input("slot.vrmf")];
        let instance = QueryInstance {
            index: 0,
            spec: QuerySpec::Q4 { alpha: 2, beta: 2 },
            inputs: vec![0],
        };
        let ctx = ExecContext::default();
        engine.execute(&instance, &inputs, &ctx).unwrap();
        engine.execute(&instance, &inputs, &ctx).unwrap();
        assert_eq!(engine.device_slots_used(), 1);
    }
}
