//! The cascade engine — the NoScope-architecture model (§6.2).
//!
//! NoScope "improves the performance of applying deep learning models
//! to video at scale" with an inference cascade: a cheap
//! difference detector and a specialized model filter frames so the
//! expensive reference network only runs on novel content. It is
//! "specialized for deep learning and does not expose support for
//! arbitrary queries" — the paper could express only Q1 and Q2(c) on
//! it, and this engine supports exactly those.
//!
//! The cascade's win is *data-dependent*: on temporally-coherent
//! video most frames skip the expensive detector; on random noise
//! every frame escalates (one of the effects Table 9 surfaces).

use crate::cost::{CandidateSpace, KernelClass, PlanChoice, QueryWork};
use crate::engine::Vdbms;
use crate::io::{ExecContext, InputVideo, OutputBox, QueryOutput};
use crate::kernels::{boxes_frame, filter_class};
use crate::pipeline::{self, DiffGate, FrameSource, KernelOut, Pipeline};
use crate::plan::{PlanNode, Policy};
use crate::query::{QueryInstance, QueryKind, QuerySpec};
use vr_base::{Error, Result};

use vr_frame::ops;
use vr_vision::{Detection, YoloConfig, YoloDetector};

/// Cascade configuration.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Mean-absolute-luma-difference threshold below which a frame is
    /// handled by the cheap path.
    pub diff_threshold: f64,
    /// Synthetic compute of the specialized (cheap) model.
    pub cheap_macs_per_pixel: f64,
    /// Synthetic compute of the full reference model.
    pub full_macs_per_pixel: f64,
    /// Maximum consecutive frames the cheap path may handle before the
    /// full model is forced (NoScope periodically re-invokes the
    /// reference model to bound drift).
    pub max_skip: u32,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        Self {
            diff_threshold: 2.5,
            cheap_macs_per_pixel: 4.0,
            full_macs_per_pixel: YoloConfig::default().macs_per_pixel,
            max_skip: 4,
        }
    }
}

/// The NoScope-like engine.
pub struct CascadeEngine {
    cfg: CascadeConfig,
    /// (cheap-path frames, full-path frames) since construction —
    /// exposed so benches can report the skip rate; mutexed so
    /// concurrent instances can record into it.
    stats: vr_base::sync::Mutex<(u64, u64)>,
}

impl CascadeEngine {
    /// Create an engine with the default configuration.
    pub fn new() -> Self {
        Self::with_config(CascadeConfig::default())
    }

    /// Create an engine with an explicit configuration.
    pub fn with_config(cfg: CascadeConfig) -> Self {
        Self { cfg, stats: vr_base::sync::Mutex::new((0, 0)) }
    }

    /// (frames handled by the cheap path, frames escalated to the full
    /// model).
    pub fn cascade_stats(&self) -> (u64, u64) {
        *self.stats.lock()
    }

    /// Consult the context's optimizer for Q2(c)'s order: the
    /// short-circuit cascade (gate + cheap model + escalations) vs.
    /// running the full model on every frame. `None` keeps the
    /// cascade — the architecture's namesake default.
    fn choice(&self, instance: &QueryInstance, ctx: &ExecContext) -> Option<PlanChoice> {
        if !matches!(instance.spec, QuerySpec::Q2c { .. }) {
            return None;
        }
        let opt = ctx.optimizer.as_deref()?;
        let wl = opt.workload();
        Some(opt.decide(
            &self.plan_key(instance),
            QueryWork {
                frames: wl.frames,
                in_pixels: wl.pixels(),
                out_pixels: wl.pixels(),
                kernel: KernelClass::Nn {
                    macs_per_pixel: self.cfg.full_macs_per_pixel,
                    framework_macs_per_pixel: 0.0,
                    cheap_macs_per_pixel: self.cfg.cheap_macs_per_pixel,
                },
                vectors: 0,
            },
            &CandidateSpace {
                policies: vec![Policy::Streaming, Policy::ShortCircuit],
                max_fanout: 1,
            },
        ))
    }
}

impl Default for CascadeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Vdbms for CascadeEngine {
    fn name(&self) -> &'static str {
        "cascade (NoScope-like)"
    }

    fn supports(&self, kind: QueryKind) -> bool {
        matches!(kind, QueryKind::Q1Select | QueryKind::Q2cBoxes)
    }

    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[InputVideo],
        ctx: &ExecContext,
    ) -> Result<QueryOutput> {
        let kind = instance.spec.kind();
        if !self.supports(kind) {
            return Err(Error::Unsupported(format!(
                "the cascade engine cannot express {}",
                kind.label()
            )));
        }
        let input = instance
            .inputs
            .first()
            .and_then(|&idx| inputs.get(idx))
            .ok_or_else(|| Error::InvalidConfig("missing input".into()))?;
        let pl = Pipeline::new(ctx);
        let output = match &instance.spec {
            QuerySpec::Q1 { rect, t1, t2 } => {
                let mut scan = pl.stream_scan(input)?;
                let info = scan.info();
                let last = (t2.frame_index(info.frame_rate) as usize)
                    .min(scan.len().saturating_sub(1));
                let first = (t1.frame_index(info.frame_rate) as usize).min(last);
                let rect = *rect;
                let mut kernel = pipeline::filter_map(move |f, i| {
                    (first..=last).contains(&i).then(|| ops::crop(&f, rect))
                });
                QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video)
            }
            QuerySpec::Q2c { class } => {
                let mut scan = pl.stream_scan(input)?;
                let use_cascade = self
                    .choice(instance, ctx)
                    .map(|c| c.policy == Policy::ShortCircuit)
                    .unwrap_or(true);
                if !use_cascade {
                    // Optimizer ruled the cascade out (e.g. a profile
                    // calibrated on incoherent video where every frame
                    // escalates anyway): run the full model per frame
                    // through the shared detect kernel.
                    let mut kernel = pipeline::DetectBoxes::new(
                        *class,
                        YoloConfig {
                            macs_per_pixel: self.cfg.full_macs_per_pixel,
                            ..YoloConfig::default()
                        },
                    );
                    let r = pl.run_streaming(&mut scan, &mut kernel)?;
                    self.stats.lock().1 += r.boxes.as_ref().map(|b| b.len()).unwrap_or(0) as u64;
                    let output = QueryOutput::BoxedVideo {
                        video: r.video,
                        boxes: r.boxes.unwrap_or_default(),
                    };
                    pl.sink(instance.index, &output)?;
                    return Ok(output);
                }
                let mut gate = DiffGate::new(self.cfg.diff_threshold, self.cfg.max_skip);
                let mut cheap = YoloDetector::new(YoloConfig {
                    macs_per_pixel: self.cfg.cheap_macs_per_pixel,
                    ..YoloConfig::default()
                });
                let mut full = YoloDetector::new(YoloConfig {
                    macs_per_pixel: self.cfg.full_macs_per_pixel,
                    ..YoloConfig::default()
                });
                let mut last_dets: Vec<Detection> = Vec::new();
                let class = *class;
                let stats = &self.stats;
                let mut kernel = |f: vr_frame::Frame, _i: usize, escalate: bool| {
                    let dets = if escalate {
                        // Escalate to the full model.
                        stats.lock().1 += 1;
                        let dets = full.detect(&f);
                        last_dets = dets.clone();
                        dets
                    } else {
                        // Cheap path: specialized model confirms the
                        // previous result still holds.
                        stats.lock().0 += 1;
                        let _ = cheap.detect(&f);
                        last_dets.clone()
                    };
                    let dets = filter_class(dets, class);
                    let boxes = dets
                        .iter()
                        .map(|d| OutputBox { class: d.class, rect: d.rect })
                        .collect();
                    Ok(KernelOut {
                        frame: boxes_frame(f.width(), f.height(), &dets),
                        boxes: Some(boxes),
                    })
                };
                let r = pl.run_short_circuit(&mut scan, &mut gate, &mut kernel)?;
                QueryOutput::BoxedVideo { video: r.video, boxes: r.boxes.unwrap_or_default() }
            }
            _ => unreachable!("supports() filtered other kinds"),
        };
        pl.sink(instance.index, &output)?;
        Ok(output)
    }

    fn plan(&self, instance: &QueryInstance, ctx: &ExecContext) -> PlanNode {
        use crate::plan::ScanOp;
        let (policy, kernel, gate) = match &instance.spec {
            QuerySpec::Q1 { .. } => {
                (Policy::Streaming, "crop+temporal-select".to_string(), None)
            }
            QuerySpec::Q2c { class } => {
                // Same optimizer consultation as `execute`, so EXPLAIN
                // shows the order that will run; without an optimizer
                // the cascade is the architecture's default.
                let short = self
                    .choice(instance, ctx)
                    .map(|c| c.policy == Policy::ShortCircuit)
                    .unwrap_or(true);
                if short {
                    (
                        Policy::ShortCircuit,
                        format!("detect_boxes({class:?})"),
                        Some("frame-diff".to_string()),
                    )
                } else {
                    (Policy::Streaming, format!("detect_boxes({class:?})"), None)
                }
            }
            // supports() rejects everything else; the plan still says
            // so instead of panicking.
            _ => (Policy::Streaming, "unsupported".to_string(), None),
        };
        crate::plan::build(
            &crate::plan::PlanDesc {
                engine: "cascade",
                query: instance.spec.kind().label(),
                policy,
                scan: ScanOp::Stream,
                kernel,
                gate,
            },
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_scene::ObjectClass;

    #[test]
    fn supports_only_q1_and_q2c() {
        let engine = CascadeEngine::new();
        assert!(engine.supports(QueryKind::Q1Select));
        assert!(engine.supports(QueryKind::Q2cBoxes));
        for kind in QueryKind::ALL {
            if kind != QueryKind::Q1Select && kind != QueryKind::Q2cBoxes {
                assert!(!engine.supports(kind), "{kind:?}");
            }
        }
    }

    #[test]
    fn unsupported_query_errors() {
        let engine = CascadeEngine::new();
        let inputs = vec![crate::io::tests::tiny_input("c.vrmf")];
        let instance =
            QueryInstance { index: 0, spec: QuerySpec::Q2a, inputs: vec![0] };
        match engine.execute(&instance, &inputs, &ExecContext::default()) {
            Err(Error::Unsupported(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn static_video_mostly_takes_cheap_path() {
        let engine = CascadeEngine::new();
        // tiny_input's frames drift slowly (luma +7 per frame over the
        // whole frame → diff = 7 > 2.5); build a *static* input
        // instead.
        let inputs = vec![crate::io::tests::tiny_input("casc.vrmf")];
        let instance = QueryInstance {
            index: 0,
            spec: QuerySpec::Q2c { class: ObjectClass::Vehicle },
            inputs: vec![0],
        };
        engine.execute(&instance, &inputs, &ExecContext::default()).unwrap();
        let (cheap, full) = engine.cascade_stats();
        assert_eq!(cheap + full, 4, "every frame classified");
        assert!(full >= 1, "the first frame always escalates");
    }
}
