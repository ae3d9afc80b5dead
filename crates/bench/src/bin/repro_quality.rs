//! §6.3.1 — video quality: does a detector perform comparably on
//! Visual Road frames and on real(-style) frames?
//!
//! The paper runs pretrained YOLOv2 on 1920 random frames of Visual
//! Road and of UA-DETRAC and reports AP@50 of 72 % vs 75 %. Here the
//! YOLO stand-in runs on Visual Road frames and on the recorded
//! stand-in (same scenes with fixed cameras, sensor noise, and
//! exposure flicker), with ground truth supplied by the scene
//! geometry in both cases. The claim under test is the *similarity*
//! of the two APs — synthetic video is as detectable as recorded
//! video — not their absolute value.

use vr_base::rng::mix64;
use vr_base::{Duration, Hyperparameters, Resolution, VrRng};
use vr_bench::table::TextTable;
use vr_render::CameraRenderer;
use vr_scene::groundtruth::frame_truth;
use vr_scene::{ObjectClass, VisualCity};
use vr_vision::eval::{average_precision, EvalFrame, GroundTruthBox};
use vr_vision::{OracleDetector, YoloConfig, YoloDetector};

fn eval_city(
    city: &VisualCity,
    res: Resolution,
    frames_per_cam: usize,
    sensor_noise: bool,
    seed: u64,
) -> Vec<EvalFrame> {
    let mut out = Vec::new();
    for cam in city.traffic_cameras() {
        // A fresh detector per camera (temporal background resets).
        let mut det = YoloDetector::new(YoloConfig { macs_per_pixel: 0.0, ..Default::default() });
        let renderer = CameraRenderer::new(city, cam, res.width, res.height);
        for i in 0..frames_per_cam {
            let t = i as f64 / 25.0;
            let mut frame = renderer.frame(t);
            if sensor_noise {
                let mut rng = VrRng::seed_from(mix64(seed, (cam.id.0 as u64) << 20 | i as u64));
                let gain = 1.0 + (rng.next_f64() - 0.5) * 0.06;
                for v in frame.y.iter_mut() {
                    let noise = (rng.next_f64() - 0.5) * 5.6;
                    *v = ((*v as f64) * gain + noise).clamp(0.0, 255.0) as u8;
                }
            }
            let detections = det.detect(&frame);
            let truth = frame_truth(city, cam, t, res.width, res.height);
            // UA-DETRAC-style protocol: clearly visible objects are
            // annotated; small/marginal ones become ignore regions
            // (neither hits nor misses).
            let mut gt = Vec::new();
            let mut ignore = Vec::new();
            for o in &truth.objects {
                let g = GroundTruthBox { class: o.class, rect: o.rect };
                if !o.occluded && o.rect.area() >= 500 && o.distance < 70.0 {
                    gt.push(g);
                } else {
                    ignore.push(g);
                }
            }
            out.push(EvalFrame { detections, truth: gt, ignore });
        }
    }
    out
}

fn main() {
    let args = vr_bench::args::CommonArgs::parse();
    let res = args.resolution.unwrap_or(Resolution::new(320, 180));
    let frames_per_cam = if args.full { 60 } else { 15 };
    let l = if args.full { 4 } else { 2 };
    let hyper = Hyperparameters::new(l, res, Duration::from_secs(5.0), args.seed)
        .expect("valid config");

    eprintln!("evaluating Visual Road frames ...");
    let city = VisualCity::generate(&hyper, 0.3);
    let vr_frames = eval_city(&city, res, frames_per_cam, false, args.seed);

    // Recorded-style: the SAME scenes viewed through a recorded-camera
    // pipeline (sensor noise + exposure flicker) — isolating the
    // synthetic-vs-recorded difference the way the paper's comparison
    // of matched corpora does.
    eprintln!("evaluating recorded-style frames (sensor noise + flicker) ...");
    let rec_frames = eval_city(&city, res, frames_per_cam, true, args.seed);

    // Upper-bound tier: a modern-CNN-grade detector, modelled by the
    // oracle with realistic jitter/miss/false-positive rates. (The
    // oracle reads geometry, not pixels, so it cannot probe corpus
    // differences — it anchors where a well-trained network's AP
    // would sit under this evaluation protocol.)
    let oracle_frames: Vec<EvalFrame> = {
        let mut oracle = OracleDetector::noisy(1.5, 0.08, 0.4, args.seed);
        vr_frames
            .iter()
            .map(|f| {
                let truth_objs: Vec<_> = f
                    .truth
                    .iter()
                    .map(|g| vr_scene::groundtruth::TruthObject {
                        class: g.class,
                        entity_id: 0,
                        rect: g.rect,
                        distance: 30.0,
                        occluded: false,
                        plate: None,
                        plate_visible: false,
                    })
                    .collect();
                let detections = oracle.detect(
                    &vr_scene::groundtruth::FrameTruth { objects: truth_objs },
                    res.width,
                    res.height,
                );
                EvalFrame { detections, truth: f.truth.clone(), ignore: f.ignore.clone() }
            })
            .collect()
    };

    let mut t = TextTable::new(&["corpus / detector", "frames", "AP@50 vehicle", "AP@50 pedestrian"]);
    for (name, frames) in [
        ("visual road (blob det.)", &vr_frames),
        ("recorded-style (blob det.)", &rec_frames),
        ("visual road (CNN-grade oracle)", &oracle_frames),
    ] {
        let ap_v = average_precision(frames, ObjectClass::Vehicle, 0.5);
        let ap_p = average_precision(frames, ObjectClass::Pedestrian, 0.5);
        t.row(
            name,
            vec![
                frames.len().to_string(),
                format!("{:.1}%", ap_v * 100.0),
                format!("{:.1}%", ap_p * 100.0),
            ],
        );
    }
    println!("\n§6.3.1 reproduction — detector AP on synthetic vs recorded-style video");
    println!("(paper: 72% vs 75% with YOLOv2 on Visual Road vs UA-DETRAC):\n");
    println!("{}", t.render());
    let ap_a = average_precision(&vr_frames, ObjectClass::Vehicle, 0.5);
    let ap_b = average_precision(&rec_frames, ObjectClass::Vehicle, 0.5);
    println!(
        "vehicle AP gap: {:.1} points (the paper's gap was 3 points)",
        (ap_a - ap_b).abs() * 100.0
    );
}
