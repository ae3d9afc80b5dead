//! Figure 8: single-node generator performance by scale factor and
//! resolution — expected to be approximately linear in L (the camera
//! count is linear in L and rendering cost is linear in pixels).
//!
//! Paper configuration: 60-minute datasets at 1κ/2κ/4κ. Default here:
//! short datasets at three proportionally-spaced resolutions
//! (`--full` uses the real 1κ/2κ/4κ ladder). "Single node" is one
//! generator thread (`GenConfig { nodes: 1, .. }`), the unit Figure 9
//! distributes: with every core, the L = 1 rig's panorama job would run
//! alone after the camera phase while the other cores idle, a cost the
//! linear-in-L shape does not model.
//!
//! Each default-configuration cell is the fastest of three runs.
//! Shape check, asserted (non-zero exit): at every resolution each
//! doubling of L multiplies the time by a factor within [1.5, 2.6] —
//! linear in L, with room for the per-run fixed cost below 2× and for
//! the largest resolution's faster growth above it.

use vr_base::{Duration, Hyperparameters, Resolution};
use vr_bench::args::CommonArgs;
use vr_bench::table::TextTable;
use visual_road::{GenConfig, Vcg};

fn main() -> std::process::ExitCode {
    let args = CommonArgs::parse();
    let duration =
        Duration::from_secs(args.duration_secs.unwrap_or(if args.full { 60.0 } else { 0.7 }));
    let resolutions: Vec<(&str, Resolution)> = if args.full {
        vec![("1k", Resolution::K1), ("2k", Resolution::K2), ("4k", Resolution::K4)]
    } else {
        // The same 1:2:4 per-axis ladder, scaled down 8x.
        vec![
            ("1k/8", Resolution::new(120, 68)),
            ("2k/8", Resolution::new(240, 134)),
            ("4k/8", Resolution::new(480, 270)),
        ]
    };
    let scales: Vec<u32> = if args.full { vec![1, 2, 4, 8, 16] } else { vec![1, 2, 4, 8] };
    // The scaled-down cells are sub-second wall times, noisier on a
    // shared host than the shape bound is wide: keep the fastest of
    // three.
    let reps = if args.full { 1 } else { 3 };

    let mut header = vec!["L"];
    header.extend(resolutions.iter().map(|(n, _)| *n));
    let mut t = TextTable::new(&header);
    let mut csv = String::from("L,resolution,seconds\n");
    let mut seconds: Vec<Vec<f64>> = Vec::new(); // [scale][resolution]
    for &l in &scales {
        let mut row = Vec::new();
        for (name, res) in &resolutions {
            let hyper =
                Hyperparameters::new(l, *res, duration, args.seed).expect("valid config");
            let vcg = Vcg::new(GenConfig { density_scale: 0.15, nodes: 1, ..Default::default() });
            let took = (0..reps)
                .map(|_| vr_bench::time(|| vcg.generate(&hyper).expect("generates")).1)
                .min()
                .expect("at least one repetition");
            row.push(took.as_secs_f64());
            csv.push_str(&format!("{l},{name},{:.3}\n", took.as_secs_f64()));
            eprintln!("  L={l} {name}: {:.2}s", took.as_secs_f64());
        }
        t.row(l.to_string(), row.iter().map(|s| format!("{s:.2}s")).collect());
        seconds.push(row);
    }
    println!(
        "\nFigure 8 reproduction — single-node dataset generation time ({duration} of video, \
         one generator thread):\n"
    );
    println!("{}", t.render());
    println!("CSV:\n{csv}");

    let mut checks = vr_bench::ShapeChecks::default();
    for (r, (name, _)) in resolutions.iter().enumerate() {
        for (i, pair) in scales.windows(2).enumerate() {
            let ratio = seconds[i + 1][r] / seconds[i][r];
            checks.check(&format!("{name} time(L={}) / time(L={})", pair[1], pair[0]), ratio, 1.5, 2.6);
        }
    }
    checks.finish()
}
