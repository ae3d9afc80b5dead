//! Figure 9: distributed generator performance by node count —
//! "because dataset generation does not require coordination between
//! cameras, we see an expected linear decrease in generation time as
//! we increase the number of nodes".
//!
//! Paper configuration: L = 2, 1κ, 60 minutes on EC2 p3.2xlarge
//! nodes. The VCG runs camera jobs on `GenConfig::nodes` worker
//! threads; on a machine with that many cores, thread wall-clock shows
//! the scaling directly. A small host cannot go past its core count,
//! so the binary measures each camera stream's independent generation
//! time on one thread and reports the **makespan** of the VCG's own
//! schedule — jobs in camera order, each to the node that is free
//! first (list scheduling), which is what the shared job counter does.
//! Per-camera generation is coordination-free, so a node cluster's wall
//! time is exactly that makespan. The single-node wall time is also
//! measured directly as a cross-check.
//!
//! Shape check, asserted (non-zero exit): two nodes finish at least
//! 1.6× sooner than one.

use std::time::Duration as WallDuration;
use vr_base::{Duration, Hyperparameters, Resolution};
use vr_bench::args::CommonArgs;
use vr_bench::table::TextTable;
use visual_road::{GenConfig, Vcg};

fn main() -> std::process::ExitCode {
    let args = CommonArgs::parse();
    let res = args.resolution.unwrap_or(if args.full {
        Resolution::K1
    } else {
        Resolution::new(240, 134)
    });
    let duration =
        Duration::from_secs(args.duration_secs.unwrap_or(if args.full { 60.0 } else { 2.0 }));
    // Paper uses L = 2; the camera count (2 tiles x 8 streams = 16)
    // parallelizes across up to 16 workers.
    let hyper = Hyperparameters::new(2, res, duration, args.seed).expect("valid config");
    let nodes: Vec<usize> = vec![1, 2, 4, 8];

    let vcg = Vcg::new(GenConfig { density_scale: 0.15, ..Default::default() });
    eprintln!("generating with per-camera timing ...");
    let ((_, timings), direct) =
        vr_bench::time(|| vcg.generate_with_timings(&hyper).expect("generates"));
    eprintln!(
        "{} cameras, direct single-node wall time {:.2}s",
        timings.len(),
        direct.as_secs_f64()
    );

    // The VCG's workers take camera jobs in order from one counter:
    // each job starts on whichever node frees up first.
    let makespan = |n: usize| -> f64 {
        let mut busy_until = vec![WallDuration::ZERO; n.max(1)];
        for &took in &timings {
            *busy_until.iter_mut().min().expect("at least one node") += took;
        }
        busy_until.into_iter().max().unwrap_or_default().as_secs_f64()
    };
    let mut t = TextTable::new(&["nodes", "makespan", "speedup"]);
    let mut csv = String::from("nodes,seconds\n");
    for &n in &nodes {
        let secs = makespan(n);
        t.row(n.to_string(), vec![format!("{secs:.2}s"), format!("{:.2}x", makespan(1) / secs)]);
        csv.push_str(&format!("{n},{secs:.3}\n"));
    }
    println!(
        "\nFigure 9 reproduction — distributed generation makespan (L=2, {res}, {duration}):\n"
    );
    println!("{}", t.render());
    println!(
        "(direct 1-node wall time {:.2}s; camera work is coordination-free so the\n\
         makespan model is exact for independent nodes — see DESIGN.md)",
        direct.as_secs_f64()
    );
    println!("CSV:\n{csv}");
    let mut checks = vr_bench::ShapeChecks::default();
    checks.check(
        "makespan(1 node) / makespan(2 nodes)",
        makespan(1) / makespan(2),
        1.6,
        f64::INFINITY,
    );
    checks.finish()
}
