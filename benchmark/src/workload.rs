//! What every workload shares: sizes, the dataset, the scratch directory
//! and the repeated set-up measurement.

use std::path::PathBuf;
use std::time::Instant;

use visual_road::prelude::*;
use visual_road::Dataset;

use crate::metrics::Outcome;
use crate::spans::Recorder;

/// Seed of the dataset every run uses. The dataset is the benchmark's
/// database: it is held fixed so that runs with different `--seed`s time
/// the same videos, and the workload seed drives only the order and timing
/// of the operations (benchmark/README.md, "Departures from the issue").
pub const DATASET_SEED: u64 = 42;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub width: u32,
    pub height: u32,
    pub video_seconds: f64,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Requests sent, untimed, before a serve workload's first phase.
    pub warmup_requests: usize,
    /// Fewest timed passes of `batch_codec` and of `batch_vision`, whatever
    /// `--seconds` is: a slow host runs longer, not on fewer samples.
    pub min_codec_passes: usize,
    pub min_vision_passes: usize,
    /// Fewest requests of a traced serve run's open loop.
    pub min_open_requests: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        width: 192,
        height: 108,
        video_seconds: 1.0,
        setups: 5,
        warmup_requests: 20,
        min_codec_passes: 15,
        min_vision_passes: 10,
        min_open_requests: 400,
    };
    /// Tiny sizes for the self-test: every code path, no steady numbers.
    pub const SMOKE: Sizes = Sizes {
        width: 96,
        height: 54,
        video_seconds: 0.25,
        setups: 1,
        warmup_requests: 4,
        min_codec_passes: 2,
        min_vision_passes: 2,
        min_open_requests: 10,
    };
}

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    /// Drives operation order, request mix and arrival gaps.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// `Vcg::new(GenConfig::default()).generate({L=1, R, t, s=DATASET_SEED})`.
pub fn generate_dataset(sizes: &Sizes) -> Result<Dataset, String> {
    let hyper = Hyperparameters::new(
        1,
        Resolution::new(sizes.width, sizes.height),
        Duration::from_secs(sizes.video_seconds),
        DATASET_SEED,
    )
    .map_err(|e| format!("hyperparameters: {e}"))?;
    Vcg::new(GenConfig::default())
        .generate(&hyper)
        .map_err(|e| format!("generate: {e}"))
}

/// The benchmark's scratch directory, `benchmark/out/` of the checkout
/// this binary was built from: span files and the result store live here,
/// so a run never writes outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run `setup` `sizes.setups` times, tearing each environment but the
/// last down with `teardown`, and report the median as `setup_s`. `setup`
/// returns the environment and the seconds of its run that were checking,
/// not set-up (computing expected answers), which are left out.
pub fn measure_setup<E>(
    args: &RunArgs,
    process_start: Instant,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(E, f64), String>,
    mut teardown: impl FnMut(E) -> Result<(), String>,
) -> Result<E, String> {
    let mut env = None;
    let mut seconds = Vec::new();
    // A traced run prints no `setup_s`: once is enough.
    let setups = if args.trace {
        1
    } else {
        args.sizes.setups.max(1)
    };
    for i in 0..setups {
        if let Some(previous) = env.take() {
            teardown(previous)?;
        }
        // The first set-up is timed from process start, as a user waits.
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (e, excluded) = setup()?;
        seconds.push(t0.elapsed().as_secs_f64() - excluded);
        env = Some(e);
    }
    if !args.trace {
        out.set_median("setup_s", &seconds);
        out.note(format!("set-ups in order: {seconds:.3?} s"));
    }
    Ok(env.expect("at least one set-up ran"))
}

/// Write the recorder's spans to `benchmark/out/trace_<workload>.json`.
pub fn write_trace(workload: &str, recorder: &Recorder, out: &mut Outcome) -> Result<(), String> {
    let spans = recorder.snapshot();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, crate::spans::to_json(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    for (name, nanos, count) in crate::spans::self_time_by_name(&spans).into_iter().take(12) {
        out.note(format!(
            "self time {name}: {:.3} ms over {count} spans",
            nanos as f64 / 1e6
        ));
    }
    Ok(())
}
