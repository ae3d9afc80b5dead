//! Online-mode streaming (§3.2): each input is exposed as a
//! forward-only stream at its camera's capture rate, carried over RTP,
//! and the driver blocks reads beyond that rate.
//!
//! This example runs the same queries offline and online at two
//! compressed-time rates through the driver, showing that an online
//! instance takes at least its input's capture time, with the engine's
//! decode and kernel work overlapping the capture instead of following
//! it.
//!
//! ```text
//! cargo run --release --example online_streaming
//! ```

use visual_road::prelude::*;
use visual_road::vdbms::QueryKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hyper = Hyperparameters::new(1, Resolution::new(160, 90), Duration::from_secs(1.0), 9)?;
    println!("generating dataset ...");
    let dataset = Vcg::new(GenConfig::default()).generate(&hyper)?;
    let queries = [QueryKind::Q2aGrayscale, QueryKind::Q2cBoxes, QueryKind::Q9PanoramicStitching];
    println!("{} s of video per camera; runtime of a one-instance batch:", hyper.duration.as_secs_f64());
    for (label, mode) in [
        ("offline", ExecutionMode::Offline),
        ("online 10x", ExecutionMode::Online { speedup: 10.0 }),
        ("online 1x", ExecutionMode::Online { speedup: 1.0 }),
    ] {
        let cfg = VcdConfig { mode, validate: false, batch_size: Some(1), ..Default::default() };
        let report = Vcd::new(&dataset, cfg).run_queries(&mut ReferenceEngine::new(), &queries)?;
        let latencies: Vec<String> = report
            .queries
            .iter()
            .map(|q| format!("{} {:.3}s", q.kind.label(), q.runtime().unwrap().as_secs_f64()))
            .collect();
        println!("  {label:<11} {}", latencies.join("  "));
    }
    Ok(())
}
