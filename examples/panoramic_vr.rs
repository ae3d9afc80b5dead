//! The virtual-reality queries: panoramic stitching (Q9) and
//! tile-based two-bitrate 360° encoding (Q10).
//!
//! ```text
//! cargo run --release --example panoramic_vr
//! ```

use visual_road::prelude::*;
use visual_road::vdbms::QueryKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hyper = Hyperparameters::new(1, Resolution::new(160, 90), Duration::from_secs(0.7), 5)?;
    println!("generating dataset (including pre-stitched 360° inputs) ...");
    let dataset = Vcg::new(GenConfig::default()).generate(&hyper)?;

    println!(
        "panoramic rigs: {}; 360° inputs: {}",
        visual_road::dataset::rig_faces(&dataset.meta).len(),
        dataset.panorama_indices().len()
    );
    for &p in &dataset.panorama_indices() {
        let info = dataset.videos[p].video_info()?;
        println!(
            "  {}: {}x{} equirectangular, {} frames",
            dataset.videos[p].name,
            info.width,
            info.height,
            dataset.videos[p].frame_count()
        );
    }

    let vcd = Vcd::new(&dataset, VcdConfig::default());
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(
        &mut engine,
        &[QueryKind::Q9PanoramicStitching, QueryKind::Q10TileEncoding],
    )?;
    println!("\n{report}");

    // Show Q10's bandwidth effect directly: the *streamed
    // representation* is the per-tile encoded bitstream, so compare
    // the total tile bytes for all-high vs viewport-only-high tiles
    // ("streaming 'unimportant' areas … in lower resolution may yield
    // substantial bandwidth savings", §4.2.2).
    use visual_road::codec::{encode_sequence, EncoderConfig, RateControlMode};
    use visual_road::frame::ops::crop;
    use visual_road::frame::tile::TileGrid;
    use visual_road::vdbms::kernels::decode_all;
    let p = dataset.panorama_indices()[0];
    let (info, frames) = decode_all(&dataset.videos[p])?;
    let grid = TileGrid::uniform(info.width, info.height, 3, 3);
    let all_high = [true; 9];
    let mut one_high = [false; 9];
    one_high[4] = true;
    for (label, tiles) in [("all tiles high bitrate", all_high), ("viewport-only high", one_high)]
    {
        let mut total = 0usize;
        for (rect, &hi) in grid.rects().iter().zip(tiles.iter()) {
            let tile_frames: Vec<_> = frames.iter().map(|f| crop(f, *rect)).collect();
            let cfg = EncoderConfig {
                profile: info.profile,
                rate: RateControlMode::Bitrate(if hi { 1 << 21 } else { 1 << 16 }),
                gop: info.gop,
                frame_rate: info.frame_rate,
            };
            total += encode_sequence(&cfg, &tile_frames)?.size_bytes();
        }
        println!("{label}: {total} bytes streamed");
    }
    Ok(())
}
