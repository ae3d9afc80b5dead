//! The VDBMS-agnostic query specifications (Tables 3 and 5, §4).

use vr_base::{LicensePlate, Resolution, Timestamp, VrRng};
use vr_geom::Rect;
use vr_scene::ObjectClass;

/// Which benchmark query a spec instantiates (for capability checks
/// and reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    Q1Select,
    Q2aGrayscale,
    Q2bBlur,
    Q2cBoxes,
    Q2dMasking,
    Q3Subquery,
    Q4Upsample,
    Q5Downsample,
    Q6aUnionBoxes,
    Q6bUnionCaptions,
    Q7ObjectDetection,
    Q8VehicleTracking,
    Q9PanoramicStitching,
    Q10TileEncoding,
}

impl QueryKind {
    /// All queries in benchmark submission order (§3.2: "the VCD
    /// submits batches in benchmark query order").
    pub const ALL: [QueryKind; 14] = [
        QueryKind::Q1Select,
        QueryKind::Q2aGrayscale,
        QueryKind::Q2bBlur,
        QueryKind::Q2cBoxes,
        QueryKind::Q2dMasking,
        QueryKind::Q3Subquery,
        QueryKind::Q4Upsample,
        QueryKind::Q5Downsample,
        QueryKind::Q6aUnionBoxes,
        QueryKind::Q6bUnionCaptions,
        QueryKind::Q7ObjectDetection,
        QueryKind::Q8VehicleTracking,
        QueryKind::Q9PanoramicStitching,
        QueryKind::Q10TileEncoding,
    ];

    /// Microbenchmarks (Q1–Q6) vs composite queries (Q7–Q10).
    pub fn is_micro(&self) -> bool {
        !matches!(
            self,
            QueryKind::Q7ObjectDetection
                | QueryKind::Q8VehicleTracking
                | QueryKind::Q9PanoramicStitching
                | QueryKind::Q10TileEncoding
        )
    }

    /// Paper-style label ("Q2(c)").
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Q1Select => "Q1",
            QueryKind::Q2aGrayscale => "Q2(a)",
            QueryKind::Q2bBlur => "Q2(b)",
            QueryKind::Q2cBoxes => "Q2(c)",
            QueryKind::Q2dMasking => "Q2(d)",
            QueryKind::Q3Subquery => "Q3",
            QueryKind::Q4Upsample => "Q4",
            QueryKind::Q5Downsample => "Q5",
            QueryKind::Q6aUnionBoxes => "Q6(a)",
            QueryKind::Q6bUnionCaptions => "Q6(b)",
            QueryKind::Q7ObjectDetection => "Q7",
            QueryKind::Q8VehicleTracking => "Q8",
            QueryKind::Q9PanoramicStitching => "Q9",
            QueryKind::Q10TileEncoding => "Q10",
        }
    }

    /// The label without its parentheses ("Q2c"): the one spelling used
    /// on the wire, in CLI flags, store prefixes, span names and fault
    /// specs.
    pub fn short_label(&self) -> &'static str {
        match self {
            QueryKind::Q2aGrayscale => "Q2a",
            QueryKind::Q2bBlur => "Q2b",
            QueryKind::Q2cBoxes => "Q2c",
            QueryKind::Q2dMasking => "Q2d",
            QueryKind::Q6aUnionBoxes => "Q6a",
            QueryKind::Q6bUnionCaptions => "Q6b",
            unparenthesized => unparenthesized.label(),
        }
    }

    /// The query a label names, in either spelling ("Q2c" or "Q2(c)")
    /// and any case; surrounding whitespace is ignored.
    pub fn parse(label: &str) -> Option<QueryKind> {
        let label = label.trim();
        QueryKind::ALL.into_iter().find(|kind| {
            label.eq_ignore_ascii_case(kind.short_label())
                || label.eq_ignore_ascii_case(kind.label())
        })
    }
}

/// Orientation of one panoramic-rig face, needed by engines to stitch
/// (Q9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceParams {
    pub yaw: f32,
    pub pitch: f32,
    pub hfov_deg: f32,
}

/// A fully-parameterized query (one instance within a batch).
///
/// Parameter domains follow Table 3; the VCD draws them uniformly at
/// random ([`sample`](QuerySpec::sample)). "The VDBMS is only
/// responsible for executing the query instance, and does not
/// participate in selecting the parameter values." (§3.2)
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Q1: spatio-temporal crop.
    Q1 { rect: Rect, t1: Timestamp, t2: Timestamp },
    /// Q2(a): grayscale conversion.
    Q2a,
    /// Q2(b): d×d Gaussian blur.
    Q2b { d: u32 },
    /// Q2(c): object bounding boxes via the detection algorithm `A`
    /// (YOLO in version 1.0) for one object class.
    Q2c { class: ObjectClass },
    /// Q2(d): background masking with an m-frame mean filter and
    /// relative threshold ε.
    Q2d { m: u32, epsilon: f64 },
    /// Q3: partition into (Δx, Δy) tiles, re-encode tile `i` at
    /// bitrate `bitrates[i]`, recombine.
    Q3 { dx: u32, dy: u32, bitrates: Vec<u32> },
    /// Q4: bilinear upsample to (αRx, βRy).
    Q4 { alpha: u32, beta: u32 },
    /// Q5: downsample to (Rx/α, Ry/β).
    Q5 { alpha: u32, beta: u32 },
    /// Q6(a): ω-coalesce the input with its bounding-box video.
    Q6a,
    /// Q6(b): overlay the WebVTT caption track.
    Q6b,
    /// Q7: composite object detection for one class.
    Q7 { class: ObjectClass },
    /// Q8: vehicle tracking by license plate across all traffic
    /// cameras.
    Q8 { plate: LicensePlate },
    /// Q9: stitch four panoramic faces into an equirectangular 360°
    /// video.
    Q9 { faces: [FaceParams; 4], output: Resolution },
    /// Q10: nine-tile two-bitrate encoding plus client downsampling.
    Q10 { high_bitrate: u32, low_bitrate: u32, high_tiles: [bool; 9], client: Resolution },
}

impl QuerySpec {
    /// The query this spec instantiates.
    pub fn kind(&self) -> QueryKind {
        match self {
            QuerySpec::Q1 { .. } => QueryKind::Q1Select,
            QuerySpec::Q2a => QueryKind::Q2aGrayscale,
            QuerySpec::Q2b { .. } => QueryKind::Q2bBlur,
            QuerySpec::Q2c { .. } => QueryKind::Q2cBoxes,
            QuerySpec::Q2d { .. } => QueryKind::Q2dMasking,
            QuerySpec::Q3 { .. } => QueryKind::Q3Subquery,
            QuerySpec::Q4 { .. } => QueryKind::Q4Upsample,
            QuerySpec::Q5 { .. } => QueryKind::Q5Downsample,
            QuerySpec::Q6a => QueryKind::Q6aUnionBoxes,
            QuerySpec::Q6b => QueryKind::Q6bUnionCaptions,
            QuerySpec::Q7 { .. } => QueryKind::Q7ObjectDetection,
            QuerySpec::Q8 { .. } => QueryKind::Q8VehicleTracking,
            QuerySpec::Q9 { .. } => QueryKind::Q9PanoramicStitching,
            QuerySpec::Q10 { .. } => QueryKind::Q10TileEncoding,
        }
    }

    /// Draw an instance of `kind` uniformly from the Table 3 domains.
    ///
    /// * `resolution`/`duration` describe the input video.
    /// * `sample_ctx` supplies the values a spec needs from the
    ///   dataset (a real plate for Q8, rig geometry for Q9).
    /// * `max_upsample` caps the Q4 α/β domain (the paper's domain
    ///   reaches 2⁵ = 32×; a cap keeps scaled-down runs tractable and
    ///   is reported with results).
    pub fn sample(
        kind: QueryKind,
        rng: &mut VrRng,
        resolution: Resolution,
        duration: vr_base::Duration,
        ctx: &SampleContext,
    ) -> QuerySpec {
        let rx = resolution.width;
        let ry = resolution.height;
        match kind {
            QueryKind::Q1Select => {
                // 0 <= x1 < x2 <= Rx etc., with a minimum extent so the
                // crop is a meaningful video.
                let x1 = rng.range(0, (rx - 16) as usize) as i32;
                let x2 = rng.range(x1 as usize + 16, rx as usize) as i32;
                let y1 = rng.range(0, (ry - 16) as usize) as i32;
                let y2 = rng.range(y1 as usize + 16, ry as usize) as i32;
                let total = duration.as_micros();
                let t1 = rng.range_u64(0, total.saturating_sub(2));
                let t2 = rng.range_u64(t1 + 1, total);
                QuerySpec::Q1 {
                    rect: Rect::new(x1, y1, x2, y2),
                    t1: Timestamp::from_micros(t1),
                    t2: Timestamp::from_micros(t2),
                }
            }
            QueryKind::Q2aGrayscale => QuerySpec::Q2a,
            QueryKind::Q2bBlur => QuerySpec::Q2b { d: rng.range(3, 20) as u32 },
            QueryKind::Q2cBoxes => QuerySpec::Q2c { class: sample_class(rng) },
            QueryKind::Q2dMasking => QuerySpec::Q2d {
                m: rng.range(2, 60) as u32,
                epsilon: rng.range_f64(0.05, 0.95),
            },
            QueryKind::Q3Subquery => {
                let n_x = rng.range(1, 3) as u32;
                let n_y = rng.range(1, 3) as u32;
                let dx = (rx >> n_x).max(16);
                let dy = (ry >> n_y).max(16);
                // The tile count must match the grid every engine will
                // build; derive it from the shared TileGrid.
                let tiles = vr_frame::tile::TileGrid::new(rx, ry, dx, dy).len();
                let bitrates =
                    (0..tiles).map(|_| 1u32 << rng.range(16, 22)).collect();
                QuerySpec::Q3 { dx, dy, bitrates }
            }
            QueryKind::Q4Upsample => {
                let cap = ctx.max_upsample_exp.clamp(1, 5);
                QuerySpec::Q4 {
                    alpha: 1 << rng.range(1, cap as usize),
                    beta: 1 << rng.range(1, cap as usize),
                }
            }
            QueryKind::Q5Downsample => QuerySpec::Q5 {
                alpha: 1 << rng.range(1, 5),
                beta: 1 << rng.range(1, 5),
            },
            QueryKind::Q6aUnionBoxes => QuerySpec::Q6a,
            QueryKind::Q6bUnionCaptions => QuerySpec::Q6b,
            QueryKind::Q7ObjectDetection => QuerySpec::Q7 { class: sample_class(rng) },
            QueryKind::Q8VehicleTracking => QuerySpec::Q8 {
                plate: *rng.choose(&ctx.known_plates),
            },
            QueryKind::Q9PanoramicStitching => {
                let rig = rng.choose(&ctx.rigs);
                QuerySpec::Q9 {
                    faces: *rig,
                    output: Resolution::new(rx * 2, rx), // 2:1 equirect
                }
            }
            QueryKind::Q10TileEncoding => {
                let mut high_tiles = [false; 9];
                for t in high_tiles.iter_mut() {
                    *t = rng.chance(0.4);
                }
                // Ensure at least one high tile (the viewport).
                high_tiles[4] = true;
                QuerySpec::Q10 {
                    high_bitrate: 1 << rng.range(20, 22),
                    low_bitrate: 1 << rng.range(16, 18),
                    high_tiles,
                    client: Resolution::new((rx / 2).max(32), (ry / 2).max(32)),
                }
            }
        }
    }
}

fn sample_class(rng: &mut VrRng) -> ObjectClass {
    if rng.chance(0.5) {
        ObjectClass::Pedestrian
    } else {
        ObjectClass::Vehicle
    }
}

/// Dataset-derived values the sampler draws from.
#[derive(Debug, Clone)]
pub struct SampleContext {
    /// License plates that exist in the city (Q8's domain).
    pub known_plates: Vec<LicensePlate>,
    /// Panoramic rig face orientations (Q9).
    pub rigs: Vec<[FaceParams; 4]>,
    /// Exponent cap for the Q4 α/β domain (paper: 5; scaled-down
    /// runs typically 2).
    pub max_upsample_exp: u32,
}

impl Default for SampleContext {
    fn default() -> Self {
        Self {
            known_plates: vec![LicensePlate(*b"AAAAAA")],
            rigs: vec![[
                FaceParams { yaw: 0.0, pitch: 0.0, hfov_deg: 120.0 },
                FaceParams { yaw: std::f32::consts::FRAC_PI_2, pitch: 0.0, hfov_deg: 120.0 },
                FaceParams { yaw: std::f32::consts::PI, pitch: 0.0, hfov_deg: 120.0 },
                FaceParams { yaw: 3.0 * std::f32::consts::FRAC_PI_2, pitch: 0.0, hfov_deg: 120.0 },
            ]],
            max_upsample_exp: 2,
        }
    }
}

/// A query instance: the spec plus which dataset inputs it reads.
#[derive(Debug, Clone)]
pub struct QueryInstance {
    /// Position within the batch.
    pub index: usize,
    pub spec: QuerySpec,
    /// Indices into the dataset's input-video list. Most queries take
    /// one input; Q9 takes the four rig faces; Q8 takes every traffic
    /// video.
    pub inputs: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::Duration;

    fn ctx() -> SampleContext {
        SampleContext {
            known_plates: vec![
                LicensePlate(*b"AB12CD"),
                LicensePlate(*b"ZZ99ZZ"),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn labels_round_trip_in_both_spellings_and_any_case() {
        for kind in QueryKind::ALL {
            assert_eq!(kind.short_label(), kind.label().replace(['(', ')'], ""));
            for spelling in [kind.label(), kind.short_label()] {
                assert_eq!(QueryKind::parse(spelling), Some(kind), "{spelling}");
                assert_eq!(QueryKind::parse(&spelling.to_ascii_lowercase()), Some(kind));
                assert_eq!(QueryKind::parse(&format!(" {spelling}\t")), Some(kind));
            }
        }
        for junk in ["", "Q", "Q11", "Q2", "Q2(a", "Q(2a)", "S1", "Q1 Q2a"] {
            assert_eq!(QueryKind::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn all_fourteen_queries_sample_within_domains() {
        let mut rng = VrRng::seed_from(1);
        let res = Resolution::new(320, 180);
        let dur = Duration::from_secs(4.0);
        for kind in QueryKind::ALL {
            for _ in 0..50 {
                let spec = QuerySpec::sample(kind, &mut rng, res, dur, &ctx());
                assert_eq!(spec.kind(), kind);
                match &spec {
                    QuerySpec::Q1 { rect, t1, t2 } => {
                        assert!(rect.x0 >= 0 && rect.x1 <= 320);
                        assert!(rect.y0 >= 0 && rect.y1 <= 180);
                        assert!(rect.x0 < rect.x1 && rect.y0 < rect.y1);
                        assert!(t1 < t2);
                        assert!(t2.as_micros() <= dur.as_micros());
                    }
                    QuerySpec::Q2b { d } => assert!((3..=20).contains(d)),
                    QuerySpec::Q2d { m, epsilon } => {
                        assert!((2..=60).contains(m));
                        assert!((0.0..1.0).contains(epsilon));
                    }
                    QuerySpec::Q3 { dx, dy, bitrates } => {
                        assert!(*dx >= 16 && *dy >= 16);
                        for b in bitrates {
                            assert!((1 << 16..=1 << 22).contains(b));
                        }
                        assert!(!bitrates.is_empty());
                    }
                    QuerySpec::Q4 { alpha, beta } => {
                        assert!([2u32, 4].contains(alpha), "capped domain");
                        assert!([2u32, 4].contains(beta));
                    }
                    QuerySpec::Q5 { alpha, beta } => {
                        assert!([2u32, 4, 8, 16, 32].contains(alpha));
                        assert!([2u32, 4, 8, 16, 32].contains(beta));
                    }
                    QuerySpec::Q8 { plate } => {
                        assert!(ctx().known_plates.contains(plate));
                    }
                    QuerySpec::Q9 { output, .. } => {
                        assert_eq!(output.width, 640);
                        assert_eq!(output.height, 320);
                    }
                    QuerySpec::Q10 { high_tiles, high_bitrate, low_bitrate, .. } => {
                        assert!(high_tiles[4], "viewport tile always high");
                        assert!(high_bitrate > low_bitrate);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let res = Resolution::K1;
        let dur = Duration::from_secs(10.0);
        let mut a = VrRng::seed_from(9);
        let mut b = VrRng::seed_from(9);
        for kind in QueryKind::ALL {
            assert_eq!(
                QuerySpec::sample(kind, &mut a, res, dur, &ctx()),
                QuerySpec::sample(kind, &mut b, res, dur, &ctx())
            );
        }
    }

    #[test]
    fn micro_vs_composite_partition() {
        let micro: Vec<_> = QueryKind::ALL.iter().filter(|k| k.is_micro()).collect();
        assert_eq!(micro.len(), 10);
        assert!(QueryKind::Q7ObjectDetection.is_micro() == false);
        assert_eq!(QueryKind::Q2cBoxes.label(), "Q2(c)");
        assert_eq!(QueryKind::Q10TileEncoding.label(), "Q10");
    }

    #[test]
    fn q3_bitrate_count_matches_grid() {
        let mut rng = VrRng::seed_from(3);
        for _ in 0..30 {
            let spec = QuerySpec::sample(
                QueryKind::Q3Subquery,
                &mut rng,
                Resolution::new(320, 180),
                Duration::from_secs(1.0),
                &ctx(),
            );
            if let QuerySpec::Q3 { dx, dy, bitrates } = spec {
                let grid = vr_frame::tile::TileGrid::new(320, 180, dx, dy);
                assert_eq!(
                    bitrates.len(),
                    grid.len(),
                    "bitrate count must match the tile grid for dx={dx} dy={dy}"
                );
            }
        }
    }
}
