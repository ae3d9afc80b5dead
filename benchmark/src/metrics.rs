//! The declared metric table and the result a workload run fills in.
//!
//! `BENCHMARK.json` at the repo root is the declaration the driver reads;
//! the tables here are the same declaration the program prints from. A
//! self-test asserts the two agree name for name, unit for unit.

use std::collections::BTreeMap;

use crate::stats::{self, Quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn decl(name: &str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "batch_codec",
    "batch_vision",
    "serve_pixel",
    "serve_semantic",
];

/// End-to-end metrics: every workload prints every one of them.
pub fn end_to_end() -> Vec<Decl> {
    use Better::*;
    [
        ("setup_s", "s", Lower, 0.25),
        ("pass_wall_s", "s", Lower, 0.25),
        ("req_p50_ms", "ms", Lower, 0.25),
        ("sat_qps", "1/s", Higher, 0.25),
        ("peak_rss_mb", "MiB", Lower, 0.10),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Decl {
        bound: Some(bound),
        ..decl(name, unit, better)
    })
    .collect()
}

/// The metric a workload's `metric` is computed from, where it is: every
/// workload prints every end-to-end metric, and a batch workload's
/// `sat_qps` is its `pass_wall_s` turned over, a serve workload's
/// `pass_wall_s` its `sat_qps`. The two are one row when a change is judged.
pub fn derived_from(workload: &str, metric: &str) -> Option<&'static str> {
    match (workload.starts_with("batch_"), metric) {
        (true, "sat_qps") => Some("pass_wall_s"),
        (false, "pass_wall_s") => Some("sat_qps"),
        _ => None,
    }
}

/// The (engine, query) pairs of the two batch workloads, as the
/// lower-case tokens metric names carry.
pub const CODEC_PAIRS: [(&str, &str); 11] = [
    ("reference", "q1"),
    ("reference", "q2a"),
    ("reference", "q4"),
    ("reference", "q5"),
    ("reference", "q6a"),
    ("reference", "q8"),
    ("batch", "q1"),
    ("batch", "q2a"),
    ("batch", "q5"),
    ("functional", "q1"),
    ("functional", "q2a"),
];
pub const VISION_PAIRS: [(&str, &str); 5] = [
    ("reference", "q2b"),
    ("reference", "q2c"),
    ("reference", "q3"),
    ("reference", "q7"),
    ("cascade", "q2c"),
];

pub fn exec_metric(engine: &str, query: &str) -> String {
    format!("vdbms.exec_ms.{engine}.{query}")
}

/// Per-layer metrics, printed by a traced run. A metric a workload does
/// not exercise prints 0 there.
pub fn per_layer() -> Vec<Decl> {
    use Better::*;
    let mut out: Vec<Decl> = [
        // Demoted from end-to-end: see benchmark/README.md.
        ("req_p95_ms", "ms", Lower),
        ("within_limit_share", "ratio", Higher),
        ("failed_share", "ratio", Lower),
        ("vcg.generate_s", "s", Lower),
        ("vcg.frames_per_s", "1/s", Higher),
        ("vcg.dataset_bytes", "B", Lower),
        ("scene.city_generate_ms", "ms", Lower),
        ("render.frame_ms", "ms", Lower),
        ("codec.decode_ns_per_px", "ns/px", Lower),
        ("codec.encode_ns_per_px", "ns/px", Lower),
        ("codec.encode_bytes_per_frame", "B", Lower),
        ("codec.roundtrip_psnr_db", "dB", Higher),
        ("codec.decode_parallel_speedup", "ratio", Higher),
        ("container.parse_us", "us", Lower),
        ("container.sample_iter_ns", "ns", Lower),
        ("container.overhead_bytes_per_payload_byte", "ratio", Lower),
        ("storage.flat_put_mb_per_s", "MB/s", Higher),
        ("storage.flat_get_mb_per_s", "MB/s", Higher),
        ("frame.crop_ns_per_px", "ns/px", Lower),
        ("frame.grayscale_ns_per_px", "ns/px", Lower),
        ("frame.blur_ns_per_px", "ns/px", Lower),
        ("frame.bilinear_ns_per_px", "ns/px", Lower),
        ("frame.background_mask_ns_per_px", "ns/px", Lower),
        ("frame.psnr_ns_per_px", "ns/px", Lower),
        ("vision.yolo_ms_per_frame", "ms", Lower),
        ("vision.diff_ns_per_px", "ns/px", Lower),
        ("vision.associate_us_per_frame", "us", Lower),
        ("vision.embed_us_per_track", "us", Lower),
    ]
    .into_iter()
    .map(|(n, u, b)| decl(n, u, b))
    .collect();
    for (engine, query) in CODEC_PAIRS.iter().chain(&VISION_PAIRS) {
        out.push(decl(&exec_metric(engine, query), "ms", Lower));
    }
    out.extend(
        [
            ("vdbms.decode_s", "s", Lower),
            ("vdbms.kernel_s", "s", Lower),
            ("vdbms.encode_s", "s", Lower),
            ("vdbms.scan_sink_s", "s", Lower),
            ("vdbms.residual_share", "ratio", Lower),
            ("vdbms.batch_cache_hit_ms", "ms", Lower),
            ("vdbms.batch_cache_miss_ms", "ms", Lower),
            ("vdbms.batch_cache_thrash_ms", "ms", Lower),
            ("vdbms.optimizer_decide_cold_us", "us", Lower),
            ("vdbms.optimizer_decide_cached_us", "us", Lower),
            ("vdbms.workers_speedup.q1", "ratio", Higher),
            ("vcd.batch_sample_us", "us", Lower),
            ("vcd.validate_s", "s", Lower),
            ("vcd.driver_overhead_share", "ratio", Lower),
            ("index.ingest_s", "s", Lower),
            ("index.tracklets", "count", Higher),
            ("index.sidecar_bytes", "B", Lower),
            ("index.load_ms", "ms", Lower),
            ("index.hnsw_build_us_per_vec", "us", Lower),
            ("index.hnsw_topk10_us", "us", Lower),
            ("index.answer_us.s1", "us", Lower),
            ("index.answer_us.s2", "us", Lower),
            ("index.answer_us.s3", "us", Lower),
            ("index.rescan_us.s1", "us", Lower),
            ("index.rescan_us.s2", "us", Lower),
            ("index.rescan_us.s3", "us", Lower),
            ("index.recall_at_10", "ratio", Higher),
            ("admission.admit_settle_ns", "ns", Lower),
            ("admission.queue_wait_ms_per_req", "ms", Lower),
            ("admission.shed_share", "ratio", Lower),
            ("server.start_s", "s", Lower),
            ("server.service_p50_ms", "ms", Lower),
            ("server.service_p95_ms", "ms", Lower),
            ("server.wire_overhead_p50_ms", "ms", Lower),
            ("server.wire_overhead_p95_ms", "ms", Lower),
            ("server.response_tail_p50_ms", "ms", Lower),
            ("server.quick_ack_qps", "1/s", Higher),
            ("server.stats_rtt_us", "us", Lower),
            ("server.drain_ms", "ms", Lower),
            ("server.max_rate_qps", "1/s", Higher),
            ("loadgen.late_p95_ms", "ms", Lower),
            ("proc.cpu_s_per_pass", "s", Lower),
            ("proc.cpu_ms_per_req", "ms", Lower),
            ("obs.trace_overhead_share", "ratio", Lower),
        ]
        .into_iter()
        .map(|(n, u, b)| decl(n, u, b)),
    );
    out
}

/// Whether `name` fits the metric-name grammar `BENCHMARK.json` enforces:
/// starts with a letter or digit, then letters, digits, `_`, `.`, `-`, at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Median, quartiles and count of the samples behind a value.
    pub quartiles: BTreeMap<String, Quartiles>,
    /// Sizes, bases of ratios and residuals: printed, not gated.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty means correct.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(valid_name(name), "metric name {name:?} breaks the grammar");
        self.values.insert(name.to_string(), value);
    }

    /// Record a timing as the median of `samples`, keeping its quartiles
    /// (0 when there are none, so a missing layer prints as 0).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let q = stats::quartiles(samples);
        self.quartiles.extend(q.map(|q| (name.to_string(), q)));
        self.set(name, q.map_or(0.0, |q| q.median));
    }

    /// Take over what a side computation measured.
    pub fn absorb(&mut self, mut other: Outcome) {
        self.values.append(&mut other.values);
        self.quartiles.append(&mut other.quartiles);
        self.notes.append(&mut other.notes);
        self.problems.append(&mut other.problems);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_grammar_and_are_used_once() {
        let all: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(valid_name(&d.name), "{:?}", d.name);
            assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
    }

    #[test]
    fn the_grammar_rejects_what_the_driver_rejects() {
        for bad in ["", ".x", "-x", "a b", "a/b", "a:b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        for good in [
            "a",
            "9",
            "vdbms.exec_ms.reference.q2a",
            "a-b_c.D",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "rejected {good:?}");
        }
    }
}
