//! Cost-based optimization over the plan trees.
//!
//! PR 5's plan trees report *measured* per-stage cost, but the choices
//! that produce those plans — execution policy, worker fan-out,
//! cascade order — were hand-picked constants. This module closes the
//! loop: a [`CalibrationProfile`] holds per-unit costs (ns per decoded
//! pixel, ns per NN multiply-accumulate, thread-spawn overhead, ...)
//! calibrated from the metrics registry; an [`Optimizer`] enumerates
//! the candidate plans an engine could run for a query, scores each
//! with the profile, and picks the cheapest. Engines consult the
//! optimizer through [`crate::ExecContext::optimizer`]; when it is
//! absent they fall back to their hand-tuned defaults, so existing
//! behaviour is unchanged unless the optimizer is switched on.
//!
//! The model is deliberately analytic, not learned: every estimate is
//! `work x per-unit cost`, where work is derived from the query spec
//! and the advertised workload (frame count, resolution) and the
//! per-unit costs come from the profile. That keeps decisions
//! deterministic — the same profile and query always choose the same
//! plan — which `tests/optimizer.rs` and the snapshot tests rely on.
//!
//! Calibration lifecycle:
//!
//! 1. **Cold start**: [`CalibrationProfile::builtin`] seeds the table
//!    from measured per-stage figures (the `visualroad calibrate`
//!    probe on the CI host), so a fresh checkout makes reproducible
//!    choices.
//! 2. **Refresh**: `visualroad calibrate` runs probe queries, derives
//!    per-unit costs from the per-stage metrics, and persists the
//!    profile as deterministic flat JSON.
//! 3. **Feedback**: after each executed batch the driver calls
//!    [`Optimizer::feedback`] with the measured cost; an EWMA folds
//!    the measured/estimated ratio into the profile's `scale` and
//!    tracks `observed_error`, so EXPLAIN ANALYZE can report drift.
//!
//! A *stale* profile (calibrated on different hardware or an older
//! kernel set) does not break correctness — every candidate plan is a
//! valid execution — but it can mis-rank them.

use crate::plan::Policy;
use std::collections::BTreeMap;
use std::fmt;
use vr_base::json::{self, Fixed, Layout, Writer};
use vr_base::sync::Mutex;
use vr_vision::yolo::NETWORK_INPUT_PIXELS;

/// Profile format version; [`CalibrationProfile::parse`] rejects
/// anything else so schema drift fails fast in the CI guard stage.
pub const PROFILE_VERSION: u64 = 2;

/// Per-unit execution costs the optimizer scores candidate plans with.
///
/// All `*_ns_*` fields are nanoseconds per unit of work; the remaining
/// fields are dimensionless model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u64,
    /// Feedback samples folded into the profile so far.
    pub samples: u64,
    /// EWMA of `|estimated - measured| / measured` across feedback
    /// samples — the calibration-drift figure EXPLAIN ANALYZE reports.
    pub observed_error: f64,
    /// EWMA of `measured / estimated`: a global correction factor the
    /// feedback loop maintains so estimates track the current machine
    /// without re-deriving every coefficient.
    pub scale: f64,
    /// Decode cost per source pixel.
    pub decode_ns_per_pixel: f64,
    /// Encode cost per output pixel.
    pub encode_ns_per_pixel: f64,
    /// Frame-table / stream bookkeeping per frame scanned.
    pub scan_ns_per_frame: f64,
    /// Result sinking per frame (streaming mode).
    pub sink_ns_per_frame: f64,
    /// Light per-pixel kernel cost (row-copy crop, grayscale);
    /// heavier per-pixel kernels scale it via
    /// [`KernelClass::PerPixel`]'s `factor`.
    pub kernel_ns_per_pixel: f64,
    /// Frame-difference gate cost per pixel (cascade short-circuit).
    pub gate_ns_per_pixel: f64,
    /// NN inference cost per multiply-accumulate.
    pub nn_ns_per_mac: f64,
    /// Fraction of frames a difference gate keeps on the cheap path
    /// (temporally-coherent video; the paper's cascade premise).
    pub cascade_skip_rate: f64,
    /// Cost of spawning one worker thread (parallel break-even).
    pub thread_spawn_ns: f64,
    /// Marginal speedup per additional core: effective parallelism is
    /// `1 + (cores_used - 1) * parallel_efficiency`.
    pub parallel_efficiency: f64,
    /// Semantic-index probe cost per indexed vector in scope — models
    /// the whole in-memory answer (HNSW walk or record sweep) as a
    /// linear pass, which upper-bounds the sublinear graph search.
    pub index_probe_ns_per_vector: f64,
    /// Ingest-time index construction cost per vector (association +
    /// embedding + quantization + HNSW insert), used to amortize
    /// build-vs-rescan decisions and to sanity-bound bench results.
    pub index_build_ns_per_vector: f64,
}

/// What a serialized field's value must satisfy.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// A count: rendered as an integer, read back as a whole number.
    Whole,
    /// Any (finite) number.
    Any,
    /// A per-unit cost or factor: finite and above zero.
    Positive,
    /// A rate in `[0, 1)`.
    BelowOne,
    /// A share in `[0, 1]`.
    UpToOne,
}

impl Rule {
    /// What `v` must be, when it is not.
    fn broken_by(self, v: f64) -> Option<&'static str> {
        let (holds, wording) = match self {
            Rule::Whole => (v >= 0.0 && v.fract() == 0.0, "a whole number"),
            Rule::Any => (true, "a number"),
            Rule::Positive => (v > 0.0, "positive"),
            Rule::BelowOne => ((0.0..1.0).contains(&v), "in [0,1)"),
            Rule::UpToOne => ((0.0..=1.0).contains(&v), "in [0,1]"),
        };
        (!holds).then_some(wording)
    }
}

/// One serialized field of a [`CalibrationProfile`].
struct Field {
    name: &'static str,
    rule: Rule,
    get: fn(&CalibrationProfile) -> f64,
    set: fn(&mut CalibrationProfile, f64),
}

macro_rules! fields {
    ($($name:ident: $rule:ident,)*) => {
        [$(Field {
            name: stringify!($name),
            rule: Rule::$rule,
            get: |p| p.$name as f64,
            set: |p, v| p.$name = v as _,
        }),*]
    };
}

/// Every field a serialized profile carries, in serialization order:
/// the one table [`CalibrationProfile::to_json`] renders from and
/// [`CalibrationProfile::parse`] reads and validates against. A
/// profile with a field missing or a field not listed here was written
/// by a different schema and is stale by definition.
const FIELDS: [Field; 16] = fields! {
    version: Whole,
    samples: Whole,
    observed_error: Any,
    scale: Positive,
    decode_ns_per_pixel: Positive,
    encode_ns_per_pixel: Positive,
    scan_ns_per_frame: Any,
    sink_ns_per_frame: Any,
    kernel_ns_per_pixel: Positive,
    gate_ns_per_pixel: Positive,
    nn_ns_per_mac: Positive,
    cascade_skip_rate: BelowOne,
    thread_spawn_ns: Positive,
    parallel_efficiency: UpToOne,
    index_probe_ns_per_vector: Positive,
    index_build_ns_per_vector: Positive,
};

impl CalibrationProfile {
    /// The built-in seed table: per-unit costs derived from measured
    /// engine anchors (Q2(c) reference 109.6ms/12 frames at
    /// 120 MACs/pixel over the 416x416 network input, ...) and, for
    /// the codec's two per-pixel costs, from `visualroad calibrate` on
    /// the CI host (reference Q2(a) at 192x108: decode 3.5-4.0 ns/px,
    /// encode 11.2-13.0 ns/px; re-seed both whenever the codec's hot
    /// path changes). Cold runs use it directly so plan choices are
    /// reproducible on any machine.
    pub fn builtin() -> Self {
        Self {
            version: PROFILE_VERSION,
            samples: 0,
            observed_error: 0.0,
            scale: 1.0,
            decode_ns_per_pixel: 3.8,
            encode_ns_per_pixel: 12.5,
            scan_ns_per_frame: 2_000.0,
            sink_ns_per_frame: 2_000.0,
            kernel_ns_per_pixel: 1.6,
            gate_ns_per_pixel: 1.0,
            nn_ns_per_mac: 0.37,
            cascade_skip_rate: 0.6,
            thread_spawn_ns: 200_000.0,
            parallel_efficiency: 0.75,
            index_probe_ns_per_vector: 250.0,
            index_build_ns_per_vector: 40_000.0,
        }
    }

    /// Serialize as deterministic flat JSON: one field per line in
    /// [`FIELDS`] order, floats at fixed precision, so two identical
    /// profiles are byte-identical on disk.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::Block);
        for f in &FIELDS {
            let v = (f.get)(self);
            match f.rule {
                Rule::Whole => w.member(f.name, v as u64),
                _ => w.member(f.name, Fixed(v, 6)),
            };
        }
        w.end();
        w.finish()
    }

    /// Parse a flat JSON profile. Strict: every [`FIELDS`] entry must
    /// be present exactly once, no unknown fields, numeric values
    /// only, each within its [`Rule`], version must match — so a
    /// corrupt or stale checked-in profile fails in the CI guard stage
    /// instead of silently steering plan choices.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("calibration profile: {e}"))?;
        let map = doc.as_object().ok_or("calibration profile: not a JSON object")?;
        if let Some(k) = map.keys().find(|k| !FIELDS.iter().any(|f| f.name == *k)) {
            return Err(format!("calibration profile: unknown field `{k}` (stale schema?)"));
        }
        let mut p = Self::builtin();
        for f in &FIELDS {
            let v = map
                .get(f.name)
                .ok_or_else(|| format!("calibration profile: missing field `{}`", f.name))?
                .as_f64()
                .ok_or_else(|| format!("calibration profile: non-numeric value for `{}`", f.name))?;
            if let Some(wording) = f.rule.broken_by(v) {
                return Err(format!("calibration profile: `{}` must be {wording}, got {v}", f.name));
            }
            (f.set)(&mut p, v);
        }
        if p.version != PROFILE_VERSION {
            return Err(format!(
                "calibration profile: version {} != supported {PROFILE_VERSION}",
                p.version
            ));
        }
        Ok(p)
    }

    /// Read and parse a profile file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("calibration profile {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Optimizer switch, surfaced on the CLI as `--optimizer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerMode {
    /// Hand-tuned defaults (existing behaviour).
    #[default]
    Off,
    /// Cost-based plan selection.
    On,
    /// Cost-based selection plus a printed decision table per query.
    Explain,
}

impl OptimizerMode {
    /// Whether cost-based selection is active at all.
    pub fn enabled(&self) -> bool {
        *self != OptimizerMode::Off
    }
}

impl std::str::FromStr for OptimizerMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(OptimizerMode::Off),
            "on" => Ok(OptimizerMode::On),
            "explain" => Ok(OptimizerMode::Explain),
            other => Err(format!("--optimizer must be on|off|explain, got `{other}`")),
        }
    }
}

/// The workload the optimizer sizes estimates against: the dataset's
/// per-input shape, known before any frame is decoded. Using the
/// advertised shape (rather than sniffing actual inputs) keeps
/// decisions deterministic and lets EXPLAIN choose plans without
/// touching data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Input frame width in pixels.
    pub width: u32,
    /// Input frame height in pixels.
    pub height: u32,
    /// Frames per input.
    pub frames: u64,
}

impl Workload {
    /// Pixels per input frame.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

impl Default for Workload {
    fn default() -> Self {
        Self { width: 192, height: 108, frames: 30 }
    }
}

/// What kind of work a query's kernel does per frame — the part of the
/// cost formula that differs between queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelClass {
    /// A per-pixel image kernel over the output pixels; `factor`
    /// scales the calibrated light-kernel cost (the batch engine's
    /// float resample path is ~3x a row-copy crop).
    PerPixel {
        /// Multiplier on [`CalibrationProfile::kernel_ns_per_pixel`].
        factor: f64,
    },
    /// An NN detector. The full model runs `macs_per_pixel` (plus
    /// `framework_macs_per_pixel` of data-layout/framework overhead)
    /// over at least the network input resolution; when a cascade
    /// order is a candidate, `cheap_macs_per_pixel` is the specialized
    /// model that runs on every frame while the full model only sees
    /// escalated frames.
    Nn {
        /// Full-model MACs per network-input pixel.
        macs_per_pixel: f64,
        /// Framework overhead MACs per pixel (0 when the engine calls
        /// the detector directly).
        framework_macs_per_pixel: f64,
        /// Specialized cheap-model MACs per pixel for the cascade
        /// order.
        cheap_macs_per_pixel: f64,
    },
}

/// Per-query work figures an engine hands the optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWork {
    /// Frames flowing through the plan.
    pub frames: u64,
    /// Pixels per input frame.
    pub in_pixels: u64,
    /// Pixels per output frame (crop output, downsample output, ...).
    pub out_pixels: u64,
    /// Kernel shape.
    pub kernel: KernelClass,
    /// Indexed vectors in scope for an [`Policy::IndexScan`] candidate
    /// (0 when no side index covers the query — pixel queries and
    /// engines without an ingested dataset).
    pub vectors: u64,
}

/// The candidate plans an engine is able to execute for a query.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpace {
    /// Executable policies. [`Policy::ShortCircuit`] is only listed
    /// when the engine has a cascade order for the query.
    pub policies: Vec<Policy>,
    /// Largest eager fan-out the engine may use (its worker budget
    /// clamped by the context); non-eager policies always run one
    /// plan-level worker.
    pub max_fanout: usize,
}

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// Execution policy.
    pub policy: Policy,
    /// Eager kernel fan-out (1 for non-eager policies).
    pub workers: usize,
    /// Estimated cost in nanoseconds (profile `scale` applied).
    pub est_nanos: u64,
    /// Estimate before the feedback scale — what feedback divides the
    /// measurement by to update `scale`.
    pub raw_est_nanos: u64,
}

impl PlanChoice {
    /// Short label for decision tables and bench plan records.
    pub fn label(&self) -> String {
        format!("{} workers={}", self.policy.label(), self.workers)
    }
}

/// A cached decision: the winner plus every rejected candidate, kept
/// for the EXPLAIN `plans considered` section.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// Decision key (`engine/query`).
    pub key: String,
    /// The cheapest candidate.
    pub chosen: PlanChoice,
    /// The remaining candidates, cheapest first.
    pub rejected: Vec<PlanChoice>,
}

impl PlanDecision {
    /// Render the chosen-vs-rejected table appended to EXPLAIN output.
    pub fn render_text(&self) -> String {
        let mut out = String::from("plans considered (cost-based optimizer):\n");
        let chosen_est = self.chosen.est_nanos.max(1) as f64;
        let mut row = |marker: &str, c: &PlanChoice, tail: String| {
            out.push_str(&format!(
                "{marker}{:<26} est {:>9}  {tail}\n",
                c.label(),
                fmt_cost(c.est_nanos)
            ));
        };
        row("  -> ", &self.chosen, "chosen".to_string());
        for c in &self.rejected {
            let over = (c.est_nanos as f64 / chosen_est - 1.0) * 100.0;
            row("     ", c, format!("rejected (+{over:.1}%)"));
        }
        out
    }
}

/// Render a nanosecond cost in the unit that keeps 2-decimal
/// precision readable (ns/us/ms) — shared with the driver's
/// EXPLAIN ANALYZE estimate-vs-measured line.
pub fn fmt_cost(nanos: u64) -> String {
    if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// The cost-based optimizer: scores candidate plans against a
/// calibration profile and caches one decision per `engine/query` key,
/// so `plan()` (EXPLAIN) and `execute()` are guaranteed to agree
/// within a run.
pub struct Optimizer {
    profile: Mutex<CalibrationProfile>,
    workload: Workload,
    cores: usize,
    decisions: Mutex<BTreeMap<String, PlanDecision>>,
    /// Per-key (estimated, measured) from the last feedback call.
    observed: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Optimizer")
            .field("workload", &self.workload)
            .field("cores", &self.cores)
            .field("decisions", &self.decisions.lock().len())
            .finish()
    }
}

impl Optimizer {
    /// Create an optimizer over a profile. Physical parallelism is
    /// read from the machine (not `VR_WORKERS`): a worker budget above
    /// the core count cannot speed a compute-bound kernel up, and the
    /// single-core regression this model exists to fix (batch Q1
    /// slower at four workers than at one) is exactly that case.
    pub fn new(profile: CalibrationProfile) -> Self {
        Self {
            profile: Mutex::new(profile),
            workload: Workload::default(),
            cores: vr_base::sync::hardware_parallelism(),
            decisions: Mutex::new(BTreeMap::new()),
            observed: Mutex::new(BTreeMap::new()),
        }
    }

    /// Set the workload estimates are sized against.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Override the detected core count (tests pin both sides of the
    /// parallel break-even with this).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// The workload engines should derive [`QueryWork`] from.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Snapshot of the current profile (feedback mutates it).
    pub fn profile(&self) -> CalibrationProfile {
        self.profile.lock().clone()
    }

    /// Score every candidate and return the cheapest; cached per key,
    /// so repeated calls (plan, then execute, per instance) return the
    /// identical choice.
    pub fn decide(&self, key: &str, work: QueryWork, space: &CandidateSpace) -> PlanChoice {
        if let Some(d) = self.decisions.lock().get(key) {
            return d.chosen;
        }
        let p = self.profile.lock().clone();
        let mut candidates: Vec<PlanChoice> = Vec::new();
        for &policy in &space.policies {
            let fanouts: Vec<usize> = match policy {
                Policy::Eager => fanouts(space.max_fanout),
                _ => vec![1],
            };
            for w in fanouts {
                let raw = self.raw_cost(&p, &work, policy, w);
                candidates.push(PlanChoice {
                    policy,
                    workers: w,
                    est_nanos: (raw * p.scale).round() as u64,
                    raw_est_nanos: raw.round() as u64,
                });
            }
        }
        debug_assert!(!candidates.is_empty(), "empty candidate space for {key}");
        // Cheapest wins; ties break toward fewer workers so equal-cost
        // plans never spawn threads for nothing.
        candidates.sort_by(|a, b| {
            a.est_nanos.cmp(&b.est_nanos).then(a.workers.cmp(&b.workers))
        });
        let chosen = candidates[0];
        let decision = PlanDecision {
            key: key.to_string(),
            chosen,
            rejected: candidates[1..].to_vec(),
        };
        self.decisions.lock().insert(key.to_string(), decision);
        chosen
    }

    /// The cached decision for a key, if one was made.
    pub fn decision(&self, key: &str) -> Option<PlanDecision> {
        self.decisions.lock().get(key).cloned()
    }

    /// Every decision made so far, in key order.
    pub fn decisions(&self) -> Vec<PlanDecision> {
        self.decisions.lock().values().cloned().collect()
    }

    /// Fold a measured per-instance cost back into the profile: EWMA
    /// the measured/estimated ratio into `scale` and the relative
    /// error into `observed_error`. Called by the driver after each
    /// batch; a key without a decision is ignored.
    pub fn feedback(&self, key: &str, measured_nanos: u64) {
        if measured_nanos == 0 {
            return;
        }
        let Some(d) = self.decision(key) else { return };
        let mut p = self.profile.lock();
        let est = d.chosen.est_nanos.max(1) as f64;
        let err = (measured_nanos as f64 - est).abs() / measured_nanos as f64;
        let ratio = measured_nanos as f64 / d.chosen.raw_est_nanos.max(1) as f64;
        if p.samples == 0 {
            p.observed_error = err;
            p.scale = ratio;
        } else {
            p.observed_error = 0.7 * p.observed_error + 0.3 * err;
            p.scale = 0.7 * p.scale + 0.3 * ratio;
        }
        p.samples += 1;
        self.observed.lock().insert(key.to_string(), (d.chosen.est_nanos, measured_nanos));
    }

    /// (estimated, measured) nanoseconds from the last feedback for a
    /// key — the figures behind EXPLAIN ANALYZE's error line.
    pub fn observed(&self, key: &str) -> Option<(u64, u64)> {
        self.observed.lock().get(key).copied()
    }

    /// Cost-based fan-out for the driver's instance scheduler:
    /// dispatching instances across threads only pays when physical
    /// cores exist and the per-instance work amortizes a spawn.
    pub fn batch_fanout(&self, budget: usize, instances: usize, est_instance_nanos: u64) -> usize {
        if self.cores <= 1 {
            return 1;
        }
        let spawn = self.profile.lock().thread_spawn_ns;
        if (est_instance_nanos as f64) < spawn * 4.0 {
            return 1;
        }
        budget.clamp(1, instances.max(1))
    }

    /// Estimate one candidate before the feedback scale. Every stage
    /// is `work x per-unit cost`; the eager policy divides kernel work
    /// by effective parallelism and pays spawn overhead per worker.
    fn raw_cost(
        &self,
        p: &CalibrationProfile,
        work: &QueryWork,
        policy: Policy,
        workers: usize,
    ) -> f64 {
        // An index probe never touches pixels: its cost is the linear
        // record sweep (or HNSW walk, which it upper-bounds) alone.
        if policy == Policy::IndexScan {
            return work.vectors.max(1) as f64 * p.index_probe_ns_per_vector;
        }
        let frames = work.frames as f64;
        let in_px = work.in_pixels as f64;
        let out_px = work.out_pixels as f64;
        let per_frame_fixed = in_px * p.decode_ns_per_pixel
            + out_px * p.encode_ns_per_pixel
            + p.scan_ns_per_frame
            + p.sink_ns_per_frame;
        // Detectors letterbox up to the network input; cost floors
        // there (vr_vision::yolo::NETWORK_INPUT_PIXELS).
        let net_px = work.in_pixels.max(NETWORK_INPUT_PIXELS as u64) as f64;
        let kernel_frame = match work.kernel {
            KernelClass::PerPixel { factor } => out_px * p.kernel_ns_per_pixel * factor,
            KernelClass::Nn {
                macs_per_pixel,
                framework_macs_per_pixel,
                cheap_macs_per_pixel,
            } => {
                let full =
                    net_px * (macs_per_pixel + framework_macs_per_pixel) * p.nn_ns_per_mac;
                if policy == Policy::ShortCircuit {
                    in_px * p.gate_ns_per_pixel
                        + net_px * cheap_macs_per_pixel * p.nn_ns_per_mac
                        + (1.0 - p.cascade_skip_rate) * full
                } else {
                    full
                }
            }
        };
        let used = workers.min(self.cores).max(1) as f64;
        let eff = 1.0 + (used - 1.0) * p.parallel_efficiency;
        let (kernel_total, overhead) = if policy == Policy::Eager && workers > 1 {
            (frames * kernel_frame / eff, workers as f64 * p.thread_spawn_ns)
        } else {
            (frames * kernel_frame, 0.0)
        };
        frames * per_frame_fixed + kernel_total + overhead
    }
}

/// Eager fan-out candidates: powers of two up to the budget, plus the
/// budget itself (so `--workers 6` still considers 6).
fn fanouts(max_fanout: usize) -> Vec<usize> {
    let max = max_fanout.max(1);
    let mut v = vec![1];
    let mut w = 2;
    while w < max {
        v.push(w);
        w *= 2;
    }
    if max > 1 {
        v.push(max);
    }
    v
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn q1_work() -> QueryWork {
        QueryWork {
            frames: 48,
            in_pixels: 256 * 144,
            out_pixels: 192 * 112,
            kernel: KernelClass::PerPixel { factor: 3.0 },
            vectors: 0,
        }
    }

    fn q2c_work() -> QueryWork {
        QueryWork {
            frames: 12,
            in_pixels: 256 * 144,
            out_pixels: 256 * 144,
            kernel: KernelClass::Nn {
                macs_per_pixel: 120.0,
                framework_macs_per_pixel: 360.0,
                cheap_macs_per_pixel: 4.0,
            },
            vectors: 0,
        }
    }

    fn eager_space(max: usize) -> CandidateSpace {
        CandidateSpace { policies: vec![Policy::Eager], max_fanout: max }
    }

    #[test]
    fn profile_parse_rejects_corruption() {
        let good = CalibrationProfile::builtin().to_json();
        let rejects = |text: &str, why: &str| {
            let err = CalibrationProfile::parse(text).unwrap_err();
            assert!(err.contains(why), "{text:?}: expected {why:?} in {err:?}");
        };
        rejects("not json", "calibration profile");
        rejects("[]", "not a JSON object");
        rejects(&good.replace("12.500000", "\"fast\""), "non-numeric");
        rejects(&good.replace("nn_ns_per_mac", "nn_ns_per_flop"), "unknown field");
        rejects(&good.replace("  \"scale\": 1.000000,\n", ""), "missing field `scale`");
        rejects(&good.replace("{\n", "{\n  \"scale\": 1.0,\n"), "duplicate key");
        rejects(&good.replace("\"version\": 2", "\"version\": 9"), "version");
        rejects(&good.replace("\"version\": 2", "\"version\": 2.5"), "whole number");
        rejects(&good.replace("\"scale\": 1.0", "\"scale\": -1.0"), "`scale` must be positive");
        rejects(&good.replace("0.600000", "1.000000"), "`cascade_skip_rate` must be in [0,1)");
        rejects(&good.replace("0.750000", "1.500000"), "`parallel_efficiency` must be in [0,1]");
        // A truncated file (corrupt checked-in artifact) fails fast.
        rejects(&good[..good.len() / 2], "calibration profile");
    }

    #[test]
    fn plan_choice_is_deterministic_for_a_given_profile() {
        let mk = || {
            Optimizer::new(CalibrationProfile::builtin())
                .with_cores(4)
                .with_workload(Workload { width: 256, height: 144, frames: 48 })
        };
        let a = mk();
        let b = mk();
        let space = CandidateSpace {
            policies: vec![Policy::Streaming, Policy::ShortCircuit],
            max_fanout: 4,
        };
        let ca = a.decide("batch/Q2(c)", q2c_work(), &space);
        let cb = b.decide("batch/Q2(c)", q2c_work(), &space);
        assert_eq!(ca, cb, "same profile + query must choose the same plan");
        // Repeated asks hit the cache and stay identical.
        assert_eq!(ca, a.decide("batch/Q2(c)", q2c_work(), &space));
        assert_eq!(a.decision("batch/Q2(c)"), b.decision("batch/Q2(c)"));
    }

    #[test]
    fn single_core_chooses_sequential_fanout() {
        let opt = Optimizer::new(CalibrationProfile::builtin())
            .with_cores(1)
            .with_workload(Workload { width: 256, height: 144, frames: 48 });
        let c = opt.decide("batch/Q1", q1_work(), &eager_space(4));
        assert_eq!(c.policy, Policy::Eager);
        assert_eq!(
            c.workers, 1,
            "one core: fan-out gains nothing and pays spawn overhead"
        );
    }

    #[test]
    fn multi_core_fans_out_when_kernel_work_amortizes_spawns() {
        let opt = Optimizer::new(CalibrationProfile::builtin())
            .with_cores(4)
            .with_workload(Workload { width: 256, height: 144, frames: 48 });
        let c = opt.decide("batch/Q1", q1_work(), &eager_space(4));
        assert!(c.workers > 1, "4 cores and 48 heavy frames should fan out");
        // But a tiny workload stays sequential: below the break-even
        // the spawn overhead dominates.
        let tiny = QueryWork {
            frames: 2,
            in_pixels: 32 * 32,
            out_pixels: 32 * 32,
            kernel: KernelClass::PerPixel { factor: 1.0 },
            vectors: 0,
        };
        let t = opt.decide("batch/tiny", tiny, &eager_space(4));
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn q2c_batch_prefers_cascade_order() {
        let opt = Optimizer::new(CalibrationProfile::builtin()).with_cores(1);
        let space = CandidateSpace {
            policies: vec![Policy::Streaming, Policy::ShortCircuit],
            max_fanout: 1,
        };
        let c = opt.decide("batch/Q2(c)", q2c_work(), &space);
        assert_eq!(
            c.policy,
            Policy::ShortCircuit,
            "gate + cheap model + escalations beat full NN on every frame"
        );
    }

    #[test]
    fn rejected_plans_render_snapshot() {
        // A hand-made profile with round numbers so the rendered costs
        // are stable against builtin-table recalibration.
        let profile = CalibrationProfile {
            decode_ns_per_pixel: 10.0,
            encode_ns_per_pixel: 20.0,
            scan_ns_per_frame: 1_000.0,
            sink_ns_per_frame: 1_000.0,
            kernel_ns_per_pixel: 2.0,
            gate_ns_per_pixel: 1.0,
            nn_ns_per_mac: 0.5,
            cascade_skip_rate: 0.5,
            thread_spawn_ns: 100_000.0,
            parallel_efficiency: 0.5,
            ..CalibrationProfile::builtin()
        };
        let opt = Optimizer::new(profile)
            .with_cores(2)
            .with_workload(Workload { width: 100, height: 100, frames: 10 });
        let work = QueryWork {
            frames: 10,
            in_pixels: 10_000,
            out_pixels: 10_000,
            kernel: KernelClass::PerPixel { factor: 1.0 },
            vectors: 0,
        };
        opt.decide("batch/Q1", work, &eager_space(2));
        let d = opt.decision("batch/Q1").unwrap();
        let expected = concat!(
            "plans considered (cost-based optimizer):\n",
            "  -> eager workers=1            est    3.22ms  chosen\n",
            "     eager workers=2            est    3.35ms  rejected (+4.1%)\n",
        );
        assert_eq!(d.render_text(), expected);
    }

    #[test]
    fn feedback_tracks_scale_and_observed_error() {
        let opt = Optimizer::new(CalibrationProfile::builtin()).with_cores(1);
        let c = opt.decide("batch/Q1", q1_work(), &eager_space(1));
        // Measured exactly double the estimate: scale converges toward
        // 2, error toward 0.5.
        opt.feedback("batch/Q1", c.est_nanos * 2);
        let p = opt.profile();
        assert_eq!(p.samples, 1);
        assert!((p.scale - 2.0).abs() < 0.05, "scale={}", p.scale);
        assert!((p.observed_error - 0.5).abs() < 0.05, "err={}", p.observed_error);
        assert_eq!(opt.observed("batch/Q1"), Some((c.est_nanos, c.est_nanos * 2)));
        // A key without a decision is ignored.
        opt.feedback("nope/Q9", 123);
        assert_eq!(opt.profile().samples, 1);
    }

    #[test]
    fn batch_fanout_respects_cores_and_break_even() {
        let opt = Optimizer::new(CalibrationProfile::builtin()).with_cores(1);
        assert_eq!(opt.batch_fanout(8, 4, u64::MAX), 1, "single core never fans out");
        let opt = Optimizer::new(CalibrationProfile::builtin()).with_cores(8);
        assert_eq!(opt.batch_fanout(8, 4, u64::MAX), 4, "clamped to instance count");
        assert_eq!(opt.batch_fanout(8, 4, 1_000), 1, "tiny instances stay sequential");
    }

    #[test]
    fn semantic_queries_pick_index_over_rescan_when_indexed() {
        let opt = Optimizer::new(CalibrationProfile::builtin()).with_cores(4);
        let space = CandidateSpace {
            policies: vec![Policy::IndexScan, Policy::Streaming],
            max_fanout: 1,
        };
        // A covered semantic query: a few hundred indexed vectors vs a
        // full NN rescan over every frame.
        let covered = QueryWork { vectors: 400, ..q2c_work() };
        let c = opt.decide("semantic/topk", covered, &space);
        assert_eq!(c.policy, Policy::IndexScan);
        // The margin is the whole point: the probe must estimate orders
        // of magnitude below the rescan.
        let d = opt.decision("semantic/topk").unwrap();
        assert!(d.rejected[0].est_nanos > c.est_nanos * 100);
        // The decision table renders both candidates for EXPLAIN.
        let text = d.render_text();
        assert!(text.contains("index-scan"), "{text}");
        assert!(text.contains("rejected"), "{text}");
    }

    #[test]
    fn fanout_candidates_are_powers_of_two_plus_budget() {
        assert_eq!(fanouts(1), vec![1]);
        assert_eq!(fanouts(4), vec![1, 2, 4]);
        assert_eq!(fanouts(6), vec![1, 2, 4, 6]);
    }
}
