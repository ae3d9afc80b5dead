//! Deterministic fault injection.
//!
//! The Visual City Driver is a *robustness* harness: it must keep
//! driving a batch when a stream corrupts, a disk hiccups, or a kernel
//! stalls, and it must report the degradation quantitatively rather
//! than pass/fail (§3.2's online mode tolerates engines that fall
//! behind; §4 validates degraded output by PSNR). To prove those
//! recovery paths in CI this module provides a **seeded, deterministic
//! fault injector**: one [`FaultPlan`] parsed from a `VR_FAULTS` spec,
//! one [`FaultInjector`] whose every decision is a pure function of
//! `(seed, site, decision-index)`, and a process-global install point
//! the storage readers, demuxer, decoder, and pipeline stages consult.
//!
//! # Spec grammar (`VR_FAULTS`)
//!
//! Comma-separated `key=value` entries:
//!
//! ```text
//! corrupt_bitstream=0.01        # P(corrupt a sample payload)
//! drop_rtp=0.05                 # P(drop an RTP packet at ingest)
//! stall_stage=kernel:20ms       # sleep once per pipeline run, at stage entry
//! io_fail=read:0.02             # P(transient storage read failure)
//! io_fail=write:0.02            # P(transient storage write failure)
//! panic_kernel=q4:frame37       # panic in the kernel of query q4 at frame 37
//! ```
//!
//! The seed comes from `VR_FAULT_SEED` (default 0). Decisions are made
//! by hashing a per-site decision counter with [`mix64`], so a plan
//! replays identically across runs; under a multi-threaded schedule
//! the *set* of decisions per site is identical even when the mapping
//! to specific samples varies.
//!
//! # Accounting
//!
//! Each injection increments a per-kind counter on the injector
//! ([`FaultInjector::injected`]); each *recovery* increments a global
//! [`Degradation`] counter (concealed frames, skipped samples/packets,
//! retries, contained panics). [`accounting_mismatches`] checks the two
//! sides against each other — e.g. every corrupted sample must show up
//! as a CRC-skipped sample, every injected panic as a contained one.

use crate::rng::{mix64, VrRng};
use crate::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Which storage operation an `io_fail` applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Read,
    Write,
}

/// A parsed `VR_FAULTS` schedule. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability of corrupting a demuxed sample payload.
    pub corrupt_bitstream: f64,
    /// Probability of dropping an RTP packet at online ingest.
    pub drop_rtp: f64,
    /// Stall `(stage label, duration)` once per pipeline run at the
    /// named stage's entry.
    pub stall_stage: Option<(String, Duration)>,
    /// Probability of a transient storage read failure.
    pub io_fail_read: f64,
    /// Probability of a transient storage write failure.
    pub io_fail_write: f64,
    /// Panic in the kernel stage of `(query label, frame index)`.
    pub panic_kernel: Option<(String, u64)>,
}

fn parse_prob(key: &str, v: &str) -> Result<f64> {
    let p: f64 = v
        .parse()
        .map_err(|_| Error::InvalidConfig(format!("{key}: bad probability {v:?}")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::InvalidConfig(format!("{key}: probability {p} outside [0, 1]")));
    }
    Ok(p)
}

impl FaultPlan {
    /// Parse a `VR_FAULTS` spec string (see the module docs for the
    /// grammar). An empty spec yields the empty plan.
    pub fn parse(spec: &str) -> Result<Self> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| Error::InvalidConfig(format!("fault entry {entry:?} has no '='")))?;
            match key {
                "corrupt_bitstream" => plan.corrupt_bitstream = parse_prob(key, value)?,
                "drop_rtp" => plan.drop_rtp = parse_prob(key, value)?,
                "io_fail" => {
                    let (op, p) = value.split_once(':').ok_or_else(|| {
                        Error::InvalidConfig(format!("io_fail wants read:<p> or write:<p>, got {value:?}"))
                    })?;
                    let p = parse_prob(key, p)?;
                    match op {
                        "read" => plan.io_fail_read = p,
                        "write" => plan.io_fail_write = p,
                        other => {
                            return Err(Error::InvalidConfig(format!(
                                "io_fail op must be read or write, got {other:?}"
                            )))
                        }
                    }
                }
                "stall_stage" => {
                    let (stage, dur) = value.split_once(':').ok_or_else(|| {
                        Error::InvalidConfig(format!("stall_stage wants <stage>:<N>ms, got {value:?}"))
                    })?;
                    let ms = dur
                        .strip_suffix("ms")
                        .and_then(|n| n.parse::<u64>().ok())
                        .ok_or_else(|| {
                            Error::InvalidConfig(format!("stall_stage duration {dur:?} is not <N>ms"))
                        })?;
                    plan.stall_stage = Some((stage.to_ascii_lowercase(), Duration::from_millis(ms)));
                }
                "panic_kernel" => {
                    let (query, frame) = value.split_once(':').ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "panic_kernel wants <query>:frame<N>, got {value:?}"
                        ))
                    })?;
                    let frame = frame
                        .strip_prefix("frame")
                        .and_then(|n| n.parse::<u64>().ok())
                        .ok_or_else(|| {
                            Error::InvalidConfig(format!("panic_kernel frame {frame:?} is not frame<N>"))
                        })?;
                    plan.panic_kernel = Some((query.to_ascii_lowercase(), frame));
                }
                other => {
                    return Err(Error::InvalidConfig(format!("unknown fault kind {other:?}")))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

/// Injected-fault counts, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub corrupt_bitstream: u64,
    pub drop_rtp: u64,
    pub stalls: u64,
    pub io_fail_read: u64,
    pub io_fail_write: u64,
    pub kernel_panics: u64,
}

/// Decision-site indices (each site draws from an independent,
/// seeded decision stream).
const SITE_CORRUPT: usize = 0;
const SITE_DROP_RTP: usize = 1;
const SITE_IO_READ: usize = 2;
const SITE_IO_WRITE: usize = 3;
const SITE_COUNT: usize = 4;

/// Salt mixed with the seed per decision site, so sites with the same
/// probability still draw distinct streams.
const SITE_SALT: [u64; SITE_COUNT] = [0xC0DE_0001, 0xC0DE_0002, 0xC0DE_0003, 0xC0DE_0004];

/// A seeded, deterministic fault injector bound to one [`FaultPlan`].
///
/// Every decision is a pure function of `(seed, site, n)` where `n` is
/// that site's decision counter — no wall clock, no OS entropy — so a
/// failing chaos run replays exactly from its `VR_FAULT_SEED`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    sites: [AtomicU64; SITE_COUNT],
    injected: [AtomicU64; 6],
}

impl FaultInjector {
    /// Build an injector from a plan and seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            seed,
            sites: Default::default(),
            injected: Default::default(),
        }
    }

    /// Parse `spec` and build an injector.
    pub fn from_spec(spec: &str, seed: u64) -> Result<Self> {
        Ok(Self::new(FaultPlan::parse(spec)?, seed))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The deterministic seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the site's next decision: true with probability `p`.
    fn decide(&self, site: usize, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let n = self.sites[site].fetch_add(1, Ordering::Relaxed);
        let h = mix64(self.seed ^ SITE_SALT[site], n);
        ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Maybe corrupt a sample payload in place (a deterministic bit
    /// flip pattern derived from the decision index). Returns whether
    /// corruption was injected; a `true` always leaves `data` holding
    /// at least one flipped bit, so a CRC over the original payload is
    /// guaranteed to catch it.
    pub fn corrupt_sample(&self, data: &mut [u8]) -> bool {
        if data.is_empty() || suppressed() || !self.decide(SITE_CORRUPT, self.plan.corrupt_bitstream)
        {
            return false;
        }
        let n = self.injected[0].fetch_add(1, Ordering::Relaxed);
        let mut rng = VrRng::seed_from(mix64(self.seed ^ 0xBAD_B175, n));
        // Flip 1–4 bytes at random positions; XOR with a nonzero mask
        // keeps every flip observable.
        for _ in 0..rng.range(1, 4) {
            let pos = rng.below(data.len() as u64) as usize;
            data[pos] ^= (rng.next_u32() as u8) | 0x01;
        }
        true
    }

    /// Whether to drop the next RTP packet at ingest.
    pub fn drop_rtp_packet(&self) -> bool {
        if suppressed() || !self.decide(SITE_DROP_RTP, self.plan.drop_rtp) {
            return false;
        }
        self.injected[1].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The stall to inject at entry of the named pipeline stage (fires
    /// once per call when the plan names the stage; callers invoke it
    /// once per pipeline run). The caller sleeps; the injector counts.
    pub fn stall(&self, stage: &str) -> Option<Duration> {
        if suppressed() {
            return None;
        }
        match &self.plan.stall_stage {
            Some((s, d)) if s == stage => {
                self.injected[2].fetch_add(1, Ordering::Relaxed);
                Some(*d)
            }
            _ => None,
        }
    }

    /// Maybe inject a transient I/O failure for `op`. Returns the
    /// error to surface (callers run under [`with_retry`], so an
    /// injected failure exercises the backoff path).
    pub fn io_fail(&self, op: IoOp) -> Option<Error> {
        let (site, p, slot) = match op {
            IoOp::Read => (SITE_IO_READ, self.plan.io_fail_read, 3),
            IoOp::Write => (SITE_IO_WRITE, self.plan.io_fail_write, 4),
        };
        if suppressed() || !self.decide(site, p) {
            return None;
        }
        self.injected[slot].fetch_add(1, Ordering::Relaxed);
        Some(Error::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected transient i/o fault",
        )))
    }

    /// Whether the kernel must panic now: the plan names this query
    /// label and frame index. The caller panics inside its containment
    /// scope; the injector counts the injection first.
    pub fn kernel_panic_due(&self, query_label: &str, frame: u64) -> bool {
        if suppressed() {
            return false;
        }
        match &self.plan.panic_kernel {
            Some((q, f)) if *f == frame && q.eq_ignore_ascii_case(query_label) => {
                self.injected[5].fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Injected-fault counts so far.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            corrupt_bitstream: self.injected[0].load(Ordering::Relaxed),
            drop_rtp: self.injected[1].load(Ordering::Relaxed),
            stalls: self.injected[2].load(Ordering::Relaxed),
            io_fail_read: self.injected[3].load(Ordering::Relaxed),
            io_fail_write: self.injected[4].load(Ordering::Relaxed),
            kernel_panics: self.injected[5].load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Global install point
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SUPPRESS: AtomicUsize = AtomicUsize::new(0);
static GLOBAL: RwLock<Option<Arc<FaultInjector>>> = RwLock::new(None);

/// Install (or clear, with `None`) the process-global injector every
/// fault hook consults.
pub fn install(injector: Option<Arc<FaultInjector>>) {
    let mut slot = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(injector.is_some(), Ordering::Release);
    *slot = injector;
}

/// The installed injector, if any. The inactive path is a single
/// atomic load, so fault hooks cost nothing when faults are off.
pub fn global() -> Option<Arc<FaultInjector>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Whether a global injector is installed (cheap).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Whether injection is currently suppressed (see [`suppress`]).
fn suppressed() -> bool {
    SUPPRESS.load(Ordering::Acquire) > 0
}

/// Run `f` with injection suppressed — the driver's validation pass
/// re-executes queries through a reference engine, and those runs must
/// be fault-free so the achieved-PSNR comparison has a clean baseline.
/// Nesting is fine; the flag is a depth counter.
pub fn suppress<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SUPPRESS.fetch_sub(1, Ordering::AcqRel);
        }
    }
    SUPPRESS.fetch_add(1, Ordering::AcqRel);
    let _g = Guard;
    f()
}

/// Build and install an injector from `VR_FAULTS` / `VR_FAULT_SEED`,
/// returning what was installed. A missing or empty `VR_FAULTS`
/// installs nothing; a malformed one is an error so a chaos run cannot
/// silently run with no chaos.
pub fn init_from_env() -> Result<Option<Arc<FaultInjector>>> {
    let Ok(spec) = std::env::var("VR_FAULTS") else {
        return Ok(None);
    };
    if spec.trim().is_empty() {
        return Ok(None);
    }
    let seed = match std::env::var("VR_FAULT_SEED") {
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map_err(|_| Error::InvalidConfig(format!("VR_FAULT_SEED {raw:?} is not a u64")))?,
        Err(_) => 0,
    };
    let injector = Arc::new(FaultInjector::from_spec(&spec, seed)?);
    install(Some(Arc::clone(&injector)));
    Ok(Some(injector))
}

// ---------------------------------------------------------------------------
// Degradation accounting (the recovery side)
// ---------------------------------------------------------------------------

/// Global recovery counters: what the system *did* about injected (or
/// real) faults. Snapshot/delta these per query batch.
///
/// The counters live in the process-global [`crate::obs::metrics`]
/// registry under `degradation.*`, so they appear in metrics exports
/// alongside the pipeline telemetry; this struct caches the handles so
/// the hot recovery paths stay one relaxed atomic add.
#[derive(Debug)]
struct Degradation {
    concealed_frames: Arc<crate::obs::metrics::Counter>,
    skipped_samples: Arc<crate::obs::metrics::Counter>,
    skipped_packets: Arc<crate::obs::metrics::Counter>,
    io_retries: Arc<crate::obs::metrics::Counter>,
    io_give_ups: Arc<crate::obs::metrics::Counter>,
    stage_panics: Arc<crate::obs::metrics::Counter>,
    stalls_absorbed: Arc<crate::obs::metrics::Counter>,
}

fn degradation() -> &'static Degradation {
    static DEGRADATION: std::sync::OnceLock<Degradation> = std::sync::OnceLock::new();
    DEGRADATION.get_or_init(|| {
        let c = crate::obs::metrics::counter;
        Degradation {
            concealed_frames: c("degradation.concealed_frames"),
            skipped_samples: c("degradation.skipped_samples"),
            skipped_packets: c("degradation.skipped_packets"),
            io_retries: c("degradation.io_retries"),
            io_give_ups: c("degradation.io_give_ups"),
            stage_panics: c("degradation.stage_panics"),
            stalls_absorbed: c("degradation.stalls_absorbed"),
        }
    })
}

/// A point-in-time copy of the recovery counters; subtract snapshots
/// to get a batch's delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationSnapshot {
    /// Frames replaced by last-good-frame (or black) concealment.
    pub concealed_frames: u64,
    /// Samples the demuxer skipped on CRC/length validation failure.
    pub skipped_samples: u64,
    /// RTP packets lost and skipped over by the depacketizer.
    pub skipped_packets: u64,
    /// Transient storage failures retried with backoff.
    pub io_retries: u64,
    /// Storage operations that exhausted their retry budget.
    pub io_give_ups: u64,
    /// Stage panics contained by a pipeline watchdog.
    pub stage_panics: u64,
    /// Injected stage stalls absorbed (slept through) by a stage.
    pub stalls_absorbed: u64,
}

impl DegradationSnapshot {
    /// Counters accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &DegradationSnapshot) -> DegradationSnapshot {
        DegradationSnapshot {
            concealed_frames: self.concealed_frames.saturating_sub(earlier.concealed_frames),
            skipped_samples: self.skipped_samples.saturating_sub(earlier.skipped_samples),
            skipped_packets: self.skipped_packets.saturating_sub(earlier.skipped_packets),
            io_retries: self.io_retries.saturating_sub(earlier.io_retries),
            io_give_ups: self.io_give_ups.saturating_sub(earlier.io_give_ups),
            stage_panics: self.stage_panics.saturating_sub(earlier.stage_panics),
            stalls_absorbed: self.stalls_absorbed.saturating_sub(earlier.stalls_absorbed),
        }
    }

    /// Whether any degradation was recorded.
    pub fn any(&self) -> bool {
        *self != DegradationSnapshot::default()
    }
}

/// Current recovery-counter totals.
pub fn degradation_snapshot() -> DegradationSnapshot {
    let d = degradation();
    DegradationSnapshot {
        concealed_frames: d.concealed_frames.get(),
        skipped_samples: d.skipped_samples.get(),
        skipped_packets: d.skipped_packets.get(),
        io_retries: d.io_retries.get(),
        io_give_ups: d.io_give_ups.get(),
        stage_panics: d.stage_panics.get(),
        stalls_absorbed: d.stalls_absorbed.get(),
    }
}

/// Cross-check what an injector says it injected against what the
/// recovery layers say they absorbed: one line per mismatch, none when
/// every injected fault shows up in its recovery counter. A mismatch
/// means a fault escaped its handler, or a handler counted twice.
pub fn accounting_mismatches(
    injected: &FaultCounts,
    recovered: &DegradationSnapshot,
) -> Vec<String> {
    let mut bad = Vec::new();
    if injected.corrupt_bitstream != recovered.skipped_samples {
        bad.push(format!(
            "corrupted samples {} != skipped samples {}",
            injected.corrupt_bitstream, recovered.skipped_samples
        ));
    }
    if recovered.concealed_frames < recovered.skipped_samples {
        bad.push(format!(
            "concealed frames {} < skipped samples {}",
            recovered.concealed_frames, recovered.skipped_samples
        ));
    }
    if injected.drop_rtp != recovered.skipped_packets {
        bad.push(format!(
            "dropped rtp packets {} != skipped packets {}",
            injected.drop_rtp, recovered.skipped_packets
        ));
    }
    let io_failures = injected.io_fail_read + injected.io_fail_write;
    if io_failures != recovered.io_retries + recovered.io_give_ups {
        bad.push(format!(
            "injected io failures {io_failures} != retries {} + give-ups {}",
            recovered.io_retries, recovered.io_give_ups
        ));
    }
    if injected.kernel_panics != recovered.stage_panics {
        bad.push(format!(
            "injected kernel panics {} != contained stage panics {}",
            injected.kernel_panics, recovered.stage_panics
        ));
    }
    if injected.stalls != recovered.stalls_absorbed {
        bad.push(format!(
            "injected stalls {} != absorbed stalls {}",
            injected.stalls, recovered.stalls_absorbed
        ));
    }
    bad
}

/// Record concealed frames.
pub fn note_concealed(n: u64) {
    degradation().concealed_frames.add(n);
}

/// Record demuxer-skipped samples.
pub fn note_skipped_sample() {
    degradation().skipped_samples.inc();
}

/// Record depacketizer-skipped packets.
pub fn note_skipped_packets(n: u64) {
    degradation().skipped_packets.add(n);
}

/// Record a contained stage panic.
pub fn note_stage_panic() {
    degradation().stage_panics.inc();
}

/// Record an absorbed stage stall.
pub fn note_stall_absorbed() {
    degradation().stalls_absorbed.inc();
}

// ---------------------------------------------------------------------------
// Bounded retry with deterministic backoff
// ---------------------------------------------------------------------------

/// Attempts (including the first) [`with_retry`] makes before giving
/// up on a transiently failing storage operation.
pub const RETRY_MAX_ATTEMPTS: u32 = 4;

/// Process-global backoff draw counter. Every backoff sleep consumes
/// one draw, so N threads retrying the *same* site at the *same*
/// attempt number pull N distinct jitter values instead of sleeping in
/// lockstep and re-colliding — the classic thundering herd. The
/// counter keeps the multiset of delays for a run a pure function of
/// `VR_FAULT_SEED` (like the injector's per-site decision streams, the
/// mapping of draws to threads may vary under a multi-threaded
/// schedule, but the values drawn do not).
static BACKOFF_DRAWS: AtomicU64 = AtomicU64::new(0);

/// Claim the next backoff draw index (see [`backoff_delay`]).
pub fn next_backoff_draw() -> u64 {
    BACKOFF_DRAWS.fetch_add(1, Ordering::Relaxed)
}

/// The backoff before retry number `attempt` (0-based): an exponential
/// base (0.5 ms doubling per attempt) plus seeded jitter in
/// `[0, base)` drawn from [`VrRng`] — deterministic for a given
/// `(seed, site, attempt, draw)`, so chaos runs replay their exact
/// schedule. `draw` is a per-sleep sequence number (normally from
/// [`next_backoff_draw`]) that decorrelates *concurrent* retries:
/// without it, every worker that hit the same transient at the same
/// attempt would back off by the same amount and stampede the resource
/// again in sync.
pub fn backoff_delay(seed: u64, site: u64, attempt: u32, draw: u64) -> Duration {
    let base_us = 500u64 << attempt.min(16);
    let mut rng = VrRng::seed_from(mix64(mix64(seed ^ site, attempt as u64), draw));
    Duration::from_micros(base_us + rng.below(base_us))
}

/// Whether an I/O error is plausibly transient (worth retrying).
/// Injected faults use `Interrupted`; permanent conditions (broken
/// pipe, permission denied, missing file) surface immediately so the
/// retry accounting stays attributable to actual transients.
fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// Run a storage operation with bounded retry-with-backoff. Transient
/// I/O failures are retried up to [`RETRY_MAX_ATTEMPTS`] total
/// attempts with [`backoff_delay`] sleeps between them; every retry is
/// recorded in the degradation counters, and exhausting the budget
/// records a give-up and surfaces the last error. Everything else
/// (not-found, corruption, broken pipe) propagates immediately —
/// retrying cannot help.
///
/// `site` names the call site (hashed into the jitter stream).
pub fn with_retry<T>(site: &str, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let seed = global().map(|inj| inj.seed()).unwrap_or(0);
    let site_hash = site.bytes().fold(0u64, |h, b| mix64(h, b as u64));
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e @ Error::Io(_)) => {
                let transient = matches!(&e, Error::Io(io) if is_transient(io.kind()));
                if !transient {
                    return Err(e);
                }
                if attempt + 1 >= RETRY_MAX_ATTEMPTS {
                    degradation().io_give_ups.inc();
                    return Err(e);
                }
                degradation().io_retries.inc();
                {
                    let _span = crate::obs::trace::span("fault", "retry_backoff");
                    std::thread::sleep(backoff_delay(
                        seed,
                        site_hash,
                        attempt,
                        next_backoff_draw(),
                    ));
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "corrupt_bitstream=0.01,drop_rtp=0.05,stall_stage=kernel:20ms,\
             io_fail=read:0.02,io_fail=write:0.5,panic_kernel=q4:frame37",
        )
        .unwrap();
        assert_eq!(plan.corrupt_bitstream, 0.01);
        assert_eq!(plan.drop_rtp, 0.05);
        assert_eq!(plan.stall_stage, Some(("kernel".into(), Duration::from_millis(20))));
        assert_eq!(plan.io_fail_read, 0.02);
        assert_eq!(plan.io_fail_write, 0.5);
        assert_eq!(plan.panic_kernel, Some(("q4".into(), 37)));
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "nonsense=1",
            "corrupt_bitstream=2.0",
            "corrupt_bitstream=x",
            "drop_rtp",
            "io_fail=0.5",
            "io_fail=delete:0.5",
            "stall_stage=kernel",
            "stall_stage=kernel:20s",
            "panic_kernel=q4",
            "panic_kernel=q4:37",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_replayable() {
        let plan = FaultPlan::parse("corrupt_bitstream=0.25").unwrap();
        let draw = |seed: u64| {
            let inj = FaultInjector::new(plan.clone(), seed);
            let mut data = vec![0u8; 64];
            (0..500).map(|_| inj.corrupt_sample(&mut data)).collect::<Vec<bool>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay identically");
        assert_ne!(draw(7), draw(8), "seeds must differ");
        let hits = draw(7).iter().filter(|&&b| b).count();
        assert!((50..200).contains(&hits), "~25% of 500 expected, got {hits}");
    }

    #[test]
    fn corruption_always_changes_the_payload() {
        let inj = FaultInjector::from_spec("corrupt_bitstream=1.0", 3).unwrap();
        for len in [1usize, 2, 7, 100] {
            let orig = vec![0xA5u8; len];
            let mut data = orig.clone();
            assert!(inj.corrupt_sample(&mut data));
            assert_ne!(data, orig, "len {len}: injected corruption must be observable");
        }
        assert_eq!(inj.injected().corrupt_bitstream, 4);
        // Empty payloads cannot be corrupted.
        assert!(!inj.corrupt_sample(&mut []));
    }

    #[test]
    fn io_fail_counts_per_op() {
        let inj = FaultInjector::from_spec("io_fail=read:1.0", 0).unwrap();
        assert!(inj.io_fail(IoOp::Read).is_some());
        assert!(inj.io_fail(IoOp::Write).is_none());
        assert_eq!(inj.injected().io_fail_read, 1);
        assert_eq!(inj.injected().io_fail_write, 0);
    }

    #[test]
    fn stall_matches_stage_label_only() {
        let inj = FaultInjector::from_spec("stall_stage=kernel:5ms", 0).unwrap();
        assert_eq!(inj.stall("kernel"), Some(Duration::from_millis(5)));
        assert_eq!(inj.stall("decode"), None);
        assert_eq!(inj.injected().stalls, 1);
    }

    #[test]
    fn kernel_panic_targets_query_and_frame() {
        let inj = FaultInjector::from_spec("panic_kernel=q4:frame3", 0).unwrap();
        assert!(!inj.kernel_panic_due("q1", 3));
        assert!(!inj.kernel_panic_due("q4", 2));
        assert!(inj.kernel_panic_due("Q4", 3), "label match is case-insensitive");
        assert_eq!(inj.injected().kernel_panics, 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        for attempt in 0..RETRY_MAX_ATTEMPTS {
            let a = backoff_delay(1, 2, attempt, 0);
            assert_eq!(a, backoff_delay(1, 2, attempt, 0), "jitter must be seeded");
            let base = Duration::from_micros(500u64 << attempt);
            assert!(a >= base && a < base * 2, "attempt {attempt}: {a:?}");
        }
        assert_ne!(
            backoff_delay(1, 2, 0, 0),
            backoff_delay(1, 3, 0, 0),
            "sites draw distinct jitter"
        );
    }

    #[test]
    fn backoff_draws_desynchronize_concurrent_retries() {
        // The thundering-herd fix: the same (seed, site, attempt) at
        // distinct draw indices must yield distinct delays, all still
        // inside the attempt's [base, 2*base) window.
        let delays: Vec<Duration> = (0..16).map(|draw| backoff_delay(9, 4, 1, draw)).collect();
        let base = Duration::from_micros(1000);
        for (draw, d) in delays.iter().enumerate() {
            assert!(*d >= base && *d < base * 2, "draw {draw}: {d:?} outside window");
        }
        let mut unique = delays.clone();
        unique.sort();
        unique.dedup();
        assert!(
            unique.len() > 12,
            "16 draws collapsed to {} distinct delays — herd not broken",
            unique.len()
        );
        // Replayable: the draw index fully determines the jitter.
        assert_eq!(backoff_delay(9, 4, 1, 7), backoff_delay(9, 4, 1, 7));
        // Seed changes move every draw.
        assert_ne!(backoff_delay(9, 4, 1, 7), backoff_delay(10, 4, 1, 7));
        // The global draw counter is strictly monotonic.
        let a = next_backoff_draw();
        let b = next_backoff_draw();
        assert!(b > a);
    }

    #[test]
    fn with_retry_retries_transients_and_gives_up() {
        let mut calls = 0;
        let out: Result<u32> = with_retry("test-ok", || {
            calls += 1;
            if calls < 3 {
                Err(Error::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "x")))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<u32> = with_retry("test-exhaust", || {
            calls += 1;
            Err(Error::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "x")))
        });
        assert!(out.is_err());
        assert_eq!(calls, RETRY_MAX_ATTEMPTS);

        // Non-transient errors pass straight through.
        let mut calls = 0;
        let out: Result<u32> = with_retry("test-hard", || {
            calls += 1;
            Err(Error::NotFound("gone".into()))
        });
        assert!(matches!(out, Err(Error::NotFound(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn suppress_disables_injection() {
        let inj = FaultInjector::from_spec("corrupt_bitstream=1.0,drop_rtp=1.0", 0).unwrap();
        suppress(|| {
            let mut data = vec![1u8; 8];
            assert!(!inj.corrupt_sample(&mut data));
            assert!(!inj.drop_rtp_packet());
            // Nesting keeps suppression on.
            suppress(|| assert!(!inj.drop_rtp_packet()));
            assert!(!inj.drop_rtp_packet());
        });
        assert!(inj.drop_rtp_packet(), "suppression must lift on exit");
    }

    #[test]
    fn degradation_snapshot_deltas() {
        let before = degradation_snapshot();
        note_concealed(3);
        note_skipped_sample();
        note_skipped_packets(2);
        note_stage_panic();
        note_stall_absorbed();
        let delta = degradation_snapshot().since(&before);
        assert_eq!(delta.concealed_frames, 3);
        assert_eq!(delta.skipped_samples, 1);
        assert_eq!(delta.skipped_packets, 2);
        assert_eq!(delta.stage_panics, 1);
        assert_eq!(delta.stalls_absorbed, 1);
        assert!(delta.any());
        assert!(!DegradationSnapshot::default().any());
    }

    #[test]
    fn accounting_reports_each_kind_of_mismatch() {
        let injected = FaultCounts {
            corrupt_bitstream: 3,
            drop_rtp: 2,
            stalls: 4,
            io_fail_read: 1,
            io_fail_write: 2,
            kernel_panics: 1,
        };
        let matched = DegradationSnapshot {
            concealed_frames: 5,
            skipped_samples: 3,
            skipped_packets: 2,
            io_retries: 2,
            io_give_ups: 1,
            stage_panics: 1,
            stalls_absorbed: 4,
        };
        assert!(accounting_mismatches(&injected, &matched).is_empty());
        // One broken side per case, and the line that names it.
        let cases: [(DegradationSnapshot, &str); 6] = [
            (
                DegradationSnapshot { skipped_samples: 2, ..matched },
                "corrupted samples 3 != skipped samples 2",
            ),
            (
                DegradationSnapshot { concealed_frames: 2, ..matched },
                "concealed frames 2 < skipped samples 3",
            ),
            (
                DegradationSnapshot { skipped_packets: 3, ..matched },
                "dropped rtp packets 2 != skipped packets 3",
            ),
            (
                DegradationSnapshot { io_give_ups: 0, ..matched },
                "injected io failures 3 != retries 2 + give-ups 0",
            ),
            (
                DegradationSnapshot { stage_panics: 0, ..matched },
                "injected kernel panics 1 != contained stage panics 0",
            ),
            (
                DegradationSnapshot { stalls_absorbed: 5, ..matched },
                "injected stalls 4 != absorbed stalls 5",
            ),
        ];
        for (recovered, line) in cases {
            assert_eq!(accounting_mismatches(&injected, &recovered), vec![line.to_string()]);
        }
    }

    #[test]
    fn env_init_rejects_malformed_spec() {
        // Do not touch the real environment of other tests: only the
        // error path of an explicit bad spec is checked here.
        assert!(FaultInjector::from_spec("corrupt_bitstream=nope", 0).is_err());
    }
}
