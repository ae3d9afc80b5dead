//! Deterministic fault injection.
//!
//! The Visual City Driver is a *robustness* harness: it must keep
//! driving a batch when a stream corrupts, a disk hiccups, or a kernel
//! stalls, and it must report the degradation quantitatively rather
//! than pass/fail (§3.2's online mode tolerates engines that fall
//! behind; §4 validates degraded output by PSNR). To prove those
//! recovery paths in CI this module provides a **seeded, deterministic
//! fault injector**: one [`FaultPlan`] parsed from a `--faults` spec,
//! one [`FaultInjector`] whose every decision is a pure function of
//! `(seed, site, key)`. The injector belongs to a run, not to the
//! process: a run's execution context carries it (`ExecContext::faults`
//! in `vr-vdbms`), and the demuxer, decoder, online feed, pipeline
//! stages and storage writes of that run consult it there. A context
//! without one is fault-free by construction — the driver's reference
//! validation and dataset generation run that way.
//!
//! # Spec grammar (`--faults`)
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
//! `frame K` counts the frames pushed into the query's kernel, from 0:
//! the scanned frames of a single-input query, each camera's own frames
//! for Q8, and for Q9 the face frames, four per stitched frame.
//!
//! The seed comes from `--fault-seed` (default 0). Each decision is
//! `mix64(seed ^ SITE_SALT[site], key)`, where the key names what the
//! fault hits: a sample is its input's name and sample index, an RTP
//! packet its input's name and packet index, a storage operation its
//! call site, object name and attempt. No decision depends on which
//! thread asks first, so a plan replays byte for byte at any worker
//! count. The price is deliberate: a damaged sample is damaged for
//! every reader, like a bad block on disk.
//!
//! # Accounting
//!
//! Each injection increments a per-kind counter on the injector
//! ([`FaultInjector::injected`]); each *recovery* (a concealed frame,
//! a skipped sample or packet, a retry, a contained panic, an absorbed
//! stall) increments a [`RecoveryCounters`] of the run that made it.
//! Like the stage figures, those counters belong to the run's context
//! (its `PipelineMetrics`), so two batches in one process never count
//! each other's recoveries. [`accounting_mismatches`] checks the two
//! sides against each other — e.g. every corrupted sample must show up
//! as a CRC-skipped sample, every injected panic as a contained one.

use crate::rng::{mix64, VrRng};
use crate::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A parsed `--faults` schedule. All probabilities are in `[0, 1]`.
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
    /// Panic in the kernel stage of `(query label, frame index)`. The
    /// index counts frames pushed into the kernel: for Q9, face frames,
    /// four per stitched frame.
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
    /// Parse a `--faults` spec string (see the module docs for the
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
                    let stage = stage.to_ascii_lowercase();
                    if !["scan", "decode", "kernel", "encode", "sink"].contains(&stage.as_str()) {
                        return Err(Error::InvalidConfig(format!(
                            "stall_stage {stage:?} is not scan|decode|kernel|encode|sink"
                        )));
                    }
                    plan.stall_stage = Some((stage, Duration::from_millis(ms)));
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

/// Decision-site indices into [`SITE_SALT`].
const SITE_CORRUPT: usize = 0;
const SITE_DROP_RTP: usize = 1;
const SITE_IO_READ: usize = 2;
const SITE_IO_WRITE: usize = 3;
const SITE_COUNT: usize = 4;

/// Salt mixed with the seed per decision site, so sites with the same
/// probability and key still decide independently.
const SITE_SALT: [u64; SITE_COUNT] = [0xC0DE_0001, 0xC0DE_0002, 0xC0DE_0003, 0xC0DE_0004];

/// A name (an input, a call site, a stored object) folded into a
/// decision key.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0u64, |h, b| mix64(h, b as u64))
}

/// A seeded, deterministic fault injector bound to one [`FaultPlan`].
///
/// Every decision is a pure function of `(seed, site, key)`, the key
/// naming what the fault hits — no wall clock, no OS entropy, no
/// shared counter — so a failing chaos run replays exactly from its
/// `--fault-seed` whatever the thread schedule. The injector holds no
/// decision state; it only counts what it injected.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    injected: [AtomicU64; 6],
}

impl FaultInjector {
    /// Build an injector from a plan and seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self { plan, seed, injected: Default::default() }
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

    /// The site's decision for `key`: true with probability `p`.
    fn decide(&self, site: usize, p: f64, key: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = mix64(self.seed ^ SITE_SALT[site], key);
        ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Maybe corrupt sample `index` of the input called `input`, in
    /// place. The decision and the flip pattern both come from that
    /// key, so every read of the sample is damaged the same way.
    /// Returns whether corruption was injected; a `true` always leaves
    /// `data` holding at least one flipped bit, so a CRC over the
    /// original payload is guaranteed to catch it.
    pub fn corrupt_sample(&self, input: &str, index: u64, data: &mut [u8]) -> bool {
        let key = mix64(name_hash(input), index);
        if data.is_empty() || !self.decide(SITE_CORRUPT, self.plan.corrupt_bitstream, key) {
            return false;
        }
        self.injected[0].fetch_add(1, Ordering::Relaxed);
        let mut rng = VrRng::seed_from(mix64(self.seed ^ 0xBAD_B175, key));
        // XOR 1–4 consecutive bytes from a random start with nonzero
        // masks. No byte is hit twice, so no flip can undo another.
        let start = rng.below(data.len() as u64) as usize;
        for i in 0..rng.range(1, 4).min(data.len()) {
            data[(start + i) % data.len()] ^= (rng.next_u32() as u8) | 0x01;
        }
        true
    }

    /// Whether to drop RTP packet `packet` of the input called `input`
    /// at ingest.
    pub fn drop_rtp_packet(&self, input: &str, packet: u64) -> bool {
        if !self.decide(SITE_DROP_RTP, self.plan.drop_rtp, mix64(name_hash(input), packet)) {
            return false;
        }
        self.injected[1].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The stall to inject at entry of the named pipeline stage (fires
    /// once per call when the plan names the stage; callers invoke it
    /// once per pipeline run). The caller sleeps; the injector counts.
    pub fn stall(&self, stage: &str) -> Option<Duration> {
        match &self.plan.stall_stage {
            Some((s, d)) if s == stage => {
                self.injected[2].fetch_add(1, Ordering::Relaxed);
                Some(*d)
            }
            _ => None,
        }
    }

    /// Maybe inject a transient I/O failure into the attempt at `op`
    /// that `key` names (see [`with_retry_io`], which every caller runs
    /// under, so an injected failure exercises the backoff path).
    /// Returns the error to surface.
    pub(crate) fn io_fail(&self, op: IoOp, key: u64) -> Option<Error> {
        let (site, p, slot) = match op {
            IoOp::Read => (SITE_IO_READ, self.plan.io_fail_read, 3),
            IoOp::Write => (SITE_IO_WRITE, self.plan.io_fail_write, 4),
        };
        if !self.decide(site, p, key) {
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
// Degradation accounting (the recovery side)
// ---------------------------------------------------------------------------

/// What a recovery layer did about one fault, injected or real: one
/// kind per [`DegradationSnapshot`] field, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    ConcealedFrame,
    SkippedSample,
    SkippedPacket,
    IoRetry,
    IoGiveUp,
    StagePanic,
    StallAbsorbed,
}

/// One run's recovery counters: one relaxed add per recovery, indexed
/// by [`Recovery`]. Each execution context's `PipelineMetrics` holds
/// one beside its stage records, so a batch's figure is what its own
/// hooks recovered, whatever else the process runs at the same time.
#[derive(Debug, Default)]
pub struct RecoveryCounters([AtomicU64; 7]);

impl RecoveryCounters {
    /// Count `n` recoveries of one kind.
    pub fn add(&self, what: Recovery, n: u64) {
        self.0[what as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn snapshot(&self) -> DegradationSnapshot {
        let [concealed_frames, skipped_samples, skipped_packets, io_retries, io_give_ups, stage_panics, stalls_absorbed] =
            self.0.each_ref().map(|c| c.load(Ordering::Relaxed));
        DegradationSnapshot {
            concealed_frames,
            skipped_samples,
            skipped_packets,
            io_retries,
            io_give_ups,
            stage_panics,
            stalls_absorbed,
        }
    }
}

/// A run's recovery totals at a point in time ([`RecoveryCounters`]):
/// what the system *did* about injected (or real) faults. Like the
/// stage figures, they belong to the execution context that made the
/// recoveries; the VCD reads a batch's off its context's snapshot.
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
    /// Whether any degradation was recorded.
    pub fn any(&self) -> bool {
        *self != DegradationSnapshot::default()
    }
}

/// The totals of several runs (a process's batches, say).
impl std::iter::Sum for DegradationSnapshot {
    fn sum<I: Iterator<Item = Self>>(runs: I) -> Self {
        runs.fold(Self::default(), |a, b| DegradationSnapshot {
            concealed_frames: a.concealed_frames + b.concealed_frames,
            skipped_samples: a.skipped_samples + b.skipped_samples,
            skipped_packets: a.skipped_packets + b.skipped_packets,
            io_retries: a.io_retries + b.io_retries,
            io_give_ups: a.io_give_ups + b.io_give_ups,
            stage_panics: a.stage_panics + b.stage_panics,
            stalls_absorbed: a.stalls_absorbed + b.stalls_absorbed,
        })
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

// ---------------------------------------------------------------------------
// Bounded retry with deterministic backoff
// ---------------------------------------------------------------------------

/// Attempts (including the first) [`with_retry_io`] makes before
/// giving up on a transiently failing storage operation.
pub const RETRY_MAX_ATTEMPTS: u32 = 4;

/// The backoff before retry number `attempt` (0-based): an exponential
/// base (0.5 ms doubling per attempt) plus seeded jitter in
/// `[0, base)` drawn from [`VrRng`] — a pure function of
/// `(seed, site, attempt, key)`, so chaos runs replay their exact
/// schedule. `key` names what is retried: concurrent retries of
/// distinct objects at the same site and attempt draw distinct jitter
/// instead of sleeping in lockstep and stampeding the resource again
/// in sync.
pub fn backoff_delay(seed: u64, site: u64, attempt: u32, key: u64) -> Duration {
    let base_us = 500u64 << attempt.min(16);
    let mut rng = VrRng::seed_from(mix64(mix64(seed ^ site, attempt as u64), key));
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

/// Run a storage operation a run's fault plan may fail with bounded
/// retry-with-backoff. Transient I/O failures are retried up to
/// [`RETRY_MAX_ATTEMPTS`] total attempts with [`backoff_delay`] sleeps
/// between them; every retry is counted in `recovered`, the run's
/// counters, and exhausting the budget counts a give-up and surfaces
/// the last error. Everything else (not-found, corruption, broken
/// pipe) propagates immediately — retrying cannot help.
///
/// `site` names the call site (hashed into the jitter stream) and
/// `object` what the operation touches (a whole file). With `faults`,
/// every attempt first asks the injector whether it fails, keyed by
/// `(site, object, attempt)`, so an injected failure takes the same
/// backoff path as a real one and hits the same attempts at any worker
/// count. The key is computed only when an injector is given or an
/// attempt fails.
pub fn with_retry_io<T>(
    faults: Option<&FaultInjector>,
    recovered: &RecoveryCounters,
    site: &str,
    op: IoOp,
    object: &str,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    // The trailing 0 keeps the key chaos schedules were recorded with.
    let key = || mix64(mix64(name_hash(site), name_hash(object)), 0);
    let mut attempt = 0u32;
    loop {
        let injected = faults.and_then(|inj| inj.io_fail(op, mix64(key(), attempt as u64)));
        match injected.map_or_else(&mut f, Err) {
            Err(Error::Io(io)) if is_transient(io.kind()) => {
                if attempt + 1 >= RETRY_MAX_ATTEMPTS {
                    recovered.add(Recovery::IoGiveUp, 1);
                    return Err(Error::Io(io));
                }
                recovered.add(Recovery::IoRetry, 1);
                let seed = faults.map_or(0, FaultInjector::seed);
                let _span = crate::obs::trace::span("fault", "retry_backoff");
                std::thread::sleep(backoff_delay(seed, name_hash(site), attempt, key()));
                attempt += 1;
            }
            done => return done,
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
        assert_ne!(plan, FaultPlan::default());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse("  ,  ").unwrap(), FaultPlan::default());
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
            "stall_stage=kernal:5ms",
            "stall_stage=:5ms",
            "panic_kernel=q4",
            "panic_kernel=q4:37",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_replayable() {
        let plan = FaultPlan::parse("corrupt_bitstream=0.25").unwrap();
        // Sample n's decision and flip pattern: its payload if damaged.
        let hit = |inj: &FaultInjector, n: u64| {
            let mut data = vec![0u8; 64];
            inj.corrupt_sample("cam-0", n, &mut data).then_some(data)
        };
        let draw = |seed: u64, order: &mut dyn Iterator<Item = u64>| {
            let inj = FaultInjector::new(plan.clone(), seed);
            let mut out = vec![None; 500];
            for n in order {
                out[n as usize] = hit(&inj, n);
            }
            out
        };
        let forward = draw(7, &mut (0..500));
        assert_eq!(forward, draw(7, &mut (0..500)), "same seed must replay identically");
        assert_eq!(forward, draw(7, &mut (0..500).rev()), "draw order must not matter");
        assert_ne!(forward, draw(8, &mut (0..500)), "seeds must differ");
        // Four threads draw interleaved keys on one injector at once.
        let (inj, hit) = (&FaultInjector::new(plan.clone(), 7), &hit);
        let mut threaded = vec![None; 500];
        let stripe = |t: u64| (t..500).step_by(4).map(|n| (n, hit(inj, n))).collect::<Vec<_>>();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|t| s.spawn(move || stripe(t))).collect();
            for (n, d) in workers.into_iter().flat_map(|w| w.join().unwrap()) {
                threaded[n as usize] = d;
            }
        });
        assert_eq!(forward, threaded, "thread interleaving must not matter");
        let hits = forward.iter().flatten().count();
        assert_eq!(inj.injected().corrupt_bitstream, hits as u64);
        assert!((50..200).contains(&hits), "~25% of 500 expected, got {hits}");
    }

    #[test]
    fn corruption_always_changes_the_payload() {
        let inj = FaultInjector::from_spec("corrupt_bitstream=1.0", 3).unwrap();
        for len in [1usize, 2, 7, 100] {
            let orig = vec![0xA5u8; len];
            let mut data = orig.clone();
            assert!(inj.corrupt_sample("cam-0", len as u64, &mut data));
            assert_ne!(data, orig, "len {len}: injected corruption must be observable");
        }
        assert_eq!(inj.injected().corrupt_bitstream, 4);
        // Empty payloads cannot be corrupted.
        assert!(!inj.corrupt_sample("cam-0", 0, &mut []));
    }

    #[test]
    fn io_fail_counts_per_op() {
        let inj = FaultInjector::from_spec("io_fail=read:1.0", 0).unwrap();
        assert!(inj.io_fail(IoOp::Read, 0).is_some());
        assert!(inj.io_fail(IoOp::Write, 0).is_none());
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
        // The thundering-herd fix: the same (seed, site, attempt) for
        // distinct keys must yield distinct delays, all still inside
        // the attempt's [base, 2*base) window.
        let delays: Vec<Duration> = (0..16).map(|key| backoff_delay(9, 4, 1, key)).collect();
        let base = Duration::from_micros(1000);
        for (key, d) in delays.iter().enumerate() {
            assert!(*d >= base && *d < base * 2, "key {key}: {d:?} outside window");
        }
        let mut unique = delays.clone();
        unique.sort();
        unique.dedup();
        assert!(
            unique.len() > 12,
            "16 keys collapsed to {} distinct delays — herd not broken",
            unique.len()
        );
        // Replayable: the key fully determines the jitter.
        assert_eq!(backoff_delay(9, 4, 1, 7), backoff_delay(9, 4, 1, 7));
        // Seed changes move every key's jitter.
        assert_ne!(backoff_delay(9, 4, 1, 7), backoff_delay(10, 4, 1, 7));
    }

    /// With no injector, `with_retry_io` fails only where `f` does.
    #[test]
    fn with_retry_retries_transients_and_gives_up() {
        let recovered = RecoveryCounters::default();
        let mut calls = 0;
        let out: Result<u32> = with_retry_io(None, &recovered, "test-ok", IoOp::Read, "obj", || {
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
        let out: Result<u32> = with_retry_io(None, &recovered, "test-exhaust", IoOp::Read, "obj", || {
            calls += 1;
            Err(Error::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "x")))
        });
        assert!(out.is_err());
        assert_eq!(calls, RETRY_MAX_ATTEMPTS);

        // Non-transient errors pass straight through.
        let mut calls = 0;
        let out: Result<u32> = with_retry_io(None, &recovered, "test-hard", IoOp::Write, "obj", || {
            calls += 1;
            Err(Error::NotFound("gone".into()))
        });
        assert!(matches!(out, Err(Error::NotFound(_))));
        assert_eq!(calls, 1);
        let counted = recovered.snapshot();
        assert_eq!((counted.io_retries, counted.io_give_ups), (2 + 3, 1));
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
