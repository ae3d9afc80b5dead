//! Chaos suite: deterministic fault injection against the full query
//! path.
//!
//! The contract under test (ISSUE: robustness tentpole): with a fault
//! plan active the system *degrades* — concealed frames, skipped
//! packets, retried I/O, contained panics, cancelled stragglers — but
//! never panics, never hangs, and accounts for every injected fault in
//! [`DegradationStats`]. With faults off, behaviour is bit-identical
//! to the clean path (pinned by `pipeline_parity.rs`).
//!
//! Tests that install the process-global injector (or depend on it
//! being absent) serialize on a static mutex: `fault::install` is
//! process-wide and the default test harness runs threads in parallel.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use visual_road::base::fault::{self, FaultInjector, IoOp, RETRY_MAX_ATTEMPTS};
use visual_road::base::{Error, VrRng};
use visual_road::codec::{encode_sequence, EncoderConfig, ResilientDecoder};
use visual_road::container::{Container, ContainerWriter, TrackKind};
use visual_road::frame::Frame;
use visual_road::prelude::*;
use visual_road::report::DegradationStats;

mod common;
use common::tiny_dataset;

/// Serialize tests that touch the global injector / recovery counters.
fn injector_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A tiny dataset generated while no other test's injector is
/// installed: the generator decodes the camera videos for the
/// panorama, so an injector installed meanwhile would corrupt them and
/// count the concealment in that test's recovery counters.
fn clean_dataset(seed: u64) -> Dataset {
    let _guard = injector_lock();
    tiny_dataset(seed)
}

/// A guard that clears the global injector even if the test panics, so
/// one failing chaos test cannot poison the faults-off tests behind it.
struct InstallGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl InstallGuard {
    fn install(inj: FaultInjector) -> (Self, std::sync::Arc<FaultInjector>) {
        let guard = Self(injector_lock());
        let inj = std::sync::Arc::new(inj);
        fault::install(Some(std::sync::Arc::clone(&inj)));
        (guard, inj)
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        fault::install(None);
    }
}

/// A muxed clip (the unit the corruption loop mangles).
fn muxed_clip() -> Vec<u8> {
    let frames: Vec<Frame> = (0..12)
        .map(|t| {
            let mut f = Frame::new(64, 48);
            for y in 0..48 {
                for x in 0..64 {
                    f.set_y(x, y, ((x * 3 + y * 2 + t * 7) % 220) as u8);
                }
            }
            f
        })
        .collect();
    let video = encode_sequence(&EncoderConfig::constant_qp(16).with_gop(4), &frames).unwrap();
    let mut w = ContainerWriter::new();
    let t = w.add_track(TrackKind::Video, video.info.serialize());
    for (i, p) in video.packets.iter().enumerate() {
        w.push_sample(
            t,
            &p.data,
            visual_road::base::Timestamp::of_frame(i as u64, visual_road::base::FrameRate(30)),
            p.keyframe,
        );
    }
    w.finish()
}

/// 64 seeded corruptions of a muxed clip: demux + decode must never
/// panic and must always terminate — every byte pattern either parses
/// (possibly with concealed frames) or surfaces a typed error.
#[test]
fn seeded_corruptions_never_panic_and_always_terminate() {
    let clean = muxed_clip();
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for seed in 0..64u64 {
        let mut rng = VrRng::seed_from(seed);
        let mut bytes = clean.clone();
        // 1–16 byte flips anywhere in the file: header, sample table,
        // or payload.
        for _ in 0..rng.range(1, 16) {
            let at = rng.range(0, bytes.len() - 1);
            bytes[at] ^= (rng.next_u32() as u8) | 0x01;
        }
        let outcome = std::panic::catch_unwind(move || {
            let container = match Container::parse(bytes) {
                Ok(c) => c,
                Err(_) => return false, // typed rejection is fine
            };
            let Some(track) = container.track_of_kind(TrackKind::Video) else {
                return false;
            };
            let Ok(info) =
                visual_road::codec::VideoInfo::deserialize(&container.tracks()[track].config)
            else {
                return false;
            };
            let mut dec = ResilientDecoder::new(info);
            for (i, sinfo) in container.tracks()[track].samples.clone().iter().enumerate() {
                match container.sample(track, i) {
                    // The resilient decoder must absorb whatever the
                    // demuxer let through.
                    Ok(sample) => drop(dec.decode(sample, sinfo.keyframe)),
                    Err(_) => continue,
                }
            }
            true
        });
        match outcome {
            Ok(true) => parsed_ok += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("corruption seed {seed} caused a panic"),
        }
    }
    assert_eq!(parsed_ok + rejected, 64);
    // Sanity: the loop exercised both outcomes (a corruption campaign
    // that never parses anything tests only the header path).
    assert!(parsed_ok > 0, "no corrupted clip survived parsing");
}

/// The backoff schedule is a pure function of (seed, site, attempt,
/// key), the key naming the retried object; it grows with the attempt
/// number and stays milliseconds-bounded, so an exhausted retry budget
/// cannot stall a query noticeably. Retries of distinct objects at the
/// same site and attempt draw distinct jitter.
#[test]
fn retry_backoff_schedule_is_deterministic_and_bounded() {
    let a = fault::backoff_delay(7, 11, 0, 0);
    assert_eq!(a, fault::backoff_delay(7, 11, 0, 0));
    let total: std::time::Duration =
        (0..RETRY_MAX_ATTEMPTS).map(|i| fault::backoff_delay(7, 11, i, 0)).sum();
    assert!(total < std::time::Duration::from_millis(50), "backoff too slow: {total:?}");
    // The exponential base doubles per attempt, jitter notwithstanding
    // (jitter is bounded by one base).
    assert!(fault::backoff_delay(7, 11, 5, 0) > fault::backoff_delay(7, 11, 0, 0));
    // Concurrent sleepers draw distinct jitter.
    assert_ne!(fault::backoff_delay(7, 11, 0, 1), fault::backoff_delay(7, 11, 0, 2));
}

/// `with_retry_io` absorbs transient failures (counting each retry),
/// gives up after the bounded budget (counting the give-up), and does
/// not retry permanent errors. The lock keeps every injector out, so
/// only `op`'s own errors fail an attempt.
#[test]
fn with_retry_accounts_retries_and_give_ups() {
    let _guard = injector_lock();
    let before = fault::degradation_snapshot();

    // Fails twice, then succeeds: two retries, no give-up.
    let mut calls = 0u32;
    let transient =
        || Error::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "injected"));
    let out = fault::with_retry_io("chaos-test-a", IoOp::Read, "object", 0, || {
        calls += 1;
        if calls <= 2 { Err(transient()) } else { Ok(calls) }
    });
    assert_eq!(out.unwrap(), 3);

    // Never succeeds: budget exhausted, error surfaces.
    let mut attempts = 0u32;
    let out: Result<(), Error> = fault::with_retry_io("chaos-test-b", IoOp::Write, "object", 0, || {
        attempts += 1;
        Err(transient())
    });
    assert!(out.is_err());
    assert_eq!(attempts, RETRY_MAX_ATTEMPTS);

    // Permanent errors surface immediately with no accounting.
    let mut permanent_calls = 0u32;
    let out: Result<(), Error> = fault::with_retry_io("chaos-test-c", IoOp::Read, "object", 0, || {
        permanent_calls += 1;
        Err(Error::NotFound("x".into()))
    });
    assert!(out.is_err());
    assert_eq!(permanent_calls, 1);

    let delta = fault::degradation_snapshot().since(&before);
    assert_eq!(delta.io_retries, 2 + (RETRY_MAX_ATTEMPTS as u64 - 1));
    assert_eq!(delta.io_give_ups, 1);
}

/// An injected kernel panic unwinds to the pipeline's containment
/// boundary, becomes a typed error, is folded as a degraded row, and
/// the count of contained panics matches the count of injected ones.
#[test]
fn watchdog_contains_injected_stage_panics() {
    let dataset = clean_dataset(43);
    let (_guard, inj) =
        InstallGuard::install(FaultInjector::from_spec("panic_kernel=q2a:frame3", 1).unwrap());

    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2aGrayscale]).unwrap();
    let q = report.query(QueryKind::Q2aGrayscale).unwrap();
    let QueryStatus::Completed { degradation, .. } = &q.status else {
        panic!("chaos batch must complete (degraded), got {:?}", q.status);
    };
    assert_eq!(degradation.failed_instances, 2, "every instance hits frame 3");
    assert_eq!(degradation.recovered.stage_panics, inj.injected().kernel_panics);
    assert!(degradation.recovered.stage_panics >= 2);
    assert!(degradation.faults_active);
}

/// Q9's stitch is a kernel like every other: a panic injected at its
/// frame 1 (a face frame — the stitch is pushed four per panorama
/// frame, so this is the second face of the first round) fails every
/// instance, is contained at the stage boundary, and each injected
/// panic is matched by a recovered one.
#[test]
fn q9_kernel_panics_are_contained_and_accounted() {
    let dataset = clean_dataset(50);
    let (_guard, inj) =
        InstallGuard::install(FaultInjector::from_spec("panic_kernel=q9:frame1", 1).unwrap());
    let before = fault::degradation_snapshot();
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let report = vcd.run_queries(&mut ReferenceEngine::new(), &[QueryKind::Q9PanoramicStitching]);
    let recovered = fault::degradation_snapshot().since(&before);
    let report = report.unwrap();
    let q = report.query(QueryKind::Q9PanoramicStitching).unwrap();
    let QueryStatus::Completed { degradation, .. } = &q.status else {
        panic!("chaos batch must complete (degraded), got {:?}", q.status);
    };
    assert_eq!(degradation.failed_instances, 2, "every instance hits face frame 1");
    assert_eq!(inj.injected().kernel_panics, 2);
    assert_eq!(degradation.recovered.stage_panics, 2);
    let mismatches = fault::accounting_mismatches(&inj.injected(), &recovered);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

/// Corrupted samples are skipped at the CRC check, concealed by the
/// resilient decoder, and the batch still completes with exact
/// corruption accounting.
#[test]
fn corrupted_bitstreams_are_concealed_not_fatal() {
    let dataset = clean_dataset(44);
    let (_guard, inj) =
        InstallGuard::install(FaultInjector::from_spec("corrupt_bitstream=0.05", 9).unwrap());

    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    let q = report.query(QueryKind::Q1Select).unwrap();
    let QueryStatus::Completed { degradation, .. } = &q.status else {
        panic!("chaos batch must complete, got {:?}", q.status);
    };
    assert_eq!(degradation.recovered.skipped_samples, inj.injected().corrupt_bitstream);
    assert!(
        degradation.recovered.concealed_frames >= degradation.recovered.skipped_samples,
        "every skipped sample is concealed: {degradation:?}"
    );
}

/// Deadline enforcement: a straggling instance is cancelled
/// cooperatively, counted as a degraded row, and the batch completes
/// instead of blocking on it.
#[test]
fn deadline_cancellation_is_enforced_and_accounted() {
    let _guard = injector_lock();
    let dataset = tiny_dataset(45);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig {
            batch_size: Some(3),
            // Far below any real instance latency: every instance is
            // cancelled at its first frame boundary.
            instance_deadline: Some(std::time::Duration::from_micros(1)),
            ..Default::default()
        },
    );
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2aGrayscale]).unwrap();
    let q = report.query(QueryKind::Q2aGrayscale).unwrap();
    let QueryStatus::Completed { degradation, scheduler, .. } = &q.status else {
        panic!("deadline batch must complete (degraded), got {:?}", q.status);
    };
    assert_eq!(degradation.cancelled_instances, 3, "{degradation:?}");
    assert_eq!(degradation.failed_instances, 0);
    assert_eq!(scheduler.deadline_misses, 3);
    assert!(!degradation.faults_active, "no fault plan was installed");
}

/// With no fault plan and no deadline, the report carries an all-zero
/// degradation block and the first failing instance still fails the
/// batch (classic semantics are preserved bit-for-bit).
#[test]
fn clean_runs_report_zero_degradation() {
    let _guard = injector_lock();
    let dataset = tiny_dataset(46);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    let q = report.query(QueryKind::Q1Select).unwrap();
    let QueryStatus::Completed { degradation, validation, .. } = &q.status else {
        panic!("clean run must complete, got {:?}", q.status);
    };
    assert_eq!(*degradation, DegradationStats::default());
    assert!(validation.passed);

    // The sanctioned Q4 failure path (batch engine, resource
    // exhaustion) still reports Failed — degrade mode must not leak
    // into clean runs.
    let mut batch = BatchEngine::new();
    let report = vcd.run_queries(&mut batch, &[QueryKind::Q4Upsample]).unwrap();
    assert!(
        matches!(&report.query(QueryKind::Q4Upsample).unwrap().status, QueryStatus::Failed { .. }),
        "batch Q4 must still fail cleanly with faults off"
    );
}

/// Online-mode RTP ingest under packet loss: the jitter buffer skips
/// the gaps, accounting matches the drop count exactly, and queries
/// still complete.
#[test]
fn online_rtp_drops_are_skipped_and_accounted() {
    let dataset = clean_dataset(47);
    let (_guard, inj) =
        InstallGuard::install(FaultInjector::from_spec("drop_rtp=0.08", 3).unwrap());

    let vcd = Vcd::new(
        &dataset,
        VcdConfig {
            batch_size: Some(2),
            mode: ExecutionMode::Online { speedup: 1000.0 },
            ..Default::default()
        },
    );
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    let q = report.query(QueryKind::Q1Select).unwrap();
    let QueryStatus::Completed { degradation, .. } = &q.status else {
        panic!("online chaos batch must complete, got {:?}", q.status);
    };
    assert_eq!(degradation.recovered.skipped_packets, inj.injected().drop_rtp);
}

/// The chaos schedule `visualroad run --faults ... --fault-seed 7`
/// runs: every engine over the full suite at four workers, in write
/// mode under a 30 s deadline, then an online leg losing a fifth of its
/// RTP packets. Every injected fault is matched by its recovery counter.
#[test]
fn chaos_schedule_accounts_for_every_injected_fault() {
    let dataset = clean_dataset(48);
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-schedule");
    let _ = std::fs::remove_dir_all(&out);
    let run = |spec: &str, seed: u64, cfg: VcdConfig, engines: Vec<Box<dyn Vdbms>>, queries: &[QueryKind]| {
        // Installing takes the injector lock first: no other test's
        // recoveries land between the two snapshots.
        let (_guard, inj) = InstallGuard::install(FaultInjector::from_spec(spec, seed).unwrap());
        let before = fault::degradation_snapshot();
        let vcd = Vcd::new(&dataset, cfg);
        for mut engine in engines {
            vcd.run_queries(engine.as_mut(), queries).unwrap();
        }
        let recovered = fault::degradation_snapshot().since(&before);
        let mismatches = fault::accounting_mismatches(&inj.injected(), &recovered);
        assert!(mismatches.is_empty(), "{spec}: {mismatches:?}");
        inj.injected()
    };
    let cfg = VcdConfig {
        validate: false,
        batch_size: Some(2),
        pipeline_workers: Some(4),
        batch_workers: Some(4),
        ..Default::default()
    };
    let batch = VcdConfig {
        write_store: Some(visual_road::storage::FlatStore::open(&out).unwrap()),
        instance_deadline: Some(std::time::Duration::from_secs(30)),
        ..cfg.clone()
    };
    let all: Vec<Box<dyn Vdbms>> = vec![
        Box::new(ReferenceEngine::new()),
        Box::new(BatchEngine::new()),
        Box::new(FunctionalEngine::new()),
        Box::new(CascadeEngine::new()),
    ];
    let spec = "corrupt_bitstream=0.01,stall_stage=kernel:2ms,io_fail=write:0.02,panic_kernel=q4:frame2";
    let injected = run(spec, 7, batch, all, &QueryKind::ALL);
    assert!(injected.stalls > 0 && injected.kernel_panics > 0, "{injected:?}");
    let online = VcdConfig { mode: ExecutionMode::Online { speedup: 1000.0 }, ..cfg };
    let reference: Vec<Box<dyn Vdbms>> = vec![Box::new(ReferenceEngine::new())];
    let injected = run("drop_rtp=0.2", 11, online, reference, &[QueryKind::Q1Select, QueryKind::Q2aGrayscale]);
    assert!(injected.drop_rtp > 0, "{injected:?}");
}

/// A chaos run replays: one write-mode batch under a fixed plan writes
/// the same bytes for every instance, and reports the same degradation
/// and the same fault accounting, at one batch worker and at four.
/// Every decision is keyed by what it hits; a decision drawn from a
/// shared counter would land on whichever sample or write reached the
/// counter first, which moves with the four workers' interleaving.
/// Each instance's pipeline runs on one worker: with two, the decode
/// stage runs ahead of a kernel that panics by a varying number of
/// frames, and the failed instance's concealed and skipped counts vary
/// with it.
#[test]
fn chaos_runs_replay_at_every_batch_width() {
    let dataset = clean_dataset(49);
    let queries = [QueryKind::Q1Select, QueryKind::Q2aGrayscale];
    let spec = "corrupt_bitstream=0.2,io_fail=write:0.5,panic_kernel=q2a:frame5";
    let run = |workers: usize| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("replay{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = visual_road::storage::FlatStore::open(&dir).unwrap();
        let (guard, inj) = InstallGuard::install(FaultInjector::from_spec(spec, 5).unwrap());
        let before = fault::degradation_snapshot();
        let cfg = VcdConfig {
            validate: false,
            batch_size: Some(4),
            pipeline_workers: Some(1),
            batch_workers: Some(workers),
            write_store: Some(store.clone()),
            ..Default::default()
        };
        let report = Vcd::new(&dataset, cfg).run_queries(&mut ReferenceEngine::new(), &queries);
        let counts = (inj.injected(), fault::degradation_snapshot().since(&before));
        drop(guard);
        let report = report.unwrap();
        let degradation: Vec<DegradationStats> = queries
            .iter()
            .map(|&q| match &report.query(q).unwrap().status {
                QueryStatus::Completed { degradation, .. } => *degradation,
                other => panic!("{q:?} at {workers} workers: {other:?}"),
            })
            .collect();
        let read = |name: String| {
            let bytes = store.get(&name).unwrap().to_vec();
            (name, bytes)
        };
        let files: BTreeMap<String, Vec<u8>> = store.list().unwrap().into_iter().map(read).collect();
        (files, degradation, counts)
    };
    let (files, degradation, (injected, recovered)) = run(1);
    assert!(fault::accounting_mismatches(&injected, &recovered).is_empty(), "{recovered:?}");
    let kinds = [injected.corrupt_bitstream, injected.io_fail_write, injected.kernel_panics];
    assert!(kinds.iter().all(|&n| n > 0), "{injected:?}");
    // Three tries, since four workers can happen to run a small batch
    // in the sequential order.
    for _ in 0..3 {
        let (files_4, degradation_4, counts_4) = run(4);
        assert_eq!(files.keys().collect::<Vec<_>>(), files_4.keys().collect::<Vec<_>>());
        for (name, bytes) in &files {
            assert!(files_4[name] == *bytes, "{name} differs at 4 batch workers");
        }
        assert_eq!((&degradation, (injected, recovered)), (&degradation_4, counts_4), "at 4 batch workers");
    }
}
