//! The two serve workloads: an in-process `QueryServer` driven over real
//! loopback TCP.
//!
//! `serve_pixel` sends long requests (reference-engine Q1/Q2a, every one
//! decodes), so service time, queue wait and wire overhead all show;
//! `serve_semantic` sends S1/S2/S3 answered from the index in ~0.02 ms, so
//! the request lifecycle and the wire are the whole cost. A server change
//! that helps one and hurts the other shows as such.
//!
//! The end-to-end figures are what the default client (`TCP_NODELAY`, one
//! write per request) sees, because that is the client a user has. Today
//! its latency ends on a timer: the server writes a response line in two
//! pieces, and the second waits ~44 ms for the client kernel's delayed ACK
//! of the first. The timer also caps what `nproc` such connections can ask
//! of the server at ~45 requests a second. So the traced run splits the
//! latency at the first response byte, and adds a closed loop whose client
//! ACKs at once: there the processors are busy and the request lifecycle
//! is what the figures are made of. Those figures are per-layer ones: at
//! tens of microseconds a request they follow the host's scheduling more
//! than the program (README.md, "The two clients").

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use visual_road::base::admission::AdmissionConfig;
use visual_road::base::rng::mix64;
use visual_road::base::VrRng;
use visual_road::prelude::*;
use visual_road::scene::ObjectClass;
use visual_road::server::{QueryServer, ServerConfig};
use visual_road::{answer_with_rescan, recall_at_k, truth_top_segments, Dataset, SemanticQuery};
use vr_index::SegmentHit;

use crate::host;
use crate::json;
use crate::loadgen::{self, Collector, Connection, Kind, Planned, Sample};
use crate::metrics::{exec_metric, Outcome};
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{self, RunArgs};

/// Open-loop arrival rate of phase A, requests per second over all
/// connections.
pub const OPEN_RATE: f64 = 20.0;
/// Rates the traced run's ladder tries, lowest first.
const LADDER: [f64; 4] = [10.0, 20.0, 40.0, 80.0];
/// Closed-loop completions that make one "pass" of a serve workload.
const PASS_REQUESTS: f64 = 20.0;
const SEMANTIC_LABELS: [&str; 3] = ["S1", "S2", "S3"];
/// Wrong responses described in full; the rest are only counted.
const MAX_PROBLEMS: usize = 10;

/// Latency limit of a workload: an `OK` later than this misses it.
pub fn limit_of(workload: &str) -> Duration {
    match workload {
        "serve_pixel" => Duration::from_millis(250),
        _ => Duration::from_millis(100),
    }
}

struct Env {
    server: QueryServer,
    conns: Vec<Connection>,
    start_s: f64,
    /// Requests sent since the server started: the place of the next one
    /// in the seeded stream.
    sent: usize,
    checker: Checker,
}

/// The i-th request of the seeded stream.
fn request_line(semantic: bool, seed: u64, i: usize) -> String {
    let query = query_of(semantic, seed, i);
    format!("EXEC tenant=t{} priority=high query={query}\n", i % 2)
}

fn query_of(semantic: bool, seed: u64, i: usize) -> &'static str {
    if semantic {
        SEMANTIC_LABELS[(i + (seed % 3) as usize) % 3]
    } else if mix64(seed, i as u64) & 1 == 0 {
        "Q1"
    } else {
        "Q2a"
    }
}

#[derive(Debug, Default, PartialEq)]
struct Tally {
    ok: u64,
    shed: u64,
    cancelled: u64,
    err: u64,
    index: u64,
    rescan: u64,
}

/// What the client saw since the server started, warm-up included:
/// `STATS` must reconcile against all of it.
#[derive(Default)]
struct Ledger {
    tally: Tally,
    problems: Vec<String>,
    /// Wrong responses beyond the first [`MAX_PROBLEMS`].
    more_problems: u64,
    /// S2 recall@10 against scene truth, of the first S2 answer.
    recall: Option<f64>,
}

impl Ledger {
    fn problem(&mut self, line: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(line);
        } else {
            self.more_problems += 1;
        }
    }
}

/// Checks every response as it arrives, on the connection's thread, so
/// that no phase has to keep its responses to be checked later.
struct Checker {
    semantic: bool,
    seed: u64,
    /// `answer_with_rescan` of S1..S3, rendered as the wire renders them.
    expected: Vec<String>,
    /// Scene-geometry truth for S2.
    truth: Vec<SegmentHit>,
    ledger: Mutex<Ledger>,
}

impl Checker {
    /// Count the response to request `index` of the stream; every one must
    /// be `OK`, and a semantic answer must come from the index and equal
    /// the in-process rescan.
    fn check(&self, index: usize, response: &str) {
        let r = loadgen::parse_response(response);
        let mut ledger = self.ledger.lock().expect("ledger lock");
        match r.kind {
            Kind::Ok => {
                ledger.tally.ok += 1;
                match r.route {
                    Some("index") => ledger.tally.index += 1,
                    _ => ledger.tally.rescan += 1,
                }
            }
            Kind::Shed => ledger.tally.shed += 1,
            Kind::Cancelled => ledger.tally.cancelled += 1,
            Kind::Err => ledger.tally.err += 1,
        }
        if r.kind != Kind::Ok {
            ledger.problem(format!("request {index} answered {response:?}"));
            return;
        }
        if !self.semantic {
            return;
        }
        let label = query_of(true, self.seed, index);
        let slot = SEMANTIC_LABELS
            .iter()
            .position(|l| *l == label)
            .expect("a semantic label");
        if r.answer != Some(self.expected[slot].as_str()) {
            ledger.problem(format!(
                "{label} answered {:?}, rescan says {:?}",
                r.answer, self.expected[slot]
            ));
        }
        if r.route != Some("index") {
            ledger.problem(format!(
                "{label} was served by {:?}, not the index",
                r.route
            ));
        }
        if label == "S2" && ledger.recall.is_none() {
            let got = r.answer.and_then(parse_segments).unwrap_or_default();
            ledger.recall = Some(recall_at_k(&self.truth, &got, 10));
        }
    }
}

/// Set one server up. `with_dataset` runs before the server takes the
/// dataset (a traced run probes the layers there); its time, like that of
/// computing the expected answers, is checking, not set-up, and is
/// returned so the caller can leave it out.
fn setup(
    args: &RunArgs,
    with_dataset: &mut dyn FnMut(&Dataset, f64) -> Result<(), String>,
) -> Result<(Env, f64), String> {
    let semantic = args.workload == "serve_semantic";
    let t0 = Instant::now();
    let dataset = workload::generate_dataset(&args.sizes)?;
    let generate_s = t0.elapsed().as_secs_f64();

    let checking = Instant::now();
    with_dataset(&dataset, generate_s)?;
    let mut expected = Vec::new();
    let mut truth = Vec::new();
    if semantic {
        for label in SEMANTIC_LABELS {
            let q =
                SemanticQuery::parse_label(label).expect("S1..S3 are the named semantic queries");
            let answer =
                answer_with_rescan(&dataset, &q).map_err(|e| format!("rescan {label}: {e}"))?;
            expected.push(answer.render());
        }
        truth = truth_top_segments(&dataset, Some(ObjectClass::Vehicle), 8)
            .map_err(|e| format!("truth segments: {e}"))?;
    }
    let excluded = checking.elapsed().as_secs_f64();

    let nproc = host::parallelism();
    let t1 = Instant::now();
    let server = QueryServer::start(
        dataset,
        vec![Box::new(ReferenceEngine::new())],
        ServerConfig {
            admission: AdmissionConfig {
                max_concurrent: nproc,
                queue_depth: 16,
                ..AdmissionConfig::default()
            },
            workers: 1,
            queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale],
            use_index: semantic,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let start_s = t1.elapsed().as_secs_f64();
    let conns = (0..nproc)
        .map(|_| Connection::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut env = Env {
        server,
        conns,
        start_s,
        sent: 0,
        checker: Checker {
            semantic,
            seed: args.seed,
            expected,
            truth,
            ledger: Mutex::default(),
        },
    };
    // Warm-up: pools and caches settle before the first timed request.
    let n = args.sizes.warmup_requests;
    closed_loop(&mut env, true, |i, _| i < n, &|_| {})?;
    Ok((env, excluded))
}

/// Drain the server and wait for it; returns how long the drain took.
fn teardown(mut env: Env) -> Result<f64, String> {
    let t0 = Instant::now();
    let reply = env.conns[0]
        .exchange("SHUTDOWN\n")
        .map_err(|e| format!("SHUTDOWN: {e}"))?
        .line;
    if reply != "OK draining" {
        return Err(format!("SHUTDOWN answered {reply:?}"));
    }
    drop(env.conns);
    let report = env.server.wait();
    if !report.clean {
        return Err("server drain was not clean".into());
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Send the next requests of the seeded stream: `due(i)` says when the
/// i-th of this phase goes out (`Some(None)`: as soon as a connection is
/// free) or ends the phase (`None`). Every response is checked; `observe`
/// sees each sample with its place in the whole stream as its index.
fn phase(
    env: &mut Env,
    quick_ack: bool,
    due: &(dyn Fn(usize) -> Option<Option<Instant>> + Sync),
    observe: &(dyn Fn(&Sample) + Sync),
) -> Result<(), String> {
    let Env {
        conns,
        sent,
        checker,
        ..
    } = env;
    for conn in conns.iter_mut() {
        conn.quick_ack(quick_ack);
    }
    let base = *sent;
    let handed_out = AtomicU64::new(0);
    let result = loadgen::drive(
        conns,
        base,
        &|i| {
            due(i - base).map(|due| {
                handed_out.fetch_add(1, Ordering::Relaxed);
                Planned {
                    line: request_line(checker.semantic, checker.seed, i),
                    due,
                }
            })
        },
        &|s| {
            checker.check(s.index, &s.response);
            observe(s);
        },
    );
    *sent += handed_out.into_inner() as usize;
    result.map_err(|e| format!("load generator: {e}"))
}

/// Send requests back-to-back, each connection its next as soon as its
/// last is answered, while `more(i, started)` says the stream goes on.
fn closed_loop(
    env: &mut Env,
    quick_ack: bool,
    more: impl Fn(usize, Instant) -> bool + Sync,
    observe: &(dyn Fn(&Sample) + Sync),
) -> Result<(), String> {
    let started = Instant::now();
    phase(
        env,
        quick_ack,
        &|i| more(i, started).then_some(None),
        observe,
    )
}

/// Send `n` requests from the default client on a seeded Poisson schedule
/// of `rate` per second; returns them in stream order.
fn open_loop(
    env: &mut Env,
    rate: f64,
    n: usize,
    observe: &(dyn Fn(&Sample) + Sync),
) -> Result<Vec<Sample>, String> {
    let mut rng = VrRng::seed_from(mix64(env.checker.seed, 0x0A11_0000 + env.sent as u64));
    let start = Instant::now() + Duration::from_millis(20);
    let mut at = 0.0;
    let plan: Vec<Instant> = (0..n)
        .map(|_| {
            // Exponential gap: −ln(1 − u) / rate, u uniform in [0, 1).
            at += -(1.0 - rng.next_f64()).ln() / rate;
            start + Duration::from_secs_f64(at)
        })
        .collect();
    let kept = Collector::default();
    phase(env, false, &|i| plan.get(i).map(|due| Some(*due)), &|s| {
        observe(s);
        kept.keep(s);
    })?;
    Ok(kept.into_samples())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parse `segments=[v:s=c,...]` back into hits.
fn parse_segments(token: &str) -> Option<Vec<SegmentHit>> {
    let body = token.strip_prefix("segments=[")?.strip_suffix(']')?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|part| {
            let (place, count) = part.split_once('=')?;
            let (video, segment) = place.split_once(':')?;
            Some(SegmentHit {
                video: video.parse().ok()?,
                segment: segment.parse().ok()?,
                count: count.parse().ok()?,
            })
        })
        .collect()
}

/// Correctness gate: every response was `OK` and, on `serve_semantic`,
/// right (the checker saw to that as they arrived); `STATS` equals the
/// client's own counts; S2 reaches recall@10 ≥ 0.9.
fn gate(env: &mut Env, out: &mut Outcome) -> Result<json::Value, String> {
    let stats_line = env.conns[0]
        .exchange("STATS\n")
        .map_err(|e| format!("STATS: {e}"))?
        .line;
    let body = stats_line
        .strip_prefix("STATS ")
        .ok_or(format!("STATS answered {stats_line:?}"))?;
    let stats = json::parse(body).map_err(|e| format!("STATS body: {e}"))?;
    let field = |key: &str| stats.get(key).and_then(json::as_u64).unwrap_or(u64::MAX);

    let ledger = std::mem::take(&mut *env.checker.ledger.lock().expect("ledger lock"));
    let seen = &ledger.tally;
    out.attempted += seen.ok + seen.shed + seen.cancelled + seen.err;
    out.failed += seen.shed + seen.cancelled + seen.err;
    for problem in ledger.problems {
        out.problem(problem);
    }
    if ledger.more_problems > 0 {
        out.problem(format!("{} more wrong responses", ledger.more_problems));
    }
    for (what, server, client) in [
        (
            "admitted = ok + cancelled + err",
            field("admitted"),
            seen.ok + seen.cancelled + seen.err,
        ),
        ("shed", field("shed"), seen.shed),
        ("index_served", field("index_served"), seen.index),
        ("rescan_served", field("rescan_served"), seen.rescan),
    ] {
        if server != client {
            out.problem(format!("STATS {what}: server {server}, client {client}"));
        }
    }
    if env.checker.semantic {
        let recall = ledger.recall.unwrap_or(0.0);
        out.note(format!("S2 recall@10 against scene truth: {recall:.3}"));
        if recall < 0.9 {
            out.problem(format!("S2 recall@10 {recall:.3} < 0.9"));
        }
    }
    Ok(stats)
}

pub fn run(args: &RunArgs, process_start: Instant, out: &mut Outcome) -> Result<(), String> {
    let recorder = Recorder::new();
    let mut probed = Outcome::default();
    // A traced run probes the layers, and times the engine calls behind
    // this workload's requests, while it still holds the dataset.
    let mut with_dataset = |dataset: &Dataset, generate_s: f64| -> Result<(), String> {
        if !args.trace {
            return Ok(());
        }
        if args.workload == "serve_pixel" {
            let vcd = Vcd::new(dataset, VcdConfig::default());
            for (query, kind) in [
                ("q1", QueryKind::Q1Select),
                ("q2a", QueryKind::Q2aGrayscale),
            ] {
                let ms = crate::probes::exec_ms(&vcd, dataset, "reference", kind)?;
                probed.set_median(&exec_metric("reference", query), &ms);
            }
        }
        crate::probes::layers(dataset, generate_s, args, &recorder, &mut probed)
    };
    let mut env = workload::measure_setup(
        args,
        process_start,
        out,
        || setup(args, &mut with_dataset),
        |env| teardown(env).map(|_| ()),
    )?;
    out.absorb(probed);
    let result = if args.trace {
        measure_traced(args, &mut env, &recorder, out)
    } else {
        measure(args, &mut env, out)
    };
    let drain_s = teardown(env)?;
    result?;
    if args.trace {
        out.set("server.drain_ms", drain_s * 1e3);
        workload::write_trace(&args.workload, &recorder, out)?;
    }
    Ok(())
}

/// request → client wait for a connection (due→sent), wire+server
/// (sent→first byte) holding the server's own `latency_us` as it reported
/// it, and the response tail (first byte→end of line).
fn record_request(rec: &Recorder, s: &Sample) {
    let op = s.index as u64;
    let request = rec.add("request", None, op, s.due, s.received);
    rec.add(
        "client.wait_for_connection",
        Some(request),
        op,
        s.due,
        s.sent,
    );
    let exchange = rec.add("wire+server", Some(request), op, s.sent, s.first_byte);
    if let Some(us) = loadgen::parse_response(&s.response).latency_us {
        rec.add_synthetic("server.latency_us", exchange, 0, us * 1000);
    }
    rec.add("response_tail", Some(request), op, s.first_byte, s.received);
}

/// The default client's closed loop: `nproc` connections, each sending
/// its next request as soon as its last is answered, for `seconds`. With a
/// recorder, spans are recorded for the first half of the window only, so
/// the two halves give the cost of recording.
fn default_client_loop(
    env: &mut Env,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Result<Vec<Sample>, String> {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let recording = AtomicBool::new(rec.is_some());
    let kept = Collector::default();
    closed_loop(
        env,
        false,
        |_, started| {
            let elapsed = started.elapsed();
            if elapsed >= half {
                recording.store(false, Ordering::Relaxed);
            }
            elapsed.as_secs_f64() < seconds
        },
        &|s| {
            if let (Some(rec), true) = (rec, recording.load(Ordering::Relaxed)) {
                record_request(rec, s);
            }
            kept.keep(s);
        },
    )?;
    Ok(kept.into_samples())
}

/// What the quick-ACK client's closed loop measured: a client that ACKs at
/// once, so that the server, not a client-side timer, sets the pace.
struct QuickAckLoop {
    requests: u64,
    seconds: f64,
    cpu_s: f64,
}

impl QuickAckLoop {
    fn qps(&self) -> f64 {
        self.requests as f64 / self.seconds.max(1e-9)
    }
}

fn quick_ack_loop(env: &mut Env, seconds: f64) -> Result<QuickAckLoop, String> {
    let answered = AtomicU64::new(0);
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    closed_loop(
        env,
        true,
        |_, started| started.elapsed().as_secs_f64() < seconds,
        &|_| {
            answered.fetch_add(1, Ordering::Relaxed);
        },
    )?;
    Ok(QuickAckLoop {
        requests: answered.into_inner(),
        seconds: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
    })
}

fn measure(args: &RunArgs, env: &mut Env, out: &mut Outcome) -> Result<(), String> {
    // End-to-end figures come from the closed loop alone. Open-loop
    // latency at this scale is not steady enough to gate on (see
    // README.md, "Departures from the issue"); the traced run reports it.
    let start = Instant::now();
    let samples = default_client_loop(env, args.seconds, None)?;
    let seconds = samples
        .iter()
        .map(|s| s.received)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    out.note(format!(
        "{} requests closed loop over {} connections in {seconds:.2} s",
        samples.len(),
        env.conns.len(),
    ));
    let mut latency: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        let query = loadgen::parse_response(&s.response).query.unwrap_or("");
        latency
            .entry(query.to_string())
            .or_default()
            .push(ms(s.latency()));
    }
    // Every query counts once: the queries differ in cost (`serve_pixel`:
    // Q1 and Q2a are 20 ms apart), so the median of the pooled sample sits
    // between two modes and lands in either with the seed's mix.
    let per_query: Vec<f64> = latency.values().map(|ms| stats::median(ms)).collect();
    out.set_median("req_p50_ms", &per_query);
    for (query, samples) in &latency {
        out.note(format!(
            "{query}: median latency {:.3} ms over {} requests",
            stats::median(samples),
            samples.len()
        ));
    }
    // Every response was `OK`, or the gate below fails the run.
    let qps = samples.len() as f64 / seconds.max(1e-9);
    out.set("sat_qps", qps);
    // A serve workload's "pass": the time the server takes to answer
    // PASS_REQUESTS requests of the closed loop. The same information as
    // `sat_qps`, kept so that every workload prints every metric.
    out.set("pass_wall_s", PASS_REQUESTS / qps.max(1e-9));
    gate(env, out).map(|_| ())
}

/// The traced run: the default client's open loop at `OPEN_RATE` for the
/// whole window, its closed loop for a quarter as long, the quick-ACK
/// client's for 15%, then the rate ladder.
fn measure_traced(
    args: &RunArgs,
    env: &mut Env,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let limit = limit_of(&args.workload);
    let n = ((OPEN_RATE * args.seconds) as usize).max(args.sizes.min_open_requests);
    let phase_a = open_loop(env, OPEN_RATE, n, &|s| record_request(rec, s))?;
    let latency: Vec<f64> = phase_a.iter().map(|s| ms(s.latency())).collect();
    out.note(format!(
        "open loop: {} requests at {OPEN_RATE} req/s over {} connections; limit {} ms",
        phase_a.len(),
        env.conns.len(),
        limit.as_millis()
    ));
    let tail = stats::highest_tail(latency.len());
    if tail < 0.95 {
        out.note(format!(
            "{} samples: fewer than 10 lie beyond p95; the highest tail they support is p{:.0} = {:.3} ms",
            latency.len(),
            tail * 100.0,
            stats::percentile(&latency, tail).unwrap_or(0.0)
        ));
    }
    out.note(format!(
        "open-loop latency from due time: p50 {:.3} ms",
        stats::median(&latency)
    ));
    out.set(
        "req_p95_ms",
        stats::percentile(&latency, 0.95).unwrap_or(0.0),
    );
    let within = phase_a
        .iter()
        .filter(|s| loadgen::parse_response(&s.response).kind == Kind::Ok && s.latency() <= limit)
        .count();
    out.set("within_limit_share", within as f64 / phase_a.len() as f64);
    let late: Vec<f64> = phase_a.iter().map(|s| ms(s.late)).collect();
    let late_p95 = stats::percentile(&late, 0.95).unwrap_or(0.0);
    out.set("loadgen.late_p95_ms", late_p95);
    if late_p95 > 2.0 {
        out.problem(format!(
            "load generator ran {late_p95:.3} ms late at p95 (limit 2 ms): run invalid"
        ));
    }

    // The default client's closed loop, as in the untraced run: where a
    // request's time goes, on the population `req_p50_ms` is taken from.
    let closed_s = args.seconds / 4.0;
    let closed = default_client_loop(env, closed_s, Some(rec))?;
    let service: Vec<f64> = closed
        .iter()
        .filter_map(|s| loadgen::parse_response(&s.response).latency_us)
        .map(|us| us as f64 / 1e3)
        .collect();
    let wire: Vec<f64> = closed
        .iter()
        .filter_map(|s| {
            let us = loadgen::parse_response(&s.response).latency_us?;
            Some(ms(s.wire_and_server()) - us as f64 / 1e3)
        })
        .collect();
    let tail: Vec<f64> = closed.iter().map(|s| ms(s.response_tail())).collect();
    out.set_median("server.service_p50_ms", &service);
    out.set(
        "server.service_p95_ms",
        stats::percentile(&service, 0.95).unwrap_or(0.0),
    );
    out.set_median("server.wire_overhead_p50_ms", &wire);
    out.set(
        "server.wire_overhead_p95_ms",
        stats::percentile(&wire, 0.95).unwrap_or(0.0),
    );
    out.set_median("server.response_tail_p50_ms", &tail);
    let closed_p50 = stats::median(&closed.iter().map(|s| ms(s.latency())).collect::<Vec<_>>());
    let (wire_p50, service_p50, tail_p50) = (
        stats::median(&wire),
        stats::median(&service),
        stats::median(&tail),
    );
    let rest = closed_p50 - wire_p50 - service_p50 - tail_p50;
    out.note(format!(
        "closed loop, {} requests, accounting at p50: request {closed_p50:.3} ms = wire overhead {wire_p50:.3} \
         + service {service_p50:.3} + response tail {tail_p50:.3} + residual {rest:.3} ({:.1}% of the request)",
        closed.len(),
        rest / closed_p50 * 100.0
    ));
    // Recording was on for the first half of the loop.
    let half = closed.first().map_or_else(Instant::now, |s| s.due)
        + Duration::from_secs_f64(closed_s / 2.0);
    let on = closed.iter().filter(|s| s.received < half).count() as f64;
    let off = closed.len() as f64 - on;
    if on > 0.0 && off > 0.0 {
        out.set("obs.trace_overhead_share", off / on - 1.0);
        out.note(format!(
            "trace overhead: {on} requests answered in the half that recorded spans, {off} in the half that did not"
        ));
    }

    let quick = quick_ack_loop(env, args.seconds * 0.15)?;
    out.set("server.quick_ack_qps", quick.qps());
    out.set(
        "proc.cpu_ms_per_req",
        quick.cpu_s * 1e3 / quick.requests.max(1) as f64,
    );
    out.note(format!(
        "quick-ACK client: {} requests closed loop in {:.2} s, {:.2} of {} processors busy",
        quick.requests,
        quick.seconds,
        quick.cpu_s / quick.seconds.max(1e-9),
        host::parallelism()
    ));

    for conn in env.conns.iter_mut() {
        conn.quick_ack(false);
    }
    let rtts: Vec<f64> = (0..10)
        .map(|_| {
            env.conns[0]
                .exchange("STATS\n")
                .map(|reply| (reply.first_byte - reply.sent).as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("STATS: {e}"))?;
    out.set_median("server.stats_rtt_us", &rtts);
    out.set("server.start_s", env.start_s);

    // The ladder: each rate for 7% of the window, lowest first, until one
    // misses the limit. Short steps make it coarse: a step can flip.
    let step_s = args.seconds * 0.07;
    let mut max_rate = 0.0;
    for rate in LADDER {
        let t0 = Instant::now();
        let n = ((rate * step_s) as usize).max(4);
        let step = open_loop(env, rate, n, &|_| {})?;
        rec.add(
            format!("ladder({rate})"),
            None,
            u64::MAX,
            t0,
            Instant::now(),
        );
        let lat: Vec<f64> = step.iter().map(|s| ms(s.latency())).collect();
        let p95 = stats::percentile(&lat, 0.95).unwrap_or(f64::MAX);
        let all_ok = step
            .iter()
            .all(|s| loadgen::parse_response(&s.response).kind == Kind::Ok);
        // No growing backlog: the last request, too, was answered within
        // the limit of when it was due.
        let drained = step.last().is_some_and(|s| s.latency() <= limit);
        let pass = all_ok && drained && p95 <= ms(limit);
        out.note(format!(
            "ladder {rate} req/s: {} requests, p95 {p95:.2} ms, {}",
            step.len(),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if !pass {
            break;
        }
        max_rate = rate;
    }
    out.set("server.max_rate_qps", max_rate);

    let stats_json = gate(env, out)?;
    let field = |key: &str| stats_json.get(key).and_then(json::as_u64).unwrap_or(0) as f64;
    out.set(
        "admission.queue_wait_ms_per_req",
        field("queue_wait_us") / 1e3 / field("admitted").max(1.0),
    );
    out.set(
        "admission.shed_share",
        field("shed") / (field("admitted") + field("shed")).max(1.0),
    );
    Ok(())
}
