//! Multi-tenant server suite: `CancelToken` accounting under
//! concurrent sessions, and the query server's admission ledger.
//!
//! The contract under test (ISSUE 8, robustness tentpole): when many
//! sessions share the same engines and each request carries its own
//! deadline-armed [`CancelToken`], every cancelled instance surfaces
//! exactly once — as one `Err(Cancelled)` at the call site, as one
//! `cancelled_instances` tick in [`DegradationStats`] under the batch
//! driver, and as one `CANCELLED` response (settled `completed_ok`,
//! never `failed`) in the server's admission ledger. No double
//! counting, no lost instances, regardless of scheduler interleaving.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use visual_road::base::admission::{AdmissionConfig, AdmissionSnapshot};
use visual_road::base::sync::CancelToken;
use visual_road::base::{Error, Hyperparameters, Resolution};
use visual_road::prelude::*;
use visual_road::server::{QueryServer, ServerConfig};
use visual_road::vdbms::{BatchEngine, CascadeEngine, ExecContext, QueryKind};

fn tiny_dataset(seed: u64) -> Dataset {
    let hyper =
        Hyperparameters::new(1, Resolution::new(96, 54), Duration::from_secs(0.25), seed).unwrap();
    Vcg::new(GenConfig::default()).generate(&hyper).unwrap()
}

/// N sessions share one engine; each instance gets its own staggered
/// deadline token. Every instance must resolve to exactly one of
/// {completed, cancelled}: the zero-deadline ones always cancel at
/// their first frame boundary, the generous ones always complete, and
/// the totals add up with nothing counted twice or lost.
#[test]
fn every_cancelled_instance_is_accounted_exactly_once_across_sessions() {
    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 6;

    let dataset = tiny_dataset(21);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(SESSIONS * PER_SESSION), ..Default::default() },
    );
    let instances = vcd.batch(QueryKind::Q1Select).unwrap();
    let engine = Arc::new(BatchEngine::new());

    let mut handles = Vec::new();
    for session in 0..SESSIONS {
        let engine = Arc::clone(&engine);
        let instances: Vec<_> =
            instances[session * PER_SESSION..(session + 1) * PER_SESSION].to_vec();
        let videos = dataset.videos.clone();
        handles.push(std::thread::spawn(move || {
            let mut completed = 0u64;
            let mut cancelled = 0u64;
            for (i, instance) in instances.iter().enumerate() {
                // Staggered deadlines: within each session, odd
                // instances get an expired deadline (cancel at the
                // first cooperative poll), even ones a generous one.
                let deadline = if i % 2 == 1 {
                    Instant::now()
                } else {
                    Instant::now() + StdDuration::from_secs(60)
                };
                let ctx = ExecContext {
                    workers: 1,
                    cancel: CancelToken::with_deadline(deadline),
                    ..ExecContext::default()
                };
                match engine.execute(instance, &videos, &ctx) {
                    Ok(_) => completed += 1,
                    Err(Error::Cancelled(_)) => cancelled += 1,
                    Err(e) => panic!("unexpected error (no faults active): {e}"),
                }
            }
            (completed, cancelled)
        }));
    }
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for handle in handles {
        let (ok, cancel) = handle.join().unwrap();
        completed += ok;
        cancelled += cancel;
    }
    // Exactly one outcome per instance, and the deadline split is the
    // one we staggered: half expired, half generous.
    assert_eq!(completed + cancelled, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(cancelled, (SESSIONS * PER_SESSION / 2) as u64, "every expired-deadline instance cancels exactly once");
    assert_eq!(completed, (SESSIONS * PER_SESSION / 2) as u64);
}

/// The concurrent batch scheduler folds each cancellation exactly once
/// into DegradationStats: an expired deadline on every instance means
/// `cancelled_instances == batch_size`, zero `failed_instances`, and
/// the batch still completes.
#[test]
fn concurrent_scheduler_folds_each_cancellation_exactly_once() {
    const BATCH: usize = 8;
    let dataset = tiny_dataset(22);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig {
            batch_size: Some(BATCH),
            batch_workers: Some(4),
            // Every instance blows its deadline at the first frame.
            instance_deadline: Some(StdDuration::from_micros(1)),
            ..Default::default()
        },
    );
    let mut engine = BatchEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    let q = report.query(QueryKind::Q1Select).unwrap();
    let QueryStatus::Completed { degradation, scheduler, .. } = &q.status else {
        panic!("deadline batch must complete degraded, got {:?}", q.status);
    };
    assert_eq!(degradation.cancelled_instances, BATCH as u64, "{degradation:?}");
    assert_eq!(degradation.failed_instances, 0, "{degradation:?}");
    assert_eq!(scheduler.instances, BATCH, "every instance was dispatched");
    assert_eq!(scheduler.deadline_misses, BATCH);
}

fn request(conn: &mut std::net::TcpStream, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    conn.flush().unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim().to_string()
}

/// Server-level accounting: concurrent sessions with staggered
/// deadlines; the admission ledger must record every request exactly
/// once, with cancellations settled as completions (a client deadline
/// is not an engine failure) and driver-observed counts matching the
/// `STATS` ledger field for field.
#[test]
fn server_ledger_accounts_staggered_deadline_sessions_exactly_once() {
    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 5;

    let server = QueryServer::start(
        tiny_dataset(23),
        vec![Box::new(BatchEngine::new())],
        ServerConfig {
            queries: vec![QueryKind::Q1Select],
            // Enough slots that no session ever queues: the expired
            // deadlines must fire *inside* execution (CANCELLED), not
            // at admission (SHED deadline_expired), so the ledger
            // records every request as admitted.
            admission: AdmissionConfig {
                max_concurrent: 2 * SESSIONS,
                tenant_quota: 2 * SESSIONS,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            std::thread::spawn(move || {
                let mut conn = std::net::TcpStream::connect(addr).unwrap();
                let mut ok = 0u64;
                let mut cancelled = 0u64;
                for _ in 0..PER_SESSION {
                    // Staggered per session: sessions 0/2 run to
                    // completion, sessions 1/3 carry an expired
                    // deadline and must always cancel.
                    let line = if session % 2 == 1 {
                        format!("EXEC tenant=t{session} priority=high query=Q1 deadline_ms=0")
                    } else {
                        format!("EXEC tenant=t{session} priority=high query=Q1")
                    };
                    let r = request(&mut conn, &line);
                    if r.starts_with("OK ") {
                        ok += 1;
                    } else if r.starts_with("CANCELLED ") {
                        cancelled += 1;
                    } else {
                        panic!("unexpected response: {r}");
                    }
                }
                (ok, cancelled)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut cancelled = 0u64;
    for handle in handles {
        let (o, c) = handle.join().unwrap();
        ok += o;
        cancelled += c;
    }
    assert_eq!(ok + cancelled, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(cancelled, (SESSIONS / 2 * PER_SESSION) as u64, "expired-deadline sessions always cancel");

    // The ledger agrees exactly: every request admitted once, every
    // cancellation settled as a completion (breakers see no failure).
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let stats = request(&mut conn, "STATS");
    let ledger = AdmissionSnapshot::parse(stats.strip_prefix("STATS ").unwrap()).unwrap();
    for session in 0..SESSIONS {
        let t = ledger.tenants[&format!("t{session}")];
        let per_session = PER_SESSION as u64;
        assert_eq!(
            (t.admitted, t.completed_ok, t.failed),
            (per_session, per_session, 0),
            "cancellations settle as completions — t{session} ledger: {t:?}"
        );
    }

    server.shutdown();
    assert!(server.wait().clean, "drain must be clean after all sessions finished");
}

// ---------------------------------------------------------------------------
// Wire golden
// ---------------------------------------------------------------------------

/// Zero the digits after every `latency_us` / `queue_wait_us` key, in
/// both spellings (`latency_us=123` on the wire, `"latency_us": 123`
/// in the query log and `STATS`). Nothing else a scripted session emits
/// depends on the clock.
fn zero_timings(text: &str) -> String {
    const KEYS: [&str; 2] = ["latency_us", "queue_wait_us"];
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = KEYS.iter().filter_map(|k| rest.find(k).map(|i| i + k.len())).min() {
        let tail = &rest[at..];
        let sep = tail.len() - tail.trim_start_matches(['"', ':', '=', ' ']).len();
        let value = &tail[sep..];
        let digits = value.len() - value.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        out.push_str(&rest[..at + sep]);
        if digits > 0 {
            out.push('0');
        }
        rest = &rest[at + sep + digits..];
    }
    out.push_str(rest);
    out
}

/// Everything one scripted session leaves behind, timings zeroed:
/// response lines in order, the query log, and the drain report.
struct Session {
    responses: Vec<String>,
    qlog: Vec<String>,
    final_stats: String,
}

/// Compare line by line; on a mismatch print the whole actual side as
/// Rust string literals, so re-deriving the golden is a copy-paste.
fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    if actual.iter().map(String::as_str).ne(expected.iter().copied()) {
        let literals: Vec<String> = actual.iter().map(|l| format!("    {l:?},")).collect();
        panic!("{what} changed; actual:\n{}\n", literals.join("\n"));
    }
}

/// Start a server over `tiny_dataset(38)` with batch + cascade engines
/// and Q1/Q2a pools, run `script` against one connection, `SHUTDOWN`,
/// and collect the session's artifacts. The closure gets the main
/// connection, the server address (for a second, slot-holding
/// connection) and the response sink.
fn scripted_session(
    tag: &str,
    cfg: ServerConfig,
    script: impl FnOnce(&mut std::net::TcpStream, std::net::SocketAddr, &mut Vec<String>),
) -> Session {
    use visual_road::base::obs::slo::SloConfig;
    let path = std::env::temp_dir()
        .join(format!("vr_wire_golden_{}_{tag}.jsonl", std::process::id()));
    let server = QueryServer::start(
        tiny_dataset(38),
        vec![Box::new(BatchEngine::new()), Box::new(CascadeEngine::new())],
        ServerConfig {
            queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale],
            // Pinned, not the host's core count: the plan text (and so
            // the digest) names the worker budget.
            workers: 2,
            qlog_path: Some(path.to_str().unwrap().to_string()),
            // Objectives no request can miss: burn rates stay exact.
            slo: SloConfig {
                high: StdDuration::from_secs(60),
                low: StdDuration::from_secs(60),
                ..SloConfig::default()
            },
            ..cfg
        },
    )
    .unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut responses = Vec::new();
    script(&mut conn, server.addr(), &mut responses);
    responses.push(request(&mut conn, "SHUTDOWN"));
    let report = server.wait();
    assert!(report.clean, "{tag}: drain must be clean");
    let qlog = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    Session {
        responses: responses.iter().map(|r| zero_timings(r)).collect(),
        qlog: qlog.lines().map(zero_timings).collect(),
        final_stats: zero_timings(&report.stats_json),
    }
}

/// The wire protocol and the query log, byte for byte. Three scripted
/// sessions cover every response form `EXEC` can produce without a
/// fault plan: OK (pixel, semantic on both routes, degraded),
/// CANCELLED, SHED (two reasons, pixel and semantic), every malformed
/// `EXEC` in precedence order, HEALTH, STATS, SHUTDOWN, and a
/// slow-query exemplar. The literals were captured on the commit before
/// the request path was rewritten (see `.claude/skills/verify/SKILL.md`
/// for how to re-derive them); malformed lines come after the last
/// logged request so the log reads the same whether or not a rejected
/// line consumes a request id.
#[test]
fn wire_and_log_are_pinned() {
    // Session A: index loaded, one execution slot and no queue, so a
    // held slot sheds whatever arrives behind it.
    let a = scripted_session(
        "a",
        ServerConfig {
            use_index: true,
            admission: AdmissionConfig {
                max_concurrent: 1,
                queue_depth: 0,
                shed_load: 1.0,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
        |conn, addr, out| {
            for line in [
                "EXEC tenant=gold priority=high query=Q1",
                "exec tenant=gold priority=HIGH query=q2(a) engine=batch",
                "EXEC tenant=gold query=Q1 engine=cascade",
                "EXEC tenant=gold priority=high query=S1",
                "EXEC tenant=gold priority=high query=S2",
                "EXEC tenant=bronze priority=low query=S3 engine=nope online=abc deadline_ms=0",
                "EXEC tenant=rush priority=high query=Q1 deadline_ms=0",
                "EXEC tenant=rush priority=high query=Q2a deadline_ms=60000",
                "HEALTH",
            ] {
                out.push(request(conn, line));
            }
            // Hold the only slot from a second connection: a paced
            // online ingest of a 0.25 s clip at quarter speed.
            let holder = std::thread::spawn(move || {
                let mut conn = std::net::TcpStream::connect(addr).unwrap();
                request(&mut conn, "EXEC tenant=hold priority=high query=Q1 online=0.25")
            });
            while request(conn, "HEALTH") != "OK active=1 queued=0 draining=0" {
                std::thread::sleep(StdDuration::from_millis(2));
            }
            out.push(request(conn, "EXEC tenant=gold priority=high query=Q1"));
            out.push(request(conn, "EXEC tenant=bronze priority=low query=S1"));
            out.push(holder.join().unwrap());
            for line in [
                "STATS",
                // Malformed, in the order the checks run.
                "BOGUS tenant=gold",
                "EXEC priority=urgent",
                "EXEC tenant= query=Q1",
                "EXEC tenant=gold priority=urgent",
                "EXEC tenant=gold priority=high engine=nope",
                "EXEC tenant=gold query=Q9 engine=nope deadline_ms=abc",
                "EXEC tenant=gold query=s1",
                "EXEC tenant=gold query=Q1 engine=nope deadline_ms=abc",
                "EXEC tenant=gold query=Q2a engine=cascade deadline_ms=abc",
                "EXEC tenant=gold query=Q1 deadline_ms=abc online=abc",
                "EXEC tenant=gold query=Q1 deadline_ms=-1",
                "EXEC tenant=gold query=Q1 online=abc",
                "EXEC tenant=gold query=Q1 online=0",
                "EXEC tenant=gold query=S1 deadline_ms=abc",
                "HEALTH",
            ] {
                out.push(request(conn, line));
            }
        },
    );
    assert_lines(
        "session A responses",
        &a.responses,
        &[
        "OK tenant=gold query=Q1 engine=batch latency_us=0 degraded=0 route=rescan",
        "OK tenant=gold query=Q2a engine=batch latency_us=0 degraded=0 route=rescan",
        "OK tenant=gold query=Q1 engine=cascade latency_us=0 degraded=0 route=rescan",
        "OK tenant=gold query=S1 engine=semantic latency_us=0 degraded=0 route=index count=29",
        "OK tenant=gold query=S2 engine=semantic latency_us=0 degraded=0 route=index segments=[3:0=3,0:0=2,1:0=2,2:0=0]",
        "OK tenant=bronze query=S3 engine=semantic latency_us=0 degraded=0 route=index similar=[1@0.1947,7@0.2079,13@0.2911,2@0.7106,23@1.8340,16@2.0103,24@2.0472,12@2.1118,4@2.2083,14@2.3035]",
        "CANCELLED tenant=rush query=Q1 latency_us=0",
        "OK tenant=rush query=Q2a engine=batch latency_us=0 degraded=0 route=rescan",
        "OK active=0 queued=0 draining=0",
        "SHED reason=queue_full",
        "SHED reason=saturated",
        "OK tenant=hold query=Q1 engine=batch latency_us=0 degraded=0 route=rescan",
        "STATS {  \"active\": 0,  \"queued\": 0,  \"draining\": false,  \"admitted\": 9,  \"degraded\": 0,  \"shed\": 2,  \"breaker_trips\": 0,  \"index_served\": 3,  \"rescan_served\": 5,  \"queue_waited\": 0,  \"queue_wait_us\": 0,  \"tenants\": {    \"bronze\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 1, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 1, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 1, \"rescan_served\": 0, \"queue_waited\": 0, \"queue_wait_us\": 0},    \"gold\": {\"admitted\": 5, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 1, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 5, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 2, \"rescan_served\": 3, \"queue_waited\": 0, \"queue_wait_us\": 0},    \"hold\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 1, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 1, \"queue_waited\": 0, \"queue_wait_us\": 0},    \"rush\": {\"admitted\": 2, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 2, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 1, \"queue_waited\": 0, \"queue_wait_us\": 0}  },  \"slo\": {    \"objective_ms\": {\"high\": 60000, \"low\": 60000},    \"target\": 0.950,    \"window\": 256,    \"tenants\": {      \"bronze/low\": {\"total\": 2, \"violations\": 1, \"window_total\": 2, \"window_violations\": 1, \"bad_fraction\": 0.500, \"burn_rate\": 10.000},      \"gold/high\": {\"total\": 5, \"violations\": 1, \"window_total\": 5, \"window_violations\": 1, \"bad_fraction\": 0.200, \"burn_rate\": 4.000},      \"gold/low\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000},      \"hold/high\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000},      \"rush/high\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000}    }  }}",
        "ERR unknown request \"BOGUS\"",
        "ERR EXEC needs tenant=<id>",
        "ERR EXEC needs tenant=<id>",
        "ERR priority must be high or low, got \"urgent\"",
        "ERR EXEC needs query=<Q1|Q2a|...>",
        "ERR no pool for query \"Q9\" (server pools: [\"Q1\", \"Q2(a)\"])",
        "ERR no pool for query \"s1\" (server pools: [\"Q1\", \"Q2(a)\"])",
        "ERR unknown engine \"nope\" (loaded: [\"batch\", \"cascade\"])",
        "ERR engine cascade does not support Q2(a)",
        "ERR deadline_ms wants an integer",
        "ERR deadline_ms wants an integer",
        "ERR online wants a positive speedup factor",
        "ERR online wants a positive speedup factor",
        "ERR deadline_ms wants an integer",
        "OK active=0 queued=0 draining=0",
        "OK draining",
        ],
    );
    assert_lines(
        "session A qlog",
        &a.qlog,
        &[
        "{\"seq\": 1, \"req\": 1, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"6d98e991aab3420f\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 2, \"req\": 2, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"q2(a)\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"48fe73b0aa1fa0dc\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 3, \"req\": 3, \"tenant\": \"gold\", \"priority\": \"low\", \"query\": \"Q1\", \"engine\": \"cascade\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"bb7b86afcc58cbc4\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 4, \"req\": 4, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S1\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"index\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"b5e8e5fe552347dd\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 5, \"req\": 5, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S2\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"index\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"b5e8e5fe552347dd\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 6, \"req\": 6, \"tenant\": \"bronze\", \"priority\": \"low\", \"query\": \"S3\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"index\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": 0, \"plan_digest\": \"b5e8e5fe552347dd\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 7, \"req\": 7, \"tenant\": \"rush\", \"priority\": \"high\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"cancelled\", \"shed_reason\": null, \"degraded\": false, \"route\": null, \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": 0, \"plan_digest\": \"6d98e991aab3420f\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 8, \"req\": 8, \"tenant\": \"rush\", \"priority\": \"high\", \"query\": \"Q2a\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": 60000, \"plan_digest\": \"48fe73b0aa1fa0dc\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 9, \"req\": 10, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"shed\", \"shed_reason\": \"queue_full\", \"degraded\": false, \"route\": null, \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 10, \"req\": 11, \"tenant\": \"bronze\", \"priority\": \"low\", \"query\": \"S1\", \"engine\": \"semantic\", \"outcome\": \"shed\", \"shed_reason\": \"saturated\", \"degraded\": false, \"route\": null, \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 11, \"req\": 9, \"tenant\": \"hold\", \"priority\": \"high\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"6d98e991aab3420f\", \"slow_us\": 0, \"exemplar\": null}",
        ],
    );
    assert_lines(
        "session A final stats",
        &[a.final_stats],
        &[
        "{\n  \"active\": 0,\n  \"queued\": 0,\n  \"draining\": true,\n  \"admitted\": 9,\n  \"degraded\": 0,\n  \"shed\": 2,\n  \"breaker_trips\": 0,\n  \"index_served\": 3,\n  \"rescan_served\": 5,\n  \"queue_waited\": 0,\n  \"queue_wait_us\": 0,\n  \"tenants\": {\n    \"bronze\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 1, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 1, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 1, \"rescan_served\": 0, \"queue_waited\": 0, \"queue_wait_us\": 0},\n    \"gold\": {\"admitted\": 5, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 1, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 5, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 2, \"rescan_served\": 3, \"queue_waited\": 0, \"queue_wait_us\": 0},\n    \"hold\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 1, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 1, \"queue_waited\": 0, \"queue_wait_us\": 0},\n    \"rush\": {\"admitted\": 2, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 2, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 1, \"queue_waited\": 0, \"queue_wait_us\": 0}\n  },\n  \"slo\": {\n    \"objective_ms\": {\"high\": 60000, \"low\": 60000},\n    \"target\": 0.950,\n    \"window\": 256,\n    \"tenants\": {\n      \"bronze/low\": {\"total\": 2, \"violations\": 1, \"window_total\": 2, \"window_violations\": 1, \"bad_fraction\": 0.500, \"burn_rate\": 10.000},\n      \"gold/high\": {\"total\": 5, \"violations\": 1, \"window_total\": 5, \"window_violations\": 1, \"bad_fraction\": 0.200, \"burn_rate\": 4.000},\n      \"gold/low\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000},\n      \"hold/high\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000},\n      \"rush/high\": {\"total\": 1, \"violations\": 0, \"window_total\": 1, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000}\n    }\n  }\n}\n",
        ],
    );

    // Session B: no index (semantic queries rescan), and low-priority
    // work always admitted degraded.
    let b = scripted_session(
        "b",
        ServerConfig {
            admission: AdmissionConfig { degrade_load: 0.0, ..AdmissionConfig::default() },
            ..ServerConfig::default()
        },
        |conn, _, out| {
            for line in [
                "EXEC tenant=gold priority=high query=S1",
                "EXEC tenant=gold priority=high query=S2",
                "EXEC tenant=gold priority=high query=S3",
                "EXEC tenant=bronze query=Q1",
                "EXEC tenant=bronze query=S1",
                "STATS",
            ] {
                out.push(request(conn, line));
            }
        },
    );
    assert_lines(
        "session B responses",
        &b.responses,
        &[
        "OK tenant=gold query=S1 engine=semantic latency_us=0 degraded=0 route=rescan count=29",
        "OK tenant=gold query=S2 engine=semantic latency_us=0 degraded=0 route=rescan segments=[3:0=3,0:0=2,1:0=2,2:0=0]",
        "OK tenant=gold query=S3 engine=semantic latency_us=0 degraded=0 route=rescan similar=[1@0.1947,7@0.2079,13@0.2911,2@0.7106,23@1.8340,16@2.0103,24@2.0472,12@2.1118,4@2.2083,14@2.3035]",
        "OK tenant=bronze query=Q1 engine=batch latency_us=0 degraded=1 route=rescan",
        "OK tenant=bronze query=S1 engine=semantic latency_us=0 degraded=1 route=rescan count=29",
        "STATS {  \"active\": 0,  \"queued\": 0,  \"draining\": false,  \"admitted\": 5,  \"degraded\": 2,  \"shed\": 0,  \"breaker_trips\": 0,  \"index_served\": 0,  \"rescan_served\": 5,  \"queue_waited\": 0,  \"queue_wait_us\": 0,  \"tenants\": {    \"bronze\": {\"admitted\": 2, \"degraded\": 2, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 2, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 2, \"queue_waited\": 0, \"queue_wait_us\": 0},    \"gold\": {\"admitted\": 3, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 3, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 3, \"queue_waited\": 0, \"queue_wait_us\": 0}  },  \"slo\": {    \"objective_ms\": {\"high\": 60000, \"low\": 60000},    \"target\": 0.950,    \"window\": 256,    \"tenants\": {      \"bronze/low\": {\"total\": 2, \"violations\": 0, \"window_total\": 2, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000},      \"gold/high\": {\"total\": 3, \"violations\": 0, \"window_total\": 3, \"window_violations\": 0, \"bad_fraction\": 0.000, \"burn_rate\": 0.000}    }  }}",
        "OK draining",
        ],
    );
    assert_lines(
        "session B qlog",
        &b.qlog,
        &[
        "{\"seq\": 1, \"req\": 1, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S1\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"8e956d8040eef1b2\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 2, \"req\": 2, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S2\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"8e956d8040eef1b2\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 3, \"req\": 3, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S3\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"8e956d8040eef1b2\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 4, \"req\": 4, \"tenant\": \"bronze\", \"priority\": \"low\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": true, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"730ad7d5e2ecd13e\", \"slow_us\": 0, \"exemplar\": null}",
        "{\"seq\": 5, \"req\": 5, \"tenant\": \"bronze\", \"priority\": \"low\", \"query\": \"S1\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": true, \"route\": \"rescan\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"8e956d8040eef1b2\", \"slow_us\": 0, \"exemplar\": null}",
        ],
    );

    // Session C: every request is "slow", so the semantic record embeds
    // its exemplar — the optimizer's decision text, which no clock
    // touches. (Pixel exemplars carry measured stage times; the module
    // test `slow_query_exemplar_captures_the_annotated_plan` has them.)
    let c = scripted_session(
        "c",
        ServerConfig {
            use_index: true,
            slow_query: Some(StdDuration::from_nanos(1)),
            ..ServerConfig::default()
        },
        |conn, _, out| out.push(request(conn, "EXEC tenant=gold priority=high query=S2")),
    );
    assert_lines(
        "session C responses",
        &c.responses,
        &[
        "OK tenant=gold query=S2 engine=semantic latency_us=0 degraded=0 route=index segments=[3:0=3,0:0=2,1:0=2,2:0=0]",
        "OK draining",
        ],
    );
    assert_lines(
        "session C qlog",
        &c.qlog,
        &[
        "{\"seq\": 1, \"req\": 1, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"S2\", \"engine\": \"semantic\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": false, \"route\": \"index\", \"queue_wait_us\": 0, \"latency_us\": 0, \"deadline_ms\": null, \"plan_digest\": \"b5e8e5fe552347dd\", \"slow_us\": 0, \"exemplar\": \"plans considered (cost-based optimizer):\\n  -> index-scan workers=1       est    7.25us  chosen\\n     streaming workers=1        est  112.00us  rejected (+1444.8%)\\n\"}",
        ],
    );
}

/// A line rejected after its tenant parsed must not consume a request
/// id: ids exist to be joined against the query log, and a rejected
/// line has no record there.
#[test]
fn request_ids_have_no_holes() {
    let session = scripted_session("ids", ServerConfig::default(), |conn, _, out| {
        out.push(request(conn, "EXEC tenant=a query=Q9"));
        out.push(request(conn, "EXEC tenant=a query=Q1 deadline_ms=abc"));
        out.push(request(conn, "EXEC tenant=a query=S1 deadline_ms=abc"));
        out.push(request(conn, "EXEC tenant=a priority=high query=Q1"));
    });
    let (rejected, accepted) = session.responses.split_at(3);
    assert!(rejected.iter().all(|r| r.starts_with("ERR ")), "{rejected:?}");
    assert!(accepted[0].starts_with("OK "), "{accepted:?}");
    assert_eq!(session.qlog.len(), 1, "{:?}", session.qlog);
    assert!(session.qlog[0].starts_with("{\"seq\": 1, \"req\": 1, "), "{}", session.qlog[0]);
}
