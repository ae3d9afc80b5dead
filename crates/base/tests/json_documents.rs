//! Every JSON document `vr-base` emits, pinned byte for byte.
//!
//! The constants were captured from the commit before `vr_base::json`
//! replaced the hand-rolled renderers (this file, run there, printed
//! them), so a writer change that moves a byte of `STATS` or the
//! query log fails here before a CI grep does. Each
//! document must also be one `json::parse` accepts. The chrome trace
//! and the `slo` block on its own are pinned in `obs::trace`'s and
//! `obs::slo`'s own tests (they need private renderers).

use std::collections::BTreeMap;
use std::time::Duration;
use vr_base::admission::{AdmissionSnapshot, Priority, TenantCounters};
use vr_base::json;
use vr_base::obs::qlog::{Outcome, QueryLog, RequestRecord};
use vr_base::obs::slo::{SloConfig, SloTracker};

#[track_caller]
fn pinned(actual: &str, golden: &str) {
    assert_eq!(actual, golden);
    json::parse(actual).expect("the strict parser reads what the writer wrote");
}

fn snapshot() -> AdmissionSnapshot {
    let gold = TenantCounters {
        admitted: 5,
        queue_waited: 1,
        queue_wait_us: 1234,
        degraded: 2,
        shed_saturated: 3,
        shed_queue_full: 4,
        shed_quota: 6,
        shed_breaker: 7,
        shed_draining: 8,
        shed_deadline: 9,
        completed_ok: 4,
        failed: 1,
        breaker_trips: 10,
        index_served: 3,
        rescan_served: 1,
    };
    let mut tenants = BTreeMap::new();
    tenants.insert("gold".to_string(), gold);
    tenants.insert("a\"b".to_string(), TenantCounters { admitted: 1, ..Default::default() });
    AdmissionSnapshot { active: 2, queued: 1, draining: true, tenants }
}

fn tracker() -> SloTracker {
    let t = SloTracker::new(SloConfig {
        high: Duration::from_millis(10),
        low: Duration::from_millis(250),
        target: 0.9,
        window: 4,
    });
    t.record("bronze", Priority::Low, Outcome::Shed, Duration::ZERO);
    t.record("gold", Priority::High, Outcome::Ok, Duration::from_millis(1));
    t.record("gold", Priority::High, Outcome::Ok, Duration::from_millis(50));
    t.record("gold", Priority::High, Outcome::Ok, Duration::from_millis(2));
    t
}

const STATS: &str = "{\n  \"active\": 2,\n  \"queued\": 1,\n  \"draining\": true,\n  \"admitted\": 6,\n  \"degraded\": 2,\n  \"shed\": 37,\n  \"breaker_trips\": 10,\n  \"index_served\": 3,\n  \"rescan_served\": 1,\n  \"queue_waited\": 1,\n  \"queue_wait_us\": 1234,\n  \"tenants\": {\n    \"a\\\"b\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 0, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 0, \"queue_waited\": 0, \"queue_wait_us\": 0},\n    \"gold\": {\"admitted\": 5, \"degraded\": 2, \"shed_saturated\": 3, \"shed_queue_full\": 4, \"shed_quota\": 6, \"shed_breaker\": 7, \"shed_draining\": 8, \"shed_deadline\": 9, \"completed_ok\": 4, \"failed\": 1, \"breaker_trips\": 10, \"index_served\": 3, \"rescan_served\": 1, \"queue_waited\": 1, \"queue_wait_us\": 1234}\n  }\n}\n";
const STATS_SLO: &str = "{\n  \"active\": 2,\n  \"queued\": 1,\n  \"draining\": true,\n  \"admitted\": 6,\n  \"degraded\": 2,\n  \"shed\": 37,\n  \"breaker_trips\": 10,\n  \"index_served\": 3,\n  \"rescan_served\": 1,\n  \"queue_waited\": 1,\n  \"queue_wait_us\": 1234,\n  \"tenants\": {\n    \"a\\\"b\": {\"admitted\": 1, \"degraded\": 0, \"shed_saturated\": 0, \"shed_queue_full\": 0, \"shed_quota\": 0, \"shed_breaker\": 0, \"shed_draining\": 0, \"shed_deadline\": 0, \"completed_ok\": 0, \"failed\": 0, \"breaker_trips\": 0, \"index_served\": 0, \"rescan_served\": 0, \"queue_waited\": 0, \"queue_wait_us\": 0},\n    \"gold\": {\"admitted\": 5, \"degraded\": 2, \"shed_saturated\": 3, \"shed_queue_full\": 4, \"shed_quota\": 6, \"shed_breaker\": 7, \"shed_draining\": 8, \"shed_deadline\": 9, \"completed_ok\": 4, \"failed\": 1, \"breaker_trips\": 10, \"index_served\": 3, \"rescan_served\": 1, \"queue_waited\": 1, \"queue_wait_us\": 1234}\n  },\n  \"slo\": {\n    \"objective_ms\": {\"high\": 10, \"low\": 250},\n    \"target\": 0.900,\n    \"window\": 4,\n    \"tenants\": {\n      \"bronze/low\": {\"total\": 1, \"violations\": 1, \"window_total\": 1, \"window_violations\": 1, \"bad_fraction\": 1.000, \"burn_rate\": 10.000},\n      \"gold/high\": {\"total\": 3, \"violations\": 1, \"window_total\": 3, \"window_violations\": 1, \"bad_fraction\": 0.333, \"burn_rate\": 3.333}\n    }\n  }\n}\n";
/// The one difference from the captured bytes: a ledger with no tenant
/// yet rendered `"tenants": {\n\n  }`; an empty block is now `{}` here
/// as it already was in the `slo` block and `metrics.json`.
const STATS_EMPTY_SLO: &str = "{\n  \"active\": 0,\n  \"queued\": 0,\n  \"draining\": false,\n  \"admitted\": 0,\n  \"degraded\": 0,\n  \"shed\": 0,\n  \"breaker_trips\": 0,\n  \"index_served\": 0,\n  \"rescan_served\": 0,\n  \"queue_waited\": 0,\n  \"queue_wait_us\": 0,\n  \"tenants\": {},\n  \"slo\": {\n    \"objective_ms\": {\"high\": 5000, \"low\": 30000},\n    \"target\": 0.950,\n    \"window\": 256,\n    \"tenants\": {}\n  }\n}\n";

#[test]
fn stats_with_and_without_slo_and_the_slo_view() {
    pinned(&snapshot().to_json(), STATS);
    pinned(&snapshot().to_json_with_slo(Some(&tracker())), STATS_SLO);
    let idle = SloTracker::new(SloConfig::default());
    pinned(&AdmissionSnapshot::default().to_json_with_slo(Some(&idle)), STATS_EMPTY_SLO);
}

const QLOG: &str = "{\"seq\": 1, \"req\": 7, \"tenant\": \"go\\\"ld\", \"priority\": \"high\", \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"ok\", \"shed_reason\": null, \"degraded\": true, \"route\": \"rescan\", \"queue_wait_us\": 12, \"latency_us\": 3400, \"deadline_ms\": 3000, \"plan_digest\": \"00c0ffee00c0ffee\", \"slow_us\": 1000, \"exemplar\": \"scan: rows=7\\n  \\\"kernel\\\"\\twall=2ms \\\\ \\u0001\"}\n{\"seq\": 2, \"req\": 8, \"tenant\": \"bronze\", \"priority\": \"low\", \"query\": \"S2\", \"engine\": \"semantic\", \"outcome\": \"shed\", \"shed_reason\": \"saturated\", \"degraded\": false, \"route\": null, \"queue_wait_us\": 0, \"latency_us\": 5, \"deadline_ms\": null, \"plan_digest\": \"\", \"slow_us\": 1000, \"exemplar\": null}\n";
const QLOG_NO_SLOW: &str = "{\"seq\": 1, \"req\": 1, \"tenant\": \"t\", \"priority\": \"low\", \"query\": \"Q2a\", \"engine\": \"reference\", \"outcome\": \"cancelled\", \"shed_reason\": null, \"degraded\": false, \"route\": \"index\", \"queue_wait_us\": 1, \"latency_us\": 2, \"deadline_ms\": 1, \"plan_digest\": \"d\", \"slow_us\": 0, \"exemplar\": null}\n";

/// Every `null` / non-`null` combination of the optional fields, an
/// exemplar with quotes, newlines, a tab, a backslash and a control
/// character, and both states of the slow-query threshold.
#[test]
fn query_log_records() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let loud = dir.join("json_documents_qlog.jsonl");
    let silent = dir.join("json_documents_qlog_no_slow.jsonl");
    let log = QueryLog::open(loud.to_str(), Some(Duration::from_millis(1))).unwrap();
    log.append(&RequestRecord {
        req: 7,
        tenant: "go\"ld".into(),
        priority: Priority::High,
        query: "Q1".into(),
        engine: "batch".into(),
        outcome: Outcome::Ok,
        shed_reason: None,
        degraded: true,
        route: Some("rescan"),
        queue_wait: Duration::from_micros(12),
        latency: Duration::from_micros(3400),
        deadline: Some(Duration::from_millis(3000)),
        plan_digest: "00c0ffee00c0ffee".into(),
        exemplar: Some("scan: rows=7\n  \"kernel\"\twall=2ms \\ \u{1}".into()),
    });
    log.append(&RequestRecord {
        req: 8,
        tenant: "bronze".into(),
        priority: Priority::Low,
        query: "S2".into(),
        engine: "semantic".into(),
        outcome: Outcome::Shed,
        shed_reason: Some("saturated"),
        degraded: false,
        route: None,
        queue_wait: Duration::ZERO,
        latency: Duration::from_micros(5),
        deadline: None,
        plan_digest: String::new(),
        exemplar: None,
    });
    let quiet = QueryLog::open(silent.to_str(), None).unwrap();
    quiet.append(&RequestRecord {
        req: 1,
        tenant: "t".into(),
        priority: Priority::Low,
        query: "Q2a".into(),
        engine: "reference".into(),
        outcome: Outcome::Cancelled,
        shed_reason: None,
        degraded: false,
        route: Some("index"),
        queue_wait: Duration::from_micros(1),
        latency: Duration::from_micros(2),
        deadline: Some(Duration::from_millis(1)),
        plan_digest: "d".into(),
        exemplar: None,
    });
    assert_eq!(std::fs::read_to_string(&loud).unwrap(), QLOG);
    assert_eq!(std::fs::read_to_string(&silent).unwrap(), QLOG_NO_SLOW);
    for line in QLOG.lines().chain(QLOG_NO_SLOW.lines()) {
        json::parse(line).expect("each record is one document");
    }
}

/// Cut anywhere, a `STATS` body is an error, never a panic — what
/// `stress_test` relies on when a socket closes mid-reply.
#[test]
fn truncated_stats_never_parse_and_never_panic() {
    for cut in 0..STATS_SLO.trim_end().len() {
        if STATS_SLO.is_char_boundary(cut) {
            assert!(json::parse(&STATS_SLO[..cut]).is_err(), "accepted the first {cut} bytes");
        }
    }
}
