//! The `stress_test` fleets against an in-process `QueryServer`, with
//! the server and driver configuration `visualroad serve` and the
//! driver are given on the command line: the exact ledger, shedding
//! and query-log reconciliation under chaos, the SLO layer's burn
//! rates, and the index/rescan route split. A driver that outlives its
//! limit is killed and its test failed, as is a drain that never ends.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use visual_road::base::admission::AdmissionConfig;
use visual_road::base::fault::{self, FaultInjector};
use visual_road::base::json::{self, Value};
use visual_road::base::obs::serve::MetricsServer;
use visual_road::base::obs::slo::SloConfig;
use visual_road::server::{QueryServer, ServerConfig};
use visual_road::vdbms::{BatchEngine, QueryKind};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::tiny_dataset;
#[path = "../../../tests/common/child.rs"]
mod child;
use child::Bounded;

/// How long a `stress_test` run, and then the drain, may take.
const FLEET_LIMIT: Duration = Duration::from_secs(600);

/// A fleet's fault plan, the `/slo` and `/requests` views and the
/// metrics registry are process-global: one fleet at a time.
static FLEET: Mutex<()> = Mutex::new(());

/// A started fleet server; the fault plan it was started under is
/// cleared when it drops, even if the test panics.
struct Fleet {
    server: Option<QueryServer>,
    _lock: MutexGuard<'static, ()>,
}

impl Fleet {
    fn start(cfg: ServerConfig, faults: Option<&str>) -> Self {
        let lock = FLEET.lock().unwrap_or_else(|e| e.into_inner());
        let dataset = tiny_dataset(0);
        // After generation, as the CLI does: faults hit the query path
        // of a pristine dataset.
        if let Some(spec) = faults {
            fault::install(Some(Arc::new(FaultInjector::from_spec(spec, 7).unwrap())));
        }
        let server = QueryServer::start(dataset, vec![Box::new(BatchEngine::new())], cfg).unwrap();
        Self { server: Some(server), _lock: lock }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().unwrap().addr()
    }

    /// `stress_test --addr ADDR ARGS`; panics with its output unless it
    /// passes.
    fn stress(&self, args: &[&str]) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stress_test"));
        let (driver, _) = Bounded::spawn(cmd.arg("--addr").arg(self.addr().to_string()).args(args), FLEET_LIMIT);
        let out = driver.finish();
        let log = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.status.success(), "stress_test {args:?} failed:\n{log}");
        assert!(!log.contains("panicked at"), "{log}");
    }

    /// Wait for the drain a `SHUTDOWN` started; it must be clean.
    fn drained(mut self) {
        let server = self.server.take().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.wait().clean));
        assert!(rx.recv_timeout(FLEET_LIMIT).expect("the drain ended in time"), "drain was not clean");
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        fault::install(None);
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fleet-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// `trace_check --qlog FILE` must pass.
fn qlog_validates(qlog: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_check")).arg("--qlog").arg(qlog).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// `serve --queries Q1,Q2a --engine batch --workers 2 --max-concurrent 2
/// --queue-depth 4 --tenant-quota 8 --degrade-load 0.9 --shed-load 1.5
/// --qlog-out FILE`.
fn chaos_server(qlog: &Path) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 4,
            tenant_quota: 8,
            degrade_load: 0.9,
            shed_load: 1.5,
            ..AdmissionConfig::default()
        },
        workers: 2,
        queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale],
        qlog_path: Some(path(qlog).to_string()),
        ..ServerConfig::default()
    }
}

/// Two gold and six bronze sessions of twenty requests against a
/// corrupting, stalling server: the driver's view equals the STATS
/// ledger tenant by tenant, only bronze is shed (and some is), gold's
/// p99 stays bounded, the query log reconciles record by record, and
/// the wire-initiated drain is clean.
#[test]
fn chaos_fleet_keeps_an_exact_ledger() {
    let dir = scratch("chaos");
    let qlog = dir.join("qlog.jsonl");
    let fleet =
        Fleet::start(chaos_server(&qlog), Some("corrupt_bitstream=0.02,stall_stage=kernel:5ms"));
    fleet.stress(&[
        "--tenants", "gold:high:2,bronze:low:6", "--requests", "20", "--queries", "Q1,Q2a",
        "--deadline-ms", "3000", "--p99-bound-ms", "6000", "--expect-shedding",
        "--require-high-zero-shed", "--shutdown", "--qlog", path(&qlog),
        "--out", path(&dir.join("stress.json")),
    ]);
    fleet.drained();
    qlog_validates(&qlog);
}

/// GET `route` from the metrics endpoint; the response body.
fn http_get(addr: SocketAddr, route: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET {route} HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").expect("an HTTP response");
    body.to_string()
}

/// The same fleet against a stalling server with SLO tracking: a
/// slow-query exemplar carrying the annotated plan lands in the log,
/// `/slo` shows the shed bronze tenant burning error budget and gold
/// with zero violations, `/requests` serves log records, and a
/// `SHUTDOWN` on the wire drains cleanly.
#[test]
fn slo_fleet_burns_the_shed_tenants_budget_and_spares_gold() {
    let dir = scratch("slo");
    let qlog = dir.join("qlog.jsonl");
    let cfg = ServerConfig {
        slow_query: Some(Duration::from_millis(1)),
        slo: SloConfig::parse("high=6000,low=60000,target=0.95,window=512").unwrap(),
        ..chaos_server(&qlog)
    };
    let fleet = Fleet::start(cfg, Some("stall_stage=kernel:5ms"));
    let endpoint = MetricsServer::start(0).unwrap();
    fleet.stress(&[
        "--tenants", "gold:high:2,bronze:low:6", "--requests", "20", "--queries", "Q1,Q2a",
        "--deadline-ms", "3000", "--p99-bound-ms", "6000", "--expect-shedding",
        "--require-high-zero-shed", "--qlog", path(&qlog), "--out", path(&dir.join("stress.json")),
    ]);
    qlog_validates(&qlog);
    let records: Vec<Value> =
        std::fs::read_to_string(&qlog).unwrap().lines().map(|l| json::parse(l).unwrap()).collect();
    assert!(
        records.iter().any(|r| r.get("exemplar").and_then(Value::as_str).is_some_and(|e| e.contains("wall="))),
        "no slow-query exemplar with an annotated plan"
    );

    let slo = json::parse(&http_get(endpoint.addr(), "/slo")).unwrap();
    let class = |key: &str| slo.get("tenants").and_then(|t| t.get(key)).cloned();
    let bronze = class("bronze/low").expect("a bronze/low class in /slo");
    let gold = class("gold/high").expect("a gold/high class in /slo");
    let field = |c: &Value, k: &str| c.get(k).and_then(Value::as_f64).unwrap();
    assert!(field(&bronze, "burn_rate") > 0.0, "bronze sheds yet burns nothing: {bronze:?}");
    assert_eq!(field(&gold, "violations"), 0.0, "gold burned error budget: {gold:?}");
    let requests = http_get(endpoint.addr(), "/requests");
    assert!(
        requests.lines().any(|l| json::parse(l).is_ok_and(|r| r.get("seq").is_some())),
        "/requests served no query-log records"
    );
    endpoint.stop();

    let mut conn = TcpStream::connect(fleet.addr()).unwrap();
    writeln!(conn, "SHUTDOWN").unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK draining");
    fleet.drained();
}

/// A `--use-index` server under gold sessions mixing Q1, S1 and S2:
/// every OK's `route=` token matches the ledger's
/// `index_served`/`rescan_served` split, and some requests were served
/// from the index.
#[test]
fn index_fleet_splits_routes_exactly() {
    let dir = scratch("index");
    let cfg = ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 8,
            tenant_quota: 32,
            ..AdmissionConfig::default()
        },
        workers: 2,
        queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale],
        use_index: true,
        ..ServerConfig::default()
    };
    let fleet = Fleet::start(cfg, None);
    let out = dir.join("stress.json");
    fleet.stress(&[
        "--tenants", "gold:high:2", "--requests", "10", "--queries", "Q1,S1,S2",
        "--deadline-ms", "5000", "--p99-bound-ms", "10000", "--shutdown", "--out", path(&out),
    ]);
    fleet.drained();
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let gold = doc.get("tenants").and_then(|t| t.get("gold")).unwrap();
    assert!(gold.get("route_index").and_then(Value::as_f64).unwrap() > 0.0, "nothing index-served");
}
