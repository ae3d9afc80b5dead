//! The stress driver's fleets, in-process: `vr_bench::stress::run`
//! against an in-process `QueryServer`, with the server and driver
//! configuration `visualroad serve` and `stress_test` are given on the
//! command line: the exact ledger, shedding and query-log
//! reconciliation under chaos, the SLO layer's burn rates, and the
//! index/rescan route split. A driver that outlives its limit or
//! panics fails its test, as does a drain that never ends.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use visual_road::base::admission::AdmissionConfig;
use visual_road::base::fault::FaultInjector;
use visual_road::base::json::{self, Value};
use visual_road::base::obs::qlog::{self, Logged};
use visual_road::base::obs::slo::SloConfig;
use visual_road::server::{QueryServer, ServerConfig};
use visual_road::vdbms::{BatchEngine, QueryKind};
use vr_bench::stress::{self, Config, Report};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::tiny_dataset;

/// How long a driver run, and then the drain, may take.
const FLEET_LIMIT: Duration = Duration::from_secs(600);

/// One fleet at a time: each drives its server to saturation and
/// asserts latency bounds and deadlines, which a second fleet sharing
/// the host's cores at the same time would move.
static FLEET: Mutex<()> = Mutex::new(());

/// A started fleet server.
struct Fleet {
    server: Option<QueryServer>,
    _lock: MutexGuard<'static, ()>,
}

impl Fleet {
    fn start(cfg: ServerConfig) -> Self {
        let lock = FLEET.lock().unwrap_or_else(|e| e.into_inner());
        let server =
            QueryServer::start(tiny_dataset(0), vec![Box::new(BatchEngine::new())], cfg).unwrap();
        Self { server: Some(server), _lock: lock }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().unwrap().addr()
    }

    /// The driver run `stress_test --addr ADDR ARGS` makes, on a thread
    /// of its own; panics with its summary and failures unless it
    /// passes within the limit.
    fn stress(&self, args: &[&str]) -> Report {
        let addr = self.addr().to_string();
        let argv = [&["--addr", &addr][..], args].concat();
        let cfg = Config::parse(argv.into_iter().map(str::to_string)).unwrap();
        let (tx, rx) = mpsc::channel();
        let driver = cfg.clone();
        std::thread::spawn(move || {
            let mut summary = String::new();
            let report = stress::run(&driver, &mut summary);
            tx.send((report, summary))
        });
        let (report, summary) =
            rx.recv_timeout(FLEET_LIMIT).expect("the driver returned in time, without a panic");
        let report = report.unwrap_or_else(|fatal| panic!("{args:?}:\n{summary}{fatal}"));
        assert!(report.failures.is_empty(), "{args:?}:\n{summary}{:#?}", report.failures);
        report
    }

    /// Wait for the drain a `SHUTDOWN` started; it must be clean.
    fn drained(mut self) {
        let server = self.server.take().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.wait().clean));
        assert!(rx.recv_timeout(FLEET_LIMIT).expect("the drain ended in time"), "drain was not clean");
    }
}

/// The fault plan a fleet's server runs under, at the seed
/// `visualroad serve` is given.
fn plan(spec: &str) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::from_spec(spec, 7).unwrap()))
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

/// The query log reads back, every check of `qlog::parse` passing.
fn qlog_validates(log: &Path) -> Vec<Logged> {
    qlog::parse(&std::fs::read_to_string(log).unwrap(), path(log)).unwrap()
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
    let faults = plan("corrupt_bitstream=0.02,stall_stage=kernel:5ms");
    let fleet = Fleet::start(ServerConfig { faults, ..chaos_server(&qlog) });
    fleet.stress(&[
        "--tenants", "gold:high:2,bronze:low:6", "--requests", "20", "--queries", "Q1,Q2a",
        "--deadline-ms", "3000", "--p99-bound-ms", "6000", "--expect-shedding",
        "--require-high-zero-shed", "--shutdown", "--qlog", path(&qlog),
    ]);
    fleet.drained();
    qlog_validates(&qlog);
}

/// The same fleet against a stalling server with SLO tracking: the
/// query log holds records and a slow-query exemplar carrying the
/// annotated plan, `STATS`'s `slo` block shows the shed bronze tenant
/// burning error budget and gold with zero violations, and a
/// `SHUTDOWN` on the wire drains cleanly.
#[test]
fn slo_fleet_burns_the_shed_tenants_budget_and_spares_gold() {
    let dir = scratch("slo");
    let qlog = dir.join("qlog.jsonl");
    let cfg = ServerConfig {
        slow_query: Some(Duration::from_millis(1)),
        slo: SloConfig::parse("high=6000,low=60000,target=0.95,window=512").unwrap(),
        faults: plan("stall_stage=kernel:5ms"),
        ..chaos_server(&qlog)
    };
    let fleet = Fleet::start(cfg);
    fleet.stress(&[
        "--tenants", "gold:high:2,bronze:low:6", "--requests", "20", "--queries", "Q1,Q2a",
        "--deadline-ms", "3000", "--p99-bound-ms", "6000", "--expect-shedding",
        "--require-high-zero-shed", "--qlog", path(&qlog),
    ]);
    let records = qlog_validates(&qlog);
    assert!(records.iter().any(|r| r.seq >= 1), "the query log holds no records");
    assert!(
        records.iter().any(|r| r.record.exemplar.as_ref().is_some_and(|e| e.contains("wall="))),
        "no slow-query exemplar with an annotated plan"
    );

    let mut conn = TcpStream::connect(fleet.addr()).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut request = |line: &str| {
        writeln!(conn, "{line}").unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let stats = request("STATS");
    let stats = json::parse(stats.strip_prefix("STATS ").expect("a STATS reply")).unwrap();
    let class = |key: &str| stats.get("slo")?.get("tenants")?.get(key).cloned();
    let bronze = class("bronze/low").expect("a bronze/low class in the slo block");
    let gold = class("gold/high").expect("a gold/high class in the slo block");
    let field = |c: &Value, k: &str| c.get(k).and_then(Value::as_f64).unwrap();
    assert!(field(&bronze, "burn_rate") > 0.0, "bronze sheds yet burns nothing: {bronze:?}");
    assert_eq!(field(&gold, "violations"), 0.0, "gold burned error budget: {gold:?}");

    assert_eq!(request("SHUTDOWN"), "OK draining");
    fleet.drained();
}

/// A `--use-index` server under gold sessions mixing Q1, S1 and S2:
/// every OK's `route=` token matches the ledger's
/// `index_served`/`rescan_served` split, and some requests were served
/// from the index.
#[test]
fn index_fleet_splits_routes_exactly() {
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
    let fleet = Fleet::start(cfg);
    let report = fleet.stress(&[
        "--tenants", "gold:high:2", "--requests", "10", "--queries", "Q1,S1,S2",
        "--deadline-ms", "5000", "--p99-bound-ms", "10000", "--shutdown",
    ]);
    fleet.drained();
    assert!(report.tenants["gold"].route_index > 0, "nothing index-served");
}
