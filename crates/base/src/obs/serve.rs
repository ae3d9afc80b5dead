//! Live telemetry endpoint: a minimal HTTP/1.1 server over
//! `std::net::TcpListener` exposing registry snapshots while a run is
//! in flight.
//!
//! Routes:
//!
//! | path            | body                                            |
//! |-----------------|-------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the registry      |
//! | `/metrics.json` | the registry's deterministic JSON snapshot      |
//! | `/healthz`      | `ok` (liveness probe)                           |
//! | `/explain`      | plan tree of the in-flight batch (text)         |
//! | *registered*    | any view published via [`set_view`] — the query |
//! |                 | server registers `/slo` and `/requests`         |
//!
//! Threat model / non-perturbation contract:
//!
//! * **read-only** — every response is rendered from a point-in-time
//!   [`super::metrics::MetricsSnapshot`], from the explain string
//!   published via [`set_explain`], or from a [`set_view`] closure
//!   that renders a snapshot of owner state (the `/slo` and
//!   `/requests` closures read an `Arc`'d tracker/ring under its own
//!   lock); no handler can mutate engine or registry state.
//! * **loopback-bound** — the listener binds `127.0.0.1` only; the
//!   endpoint is a local debugging/scrape surface, not a network
//!   service. There is no TLS, auth, or request body parsing to get
//!   wrong — anything that is not a known `GET` path is a 404.
//! * **non-perturbing** — the server runs on its own thread, touches
//!   only snapshots, and query results must be byte-identical with
//!   the server on or off (`tests/cli.rs` diffs exactly that).
//!
//! The server is off by default and owned by whoever calls
//! [`MetricsServer::start`] (the CLI's `--serve-metrics <port>`);
//! dropping the handle shuts the listener down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::sync::RwLock;

/// The explain text published for the in-flight batch (empty until the
/// driver publishes one).
static EXPLAIN: OnceLock<RwLock<String>> = OnceLock::new();

fn explain_cell() -> &'static RwLock<String> {
    EXPLAIN.get_or_init(|| RwLock::new(String::new()))
}

/// Publish the plan tree of the batch currently executing, replacing
/// any previous one. The driver calls this at batch start (plan shape)
/// and again after execution (annotated plan).
pub fn set_explain(text: impl Into<String>) {
    *explain_cell().write() = text.into();
}

/// The currently published explain text, if any.
pub(crate) fn explain_text() -> Option<String> {
    let text = explain_cell().read();
    if text.is_empty() {
        None
    } else {
        Some(text.clone())
    }
}

/// A registered view: content type plus a render-on-GET closure.
type View = (&'static str, Arc<dyn Fn() -> String + Send + Sync>);

/// Registered dynamic views, keyed by path. Process-global, like the
/// registry itself: when several servers run in one process, the last
/// registration for a path wins.
static VIEWS: OnceLock<RwLock<std::collections::BTreeMap<String, View>>> = OnceLock::new();

fn views_cell() -> &'static RwLock<std::collections::BTreeMap<String, View>> {
    VIEWS.get_or_init(|| RwLock::new(std::collections::BTreeMap::new()))
}

/// Register (or replace) a dynamic view at `path`. The closure runs
/// per GET and must be a pure snapshot renderer — the endpoint's
/// read-only contract extends to every registered view. The query
/// server uses this for `/slo` and `/requests`. A view stays
/// registered for the life of the process, past its server's drain.
pub fn set_view(
    path: &str,
    content_type: &'static str,
    render: impl Fn() -> String + Send + Sync + 'static,
) {
    views_cell().write().insert(path.to_string(), (content_type, Arc::new(render)));
}

fn view_response(path: &str) -> Option<(&'static str, String)> {
    // Clone the Arc and drop the lock before rendering so a slow view
    // never holds the registry against other connections.
    let view = views_cell().read().get(path).cloned();
    view.map(|(content_type, render)| (content_type, render()))
}

/// A running metrics endpoint. Stop it explicitly with
/// [`MetricsServer::stop`] or implicitly by dropping it.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port — the
    /// actual one is in [`MetricsServer::addr`]) and serve until
    /// stopped.
    pub fn start(port: u16) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe shutdown without
        // a wake-up connection.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("vr-metrics-serve".to_string())
            .spawn(move || serve_loop(listener, flag))?;
        Ok(Self { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (the real port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the listener down and join the serving thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Hard ceiling on one connection's lifetime, header read through
/// response flush. A client that connects and then trickles (or sends
/// nothing) is cut off here instead of holding its handler hostage.
const CONNECTION_DEADLINE: Duration = Duration::from_millis(1000);

fn serve_loop(listener: TcpListener, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Handlers only read snapshots, but a slow or stalled
                // client must never block the accept loop: each
                // connection gets its own short-lived thread, bounded
                // by CONNECTION_DEADLINE. Handler threads are detached
                // — the deadline, not a join, bounds their lifetime.
                let _ = std::thread::Builder::new()
                    .name("vr-metrics-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    let deadline = std::time::Instant::now() + CONNECTION_DEADLINE;
    stream.set_write_timeout(Some(CONNECTION_DEADLINE))?;
    // Read the request head (bounded; no bodies are accepted). Each
    // read's timeout is the time remaining until the connection
    // deadline, so a client trickling one byte per timeout window
    // cannot extend its welcome indefinitely.
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    loop {
        let now = std::time::Instant::now();
        if now >= deadline {
            break;
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") || len == buf.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(method, path);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn route(method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".into());
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            super::metrics::snapshot().to_prometheus(),
        ),
        "/metrics.json" => {
            ("200 OK", "application/json; charset=utf-8", super::metrics::snapshot().to_json())
        }
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".into()),
        "/explain" => match explain_text() {
            Some(text) => ("200 OK", "text/plain; charset=utf-8", text),
            None => ("200 OK", "text/plain; charset=utf-8", "no batch in flight\n".into()),
        },
        _ => match view_response(path) {
            Some((content_type, body)) => ("200 OK", content_type, body),
            None => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".into()),
        },
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn smoke_metrics_and_healthz_on_an_ephemeral_port() {
        // Port 0: the OS assigns an ephemeral port, so the test cannot
        // collide with a parallel run.
        let server = MetricsServer::start(0).expect("bind ephemeral port");
        let addr = server.addr();
        assert_ne!(addr.port(), 0);

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "healthz response: {health}");
        assert!(health.ends_with("ok\n"));

        super::super::metrics::counter("serve.test.count").add(3);
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("# TYPE vr_serve_test_count counter"));
        assert!(metrics.contains("vr_serve_test_count 3"));

        let json = get(addr, "/metrics.json");
        assert!(json.contains("application/json"));
        assert!(json.contains("\"serve.test.count\": 3"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn stalled_client_does_not_block_the_accept_loop() {
        let server = MetricsServer::start(0).expect("bind ephemeral port");
        let addr = server.addr();

        // A client that connects, dribbles half a request line, and
        // then goes silent. Before the per-connection handler threads
        // this parked the single accept loop for the full read
        // timeout per read; now it must cost other clients nothing.
        let mut stalled = TcpStream::connect(addr).expect("connect stalled client");
        stalled.write_all(b"GET /met").unwrap();
        stalled.flush().unwrap();

        // While the stalled client holds its connection open, a
        // well-behaved client must be served promptly.
        let t0 = std::time::Instant::now();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "healthz during stall: {health}");
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "healthz took {:?} behind a stalled client",
            t0.elapsed()
        );

        // The stalled connection itself is cut off at the connection
        // deadline rather than held forever: the server closes it and
        // our read observes EOF (or a reset) within a bounded wait.
        stalled
            .set_read_timeout(Some(CONNECTION_DEADLINE * 3))
            .unwrap();
        let mut rest = Vec::new();
        let _ = stalled.read_to_end(&mut rest);
        server.stop();
    }

    #[test]
    fn registered_views_are_served_and_deregistered() {
        let server = MetricsServer::start(0).expect("bind ephemeral port");
        let addr = server.addr();
        // Use a test-unique path: the view map is process-global.
        set_view("/serve-test-view", "application/json; charset=utf-8", || {
            "{\"view\": true}\n".to_string()
        });
        let response = get(addr, "/serve-test-view");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "view response: {response}");
        assert!(response.contains("application/json"));
        assert!(response.ends_with("{\"view\": true}\n"));
        server.stop();
    }

    #[test]
    fn explain_route_serves_the_published_plan() {
        let server = MetricsServer::start(0).expect("bind ephemeral port");
        set_explain("query.q1 (engine=reference)\n  sink\n");
        let response = get(server.addr(), "/explain");
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("query.q1 (engine=reference)"));
        set_explain("");
        server.stop();
    }
}
