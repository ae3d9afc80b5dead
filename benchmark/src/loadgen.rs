//! The load generator: a well-behaved line-protocol client.
//!
//! Each request goes out as one `write` on a `TCP_NODELAY` socket, and a
//! connection carries one outstanding request. Requests come from one
//! shared stream that the connection threads pull from in order, so a
//! request whose turn has come waits only until some connection is free —
//! and that wait is part of its latency: an open-loop request is timed
//! from when it was *due*, not from when it was sent (choosing-metrics §5).
//!
//! A reply is timed twice: when its first byte arrives and when its line
//! is complete. The two differ when the server sends a line in several
//! writes: the later pieces wait, under Nagle's algorithm, for the client
//! kernel's ACK of the first, which a default socket delays by ~40 ms. A
//! connection can be told to ACK at once instead ([`Connection::quick_ack`]):
//! that is the client a saturation test needs, since a client-side timer
//! would otherwise cap the load the server ever sees.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request of the stream.
pub struct Planned {
    /// The request line, newline included, so sending is a single write.
    pub line: String,
    /// When to send it; `None` sends as soon as a connection is free
    /// (closed loop).
    pub due: Option<Instant>,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the stream.
    pub index: usize,
    /// Open loop: the scheduled time. Closed loop: when a connection
    /// picked the request up.
    pub due: Instant,
    pub sent: Instant,
    /// When the first byte of the response arrived.
    pub first_byte: Instant,
    /// When the response line was complete.
    pub received: Instant,
    /// How late the generator itself was: time from the later of `due` and
    /// the moment a connection was free for this request until the write.
    /// Waiting for a busy connection is the system's doing, not counted.
    pub late: Duration,
    /// The response line, without its newline.
    pub response: String,
}

impl Sample {
    /// Latency the client is charged: due time to the end of the response
    /// line.
    pub fn latency(&self) -> Duration {
        self.received.saturating_duration_since(self.due)
    }

    /// Send to first response byte.
    pub fn wire_and_server(&self) -> Duration {
        self.first_byte.saturating_duration_since(self.sent)
    }

    /// First response byte to the end of the line.
    pub fn response_tail(&self) -> Duration {
        self.received.saturating_duration_since(self.first_byte)
    }
}

/// One request line answered.
pub struct Reply {
    pub sent: Instant,
    pub first_byte: Instant,
    pub received: Instant,
    /// The response line, without its newline.
    pub line: String,
}

/// A client connection with one request in flight at most.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    quick_ack: bool,
}

impl Connection {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A dead server must fail the run, not hang it.
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            quick_ack: false,
        })
    }

    /// ACK what arrives at once (`TCP_QUICKACK`) or, the default, when the
    /// kernel sees fit.
    pub fn quick_ack(&mut self, on: bool) {
        self.quick_ack = on;
    }

    /// Send one line (which must end in `\n`) and read the one-line reply.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<Reply> {
        debug_assert!(line.ends_with('\n'));
        let sent = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        if self.quick_ack {
            // Sending data puts the socket back into delayed-ACK mode, so
            // the option is set again for every reply.
            self.writer.set_quickack(true)?;
        }
        // Returns as soon as any of the reply is in.
        let closed = self.reader.fill_buf()?.is_empty();
        let first_byte = Instant::now();
        let mut response = String::new();
        if closed || self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let received = Instant::now();
        response.truncate(response.trim_end().len());
        Ok(Reply {
            sent,
            first_byte,
            received,
            line: response,
        })
    }
}

/// Keeps the samples it is shown, for the phases slow enough to keep them
/// all.
#[derive(Default)]
pub struct Collector(Mutex<Vec<Sample>>);

impl Collector {
    pub fn keep(&self, sample: &Sample) {
        self.0.lock().expect("collector lock").push(sample.clone());
    }

    /// The samples in stream order.
    pub fn into_samples(self) -> Vec<Sample> {
        let mut all = self.0.into_inner().expect("collector lock");
        all.sort_by_key(|s| s.index);
        all
    }
}

/// Drive a request stream over `conns`, one thread per connection,
/// counting its requests from `first`.
/// `next(i)` yields the i-th request, or `None` when the stream has ended;
/// `observe` sees each sample on its connection's thread as soon as the
/// reply is in (a traced run records spans there, inside the window it
/// measures). Nothing is kept here: a saturated loop makes tens of
/// thousands of samples a second.
pub fn drive(
    conns: &mut [Connection],
    first: usize,
    next: &(dyn Fn(usize) -> Option<Planned> + Sync),
    observe: &(dyn Fn(&Sample) + Sync),
) -> std::io::Result<()> {
    let cursor = AtomicUsize::new(first);
    let per_conn: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(planned) = next(index) else {
                        return Ok(());
                    };
                    let picked = Instant::now();
                    let due = planned.due.unwrap_or(picked);
                    if let Some(wait) = due.checked_duration_since(picked) {
                        std::thread::sleep(wait);
                    }
                    let reply = conn.exchange(&planned.line)?;
                    let sample = Sample {
                        index,
                        due,
                        sent: reply.sent,
                        first_byte: reply.first_byte,
                        received: reply.received,
                        late: reply.sent.saturating_duration_since(due.max(picked)),
                        response: reply.line,
                    };
                    observe(&sample);
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    per_conn.into_iter().collect()
}

/// Outcome class of a response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ok,
    Shed,
    Cancelled,
    Err,
}

/// The parts of a response line the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Response<'a> {
    pub kind: Kind,
    /// The server's own figure for the request (`latency_us=`).
    pub latency_us: Option<u64>,
    pub route: Option<&'a str>,
    /// The query the server says it answered (`query=`).
    pub query: Option<&'a str>,
    /// The semantic answer token (`count=…`, `segments=[…]`, `similar=[…]`).
    pub answer: Option<&'a str>,
}

pub fn parse_response(line: &str) -> Response<'_> {
    let mut tokens = line.split_whitespace();
    let kind = match tokens.next() {
        Some("OK") => Kind::Ok,
        Some("SHED") => Kind::Shed,
        Some("CANCELLED") => Kind::Cancelled,
        _ => Kind::Err,
    };
    let mut out = Response {
        kind,
        latency_us: None,
        route: None,
        query: None,
        answer: None,
    };
    for token in tokens {
        match token.split_once('=') {
            Some(("latency_us", v)) => out.latency_us = v.parse().ok(),
            Some(("route", v)) => out.route = Some(v),
            Some(("query", v)) => out.query = Some(v),
            Some(("count" | "segments" | "similar", _)) => out.answer = Some(token),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection line server that answers every request at once,
    /// except request `stall_at`, which it holds for `stall`.
    fn stub_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut served = 0;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                writer
                    .write_all(format!("OK latency_us=1 echo={}\n", line.trim()).as_bytes())
                    .unwrap();
                served += 1;
                line.clear();
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        const GAP: Duration = Duration::from_millis(10);
        const STALL: Duration = Duration::from_millis(100);
        const STALL_AT: usize = 2;
        let (addr, server) = stub_server(STALL_AT, STALL);
        let mut conns = vec![Connection::connect(addr).unwrap()];
        let start = Instant::now() + Duration::from_millis(20);
        let kept = Collector::default();
        drive(
            &mut conns,
            0,
            &|i| {
                (i < 8).then(|| Planned {
                    line: format!("EXEC n={i}\n"),
                    due: Some(start + GAP * i as u32),
                })
            },
            &|s| kept.keep(s),
        )
        .unwrap();
        let samples = kept.into_samples();
        drop(conns);
        assert_eq!(server.join().unwrap(), 8);
        assert_eq!(samples.len(), 8);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.response, format!("OK latency_us=1 echo=EXEC n={i}"));
        }
        // Before the stall, requests cost what the wire costs.
        assert!(
            samples[0].latency() < STALL / 2,
            "{:?}",
            samples[0].latency()
        );
        // The stalled request pays the stall...
        assert!(samples[STALL_AT].latency() >= STALL);
        // ...and so does every request that came due while it was held:
        // request j was due (j − STALL_AT) gaps into the stall, so it owes
        // the rest of it, though its own exchange was quick and the
        // generator itself was not late.
        for s in &samples[STALL_AT + 1..STALL_AT + 5] {
            let j = s.index;
            let owed = STALL - GAP * (j - STALL_AT) as u32;
            assert!(
                s.latency() + Duration::from_millis(1) >= owed,
                "request {j}: {:?} < {owed:?}",
                s.latency()
            );
            assert!(
                s.wire_and_server() < STALL / 2,
                "request {j} exchange {:?}",
                s.wire_and_server()
            );
            assert!(
                s.late < Duration::from_millis(20),
                "request {j} late {:?}",
                s.late
            );
        }
    }

    #[test]
    fn a_reply_sent_in_two_pieces_is_timed_at_its_first_byte() {
        const PAUSE: Duration = Duration::from_millis(60);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            writer.write_all(b"OK latency_us=1").unwrap();
            std::thread::sleep(PAUSE);
            writer.write_all(b" route=index\n").unwrap();
        });
        let mut conn = Connection::connect(addr).unwrap();
        conn.quick_ack(true);
        let reply = conn.exchange("EXEC\n").unwrap();
        server.join().unwrap();
        assert_eq!(reply.line, "OK latency_us=1 route=index");
        assert!(reply.first_byte - reply.sent < PAUSE / 2);
        assert!(reply.received - reply.first_byte >= PAUSE / 2);
    }

    #[test]
    fn closed_loop_requests_are_due_when_picked_up() {
        let (addr, server) = stub_server(usize::MAX, Duration::ZERO);
        let mut conns = vec![Connection::connect(addr).unwrap()];
        let kept = Collector::default();
        drive(
            &mut conns,
            0,
            &|i| {
                (i < 5).then(|| Planned {
                    line: "HEALTH\n".into(),
                    due: None,
                })
            },
            &|s| kept.keep(s),
        )
        .unwrap();
        let samples = kept.into_samples();
        assert_eq!(samples.len(), 5);
        drop(conns);
        assert_eq!(server.join().unwrap(), 5);
        assert!(samples
            .iter()
            .all(|s| s.due <= s.sent && s.sent <= s.first_byte && s.first_byte <= s.received));
    }

    #[test]
    fn response_lines_parse_into_their_parts() {
        let r = parse_response(
            "OK tenant=t0 query=S2 engine=semantic latency_us=44 degraded=0 route=index segments=[1:0=3,2:1=2]",
        );
        assert_eq!(r.kind, Kind::Ok);
        assert_eq!(r.latency_us, Some(44));
        assert_eq!((r.route, r.query), (Some("index"), Some("S2")));
        assert_eq!(r.answer, Some("segments=[1:0=3,2:1=2]"));
        let r = parse_response(
            "OK tenant=t1 query=Q1 engine=reference latency_us=9100 degraded=0 route=rescan",
        );
        assert_eq!(
            (r.kind, r.latency_us, r.answer),
            (Kind::Ok, Some(9100), None)
        );
        assert_eq!(parse_response("SHED reason=saturated").kind, Kind::Shed);
        assert_eq!(
            parse_response("CANCELLED tenant=t0 query=Q1 latency_us=5").kind,
            Kind::Cancelled
        );
        assert_eq!(parse_response("ERR no pool").kind, Kind::Err);
        assert_eq!(parse_response("").kind, Kind::Err);
    }
}
