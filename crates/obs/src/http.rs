//! Dependency-free live scrape endpoint: a minimal HTTP/1.1 admin
//! listener serving telemetry routes.
//!
//! The workspace builds offline with no HTTP stack, so this is a
//! deliberately tiny server: one listener thread, blocking accept,
//! serial request handling (scrapes are rare and cheap), GET-only,
//! `Connection: close` on every response. That is all a Prometheus
//! scraper, `curl`, or `obs_snapshot`'s under-load scrapes need.
//!
//! [`standard_routes`] wires the four canonical telemetry routes:
//!
//! | route      | body                                                  |
//! |------------|-------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the [`Obs`] registry    |
//! | `/healthz` | caller-supplied health JSON (phase machine, SLO burn) |
//! | `/trace`   | drains the span buffer as Chrome trace-event JSON     |
//! | `/journal` | bounded event journal as NDJSON                       |
//!
//! Binaries attach a listener with [`AdminServer::start`]; `stop` (or
//! drop) shuts the thread down deterministically by flagging shutdown
//! and self-connecting to unblock `accept`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::Obs;

/// One deadline for a whole exchange, request head read and response
/// write together: a stalled or trickling client must not wedge the
/// (serial) admin thread, nor the `stop` that joins it.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Maximum accepted request head (request line + headers).
const MAX_REQUEST_BYTES: usize = 8192;

/// One route: an exact path, a content type, and a body producer called
/// per request.
pub struct Route {
    path: &'static str,
    content_type: &'static str,
    handler: Box<dyn Fn() -> String + Send + Sync>,
}

impl Route {
    /// Builds a route serving `content_type` bodies from `handler` at
    /// exactly `path` (query strings are ignored when matching).
    pub(crate) fn new(
        path: &'static str,
        content_type: &'static str,
        handler: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        Self {
            path,
            content_type,
            handler: Box::new(handler),
        }
    }
}

/// The four canonical telemetry routes for a process holding an [`Obs`]
/// bundle: `/metrics`, `/healthz`, `/trace`, `/journal`.
///
/// `healthz` supplies the health JSON body (phase machine, SLO burn —
/// assembled by the binary, which is the layer that can see the router
/// and the SLO windows); `None` serves a plain `{"status":"ok"}`.
/// `tracer: None` serves an empty trace (`[]`).
pub fn standard_routes(
    obs: Arc<Obs>,
    tracer: Option<Arc<Tracer>>,
    healthz: Option<Box<dyn Fn() -> String + Send + Sync>>,
) -> Vec<Route> {
    let metrics_obs = Arc::clone(&obs);
    vec![
        Route::new("/metrics", "text/plain; version=0.0.4", move || {
            metrics_obs.prometheus_text()
        }),
        Route::new("/healthz", "application/json", move || match &healthz {
            Some(f) => f(),
            None => "{\"status\":\"ok\"}".to_string(),
        }),
        Route::new("/trace", "application/json", move || match &tracer {
            Some(t) => t.drain_chrome_trace_json(),
            None => "[]".to_string(),
        }),
        Route::new("/journal", "application/x-ndjson", move || {
            obs.journal_ndjson()
        }),
    ]
}

/// The admin listener: one background thread serving [`Route`]s over
/// minimal HTTP/1.1 until [`stop`](Self::stop) (or drop).
pub struct AdminServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the listener thread.
    pub fn start(bind: &str, routes: Vec<Route>) -> io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("obs-admin".to_string())
            .spawn(move || accept_loop(listener, routes, flag))?;
        Ok(Self {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread deterministically. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            // Unblock the accept call; the loop re-checks the flag first.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, routes: Vec<Route>, shutdown: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Serial handling: a scrape is a handful of milliseconds, and the
        // exchange deadline bounds a misbehaving client.
        let _ = serve_connection(stream, &routes);
    }
}

/// Time left before `deadline`; none left is a timeout.
fn remaining(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "admin exchange deadline"))
}

fn serve_connection(mut stream: TcpStream, routes: &[Route]) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head; the routes take no body.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(
                &mut stream,
                deadline,
                400,
                "text/plain",
                "request too large",
            );
        }
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client went away
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let mut parts = request_line.split(|&b| b == b' ');
    let method = parts.next().unwrap_or(&[]);
    let target = parts.next().unwrap_or(&[]);
    if method != b"GET" {
        return respond(
            &mut stream,
            deadline,
            405,
            "text/plain",
            "method not allowed",
        );
    }
    // Match on the path only; tolerate `?query` suffixes.
    let path = target.split(|&b| b == b'?').next().unwrap_or(&[]);
    match routes.iter().find(|r| r.path.as_bytes() == path) {
        Some(route) => {
            let body = (route.handler)();
            respond(&mut stream, deadline, 200, route.content_type, &body)
        }
        None => respond(&mut stream, deadline, 404, "text/plain", "not found"),
    }
}

fn respond(
    stream: &mut TcpStream,
    deadline: Instant,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let reply = [header.as_bytes(), body.as_bytes()].concat();
    let mut sent = 0;
    while sent < reply.len() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        match stream.write(&reply[sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Blocking one-shot HTTP GET against an admin endpoint; returns
/// `(status, body)`. This is the client half `obs_snapshot`'s scrapes
/// use — same no-dependency constraint as the server.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: admin\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut lines = text.splitn(2, "\r\n\r\n");
    let head = lines.next().unwrap_or("");
    let body = lines.next().unwrap_or("").to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{validate_json, validate_prometheus_text};
    use crate::EventKind;

    fn observed() -> Arc<Obs> {
        let obs = Arc::new(Obs::new());
        obs.counter("cache_ops_total").add(5);
        obs.gauge("phase").set(1.0);
        obs.event(
            7,
            EventKind::Revocation {
                label: "m4.large".into(),
                count: 1,
                warned: true,
            },
        );
        obs
    }

    #[test]
    fn serves_all_four_routes() {
        let obs = observed();
        let tracer = Tracer::all(64);
        {
            let _s = tracer.span("admin", "warm");
        }
        let health: Box<dyn Fn() -> String + Send + Sync> =
            Box::new(|| "{\"phase\":\"healthy\",\"burn_rate\":0}".to_string());
        let mut srv = AdminServer::start(
            "127.0.0.1:0",
            standard_routes(obs, Some(Arc::clone(&tracer)), Some(health)),
        )
        .unwrap();
        let t = Duration::from_secs(2);

        let (status, metrics) = http_get(srv.addr(), "/metrics", t).unwrap();
        assert_eq!(status, 200);
        validate_prometheus_text(&metrics)
            .unwrap_or_else(|at| panic!("bad /metrics at {at}: {metrics}"));
        assert!(metrics.contains("cache_ops_total 5"));

        let (status, health) = http_get(srv.addr(), "/healthz", t).unwrap();
        assert_eq!(status, 200);
        validate_json(&health).unwrap();
        assert!(health.contains("\"phase\":\"healthy\""));

        let (status, trace) = http_get(srv.addr(), "/trace", t).unwrap();
        assert_eq!(status, 200);
        validate_json(&trace).unwrap();
        assert!(trace.contains("\"name\":\"warm\""));
        // /trace drains: a second scrape starts empty.
        let (_, trace2) = http_get(srv.addr(), "/trace", t).unwrap();
        assert_eq!(trace2, "[]");

        let (status, journal) = http_get(srv.addr(), "/journal", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(journal.lines().count(), 1);
        validate_json(journal.lines().next().unwrap()).unwrap();

        let (status, _) = http_get(srv.addr(), "/nope", t).unwrap();
        assert_eq!(status, 404);

        srv.stop();
        srv.stop(); // idempotent
        assert!(http_get(srv.addr(), "/metrics", Duration::from_millis(200)).is_err());
    }

    #[test]
    fn default_health_and_empty_trace_bodies() {
        let obs = Arc::new(Obs::new());
        let srv = AdminServer::start("127.0.0.1:0", standard_routes(obs, None, None)).unwrap();
        let t = Duration::from_secs(2);
        let (status, health) = http_get(srv.addr(), "/healthz", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(health, "{\"status\":\"ok\"}");
        let (status, trace) = http_get(srv.addr(), "/trace?drain=1", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(trace, "[]");
    }

    #[test]
    fn rejects_non_get() {
        let srv = AdminServer::start(
            "127.0.0.1:0",
            standard_routes(Arc::new(Obs::new()), None, None),
        )
        .unwrap();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    #[test]
    fn stop_is_fast() {
        let mut srv = AdminServer::start(
            "127.0.0.1:0",
            standard_routes(Arc::new(Obs::new()), None, None),
        )
        .unwrap();
        let started = Instant::now();
        srv.stop();
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    /// Connects to `addr` and sends one byte of a never-finished request
    /// head every 300 ms for 6 s (or until the server hangs up). Returns
    /// once the admin thread has had time to accept it, so a test acts
    /// while the serial thread is inside the trickler's exchange.
    fn trickle(addr: SocketAddr) -> JoinHandle<()> {
        let mut s = TcpStream::connect(addr).unwrap();
        let trickler = std::thread::spawn(move || {
            for _ in 0..20 {
                if s.write_all(b"G").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        trickler
    }

    #[test]
    fn a_trickling_client_does_not_block_a_scrape() {
        let srv = AdminServer::start(
            "127.0.0.1:0",
            standard_routes(Arc::new(Obs::new()), None, None),
        )
        .unwrap();
        let trickler = trickle(srv.addr());
        let scrape = http_get(srv.addr(), "/metrics", Duration::from_secs(4));
        assert!(
            matches!(scrape, Ok((200, _))),
            "scrape behind a trickler: {scrape:?}"
        );
        trickler.join().unwrap();
    }

    #[test]
    fn stop_returns_while_a_trickler_is_connected() {
        let mut srv = AdminServer::start(
            "127.0.0.1:0",
            standard_routes(Arc::new(Obs::new()), None, None),
        )
        .unwrap();
        let trickler = trickle(srv.addr());
        let started = Instant::now();
        srv.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(3), "stop took {took:?}");
        trickler.join().unwrap();
    }
}
