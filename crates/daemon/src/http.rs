//! A dependency-free HTTP scrape endpoint for the live daemon.
//!
//! One `std::net::TcpListener` accept loop on a background thread,
//! speaking just enough HTTP/1.1 for a scraper:
//!
//! * `GET /metrics` — the telemetry registry snapshot in Prometheus
//!   text exposition format ([`bgpbench_telemetry::Snapshot::to_prometheus`]);
//! * `GET /trace` — the flight-recorder ring as Chrome trace-event
//!   JSON (empty-but-valid when tracing is disabled);
//! * anything else — `404`.
//!
//! The server reads one request line, answers, and closes — no
//! keep-alive, no chunking, no headers parsed beyond the first line.
//! That is deliberate: the endpoint exists so `curl` and a Prometheus
//! scrape job can watch a benchmark run, not to be a web server.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the scrape endpoint serves requests while a measurement is live; a panic kills the serving thread mid-run"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bgpbench_telemetry as telemetry;

/// The background scrape endpoint. Dropping the handle leaves the
/// thread running; call [`MetricsServer::shutdown`] for a clean stop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bgpbench-metrics".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A scrape failing mid-write is the scraper's
                        // problem; the run must not notice.
                        let _ = serve_one(stream);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop is blocked in `incoming()`; a throwaway
        // connection wakes it to observe the stop flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Answers a single request on `stream` and closes it.
fn serve_one(stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block so the peer's write side is not reset
    // before it finishes sending.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry::snapshot().to_prometheus(),
        ),
        ("GET", "/trace") => (
            "200 OK",
            "application/json",
            telemetry::trace::export::chrome_json(&telemetry::trace_dump()),
        ),
        _ => (
            "404 Not Found",
            "text/plain; version=0.0.4",
            "not found: try /metrics or /trace\n".to_owned(),
        ),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot GET against the server, for tests and the
/// daemon's own smoke checks. Returns the raw response.
#[doc(hidden)]
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bgpbench\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_trace_and_404_then_shuts_down() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics").expect("scrape /metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            metrics.contains("# TYPE bgpbench_session_flaps counter"),
            "stable series present even at zero: {metrics}"
        );
        for gauge in [
            "bgpbench_fib_nodes",
            "bgpbench_fib_bytes",
            "bgpbench_rib_bytes",
        ] {
            assert!(
                metrics.contains(&format!("# TYPE {gauge} gauge")),
                "{metrics}"
            );
        }

        let trace = http_get(addr, "/trace").expect("scrape /trace");
        assert!(trace.starts_with("HTTP/1.1 200 OK"), "{trace}");
        assert!(
            trace.contains("\"traceEvents\""),
            "chrome trace envelope: {trace}"
        );

        let missing = http_get(addr, "/nope").expect("scrape bad path");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
    }
}
