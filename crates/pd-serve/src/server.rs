//! The TCP daemon: blocking listener, fixed worker pool, HTTP routing.
//!
//! [`Server::start`] binds the configured address, spawns `threads`
//! accept-loop workers sharing one `TcpListener` (the kernel load-
//! balances `accept`), and a **runner pool**
//! ([`ServeConfig::effective_runners`] threads) executing queued jobs
//! concurrently off one shared receiver. Connections are persistent
//! (HTTP/1.1 keep-alive): a worker reads [`Request`]s with the
//! byte-level codec from `pd_web::http` in a per-connection loop,
//! routing and answering each until the client sends `connection:
//! close`, goes idle past the keep-alive window, or the daemon stops —
//! a full job queue therefore *rejects* (503 + `Retry-After`) instead
//! of ever blocking the accept loop.
//!
//! Graceful shutdown (`POST /shutdown`, or [`Server::shutdown`]): the
//! service stops admitting jobs, a drain sentinel is queued behind every
//! in-flight job, each runner forwards the sentinel and exits once the
//! queue is dry, and [`Server::join`] then stops the workers. In-flight
//! work is never dropped.

use crate::service::{parse_job_id, PdService, QueueMsg, ServeConfig, SubmitError, SubmitRequest};
use pd_web::http::{HttpError, Request, Response, Status};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket timeout for a connection's first request: a stalled peer
/// frees its worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle window for *subsequent* requests on a keep-alive connection.
/// Short on purpose: an idle persistent connection must release its
/// worker quickly so a bounded pool survives many polling clients, and
/// [`Server::join`] is never stuck behind a parked socket. Clients
/// reconnect transparently ([`crate::Client`] retries on a dead cached
/// connection).
const KEEPALIVE_IDLE: Duration = Duration::from_secs(1);

/// Requests served on one connection before the server answers
/// `connection: close` and returns to the accept loop. Without a cap, a
/// busy polling client holds its worker indefinitely and a fixed pool
/// of N workers starves the (N+1)-th concurrent client; with it, every
/// worker cycles back to `accept` regularly, so fairness is guaranteed
/// no matter how many persistent clients hammer the daemon. Clients
/// reconnect transparently.
const KEEPALIVE_MAX_REQUESTS: usize = 32;

/// A running daemon. Keep it to [`Server::join`]; dropping it without
/// joining leaks the worker threads for the process lifetime.
pub struct Server {
    service: Arc<PdService>,
    addr: SocketAddr,
    stop_workers: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .field("runners", &self.runners.len())
            .finish()
    }
}

impl Server {
    /// Binds the address and spawns the worker pool and the runner pool.
    ///
    /// # Errors
    ///
    /// A human-readable message when the listen address does not parse
    /// or cannot be bound.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving local addr: {e}"))?;
        let threads = config.threads.max(1);
        let runner_count = config.effective_runners();
        let (queue_tx, queue_rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let service = Arc::new(PdService::new(config, queue_tx));

        let queue_rx: Arc<Mutex<Receiver<QueueMsg>>> = Arc::new(Mutex::new(queue_rx));
        let mut runners = Vec::with_capacity(runner_count);
        for i in 0..runner_count {
            let service = Arc::clone(&service);
            let queue_rx = Arc::clone(&queue_rx);
            let handle = std::thread::Builder::new()
                .name(format!("pd-serve-runner-{i}"))
                .spawn(move || service.runner_loop(&queue_rx))
                .map_err(|e| format!("spawning runner {i}: {e}"))?;
            runners.push(handle);
        }

        let listener = Arc::new(listener);
        let stop_workers = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let service = Arc::clone(&service);
            let listener = Arc::clone(&listener);
            let stop = Arc::clone(&stop_workers);
            let handle = std::thread::Builder::new()
                .name(format!("pd-serve-worker-{i}"))
                .spawn(move || worker_loop(&service, &listener, &stop))
                .map_err(|e| format!("spawning worker {i}: {e}"))?;
            workers.push(handle);
        }

        Ok(Server {
            service,
            addr,
            stop_workers,
            workers,
            runners,
        })
    }

    /// The bound address (useful with a `:0` ephemeral-port config).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (tests read metrics and snapshots after
    /// the daemon exits).
    #[must_use]
    pub fn service(&self) -> Arc<PdService> {
        Arc::clone(&self.service)
    }

    /// Programmatic graceful shutdown — identical to `POST /shutdown`.
    pub fn shutdown(&self) {
        self.service.begin_shutdown();
    }

    /// Blocks until the daemon has fully drained and exited: every
    /// runner finishes (the drain sentinel chains through the pool),
    /// then the worker pool is woken and joined. Returns only after a
    /// shutdown was requested via `POST /shutdown` or
    /// [`Server::shutdown`].
    pub fn join(mut self) {
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
        self.stop_workers.store(true, Ordering::SeqCst);
        // A worker blocked in `accept` needs a connect nudge to notice
        // the flag; one mid-keep-alive notices at its next request or
        // idle timeout. Keep nudging until each has actually exited —
        // a single nudge per worker can be swallowed by a worker that
        // was about to exit anyway.
        for worker in self.workers.drain(..) {
            while !worker.is_finished() {
                let _ = TcpStream::connect(self.addr);
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = worker.join();
        }
    }
}

fn worker_loop(service: &Arc<PdService>, listener: &Arc<TcpListener>, stop: &Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, peer)) = listener.accept() else {
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if handle_connection(service, stream, peer, stop) {
            // Draining began before the acknowledgement was written;
            // only the (possibly blocking) sentinel enqueue is left.
            service.begin_shutdown();
        }
    }
}

/// Serves one persistent connection: reads requests in a loop, routing
/// and answering each, until the client asks to close (`connection:
/// close`, or an HTTP/1.0 request without keep-alive), goes idle past
/// [`KEEPALIVE_IDLE`], hits the [`KEEPALIVE_MAX_REQUESTS`] fairness
/// cap, sends something unparseable, or the daemon is stopping. Every
/// response carries an explicit `connection` header announcing the
/// decision. Returns whether a graceful shutdown was requested — the
/// service is already refusing submissions by then, and the caller
/// queues the drain sentinel *after* the response is on the wire.
fn handle_connection(
    service: &Arc<PdService>,
    stream: TcpStream,
    peer: SocketAddr,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    // Timeouts are per-socket, shared by the clones: this handle
    // shortens the read window once the connection turns persistent.
    let Ok(control) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut served = 0usize;
    loop {
        let mut request = match Request::read_from(&mut reader) {
            Ok(request) => request,
            Err(HttpError::Eof) => return false,
            // An I/O failure mid-read on a persistent connection is the
            // idle timeout (or a vanished peer) — close without a 400:
            // there is no request to answer.
            Err(HttpError::Io(_)) if served > 0 => return false,
            Err(e) => {
                // A malformed request poisons only *this* connection's
                // byte stream: answer 400, close, and let the client
                // start clean on a fresh connection.
                write_response(
                    &mut writer,
                    &error_json(Status::BadRequest, &format!("bad request: {e}")),
                    false,
                );
                return false;
            }
        };
        if let SocketAddr::V4(v4) = peer {
            request.client_addr = *v4.ip();
        }
        let (response, shutdown) = route(service, &request);
        served += 1;
        let keep = request.keep_alive()
            && response.keep_alive()
            && served < KEEPALIVE_MAX_REQUESTS
            && !shutdown
            && !stop.load(Ordering::SeqCst);
        write_response(&mut writer, &response, keep);
        if shutdown {
            return true;
        }
        if !keep {
            return false;
        }
        if served == 1 {
            let _ = control.set_read_timeout(Some(KEEPALIVE_IDLE));
        }
    }
}

/// Writes `response` with an explicit `connection: keep-alive|close`
/// header reflecting the server's decision.
fn write_response<W: Write>(writer: &mut W, response: &Response, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = response
        .clone()
        .with_header("connection", connection)
        .write_to(writer);
    let _ = writer.flush();
}

/// A `{"error": ...}` body with the given status.
fn error_json(status: Status, message: &str) -> Response {
    let encoded = serde_json::to_string(&message.to_owned()).unwrap_or_else(|_| "\"?\"".to_owned());
    Response::json(format!("{{\"error\": {encoded}}}\n")).with_status(status)
}

fn text(body: &str) -> Response {
    Response::ok(body.to_owned()).with_header("content-type", "text/plain; charset=utf-8")
}

/// Dispatches one request. Returns the response and whether the drain
/// sentinel should be queued once it has been written.
fn route(service: &Arc<PdService>, request: &Request) -> (Response, bool) {
    let path = request.path_only();
    let response = match (request.method.as_str(), path) {
        ("GET", "/healthz") => text("ok\n"),
        ("GET", "/metrics") => text(&service.metrics_text()),
        ("GET", "/runs") => match serde_json::to_string(&service.list()) {
            Ok(body) => Response::json(body),
            Err(e) => error_json(Status::BadRequest, &format!("encoding runs: {e}")),
        },
        ("POST", "/runs") => return (submit(service, request), false),
        ("GET", rest) if rest.starts_with("/runs/") => job_endpoint(service, &rest[6..]),
        ("POST", "/shutdown") if service.config().enable_shutdown => {
            // Refuse submissions *before* the acknowledgement exists: a
            // client that submits right after reading it, on any
            // connection, must already get a 503.
            service.begin_draining();
            return (
                Response::json("{\"status\": \"draining\"}\n".to_owned()),
                true,
            );
        }
        _ => error_json(
            Status::NotFound,
            &format!("no route for {} {path}", request.method),
        ),
    };
    (response, false)
}

fn submit(service: &Arc<PdService>, request: &Request) -> Response {
    let submission: SubmitRequest = match serde_json::from_str(&request.body) {
        Ok(submission) => submission,
        Err(e) => return error_json(Status::BadRequest, &format!("bad submit body: {e}")),
    };
    match service.submit(&submission) {
        Ok(id) => {
            let reply = crate::service::SubmitReply {
                id,
                status: "queued".to_owned(),
            };
            match serde_json::to_string(&reply) {
                Ok(body) => Response::json(body),
                Err(e) => error_json(Status::BadRequest, &format!("encoding reply: {e}")),
            }
        }
        Err(SubmitError::QueueFull) => error_json(Status::ServiceUnavailable, "job queue is full")
            .with_header("retry-after", "1"),
        Err(SubmitError::Draining) => {
            error_json(Status::ServiceUnavailable, "service is shutting down")
                .with_header("retry-after", "5")
        }
        Err(SubmitError::Invalid(msg)) => error_json(Status::BadRequest, &msg),
    }
}

/// `GET /runs/:id` and `GET /runs/:id/report`.
fn job_endpoint(service: &Arc<PdService>, rest: &str) -> Response {
    if let Some(raw_id) = rest.strip_suffix("/report") {
        let Some(id) = parse_job_id(raw_id) else {
            return error_json(Status::NotFound, &format!("bad job id {raw_id:?}"));
        };
        return match service.report_body(id) {
            None => error_json(Status::NotFound, &format!("no such job j-{id}")),
            Some(None) => error_json(
                Status::NotFound,
                &format!("job j-{id} has no report (not finished, or failed)"),
            ),
            // Byte-identical to `pd run --json`: the stored string goes
            // out verbatim, no re-encoding.
            Some(Some(body)) => Response::json(body.to_string()),
        };
    }
    let Some(id) = parse_job_id(rest) else {
        return error_json(Status::NotFound, &format!("bad job id {rest:?}"));
    };
    match service.snapshot(id) {
        None => error_json(Status::NotFound, &format!("no such job j-{id}")),
        Some(snapshot) => match serde_json::to_string(&snapshot) {
            Ok(body) => Response::json(body),
            Err(e) => error_json(Status::BadRequest, &format!("encoding snapshot: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::service::ServeConfig;

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_metrics_and_routing() {
        let server = Server::start(test_config()).expect("start");
        let client = Client::new(&server.addr().to_string());
        let health = client.get("/healthz").expect("healthz");
        assert_eq!(health.status, Status::Ok);
        assert_eq!(health.body, "ok\n");
        let metrics = client.get("/metrics").expect("metrics");
        assert!(metrics.body.contains("jobs_done 0\n"), "{}", metrics.body);
        let missing = client.get("/nope").expect("404 still answers");
        assert_eq!(missing.status, Status::NotFound);
        let bad_id = client.get("/runs/zzz").expect("bad id answers");
        assert_eq!(bad_id.status, Status::NotFound);
        let no_job = client.get("/runs/j-9").expect("no such job answers");
        assert_eq!(no_job.status, Status::NotFound);
        client.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn malformed_http_gets_400() {
        use std::io::{Read, Write};
        let server = Server::start(test_config()).expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"BOGUS\r\n\r\n").expect("write");
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        drop(stream);
        server.shutdown();
        server.join();
    }

    /// A connection that sends 10,000 header lines hits the header
    /// section cap: the daemon answers 400 and closes instead of
    /// buffering without bound, and keeps serving other connections.
    #[test]
    fn header_flood_gets_400_and_the_daemon_keeps_serving() {
        use std::io::{Read, Write};
        let server = Server::start(test_config()).expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut flood = b"GET /healthz HTTP/1.1\r\nhost: pd\r\n".to_vec();
        for i in 0..10_000 {
            flood.extend_from_slice(format!("x-flood-{i}: v\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        // The daemon may close mid-flood; a reset is part of the answer.
        let _ = stream.write_all(&flood);
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert!(
            reply.is_empty() || reply.starts_with("HTTP/1.1 400"),
            "{reply}"
        );
        drop(stream);
        let client = Client::new(&server.addr().to_string());
        let health = client.get("/healthz").expect("healthz still answers");
        assert_eq!(health.status, Status::Ok);
        server.shutdown();
        server.join();
    }

    #[test]
    fn bad_submit_bodies_get_400() {
        let server = Server::start(test_config()).expect("start");
        let client = Client::new(&server.addr().to_string());
        let resp = client.post_json("/runs", "not json").expect("answers");
        assert_eq!(resp.status, Status::BadRequest);
        let resp = client.post_json("/runs", "{}").expect("answers");
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body.contains("missing"), "{}", resp.body);
        let resp = client
            .post_json("/runs", "{\"scenario\": \"smokee\"}")
            .expect("answers");
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body.contains("did you mean"), "{}", resp.body);
        server.shutdown();
        server.join();
    }
}
