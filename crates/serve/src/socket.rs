//! The live front end: a TCP or Unix-socket JSONL server with bounded
//! queues, read deadlines, load shedding, and graceful drain.
//!
//! Architecture: an acceptor thread polls a non-blocking listener and
//! spawns one handler thread per connection. Handlers read request lines
//! of at most [`MAX_LINE_BYTES`] (the rest of a longer line is discarded
//! unread) and submit them over a *bounded* `sync_channel` to a single
//! worker thread that owns the [`SolverPool`] and the admission
//! [`LoadModel`] — when the channel is full the handler sheds the request
//! immediately with a typed response instead of blocking.
//!
//! The worker answers each line exactly as [`replay`](crate::replay)
//! answers a log line, through the engine's plan step (parse, resolve,
//! price, admit, arm the fault site) and its executor (deadline, fault
//! cell, fallback), only without replay's answer cache. A log sent over
//! one connection, one line at a time, therefore gets replay's response
//! bodies, timing aside. Every read carries a socket deadline, so a
//! stalled client cannot wedge a handler, and every request is answered
//! inside a fault cell, so a poisoned query cannot take the worker down.
//!
//! Shutdown is graceful by construction: the admin line
//! `{"op":"shutdown"}` (or [`ServerHandle::shutdown_and_join`]) flips the
//! shutdown flag; the acceptor stops accepting and joins its handlers,
//! handlers finish their in-flight lines, and the worker drains every
//! queued job before exiting — no request that was accepted goes
//! unanswered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcpb_trace::Stopwatch;

use crate::admission::{AdmissionConfig, LoadModel};
use crate::engine::{execute, lanes, plan_one, Planned};
use crate::proto::{Response, Verdict, MAX_LINE_BYTES};
use crate::state::{ServeState, SolverPool};

/// Socket server knobs.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Endpoint: `tcp:HOST:PORT` (port 0 picks a free port) or
    /// `unix:/path/to.sock`.
    pub endpoint: String,
    /// Bounded job-queue depth between handlers and the worker; a full
    /// queue sheds.
    pub queue_depth: usize,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            endpoint: "tcp:127.0.0.1:0".to_string(),
            queue_depth: 32,
        }
    }
}

/// Aggregate counters, maintained with `SeqCst` stores — contention is
/// per-response, not per-edge, so the strongest ordering costs nothing
/// that matters here.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    served: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

/// What the server did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Request lines received (excluding admin lines).
    pub requests: u64,
    /// Clean serves.
    pub served: u64,
    /// Degraded answers.
    pub degraded: u64,
    /// Shed refusals (admission plus full-queue).
    pub shed: u64,
    /// Typed error responses.
    pub errors: u64,
}

impl ServerStats {
    /// True when every received request got exactly one response.
    pub fn drained_clean(&self) -> bool {
        self.requests == self.served + self.degraded + self.shed + self.errors
    }
}

/// Errors surfaced while standing the server up.
#[derive(Debug)]
pub enum ServeSocketError {
    /// The endpoint string is not `tcp:...` or `unix:...`.
    BadEndpoint(String),
    /// Binding the listener failed.
    Bind(std::io::Error),
}

impl std::fmt::Display for ServeSocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeSocketError::BadEndpoint(e) => {
                write!(f, "bad endpoint `{e}` (want tcp:HOST:PORT or unix:/path)")
            }
            ServeSocketError::Bind(e) => write!(f, "bind failed: {e}"),
        }
    }
}

impl std::error::Error for ServeSocketError {}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown_and_join`].
pub struct ServerHandle {
    /// Resolved endpoint (`tcp:127.0.0.1:PORT` with the real port).
    endpoint: String,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    acceptor: Option<thread::JoinHandle<()>>,
    worker: Option<thread::JoinHandle<SolverPool>>,
}

impl ServerHandle {
    /// The resolved endpoint clients should dial.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// True once a drain has been requested — by an admin
    /// `{"op":"shutdown"}` line or a local shutdown call.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain and blocks until the acceptor, every
    /// connection handler, and the worker have exited. Returns the solver
    /// pool and lifetime stats.
    pub fn shutdown_and_join(mut self) -> (SolverPool, ServerStats) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let pool = self
            .worker
            .take()
            .expect("invariant: worker joined exactly once")
            .join()
            .expect("invariant: worker thread never panics (cells isolate faults)");
        let stats = ServerStats {
            requests: self.counters.requests.load(Ordering::SeqCst),
            served: self.counters.served.load(Ordering::SeqCst),
            degraded: self.counters.degraded.load(Ordering::SeqCst),
            shed: self.counters.shed.load(Ordering::SeqCst),
            errors: self.counters.errors.load(Ordering::SeqCst),
        };
        (pool, stats)
    }
}

struct Job {
    line: Vec<u8>,
    resp_tx: mpsc::SyncSender<String>,
}

/// A response the front end gives itself, without a worker answer.
type DoorAnswer = (Verdict, &'static str);
/// The job queue is full (or closed for the drain).
const QUEUE_FULL: DoorAnswer = (Verdict::Shed, "queue full");
/// The job raced in after the drain began.
const DRAINING: DoorAnswer = (Verdict::Shed, "draining");
/// The worker never answered the job.
const WORKER_GONE: DoorAnswer = (Verdict::Error, "worker gone");

/// Renders a front-end response in the worker's wire schema, with id
/// `null` and solver `?` because the line was never parsed.
fn door_body((verdict, reason): DoorAnswer) -> String {
    Response::refusal(0, None, verdict, "?", 0, reason.to_string()).body_json()
}

/// Binds the configured endpoint and serves until shut down. The state is
/// shared read-only across threads; the pool moves into the worker thread
/// and comes back from [`ServerHandle::shutdown_and_join`].
pub fn serve_listener(
    state: Arc<ServeState>,
    pool: SolverPool,
    cfg: &SocketConfig,
) -> Result<ServerHandle, ServeSocketError> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    // Bounded: a full queue sheds instead of buffering without limit.
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
    let door = Door {
        job_tx,
        shutdown: Arc::clone(&shutdown),
        counters: Arc::clone(&counters),
    };
    let (acceptor, endpoint) = spawn_acceptor(&cfg.endpoint, door)?;
    let worker = {
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        thread::spawn(move || worker_loop(state, pool, job_rx, shutdown, counters))
    };
    Ok(ServerHandle {
        endpoint,
        shutdown,
        counters,
        acceptor: Some(acceptor),
        worker: Some(worker),
    })
}

/// Binds `endpoint` and starts the acceptor thread on it. Returns the
/// thread and the resolved endpoint.
fn spawn_acceptor(
    endpoint: &str,
    door: Door,
) -> Result<(thread::JoinHandle<()>, String), ServeSocketError> {
    if let Some(addr) = endpoint.strip_prefix("tcp:") {
        let l = TcpListener::bind(addr).map_err(ServeSocketError::Bind)?;
        l.set_nonblocking(true).map_err(ServeSocketError::Bind)?;
        let resolved = l
            .local_addr()
            .map(|a| format!("tcp:{a}"))
            .unwrap_or_else(|_| endpoint.to_string());
        let acceptor = thread::spawn(move || accept_loop(l, door));
        Ok((acceptor, resolved))
    } else if let Some(path) = endpoint.strip_prefix("unix:") {
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(ServeSocketError::Bind)?;
        l.set_nonblocking(true).map_err(ServeSocketError::Bind)?;
        let path = path.to_string();
        let acceptor = thread::spawn(move || {
            accept_loop(l, door);
            let _ = std::fs::remove_file(path);
        });
        Ok((acceptor, endpoint.to_string()))
    } else {
        Err(ServeSocketError::BadEndpoint(endpoint.to_string()))
    }
}

trait ConnStream: Read + Write + Send {}
impl<T: Read + Write + Send> ConnStream for T {}

/// Per-connection socket read and write deadline.
const CONN_DEADLINE: Duration = Duration::from_millis(2_000);

/// A non-blocking listener the accept loop can poll.
trait Listen {
    type Conn: ConnStream + 'static;
    /// Accepts one pending connection, back in blocking mode with
    /// [`CONN_DEADLINE`] set on reads and writes.
    fn accept_conn(&self) -> std::io::Result<Self::Conn>;
}

// TCP and Unix sockets spell these calls identically.
macro_rules! impl_listen {
    ($listener:ty => $conn:ty) => {
        impl Listen for $listener {
            type Conn = $conn;
            fn accept_conn(&self) -> std::io::Result<$conn> {
                let (s, _) = self.accept()?;
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(CONN_DEADLINE));
                let _ = s.set_write_timeout(Some(CONN_DEADLINE));
                Ok(s)
            }
        }
    };
}
impl_listen!(TcpListener => TcpStream);
impl_listen!(UnixListener => UnixStream);

/// Accepts connections until the drain flag flips, one handler thread
/// each, then joins every handler. Dropping `door` afterwards drops the
/// last job sender, so the worker sees the queue disconnect once it
/// drains.
fn accept_loop<L: Listen>(listener: L, door: Door) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !door.shutdown.load(Ordering::SeqCst) {
        match listener.accept_conn() {
            Ok(conn) => {
                let door = door.clone();
                handlers.push(thread::spawn(move || door.handle_connection(conn)));
            }
            // Nothing pending (or a failed accept): poll again shortly.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Reads one request line into `line`, without its `\n`. At most
/// `MAX_LINE_BYTES + 1` bytes are buffered: the rest of a longer line is
/// discarded unread, and the capped bytes still parse to `TooLong` (which
/// then reports `MAX_LINE_BYTES + 1` as the length). Returns `Ok(false)`
/// at end of stream.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    // audit: deadline-ok(the socket carries a read timeout set at accept time)
    if reader.by_ref().take(cap).read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        // audit: deadline-ok(the socket carries a read timeout set at accept time)
        reader.skip_until(b'\n')?;
    }
    Ok(true)
}

/// What every connection handler shares.
#[derive(Clone)]
struct Door {
    job_tx: mpsc::SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl Door {
    fn handle_connection<S: ConnStream>(&self, stream: S) {
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        // A read error is a stalled or idle client (the read deadline
        // fired) or a dead one: drop the connection rather than pin a
        // handler thread forever.
        while let Ok(true) = read_request_line(&mut reader, &mut line) {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            if line.trim_ascii() == b"{\"op\":\"shutdown\"}" {
                self.shutdown.store(true, Ordering::SeqCst);
                let _ = writeln!(reader.get_mut(), "{{\"ok\":\"draining\"}}");
                break;
            }
            self.counters.requests.fetch_add(1, Ordering::SeqCst);
            let body = self.answer(std::mem::take(&mut line));
            if writeln!(reader.get_mut(), "{body}").is_err() {
                break;
            }
        }
    }

    /// Queues one request line for the worker and waits for its response
    /// body.
    fn answer(&self, line: Vec<u8>) -> String {
        let (resp_tx, resp_rx) = mpsc::sync_channel::<String>(1);
        match self.job_tx.try_send(Job { line, resp_tx }) {
            Ok(()) => resp_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    self.counters.errors.fetch_add(1, Ordering::SeqCst);
                    door_body(WORKER_GONE)
                }),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // Bounded queue is full (or the server is draining): shed
                // at the door, costing the worker nothing.
                self.counters.shed.fetch_add(1, Ordering::SeqCst);
                door_body(QUEUE_FULL)
            }
        }
    }
}

/// Answers jobs in arrival order until the queue disconnects, or drains it
/// once the shutdown flag is up. Only this thread steps the load model.
fn worker_loop(
    state: Arc<ServeState>,
    mut pool: SolverPool,
    job_rx: mpsc::Receiver<Job>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) -> SolverPool {
    let mut load = LoadModel::new(AdmissionConfig::default());
    let mut seq = 0usize;
    loop {
        match job_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => {
                seq += 1;
                let sw = Stopwatch::start();
                let mut resp = match plan_one(&state, &mut load, seq, &job.line) {
                    Planned::Ready(resp) => resp,
                    Planned::Exec(lane, item) => {
                        let mut solver = lanes(&mut pool)
                            .nth(lane)
                            .expect("invariant: plan_one picks a lane of this pool");
                        execute(&state, &mut solver, &item, None).0
                    }
                };
                resp.runtime_secs = sw.elapsed_secs();
                match resp.verdict {
                    Verdict::Served => counters.served.fetch_add(1, Ordering::SeqCst),
                    Verdict::Degraded => counters.degraded.fetch_add(1, Ordering::SeqCst),
                    Verdict::Shed => counters.shed.fetch_add(1, Ordering::SeqCst),
                    Verdict::Error => counters.errors.fetch_add(1, Ordering::SeqCst),
                };
                // A handler that timed out and left is the only way this
                // send fails; the response is then dropped on the floor by
                // design (the client already got an error line).
                let _ = job.resp_tx.send(resp.body_json());
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    // Drain whatever raced in between the flag and now.
                    while let Ok(job) = job_rx.try_recv() {
                        let _ = job.resp_tx.send(door_body(DRAINING));
                        counters.shed.fetch_add(1, Ordering::SeqCst);
                    }
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn door_answers_use_the_full_response_schema() {
        for door in [QUEUE_FULL, DRAINING, WORKER_GONE] {
            let body = door_body(door);
            let v: serde::Value = serde_json::from_str(&body).expect("door body parses");
            for key in [
                "id",
                "verdict",
                "solver",
                "served_by",
                "budget",
                "seeds",
                "quality",
                "reason",
                "runtime",
            ] {
                assert!(v.get(key).is_some(), "`{key}` missing from {body}");
            }
            assert_eq!(v.get("id"), Some(&serde::Value::Null), "{body}");
            assert_eq!(
                v.get("verdict").and_then(|x| x.as_str()),
                Some(door.0.as_str())
            );
            assert_eq!(v.get("solver").and_then(|x| x.as_str()), Some("?"));
            assert_eq!(v.get("reason").and_then(|x| x.as_str()), Some(door.1));
        }
    }

    #[test]
    fn over_long_lines_are_capped_and_skipped() {
        let mut input = vec![b'x'; MAX_LINE_BYTES + 10];
        input.extend_from_slice(b"\nnext\n");
        let mut reader = std::io::Cursor::new(input);
        let mut line = Vec::new();
        assert!(read_request_line(&mut reader, &mut line).expect("reads"));
        assert_eq!(line.len(), MAX_LINE_BYTES + 1);
        assert!(read_request_line(&mut reader, &mut line).expect("reads"));
        assert_eq!(line, b"next");
        assert!(!read_request_line(&mut reader, &mut line).expect("reads"));
    }
}
