//! The overload-hardened server: acceptor, bounded admission queue, worker
//! pool, per-request deadlines, and graceful drain.
//!
//! # Overload / backpressure state machine
//!
//! The acceptor thread is the only place connections enter the system, and
//! it never blocks on anything slower than a bounded-timeout socket write:
//!
//! 1. `accept()` (non-blocking, polled) — a new connection arrives.
//! 2. If the admission queue is at capacity, the connection is **shed**: a
//!    typed [`ErrorCode::Overloaded`] reply is written best-effort under a
//!    short write timeout and the socket is dropped. The acceptor is back
//!    at `accept()` within one bounded write — overload can never make the
//!    listen backlog the failure point.
//! 3. Otherwise the connection is **admitted**: timestamped, stamped with a
//!    request sequence number, and queued. Queue wait counts against the
//!    request's deadline, so a request that aged out in the queue fails
//!    fast with `DeadlineExceeded` instead of wasting inference on it.
//!
//! Workers pull admitted connections, serve every frame on them (a
//! connection may carry many sequential requests), run each request's GNN
//! forward pass themselves, and reply with typed errors for every
//! malformed, oversized, truncated, or expired request.
//! A worker death (panic or injected `serve.worker` die fault) is detected
//! by the monitor thread, which respawns the pool back to strength.
//!
//! Shutdown ([`CancelToken`]) is a drain, mirroring the PR 5 SIGINT
//! semantics: the acceptor stops admitting (late connections get
//! [`ErrorCode::ShuttingDown`]), workers finish every admitted request at a
//! request boundary, and `join` returns only when the pool is idle.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameReadError, FrameType, Reply, Request,
    DEFAULT_MAX_PAYLOAD,
};
use crate::registry::ModelRegistry;
use budget::CancelToken;
use icnet::{encode_features, CircuitGraph};
use netlist::Circuit;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Bounded admission-queue depth; connections beyond it are shed.
    pub queue_depth: usize,
    /// Frame payload cap; larger declared lengths are refused unread.
    pub max_payload: u32,
    /// Server-side deadline per request when the client does not set one.
    pub default_deadline: Duration,
    /// Hard ceiling on any deadline a client may request.
    pub max_deadline: Duration,
    /// Socket read/write timeout — bounds how long a slow or vanished
    /// client can hold a worker.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit silent between requests
    /// before the server closes it (no byte of a next frame has arrived).
    pub idle_timeout: Duration,
    /// Whole-request wall cap: once the first byte of a frame arrives, the
    /// complete frame must be read within this window. The per-call
    /// `io_timeout` alone cannot stop a slow-loris client — every trickled
    /// byte restarts it — so this deadline is what actually frees the
    /// worker.
    pub request_timeout: Duration,
    /// Most requests one connection may carry before the server closes it
    /// (`0` = unlimited). Each worker serves one connection at a time, so
    /// this caps how long a single chatty connection can monopolize a
    /// worker while others wait in the admission queue.
    pub max_requests_per_conn: usize,
    /// Process RSS watermark in bytes: at or above it, new connections are
    /// shed `Overloaded` *before* the OS OOM killer makes the decision.
    /// Physical RSS is machine-dependent, which is exactly right here —
    /// shedding protects this process on this machine and never feeds a
    /// label (see the `budget` crate for the logical/physical split).
    pub mem_watermark: Option<u64>,
    /// Cooperative shutdown token (the binaries pass the SIGINT token).
    pub cancel: CancelToken,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            default_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(60),
            io_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1024,
            mem_watermark: None,
            cancel: CancelToken::default(),
        }
    }
}

/// Monotonic counters, updated lock-free by every thread of the server.
#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    worker_deaths: AtomicU64,
    respawns: AtomicU64,
    forward_passes: AtomicU64,
    peak_request_bytes: AtomicU64,
}

/// Snapshot of the server's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue (including ping-only connections).
    pub admitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Connections shed with `Overloaded` (or `ShuttingDown`).
    pub shed: u64,
    /// Requests answered with any other typed error.
    pub errors: u64,
    /// Worker threads that died (fault injection or panic).
    pub worker_deaths: u64,
    /// Replacement workers spawned by the monitor.
    pub respawns: u64,
    /// Forward passes run: one per request that reached inference, on the
    /// worker that serves it.
    pub infer_batches: u64,
    /// Always 0: requests are never batched together. Kept only because the
    /// repository benchmark reads it, until a benchmark change drops it.
    pub batched_requests: u64,
    /// Peak logical bytes any one request's inference inputs reached
    /// (propagation operator + feature matrix). Logical bytes are bytes
    /// requested, not allocator overhead — deterministic for a given
    /// request stream (see the `budget` crate).
    pub peak_request_bytes: u64,
}

struct Shared {
    registry: ModelRegistry,
    config: ServeConfig,
    queue_len: AtomicUsize,
    counters: Counters,
}

impl Shared {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            worker_deaths: self.counters.worker_deaths.load(Ordering::Relaxed),
            respawns: self.counters.respawns.load(Ordering::Relaxed),
            infer_batches: self.counters.forward_passes.load(Ordering::Relaxed),
            batched_requests: 0,
            peak_request_bytes: self.counters.peak_request_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One admitted connection, queued for a worker.
struct Job {
    stream: TcpStream,
    admitted_at: Instant,
    seq: u64,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] or cancel the configured token and
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    cancel: CancelToken,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    monitor: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds the listener, spawns the acceptor, worker pool, and monitor,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn start(registry: ModelRegistry, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cancel = config.cancel.clone();
        let shared = Arc::new(Shared {
            registry,
            config,
            queue_len: AtomicUsize::new(0),
            counters: Counters::default(),
        });
        let (sender, receiver) =
            std::sync::mpsc::sync_channel::<Job>(shared.config.queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));

        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for id in 0..shared.config.workers.max(1) {
            workers.push(spawn_worker(id, Arc::clone(&shared), Arc::clone(&receiver)));
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(listener, shared, sender))
                .expect("spawn acceptor")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name("serve-monitor".into())
                .spawn(move || monitor_loop(shared, receiver, workers))
                .expect("spawn monitor")
        };

        Ok(Server {
            addr,
            cancel,
            shared,
            acceptor,
            monitor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Trips the cancel token and drains: stops admitting, finishes every
    /// admitted request, joins all threads. Returns the final counters.
    pub fn shutdown(self) -> ServeStats {
        self.cancel.cancel();
        self.join()
    }

    /// Blocks until the cancel token trips (e.g. SIGINT) and the drain
    /// completes. Returns the final counters.
    pub fn join(self) -> ServeStats {
        let _ = self.acceptor.join();
        let _ = self.monitor.join();
        self.shared.snapshot()
    }
}

/// How long the acceptor sleeps when `accept` would block.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Write timeout for shed replies — the acceptor may never block long.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);
/// Monitor poll interval for dead-worker detection.
const MONITOR_POLL: Duration = Duration::from_millis(25);
/// Worker queue-poll interval while idle (bounds shutdown latency).
const WORKER_POLL: Duration = Duration::from_millis(25);

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, sender: SyncSender<Job>) {
    let cancel = shared.config.cancel.clone();
    while !cancel.is_cancelled() {
        let (stream, _peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            // Transient accept failures (EMFILE, ECONNABORTED, ...) must
            // never take the acceptor down; back off briefly and retry.
            Err(_) => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        let seq = shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let depth = shared.queue_len.load(Ordering::Relaxed);
        if depth >= shared.config.queue_depth {
            shed(&shared, stream, seq, depth, ErrorCode::Overloaded);
            continue;
        }
        // Memory watermark: shed while the process can still say so. RSS is
        // re-read per connection — cheap (one /proc read) next to accepting
        // a socket, and admission is exactly when memory pressure must gate.
        if let Some(mark) = shared.config.mem_watermark {
            if budget::process_rss_bytes().is_some_and(|rss| rss >= mark) {
                shed(&shared, stream, seq, depth, ErrorCode::Overloaded);
                continue;
            }
        }
        let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
        shared.queue_len.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            stream,
            admitted_at: Instant::now(),
            seq,
        };
        match sender.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                // The channel bound and queue_len can disagree by a hair
                // under races; the channel is the authority — shed.
                shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                let depth = shared.queue_len.load(Ordering::Relaxed);
                shed(&shared, job.stream, seq, depth, ErrorCode::Overloaded);
            }
        }
    }
    // Drain phase: late connections get a typed ShuttingDown, never a hang.
    // Dropping the sender below releases the workers once the queue empties.
    drop(sender);
    while let Ok((stream, _)) = listener.accept() {
        let seq = shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let depth = shared.queue_len.load(Ordering::Relaxed);
        shed(&shared, stream, seq, depth, ErrorCode::ShuttingDown);
    }
}

/// Sheds a connection with a typed error, best-effort under a short write
/// timeout, and records it. The acceptor must be back at `accept()` fast.
fn shed(shared: &Shared, mut stream: TcpStream, seq: u64, depth: usize, code: ErrorCode) {
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let reply = Reply::Error {
        code,
        message: match code {
            ErrorCode::Overloaded => format!("admission queue full ({depth} queued)"),
            _ => "server is draining for shutdown".to_owned(),
        },
    };
    let (ft, payload) = reply.encode();
    let _ = write_frame(&mut stream, ft, &payload);
    let _ = stream.flush();
    emit_request_event(seq, depth, 0, 0, 0, code.tag());
}

fn emit_request_event(
    seq: u64,
    queue_depth: usize,
    wait_ns: u64,
    infer_ns: u64,
    wall_ns: u64,
    outcome: &'static str,
) {
    if obs::enabled() {
        obs::emit(obs::EventKind::ServeRequest {
            seq,
            queue_depth: queue_depth as u64,
            wait_ns,
            infer_ns,
            wall_ns,
            outcome,
        });
    }
}

fn monitor_loop(
    shared: Arc<Shared>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    mut workers: Vec<std::thread::JoinHandle<()>>,
) {
    let cancel = shared.config.cancel.clone();
    let mut next_id = workers.len();
    loop {
        let draining = cancel.is_cancelled();
        let mut alive = Vec::with_capacity(workers.len());
        for handle in workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
                if !draining {
                    // Self-heal: the pool is restored to full strength no
                    // matter how the worker died (fault, panic, bug).
                    shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                    alive.push(spawn_worker(
                        next_id,
                        Arc::clone(&shared),
                        Arc::clone(&receiver),
                    ));
                    next_id += 1;
                }
            } else {
                alive.push(handle);
            }
        }
        workers = alive;
        if draining && workers.is_empty() {
            return;
        }
        if draining {
            // Workers exit on their own once the queue disconnects; just
            // wait for them.
            for handle in workers.drain(..) {
                let _ = handle.join();
            }
            return;
        }
        std::thread::sleep(MONITOR_POLL);
    }
}

fn spawn_worker(
    id: usize,
    shared: Arc<Shared>,
    receiver: Arc<Mutex<Receiver<Job>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_loop(shared, receiver))
        .expect("spawn worker")
}

fn worker_loop(shared: Arc<Shared>, receiver: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv_timeout(WORKER_POLL)
        };
        match job {
            Ok(job) => {
                shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                if let Some(fault) = faults::inject("serve.worker") {
                    match fault.action {
                        faults::Action::Die => {
                            // Chaos: this worker dies with the job in hand.
                            // The client sees a dropped connection; the
                            // monitor restores the pool.
                            shared
                                .counters
                                .worker_deaths
                                .fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        _ => fault.unsupported("serve.worker"),
                    }
                }
                serve_connection(&shared, job);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Idle poll. Workers drain admitted jobs even after cancel;
                // they exit only when the acceptor hangs up the channel.
                continue;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves every frame on one admitted connection. All failure modes reply
/// with a typed error where a reply is still possible, and never propagate
/// out of this function — the worker survives to take the next connection.
fn serve_connection(shared: &Shared, job: Job) {
    let Job {
        mut stream,
        admitted_at,
        seq,
    } = job;
    let cancel = &shared.config.cancel;
    // The first request's deadline starts at admission: queue wait is the
    // client's problem too, and a request that aged out in the queue must
    // fail fast instead of burning a worker on a stale answer.
    let mut request_start = admitted_at;
    let mut first = true;
    let mut served: usize = 0;
    loop {
        let cap = shared.config.max_requests_per_conn;
        if cap != 0 && served >= cap {
            // One connection may not monopolize a worker forever while the
            // admission queue backs up; the client reconnects and re-enters
            // admission like everyone else.
            let _ = send_reply(
                &mut stream,
                &Reply::Error {
                    code: ErrorCode::Overloaded,
                    message: format!("connection reached its {cap}-request cap; reconnect"),
                },
            );
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            emit_request_event(
                seq,
                shared.queue_len.load(Ordering::Relaxed),
                0,
                0,
                0,
                "conn_cap",
            );
            break;
        }
        let mut reader = PacedReader::new(&stream, &shared.config);
        let read_result = read_frame(&mut reader, shared.config.max_payload);
        let mid_frame = reader.mid_frame();
        let (frame_type, payload) = match read_result {
            Ok(frame) => frame,
            Err(e) => {
                let (outcome, reply): (&'static str, Option<Reply>) = match e {
                    FrameReadError::Eof => break, // clean end of connection
                    FrameReadError::Disconnect => ("disconnect", None),
                    FrameReadError::TimedOut if mid_frame => (
                        "slow_loris",
                        Some(Reply::Error {
                            code: ErrorCode::BadFrame,
                            message: format!(
                                "frame did not complete within the whole-request timeout ({:?})",
                                shared.config.request_timeout
                            ),
                        }),
                    ),
                    FrameReadError::TimedOut => (
                        "slow_client",
                        Some(Reply::Error {
                            code: ErrorCode::BadFrame,
                            message: "no frame arrived within the socket timeout".into(),
                        }),
                    ),
                    FrameReadError::Io(_) => ("io", None),
                    FrameReadError::BadMagic(m) => (
                        ErrorCode::BadFrame.tag(),
                        Some(Reply::Error {
                            code: ErrorCode::BadFrame,
                            message: format!("bad frame magic {m:02x?}"),
                        }),
                    ),
                    FrameReadError::BadType(b) => (
                        ErrorCode::BadFrame.tag(),
                        Some(Reply::Error {
                            code: ErrorCode::BadFrame,
                            message: format!("unknown frame type 0x{b:02x}"),
                        }),
                    ),
                    FrameReadError::TooLarge(len) => (
                        ErrorCode::PayloadTooLarge.tag(),
                        Some(Reply::Error {
                            code: ErrorCode::PayloadTooLarge,
                            message: format!(
                                "declared payload of {len} bytes exceeds the {}-byte cap",
                                shared.config.max_payload
                            ),
                        }),
                    ),
                };
                if let Some(reply) = reply {
                    let _ = send_reply(&mut stream, &reply);
                }
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                emit_request_event(
                    seq,
                    shared.queue_len.load(Ordering::Relaxed),
                    0,
                    0,
                    request_start.elapsed().as_nanos() as u64,
                    outcome,
                );
                break;
            }
        };
        if !first {
            request_start = Instant::now();
        }
        let wait_ns = if first {
            request_start.elapsed().as_nanos() as u64
        } else {
            0
        };
        first = false;
        served += 1;

        match frame_type {
            FrameType::Ping => {
                if send_reply(&mut stream, &Reply::Pong).is_err() {
                    break;
                }
            }
            FrameType::Predict => {
                let _ctx = obs::context(seq);
                let infer_start = Instant::now();
                // A panic anywhere in the pipeline is a typed Internal
                // error, not a dead worker: catch_unwind is the last line
                // of the "one bad request never poisons the fleet" rule.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_predict(shared, &payload, request_start)
                }));
                let reply = match result {
                    Ok(reply) => reply,
                    Err(_) => Reply::Error {
                        code: ErrorCode::Internal,
                        message: "prediction pipeline panicked; the worker survived".into(),
                    },
                };
                let infer_ns = infer_start.elapsed().as_nanos() as u64;
                let outcome = match &reply {
                    Reply::Prediction { .. } => {
                        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                        "ok"
                    }
                    Reply::Error { code, .. } => {
                        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                        code.tag()
                    }
                    Reply::Pong => unreachable!("predict never answers Pong"),
                };
                let reply = match reply {
                    Reply::Prediction { value, .. } => Reply::Prediction {
                        value,
                        infer_ns,
                        wait_ns,
                    },
                    other => other,
                };
                let write_ok = send_reply(&mut stream, &reply).is_ok();
                emit_request_event(
                    seq,
                    shared.queue_len.load(Ordering::Relaxed),
                    wait_ns,
                    infer_ns,
                    request_start.elapsed().as_nanos() as u64,
                    outcome,
                );
                if !write_ok {
                    break;
                }
            }
            // A client sending server-side frame types is confused; tell it
            // so and drop the connection.
            FrameType::Prediction | FrameType::Error | FrameType::Pong => {
                let _ = send_reply(
                    &mut stream,
                    &Reply::Error {
                        code: ErrorCode::BadFrame,
                        message: format!("{frame_type:?} is not a request frame"),
                    },
                );
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        if cancel.is_cancelled() {
            // Request boundary: the in-flight request above completed and
            // was answered; new work on this connection is refused.
            let _ = send_reply(
                &mut stream,
                &Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining for shutdown".into(),
                },
            );
            break;
        }
    }
}

/// Writes one reply frame.
fn send_reply(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let (ft, payload) = reply.encode();
    write_frame(stream, ft, &payload)
}

/// A socket reader that enforces two timescales the per-call `io_timeout`
/// cannot: an **idle** window while waiting for the first byte of the next
/// frame, and a **whole-request** deadline once that byte arrives. A
/// slow-loris client trickling one byte per `io_timeout` restarts a plain
/// socket timeout forever; here every trickled byte still counts against
/// one fixed deadline, so the worker frees in bounded time no matter how
/// the bytes are paced.
struct PacedReader<'a> {
    stream: &'a TcpStream,
    io: Duration,
    idle: Duration,
    request_timeout: Duration,
    /// Set when the first byte of the current frame arrives.
    deadline: Option<Instant>,
}

impl<'a> PacedReader<'a> {
    fn new(stream: &'a TcpStream, config: &ServeConfig) -> Self {
        PacedReader {
            stream,
            io: config.io_timeout,
            idle: config.idle_timeout,
            request_timeout: config.request_timeout,
            deadline: None,
        }
    }

    /// Whether the frame had started arriving when the read gave up — the
    /// difference between an idle keep-alive (benign) and a slow-loris
    /// frame that never completed (hostile or broken).
    fn mid_frame(&self) -> bool {
        self.deadline.is_some()
    }
}

impl std::io::Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match self.deadline {
            None => self.idle,
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "whole-request timeout expired mid-frame",
                    ));
                }
                remaining.min(self.io)
            }
        };
        // `set_read_timeout(Some(0))` is an invalid argument; clamp up.
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut conn: &TcpStream = self.stream;
        let n = std::io::Read::read(&mut conn, buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.request_timeout);
        }
        Ok(n)
    }
}

/// Deadline polled at every pipeline stage boundary — the same idiom as the
/// SAT solver's wall-clock deadline (poll cheap, stop at the next seam).
struct Deadline(Instant);

impl Deadline {
    fn expired(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Runs the full request pipeline: decode → registry lookup → parse →
/// graph/features → predict, checking the deadline between stages.
fn handle_predict(shared: &Shared, payload: &[u8], request_start: Instant) -> Reply {
    let error = |code: ErrorCode, message: String| Reply::Error { code, message };

    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(msg) => return error(ErrorCode::BadFrame, format!("malformed request: {msg}")),
    };
    let budget = if request.deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(u64::from(request.deadline_ms)).min(shared.config.max_deadline)
    };
    let deadline = Deadline(request_start + budget);
    let expired = || {
        error(
            ErrorCode::DeadlineExceeded,
            format!("deadline of {budget:?} expired (includes queue wait)"),
        )
    };
    // A request that is already past its deadline on arrival — it aged out
    // in the admission queue, or the client asked for a budget smaller than
    // its own send latency — fails fast before any pipeline stage runs.
    if deadline.expired() {
        return expired();
    }

    let Some(entry) = shared.registry.get(&request.model) else {
        return error(
            ErrorCode::UnknownModel,
            format!(
                "model `{}` is not registered (available: {})",
                request.model,
                shared.registry.names().join(", ")
            ),
        );
    };
    if deadline.expired() {
        return expired();
    }

    let circuit = match Circuit::from_bench(request.model.clone(), &request.bench) {
        Ok(circuit) => circuit,
        Err(e) => return error(ErrorCode::BadNetlist, e.to_string()),
    };
    if deadline.expired() {
        return expired();
    }

    let mut selected = Vec::with_capacity(request.mask.len());
    for name in &request.mask {
        match circuit.find(name) {
            Some(id) => selected.push(id),
            None => {
                return error(
                    ErrorCode::UnknownGate,
                    format!("mask names `{name}`, which is not in the netlist"),
                );
            }
        }
    }
    if deadline.expired() {
        return expired();
    }

    let graph = CircuitGraph::from_circuit(&circuit);
    let op = Arc::new(entry.model.kind.operator(&graph));
    let x = encode_features(&circuit, &selected, entry.features);
    // Logical bytes of this request's inference inputs — the dominant
    // per-request allocations. Deterministic for a given request stream, so
    // the peak lands in BENCH_serve.json as a comparable number.
    let request_bytes = op.logical_bytes() + x.logical_bytes();
    shared
        .counters
        .peak_request_bytes
        .fetch_max(request_bytes, Ordering::Relaxed);
    if obs::enabled() {
        obs::emit(obs::EventKind::MemHighwater {
            scope: "serve.request",
            bytes: request_bytes,
        });
    }
    if deadline.expired() {
        return expired();
    }

    // The forward pass runs on this worker as a batch of one, with the
    // worker's own thread-local buffer pool. A panic inside it is caught by
    // `serve_connection` and answered `Internal`.
    shared
        .counters
        .forward_passes
        .fetch_add(1, Ordering::Relaxed);
    let value = entry.model.predict(&op, &x);
    finish_prediction(value, &entry.name, &deadline, expired)
}

/// Stamps the post-inference deadline check and wraps the value.
fn finish_prediction(
    value: f64,
    model_name: &str,
    deadline: &Deadline,
    expired: impl Fn() -> Reply,
) -> Reply {
    if deadline.expired() {
        // The work finished but too late; an honest deadline error beats a
        // stale answer the client has already given up on.
        return expired();
    }
    if value.is_finite() {
        Reply::Prediction {
            value,
            infer_ns: 0, // stamped by the caller with the measured wall
            wait_ns: 0,
        }
    } else {
        Reply::Error {
            code: ErrorCode::BadRequest,
            message: format!("model `{model_name}` produced a non-finite prediction"),
        }
    }
}
