//! End-to-end degradation matrix for the prediction service (`crates/serve`).
//!
//! Each test drives a real multi-threaded server over real TCP through one
//! row of the robustness contract: overload sheds without blocking the
//! acceptor, expired deadlines come back typed with the worker surviving,
//! malformed/oversized/truncated input gets a typed refusal, an injected
//! worker death self-heals, and cancellation drains in-flight work before
//! refusing new requests.
//!
//! The fault-injection registry is process-global, and every server hits
//! the `serve.*` sites on its hot path — so *every* test here serializes on
//! [`FAULT_LOCK`], not just the ones that arm a plan.

use serve::protocol::{self, write_frame, FrameType, MAGIC};
use serve::{
    ErrorCode, LoadgenConfig, ModelRegistry, Reply, Request, ServeConfig, Server, Workload,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the fault plan when a test exits, pass or panic.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn demo_model() -> icnet::GraphModel {
    icnet::GraphModel::new(
        icnet::ModelKind::Gcn,
        icnet::Aggregation::Sum,
        icnet::NUM_FEATURES_ALL,
        8,
        8,
        7,
    )
}

fn demo_registry() -> ModelRegistry {
    ModelRegistry::from_models([("demo".to_owned(), demo_model())]).expect("demo registry")
}

fn start_server(config: ServeConfig) -> Server {
    Server::start(demo_registry(), config).expect("server binds")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

fn valid_request(deadline_ms: u32) -> Request {
    Request {
        model: "demo".to_owned(),
        deadline_ms,
        mask: vec!["n10".to_owned()],
        bench: netlist::c17().to_bench(),
    }
}

fn expect_prediction(reply: Reply) -> f64 {
    match reply {
        Reply::Prediction { value, .. } => {
            assert!(value.is_finite(), "prediction must be finite: {value}");
            value
        }
        other => panic!("expected a prediction, got {other:?}"),
    }
}

fn expect_error(reply: Reply, code: ErrorCode) -> String {
    match reply {
        Reply::Error { code: got, message } => {
            assert_eq!(got, code, "wrong error code: {message}");
            message
        }
        other => panic!("expected {code:?}, got {other:?}"),
    }
}

#[test]
fn predictions_flow_over_tcp_and_connections_are_reusable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });

    let mut stream = connect(&server);
    protocol::ping(&mut stream).expect("ping answers");
    let first = expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    // Same connection, second request: workers serve frames, not sockets.
    let second = expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    assert_eq!(first, second, "identical requests predict identically");
    drop(stream);

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.worker_deaths, 0);
}

#[test]
fn overload_sheds_typed_errors_and_the_acceptor_never_blocks() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });

    // Occupy the only worker: an open connection that sends nothing keeps
    // it parked in read_frame until we hang up.
    let busy = connect(&server);
    std::thread::sleep(Duration::from_millis(100));
    // Fill the one queue slot.
    let mut queued = connect(&server);
    std::thread::sleep(Duration::from_millis(100));

    // Everything beyond the queue must shed *promptly* with a typed error —
    // if the acceptor were blocked behind the stuck worker, these reads
    // would time out instead.
    for _ in 0..3 {
        let mut extra = connect(&server);
        let shed_started = Instant::now();
        write_frame(&mut extra, FrameType::Predict, &valid_request(0).encode()).unwrap();
        let reply = protocol::read_reply(&mut extra).expect("shed reply arrives");
        let message = expect_error(reply, ErrorCode::Overloaded);
        assert!(message.contains("queue"), "{message}");
        assert!(
            shed_started.elapsed() < Duration::from_secs(2),
            "shedding must not wait on the busy worker"
        );
    }

    // Release the worker: the queued connection gets served, proving the
    // queue drained rather than wedged.
    drop(busy);
    protocol::ping(&mut queued).expect("queued connection is served after the worker frees up");
    expect_prediction(protocol::call(&mut queued, &valid_request(0)).unwrap());

    let stats = server.shutdown();
    assert!(stats.shed >= 3, "shed {} connections", stats.shed);
    assert_eq!(stats.completed, 1);
}

#[test]
fn expired_deadlines_are_typed_and_the_worker_survives() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    let mut stream = connect(&server);
    // The first request's deadline clock starts at admission, so aging the
    // connection before sending a 1 ms-deadline request guarantees expiry.
    std::thread::sleep(Duration::from_millis(80));
    let reply = protocol::call(&mut stream, &valid_request(1)).unwrap();
    let message = expect_error(reply, ErrorCode::DeadlineExceeded);
    assert!(message.contains("deadline"), "{message}");

    // Same connection, same worker: a fresh request with the server default
    // deadline succeeds. Deadline refusal is per-request, not per-worker.
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert!(stats.errors >= 1);
    assert_eq!(stats.worker_deaths, 0);
}

#[test]
fn malformed_input_gets_typed_refusals_and_the_server_stays_healthy() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 2,
        max_payload: 64 * 1024,
        ..ServeConfig::default()
    });

    // Bad magic: an HTTP probe, say.
    let mut stream = connect(&server);
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reply = protocol::read_reply(&mut stream).expect("typed reply to bad magic");
    expect_error(reply, ErrorCode::BadFrame);

    // Unknown frame type.
    let mut stream = connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(0x7f);
    frame.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&frame).unwrap();
    let reply = protocol::read_reply(&mut stream).expect("typed reply to bad type");
    expect_error(reply, ErrorCode::BadFrame);

    // Hostile length prefix: refused without reading (or allocating) it.
    let mut stream = connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(FrameType::Predict.byte());
    frame.extend_from_slice(&(512u32 * 1024 * 1024).to_le_bytes());
    stream.write_all(&frame).unwrap();
    let reply = protocol::read_reply(&mut stream).expect("typed reply to oversized frame");
    let message = expect_error(reply, ErrorCode::PayloadTooLarge);
    assert!(message.contains("cap"), "{message}");

    // Structurally broken request payload.
    let mut stream = connect(&server);
    write_frame(&mut stream, FrameType::Predict, &[0xff; 3]).unwrap();
    let reply = protocol::read_reply(&mut stream).expect("typed reply to garbage payload");
    expect_error(reply, ErrorCode::BadFrame);

    // Truncated .bench text: the parser's diagnosis travels to the client.
    let mut stream = connect(&server);
    let mut request = valid_request(0);
    request.bench.truncate(request.bench.len() / 2);
    request.bench.push_str("\nz = FROB(");
    let reply = protocol::call(&mut stream, &request).unwrap();
    expect_error(reply, ErrorCode::BadNetlist);

    // Unknown model and unknown gate are distinct refusals.
    let mut stream = connect(&server);
    let mut request = valid_request(0);
    request.model = "nonexistent".to_owned();
    let message = expect_error(
        protocol::call(&mut stream, &request).unwrap(),
        ErrorCode::UnknownModel,
    );
    assert!(
        message.contains("demo"),
        "names the available models: {message}"
    );
    let mut request = valid_request(0);
    request.mask = vec!["no_such_gate".to_owned()];
    let reply = protocol::call(&mut stream, &request).unwrap();
    expect_error(reply, ErrorCode::UnknownGate);

    // Mid-frame disconnect: write half a header and vanish.
    let mut stream = connect(&server);
    stream.write_all(&MAGIC[..2]).unwrap();
    drop(stream);
    std::thread::sleep(Duration::from_millis(100));

    // After the whole gauntlet, the server still predicts.
    let mut stream = connect(&server);
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());

    let stats = server.shutdown();
    assert!(stats.errors >= 7, "typed errors recorded: {}", stats.errors);
    assert_eq!(stats.worker_deaths, 0, "no worker died on bad input");
}

#[test]
fn injected_worker_death_self_heals() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _cleanup = Disarm;
    faults::arm_str("serve.worker:die@o0", None).unwrap();

    let server = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // The first admitted connection kills its worker: the client sees a
    // dropped connection (no reply), never a hang.
    let mut stream = connect(&server);
    write_frame(&mut stream, FrameType::Predict, &valid_request(0).encode()).unwrap();
    let err = protocol::read_reply(&mut stream).expect_err("connection dies with the worker");
    assert!(
        matches!(
            err.kind(),
            // EOF if the socket closed cleanly, RST if it was dropped with
            // the request bytes still unread — both are a dead connection,
            // neither is a hang.
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
        ),
        "{err}"
    );

    // The monitor restores the pool to full strength.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().respawns < 1 {
        assert!(
            Instant::now() < deadline,
            "monitor never respawned a worker"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Both workers (the survivor and the respawn) serve fine afterwards.
    for _ in 0..4 {
        let mut stream = connect(&server);
        expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    }

    let stats = server.shutdown();
    assert_eq!(stats.worker_deaths, 1);
    assert!(stats.respawns >= 1);
    assert_eq!(stats.completed, 4);
}

#[test]
fn cancellation_drains_in_flight_work_then_refuses_new_requests() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cancel = attack::CancelToken::new();
    let server = start_server(ServeConfig {
        workers: 1,
        cancel: cancel.clone(),
        ..ServeConfig::default()
    });

    // One connection being served, one admitted and waiting in the queue.
    let mut active = connect(&server);
    expect_prediction(protocol::call(&mut active, &valid_request(0)).unwrap());
    let mut queued = connect(&server);
    std::thread::sleep(Duration::from_millis(100));

    cancel.cancel();

    // The in-flight connection's next request is still answered — then the
    // worker refuses further work on it with a typed ShuttingDown.
    expect_prediction(protocol::call(&mut active, &valid_request(0)).unwrap());
    let reply = protocol::read_reply(&mut active).expect("drain notice");
    expect_error(reply, ErrorCode::ShuttingDown);
    drop(active);

    // The queued connection was admitted before cancel: its request is
    // honoured as part of the drain, not dropped.
    expect_prediction(protocol::call(&mut queued, &valid_request(0)).unwrap());
    let reply = protocol::read_reply(&mut queued).expect("drain notice");
    expect_error(reply, ErrorCode::ShuttingDown);
    drop(queued);

    // join() returns only once the drain is complete.
    let stats = server.join();
    assert_eq!(stats.completed, 3, "every admitted request was answered");
}

#[test]
fn expired_on_arrival_requests_never_reach_inference() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    // Age the connection past the 1 ms budget before the request is even
    // sent: the deadline clock starts at admission, so this request is dead
    // on arrival and must be refused before any pipeline stage runs.
    let mut stream = connect(&server);
    std::thread::sleep(Duration::from_millis(80));
    let reply = protocol::call(&mut stream, &valid_request(1)).unwrap();
    expect_error(reply, ErrorCode::DeadlineExceeded);
    assert_eq!(
        server.stats().infer_batches,
        0,
        "an expired-on-arrival request must not trigger a forward pass"
    );

    // A healthy request afterwards does run inference — proving the counter
    // above would have moved had the expired request been predicted.
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    let stats = server.shutdown();
    assert_eq!(stats.infer_batches, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn concurrent_workers_answer_bit_identically_to_a_solo_request() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    let mut stream = connect(&server);
    let solo = expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    drop(stream);

    // Four concurrent requests, each run by its own worker with its own
    // thread-local buffer pool: every answer must equal the solo prediction
    // bit-for-bit.
    let addr = server.local_addr();
    let values: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    stream
                        .set_write_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for value in &values {
        assert_eq!(
            value.to_bits(),
            solo.to_bits(),
            "a concurrent request changed an answer: {values:?} vs solo {solo}"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.infer_batches, 5, "one forward pass per request");
}

#[test]
fn forward_pass_failures_are_typed_and_the_worker_survives() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A first conv weight of the wrong shape makes the forward pass panic.
    let mut misshapen = demo_model();
    misshapen.params_mut()[0] = tensor::Matrix::zeros(3, 3);
    // A NaN output bias makes every prediction NaN.
    let mut nan = demo_model();
    let bias = nan.params_mut().last_mut().expect("bias parameter");
    bias.as_mut_slice().fill(f64::NAN);
    let registry = ModelRegistry::from_models([
        ("misshapen".to_owned(), misshapen),
        ("nan".to_owned(), nan),
        ("demo".to_owned(), demo_model()),
    ])
    .expect("registry");
    // One worker: the healthy request at the end runs on the very thread
    // that took the panic.
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let for_model = |name: &str| Request {
        model: name.to_owned(),
        ..valid_request(0)
    };

    let mut stream = connect(&server);
    let reply = protocol::call(&mut stream, &for_model("misshapen")).unwrap();
    let message = expect_error(reply, ErrorCode::Internal);
    assert!(message.contains("panicked"), "{message}");
    let reply = protocol::call(&mut stream, &for_model("nan")).unwrap();
    let message = expect_error(reply, ErrorCode::BadRequest);
    assert!(message.contains("non-finite"), "{message}");
    expect_prediction(protocol::call(&mut stream, &for_model("demo")).unwrap());
    drop(stream);

    let stats = server.shutdown();
    assert_eq!(stats.infer_batches, 3);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.worker_deaths, 0);
    assert_eq!(stats.respawns, 0);
}

#[test]
fn saturating_load_sheds_instead_of_collapsing() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 2,
        queue_depth: 4,
        ..ServeConfig::default()
    });

    let workload = Workload {
        model: "demo".to_owned(),
        bench: netlist::c17().to_bench(),
        mask: vec!["n10".to_owned()],
        deadline_ms: 0,
    };
    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        rates: vec![50.0, 5000.0],
        requests: 60,
        clients: 6,
        timeout: Duration::from_secs(5),
        probe_timeout: None,
    };
    let reports = serve::run_levels(&config, &workload);

    for report in &reports {
        assert_eq!(
            report.ok + report.overloaded + report.deadline_exceeded + report.other_error,
            report.sent,
            "every offered request is accounted for at {} rps",
            report.offered_rps
        );
        assert!(
            report.ok > 0,
            "the server keeps completing work at {} rps (got {:?})",
            report.offered_rps,
            report
        );
    }
    // The moderate level should be essentially all-success; the saturating
    // level may shed but must not collapse to zero goodput (asserted above).
    assert!(
        reports[0].ok >= reports[0].sent * 9 / 10,
        "50 rps is comfortably under capacity: {:?}",
        reports[0]
    );

    server.shutdown();
}

#[test]
fn slow_loris_partial_frame_is_cut_off_by_the_whole_request_timeout() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        // Each trickled byte lands well inside io_timeout, so only the
        // whole-request deadline can end this.
        io_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    });

    let mut loris = connect(&server);
    let started = Instant::now();
    // Trickle a valid frame header one byte at a time, forever (from the
    // server's perspective): each byte restarts a plain socket timeout.
    let header = {
        let mut h = MAGIC.to_vec();
        h.push(0x01); // a plausible frame type byte
        h.extend_from_slice(&8u32.to_le_bytes());
        h
    };
    let mut cut_off = false;
    for byte in header.iter().cycle().take(64) {
        if loris.write_all(std::slice::from_ref(byte)).is_err() {
            cut_off = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        // The server replies BadFrame and closes once the whole-request
        // deadline passes; detect it without blocking forever.
        loris
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut probe = [0u8; 1];
        match std::io::Read::read(&mut loris, &mut probe) {
            Ok(_) => {
                cut_off = true;
                break;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                cut_off = true;
                break;
            }
        }
    }
    assert!(cut_off, "the trickled frame must be cut off");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "cut-off must come from the 400 ms request timeout, not io_timeout ({:?})",
        started.elapsed()
    );
    drop(loris);

    // The single worker is free again: a well-behaved client is served.
    let mut stream = connect(&server);
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    server.shutdown();
}

#[test]
fn client_that_stops_reading_mid_reply_cannot_wedge_the_worker() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        io_timeout: Duration::from_millis(300),
        // Unlimited requests per connection: the write timeout, not the
        // request cap, must be what frees the worker here.
        max_requests_per_conn: 0,
        ..ServeConfig::default()
    });

    // Pipeline pings without ever reading a pong. Once the client's receive
    // buffer and the server's send buffer fill, the worker's reply write
    // blocks; the write timeout must free it rather than wedge it forever.
    let mut greedy = connect(&server);
    greedy
        .set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut wrote_any = false;
    for _ in 0..1_000_000 {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameType::Ping, &[]).unwrap();
        match greedy.write_all(&frame) {
            Ok(()) => wrote_any = true,
            // Buffers are full: the server is now blocked writing pongs.
            Err(_) => break,
        }
    }
    assert!(wrote_any, "the pipeline never started");

    // Within a bounded wait the write timeout trips, the connection is
    // dropped, and the lone worker serves a fresh client.
    let recovered = Instant::now();
    let mut stream = connect(&server);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    assert!(
        recovered.elapsed() < Duration::from_secs(8),
        "worker must free within the write timeout, not hang ({:?})",
        recovered.elapsed()
    );
    drop(greedy);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_after_the_idle_timeout() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        io_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    });

    let mut idle = connect(&server);
    let started = Instant::now();
    let reply = protocol::read_reply(&mut idle).expect("typed reply before close");
    let message = expect_error(reply, ErrorCode::BadFrame);
    assert!(message.contains("no frame"), "{message}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "reaped by idle_timeout, not io_timeout ({:?})",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn connection_request_cap_closes_with_a_typed_error() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig {
        workers: 1,
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });

    let mut stream = connect(&server);
    for _ in 0..3 {
        expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    }
    // The 4th request on this connection is refused with a typed error
    // telling the client to reconnect, and the connection closes.
    write_frame(&mut stream, FrameType::Predict, &valid_request(0).encode()).unwrap();
    let reply = protocol::read_reply(&mut stream).expect("cap reply arrives");
    let message = expect_error(reply, ErrorCode::Overloaded);
    assert!(message.contains("reconnect"), "{message}");

    // A fresh connection re-enters admission and is served normally.
    let mut fresh = connect(&server);
    expect_prediction(protocol::call(&mut fresh, &valid_request(0)).unwrap());

    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);
}

#[test]
fn memory_watermark_sheds_overloaded_before_the_oom_killer_would() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A 1-byte watermark is always exceeded: every connection must shed
    // with a typed Overloaded instead of being admitted.
    let server = start_server(ServeConfig {
        workers: 2,
        mem_watermark: Some(1),
        ..ServeConfig::default()
    });

    let mut stream = connect(&server);
    write_frame(&mut stream, FrameType::Predict, &valid_request(0).encode()).unwrap();
    let reply = protocol::read_reply(&mut stream).expect("shed reply arrives");
    expect_error(reply, ErrorCode::Overloaded);

    let stats = server.shutdown();
    assert!(stats.shed >= 1, "watermark shed {} connections", stats.shed);
    assert_eq!(stats.completed, 0, "nothing admitted past the watermark");
}

#[test]
fn server_meters_the_same_request_bytes_the_client_can_compute() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(ServeConfig::default());

    let mut stream = connect(&server);
    expect_prediction(protocol::call(&mut stream, &valid_request(0)).unwrap());
    drop(stream);

    // demo_registry registers a Gcn/All-features model; logical bytes are a
    // pure function of the workload, so client and server must agree.
    let workload = Workload {
        model: "demo".to_owned(),
        bench: netlist::c17().to_bench(),
        mask: vec!["n10".to_owned()],
        deadline_ms: 0,
    };
    let expected = serve::loadgen::workload_request_bytes(
        &workload,
        icnet::ModelKind::Gcn,
        icnet::FeatureSet::All,
    )
    .expect("workload parses");
    assert!(expected > 0);

    let stats = server.shutdown();
    assert_eq!(stats.peak_request_bytes, expected);
}
