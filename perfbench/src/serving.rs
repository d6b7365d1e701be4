//! `serve_mixed`: an open-loop schedule against an in-process
//! `serve::Server`, one low fixed rate plus a rising rate ladder.
//!
//! Requests come from a seeded stream over c432/c880/c1529 netlists with
//! random 1..=8-gate masks. Three quarters repeat one of three base netlists
//! with a new mask (design-space exploration); a quarter carry a netlist no
//! earlier request carried (a fresh circuit seed). Client threads (no more
//! than the host's cores, at most two) send on the schedule, one connection
//! per request as the repository's load generator does; latency runs from
//! the scheduled send time, so a late generator counts against the system.

use crate::report::{ms_since, peak_rss_mb, traced, Ledger, Outcome};
use crate::stats::{self, Ladder, Level, Timed, TAIL_BEYOND};
use icnet::{Aggregation, BatchedGraph, CircuitGraph, FeatureSet, GraphModel, ModelKind};
use netlist::Circuit;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serve::protocol::{self, Reply, Request};
use serve::{ModelRegistry, ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PROFILES: [&str; 3] = ["c432", "c880", "c1529"];
const MODEL: &str = "icnet";
/// The low rate: requests rarely overlap, so the micro-batch window is
/// pure wait.
const LOW_RPS: f64 = 40.0;
/// Share of `--seconds` spent at the low rate.
const LOW_SHARE: f64 = 0.4;
/// Ladder: first rung, growth per rung, ceiling, bisection steps.
const LADDER: (f64, f64, f64, usize) = (100.0, 1.5, 6000.0, 3);
/// Length of one ladder rung as a share of `--seconds`.
const RUNG_SHARE: f64 = 0.025;
/// Tail-latency limit a ladder rate must meet.
const LIMIT_MS: f64 = 20.0;
/// A backlog grows when late requests wait this much longer than early ones.
const BACKLOG_SLACK_MS: f64 = 5.0;
/// Generous per-request deadline.
const DEADLINE_MS: u32 = 5_000;
/// Set-up (server start and warm-up) repeats; the median is reported.
const SETUP_REPEATS: usize = 3;
/// Warm-up requests per connection.
const WARMUP: usize = 8;
/// In-process reference checks: every low-rate reply and every n-th
/// ladder reply.
const LADDER_CHECK_EVERY: usize = 8;

/// A netlist a request can carry.
struct Netlist {
    bench: String,
    gates: Vec<String>,
    fresh: bool,
}

impl Netlist {
    fn synth(profile: &str, circuit_seed: u64, fresh: bool) -> Netlist {
        let circuit = synth::iscas::circuit(profile, circuit_seed).expect("known profile");
        let gates = circuit
            .gates()
            .filter(|g| !g.kind().is_input())
            .map(|g| g.name().to_owned())
            .collect();
        Netlist {
            bench: circuit.to_bench(),
            gates,
            fresh,
        }
    }
}

/// One request of the stream.
struct Req {
    netlist: Arc<Netlist>,
    mask: Vec<String>,
}

impl Req {
    fn wire(&self) -> Request {
        Request {
            model: MODEL.to_owned(),
            deadline_ms: DEADLINE_MS,
            mask: self.mask.clone(),
            bench: self.netlist.bench.clone(),
        }
    }
}

/// The seeded request stream: request `k` is a pure function of the seed
/// and `k`.
struct Stream {
    seed: u64,
    base: Vec<Arc<Netlist>>,
    next: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let base = PROFILES
            .iter()
            .enumerate()
            .map(|(i, p)| Arc::new(Netlist::synth(p, stats::mix(seed, 1 + i as u64), false)))
            .collect();
        Stream {
            seed,
            base,
            next: 0,
        }
    }

    fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let k = self.next;
                self.next += 1;
                let mut rng = StdRng::seed_from_u64(stats::mix(self.seed, 1 << 32 | k));
                let fresh = rng.gen_range(0..4) == 0;
                let profile = rng.gen_range(0..PROFILES.len());
                let netlist = if fresh {
                    let circuit_seed = stats::mix(self.seed, 1 << 40 | k);
                    Arc::new(Netlist::synth(PROFILES[profile], circuit_seed, true))
                } else {
                    Arc::clone(&self.base[profile])
                };
                let m = rng.gen_range(1..=8);
                let mask = netlist
                    .gates
                    .choose_multiple(&mut rng, m)
                    .cloned()
                    .collect();
                Req { netlist, mask }
            })
            .collect()
    }
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The served model: a seeded ICNet with attention aggregation over all
/// features.
fn model(seed: u64) -> GraphModel {
    GraphModel::new(
        ModelKind::ICNet,
        Aggregation::Nn,
        icnet::NUM_FEATURES_ALL,
        16,
        16,
        seed,
    )
}

/// One request on its own connection.
fn call(addr: SocketAddr, request: &Request) -> std::io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    s.set_write_timeout(Some(Duration::from_secs(30)))?;
    protocol::call(&mut s, request)
}

/// Builds the model and registry, starts the server and warms it up.
/// Charges `icnet` (model) and `serve` (start, warm-up).
fn start(seed: u64, stream: &Stream, mut ledger: Option<&mut Ledger>) -> Server {
    let t = Instant::now();
    let model = model(seed);
    let registry =
        ModelRegistry::from_models([(MODEL.to_owned(), model)]).expect("all-features width");
    if let Some(l) = ledger.as_deref_mut() {
        l.add("icnet", ms_since(t));
    }
    let t = Instant::now();
    let config = ServeConfig {
        workers: clients(),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, config).expect("bind a loopback port");
    for i in 0..WARMUP {
        let netlist = &stream.base[i % PROFILES.len()];
        let req = Req {
            netlist: Arc::clone(netlist),
            mask: netlist.gates[..1 + i % 8].to_vec(),
        };
        let reply = call(server.local_addr(), &req.wire()).expect("warm-up request");
        assert!(
            matches!(reply, Reply::Prediction { .. }),
            "warm-up failed: {reply:?}"
        );
    }
    if let Some(l) = ledger {
        l.add("serve", ms_since(t));
    }
    server
}

/// What one request got back.
#[derive(Debug, Clone, Copy)]
struct Answer {
    timed: Timed,
    /// The predicted value's bits, `None` for a non-prediction reply.
    value: Option<u64>,
}

/// Offers `reqs` at `rate` from the client threads.
fn offer(addr: SocketAddr, reqs: &[Req], rate: f64) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<(usize, Answer)>> = Mutex::new(Vec::with_capacity(reqs.len()));
    let wires: Vec<Request> = reqs.iter().map(Req::wire).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            let (next, answers, wires) = (&next, &answers, &wires);
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= wires.len() {
                    return;
                }
                let scheduled = Duration::from_secs_f64(k as f64 / rate);
                if let Some(wait) = scheduled.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = t0.elapsed();
                let reply = call(addr, &wires[k]);
                let done = t0.elapsed();
                let value = match reply {
                    Ok(Reply::Prediction { value, .. }) => Some(value.to_bits()),
                    _ => None,
                };
                let answer = Answer {
                    timed: Timed {
                        scheduled_ns: scheduled.as_nanos() as u64,
                        sent_ns: sent.as_nanos() as u64,
                        done_ns: done.as_nanos() as u64,
                    },
                    value,
                };
                answers
                    .lock()
                    .expect("no panic while recording")
                    .push((k, answer));
            });
        }
    });
    let mut answers = answers.into_inner().expect("threads joined");
    answers.sort_by_key(|(k, _)| *k);
    answers.into_iter().map(|(_, a)| a).collect()
}

fn level(rate: f64, answers: &[Answer]) -> Level {
    let timed: Vec<Timed> = answers
        .iter()
        .filter(|a| a.value.is_some())
        .map(|a| a.timed)
        .collect();
    let latencies = stats::latencies_ms(&timed);
    Level {
        rate,
        sent: answers.len(),
        failed: answers.iter().filter(|a| a.value.is_none()).count(),
        tail: stats::tail(&stats::sorted(&latencies), TAIL_BEYOND),
        backlog: stats::backlog_growing(&latencies, BACKLOG_SLACK_MS),
    }
}

/// The in-process prediction for `req`, through the same public calls the
/// server makes.
fn reference(model: &GraphModel, req: &Req) -> f64 {
    let circuit = Circuit::from_bench(MODEL, &req.netlist.bench).expect("valid netlist");
    let selected: Vec<_> = req
        .mask
        .iter()
        .map(|n| circuit.find(n).expect("masked gate"))
        .collect();
    let op = Arc::new(model.kind.operator(&CircuitGraph::from_circuit(&circuit)));
    let x = icnet::encode_features(&circuit, &selected, FeatureSet::All);
    model.predict_batched(&BatchedGraph::single(op), &[&x])[0]
}

/// Checks the sampled replies bit for bit against in-process predictions.
fn check_predictions(seed: u64, checked: &[(&Req, &Answer)], out: &mut Outcome) {
    let model = model(seed);
    let mut mismatches = 0;
    let mut compared = 0;
    for (req, answer) in checked {
        if let Some(bits) = answer.value {
            compared += 1;
            if reference(&model, req).to_bits() != bits {
                mismatches += 1;
            }
        }
    }
    out.note(format!(
        "{compared} served predictions compared bit for bit with in-process predict_batched"
    ));
    out.check(mismatches == 0, || {
        format!("{mismatches} of {compared} served predictions differ from predict_batched")
    });
}

/// One offered rung of the ladder: its level, every answer, and the
/// requests kept for the reference check (every `LADDER_CHECK_EVERY`-th).
struct Rung {
    level: Level,
    answers: Vec<Answer>,
    checked: Vec<(Req, Answer)>,
}

/// The ladder search; returns its rungs, the finished search, and the
/// milliseconds spent generating requests between rungs. A rung that fails
/// is offered once more with new requests and fails only if that fails
/// too: on a shared host a single stall can sink a rate the server
/// sustains.
fn ladder(stream: &mut Stream, addr: SocketAddr, seconds: u64) -> (Vec<Rung>, Ladder, f64) {
    let (start, growth, cap, refine) = LADDER;
    let mut search = Ladder::new(start, growth, cap, refine);
    let rung_s = seconds as f64 * RUNG_SHARE;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut gen_ms = 0.0;
    while let Some(rate) = search.next_rate() {
        for _attempt in 0..2 {
            let n = ((rate * rung_s).round() as usize).max(2 * TAIL_BEYOND);
            let t = Instant::now();
            let reqs = stream.take(n);
            gen_ms += ms_since(t);
            let answers = offer(addr, &reqs, rate);
            let checked = reqs
                .into_iter()
                .zip(answers.iter().copied())
                .step_by(LADDER_CHECK_EVERY)
                .collect();
            rungs.push(Rung {
                level: level(rate, &answers),
                answers,
                checked,
            });
            if rungs.last().is_some_and(|r| r.level.passes(LIMIT_MS)) {
                break;
            }
        }
        let last = &rungs.last().expect("a rung was offered").level;
        let tail_ms = last.tail.map_or(f64::INFINITY, |t| t.value);
        search.record(rate, last.passes(LIMIT_MS), tail_ms);
    }
    (rungs, search, gen_ms)
}

fn describe(lv: &Level) -> String {
    format!(
        "rate {:.1} rps: sent {}, failed {}, tail {}, backlog {}",
        lv.rate,
        lv.sent,
        lv.failed,
        lv.tail.map_or("-".into(), |t| format!(
            "p{:.1} {:.3} ms",
            100.0 * t.percentile,
            t.value
        )),
        lv.backlog
    )
}

/// `serve_mixed`.
pub fn serve_mixed(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let low_n = ((seconds as f64 * LOW_SHARE * LOW_RPS).round() as usize).max(2 * TAIL_BEYOND);
    if trace {
        traced_run(seed, seconds, low_n / 2, &mut out);
        return out;
    }

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<Server> = None;
    let mut stream = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let s = Stream::new(seed);
        server = Some(start(seed, &s, None));
        setups.push(t.elapsed().as_secs_f64());
        stream = Some(s);
    }
    let (server, mut stream) = (server.expect("set up"), stream.expect("set up"));
    out.set("setup_s", stats::median(&setups));

    let low_reqs = stream.take(low_n);
    let low = offer(server.local_addr(), &low_reqs, LOW_RPS);
    let low_level = level(LOW_RPS, &low);
    let (levels, search, _) = ladder(&mut stream, server.local_addr(), seconds);
    let max_rps = search.crossing(LIMIT_MS);
    let stats_after = server.shutdown();

    let timed: Vec<Timed> = low
        .iter()
        .filter(|a| a.value.is_some())
        .map(|a| a.timed)
        .collect();
    let latencies = stats::sorted(&stats::latencies_ms(&timed));
    out.set(
        "latency_p50_ms",
        stats::central_median(&latencies).unwrap_or(0.0),
    );
    if let Some(t) = low_level.tail {
        out.set("latency_tail_ms", t.value);
    }
    out.check(low_level.tail.is_some(), || {
        "too few low-rate replies for a tail".into()
    });
    out.set("throughput_per_s", max_rps.unwrap_or(0.0));
    out.check(max_rps.is_some(), || {
        "no ladder rate met the latency limit".into()
    });
    out.set("peak_rss_mb", peak_rss_mb());

    let (lag_p50, lag_max) = stats::lag_ms(&timed);
    let p50 = stats::nearest_rank(&latencies, 0.5).unwrap_or(0.0);
    out.check(lag_p50 <= 0.2 * p50, || {
        format!("generator lag p50 {lag_p50:.3} ms exceeds 20% of the low-rate p50 {p50:.3} ms")
    });
    out.note(format!(
        "serve_p50_ms = {p50:.3} ms, serve_tail_ms = {:.3} ms (p{:.1} of {} at {LOW_RPS} rps); \
         generator lag p50 {lag_p50:.3} ms, max {lag_max:.3} ms",
        low_level.tail.map_or(0.0, |t| t.value),
        100.0 * low_level.tail.map_or(0.0, |t| t.percentile),
        timed.len(),
    ));
    out.note(format!(
        "serve_max_rps = {:.1} rps (tail <= {LIMIT_MS} ms, no failures, no growing backlog; \
         interpolated up from the highest passing rung, {:.1} rps)",
        max_rps.unwrap_or(0.0),
        search.max_rate().unwrap_or(0.0)
    ));
    for rung in &levels {
        out.note(format!("ladder {}", describe(&rung.level)));
    }

    out.attempted = (low.len() + levels.iter().map(|r| r.level.sent).sum::<usize>()) as u64;
    out.failed = (low_level.failed + levels.iter().map(|r| r.level.failed).sum::<usize>()) as u64;
    out.note(format!(
        "server: {} predictions, {} shed, {} errors, {} batches",
        stats_after.completed, stats_after.shed, stats_after.errors, stats_after.infer_batches
    ));
    let mut checked: Vec<(&Req, &Answer)> = low_reqs.iter().zip(&low).collect();
    for rung in &levels {
        checked.extend(rung.checked.iter().map(|(r, a)| (r, a)));
    }
    check_predictions(seed, &checked, &mut out);
    out
}

/// The traced run: the low rate once untraced and once traced (for
/// `obs.overhead_frac`), the ladder traced, then the server's per-request
/// stages timed in-process on the same requests.
fn traced_run(seed: u64, seconds: u64, low_n: usize, out: &mut Outcome) {
    let mut ledger = Ledger::start();
    let t = Instant::now();
    let mut stream = Stream::new(seed);
    let synth_ms = ms_since(t);
    ledger.add("synth", synth_ms);
    // Three base netlists, each synthesized and written as `.bench`.
    out.set("synth.circuit_ms", synth_ms / PROFILES.len() as f64);
    let server = start(seed, &stream, Some(&mut ledger));
    let addr = server.local_addr();

    let t = Instant::now();
    let low_reqs = stream.take(low_n);
    ledger.add("synth", ms_since(t));
    // The untraced reference pass is bookkeeping for the overhead ratio,
    // not part of the traced wall.
    let t = Instant::now();
    let untraced = offer(addr, &low_reqs, LOW_RPS);
    ledger.exclude(ms_since(t));

    let before = server.stats();
    let ((low, levels, max_rps, gen_ms), events, io_ms) = traced(|| {
        let low = offer(addr, &low_reqs, LOW_RPS);
        let (levels, search, gen_ms) = ladder(&mut stream, addr, seconds);
        (low, levels, search.crossing(LIMIT_MS), gen_ms)
    });
    ledger.exclude(io_ms);
    // Requests are generated between rungs, mostly by synthesizing fresh
    // netlists.
    ledger.add("synth", gen_ms);
    let after = server.shutdown();

    // Client-observed busy time of the traced phases is the serve layer;
    // the rest of their wall is the generator waiting for the schedule.
    let mut phases: Vec<&[Answer]> = vec![&low];
    phases.extend(levels.iter().map(|r| r.answers.as_slice()));
    for answers in phases {
        let (busy, span) = busy_ms(answers);
        ledger.add("serve", busy);
        ledger.add("loadgen", span - busy);
    }

    let busy = |a: &[Answer]| {
        a.iter()
            .map(|x| x.timed.done_ns - x.timed.sent_ns)
            .sum::<u64>() as f64
    };
    out.set("obs.overhead_frac", busy(&low) / busy(&untraced) - 1.0);
    let timed: Vec<Timed> = low.iter().map(|a| a.timed).collect();
    let (lag_p50, lag_max) = stats::lag_ms(&timed);
    out.set("serve.gen_lag_p50_ms", lag_p50);
    out.set("serve.gen_lag_max_ms", lag_max);
    let waits: Vec<f64> = events.served.iter().map(|&(w, _)| w as f64 / 1e6).collect();
    let infers: Vec<f64> = events.served.iter().map(|&(_, i)| i as f64 / 1e6).collect();
    out.set("serve.wait_ms", stats::median(&waits));
    out.set("serve.infer_ms", stats::median(&infers));
    let completed = after.completed - before.completed;
    let batches = after.infer_batches - before.infer_batches;
    out.set("serve.batch_mean", completed as f64 / batches.max(1) as f64);
    out.set("serve.shed", after.shed as f64);
    out.set("serve.peak_request_bytes", after.peak_request_bytes as f64);
    out.note(format!(
        "traced ladder reached {:.1} rps; {} requests in multi-request batches",
        max_rps.unwrap_or(0.0),
        after.batched_requests - before.batched_requests
    ));

    let sent = low.len() + untraced.len() + levels.iter().map(|r| r.level.sent).sum::<usize>();
    let failed = [&low, &untraced]
        .iter()
        .flat_map(|a| a.iter())
        .filter(|a| a.value.is_none())
        .count()
        + levels.iter().map(|r| r.level.failed).sum::<usize>();
    out.attempted = sent as u64;
    out.failed = failed as u64;
    out.check(
        low.iter().zip(&untraced).all(|(a, b)| a.value == b.value),
        || "traced and untraced replies differ".into(),
    );

    stage_probes(seed, &low_reqs, out, &mut ledger);
    ledger.finish(out);
}

/// Busy time (union of send..reply intervals) and span of one phase.
fn busy_ms(answers: &[Answer]) -> (f64, f64) {
    let mut spans: Vec<(u64, u64)> = answers
        .iter()
        .map(|a| (a.timed.sent_ns, a.timed.done_ns))
        .collect();
    spans.sort_unstable();
    let (mut busy, mut end) = (0u64, 0u64);
    for (s, e) in &spans {
        let s = (*s).max(end);
        if *e > s {
            busy += e - s;
            end = *e;
        }
    }
    let span = spans.iter().map(|s| s.1).max().unwrap_or(0);
    (busy as f64 / 1e6, span as f64 / 1e6)
}

/// Times the server's per-request stages with the same public calls it
/// makes, split by repeat and fresh netlists. Charges `netlist` (parse),
/// `icnet` (graph, featurize, forward), `tensor` (the propagation kernel
/// alone) and `serve` (codec).
fn stage_probes(seed: u64, reqs: &[Req], out: &mut Outcome, ledger: &mut Ledger) {
    let model = model(seed);
    // [parse, graph, featurize, forward, codec] x [repeat, fresh]
    let mut times: [[Vec<f64>; 2]; 5] = Default::default();
    let mut spmm = Vec::new();
    for req in reqs {
        let f = usize::from(req.netlist.fresh);
        let wire = req.wire();
        let t = Instant::now();
        let decoded = Request::decode(&wire.encode()).expect("round trip");
        let (ft, payload) = Reply::Prediction {
            value: 0.5,
            infer_ns: 1,
            wait_ns: 1,
        }
        .encode();
        std::hint::black_box(Reply::decode(ft, &payload).expect("round trip"));
        times[4][f].push(ms_since(t));

        let t = Instant::now();
        let circuit = Circuit::from_bench(MODEL, &decoded.bench).expect("valid netlist");
        times[0][f].push(ms_since(t));
        let t = Instant::now();
        let op = Arc::new(model.kind.operator(&CircuitGraph::from_circuit(&circuit)));
        times[1][f].push(ms_since(t));
        let t = Instant::now();
        let selected: Vec<_> = decoded
            .mask
            .iter()
            .map(|n| circuit.find(n).expect("masked gate"))
            .collect();
        let x = icnet::encode_features(&circuit, &selected, FeatureSet::All);
        times[2][f].push(ms_since(t));
        let t = Instant::now();
        let batch = BatchedGraph::single(Arc::clone(&op));
        std::hint::black_box(model.predict_batched(&batch, &[&x]));
        times[3][f].push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(op.spmm(&x));
        spmm.push(ms_since(t));
    }
    let names = [
        ["serve.parse_repeat_ms", "serve.parse_fresh_ms"],
        ["serve.graph_repeat_ms", "serve.graph_fresh_ms"],
        ["serve.featurize_repeat_ms", "serve.featurize_fresh_ms"],
        ["serve.forward_repeat_ms", "serve.forward_fresh_ms"],
        ["serve.codec_repeat_ms", "serve.codec_fresh_ms"],
    ];
    let layers = ["netlist", "icnet", "icnet", "icnet", "serve"];
    for ((stage, name), layer) in times.iter().zip(names).zip(layers) {
        for (samples, metric) in stage.iter().zip(name) {
            out.set(metric, stats::median(samples));
            ledger.add(layer, samples.iter().sum());
        }
    }
    out.set("tensor.spmm_ms", stats::median(&spmm));
    ledger.add("tensor", spmm.iter().sum());
    let fresh = reqs.iter().filter(|r| r.netlist.fresh).count();
    out.note(format!(
        "stage probes: {} repeat and {fresh} fresh requests",
        reqs.len() - fresh
    ));
}
