//! Open-loop load generator for the prediction service.
//!
//! *Open-loop* means requests are launched on a fixed schedule (request `k`
//! fires at `t0 + k/rate`) regardless of how fast earlier requests finish.
//! A closed-loop generator slows down with the server and therefore cannot
//! see saturation; an open-loop one keeps offering load past the knee, which
//! is exactly where the shed/deadline behaviour this crate exists for shows
//! up. Latency is measured from the *scheduled* send time, so queueing
//! behind a saturated server counts against the server, not the client.
//!
//! [`run_levels`] sweeps a list of offered rates and produces one
//! [`LevelReport`] per rate; [`reports_to_json`] renders the sweep in the
//! same hand-rolled JSON style as the other `BENCH_*.json` artifacts.

use crate::protocol::{self, ErrorCode, Reply, Request};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The request every load-generated call sends (one workload per sweep).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Registry name of the model to exercise.
    pub model: String,
    /// `.bench` netlist text sent with every request.
    pub bench: String,
    /// Gate mask sent with every request.
    pub mask: Vec<String>,
    /// Client deadline in milliseconds (0 = server default).
    pub deadline_ms: u32,
}

impl Workload {
    fn request(&self) -> Request {
        Request {
            model: self.model.clone(),
            deadline_ms: self.deadline_ms,
            mask: self.mask.clone(),
            bench: self.bench.clone(),
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Offered rates to sweep, in requests/second.
    pub rates: Vec<f64>,
    /// Requests per rate level.
    pub requests: usize,
    /// Client threads firing the schedule.
    pub clients: usize,
    /// Per-connection socket timeout.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:0".to_owned(),
            rates: vec![50.0, 200.0, 1000.0],
            requests: 200,
            clients: 8,
            timeout: Duration::from_secs(5),
        }
    }
}

impl LoadgenConfig {
    /// The readiness-probe socket timeout ([`wait_ready`]): one-tenth of
    /// the request timeout, clamped to [50 ms, timeout]. Probes should give
    /// up well before a real request would — a server that cannot answer a
    /// ping in a fraction of the request budget is not ready — but still
    /// scale with slow deployments instead of a hardcoded 500 ms.
    fn probe_timeout(&self) -> Duration {
        (self.timeout / 10)
            .max(Duration::from_millis(50))
            .min(self.timeout)
    }
}

/// Outcome histogram and latency tail for one offered-rate level.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// The rate the schedule offered (requests/second).
    pub offered_rps: f64,
    /// Requests actually sent.
    pub sent: usize,
    /// Requests answered with a prediction.
    pub ok: usize,
    /// Requests shed with [`ErrorCode::Overloaded`].
    pub overloaded: usize,
    /// Requests refused with [`ErrorCode::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Every other failure (typed errors, transport errors, timeouts).
    pub other_error: usize,
    /// Successful predictions per second of wall time.
    pub achieved_ok_rps: f64,
    /// Median latency of successful requests, milliseconds (scheduled send
    /// → reply decoded).
    pub p50_ms: f64,
    /// 99th-percentile latency of successful requests, milliseconds.
    pub p99_ms: f64,
    /// Wall time of the whole level, seconds.
    pub wall_s: f64,
}

#[derive(Default)]
struct LevelTally {
    ok: usize,
    overloaded: usize,
    deadline_exceeded: usize,
    other_error: usize,
    latencies_ns: Vec<u64>,
}

/// Polls the server with pings until it answers or `timeout` elapses. Each
/// probe's socket timeout is a tenth of [`LoadgenConfig::timeout`], clamped
/// to [50 ms, timeout].
///
/// # Errors
///
/// Returns the last connect/ping error once the timeout expires.
pub fn wait_ready(config: &LoadgenConfig, timeout: Duration) -> std::io::Result<()> {
    let addr = config.addr.as_str();
    let probe = config.probe_timeout();
    let start = Instant::now();
    let mut last: std::io::Error =
        std::io::Error::new(std::io::ErrorKind::TimedOut, "server never answered a ping");
    while start.elapsed() < timeout {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                let _ = stream.set_read_timeout(Some(probe));
                let _ = stream.set_write_timeout(Some(probe));
                match protocol::ping(&mut stream) {
                    Ok(()) => return Ok(()),
                    Err(e) => last = e,
                }
            }
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(last)
}

/// Runs one open-loop level: `config.requests` requests offered at
/// `rate` requests/second from `config.clients` threads, one connection per
/// request.
fn run_level(config: &LoadgenConfig, workload: &Workload, rate: f64) -> LevelReport {
    let next = AtomicUsize::new(0);
    let tally = Mutex::new(LevelTally::default());
    let t0 = Instant::now();
    let interval_ns = if rate > 0.0 { 1e9 / rate } else { 0.0 };

    std::thread::scope(|scope| {
        for _ in 0..config.clients.max(1) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= config.requests {
                    return;
                }
                let scheduled = Duration::from_nanos((interval_ns * k as f64) as u64);
                // Open loop: hold the schedule even if the server lags.
                loop {
                    let elapsed = t0.elapsed();
                    if elapsed >= scheduled {
                        break;
                    }
                    std::thread::sleep((scheduled - elapsed).min(Duration::from_millis(5)));
                }
                let outcome = fire_once(config, workload);
                let latency_ns = t0.elapsed().saturating_sub(scheduled).as_nanos() as u64;
                let mut tally = tally.lock().unwrap_or_else(|e| e.into_inner());
                match outcome {
                    Ok(Reply::Prediction { .. }) => {
                        tally.ok += 1;
                        tally.latencies_ns.push(latency_ns);
                    }
                    Ok(Reply::Error { code, .. }) => match code {
                        ErrorCode::Overloaded => tally.overloaded += 1,
                        ErrorCode::DeadlineExceeded => tally.deadline_exceeded += 1,
                        _ => tally.other_error += 1,
                    },
                    Ok(Reply::Pong) | Err(_) => tally.other_error += 1,
                }
            });
        }
    });

    let wall_s = t0.elapsed().as_secs_f64();
    let mut tally = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    tally.latencies_ns.sort_unstable();
    let pct =
        |p: f64| -> f64 { nearest_rank(&tally.latencies_ns, p).map_or(0.0, |ns| ns as f64 / 1e6) };
    LevelReport {
        offered_rps: rate,
        sent: config.requests,
        ok: tally.ok,
        overloaded: tally.overloaded,
        deadline_exceeded: tally.deadline_exceeded,
        other_error: tally.other_error,
        achieved_ok_rps: if wall_s > 0.0 {
            tally.ok as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        wall_s,
    }
}

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// value with at least `p·n` of the observations at or below it, i.e. the
/// sample at 1-based rank `⌈p·n⌉`. With one sample every percentile is that
/// sample; with two, the p50 is the *first* (half the mass sits at or below
/// it). An earlier revision used `round((n-1)·p)`, which reported the 51st
/// of 100 samples as the median.
fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

fn fire_once(config: &LoadgenConfig, workload: &Workload) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(config.timeout))?;
    stream.set_write_timeout(Some(config.timeout))?;
    protocol::call(&mut stream, &workload.request())
}

/// Sweeps every rate in `config.rates` and returns one report per level.
pub fn run_levels(config: &LoadgenConfig, workload: &Workload) -> Vec<LevelReport> {
    config
        .rates
        .iter()
        .map(|&rate| run_level(config, workload, rate))
        .collect()
}

/// Logical bytes of one request's inference inputs (propagation operator +
/// feature matrix) for the given model architecture — the same number the
/// server records per request in
/// [`ServeStats::peak_request_bytes`](crate::ServeStats::peak_request_bytes).
/// A pure function of the workload, so the client
/// can stamp it into `BENCH_serve.json` without a stats side channel.
/// `None` when the netlist does not parse or the mask names a missing gate.
pub fn workload_request_bytes(
    workload: &Workload,
    kind: icnet::ModelKind,
    features: icnet::FeatureSet,
) -> Option<u64> {
    let circuit = netlist::Circuit::from_bench(workload.model.clone(), &workload.bench).ok()?;
    let selected: Option<Vec<_>> = workload.mask.iter().map(|n| circuit.find(n)).collect();
    let graph = icnet::CircuitGraph::from_circuit(&circuit);
    let op = kind.operator(&graph);
    let x = icnet::encode_features(&circuit, &selected?, features);
    Some(op.logical_bytes() + x.logical_bytes())
}

/// Renders a sweep as the `BENCH_serve.json` artifact (hand-rolled JSON,
/// matching the other `BENCH_*.json` files). `peak_request_bytes` is the
/// per-request logical-byte figure (see [`workload_request_bytes`]); `0`
/// means unknown and is still recorded for schema stability.
pub fn reports_to_json(
    workload_model: &str,
    reports: &[LevelReport],
    peak_request_bytes: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"model\": \"{workload_model}\",\n"));
    out.push_str(&format!(
        "  \"peak_request_bytes\": {peak_request_bytes},\n"
    ));
    out.push_str("  \"levels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"offered_rps\": {:.1}, \"sent\": {}, \"ok\": {}, \
             \"overloaded\": {}, \"deadline_exceeded\": {}, \"other_error\": {}, \
             \"achieved_ok_rps\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"wall_s\": {:.3}}}{}\n",
            r.offered_rps,
            r.sent,
            r.ok,
            r.overloaded,
            r.deadline_exceeded,
            r.other_error,
            r.achieved_ok_rps,
            r.p50_ms,
            r.p99_ms,
            r.wall_s,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render_as_json() {
        let reports = vec![
            LevelReport {
                offered_rps: 50.0,
                sent: 100,
                ok: 100,
                overloaded: 0,
                deadline_exceeded: 0,
                other_error: 0,
                achieved_ok_rps: 49.8,
                p50_ms: 1.2,
                p99_ms: 3.4,
                wall_s: 2.0,
            },
            LevelReport {
                offered_rps: 2000.0,
                sent: 100,
                ok: 40,
                overloaded: 55,
                deadline_exceeded: 5,
                other_error: 0,
                achieved_ok_rps: 400.0,
                p50_ms: 2.0,
                p99_ms: 20.0,
                wall_s: 0.1,
            },
        ];
        let json = reports_to_json("demo", &reports, 4096);
        assert!(json.contains("\"model\": \"demo\""));
        assert!(json.contains("\"peak_request_bytes\": 4096"));
        assert!(json.contains("\"overloaded\": 55"));
        assert!(json.ends_with("}\n"));
        // Exactly one separator between the two level objects.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn nearest_rank_of_one_sample_is_that_sample() {
        let lat = vec![7u64];
        assert_eq!(nearest_rank(&lat, 0.50), Some(7));
        assert_eq!(nearest_rank(&lat, 0.99), Some(7));
        assert_eq!(nearest_rank(&lat, 1.0), Some(7));
    }

    #[test]
    fn nearest_rank_of_two_samples_splits_at_the_median() {
        // p50 of two samples is the first: 50% of the mass is at or below
        // it. The old `round((n-1)·p)` arithmetic reported the second.
        let lat = vec![10u64, 20];
        assert_eq!(nearest_rank(&lat, 0.50), Some(10));
        assert_eq!(nearest_rank(&lat, 0.99), Some(20));
    }

    #[test]
    fn nearest_rank_of_a_hundred_samples_is_exact() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(
            nearest_rank(&lat, 0.50),
            Some(50),
            "median of 100 is the 50th"
        );
        assert_eq!(nearest_rank(&lat, 0.99), Some(99));
        assert_eq!(nearest_rank(&lat, 0.01), Some(1));
        assert_eq!(nearest_rank(&lat, 1.0), Some(100));
    }

    #[test]
    fn nearest_rank_of_nothing_is_none() {
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn probe_timeout_derives_from_the_request_timeout() {
        let mut config = LoadgenConfig {
            timeout: Duration::from_secs(5),
            ..Default::default()
        };
        assert_eq!(config.probe_timeout(), Duration::from_millis(500));

        // Clamped below: a tiny request timeout still probes for ≥ 50 ms.
        config.timeout = Duration::from_millis(100);
        assert_eq!(config.probe_timeout(), Duration::from_millis(50));

        // Never beyond the request timeout itself.
        config.timeout = Duration::from_millis(30);
        assert_eq!(config.probe_timeout(), Duration::from_millis(30));
    }
}
