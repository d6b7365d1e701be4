//! Open-loop load generator for the `serve` binary.
//!
//! ```text
//! cargo run -p bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:9107 --model demo --rates 50,200,2000 --requests 300
//! ```
//!
//! Offers each rate on a fixed schedule regardless of how fast the server
//! answers (so saturation is actually reached), classifies every reply by
//! its typed outcome, and writes `BENCH_serve.json` with predictions/s and
//! p50/p99 latency per offered load. Shares the common experiment flags
//! with the other binaries via `bench::cli`.

use bench::cli::{self, Options};
use serve::loadgen::{
    reports_to_json, run_levels, wait_ready, workload_request_bytes, LoadgenConfig, Workload,
};
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:9107".to_owned();
    let mut model = "demo".to_owned();
    let mut rates = vec![50.0, 200.0, 1000.0];
    let mut requests = 200usize;
    let mut clients = 8usize;
    let mut deadline_ms = 0u32;

    let opts = Options::parse_extended(
        std::env::args().skip(1),
        "--addr <host:port> --model <name> --rates <r1,r2,...> --requests <n> \
         --clients <n> --deadline-ms <n>",
        |flag, value| match flag {
            "--addr" => {
                addr = value("--addr");
                true
            }
            "--model" => {
                model = value("--model");
                true
            }
            "--rates" => {
                rates = value("--rates")
                    .split(',')
                    .map(|r| r.trim().parse().expect("rate in requests/second"))
                    .collect();
                true
            }
            "--requests" => {
                requests = value("--requests").parse().expect("usize requests");
                true
            }
            "--clients" => {
                clients = value("--clients").parse().expect("usize clients");
                true
            }
            "--deadline-ms" => {
                deadline_ms = value("--deadline-ms").parse().expect("u32 deadline-ms");
                true
            }
            _ => false,
        },
    );
    opts.init_runtime();

    // The workload is a real circuit from the experiment profile set: the
    // netlist text the server parses and the mask it encodes are exactly
    // what the offline pipeline produces.
    let circuit = synth::iscas::circuit(&opts.profile, opts.seed).unwrap_or_else(|| {
        eprintln!("loadgen: unknown circuit profile `{}`", opts.profile);
        std::process::exit(2);
    });
    let mask: Vec<String> = circuit
        .gates()
        .filter(|g| !matches!(g.kind(), netlist::GateKind::Input(_)))
        .take(opts.keys_max.max(1))
        .map(|g| g.name().to_owned())
        .collect();
    let workload = Workload {
        model: model.clone(),
        bench: circuit.to_bench(),
        mask,
        deadline_ms,
    };

    let config = LoadgenConfig {
        addr: addr.clone(),
        rates,
        requests,
        clients,
        timeout: Duration::from_secs(10),
    };

    if let Err(e) = wait_ready(&config, Duration::from_secs(10)) {
        eprintln!("loadgen: server at {addr} never became ready: {e}");
        std::process::exit(1);
    }

    println!(
        "# loadgen: profile={} model={model} requests={requests} clients={clients} rates={:?}",
        opts.profile, config.rates
    );
    let reports = run_levels(&config, &workload);
    for r in &reports {
        println!(
            "# offered {:>8.1} rps: {} ok, {} overloaded, {} deadline, {} other | \
             achieved {:.1} ok/s, p50 {:.2} ms, p99 {:.2} ms",
            r.offered_rps,
            r.ok,
            r.overloaded,
            r.deadline_exceeded,
            r.other_error,
            r.achieved_ok_rps,
            r.p50_ms,
            r.p99_ms,
        );
        cli::exit_if_interrupted();
    }

    // The demo server registers Gcn/All models (`serve --write-demo-model`);
    // logical bytes are a pure function of the workload, so the client can
    // stamp the per-request figure the server meters (ServeStats).
    let peak_request_bytes =
        workload_request_bytes(&workload, icnet::ModelKind::Gcn, icnet::FeatureSet::All)
            .unwrap_or(0);
    println!("# peak_request_bytes = {peak_request_bytes}");
    let json = reports_to_json(&model, &reports, peak_request_bytes);
    std::fs::create_dir_all(&opts.out_dir).expect("create out dir");
    let path = std::path::Path::new(&opts.out_dir).join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("# wrote {}", path.display());
    cli::finish_observability();
}
