//! Long-lived prediction service over persisted ICNet models.
//!
//! ```text
//! # one-time: persist a demo model into ./models
//! cargo run -p bench --release --bin serve -- --write-demo-model demo
//!
//! # serve it
//! cargo run -p bench --release --bin serve -- --addr 127.0.0.1:9107 --jobs 4
//! ```
//!
//! Shares the common experiment flags (`--trace`, `--progress`,
//! `--fault-plan`, `--jobs`, `--seed`, `--deadline`) with the other
//! binaries via `bench::cli`, and adds its own. SIGINT drains in-flight
//! requests and exits 130, like every other binary in the workspace.

use bench::cli::{self, Options};
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:9107".to_owned();
    let mut models_dir = "models".to_owned();
    let mut queue_depth = 64usize;
    let mut max_payload = serve::protocol::DEFAULT_MAX_PAYLOAD;
    let mut mem_watermark_mb: Option<u64> = None;
    let mut write_demo: Option<String> = None;

    let opts = Options::parse_extended(
        std::env::args().skip(1),
        "--addr <host:port> --models <dir> --queue <n> --max-payload <bytes> \
         --mem-watermark-mb <mb> --write-demo-model <name>",
        |flag, value| match flag {
            "--addr" => {
                addr = value("--addr");
                true
            }
            "--models" => {
                models_dir = value("--models");
                true
            }
            "--queue" => {
                queue_depth = value("--queue").parse().expect("usize queue");
                true
            }
            "--max-payload" => {
                max_payload = value("--max-payload").parse().expect("u32 max-payload");
                true
            }
            "--mem-watermark-mb" => {
                mem_watermark_mb =
                    Some(value("--mem-watermark-mb").parse().expect("u64 watermark"));
                true
            }
            "--write-demo-model" => {
                write_demo = Some(value("--write-demo-model"));
                true
            }
            _ => false,
        },
    );
    opts.init_runtime();

    if let Some(name) = write_demo {
        // A small untrained model: real architecture, real persistence
        // (checksum footer included), deterministic weights from --seed.
        let model = icnet::GraphModel::new(
            icnet::ModelKind::Gcn,
            icnet::Aggregation::Sum,
            icnet::NUM_FEATURES_ALL,
            16,
            16,
            opts.seed,
        );
        match serve::save_model(&models_dir, &name, &model) {
            Ok(path) => println!("# demo model written to {}", path.display()),
            Err(e) => {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
        cli::finish_observability();
        return;
    }

    let registry = match serve::ModelRegistry::load_dir(&models_dir) {
        Ok(registry) => registry,
        Err(e) => {
            // A corrupt or torn model file refuses startup loudly: serving
            // half a fleet silently is the one thing this binary must not do.
            eprintln!("serve: {e}");
            cli::finish_observability();
            std::process::exit(1);
        }
    };

    let model_count = registry.len();
    let model_names = registry.names().join(", ");
    let config = serve::ServeConfig {
        addr,
        workers: opts.jobs.max(1),
        queue_depth,
        max_payload,
        default_deadline: opts
            .deadline
            .map(Duration::from_secs_f64)
            .unwrap_or(Duration::from_secs(5)),
        mem_watermark: mem_watermark_mb.map(|mb| mb * 1024 * 1024),
        cancel: cli::interrupt_token().clone(),
        ..Default::default()
    };
    let server = match serve::Server::start(registry, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# serving {model_count} model(s) [{model_names}] on {} ({} workers, queue depth {queue_depth})",
        server.local_addr(),
        opts.jobs.max(1),
    );
    // `join` blocks until SIGINT trips the shared interrupt token, then
    // drains: admitted requests finish, late connections get ShuttingDown.
    let stats = server.join();
    eprintln!(
        "# drained: {} admitted, {} ok, {} shed, {} errors, {} worker deaths ({} respawned), \
         {} forward passes, peak request {} bytes",
        stats.admitted,
        stats.completed,
        stats.shed,
        stats.errors,
        stats.worker_deaths,
        stats.respawns,
        stats.infer_batches,
        stats.peak_request_bytes,
    );
    cli::exit_if_interrupted();
    cli::finish_observability();
}
