//! Parallel, checkpointed dataset generation.
//!
//! Runs the quick-demo sweep three ways — on one worker (the serial
//! sweep), on four workers, and resumed from a checkpoint — and shows that
//! all three produce the same dataset. Usage:
//!
//! ```text
//! cargo run --release --example parallel_generation [-- --trace t.jsonl] [--progress] [--fault-plan <spec>]
//! ```

use bench::cli;
use dataset::{generate_parallel_with, CheckpointLog, DatasetConfig};
use std::time::Instant;

fn main() {
    // The shared CLI plumbing (`--trace` / `--progress` / `--fault-plan` /
    // SIGINT handling) comes from `bench::cli`, same as every binary — the
    // example no longer re-implements flag parsing.
    let opts = cli::Options::from_env();
    opts.init_runtime();

    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 16;

    println!("== 1-worker sweep (the serial reference) ==");
    let start = Instant::now();
    let (serial, _) = generate_parallel_with(&config, 1, None).expect("serial generation");
    println!(
        "{} instances in {:.2?}\n",
        serial.instances.len(),
        start.elapsed()
    );

    println!("== 4-worker sweep (no checkpoint) ==");
    let start = Instant::now();
    let (parallel, report) = generate_parallel_with(&config, 4, None).expect("parallel generation");
    println!(
        "{} instances in {:.2?}",
        parallel.instances.len(),
        start.elapsed()
    );
    print!("{}", report.summary());
    assert_eq!(serial, parallel, "worker count must not change the dataset");
    println!("byte-identical to the serial sweep\n");

    println!("== checkpointed sweep, interrupted and resumed ==");
    let path = std::env::temp_dir().join("parallel_generation_example.ckpt");
    let _ = std::fs::remove_file(&path);
    let mut log = CheckpointLog::open(&path).expect("checkpoint opens");
    let (_, report) = generate_parallel_with(&config, 2, Some(&mut log)).expect("first pass");
    println!("first pass: {} attacked", report.attacked());
    drop(log);

    // Simulate a crash that lost the last five records.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(1 + config.num_instances - 5).collect();
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();

    let mut log = CheckpointLog::open(&path).expect("checkpoint reopens");
    println!("after crash: {} instances on record", log.len());
    let start = Instant::now();
    let (resumed, report) = generate_parallel_with(&config, 4, Some(&mut log)).expect("resume");
    println!(
        "resume: {} reused, {} re-attacked in {:.2?}",
        report.reused(),
        report.attacked(),
        start.elapsed()
    );
    assert_eq!(serial, resumed, "resume must reproduce the full sweep");
    println!("byte-identical to the uninterrupted sweep");
    let _ = std::fs::remove_file(&path);

    cli::exit_if_interrupted();
    cli::finish_observability();
}
