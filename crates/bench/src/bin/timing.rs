//! Regenerates the **Section IV-C timing claim**: a trained ICNet predicts
//! de-obfuscation runtime in a single forward pass, versus actually running
//! the SAT attack (the paper: 1.13 s average inference vs 2411 s for the
//! hardest instance — 99.95 % of solver time saved).
//!
//! ```text
//! cargo run -p bench --release --bin timing [-- --quick ...]
//! ```

use bench::cli::Options;
use bench::harness::{evaluate_gnn, percent_saved};
use dataset::{graph_features, train_test_split, DatasetConfig};
use icnet::{Aggregation, FeatureSet, ModelKind};
use std::time::Instant;

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    let mut config = DatasetConfig::dataset1(&opts.profile, opts.instances);
    opts.configure(&mut config);
    config.key_range = (1, opts.keys_max);
    println!("# Timing — ICNet inference vs actual SAT attack");
    let t_gen = Instant::now();
    let generate_stage = obs::stage("generate");
    let data =
        bench::harness::load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());
    drop(generate_stage);
    let attack_wall = t_gen.elapsed();

    let split = train_test_split(data.instances.len(), 0.25, opts.seed);
    let train_stage = obs::stage("train");
    let (_, model) = evaluate_gnn(
        &data,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &bench::cli::interruptible_train_config(opts.epochs),
        opts.seed,
    );
    drop(train_stage);
    bench::cli::exit_if_interrupted();

    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);

    // Inference latency, averaged over every instance.
    let inference_stage = obs::stage("inference");
    let t_inf = Instant::now();
    for x in &xs {
        let _ = model.predict(x);
    }
    let per_inference = t_inf.elapsed().as_secs_f64() / xs.len() as f64;
    drop(inference_stage);

    let hardest = data
        .instances
        .iter()
        .map(|i| i.seconds)
        .fold(0.0f64, f64::max);
    let mean_attack =
        data.instances.iter().map(|i| i.seconds).sum::<f64>() / data.instances.len() as f64;
    let saved = percent_saved(per_inference, hardest);

    println!("instances attacked            : {}", data.instances.len());
    println!(
        "total attack wall time        : {:.2} s",
        attack_wall.as_secs_f64()
    );
    println!("mean attack runtime (label)   : {mean_attack:.4} s");
    println!("hardest attack runtime (label): {hardest:.4} s");
    println!("ICNet inference per instance  : {:.6} s", per_inference);
    println!("solver time saved on hardest  : {saved:.2} %  (paper: 99.95 %)");
    println!(
        "speedup vs hardest instance   : {:.0}x",
        hardest / per_inference.max(1e-12)
    );
    bench::cli::finish_observability();
}
