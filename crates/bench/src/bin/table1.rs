//! Regenerates **Table I**: regression MSE on Dataset 1 (1..=350 key gates).
//!
//! ```text
//! cargo run -p bench --release --bin table1 [-- --quick | --profile cXXXX --instances N ...]
//! ```

use bench::cli::Options;
use bench::harness::{format_table, results_to_csv, run_mse_suite, SuiteControl};
use bench::methods::BaselineKind;
use dataset::DatasetConfig;
use std::time::Instant;

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    let mut config = DatasetConfig::dataset1(&opts.profile, opts.instances);
    opts.configure(&mut config);
    config.key_range = (1, opts.keys_max);
    println!("# Table I — MSE on Dataset 1");
    println!(
        "# profile={} instances={} key_range={:?} scheme={} budget={} epochs={}",
        opts.profile, opts.instances, config.key_range, config.scheme, opts.budget, opts.epochs
    );

    let t0 = Instant::now();
    let generate_stage = obs::stage("generate");
    let data =
        bench::harness::load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());
    drop(generate_stage);
    println!(
        "# generated {} instances in {:.1}s ({:.0}% censored)",
        data.instances.len(),
        t0.elapsed().as_secs_f64(),
        data.censored_fraction() * 100.0
    );

    let t1 = Instant::now();
    let suite_stage = obs::stage("suite");
    // Training checkpoints ride the --resume flag: the dataset log at the
    // given path, per-cell training state under `<path>.train/`.
    let suite_ctl = SuiteControl {
        cancel: Some(bench::cli::interrupt_token().clone()),
        train_checkpoint_dir: opts.resume.as_ref().map(|p| format!("{p}.train")),
    };
    let results = run_mse_suite(
        &data,
        &BaselineKind::table1(),
        opts.epochs,
        opts.seed,
        opts.jobs,
        &suite_ctl,
    );
    drop(suite_stage);
    bench::cli::exit_if_interrupted();
    println!(
        "# evaluated {} cells in {:.1}s\n",
        results.len(),
        t1.elapsed().as_secs_f64()
    );
    print!("{}", format_table(&results));

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let path = format!("{}/table1.csv", opts.out_dir);
    std::fs::write(&path, results_to_csv(&results)).expect("write csv");
    println!("\n# wrote {path}");
    bench::cli::finish_observability();
}
