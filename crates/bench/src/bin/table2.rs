//! Regenerates **Table II**: regression MSE on Dataset 2 (1..=3 key gates —
//! the small-runtime regime where every method must be precise).
//!
//! ```text
//! cargo run -p bench --release --bin table2 [-- --quick ...]
//! ```

use bench::cli::Options;
use bench::harness::{format_table, results_to_csv, run_mse_suite, SuiteControl};
use bench::methods::BaselineKind;
use dataset::DatasetConfig;
use std::time::Instant;

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    let mut config = DatasetConfig::dataset2(&opts.profile, opts.instances);
    opts.configure(&mut config);
    // Dataset 2 draws from a different stream than Dataset 1 on purpose.
    config.seed = opts.seed.wrapping_add(1);
    println!("# Table II — MSE on Dataset 2");
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
        &BaselineKind::table2(),
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
    let path = format!("{}/table2.csv", opts.out_dir);
    std::fs::write(&path, results_to_csv(&results)).expect("write csv");
    println!("\n# wrote {path}");
    bench::cli::finish_observability();
}
