//! Regenerates **Figure 3**: predicted vs. real runtime on Dataset 1's test
//! split, one series per panel method (EN, LASSO, Linear, OMP, RR, SGD,
//! SVR-Poly, SVR-RBF, Theil, ICNet-NN), all-features setting.
//!
//! Emits one CSV per panel (`index,real,predicted`, log-seconds scale,
//! sorted by real value) ready for plotting.
//!
//! ```text
//! cargo run -p bench --release --bin figure3 [-- --quick ...]
//! ```

use bench::cli::Options;
use bench::harness::{evaluate_gnn, take, take_rows};
use bench::methods::BaselineKind;
use dataset::{
    flat_features, graph_features, train_test_split, DatasetConfig, FlatAggregation,
    StructureEncoding,
};
use icnet::{Aggregation, FeatureSet, ModelKind};
use std::fmt::Write as _;

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    let mut config = DatasetConfig::dataset1(&opts.profile, opts.instances);
    opts.configure(&mut config);
    config.key_range = (1, opts.keys_max);
    println!("# Figure 3 — predictions vs real values (all-feature setting)");
    let generate_stage = obs::stage("generate");
    let data =
        bench::harness::load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());
    drop(generate_stage);
    let split = train_test_split(data.instances.len(), 0.25, opts.seed);
    let y = data.labels();
    let y_test = take(&y, &split.test);

    std::fs::create_dir_all(format!("{}/figure3", opts.out_dir)).expect("create output dir");
    let write_series = |name: &str, pred: &[f64]| {
        // Sort points by real value so the series reads like the figure.
        // total_cmp keeps the ordering well-defined even if a diverged
        // model produced non-finite predictions (NaN sorts last).
        let mut order: Vec<usize> = (0..y_test.len()).collect();
        order.sort_by(|&a, &b| y_test[a].total_cmp(&y_test[b]));
        let mut csv = String::from("index,real_log_seconds,predicted_log_seconds\n");
        for (rank, &i) in order.iter().enumerate() {
            let _ = writeln!(csv, "{rank},{},{}", y_test[i], pred[i]);
        }
        let path = format!("{}/figure3/{}.csv", opts.out_dir, name);
        std::fs::write(&path, csv).expect("write series");
        let mse = regress::metrics::mse(pred, &y_test);
        println!("  {name:<10} mse={mse:.4}  -> {path}");
    };

    // Baseline panels: all-features, sum aggregation.
    let baselines_stage = obs::stage("baselines");
    let x = flat_features(
        &data.circuit,
        &data.instances,
        FeatureSet::All,
        StructureEncoding::Adjacency,
        FlatAggregation::Sum,
    );
    let x_train = take_rows(&x, &split.train);
    let y_train = take(&y, &split.train);
    let x_test = take_rows(&x, &split.test);
    let panels = [
        (BaselineKind::En, "EN"),
        (BaselineKind::Lasso, "LASSO"),
        (BaselineKind::Lr, "Linear"),
        (BaselineKind::Omp, "OMP"),
        (BaselineKind::Rr, "RR"),
        (BaselineKind::Sgd, "SGD"),
        (BaselineKind::SvrPoly, "SVR_Poly"),
        (BaselineKind::SvrRbf, "SVR_RBF"),
        (BaselineKind::Theil, "Theil"),
    ];
    for (kind, name) in panels {
        let mut model = kind.build(&x_train);
        match model.fit(&x_train, &y_train) {
            Ok(()) => write_series(name, &model.predict(&x_test)),
            Err(e) => println!("  {name:<10} N/A ({e})"),
        }
    }
    drop(baselines_stage);

    // ICNet-NN panel.
    let icnet_stage = obs::stage("icnet");
    let (_, model) = evaluate_gnn(
        &data,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &bench::cli::interruptible_train_config(opts.epochs),
        opts.seed,
    );
    bench::cli::exit_if_interrupted();
    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);
    let pred: Vec<f64> = split.test.iter().map(|&i| model.predict(&xs[i])).collect();
    write_series("ICNet_NN", &pred);
    drop(icnet_stage);
    bench::cli::finish_observability();
}
