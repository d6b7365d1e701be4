//! Ablations of ICNet's design choices (DESIGN.md §9): graph operator,
//! aggregation stage, convolution depth, output head, and feature set.
//!
//! Each row trains on the same Dataset-1-style split and reports held-out
//! MSE on log-runtime, isolating one design axis at a time.
//!
//! ```text
//! cargo run --release -p bench --bin ablation [-- --quick ...]
//! ```

use bench::cli::Options;
use bench::harness::{take, take_rows};
use dataset::{
    flat_features, graph_features, train_test_split, DatasetConfig, FlatAggregation,
    StructureEncoding,
};
use icnet::{Aggregation, FeatureSet, GraphModel, ModelKind, OutputHead};
use regress::metrics;
use std::fmt::Write as _;
use std::sync::Arc;

struct Ablation<'a> {
    data: &'a dataset::Dataset,
    split: dataset::Split,
    epochs: usize,
    seed: u64,
    report: String,
}

impl Ablation<'_> {
    /// Trains one model variant and returns its held-out log-scale MSE.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        label: &str,
        kind: ModelKind,
        agg: Aggregation,
        fs: FeatureSet,
        conv_layers: usize,
        head: OutputHead,
    ) {
        bench::cli::exit_if_interrupted();
        let _stage = obs::stage(label);
        let graph = icnet::CircuitGraph::from_circuit(&self.data.circuit);
        let op = Arc::new(kind.operator(&graph));
        let xs = graph_features(&self.data.circuit, &self.data.instances, fs);
        // Identity head trains on standardized log labels; the exp head
        // (paper Eq. 3) trains on raw seconds directly.
        let log_y = self.data.labels();
        let raw_y: Vec<f64> = self.data.instances.iter().map(|i| i.seconds).collect();

        let train_idx = self.split.train.clone();
        let test_idx = self.split.test.clone();
        let xs_train: Vec<tensor::Matrix> = train_idx.iter().map(|&i| xs[i].clone()).collect();

        let mut model =
            GraphModel::with_conv_layers(kind, agg, fs.width(), 16, conv_layers, self.seed)
                .with_output(head);
        let config = bench::cli::interruptible_train_config(self.epochs);
        let (mse, note) = match head {
            OutputHead::Identity => {
                let y_train_raw = take(&log_y, &train_idx);
                let mean = y_train_raw.iter().sum::<f64>() / y_train_raw.len() as f64;
                let std = (y_train_raw.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                    / y_train_raw.len() as f64)
                    .sqrt()
                    .max(1e-9);
                let y_train: Vec<f64> = y_train_raw.iter().map(|v| (v - mean) / std).collect();
                icnet::train(&mut model, &op, &xs_train, &y_train, &config);
                let pred: Vec<f64> = test_idx
                    .iter()
                    .map(|&i| model.predict(&op, &xs[i]) * std + mean)
                    .collect();
                (metrics::mse(&pred, &take(&log_y, &test_idx)), "")
            }
            OutputHead::Exp => {
                let y_train = take(&raw_y, &train_idx);
                icnet::train(&mut model, &op, &xs_train, &y_train, &config);
                // Compare on the log scale so all rows are commensurate.
                let pred: Vec<f64> = test_idx
                    .iter()
                    .map(|&i| model.predict(&op, &xs[i]).max(1e-6).ln())
                    .collect();
                (
                    metrics::mse(&pred, &take(&log_y, &test_idx)),
                    " (exp head, trained on raw seconds)",
                )
            }
        };
        println!("{label:<42} {mse:>10.4}{note}");
        let _ = writeln!(self.report, "{label},{mse}");
    }
}

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    let mut config = DatasetConfig::dataset1(&opts.profile, opts.instances);
    opts.configure(&mut config);
    config.key_range = (1, opts.keys_max);
    println!("# Ablations — held-out MSE on log-runtime");
    let generate_stage = obs::stage("generate");
    let data =
        bench::harness::load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());
    drop(generate_stage);
    println!(
        "# profile={} instances={} ({:.0}% censored)\n",
        opts.profile,
        data.instances.len(),
        data.censored_fraction() * 100.0
    );
    let split = train_test_split(data.instances.len(), 0.25, opts.seed);
    let mut ab = Ablation {
        data: &data,
        split: split.clone(),
        epochs: opts.epochs,
        seed: opts.seed,
        report: String::from("variant,mse\n"),
    };

    println!("-- graph operator (Nn aggregation, all features, 2 convs) --");
    ab.run(
        "operator: adjacency (ICNet)",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "operator: normalized Laplacian (GCN)",
        ModelKind::Gcn,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "operator: Chebyshev k=3 (ChebNet)",
        ModelKind::ChebNet { k: 3 },
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );

    println!("-- aggregation (ICNet, all features, 2 convs) --");
    ab.run(
        "aggregation: learned attention (NN)",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "aggregation: sum",
        ModelKind::ICNet,
        Aggregation::Sum,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "aggregation: mean",
        ModelKind::ICNet,
        Aggregation::Mean,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );

    println!("-- convolution depth (ICNet-NN, all features) --");
    for layers in [1usize, 2, 3] {
        ab.run(
            &format!("conv layers: {layers}"),
            ModelKind::ICNet,
            Aggregation::Nn,
            FeatureSet::All,
            layers,
            OutputHead::Identity,
        );
    }

    println!("-- output head (ICNet-NN, all features, 2 convs) --");
    ab.run(
        "head: identity on log labels",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "head: exp on raw seconds (paper Eq. 3)",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Exp,
    );

    println!("-- feature set (ICNet-NN, 2 convs) --");
    ab.run(
        "features: mask + gate types (All)",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        2,
        OutputHead::Identity,
    );
    ab.run(
        "features: mask only (Location)",
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::Location,
        2,
        OutputHead::Identity,
    );

    // Flat-encoding structure choice for the classical baselines.
    println!("-- flat structure encoding (ridge baseline) --");
    let y = data.labels();
    for structure in [StructureEncoding::Adjacency, StructureEncoding::Laplacian] {
        let x = flat_features(
            &data.circuit,
            &data.instances,
            FeatureSet::All,
            structure,
            FlatAggregation::Sum,
        );
        let mut model = regress::Ridge::new(1.0);
        use regress::Regressor as _;
        model
            .fit(&take_rows(&x, &split.train), &take(&y, &split.train))
            .expect("ridge fits");
        let pred = model.predict(&take_rows(&x, &split.test));
        let mse = metrics::mse(&pred, &take(&y, &split.test));
        println!("{:<42} {mse:>10.4}", format!("ridge on {structure:?} rows"));
        let _ = writeln!(ab.report, "ridge_{structure:?},{mse}");
    }

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let path = format!("{}/ablation.csv", opts.out_dir);
    std::fs::write(&path, ab.report).expect("write csv");
    println!("\n# wrote {path}");
    bench::cli::finish_observability();
}
