//! End-to-end runtime prediction: generate a labeled dataset, train ICNet
//! and a spread of classical baselines, and compare held-out MSE — a
//! miniature of the paper's Table I.
//!
//! ```text
//! cargo run --release -p bench --example runtime_predictor
//! ```

use bench::harness::{evaluate_baselines, evaluate_gnn, train_config};
use bench::methods::BaselineKind;
use dataset::{generate_parallel_with, train_test_split, DatasetConfig, FlatAggregation};
use icnet::{Aggregation, FeatureSet, ModelKind};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 32;
    config.key_range = (1, 12);
    let (data, _) = generate_parallel_with(&config, 1, None)?;
    println!(
        "dataset: {} instances on {} ({:.0}% censored)",
        data.instances.len(),
        data.circuit.name(),
        data.censored_fraction() * 100.0
    );

    let split = train_test_split(data.instances.len(), 0.25, 5);
    println!(
        "split: {} train / {} test\n",
        split.train.len(),
        split.test.len()
    );

    println!("{:<12} {:>12}", "method", "test MSE");
    let roster = [
        BaselineKind::Lr,
        BaselineKind::Rr,
        BaselineKind::Lasso,
        BaselineKind::SvrRbf,
        BaselineKind::Omp,
    ];
    for result in evaluate_baselines(
        &data,
        &split,
        &roster,
        FeatureSet::All,
        FlatAggregation::Sum,
    ) {
        println!(
            "{:<12} {:>12}",
            result.method,
            bench::harness::format_mse(result.mse)
        );
    }

    for (kind, agg) in [
        (ModelKind::Gcn, Aggregation::Nn),
        (ModelKind::ChebNet { k: 3 }, Aggregation::Nn),
        (ModelKind::ICNet, Aggregation::Nn),
    ] {
        let (result, model) = evaluate_gnn(
            &data,
            &split,
            kind,
            agg,
            FeatureSet::All,
            &train_config(200),
            5,
        );
        println!(
            "{:<12} {:>12}",
            result.method,
            bench::harness::format_mse(result.mse)
        );
        if kind == ModelKind::ICNet {
            if let Some(attn) = model.feature_attention() {
                println!(
                    "\nICNet feature attention: gate mask {:.1}% / gate types {:.1}%",
                    attn[0] * 100.0,
                    attn[1..].iter().sum::<f64>() * 100.0
                );
            }
        }
    }
    Ok(())
}
