//! Deployment workflow: train a runtime predictor once, save it to disk,
//! reload it later (e.g. inside an EDA flow) and predict without retraining.
//!
//! ```text
//! cargo run --release -p bench --example model_persistence
//! ```

use dataset::{generate_parallel_with, graph_features, DatasetConfig};
use icnet::{Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind, TrainConfig};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // Train.
    let (data, _) = generate_parallel_with(&DatasetConfig::quick_demo(), 1, None)?;
    let graph = CircuitGraph::from_circuit(&data.circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);
    let ys = data.labels();
    let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 11);
    let report = icnet::train(&mut model, &op, &xs, &ys, &TrainConfig::default());
    println!(
        "trained {model} in {} epochs (train MSE {:.4})",
        report.epochs_run, report.final_loss
    );

    // Save: atomically, with a checksum footer, in the registry layout the
    // prediction service loads.
    let dir = std::env::temp_dir().join("icnet_demo_models");
    let path = serve::save_model(&dir, "demo", &model)?;
    println!(
        "saved to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // Reload in a "fresh process" and verify predictions are identical.
    let reloaded = GraphModel::from_text(std::fs::read(&path)?)?;
    let mut max_diff = 0.0f64;
    for x in &xs {
        let a = model.predict(&op, x);
        let b = reloaded.predict(&op, x);
        max_diff = max_diff.max((a - b).abs());
    }
    println!("max prediction difference after reload: {max_diff:e}");
    assert!(max_diff < 1e-9, "persistence must be lossless");
    if let Some(attn) = reloaded.feature_attention() {
        println!(
            "reloaded feature attention: mask {:.1}% / types {:.1}%",
            attn[0] * 100.0,
            attn[1..].iter().sum::<f64>() * 100.0
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
