//! Quickstart: lock a circuit, break it with the SAT attack, and train a
//! tiny runtime predictor.
//!
//! ```text
//! cargo run --release -p bench --example quickstart
//! ```

use attack::{attack_locked, AttackConfig, AttackOutcome};
use dataset::{generate_parallel_with, graph_features, DatasetConfig};
use icnet::{Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind, TrainConfig};
use obfuscate::{lock_random, SchemeKind};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Take a circuit (the genuine ISCAS-85 c17) and lock three gates
    //    with the paper's LUT-based obfuscation (LUT size 2 here: c17's
    //    NANDs have two inputs).
    let original = netlist::c17();
    println!("original circuit : {original}");
    let locked = lock_random(&original, SchemeKind::LutLock { lut_size: 2 }, 3, 42)?;
    println!("locked circuit   : {}", locked.locked);
    println!("correct key      : {}", locked.key);

    // 2. Run the oracle-guided SAT attack (Subramanyan et al.).
    let result = attack_locked(&locked, &AttackConfig::default())?;
    match &result.outcome {
        AttackOutcome::KeyRecovered(key) => {
            println!(
                "attack recovered a key in {} DIP iterations ({})",
                result.iterations, result.runtime
            );
            println!("functionally correct: {}", locked.verify_key(key)?);
        }
        AttackOutcome::BudgetExceeded => println!("attack hit its budget"),
        AttackOutcome::TimedOut(which) => println!("attack hit its {}", which.describe()),
        AttackOutcome::Cancelled => println!("attack was cancelled"),
        AttackOutcome::MemoryExceeded => println!("attack hit its memory budget"),
    }

    // 3. Generate a small labeled dataset (obfuscate -> attack -> record
    //    runtime) and train ICNet to predict the runtime from the netlist
    //    topology + encryption locations alone.
    let config = DatasetConfig::quick_demo();
    let (data, _) = generate_parallel_with(&config, 1, None)?;
    println!(
        "\ndataset: {} instances on {} ({} gates)",
        data.instances.len(),
        data.circuit.name(),
        data.circuit.num_gates()
    );

    let graph = CircuitGraph::from_circuit(&data.circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);
    let ys = data.labels();
    let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 1);
    let report = icnet::train(&mut model, &op, &xs, &ys, &TrainConfig::default());
    println!(
        "trained ICNet-NN for {} epochs (final train MSE {:.4})",
        report.epochs_run, report.final_loss
    );

    for (i, inst) in data.instances.iter().take(4).enumerate() {
        let pred = model.predict(&op, &xs[i]);
        println!(
            "  instance {i}: {} key gates, actual ln(s) = {:+.2}, predicted = {:+.2}",
            inst.num_selected(),
            inst.log_seconds,
            pred
        );
    }
    Ok(())
}
