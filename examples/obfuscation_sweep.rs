//! The defender's workflow the paper motivates: evaluate candidate
//! obfuscation placements *without running the attacker on each one*.
//!
//! A trained ICNet screens dozens of candidate placements in milliseconds;
//! the defender then verifies only the most promising candidate with a real
//! attack, and weighs it against its area overhead.
//!
//! ```text
//! cargo run --release -p bench --example obfuscation_sweep
//! ```

use attack::{attack_locked, AttackConfig};
use dataset::{generate_parallel_with, graph_features, DatasetConfig};
use icnet::{
    encode_features, Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind, TrainConfig,
};
use obfuscate::{lut_lock, overhead::overhead, select_gates, SchemeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let scheme = SchemeKind::LutLock { lut_size: 2 };

    // 1. Train a runtime predictor on attack data from one base circuit.
    let mut config = DatasetConfig::quick_demo();
    config.scheme = scheme;
    config.num_instances = 24;
    config.key_range = (1, 8);
    let (data, _) = generate_parallel_with(&config, 1, None)?;
    println!(
        "training data: {} attacked instances on {}",
        data.instances.len(),
        data.circuit.name()
    );

    let graph = CircuitGraph::from_circuit(&data.circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);
    let ys = data.labels();
    let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 9);
    icnet::train(&mut model, &op, &xs, &ys, &TrainConfig::default());

    // 2. Screen 20 candidate placements of 6 key gates each — pure
    //    inference, no SAT attack.
    let candidates = 20;
    let mut best: Option<(u64, f64, Vec<netlist::GateId>)> = None;
    println!("\nscreening {candidates} candidate placements (6 LUTs each):");
    for cand in 0..candidates {
        let mut rng = StdRng::seed_from_u64(1000 + cand);
        let selected = select_gates(&data.circuit, scheme, 6, &mut rng)?;
        let x = encode_features(&data.circuit, &selected, FeatureSet::All);
        let predicted = model.predict(&op, &x);
        if best.as_ref().is_none_or(|(_, p, _)| predicted > *p) {
            best = Some((1000 + cand, predicted, selected));
        }
        println!("  candidate {cand:>2}: predicted ln(runtime) = {predicted:+.3}");
    }
    let (seed, predicted, selected) = best.expect("candidates screened");

    // 3. Verify the winner with a real attack and report the trade-off.
    let mut rng = StdRng::seed_from_u64(seed);
    let selected = {
        // Re-derive the same selection, then lock with it.
        let sel = select_gates(&data.circuit, scheme, 6, &mut rng)?;
        assert_eq!(sel, selected);
        sel
    };
    let locked = lut_lock(&data.circuit, &selected, 2, &mut rng)?;
    let result = attack_locked(&locked, &AttackConfig::default())?;
    let cost = overhead(&locked);
    println!("\nbest candidate (seed {seed}): predicted {predicted:+.3} ln(s)");
    println!(
        "verified by real attack: {:.4} ln(s) ({} DIPs)",
        result.runtime.log_seconds(),
        result.iterations
    );
    println!("overhead: {cost}");
    Ok(())
}
