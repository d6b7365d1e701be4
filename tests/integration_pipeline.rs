//! End-to-end ML pipeline integration: dataset generation → encoding →
//! training → held-out evaluation, spanning the dataset, icnet, regress,
//! and bench crates.

use bench::harness::{evaluate_baselines, evaluate_gnn, take, train_config};
use bench::methods::BaselineKind;
use dataset::{
    dataset_from_csv, dataset_to_csv, flat_features, generate_parallel_with, train_test_split,
    DatasetConfig, FlatAggregation, StructureEncoding,
};
use icnet::{Aggregation, FeatureSet, ModelKind};
use regress::metrics;

fn demo_dataset(n: usize) -> dataset::Dataset {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = n;
    config.key_range = (1, 10);
    generate_parallel_with(&config, 1, None)
        .expect("demo dataset generates")
        .0
}

#[test]
fn icnet_beats_the_mean_predictor_on_held_out_data() {
    // LUT locking over a wide key range gives the labels enough dynamic
    // range that learning is distinguishable from predicting the mean.
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 32;
    config.scheme = obfuscate::SchemeKind::LutLock { lut_size: 2 };
    config.key_range = (1, 20);
    let data = generate_parallel_with(&config, 1, None)
        .expect("demo dataset generates")
        .0;
    let split = train_test_split(data.instances.len(), 0.25, 3);
    let y = data.labels();
    let y_test = take(&y, &split.test);
    let y_train = take(&y, &split.train);
    let mean = y_train.iter().sum::<f64>() / y_train.len() as f64;
    let mean_mse = metrics::mse(&vec![mean; y_test.len()], &y_test);

    let (result, _) = evaluate_gnn(
        &data,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &train_config(250),
        3,
    );
    let icnet_mse = result.mse.expect("gnn always fits");
    assert!(
        icnet_mse < mean_mse,
        "ICNet-NN ({icnet_mse:.4}) must beat the mean predictor ({mean_mse:.4})"
    );
}

#[test]
fn baselines_learn_the_key_count_signal() {
    // The flat sum encoding exposes #selected gates; linear models must pick
    // it up and beat the mean predictor. LUT locking over a wide key range
    // keeps the key-count/runtime correlation strong (~0.9) — the XOR demo
    // config's labels barely vary on c432 and make this assertion split-luck.
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 28;
    config.scheme = obfuscate::SchemeKind::LutLock { lut_size: 2 };
    config.key_range = (1, 20);
    let data = generate_parallel_with(&config, 1, None)
        .expect("demo dataset generates")
        .0;
    let split = train_test_split(data.instances.len(), 0.25, 4);
    let y = data.labels();
    let y_test = take(&y, &split.test);
    let y_train = take(&y, &split.train);
    let mean = y_train.iter().sum::<f64>() / y_train.len() as f64;
    let mean_mse = metrics::mse(&vec![mean; y_test.len()], &y_test);

    let results = evaluate_baselines(
        &data,
        &split,
        &[BaselineKind::Lr, BaselineKind::Rr],
        FeatureSet::Location,
        FlatAggregation::Sum,
    );
    for result in results {
        let mse = result.mse.expect("fits");
        assert!(
            mse < mean_mse,
            "{} ({mse:.4}) must beat the mean predictor ({mean_mse:.4})",
            result.method
        );
    }
}

#[test]
fn dataset_round_trips_through_csv() {
    let data = demo_dataset(6);
    let text = dataset_to_csv(&data.instances);
    let parsed = dataset_from_csv(&text).expect("parses back");
    assert_eq!(parsed, data.instances);
    // The circuit is regenerable from its profile + seed.
    let config = DatasetConfig::quick_demo();
    let circuit = synth::iscas::circuit(&config.profile, config.circuit_seed).expect("profile");
    assert_eq!(circuit, data.circuit);
}

#[test]
fn flat_and_graph_encodings_agree_on_the_mask_count() {
    let data = demo_dataset(5);
    let flat = flat_features(
        &data.circuit,
        &data.instances,
        FeatureSet::Location,
        StructureEncoding::Adjacency,
        FlatAggregation::Sum,
    );
    let n = data.circuit.num_gates();
    for (row, inst) in data.instances.iter().enumerate() {
        assert_eq!(
            flat.get(row, n),
            inst.num_selected() as f64,
            "mask column aggregates to the key-gate count"
        );
    }
}

#[test]
fn labels_are_log_scale_and_censoring_is_flagged() {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 6;
    config.key_range = (8, 12);
    config.attack.work_budget = Some(1_000); // absurdly tight: all censored
    let data = generate_parallel_with(&config, 1, None)
        .expect("generates")
        .0;
    assert!(data.censored_fraction() > 0.9);
    for inst in &data.instances {
        assert!((inst.log_seconds - inst.seconds.max(1e-6).ln()).abs() < 1e-12);
    }
}

#[test]
fn attention_distribution_is_a_probability_vector() {
    let data = demo_dataset(16);
    let split = train_test_split(data.instances.len(), 0.25, 9);
    let (_, model) = evaluate_gnn(
        &data,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &train_config(60),
        9,
    );
    let attn = model.feature_attention().expect("NN aggregation");
    assert_eq!(attn.len(), 7);
    assert!((attn.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(attn.iter().all(|&a| a >= 0.0));
}

#[test]
fn gcn_chebnet_icnet_all_produce_finite_mse() {
    let data = demo_dataset(16);
    let split = train_test_split(data.instances.len(), 0.25, 2);
    for kind in [
        ModelKind::Gcn,
        ModelKind::ChebNet { k: 2 },
        ModelKind::ICNet,
    ] {
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
            let (result, _) = evaluate_gnn(
                &data,
                &split,
                kind,
                agg,
                FeatureSet::All,
                &train_config(30),
                2,
            );
            assert!(
                result.mse.expect("fits").is_finite(),
                "{kind} {agg} must produce a finite MSE"
            );
        }
    }
}
