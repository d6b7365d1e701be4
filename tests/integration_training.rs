//! The deterministic training & evaluation engine, end to end: job-count
//! invariance of the Table I/II suite, the wall-clock speedup the
//! fan-out exists for, and divergence surfacing as N/A instead of NaN.

use bench::harness::{evaluate_gnn, run_mse_suite, EvalResult, SuiteControl};
use bench::methods::BaselineKind;
use dataset::{generate_parallel_with, train_test_split, Dataset, DatasetConfig};
use icnet::{Aggregation, FeatureSet, ModelKind, TrainConfig};
use std::time::Instant;

fn demo_dataset(instances: usize) -> Dataset {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = instances;
    generate_parallel_with(&config, 1, None)
        .expect("demo dataset generates")
        .0
}

#[test]
fn mse_suite_is_independent_of_jobs() {
    let data = demo_dataset(12);
    let roster = [BaselineKind::Lr, BaselineKind::Rr, BaselineKind::Theil];
    let control = SuiteControl::default();
    let serial = run_mse_suite(&data, &roster, 3, 2, 1, &control);
    let parallel = run_mse_suite(&data, &roster, 3, 2, 4, &control);
    assert_eq!(serial.len(), parallel.len());
    let key = |r: &EvalResult| {
        (
            r.method.clone(),
            r.feature_set.label().to_owned(),
            r.aggregation.clone(),
            r.mse,
            r.note.clone(),
        )
    };
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(key(a), key(b));
    }
}

#[test]
fn four_suite_workers_beat_serial() {
    // The suite is 22 self-contained cells; with four workers the wall
    // clock should approach a 4x cut. As in integration_parallel, the
    // speedup assertion only applies where the hardware can express it —
    // everywhere else the run still verifies job-count invariance.
    let data = demo_dataset(12);
    let roster = [BaselineKind::Lr, BaselineKind::Rr];

    let control = SuiteControl::default();
    let warm = run_mse_suite(&data, &roster, 4, 1, 1, &control); // prime allocator/caches
    let start = Instant::now();
    let serial = run_mse_suite(&data, &roster, 4, 1, 1, &control);
    let serial_time = start.elapsed();
    assert_eq!(warm.len(), serial.len());

    let start = Instant::now();
    let parallel = run_mse_suite(&data, &roster, 4, 1, 4, &control);
    let parallel_time = start.elapsed();

    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.mse, b.mse, "{} {}", a.method, a.aggregation);
    }
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 suite workers must be at least 2x faster on {cores} cores (serial \
             {serial_time:.2?}, parallel {parallel_time:.2?}, speedup {speedup:.2}x)"
        );
    } else {
        eprintln!(
            "# speedup assertion skipped: {cores} core(s) available \
             (measured {speedup:.2}x; serial {serial_time:.2?}, parallel {parallel_time:.2?})"
        );
    }
}

#[test]
fn divergent_training_surfaces_as_na_not_nan() {
    let data = demo_dataset(10);
    let split = train_test_split(data.instances.len(), 0.25, 1);
    let config = TrainConfig {
        max_epochs: 10,
        lr: 1e80, // absurd on purpose: overflows after the first step
        ..TrainConfig::default()
    };
    let (result, trained) = evaluate_gnn(
        &data,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &config,
        1,
    );
    assert!(result.mse.is_none(), "diverged cell must be N/A");
    assert!(result.note.contains("diverged"));
    assert!(
        trained.model.params().iter().all(|p| p.is_finite()),
        "the poisoned update must never be applied"
    );
}
