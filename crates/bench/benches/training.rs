//! Criterion benchmarks for the training engine: one training epoch at
//! several batch sizes, batch prediction, and the Table I/II
//! evaluation-suite wall clock at several worker counts. The first recorded
//! numbers live in `BENCH_train.json` at the repo root so later changes
//! have a perf trajectory to compare against (its `jobs_*` rows timed the
//! per-instance engine, which no longer trains).

use bench::harness::{run_mse_suite, SuiteControl};
use bench::methods::BaselineKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dataset::DatasetConfig;
use icnet::{
    encode_features, train, Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind,
    TrainConfig,
};
use std::sync::Arc;
use tensor::Matrix;

/// A small supervised task on c432: one instance per key-gate count.
fn c432_task() -> (Arc<tensor::CsrMatrix>, Vec<Matrix>, Vec<f64>) {
    let circuit = synth::iscas::circuit("c432", 0).expect("profile");
    let graph = CircuitGraph::from_circuit(&circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let logic: Vec<netlist::GateId> = circuit
        .iter()
        .filter(|(_, g)| !g.kind().is_input())
        .map(|(id, _)| id)
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for n in 1..=32usize {
        let sel: Vec<netlist::GateId> = logic.iter().copied().take(n).collect();
        xs.push(encode_features(&circuit, &sel, FeatureSet::All));
        ys.push(n as f64 * 0.1);
    }
    (op, xs, ys)
}

/// CI smoke mode: one sample of one batch size, so the job proves the
/// bench compiles and the engine still trains without paying for full
/// sample counts on shared runners.
fn smoke() -> bool {
    std::env::var_os("TRAIN_BENCH_SMOKE").is_some()
}

/// One probe run per cell prints the deterministic peak-tape figure for
/// `BENCH_train.json`'s memory trajectory. Logical bytes are a pure
/// function of the configuration (see the `budget` crate), so a single run
/// — not a sampled distribution — is the whole measurement.
fn report_peak_tape_bytes(
    cell: &str,
    op: &Arc<tensor::CsrMatrix>,
    xs: &[Matrix],
    ys: &[f64],
    config: &TrainConfig,
) {
    let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 1);
    let report = train(&mut model, op, xs, ys, config);
    println!(
        "# train_epoch_c432/{cell} peak_tape_bytes = {}",
        report.peak_tape_bytes
    );
}

fn bench_train_epoch(c: &mut Criterion) {
    let (op, xs, ys) = c432_task();
    let mut group = c.benchmark_group("train_epoch_c432");
    group.sample_size(if smoke() { 1 } else { 10 });
    // The task has 32 instances, so B=64 degenerates to one full batch of
    // 32 — recorded anyway to show the amortisation flattening out.
    for batch in [4usize, 16, 64] {
        if smoke() && batch != 16 {
            continue;
        }
        let config = TrainConfig {
            max_epochs: 1,
            batch_size: batch,
            jobs: 1,
            ..TrainConfig::default()
        };
        report_peak_tape_bytes(&format!("batched_B{batch}"), &op, &xs, &ys, &config);
        group.bench_function(format!("batched_B{batch}"), |b| {
            b.iter(|| {
                let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 1);
                black_box(train(&mut model, &op, &xs, &ys, &config))
            });
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (op, xs, _) = c432_task();
    let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 1);
    let mut group = c.benchmark_group("predict_c432");
    if smoke() {
        group.sample_size(10);
    }
    group.bench_function("batch_32", |b| {
        b.iter(|| black_box(model.predict_batch(&op, &xs)));
    });
    group.finish();
}

fn bench_suite(c: &mut Criterion) {
    if smoke() {
        // Label generation (SAT attacks) dominates this group; the dataset
        // path already has its own CI coverage (obs-smoke, chaos-smoke).
        return;
    }
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 12;
    let (data, _) = dataset::generate_parallel_with(&config, 1, None).expect("demo dataset");
    let roster = [BaselineKind::Lr, BaselineKind::Rr];
    let mut group = c.benchmark_group("mse_suite_quick_demo");
    group.sample_size(10);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for jobs in [1usize, 4] {
        if jobs > 1 && cores < 2 {
            continue;
        }
        group.bench_function(format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                black_box(run_mse_suite(
                    &data,
                    &roster,
                    3,
                    1,
                    jobs,
                    &SuiteControl::default(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_train_epoch, bench_predict, bench_suite);
criterion_main!(benches);
