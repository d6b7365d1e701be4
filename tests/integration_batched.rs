//! Batched-vs-sequential equivalence battery for the multi-graph engine.
//!
//! The batched engine packs a mini-batch into one block-diagonal operator
//! and must be a pure re-bracketing of the per-instance arithmetic: for a
//! fixed batch layout, training and inference are **bit-identical** to the
//! instance-at-a-time reference engine (DESIGN.md §10); across *different*
//! layouts only the gradient summation order changes, so results agree to
//! floating-point re-association tolerance (1e-12). The forward pass has no
//! cross-instance reduction at all, so a prediction is bit-identical no
//! matter which neighbours share the batch — the property serve-side
//! micro-batching leans on.

use dataset::{generate_parallel_with, graph_features, DatasetConfig};
use icnet::{
    encode_features, train, Aggregation, BatchedGraph, CircuitGraph, FeatureSet, GradEngine,
    GraphModel, ModelKind, TrainConfig,
};
use std::sync::Arc;
use tensor::{CsrMatrix, Matrix};

fn demo_task() -> (Arc<CsrMatrix>, Vec<Matrix>, Vec<f64>) {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 12;
    let data = generate_parallel_with(&config, 1, None)
        .expect("demo dataset generates")
        .0;
    let graph = CircuitGraph::from_circuit(&data.circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let xs = graph_features(&data.circuit, &data.instances, FeatureSet::All);
    let ys = data.labels();
    (op, xs, ys)
}

/// Tiny deterministic xorshift so layouts are "random" but reproducible.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn batched_training_is_bit_identical_to_per_instance_on_a_real_dataset() {
    let (op, xs, ys) = demo_task();
    // batch_size 5 over 12 instances: two full chunks and a partial one, so
    // the partial-batch weighting path is on the hot path of this test.
    let run = |engine: GradEngine| {
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 5);
        let config = TrainConfig {
            max_epochs: 6,
            batch_size: 5,
            engine,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs, &ys, &config);
        (report, model.predict_batch(&op, &xs))
    };
    let (ref_report, ref_preds) = run(GradEngine::PerInstance);
    let (bat_report, bat_preds) = run(GradEngine::Batched);
    assert!(!ref_report.diverged);
    assert_eq!(
        ref_report.loss_history, bat_report.loss_history,
        "per-epoch losses must be bit-identical for a fixed layout"
    );
    assert_eq!(
        ref_preds, bat_preds,
        "trained predictions must be bit-identical"
    );
}

#[test]
fn batched_training_matches_the_reference_for_every_convolution() {
    let (op, xs, ys) = demo_task();
    for kind in [
        ModelKind::Gcn,
        ModelKind::ChebNet { k: 3 },
        ModelKind::ICNet,
    ] {
        let run = |engine: GradEngine| {
            let mut model = GraphModel::new(kind, Aggregation::Mean, 7, 8, 8, 3);
            let config = TrainConfig {
                max_epochs: 3,
                batch_size: 4,
                engine,
                ..TrainConfig::default()
            };
            let report = train(&mut model, &op, &xs, &ys, &config);
            (report.loss_history, model.predict_batch(&op, &xs))
        };
        assert_eq!(
            run(GradEngine::PerInstance),
            run(GradEngine::Batched),
            "{kind:?} must train bit-identically under both engines"
        );
    }
}

#[test]
fn forward_values_are_independent_of_co_batched_neighbors() {
    let (op, xs, _) = demo_task();
    let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 9);
    let baseline: Vec<f64> = xs.iter().map(|x| model.predict(&op, x)).collect();

    // Three random layouts: shuffle the instances, then split them into
    // random-size groups. Every instance must predict exactly its solo
    // value regardless of which neighbours share its block-diagonal batch.
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for round in 0..3 {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut cursor = 0;
        while cursor < order.len() {
            let size = (1 + rng.below(5)).min(order.len() - cursor);
            let group = &order[cursor..cursor + size];
            cursor += size;
            let batch = BatchedGraph::replicate(&op, group.len());
            let grouped: Vec<&Matrix> = group.iter().map(|&i| &xs[i]).collect();
            let values = model.predict_batched(&batch, &grouped);
            for (&i, value) in group.iter().zip(&values) {
                assert_eq!(
                    baseline[i].to_bits(),
                    value.to_bits(),
                    "instance {i} changed in round {round} group {group:?}"
                );
            }
        }
    }
}

#[test]
fn heterogeneous_graphs_batch_bit_identically() {
    // Two genuinely different graphs in one block-diagonal batch: the demo
    // dataset circuit next to c17. Each must predict its solo value.
    let (op_a, xs_a, _) = demo_task();
    let c17 = netlist::c17();
    let graph_b = CircuitGraph::from_circuit(&c17);
    let op_b = Arc::new(ModelKind::ICNet.operator(&graph_b));
    let x_b = encode_features(&c17, &[c17.find("n10").expect("gate")], FeatureSet::All);

    let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 11);
    let solo_a = model.predict(&op_a, &xs_a[0]);
    let solo_b = model.predict(&op_b, &x_b);

    let batch = BatchedGraph::from_ops(&[op_a.as_ref(), op_b.as_ref()]);
    let values = model.predict_batched(&batch, &[&xs_a[0], &x_b]);
    assert_eq!(values[0].to_bits(), solo_a.to_bits());
    assert_eq!(values[1].to_bits(), solo_b.to_bits());
}

#[test]
fn permuted_batch_layouts_agree_to_reassociation_tolerance() {
    // Permuting the instances inside one full batch changes only the order
    // of the gradient reduction — a floating-point re-association. The two
    // trainings are not bit-identical, but must track each other to 1e-12.
    let (op, xs, ys) = demo_task();
    let n = xs.len();
    let mut rng = XorShift(0x2545f4914f6cdd1d);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    assert_ne!(
        perm,
        (0..n).collect::<Vec<_>>(),
        "permutation is nontrivial"
    );

    let run = |order: &[usize]| {
        let xs_o: Vec<Matrix> = order.iter().map(|&i| xs[i].clone()).collect();
        let ys_o: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 5);
        let config = TrainConfig {
            max_epochs: 3,
            batch_size: n, // one full batch per epoch: same *set*, new order
            engine: GradEngine::Batched,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs_o, &ys_o, &config);
        (report.loss_history, model.predict_batch(&op, &xs))
    };
    let identity: Vec<usize> = (0..n).collect();
    let (loss_a, preds_a) = run(&identity);
    let (loss_b, preds_b) = run(&perm);

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
    for (e, (&a, &b)) in loss_a.iter().zip(&loss_b).enumerate() {
        assert!(close(a, b), "epoch {e} loss drifted: {a} vs {b}");
    }
    for (i, (&a, &b)) in preds_a.iter().zip(&preds_b).enumerate() {
        assert!(close(a, b), "prediction {i} drifted: {a} vs {b}");
    }
}
