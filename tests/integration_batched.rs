//! Equivalence battery for the compressed multi-graph engine.
//!
//! A batch keeps one reference locking in full and every other locking only
//! on its halo (DESIGN.md §10.1). The forward pass has no cross-instance
//! reduction and computes every kept row exactly as the instance's own pass
//! would, so a prediction is bit-identical no matter which neighbours share
//! the batch — a served batch-of-one answer equals the same graph's answer
//! inside a packed evaluation batch. Across *different* layouts only the
//! gradient summation order changes, so results agree to floating-point re-association
//! tolerance (1e-12). Gradient agreement with the per-instance reference is
//! checked by the `icnet` unit tests.

use dataset::{generate_parallel_with, graph_features, DatasetConfig};
use icnet::{
    encode_features, train, Aggregation, BatchedGraph, CircuitGraph, FeatureSet, GraphModel,
    ModelKind, OutputHead, TrainConfig,
};
use netlist::{Circuit, GateId};
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

/// Feature matrices for a batch that stresses the compressed layout on a
/// synthetic c432: random 1–6-gate selections, duplicates of one of them and of the
/// empty selection, every gate selected (every row dirty), and selections
/// on primary inputs and on primary outputs.
fn reuse_stress_instances() -> (Circuit, Vec<Matrix>) {
    let circuit = synth::iscas::circuit("c432", 7).expect("known profile");
    let gates: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| !g.kind().is_input())
        .map(|(id, _)| id)
        .collect();
    let mut rng = XorShift(0x005e_ed0f_c432);
    let mut random = || -> Vec<GateId> {
        (0..1 + rng.below(6))
            .map(|_| gates[rng.below(gates.len())])
            .collect()
    };
    let (a, b, c) = (random(), random(), random());
    let all: Vec<GateId> = circuit.iter().map(|(id, _)| id).collect();
    let selections = vec![
        a.clone(),
        b,
        Vec::new(),
        a,
        all,
        circuit.inputs()[..3].to_vec(),
        Vec::new(),
        circuit.outputs()[..3].to_vec(),
        c,
    ];
    let xs = selections
        .iter()
        .map(|sel| encode_features(&circuit, sel, FeatureSet::All))
        .collect();
    (circuit, xs)
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

/// Checks compressed training on the demo dataset against the per-instance
/// forward pass (the batch of one):
///
/// - trained with `batch_size` (partial final chunk included), the model's
///   batched predictions are bit-identical to its per-instance ones;
/// - trained with one batch per epoch, every reported epoch loss is the mean
///   of the per-instance squared errors at that epoch's starting parameters
///   (a shorter run of the same seed). The batch sums them in shuffled
///   order, so the two agree to re-association tolerance (1e-12).
fn assert_training_matches_per_instance(
    make: impl Fn() -> GraphModel,
    batch_size: usize,
    epochs: usize,
) {
    let (op, xs, ys) = demo_task();
    let run = |batch_size: usize, epochs: usize| {
        let mut model = make();
        let config = TrainConfig {
            max_epochs: epochs,
            batch_size,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs, &ys, &config);
        assert!(!report.diverged, "{model} diverged");
        (report.loss_history, model)
    };
    let (_, model) = run(batch_size, epochs);
    let solo: Vec<u64> = xs.iter().map(|x| model.predict(&op, x).to_bits()).collect();
    let refs: Vec<&Matrix> = xs.iter().collect();
    let batched: Vec<u64> = model
        .predict_batched(&BatchedGraph::replicate(&op, xs.len()), &refs)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        batched, solo,
        "{model}: trained predictions must be bit-identical"
    );

    let (history, _) = run(xs.len(), epochs);
    assert_eq!(history.len(), epochs);
    for (epoch, &loss) in history.iter().enumerate() {
        let start = match epoch {
            0 => make(),
            _ => run(xs.len(), epoch).1,
        };
        let per_instance = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (start.predict(&op, x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        assert!(
            (loss - per_instance).abs() <= 1e-12 * loss.abs().max(per_instance.abs()).max(1.0),
            "{start} epoch {epoch}: batched loss {loss} vs per-instance {per_instance}"
        );
    }
}

#[test]
fn batched_training_is_bit_identical_to_per_instance_on_a_real_dataset() {
    // batch_size 5 over 12 instances: two full chunks and a partial one, so
    // the partial-batch weighting path is on the hot path of this test.
    assert_training_matches_per_instance(
        || GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 16, 16, 5),
        5,
        6,
    );
}

#[test]
fn batched_training_matches_the_reference_for_every_convolution() {
    for kind in [
        ModelKind::Gcn,
        ModelKind::ChebNet { k: 3 },
        ModelKind::ICNet,
    ] {
        assert_training_matches_per_instance(
            || GraphModel::new(kind, Aggregation::Mean, 7, 8, 8, 3),
            4,
            3,
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
    // value regardless of which neighbours share its batch.
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
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs_o, &ys_o, &config);
        let refs: Vec<&Matrix> = xs.iter().collect();
        let batch = BatchedGraph::replicate(&op, xs.len());
        (report.loss_history, model.predict_batched(&batch, &refs))
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

#[test]
fn row_reuse_predictions_match_batch_of_one_for_every_model() {
    // A batch of one computes its only segment in full, so it is the
    // per-instance value; every batched prediction must equal it bit for
    // bit, whichever instance is the reference segment.
    let (circuit, xs) = reuse_stress_instances();
    let graph = CircuitGraph::from_circuit(&circuit);
    for kind in [
        ModelKind::Gcn,
        ModelKind::ChebNet { k: 3 },
        ModelKind::ICNet,
    ] {
        let op = Arc::new(kind.operator(&graph));
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
            for output in [OutputHead::Identity, OutputHead::Exp] {
                let model = GraphModel::new(kind, agg, 7, 8, 8, 21).with_output(output);
                let solo: Vec<u64> = xs.iter().map(|x| model.predict(&op, x).to_bits()).collect();
                for reversed in [false, true] {
                    let mut order: Vec<usize> = (0..xs.len()).collect();
                    if reversed {
                        order.reverse();
                    }
                    let batch = BatchedGraph::replicate(&op, order.len());
                    let refs: Vec<&Matrix> = order.iter().map(|&i| &xs[i]).collect();
                    let got = model.predict_batched(&batch, &refs);
                    for (&i, value) in order.iter().zip(&got) {
                        assert_eq!(
                            value.to_bits(),
                            solo[i],
                            "{kind} {agg} {output:?} instance {i} (reversed: {reversed})"
                        );
                    }
                }
            }
        }
    }
}
