//! The two label-generation workloads: the paper's pipeline (LUT-4 labels
//! on c1529, then training and prediction) and the Anti-SAT label sweep.

use crate::report::{ms_since, peak_rss_mb, traced, Events, Ledger, Outcome};
use crate::stats;
use crate::sweep::{self, Spec, Sweep};
use icnet::{Aggregation, BatchedGraph, FeatureSet, GraphModel, ModelKind, TrainConfig};
use std::sync::Arc;
use std::time::Instant;
use tensor::{CsrMatrix, Matrix};

/// Set-up is repeated this many times per run; the median is reported.
pub const SETUP_REPEATS: usize = 11;

/// Sweep calls per second of `--seconds` (eight instances each).
const LABELGEN_CHUNKS_PER_S: f64 = 1.0;
const PIPELINE_CHUNKS_PER_S: f64 = 1.2;
/// Training epochs and prediction passes per second of `--seconds`.
const EPOCHS_PER_S: f64 = 5.0;
const PREDICT_PASSES_PER_S: f64 = 10.0;

/// Run size derived from `--seconds`. A traced label sweep makes two
/// passes of half this size (untraced reference, then traced); a traced
/// pipeline makes two full passes, since a smaller training set would not
/// exercise the same model.
#[derive(Debug, Clone, Copy)]
struct Size {
    chunks: usize,
    epochs: usize,
    passes: usize,
}

impl Size {
    fn new(spec: &Spec, seconds: u64, chunks_per_s: f64) -> Self {
        let s = seconds as f64;
        Size {
            chunks: sweep::whole_cycles(spec, (s * chunks_per_s).round() as usize),
            epochs: ((s * EPOCHS_PER_S).round() as usize).max(2),
            passes: ((s * PREDICT_PASSES_PER_S).round() as usize).max(2),
        }
    }
}

/// Times `f` `SETUP_REPEATS` times; returns the median seconds and the last
/// result.
fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one repeat"))
}

/// `labelgen_antisat_c880`: label sweep only.
pub fn labelgen(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let spec = sweep::ANTISAT_C880;
    let size = Size::new(&spec, seconds, LABELGEN_CHUNKS_PER_S);
    let mut out = Outcome::default();
    if !trace {
        let (setup_s, _) = repeated_setup(|| sweep::base_circuit(&spec));
        out.set("setup_s", setup_s);
        let run = sweep::run(&spec, seed, size.chunks);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("throughput_per_s", run.labels() as f64 / run.wall_s());
        run.report_latency(&mut out);
        run.verify(&mut out, None);
        return out;
    }
    let chunks = sweep::whole_cycles(&spec, size.chunks / 2);
    let reference = sweep::run(&spec, seed, chunks);
    let mut ledger = Ledger::start();
    let synth_ms = traced_setup(&spec, &mut ledger);
    out.set("synth.circuit_ms", synth_ms);
    let (run, events, io_ms) = traced(|| sweep::run(&spec, seed, chunks));
    ledger.exclude(io_ms);
    run.check_labels(&mut out);
    sweep::same_csvs(&reference, &run, &mut out);
    sweep_probes(&run, &events, &mut out, &mut ledger);
    ledger.finish(&mut out);
    out.set("obs.overhead_frac", run.wall_s() / reference.wall_s() - 1.0);
    out
}

/// Synthesizes the base circuit `SETUP_REPEATS` times under the ledger;
/// returns the median milliseconds.
fn traced_setup(spec: &Spec, ledger: &mut Ledger) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sweep::base_circuit(spec));
            let ms = ms_since(t);
            ledger.add("synth", ms);
            ms
        })
        .collect();
    stats::median(&times)
}

/// Key checks, re-lock, miter and preprocessing probes, and the sweep's
/// layer breakdown.
fn sweep_probes(run: &Sweep, events: &Events, out: &mut Outcome, ledger: &mut Ledger) {
    let locked = run.verify(out, Some(ledger));
    let reencode_ms = sweep::miter_probe(&locked, out, ledger);
    run.report_layers(events, reencode_ms, out, ledger);
}

/// One pass of the pipeline after labelling.
struct Trained {
    featurize_ms: f64,
    train_ms: f64,
    predict_ms: f64,
    passes: usize,
    report: icnet::TrainReport,
    test_graphs: usize,
    /// Test-set predictions of the first prediction pass.
    predictions: Vec<f64>,
    test_mse: f64,
    mean_mse: f64,
}

/// Featurizes the sweep's instances, trains ICNet for a fixed number of
/// epochs (no early stop) on a 75/25 split, and predicts the test set
/// `passes` times. Every pass must return the same bits.
///
/// The model aggregates by sum: at this scale (72 training instances) the
/// attention aggregation (`Aggregation::Nn`) often stays at the mean
/// prediction, while sum aggregation learns.
fn train_and_predict(
    run: &Sweep,
    op: &Arc<CsrMatrix>,
    seed: u64,
    size: Size,
    out: &mut Outcome,
) -> Trained {
    let instances: Vec<&dataset::Instance> = run.chunks.iter().flat_map(|c| &c.instances).collect();
    let t = Instant::now();
    let xs: Vec<Matrix> = instances
        .iter()
        .map(|i| icnet::encode_features(&run.circuit, &i.selected, FeatureSet::All))
        .collect();
    let featurize_ms = ms_since(t);

    let split = dataset::train_test_split(instances.len(), 0.25, seed);
    let y: Vec<f64> = instances.iter().map(|i| i.log_seconds).collect();
    let y_train: Vec<f64> = split.train.iter().map(|&i| y[i]).collect();
    let mean = y_train.iter().sum::<f64>() / y_train.len() as f64;
    let std = (y_train.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y_train.len() as f64)
        .sqrt()
        .max(1e-9);
    let x_train: Vec<Matrix> = split.train.iter().map(|&i| xs[i].clone()).collect();
    let z_train: Vec<f64> = y_train.iter().map(|v| (v - mean) / std).collect();
    let mut model = GraphModel::new(
        ModelKind::ICNet,
        Aggregation::Sum,
        icnet::NUM_FEATURES_ALL,
        16,
        16,
        seed,
    );
    let config = TrainConfig {
        lr: 1e-3,
        max_epochs: size.epochs,
        tol: 0.0,
        patience: usize::MAX,
        seed,
        ..TrainConfig::default()
    };
    let t = Instant::now();
    let report = icnet::train(&mut model, op, &x_train, &z_train, &config);
    let train_ms = ms_since(t);
    out.check(report.epochs_run == size.epochs && !report.diverged, || {
        format!(
            "training ran {} of {} epochs (diverged: {})",
            report.epochs_run, size.epochs, report.diverged
        )
    });

    let test: Vec<&Matrix> = split.test.iter().map(|&i| &xs[i]).collect();
    let batch = BatchedGraph::replicate(op, test.len());
    let t = Instant::now();
    let predictions = model.predict_batched(&batch, &test);
    let mut stable = true;
    for _ in 1..size.passes {
        let again = model.predict_batched(&batch, &test);
        stable &= bits(&again) == bits(&predictions);
    }
    let predict_ms = ms_since(t);
    out.check(stable, || "repeated predictions differ".into());

    let y_test: Vec<f64> = split.test.iter().map(|&i| y[i]).collect();
    let model_sq: Vec<f64> = y_test
        .iter()
        .zip(&predictions)
        .map(|(v, p)| (p * std + mean - v).powi(2))
        .collect();
    let mean_sq: Vec<f64> = y_test.iter().map(|v| (mean - v).powi(2)).collect();
    let test_mse = model_sq.iter().sum::<f64>() / y_test.len() as f64;
    let mean_mse = mean_sq.iter().sum::<f64>() / y_test.len() as f64;
    out.check(stats::no_worse_than(&model_sq, &mean_sq), || {
        format!("test MSE {test_mse} is worse than predicting the training mean ({mean_mse})")
    });
    Trained {
        featurize_ms,
        train_ms,
        predict_ms,
        passes: size.passes,
        report,
        test_graphs: test.len(),
        predictions,
        test_mse,
        mean_mse,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The graph operator ICNet propagates over.
fn operator(circuit: &netlist::Circuit) -> Arc<CsrMatrix> {
    Arc::new(ModelKind::ICNet.operator(&icnet::CircuitGraph::from_circuit(circuit)))
}

/// `pipeline_lut4_c1529`: labels, then training and prediction.
pub fn pipeline(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let spec = sweep::LUT4_C1529;
    let size = Size::new(&spec, seconds, PIPELINE_CHUNKS_PER_S);
    let mut out = Outcome::default();
    if !trace {
        let (setup_s, op) = repeated_setup(|| operator(&sweep::base_circuit(&spec)));
        out.set("setup_s", setup_s);
        let run = sweep::run(&spec, seed, size.chunks);
        let model = train_and_predict(&run, &op, seed, size, &mut out);
        out.set("peak_rss_mb", peak_rss_mb());
        let total_s = run.wall_s() + (model.featurize_ms + model.train_ms + model.predict_ms) / 1e3;
        out.set("throughput_per_s", run.labels() as f64 / total_s);
        run.report_latency(&mut out);
        run.verify(&mut out, None);
        out.note(format!(
            "pipeline: {} labels through label + featurize + train + predict in {:.3} s",
            run.labels(),
            total_s
        ));
        note_model(&model, &mut out);
        return out;
    }

    let reference_op = operator(&sweep::base_circuit(&spec));
    let reference = sweep::run(&spec, seed, size.chunks);
    let reference_model = train_and_predict(&reference, &reference_op, seed, size, &mut out);

    let mut ledger = Ledger::start();
    let synth_ms = traced_setup(&spec, &mut ledger);
    out.set("synth.circuit_ms", synth_ms);
    let circuit = sweep::base_circuit(&spec);
    let t = Instant::now();
    let op = operator(&circuit);
    let operator_ms = ms_since(t);
    ledger.add("icnet", operator_ms);
    let ((run, model), events, io_ms) = traced(|| {
        let run = sweep::run(&spec, seed, size.chunks);
        let model = train_and_predict(&run, &op, seed, size, &mut out);
        (run, model)
    });
    ledger.exclude(io_ms);
    run.check_labels(&mut out);
    sweep::same_csvs(&reference, &run, &mut out);
    out.check(
        bits(&model.predictions) == bits(&reference_model.predictions),
        || "traced and untraced test predictions differ".into(),
    );
    ledger.add(
        "icnet",
        model.featurize_ms + model.train_ms + model.predict_ms,
    );
    sweep_probes(&run, &events, &mut out, &mut ledger);

    // The sparse propagation kernel alone, on the test features.
    let xs: Vec<Matrix> = run.chunks[0]
        .instances
        .iter()
        .map(|i| icnet::encode_features(&circuit, &i.selected, FeatureSet::All))
        .collect();
    let spmm: Vec<f64> = xs
        .iter()
        .map(|x| {
            let t = Instant::now();
            std::hint::black_box(op.spmm(x));
            ms_since(t)
        })
        .collect();
    ledger.add("tensor", spmm.iter().sum());
    out.set("tensor.spmm_ms", stats::median(&spmm));
    ledger.finish(&mut out);

    let epochs = stats::sorted(
        &events
            .epoch_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    out.check(epochs.len() == size.epochs, || {
        format!(
            "{} train.epoch events for {} epochs",
            epochs.len(),
            size.epochs
        )
    });
    out.set("icnet.featurize_ms", operator_ms + model.featurize_ms);
    out.set(
        "icnet.epoch_p50_ms",
        stats::nearest_rank(&epochs, 0.5).unwrap_or(0.0),
    );
    out.set(
        "icnet.epoch_tail_ms",
        stats::tail(&epochs, stats::TAIL_BEYOND).map_or(0.0, |t| t.value),
    );
    out.set(
        "icnet.epochs_per_s",
        size.epochs as f64 / (model.train_ms / 1e3),
    );
    out.set("icnet.peak_tape_bytes", model.report.peak_tape_bytes as f64);
    out.set("icnet.predict_ms", model.predict_ms / size.passes as f64);
    out.set(
        "icnet.predict_graphs_per_s",
        (size.passes * model.test_graphs) as f64 / (model.predict_ms / 1e3),
    );
    out.set("icnet.test_mse", model.test_mse);
    let total =
        |r: &Sweep, m: &Trained| r.wall_s() * 1e3 + m.featurize_ms + m.train_ms + m.predict_ms;
    out.set(
        "obs.overhead_frac",
        total(&run, &model) / total(&reference, &reference_model) - 1.0,
    );
    out
}

fn note_model(model: &Trained, out: &mut Outcome) {
    out.note(format!(
        "train_epochs_per_s = {:.3} 1/s ({} epochs in {:.3} s); predict_graphs_per_s = {:.1} 1/s",
        model.report.epochs_run as f64 / (model.train_ms / 1e3),
        model.report.epochs_run,
        model.train_ms / 1e3,
        (model.passes * model.test_graphs) as f64 / (model.predict_ms / 1e3),
    ));
    out.note(format!(
        "icnet.test_mse = {:.4} against {:.4} for the training mean",
        model.test_mse, model.mean_mse
    ));
}
