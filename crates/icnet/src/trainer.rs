//! Mini-batch training loop (the paper's Algorithm 1: ADAM, random batches,
//! stop on loss convergence).
//!
//! Each mini-batch is one tape: [`BatchedGraph::compress`] keeps one
//! reference instance in full and every other instance only on its halo,
//! the rows its features can reach (DESIGN.md §10.1). It works from each
//! instance's diff rows against the first instance, found once per run.
//! Sum and Mean pooling read the compressed last layer through the gather
//! index, so no B·n-row matrix is built for them. The forward values
//! are bit-identical to each instance's own forward pass; the weight
//! gradients are exact sums folded in a different order, so they agree
//! with the per-instance gradients to rounding (DESIGN.md §10.2).
//!
//! # Determinism
//!
//! Training is one serial loop: every f64 addition happens in an order
//! fixed by the seed and the batch, so the same inputs give bit-identical
//! parameters on every run. Runs that train several models at once (the
//! evaluation suite's `--jobs`) put each whole training run on its own
//! worker thread; none of them splits one run's kernels (DESIGN.md §6d).
//!
//! # Batch weighting
//!
//! Every optimizer step scales the summed batch gradient by
//! `1 / min(batch_size, n)` — the *nominal* batch size — including the final
//! partial batch of an epoch when `n` is not divisible by `batch_size`. An
//! earlier revision scaled each chunk by `1 / chunk_len`, which made a
//! leftover instance in a size-1 final chunk weigh as much as an entire full
//! batch; the fix changes trajectories for such datasets, so the checkpoint
//! fingerprint is versioned and stale checkpoints are refused loudly.

use crate::batch::{diffs_from_first, BatchedGraph};
use crate::checkpoint::{self, TrainCheckpoint};
use crate::model::GraphModel;
use crate::pool_lease::PoolLease;
use budget::CancelToken;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use tensor::{Adam, BufferPool, CsrMatrix, Matrix, Optimizer, Tape};

/// Training hyper-parameters, plus the runtime [`TrainControl`]s.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// ADAM learning rate.
    pub lr: f64,
    /// Hard cap on epochs.
    pub max_epochs: usize,
    /// Instances per batch.
    pub batch_size: usize,
    /// Convergence: stop when the epoch loss improves by less than `tol`
    /// for `patience` consecutive epochs (Algorithm 1 line 13).
    pub tol: f64,
    /// Epochs of sub-`tol` improvement tolerated before stopping.
    pub patience: usize,
    /// Batch shuffling seed.
    pub seed: u64,
    /// Cooperative interruption and epoch checkpoints; off by default.
    /// Neither changes the trained parameters, so neither enters the
    /// checkpoint fingerprint.
    pub control: TrainControl,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-3,
            max_epochs: 300,
            batch_size: 16,
            tol: 1e-5,
            patience: 10,
            seed: 0,
            control: TrainControl::default(),
        }
    }
}

impl TrainConfig {
    /// A small budget for tests and doc examples.
    pub fn quick() -> Self {
        TrainConfig {
            max_epochs: 30,
            patience: 3,
            ..TrainConfig::default()
        }
    }
}

/// Runtime controls for [`train`], both off by default: cooperative
/// interruption and crash-safe epoch checkpoints.
#[derive(Debug, Clone, Default)]
pub struct TrainControl {
    /// Polled at every epoch boundary; when it fires, training returns with
    /// [`TrainReport::interrupted`] set, the model keeping its end-of-epoch
    /// parameters (which the checkpoint, when configured, already persists).
    pub cancel: Option<CancelToken>,
    /// Checkpoint file path, rewritten atomically at the end of every
    /// epoch; `None` = no persistence. An existing checkpoint there (with a
    /// matching hyper-parameter fingerprint) is always restored before
    /// training continues.
    pub checkpoint: Option<String>,
}

/// What happened during training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually run (including epochs restored from a checkpoint).
    pub epochs_run: usize,
    /// Mean squared error over the training set after the last fully
    /// finite epoch (`f64::INFINITY` if training diverged before completing
    /// one).
    pub final_loss: f64,
    /// Per-epoch mean training loss. Contains only finite values: a
    /// divergent epoch is not recorded (see [`TrainReport::diverged`]).
    pub loss_history: Vec<f64>,
    /// Whether the tolerance criterion (not the epoch cap) ended training.
    pub converged: bool,
    /// Whether training stopped because a batch produced a non-finite loss
    /// or gradient. The model keeps its last healthy parameters — the
    /// poisoned update is never applied.
    pub diverged: bool,
    /// Whether training stopped at an epoch boundary because the
    /// [`TrainControl::cancel`] token fired.
    pub interrupted: bool,
    /// First checkpoint-save failure, when one occurred. Saving is
    /// best-effort: a failed save costs durability of that epoch, never the
    /// training run itself.
    pub checkpoint_error: Option<String>,
    /// Peak logical bytes live on any one batch's autodiff tape (node
    /// values + gradients + pooled buffers), sampled at the end of each
    /// backward pass. Logical bytes are bytes requested, not allocator
    /// overhead, so the value is deterministic for a given run (see the
    /// `budget` crate). Zero when no batch ran (e.g. resuming a converged
    /// checkpoint).
    pub peak_tape_bytes: u64,
}

/// The gradient weight each instance carries in an optimizer step: the
/// reciprocal of the *nominal* batch size, `min(batch_size, n)`. A final
/// partial chunk uses the same scale as a full one, so every instance of an
/// epoch has equal influence regardless of which chunk it lands in.
fn batch_scale(batch_size: usize, num_instances: usize) -> f64 {
    1.0 / batch_size.max(1).min(num_instances.max(1)) as f64
}

/// Summed batch loss and scaled per-parameter gradients for one mini-batch:
/// the chunk's instances are compressed onto `layout` (with `diffs[i]`,
/// instance `i`'s diff rows against one base) and one tape computes the
/// whole batch, each row segment's weight gradient scaled by `scale`.
#[allow(clippy::too_many_arguments)]
fn batched_gradients(
    model: &GraphModel,
    layout: &BatchedGraph,
    xs: &[Matrix],
    diffs: &[Vec<u32>],
    ys: &[f64],
    batch: &[usize],
    scale: f64,
    pool: &mut BufferPool,
) -> (f64, Vec<Matrix>, u64) {
    let refs: Vec<&Matrix> = batch.iter().map(|&i| &xs[i]).collect();
    let batch_diffs: Vec<&[u32]> = batch.iter().map(|&i| diffs[i].as_slice()).collect();
    let rows = layout.compress(&refs, &batch_diffs, model.halo_hops(), pool);
    let targets = Matrix::from_vec(batch.len(), 1, batch.iter().map(|&i| ys[i]).collect());
    let mut tape = Tape::with_pool(std::mem::take(pool));
    let ids = model.insert_params(&mut tape);
    let pred = model.forward_batched(&mut tape, &ids, layout, rows, scale);
    let target = tape.constant(targets);
    let diff = tape.sub(pred, target);
    let sq = tape.hadamard(diff, diff);
    // Summing the per-row squared errors walks them in batch order, so the
    // batch loss is the per-instance losses summed in order, and seeds
    // every row of the backward pass with gradient 1.0.
    let total = tape.sum_all(sq);
    tape.backward(total);
    let loss_sum = tape.value(total).get(0, 0);
    let grads = ids
        .iter()
        .zip(model.params())
        .map(|(&id, p)| {
            tape.try_grad(id)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(p.rows(), p.cols()))
        })
        .collect();
    let tape_bytes = tape.logical_bytes();
    *pool = tape.into_pool();
    (loss_sum, grads, tape_bytes)
}

/// Trains `model` on instances `(xs[i], ys[i])` sharing the graph operator
/// `op`. Labels should already be on the scale the model predicts
/// (log-seconds for the default [`OutputHead::Identity`]).
///
/// If a batch produces a non-finite loss or gradient, training stops
/// immediately *before* applying the poisoned update and the report carries
/// `diverged: true` — the model keeps its last healthy parameters and the
/// loss history contains only finite values.
///
/// `config.control` adds cooperative interruption via a
/// [`budget::CancelToken`] polled at every epoch boundary, and crash-safe
/// end-of-epoch checkpoints with bit-identical resume.
///
/// # Determinism of resume
///
/// A run interrupted after epoch *k* and resumed from its checkpoint
/// produces parameters bit-identical to an uninterrupted run: each epoch is
/// a pure function of (parameters, ADAM state, batch order), the checkpoint
/// serializes parameters and ADAM moments as exact bit patterns, and the
/// RNG position is restored by replaying the *k* recorded shuffles of the
/// evolving index vector — the cheapest way to reproduce both the RNG
/// stream position and the order-vector state without serializing either.
///
/// # Panics
///
/// Panics if `xs` and `ys` lengths differ or the training set is empty, and
/// when resuming from a checkpoint that exists but is corrupt, or whose
/// hyper-parameter fingerprint does not match `config` — silently training
/// on from the wrong state would be worse than stopping.
///
/// [`OutputHead::Identity`]: crate::OutputHead::Identity
pub fn train(
    model: &mut GraphModel,
    op: &Arc<CsrMatrix>,
    xs: &[Matrix],
    ys: &[f64],
    config: &TrainConfig,
) -> TrainReport {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    assert!(!xs.is_empty(), "empty training set");
    let scale = batch_scale(config.batch_size, xs.len());
    // Every instance's diff rows against the first, found once for the run:
    // each batch compresses from them instead of scanning its features.
    let diffs = diffs_from_first(xs);
    // One layout (operator + transpose) per distinct chunk length, built
    // once and reused across every epoch. An epoch sees at most two
    // lengths: the nominal batch size and the final partial chunk.
    let mut layouts: Vec<(usize, BatchedGraph)> = Vec::new();
    // One buffer pool for the whole run: every step's tape hands its node
    // buffers back, so steady-state training allocates nothing per batch.
    // The pool itself is leased from a thread-local that outlives this call,
    // so back-to-back runs (serve retraining, evaluation sweeps) skip even
    // the first-batch warm-up.
    let mut lease = PoolLease::acquire();
    let pool = lease.pool();
    let mut optimizer = Adam::new(config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut history = Vec::new();
    let mut best = f64::INFINITY;
    let mut stall = 0usize;
    let mut start_epoch = 0usize;
    let mut checkpoint_error: Option<String> = None;
    let mut peak_tape_bytes = 0u64;
    let fingerprint = checkpoint::fingerprint(config, xs.len(), model.params());

    if let Some(path) = config.control.checkpoint.as_ref() {
        match checkpoint::load(path) {
            Ok(None) => {} // nothing saved yet: a fresh run
            Ok(Some(ckpt)) => {
                assert_eq!(
                    ckpt.fingerprint, fingerprint,
                    "training checkpoint `{}` belongs to different \
                     hyper-parameters / shapes; refusing to resume from it",
                    path
                );
                for (i, (dst, src)) in model.params_mut().iter_mut().zip(&ckpt.params).enumerate() {
                    assert_eq!(dst.shape(), src.shape(), "param {i} shape mismatch");
                    *dst = src.clone();
                }
                optimizer.restore(ckpt.adam_t, ckpt.adam_m, ckpt.adam_v);
                history = ckpt.history;
                best = ckpt.best;
                stall = ckpt.stall;
                start_epoch = ckpt.epochs_done;
                // Replay the completed epochs' shuffles: this advances the
                // RNG stream *and* evolves the order vector exactly as the
                // original run did.
                for _ in 0..ckpt.epochs_done {
                    order.shuffle(&mut rng);
                }
                if ckpt.converged {
                    // The checkpointed run already satisfied the tolerance
                    // criterion; there is nothing left to train.
                    return TrainReport {
                        epochs_run: ckpt.epochs_done,
                        final_loss: *history.last().expect("converged run has epochs"),
                        loss_history: history,
                        converged: true,
                        diverged: false,
                        interrupted: false,
                        checkpoint_error: None,
                        peak_tape_bytes: 0,
                    };
                }
            }
            Err(message) => panic!(
                "unusable training checkpoint `{}`: {message} (delete it to start fresh)",
                path
            ),
        }
    }

    for epoch in start_epoch..config.max_epochs {
        // `train.interrupt` models an operator interrupt (or the process
        // dying) landing exactly at this epoch boundary; it takes the same
        // drain-and-return path as a real tripped token, so the
        // crash-then-resume matrix is drivable from a fault plan alone.
        let injected_interrupt = faults::inject("train.interrupt")
            .map(|fault| match fault.action {
                faults::Action::Die => true,
                _ => fault.unsupported("train.interrupt"),
            })
            .unwrap_or(false);
        if injected_interrupt
            || config
                .control
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
        {
            // Epoch-boundary interruption: the model holds the end-of-epoch
            // parameters the checkpoint (when configured) just persisted, so
            // a resumed run continues bit-identically from here.
            return TrainReport {
                epochs_run: epoch,
                final_loss: history.last().copied().unwrap_or(f64::INFINITY),
                loss_history: history,
                converged: false,
                diverged: false,
                interrupted: true,
                checkpoint_error,
                peak_tape_bytes,
            };
        }
        // NaN poisoning fires on the first batch of the epoch, upstream of
        // the divergence guard it exists to exercise.
        let mut poison = faults::inject("train.epoch");
        if let Some(fault) = &poison {
            if fault.action != faults::Action::Nan {
                fault.unsupported("train.epoch");
            }
        }
        // Observation-only instrumentation: the clock and the gradient-norm
        // accumulator are reads; neither feeds back into the update, so
        // tracing cannot change the trained parameters.
        let observing = obs::enabled();
        let epoch_started = observing.then(std::time::Instant::now);
        let mut grad_sq = 0.0;
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size.max(1)) {
            let layout = match layouts.iter().position(|(len, _)| *len == batch.len()) {
                Some(pos) => &layouts[pos].1,
                None => {
                    layouts.push((batch.len(), BatchedGraph::replicate(op, batch.len())));
                    &layouts.last().expect("just pushed").1
                }
            };
            let (mut batch_loss, grads, tape_bytes) =
                batched_gradients(model, layout, xs, &diffs, ys, batch, scale, pool);
            peak_tape_bytes = peak_tape_bytes.max(tape_bytes);
            if poison.take().is_some() {
                batch_loss = f64::NAN;
            }
            // Divergence guard. NaN compares false against everything, so
            // without this check a poisoned loss sails through the
            // convergence test below and training runs all max_epochs
            // returning NaN parameters with no signal.
            if !batch_loss.is_finite() || grads.iter().any(|g| !g.is_finite()) {
                return TrainReport {
                    epochs_run: epoch + 1,
                    final_loss: history.last().copied().unwrap_or(f64::INFINITY),
                    loss_history: history,
                    converged: false,
                    diverged: true,
                    interrupted: false,
                    checkpoint_error,
                    peak_tape_bytes,
                };
            }
            epoch_loss += batch_loss;
            if observing {
                grad_sq += grads
                    .iter()
                    .map(|g| {
                        let n = g.norm();
                        n * n
                    })
                    .sum::<f64>();
            }
            optimizer.step(model.params_mut(), &grads);
        }
        epoch_loss /= xs.len() as f64;
        if observing {
            obs::emit(obs::EventKind::TrainEpoch {
                epoch: epoch as u64,
                loss: epoch_loss,
                grad_norm: grad_sq.sqrt(),
                wall_ns: epoch_started
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0),
            });
        }
        history.push(epoch_loss);
        let mut converged_now = false;
        if best - epoch_loss < config.tol {
            stall += 1;
            if stall >= config.patience {
                converged_now = true;
            }
        } else {
            stall = 0;
        }
        if !converged_now {
            // Matches the historical loop exactly: `best` was only ever
            // updated on the path that continued to the next epoch.
            best = best.min(epoch_loss);
        }
        if let Some(path) = config.control.checkpoint.as_ref() {
            let state = TrainCheckpoint {
                fingerprint,
                epochs_done: epoch + 1,
                converged: converged_now,
                stall,
                best,
                history: history.clone(),
                params: model.params().to_vec(),
                adam_t: optimizer.state().0,
                adam_m: optimizer.state().1.to_vec(),
                adam_v: optimizer.state().2.to_vec(),
            };
            match checkpoint::save(path, &state) {
                Ok(()) => obs::emit(obs::EventKind::TrainCheckpointSaved {
                    epoch: (epoch + 1) as u64,
                }),
                // Best-effort durability: losing this epoch's save costs
                // resumability, not the run; report the first failure.
                Err(message) => {
                    checkpoint_error.get_or_insert(message);
                }
            }
        }
        if converged_now {
            return TrainReport {
                epochs_run: epoch + 1,
                final_loss: epoch_loss,
                loss_history: history,
                converged: true,
                diverged: false,
                interrupted: false,
                checkpoint_error,
                peak_tape_bytes,
            };
        }
    }
    TrainReport {
        epochs_run: config.max_epochs,
        final_loss: *history.last().expect("at least one epoch"),
        loss_history: history,
        converged: false,
        diverged: false,
        interrupted: false,
        checkpoint_error,
        peak_tape_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode_features, FeatureSet};
    use crate::graph::CircuitGraph;
    use crate::model::{ModelKind, OutputHead};
    use crate::Aggregation;
    use netlist::GateId;

    /// Squared-error loss and per-parameter gradients for one training instance
    /// (its own tape; `None` where no gradient reached a parameter). The tape
    /// allocates from `pool` and surrenders its buffers back on completion, so
    /// a loop over instances reuses one set of buffers.
    fn instance_gradient(
        model: &GraphModel,
        op: &Arc<CsrMatrix>,
        x: &Matrix,
        y: f64,
        pool: &mut BufferPool,
    ) -> (f64, Vec<Option<Matrix>>, u64) {
        let mut tape = Tape::with_pool(std::mem::take(pool));
        let ids = model.insert_params(&mut tape);
        let pred = model.forward(&mut tape, &ids, op, x);
        let target = tape.constant(Matrix::scalar(y));
        let diff = tape.sub(pred, target);
        let sq = tape.hadamard(diff, diff);
        tape.backward(sq);
        let loss = tape.value(sq).get(0, 0);
        let grads = ids.iter().map(|&id| tape.try_grad(id).cloned()).collect();
        // Liveness peaks here: every node value and every materialized gradient
        // coexist right after the backward pass.
        let tape_bytes = tape.logical_bytes();
        *pool = tape.into_pool();
        (loss, grads, tape_bytes)
    }

    /// Summed batch loss and scaled per-parameter gradients for one mini-batch
    /// — the per-instance reference engine: one tape per instance, each
    /// instance's gradient added with weight `scale` (see [`batch_scale`]) in
    /// batch order.
    fn batch_gradients(
        model: &GraphModel,
        op: &Arc<CsrMatrix>,
        xs: &[Matrix],
        ys: &[f64],
        batch: &[usize],
        scale: f64,
        pool: &mut BufferPool,
    ) -> (f64, Vec<Matrix>, u64) {
        let mut loss_sum = 0.0;
        let mut peak_tape_bytes = 0u64;
        let mut grads: Vec<Matrix> = model
            .params()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        for &i in batch {
            let (loss, gs, tape_bytes) = instance_gradient(model, op, &xs[i], ys[i], pool);
            loss_sum += loss;
            peak_tape_bytes = peak_tape_bytes.max(tape_bytes);
            for (acc, g) in grads.iter_mut().zip(gs) {
                if let Some(g) = g {
                    acc.axpy(scale, &g);
                }
            }
        }
        (loss_sum, grads, peak_tape_bytes)
    }

    /// Synthetic task on c17: label = #selected gates (training must drive
    /// the loss down substantially).
    fn toy_dataset() -> (Arc<CsrMatrix>, Vec<Matrix>, Vec<f64>) {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(ModelKind::ICNet.operator(&graph));
        let logic: Vec<GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_input())
            .map(|(id, _)| id)
            .collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        // All subsets of the first 5 logic gates.
        for mask in 0u32..32 {
            let sel: Vec<GateId> = (0..5)
                .filter(|&b| (mask >> b) & 1 == 1)
                .map(|b| logic[b])
                .collect();
            xs.push(encode_features(&circuit, &sel, FeatureSet::All));
            ys.push(sel.len() as f64 * 0.5);
        }
        (op, xs, ys)
    }

    #[test]
    fn training_reduces_loss() {
        let (op, xs, ys) = toy_dataset();
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 12, 8, 3);
        let cfg = TrainConfig {
            max_epochs: 120,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs, &ys, &cfg);
        assert!(
            report.final_loss < 0.1 * report.loss_history[0],
            "loss did not drop: {} -> {}",
            report.loss_history[0],
            report.final_loss
        );
        assert!(!report.diverged);
    }

    #[test]
    fn sum_and_mean_pooling_never_hold_the_stacked_last_layer() {
        // Batches of 16 lockings of c1529 (1–6 key gates each) through a
        // 16-wide ICNet. A tape that expands the last layer to all B·n
        // stacked rows holds that matrix and its gradient, 2·B·n·hidden·8
        // bytes, on top of everything else; pooling through the gather
        // index keeps the whole tape below that.
        let circuit = synth::iscas::circuit("c1529", 0).expect("known profile");
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(ModelKind::ICNet.operator(&graph));
        let gates: Vec<GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_input())
            .map(|(id, _)| id)
            .collect();
        let (b, hidden) = (16, 16);
        let xs: Vec<Matrix> = (0..2 * b)
            .map(|s| {
                let sel: Vec<GateId> = (0..1 + s % 6)
                    .map(|i| gates[(s * 211 + i * 97) % gates.len()])
                    .collect();
                encode_features(&circuit, &sel, FeatureSet::All)
            })
            .collect();
        let ys: Vec<f64> = (0..xs.len()).map(|i| (i % 5) as f64 * 0.3).collect();
        let stacked = 2 * b * circuit.num_gates() * hidden * std::mem::size_of::<f64>();
        for agg in [Aggregation::Sum, Aggregation::Mean] {
            let mut model = GraphModel::new(ModelKind::ICNet, agg, 7, hidden, hidden, 1);
            let config = TrainConfig {
                batch_size: b,
                max_epochs: 2,
                ..TrainConfig::default()
            };
            let report = train(&mut model, &op, &xs, &ys, &config);
            assert!(
                report.peak_tape_bytes > 0 && (report.peak_tape_bytes as usize) < stacked,
                "{agg}: tape peak {} B against the stacked {stacked} B",
                report.peak_tape_bytes
            );
        }
    }

    #[test]
    fn sum_and_mean_aggregations_also_train() {
        let (op, xs, ys) = toy_dataset();
        for agg in [Aggregation::Sum, Aggregation::Mean] {
            let mut model = GraphModel::new(ModelKind::ICNet, agg, 7, 8, 6, 4);
            let report = train(&mut model, &op, &xs, &ys, &TrainConfig::quick());
            assert!(report.final_loss.is_finite(), "{agg}");
            assert!(report.final_loss < report.loss_history[0], "{agg}");
        }
    }

    #[test]
    fn convergence_stops_early() {
        let (op, xs, ys) = toy_dataset();
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 5);
        let cfg = TrainConfig {
            max_epochs: 5000,
            tol: 10.0, // absurdly lax: should stop after `patience` epochs
            patience: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs, &ys, &cfg);
        assert!(report.converged);
        // The first epoch always improves on the infinite initial best, so
        // convergence fires after `patience` + 1 epochs.
        assert_eq!(report.epochs_run, 5);
    }

    #[test]
    fn deterministic_given_seeds() {
        let (op, xs, ys) = toy_dataset();
        let run = || {
            let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 7);
            train(&mut model, &op, &xs, &ys, &TrainConfig::quick());
            model.predict(&op, &xs[3])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trained_parameters_are_pinned() {
        // A digest of every trained parameter and prediction bit, pinned
        // across commits: a change to the training arithmetic that moves a
        // bit fails here. Batch size 5 over 32 instances leaves a partial
        // final chunk of 2 each epoch.
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let (_, xs, ys) = toy_dataset();
        let refs: Vec<&Matrix> = xs.iter().collect();
        let config = TrainConfig {
            batch_size: 5,
            ..TrainConfig::quick()
        };
        let digest = |kind: ModelKind, agg: Aggregation| {
            let op = Arc::new(kind.operator(&graph));
            let mut model = GraphModel::new(kind, agg, 7, 8, 6, 29);
            train(&mut model, &op, &xs, &ys, &config);
            let preds = model.predict_batched(&BatchedGraph::replicate(&op, xs.len()), &refs);
            let params = model.params().iter().flat_map(|p| p.as_slice());
            let bits: Vec<u8> = params
                .chain(&preds)
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            faults::fnv1a(faults::FNV_OFFSET, &bits)
        };
        assert_eq!(
            [
                digest(ModelKind::ICNet, Aggregation::Nn),
                digest(ModelKind::ChebNet { k: 3 }, Aggregation::Mean),
                digest(ModelKind::Gcn, Aggregation::Sum),
            ],
            [
                15717837311537409553,
                1062412406501730781,
                10781415436890231899
            ]
        );
    }

    /// `max|g − g_ref| ≤ 1e-9 · max|g_ref|` for every parameter matrix.
    fn assert_gradients_match(got: &[Matrix], reference: &[Matrix], what: &str) {
        for (i, (g, r)) in got.iter().zip(reference).enumerate() {
            let diff = g
                .as_slice()
                .iter()
                .zip(r.as_slice())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                diff <= 1e-9 * r.max_abs(),
                "{what}: parameter {i} gradient off by {diff} (max {})",
                r.max_abs()
            );
        }
    }

    #[test]
    fn batched_gradients_match_the_per_instance_reference() {
        // Lockings of a synthetic c432: two random selections, the empty
        // one (the reference, at batch position 2), a duplicate, every gate
        // selected, and more random ones. Chunks of 6 leave a partial chunk
        // of 3 carrying the nominal 1/6 weight.
        let circuit = synth::iscas::circuit("c432", 7).expect("known profile");
        let graph = CircuitGraph::from_circuit(&circuit);
        let gates: Vec<GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_input())
            .map(|(id, _)| id)
            .collect();
        let pick = |seed: usize, count: usize| -> Vec<GateId> {
            (0..count)
                .map(|i| gates[(seed * 37 + i * 101) % gates.len()])
                .collect()
        };
        let selections = [
            pick(1, 3),
            pick(2, 5),
            Vec::new(),
            pick(1, 3),
            circuit.iter().map(|(id, _)| id).collect(),
            pick(3, 1),
            pick(4, 6),
            pick(5, 2),
            pick(6, 4),
        ];
        let xs: Vec<Matrix> = selections
            .iter()
            .map(|sel| encode_features(&circuit, sel, FeatureSet::All))
            .collect();
        let ys: Vec<f64> = (0..xs.len()).map(|i| (i % 4) as f64 * 0.5 - 0.7).collect();
        let order: Vec<usize> = (0..xs.len()).collect();
        let scale = batch_scale(6, xs.len());
        let mut models = Vec::new();
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                for output in [OutputHead::Identity, OutputHead::Exp] {
                    models.push(GraphModel::new(kind, agg, 7, 8, 6, 17).with_output(output));
                }
            }
        }
        models.push(GraphModel::with_conv_layers(
            ModelKind::ICNet,
            Aggregation::Nn,
            7,
            8,
            3,
            23,
        ));
        let mut pool = BufferPool::new();
        let diffs = diffs_from_first(&xs);
        for model in &models {
            let op = Arc::new(model.kind.operator(&graph));
            for chunk in order.chunks(6) {
                let layout = BatchedGraph::replicate(&op, chunk.len());
                let (loss, grads, _) =
                    batched_gradients(model, &layout, &xs, &diffs, &ys, chunk, scale, &mut pool);
                let (ref_loss, ref_grads, _) =
                    batch_gradients(model, &op, &xs, &ys, chunk, scale, &mut pool);
                let what = format!("{model} {:?} chunk {chunk:?}", model.output);
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{what}: batch loss");
                assert_gradients_match(&grads, &ref_grads, &what);
            }
        }
    }

    /// Replays `epochs` shuffled epochs of training, computing every step
    /// with both the compressed engine and the per-instance reference at the
    /// same parameters, then applying the compressed gradient. The batch
    /// loss and the trained model's predictions must be bit-identical to
    /// the per-instance ones; the gradients fold in another order and agree
    /// to `max|g − g_ref| ≤ 1e-9 · max|g_ref|`.
    fn assert_engines_agree(
        mut model: GraphModel,
        op: &Arc<CsrMatrix>,
        (xs, ys): (&[Matrix], &[f64]),
        batch_size: usize,
        epochs: usize,
    ) {
        let scale = batch_scale(batch_size, xs.len());
        let mut optimizer = Adam::new(1e-3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut pool = BufferPool::new();
        let diffs = diffs_from_first(xs);
        for epoch in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size) {
                let layout = BatchedGraph::replicate(op, chunk.len());
                let (loss, grads, _) =
                    batched_gradients(&model, &layout, xs, &diffs, ys, chunk, scale, &mut pool);
                let (ref_loss, ref_grads, _) =
                    batch_gradients(&model, op, xs, ys, chunk, scale, &mut pool);
                let what = format!("{model} epoch {epoch} chunk {chunk:?}");
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{what}: batch loss");
                assert_gradients_match(&grads, &ref_grads, &what);
                optimizer.step(model.params_mut(), &grads);
            }
        }
        let solo: Vec<u64> = xs.iter().map(|x| model.predict(op, x).to_bits()).collect();
        let refs: Vec<&Matrix> = xs.iter().collect();
        let batched: Vec<u64> = model
            .predict_batched(&BatchedGraph::replicate(op, xs.len()), &refs)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(batched, solo, "{model}: trained predictions");
    }

    #[test]
    fn batched_engine_is_bit_identical_to_per_instance() {
        let (op, xs, ys) = toy_dataset();
        // batch_size 12 over 32 instances: every epoch ends in a partial
        // chunk of 8, so the equivalence covers both layouts.
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 13);
        assert_engines_agree(model, &op, (&xs, &ys), 12, 4);
    }

    #[test]
    fn batched_engine_is_bit_identical_for_all_model_kinds() {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let (_, xs, ys) = toy_dataset();
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            let op = Arc::new(kind.operator(&graph));
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                let model = GraphModel::new(kind, agg, 7, 8, 6, 17);
                // batch_size 5: a partial final chunk of 2.
                assert_engines_agree(model, &op, (&xs, &ys), 5, 3);
            }
        }
    }

    #[test]
    fn training_reports_a_deterministic_peak_tape_bytes() {
        let (op, xs, ys) = toy_dataset();
        let cfg = TrainConfig {
            max_epochs: 3,
            ..TrainConfig::default()
        };
        let peak = || {
            let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 11);
            train(&mut model, &op, &xs, &ys, &cfg).peak_tape_bytes
        };
        let first = peak();
        assert!(
            first > 0,
            "a run with batches must record a tape high-water mark"
        );
        assert_eq!(first, peak(), "a second identical run reads the same peak");
    }

    #[test]
    fn partial_final_batch_is_weighted_by_nominal_batch_size() {
        // 2-instance-overlap construction: the dataset's last instance
        // duplicates its first, so whichever chunk each copy lands in, their
        // per-step gradient contributions must be interchangeable. Under
        // `batch_size == n` every instance carries weight 1/n; under
        // `batch_size == n - 1` the epoch splits into a full chunk and a
        // size-1 leftover, and the leftover must carry 1/(n-1) — not the
        // full instance gradient the old `1/chunk_len` scaling gave it.
        let (op, xs, ys) = toy_dataset();
        let n = 5usize;
        let mut xs: Vec<Matrix> = xs[..n - 1].to_vec();
        let mut ys: Vec<f64> = ys[..n - 1].to_vec();
        xs.push(xs[0].clone());
        ys.push(ys[0]);
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 19);

        // The raw (unweighted) gradient of the duplicated instance.
        let mut pool = BufferPool::new();
        let (_, raw, _) = batch_gradients(&model, &op, &xs, &ys, &[n - 1], 1.0, &mut pool);

        // The leftover chunk under batch_size = n - 1.
        let scale = batch_scale(n - 1, n);
        let (_, leftover, _) = batch_gradients(&model, &op, &xs, &ys, &[n - 1], scale, &mut pool);
        let expected: Vec<Matrix> = raw
            .iter()
            .map(|g| {
                let mut acc = Matrix::zeros(g.rows(), g.cols());
                acc.axpy(scale, g);
                acc
            })
            .collect();
        assert_eq!(
            leftover, expected,
            "a size-1 leftover chunk must scale by 1/(n-1), not 1/1"
        );
        // And the batched engine agrees bit for bit.
        let layout = BatchedGraph::replicate(&op, 1);
        let (_, batched, _) = batched_gradients(
            &model,
            &layout,
            &xs,
            &diffs_from_first(&xs),
            &ys,
            &[n - 1],
            scale,
            &mut pool,
        );
        assert_eq!(batched, leftover, "engines disagree on the leftover chunk");

        // Under batch_size == n the duplicate pair each carry 1/n: the
        // full-batch gradient equals the sum of all five instance gradients
        // at that weight, so the pair's joint weight is exactly 2/n.
        let full_scale = batch_scale(n, n);
        assert_eq!(full_scale, 1.0 / n as f64);
        let (_, full, _) = batch_gradients(
            &model,
            &op,
            &xs,
            &ys,
            &[0, 1, 2, 3, 4],
            full_scale,
            &mut pool,
        );
        let mut summed: Vec<Matrix> = model
            .params()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        for i in 0..n {
            let (_, g, _) = batch_gradients(&model, &op, &xs, &ys, &[i], 1.0, &mut pool);
            for (acc, g) in summed.iter_mut().zip(&g) {
                acc.axpy(full_scale, g);
            }
        }
        assert_eq!(full, summed);
    }

    #[test]
    #[should_panic(expected = "refusing to resume")]
    fn a_checkpoint_with_the_v2_fingerprint_is_refused() {
        // Builds before the compressed batch engine fingerprinted this run
        // with a `v2;` tag; their gradients fold in another order, so
        // resuming one would blend two trajectories.
        let (op, xs, ys) = toy_dataset();
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 3);
        let config = TrainConfig::quick();
        let mut text = format!(
            "v2;seed={};lr={:016x};batch={};tol={:016x};patience={};max_epochs={};n={}",
            config.seed,
            config.lr.to_bits(),
            config.batch_size,
            config.tol.to_bits(),
            config.patience,
            config.max_epochs,
            xs.len(),
        );
        for p in model.params() {
            text.push_str(&format!(";{}x{}", p.rows(), p.cols()));
        }
        let path = std::env::temp_dir()
            .join(format!("icnet_v2_fingerprint_{}.ckpt", std::process::id()))
            .display()
            .to_string();
        let stale = TrainCheckpoint {
            fingerprint: faults::fnv1a(faults::FNV_OFFSET, text.as_bytes()),
            epochs_done: 1,
            converged: false,
            stall: 0,
            best: 1.0,
            history: vec![1.0],
            params: model.params().to_vec(),
            adam_t: 0,
            adam_m: Vec::new(),
            adam_v: Vec::new(),
        };
        checkpoint::save(&path, &stale).expect("checkpoint saves");
        let config = TrainConfig {
            control: TrainControl {
                checkpoint: Some(path),
                ..TrainControl::default()
            },
            ..config
        };
        train(&mut model, &op, &xs, &ys, &config);
    }

    #[test]
    fn batch_scale_uses_the_nominal_batch_size() {
        assert_eq!(batch_scale(16, 100), 1.0 / 16.0);
        assert_eq!(batch_scale(16, 10), 1.0 / 10.0, "clamped to the set size");
        assert_eq!(batch_scale(0, 10), 1.0, "batch_size 0 means 1");
        assert_eq!(batch_scale(4, 0), 1.0, "degenerate empty set");
    }

    #[test]
    fn divergence_is_detected_and_reported() {
        // An absurd learning rate with the exponential head (the paper's
        // Eq. 3) overflows on the second epoch: the first ADAM step throws
        // the logit past ~710, exp(logit) hits +inf and the squared
        // residual follows. Before the guard this ran all max_epochs and
        // silently returned NaN parameters.
        let (op, xs, ys) = toy_dataset();
        let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 11)
            .with_output(OutputHead::Exp);
        let cfg = TrainConfig {
            lr: 500.0,
            max_epochs: 50,
            batch_size: 32, // one batch per epoch: epoch 1 completes cleanly
            ..TrainConfig::default()
        };
        let report = train(&mut model, &op, &xs, &ys, &cfg);
        assert!(report.diverged, "lr=500 with Exp head must diverge");
        assert!(
            !report.loss_history.is_empty(),
            "the pre-divergence epoch must be recorded"
        );
        assert!(!report.converged);
        assert!(report.epochs_run < cfg.max_epochs, "must stop immediately");
        assert!(
            report.loss_history.iter().all(|l| l.is_finite()),
            "history may only contain finite losses: {:?}",
            report.loss_history
        );
        assert!(report.final_loss.is_finite() || report.final_loss == f64::INFINITY);
        assert!(!report.final_loss.is_nan(), "final_loss must never be NaN");
        // The poisoned update was never applied.
        assert!(
            model.params().iter().all(|p| p.is_finite()),
            "model must keep its last healthy parameters"
        );
    }
}
