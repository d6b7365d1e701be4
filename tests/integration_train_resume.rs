//! Crash-safe training: end-of-epoch checkpoints, cooperative interruption
//! at epoch boundaries, and **bit-identical** resume — an interrupted run
//! continued from its checkpoint must finish with exactly the parameters an
//! uninterrupted run produces.

use budget::CancelToken;
use icnet::{
    encode_features, train, Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind,
    TrainCheckpointSpec, TrainConfig, TrainControl,
};
use std::sync::{Arc, Mutex};
use tensor::Matrix;

/// The faults registry is process-global; tests that arm a plan must not
/// overlap.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the fault plan when a test exits, pass or panic.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn ckpt_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("icnet_integration_train_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.display().to_string()
}

/// A tiny c17 training problem: six single-gate encryption masks with
/// distinct synthetic runtimes.
fn setup() -> (Arc<tensor::CsrMatrix>, Vec<Matrix>, Vec<f64>) {
    let circuit = netlist::c17();
    let graph = CircuitGraph::from_circuit(&circuit);
    let op = Arc::new(ModelKind::ICNet.operator(&graph));
    let xs: Vec<Matrix> = (0..6)
        .map(|i| encode_features(&circuit, &[netlist::GateId::from_index(i)], FeatureSet::All))
        .collect();
    let ys: Vec<f64> = (0..6).map(|i| 0.25 + 0.3 * i as f64).collect();
    (op, xs, ys)
}

fn fresh_model() -> GraphModel {
    GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 8, 1)
}

/// `tol: 0` + huge patience: the convergence test can never trigger, so a
/// run deterministically spends all `max_epochs` epochs.
fn config(max_epochs: usize) -> TrainConfig {
    TrainConfig {
        max_epochs,
        lr: 5e-3,
        batch_size: 2,
        tol: 0.0,
        patience: 1000,
        ..TrainConfig::default()
    }
}

/// `cfg` under the runtime controls `control`.
fn controlled(cfg: &TrainConfig, control: TrainControl) -> TrainConfig {
    TrainConfig {
        control,
        ..cfg.clone()
    }
}

fn param_bits(model: &GraphModel) -> Vec<u64> {
    model
        .params()
        .iter()
        .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn checkpointing_a_clean_run_changes_nothing() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    let cfg = config(7);

    let mut plain = fresh_model();
    let plain_report = train(&mut plain, &op, &xs, &ys, &cfg);

    let path = ckpt_path("clean");
    let control = TrainControl {
        cancel: None,
        checkpoint: Some(TrainCheckpointSpec {
            path: path.clone(),
            resume: true,
        }),
    };
    let mut saved = fresh_model();
    let saved_report = train(&mut saved, &op, &xs, &ys, &controlled(&cfg, control));

    assert_eq!(param_bits(&plain), param_bits(&saved));
    assert_eq!(plain_report.loss_history, saved_report.loss_history);
    assert_eq!(saved_report.checkpoint_error, None);
    assert!(!saved_report.interrupted);
    assert!(std::path::Path::new(&path).exists(), "checkpoint persisted");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupted_then_resumed_runs_are_bit_identical() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    let epochs = 9usize;
    let cfg = config(epochs);

    let mut clean = fresh_model();
    let clean_report = train(&mut clean, &op, &xs, &ys, &cfg);
    let reference = param_bits(&clean);
    assert_eq!(clean_report.epochs_run, epochs);

    // First epoch, a mid-run epoch, and the boundary before the last epoch.
    for k in [1usize, epochs / 2, epochs - 1] {
        let path = ckpt_path(&format!("resume_k{k}"));
        let checkpointed = controlled(
            &cfg,
            TrainControl {
                cancel: None,
                checkpoint: Some(TrainCheckpointSpec {
                    path: path.clone(),
                    resume: true,
                }),
            },
        );

        // Crash leg: the injected interrupt lands at the epoch-k boundary.
        let _cleanup = Disarm;
        faults::arm_str(&format!("train.interrupt:die@o{k}"), None).unwrap();
        let mut interrupted = fresh_model();
        let report = train(&mut interrupted, &op, &xs, &ys, &checkpointed);
        faults::disarm();
        assert!(report.interrupted, "k={k}");
        assert!(!report.converged, "k={k}");
        assert_eq!(report.epochs_run, k, "k={k}: stopped at the boundary");
        assert_eq!(report.loss_history, clean_report.loss_history[..k], "k={k}");

        // Resume leg: restores parameters, ADAM moments, and RNG position.
        let mut resumed = fresh_model();
        let report = train(&mut resumed, &op, &xs, &ys, &checkpointed);
        assert!(!report.interrupted, "k={k}");
        assert_eq!(report.epochs_run, epochs, "k={k}: finished the run");
        assert_eq!(report.loss_history, clean_report.loss_history, "k={k}");
        assert_eq!(
            param_bits(&resumed),
            reference,
            "k={k}: resume must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn pre_tripped_token_stops_before_the_first_epoch() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    let token = CancelToken::default();
    token.cancel();
    let control = TrainControl {
        cancel: Some(token),
        checkpoint: None,
    };
    let mut model = fresh_model();
    let initial = param_bits(&model);
    let report = train(&mut model, &op, &xs, &ys, &controlled(&config(9), control));
    assert!(report.interrupted);
    assert_eq!(report.epochs_run, 0);
    assert!(report.loss_history.is_empty());
    assert!(!report.converged && !report.diverged);
    assert_eq!(param_bits(&model), initial, "no update applied");
}

#[test]
fn pre_tripped_token_on_resume_stops_at_epoch_n() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    let cfg = config(9);
    let path = ckpt_path("pretripped_resume");
    let checkpoint = Some(TrainCheckpointSpec {
        path: path.clone(),
        resume: true,
    });

    // Reach epoch 3 via an injected interrupt, leaving a checkpoint behind.
    let _cleanup = Disarm;
    faults::arm_str("train.interrupt:die@o3", None).unwrap();
    let mut first = fresh_model();
    let control = TrainControl {
        cancel: None,
        checkpoint: checkpoint.clone(),
    };
    let report = train(&mut first, &op, &xs, &ys, &controlled(&cfg, control));
    faults::disarm();
    assert_eq!((report.epochs_run, report.interrupted), (3, true));

    // A resume under an already-tripped token must halt at epoch 3 — i.e.
    // exactly the checkpointed state, no training progress.
    let token = CancelToken::default();
    token.cancel();
    let mut resumed = fresh_model();
    let control = TrainControl {
        cancel: Some(token),
        checkpoint,
    };
    let report = train(&mut resumed, &op, &xs, &ys, &controlled(&cfg, control));
    assert!(report.interrupted);
    assert_eq!(report.epochs_run, 3, "halted at the restored boundary");
    assert_eq!(
        param_bits(&resumed),
        param_bits(&first),
        "parameters are exactly the checkpointed ones"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn converged_checkpoint_resumes_to_the_same_report() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    // Loose tolerance: every epoch counts as stalled, so the run converges
    // after `patience` epochs and the checkpoint records that verdict.
    let path = ckpt_path("converged");
    let cfg = TrainConfig {
        max_epochs: 50,
        lr: 5e-3,
        batch_size: 2,
        tol: f64::INFINITY,
        patience: 3,
        control: TrainControl {
            cancel: None,
            checkpoint: Some(TrainCheckpointSpec {
                path: path.clone(),
                resume: true,
            }),
        },
        ..TrainConfig::default()
    };
    let mut model = fresh_model();
    let first = train(&mut model, &op, &xs, &ys, &cfg);
    assert!(first.converged);

    let mut reloaded = fresh_model();
    let second = train(&mut reloaded, &op, &xs, &ys, &cfg);
    assert!(second.converged);
    assert_eq!(second.epochs_run, first.epochs_run);
    assert_eq!(second.loss_history, first.loss_history);
    assert_eq!(
        param_bits(&reloaded),
        param_bits(&model),
        "a finished run restores, never retrains"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
#[should_panic(expected = "different hyper-parameters")]
fn mismatched_hyperparameters_refuse_to_resume() {
    // Training consults the global `train.interrupt` occurrence counter, so
    // running beside a test that arms it would steal its occurrences.
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (op, xs, ys) = setup();
    let path = ckpt_path("fingerprint_mismatch");
    let cfg = controlled(
        &config(3),
        TrainControl {
            cancel: None,
            checkpoint: Some(TrainCheckpointSpec {
                path: path.clone(),
                resume: true,
            }),
        },
    );
    let mut model = fresh_model();
    train(&mut model, &op, &xs, &ys, &cfg);
    // Same checkpoint, different learning rate: silently mixing the two
    // optimization trajectories would be worse than stopping.
    let mut other = fresh_model();
    let cfg = TrainConfig { lr: 1e-4, ..cfg };
    train(&mut other, &op, &xs, &ys, &cfg);
}
