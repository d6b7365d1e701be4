//! The DESIGN.md §6f recovery matrix, driven end-to-end through
//! `faults::FaultPlan` — every (site × stage) entry injects the fault at a
//! real call site, lets the stack's recovery machinery react, and compares
//! the final artifacts against a clean run. No hand-built corrupt inputs:
//! if a fault cannot be reached by a plan, it is not covered here.

use bench::harness::{dataset_cache_path, load_or_generate, unseal_csv};
use dataset::{dataset_to_csv, generate_parallel_with, CheckpointLog, DatasetConfig, FailureKind};
use std::sync::Mutex;

/// Faults and the obs sink are process-global; tests must not overlap.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the fault plan when a test exits, pass or panic.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn tmp_dir(name: &str) -> String {
    let dir = std::env::temp_dir()
        .join("icnet_integration_faults")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.display().to_string()
}

fn demo_config(n: usize) -> DatasetConfig {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = n;
    config
}

/// sat.solve × panic → the supervisor's `catch_unwind` isolates the worker,
/// the retry policy re-attacks with untouched deterministic budgets, and
/// the sweep finishes with labels byte-identical to a fault-free run.
#[test]
fn solver_panic_is_retried_to_identical_labels() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let (reference, _) = generate_parallel_with(&config, 1, None).expect("clean sweep");

    let _cleanup = Disarm;
    faults::arm_str("sat.solve:panic@o0", None).unwrap();
    let (injected, report) = generate_parallel_with(&config, 1, None).expect("supervised sweep");
    assert_eq!(faults::fired().len(), 1, "the plan fired exactly once");
    assert_eq!(
        dataset_to_csv(&injected.instances),
        dataset_to_csv(&reference.instances),
        "a retried panic must not change any label"
    );
    assert!(report.failures.is_empty(), "retry succeeded, no quarantine");
}

/// sat.solve × unknown → a spurious Unknown classifies as budget
/// exhaustion, so the instance is labeled censored instead of poisoning the
/// sweep; every other instance is untouched.
#[test]
fn spurious_unknown_censors_only_the_targeted_instance() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let (reference, _) = generate_parallel_with(&config, 1, None).expect("clean sweep");

    let _cleanup = Disarm;
    // Context selector: every solve of instance 1's attack goes Unknown.
    faults::arm_str("sat.solve:unknown@c1", None).unwrap();
    let (injected, _) = generate_parallel_with(&config, 1, None).expect("sweep survives");
    assert!(injected.instances[1].censored, "labeled censored, not lost");
    for (i, (a, b)) in injected
        .instances
        .iter()
        .zip(&reference.instances)
        .enumerate()
    {
        if i != 1 {
            assert_eq!(a, b, "instance {i} unaffected");
        }
    }
}

/// sat.solve × panic on *every* attempt of one instance → the retry policy
/// runs out and the instance is quarantined with a Panic record, while every
/// other instance labels identically to a clean sweep. Pins two properties
/// of the arena-core rewrite: the fault site still fires before any solver
/// work (first statement of `solve_with_assumptions`), and a panic unwinding
/// out of arena/preprocessing state is still contained by the supervisor.
#[test]
fn persistent_solver_panic_quarantines_only_that_instance() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let (reference, _) = generate_parallel_with(&config, 1, None).expect("clean sweep");

    let _cleanup = Disarm;
    faults::arm_str("sat.solve:panic@c1", None).unwrap();
    let (injected, report) =
        generate_parallel_with(&config, 1, None).expect("sweep survives the death");
    assert_eq!(report.quarantined(), 1, "exactly the targeted instance");
    let failure = &report.failures[0];
    assert_eq!(failure.index, 1);
    assert_eq!(failure.failure.kind, FailureKind::Panic);
    assert!(
        failure.failure.message.contains("sat.solve"),
        "quarantine names the fault site: {}",
        failure.failure.message
    );
    let healthy: Vec<_> = reference
        .instances
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .map(|(_, inst)| inst.clone())
        .collect();
    assert_eq!(injected.instances, healthy, "other labels untouched");
}

/// checkpoint.append × torn → the write errors out mid-record (the crash),
/// the reopened log silently drops the torn tail, and the resumed sweep
/// rebuilds a dataset byte-identical to a never-crashed run.
#[test]
fn torn_checkpoint_append_crashes_then_resumes_identically() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let (reference, _) = generate_parallel_with(&config, 1, None).expect("clean sweep");
    let dir = tmp_dir("torn_append");
    let path = format!("{dir}/sweep.ckpt");

    {
        let _cleanup = Disarm;
        faults::arm_str("checkpoint.append:torn@o2", None).unwrap();
        let mut log = CheckpointLog::open(&path).unwrap();
        let err = generate_parallel_with(&config, 1, Some(&mut log))
            .expect_err("the torn append is a crash");
        assert!(
            err.to_string().contains("checkpoint.append torn"),
            "err: {err}"
        );
    }

    // Post-crash, post-disarm: recover the log and finish the sweep.
    let mut log = CheckpointLog::open(&path).expect("torn tail recovers silently");
    assert!(log.len() < 4, "the crashed sweep was incomplete");
    let (resumed, report) =
        generate_parallel_with(&config, 1, Some(&mut log)).expect("resumed sweep");
    assert!(report.reused() > 0, "finished attacks were not redone");
    assert_eq!(
        dataset_to_csv(&resumed.instances),
        dataset_to_csv(&reference.instances),
        "crash + resume must be invisible in the labels"
    );
}

/// A failed append leaves a *partial* line on disk, so the handle must
/// refuse every later append: in a multi-worker sweep, a still-draining
/// worker would otherwise concatenate its complete record onto the torn
/// tail — welding the two into one checksum-failing line and turning
/// silently recoverable tail damage into a loud interior-corruption error
/// on the next open. (Found by running the chaos CI job with `--jobs 2`.)
#[test]
fn failed_append_poisons_the_log_handle() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("poisoned_append");
    let path = format!("{dir}/sweep.ckpt");
    let instance = dataset::Instance {
        selected: vec![netlist::GateId::from_index(0)],
        key_bits: 2,
        iterations: 3,
        work: 100,
        seconds: 0.5,
        log_seconds: (0.5f64).ln(),
        censored: false,
    };

    let _cleanup = Disarm;
    faults::arm_str("checkpoint.append:torn@o1", None).unwrap();
    let mut log = CheckpointLog::open(&path).unwrap();
    log.record(1, 0, &instance).expect("first append is clean");
    log.record(2, 1, &instance)
        .expect_err("second append tears");
    let err = log
        .record(3, 2, &instance)
        .expect_err("poisoned handle refuses further appends");
    assert!(err.to_string().contains("reopen to recover"), "err: {err}");

    // Because nothing wrote past the torn tail, reopening recovers cleanly:
    // record 1 survives, the partial record 2 is dropped, and the fresh
    // handle accepts appends again.
    faults::disarm();
    let mut log = CheckpointLog::open(&path).expect("tail-only damage recovers");
    assert_eq!(log.len(), 1);
    assert!(log.lookup(1).is_some());
    log.record(3, 2, &instance)
        .expect("recovered handle writes");
}

/// cache.write × torn → the crash leaves only a partial temp file, never
/// renamed, so no cache appears at the path and the next run regenerates
/// identical labels. A torn cache that reaches the path some other way
/// (written by hand below) is a checksum miss: the dataset regenerates
/// identically and the cache is re-sealed.
#[test]
fn torn_cache_write_is_a_checksum_miss_next_run() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let out_dir = tmp_dir("torn_cache");
    let path = dataset_cache_path(&config, &out_dir);

    let first = {
        let _cleanup = Disarm;
        faults::arm_str("cache.write:torn@o0", None).unwrap();
        load_or_generate(&config, &out_dir, 1, None)
    };
    assert!(
        !std::path::Path::new(&path).exists(),
        "a torn cache write must leave no cache at the path"
    );
    let second = load_or_generate(&config, &out_dir, 1, None);
    assert_eq!(second.instances, first.instances, "regenerated identically");
    let sealed = std::fs::read(&path).expect("the clean run wrote the cache");
    unseal_csv(&sealed).expect("the clean run sealed the cache");

    // Reader half: half of a sealed cache at the path is a miss.
    let torn = &sealed[..sealed.len() / 2];
    let err = unseal_csv(torn).expect_err("torn cache must not verify");
    assert!(
        err.contains("truncated")
            || err.contains("missing checksum footer")
            || err.contains("checksum mismatch"),
        "err: {err}"
    );
    std::fs::write(&path, torn).unwrap();
    let third = load_or_generate(&config, &out_dir, 1, None);
    assert_eq!(third.instances, first.instances, "regenerated identically");
    let resealed = std::fs::read(&path).unwrap();
    unseal_csv(&resealed).expect("cache re-sealed after the miss");
    let fourth = load_or_generate(&config, &out_dir, 1, None);
    assert_eq!(fourth.instances, first.instances, "now a clean cache hit");
}

/// dataset.worker × die → the killed worker's instance lands in quarantine
/// with an `InstanceFailure` naming the site, the sweep reports
/// it in `SweepReport::failures`, and the surviving workers finish the rest.
#[test]
fn worker_death_is_quarantined_naming_the_site() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(6);

    let _cleanup = Disarm;
    faults::arm_str("dataset.worker:die@c2", None).unwrap();
    let (data, report) =
        generate_parallel_with(&config, 2, None).expect("sweep survives the death");
    assert_eq!(data.instances.len(), 5, "only the killed instance is lost");
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.index, 2);
    assert!(!failure.reused);
    assert_eq!(failure.failure.kind, FailureKind::Death);
    assert!(
        failure.failure.message.contains("dataset.worker"),
        "failure must name the fault site: {}",
        failure.failure.message
    );
}

/// dataset.worker × die on every instance → all workers die and the sweep
/// reports the loss loudly instead of returning a silently empty dataset.
#[test]
fn total_worker_loss_fails_loudly() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);

    let _cleanup = Disarm;
    faults::arm_str("dataset.worker:die@o0+", None).unwrap();
    let err = generate_parallel_with(&config, 2, None).expect_err("no worker survives");
    assert!(err.to_string().contains("workers died"), "err: {err}");
}

/// train.epoch × nan → the poisoned loss trips the divergence guard before
/// the update is applied: the report says diverged and the parameters stay
/// finite (the last healthy epoch's values).
#[test]
fn poisoned_epoch_diverges_with_finite_parameters() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = netlist::c17();
    let graph = icnet::CircuitGraph::from_circuit(&circuit);
    let op = std::sync::Arc::new(icnet::ModelKind::ICNet.operator(&graph));
    let xs: Vec<tensor::Matrix> = (0..4)
        .map(|i| {
            icnet::encode_features(
                &circuit,
                &[netlist::GateId::from_index(i)],
                icnet::FeatureSet::All,
            )
        })
        .collect();
    let ys = vec![0.5, 1.0, 1.5, 2.0];
    let config = icnet::TrainConfig {
        max_epochs: 6,
        lr: 5e-3,
        batch_size: 2,
        ..icnet::TrainConfig::default()
    };
    let mut model =
        icnet::GraphModel::new(icnet::ModelKind::ICNet, icnet::Aggregation::Nn, 7, 8, 8, 1);

    let _cleanup = Disarm;
    faults::arm_str("train.epoch:nan@o2", None).unwrap();
    let report = icnet::train(&mut model, &op, &xs, &ys, &config);
    assert!(report.diverged, "poison must be detected, not trained on");
    assert_eq!(report.epochs_run, 3, "died in the third epoch");
    assert_eq!(
        report.loss_history.len(),
        2,
        "poisoned epoch never recorded"
    );
    assert!(
        model
            .params()
            .iter()
            .all(|m| m.as_slice().iter().all(|v| v.is_finite())),
        "the poisoned update was never applied"
    );
}

/// train.checkpoint × torn (persistent) → every save attempt fails, the
/// report carries the first error, the on-disk checkpoint stays at its
/// last good epoch, and a post-crash resume from it is bit-identical.
#[test]
fn torn_training_checkpoint_keeps_the_last_good_epoch() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = netlist::c17();
    let graph = icnet::CircuitGraph::from_circuit(&circuit);
    let op = std::sync::Arc::new(icnet::ModelKind::ICNet.operator(&graph));
    let xs: Vec<tensor::Matrix> = (0..4)
        .map(|i| {
            icnet::encode_features(
                &circuit,
                &[netlist::GateId::from_index(i)],
                icnet::FeatureSet::All,
            )
        })
        .collect();
    let ys = vec![0.5, 1.0, 1.5, 2.0];
    let config = icnet::TrainConfig {
        max_epochs: 8,
        lr: 5e-3,
        batch_size: 2,
        tol: 0.0,
        patience: 1000,
        ..icnet::TrainConfig::default()
    };
    let fresh =
        || icnet::GraphModel::new(icnet::ModelKind::ICNet, icnet::Aggregation::Nn, 7, 8, 8, 1);
    let bits = |m: &icnet::GraphModel| -> Vec<u64> {
        m.params()
            .iter()
            .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    };
    let mut clean = fresh();
    let clean_report = icnet::train(&mut clean, &op, &xs, &ys, &config);

    let dir = tmp_dir("torn_train_ckpt");
    let checkpointed = icnet::TrainConfig {
        control: icnet::TrainControl {
            cancel: None,
            checkpoint: Some(format!("{dir}/train.ckpt")),
        },
        ..config
    };
    // Saves succeed through epoch 3; every later one tears mid-write.
    let _cleanup = Disarm;
    faults::arm_str("train.checkpoint:torn@o3+", None).unwrap();
    let mut torn = fresh();
    let report = icnet::train(&mut torn, &op, &xs, &ys, &checkpointed);
    faults::disarm();
    assert_eq!(report.epochs_run, 8, "a failing save never stops training");
    let error = report.checkpoint_error.expect("save failure reported");
    assert!(error.contains("train.checkpoint torn"), "error: {error}");
    assert_eq!(bits(&torn), bits(&clean), "training itself was untouched");

    // The checkpoint on disk is the last *good* save (epoch 3): resuming
    // replays epochs 3..8 to the same bit-exact parameters.
    let mut resumed = fresh();
    let report = icnet::train(&mut resumed, &op, &xs, &ys, &checkpointed);
    assert_eq!(report.epochs_run, 8);
    assert_eq!(report.checkpoint_error, None);
    assert_eq!(
        report.loss_history[3..],
        clean_report.loss_history[3..],
        "resume picked up at the torn boundary"
    );
    assert_eq!(bits(&resumed), bits(&clean), "bit-identical after the tear");
}

/// obs.trace.write × torn → the trace flush stops mid-stream and the
/// failure is reported in the summary, never silently swallowed.
#[test]
fn torn_trace_write_surfaces_in_the_summary() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("torn_trace");

    let _cleanup = Disarm;
    faults::arm_str("obs.trace.write:torn@o0", None).unwrap();
    obs::init(obs::ObsConfig {
        trace: Some(format!("{dir}/trace.jsonl")),
        progress: false,
    });
    for i in 0..10u64 {
        obs::emit(obs::EventKind::TrainCheckpointSaved { epoch: i });
    }
    let summary = obs::finish().expect("sink was initialised");
    let error = summary.trace_error.expect("torn write reported");
    assert!(
        error.contains("injected fault: obs.trace.write"),
        "error: {error}"
    );
}

/// Fired faults surface as `fault.injected` obs events when armed with the
/// binaries' observer, carrying the site, action, and occurrence.
#[test]
fn fired_faults_are_obs_events() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("fault_events");
    let trace = format!("{dir}/trace.jsonl");
    obs::init(obs::ObsConfig {
        trace: Some(trace.clone()),
        progress: false,
    });

    let _cleanup = Disarm;
    let observe: faults::Observer = |site, action, occurrence| {
        obs::emit(obs::EventKind::FaultInjected {
            site: site.to_owned(),
            action,
            occurrence,
        });
    };
    faults::arm_str("sat.solve:unknown@o0", Some(observe)).unwrap();
    let mut solver = sat::Solver::new();
    solver.new_var();
    solver.add_clause([sat::Lit::from_dimacs(1)]);
    assert!(
        matches!(solver.solve(), sat::SolveResult::Unknown),
        "fault fired"
    );
    faults::disarm();

    let summary = obs::finish().expect("sink was initialised");
    assert!(summary.trace_error.is_none(), "{:?}", summary.trace_error);
    let text = std::fs::read_to_string(&trace).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"fault.injected\""))
        .expect("fault.injected event in trace");
    assert!(line.contains("sat.solve"), "line: {line}");
    assert!(line.contains("unknown"), "line: {line}");
}

/// The disabled-faults equivalence half of the acceptance criteria: with a
/// plan armed that matches no site, the full generate → cache → train
/// pipeline produces byte-identical CSV and bit-identical parameters to a
/// run with the framework never armed at all.
#[test]
fn armed_but_unmatched_plan_perturbs_nothing() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = demo_config(4);
    let epochs = 5;
    let seed = 7;

    let run = || {
        let out_dir = tmp_dir("equivalence");
        let data = load_or_generate(&config, &out_dir, 2, None);
        let csv = dataset_to_csv(&data.instances);
        let split = dataset::train_test_split(data.instances.len(), 0.25, seed);
        let (_, trained) = bench::harness::evaluate_gnn(
            &data,
            &split,
            icnet::ModelKind::ICNet,
            icnet::Aggregation::Nn,
            icnet::FeatureSet::All,
            &bench::harness::train_config(epochs),
            seed,
        );
        let bits: Vec<u64> = trained
            .model
            .params()
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        (csv, bits)
    };

    let reference = run();

    let _cleanup = Disarm;
    faults::arm_str("no.such.site:panic;also.not.a.site:die@o0+", None).unwrap();
    let armed = run();
    assert!(faults::fired().is_empty(), "nothing may fire");
    assert_eq!(armed.0, reference.0, "dataset CSV must be byte-identical");
    assert_eq!(armed.1, reference.1, "parameters must be bit-identical");
}
