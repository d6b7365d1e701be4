//! The observability sink must be observation-only: running the full
//! attack→dataset→training→harness pipeline with tracing enabled has to
//! produce a byte-identical dataset and bit-identical trained parameters,
//! while the JSONL trace captures every instrumented layer.

use bench::harness::{evaluate_gnn, load_or_generate, run_mse_suite, train_config, SuiteControl};
use bench::methods::BaselineKind;
use dataset::{dataset_to_csv, generate_parallel_with, train_test_split, DatasetConfig};
use icnet::{Aggregation, FeatureSet, ModelKind};
use std::path::PathBuf;
use std::sync::Mutex;

/// The obs sink is process-global; tests in this binary must not overlap.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("icnet_integration_observability")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every trained parameter as raw bits, for exact comparison.
fn param_bits(model: &icnet::GraphModel) -> Vec<u64> {
    model
        .params()
        .iter()
        .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn tracing_is_invisible_to_results_and_captures_every_event_family() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = DatasetConfig::quick_demo();
    let epochs = 6;
    let seed = 7;

    // Reference run with the sink disabled.
    assert!(!obs::enabled(), "sink must start disabled");
    let (reference, _) = generate_parallel_with(&config, 2, None).expect("reference sweep");
    let reference_csv = dataset_to_csv(&reference.instances);
    let split = train_test_split(reference.instances.len(), 0.25, seed);
    let (_, trained) = evaluate_gnn(
        &reference,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &train_config(epochs),
        seed,
    );
    let reference_params = param_bits(&trained.model);

    // The same pipeline with the sink collecting a trace.
    let dir = tmp_dir("trace");
    let trace_path = dir.join("trace.jsonl");
    obs::init(obs::ObsConfig {
        trace: Some(trace_path.display().to_string()),
        progress: false,
    });

    let (traced, _) = generate_parallel_with(&config, 2, None).expect("traced sweep");
    assert_eq!(
        dataset_to_csv(&traced.instances),
        reference_csv,
        "tracing must not perturb the generated dataset"
    );
    let (_, retrained) = evaluate_gnn(
        &traced,
        &split,
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All,
        &train_config(epochs),
        seed,
    );
    assert_eq!(
        param_bits(&retrained.model),
        reference_params,
        "tracing must not perturb trained parameters"
    );

    // Exercise the harness layer too, so bench.* events appear: a cache
    // miss + write, then a one-baseline suite.
    let out_dir = dir.join("out");
    let harness_data = load_or_generate(&config, out_dir.to_str().unwrap(), 2, None);
    assert_eq!(dataset_to_csv(&harness_data.instances), reference_csv);
    let results = run_mse_suite(
        &harness_data,
        &[BaselineKind::Lr],
        epochs,
        seed,
        1,
        &SuiteControl::default(),
    );
    assert!(!results.is_empty());

    let summary = obs::finish().expect("sink was initialised");
    assert!(summary.events > 0);
    assert!(summary.trace_error.is_none(), "{:?}", summary.trace_error);

    // Every line matches the declared schema (envelope, kind, payload keys
    // in order), the stream is time-ordered, and it contains events from
    // every instrumented layer of the pipeline.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let mut last_ts = 0u64;
    let mut lines = 0u64;
    let mut kinds = Vec::new();
    for line in text.lines() {
        let event = obs::check_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(event.ts >= last_ts, "timestamps must be nondecreasing");
        last_ts = event.ts;
        if !kinds.contains(&event.kind) {
            kinds.push(event.kind);
        }
        lines += 1;
    }
    assert_eq!(lines, summary.events, "trace length matches summary");
    for kind in [
        "solver.progress",
        "attack.iteration",
        "dataset.instance.start",
        "dataset.instance.finish",
        "train.epoch",
        "bench.cache",
        "bench.cell.start",
        "bench.cell.finish",
    ] {
        assert!(kinds.contains(&kind), "trace must contain {kind} events");
    }

    // The rendered profile names the pipeline stages it aggregated.
    let rendered = summary.render();
    assert!(rendered.contains("observability profile"), "{rendered}");
}

#[test]
fn finish_without_init_returns_no_summary() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(obs::finish().is_none());
}
