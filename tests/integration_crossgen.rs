//! Cross-scheme study guarantees, end to end: Anti-SAT locking resists the
//! SAT attack measurably harder than the point-substitution schemes at an
//! equal key-bit budget, its sweeps are bit-identical for every worker
//! count, and the scheme-aware checkpoint fingerprints behave in *both*
//! directions — a raised deadline re-attacks resistant quarantines, while a
//! changed scheme parameter never reuses a stale label.

use dataset::{generate_parallel_with, CheckpointLog, DatasetConfig};
use obfuscate::SchemeKind;
use std::path::PathBuf;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("icnet_integration_crossgen");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A small c432 sweep of `scheme` with every instance locking exactly
/// `gates` gates (a fixed key-bit budget, not a range).
fn sweep(scheme: SchemeKind, gates: usize, instances: usize) -> DatasetConfig {
    let mut config = DatasetConfig::quick_demo();
    config.scheme = scheme;
    config.key_range = (gates, gates);
    config.num_instances = instances;
    config.seed = 11;
    config
}

/// The reference sweep: one worker, no checkpoint.
fn serial(config: &DatasetConfig) -> dataset::Dataset {
    generate_parallel_with(config, 1, None).unwrap().0
}

fn median_iterations(instances: &[dataset::Instance]) -> f64 {
    let mut iters: Vec<usize> = instances.iter().map(|i| i.iterations).collect();
    iters.sort_unstable();
    let mid = iters.len() / 2;
    if iters.len() % 2 == 1 {
        iters[mid] as f64
    } else {
        (iters[mid - 1] + iters[mid]) as f64 / 2.0
    }
}

/// The study's headline claim, reproduced as a test: at an equal total
/// key-bit budget (8 bits per instance), the median DIP count of Anti-SAT
/// sits strictly above every point-substitution baseline, because a wrong
/// disagreeing-halves key is distinguished by only one tap pattern.
#[test]
fn anti_sat_needs_more_dips_than_baselines_at_equal_key_bits() {
    let n = 9;
    // 8 key bits each: 8 XOR gates, 8 MUX gates, 2 LUT-2 gates, 1 w=4 block.
    let antisat = serial(&sweep(SchemeKind::AntiSat { key_width: 4 }, 1, n));
    let xor = serial(&sweep(SchemeKind::XorLock, 8, n));
    let mux = serial(&sweep(SchemeKind::MuxLock, 8, n));
    let lut = serial(&sweep(SchemeKind::LutLock { lut_size: 2 }, 2, n));

    let resistant = median_iterations(&antisat.instances);
    for (label, baseline) in [("xor", &xor), ("mux", &mux), ("lut2", &lut)] {
        let med = median_iterations(&baseline.instances);
        assert!(
            resistant > med,
            "antisat median DIPs {resistant} must exceed {label}'s {med}"
        );
    }
    // The wrong-key space has 2^(2w) - 2^w disagreeing-halves keys, each
    // eliminated by a single tap pattern: the DIP count scales with 2^w.
    assert!(
        resistant >= 8.0,
        "a w=4 block must cost at least ~2^(w-1) DIPs, got {resistant}"
    );
}

/// Anti-SAT sweeps keep the pipeline's bit-identity guarantee: every worker
/// count produces the same labels as the serial reference.
#[test]
fn anti_sat_generation_is_bit_identical_across_worker_counts() {
    let config = sweep(SchemeKind::AntiSat { key_width: 3 }, 2, 6);
    let reference = serial(&config);
    for jobs in [2, 3, 5] {
        let (parallel, report) = generate_parallel_with(&config, jobs, None).unwrap();
        assert_eq!(report.quarantined(), 0);
        assert_eq!(
            reference.instances, parallel.instances,
            "jobs={jobs} must be bit-identical to the 1-worker sweep"
        );
    }
}

/// Direction one of the supervision fingerprint: quarantines recorded under
/// a hopeless deadline must be re-attacked when the deadline is raised on
/// the same resume log — a verdict reached under tighter supervision is
/// never replayed as if it still applied.
#[test]
fn raised_deadline_reattacks_anti_sat_quarantines() {
    let mut config = sweep(SchemeKind::AntiSat { key_width: 4 }, 1, 4);
    config.max_attempts = 1;
    config.attack.deadline = Some(Duration::ZERO);
    let path = tmp("raised_deadline.ckpt");

    let mut log = CheckpointLog::open(&path).unwrap();
    let (data, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert!(data.instances.is_empty(), "zero deadline quarantines all");
    assert_eq!(report.quarantined(), 4);
    drop(log);

    config.attack.deadline = Some(Duration::from_secs(600));
    let mut log = CheckpointLog::open(&path).unwrap();
    let (data, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.quarantined(), 0, "no stale quarantine replayed");
    assert_eq!(report.attacked(), 4, "every instance re-attacked");
    assert_eq!(data.instances.len(), 4);

    // The recovered labels match a deadline-free sweep bit for bit.
    let mut clean = config.clone();
    clean.attack.deadline = None;
    assert_eq!(data.instances, serial(&clean).instances);
}

/// Direction two: changing a scheme *parameter* (here the Anti-SAT key
/// width) re-fingerprints both checkpoint keys, so a resume under the new
/// parameters reuses nothing — labels attacked under w=3 must never leak
/// into a w=4 sweep that shares the log file.
#[test]
fn changed_scheme_parameters_never_reuse_stale_labels() {
    let config = sweep(SchemeKind::AntiSat { key_width: 3 }, 1, 5);
    let path = tmp("scheme_params.ckpt");

    let mut log = CheckpointLog::open(&path).unwrap();
    let (first, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), 5);
    assert_eq!(log.len(), 5);
    drop(log);

    // Identical config on the same log: everything is reused.
    let mut log = CheckpointLog::open(&path).unwrap();
    let (second, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), 0, "identical config resumes for free");
    assert_eq!(report.reused(), 5);
    assert_eq!(first, second);
    drop(log);

    // Same scheme family, different parameter: every instance re-attacks.
    let mut wider = config.clone();
    wider.scheme = SchemeKind::AntiSat { key_width: 4 };
    let mut log = CheckpointLog::open(&path).unwrap();
    let (widened, report) = generate_parallel_with(&wider, 2, Some(&mut log)).unwrap();
    assert_eq!(report.reused(), 0, "w=3 labels must not leak into w=4");
    assert_eq!(report.attacked(), 5);
    assert_ne!(
        first.instances, widened.instances,
        "wider blocks change the labels themselves"
    );

    // And the original width still resumes from its own records.
    let mut log = CheckpointLog::open(&path).unwrap();
    let (third, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), 0, "w=3 records survived the w=4 sweep");
    assert_eq!(first, third);
}
