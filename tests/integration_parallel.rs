//! Parallel generation and checkpointing, end to end: worker-count
//! invariance, interrupted-sweep resume, and the parallel speedup the
//! pipeline exists for.

use dataset::{generate_parallel_with, CheckpointLog, DatasetConfig};
use std::path::PathBuf;
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("icnet_integration_parallel");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn quick_demo_is_worker_count_invariant() {
    let config = DatasetConfig::quick_demo();
    let serial = generate_parallel_with(&config, 1, None)
        .expect("serial sweep")
        .0;
    for jobs in [1, 2, 4] {
        let parallel = generate_parallel_with(&config, jobs, None)
            .expect("parallel sweep")
            .0;
        assert_eq!(
            serial, parallel,
            "dataset must be byte-identical with {jobs} workers"
        );
    }
}

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_result() {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 8;
    let n = config.num_instances;
    let k = 3; // records surviving the simulated crash

    let uninterrupted = generate_parallel_with(&config, 1, None)
        .expect("reference sweep")
        .0;

    // First run records all n instances...
    let path = tmp("resume.ckpt");
    let mut log = CheckpointLog::open(&path).unwrap();
    let (_, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), n);
    drop(log);

    // ...then the "crash": keep the header and the first k records only.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(1 + k).collect();
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();

    // Resume re-attacks exactly the n - k missing instances, and the final
    // dataset equals the uninterrupted run.
    let mut log = CheckpointLog::open(&path).unwrap();
    assert_eq!(log.len(), k);
    let (resumed, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.reused(), k);
    assert_eq!(report.attacked(), n - k);
    assert_eq!(resumed, uninterrupted);
    assert_eq!(log.len(), n, "resume completes the log");
}

#[test]
fn checkpointed_and_plain_runs_agree() {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 6;
    let path = tmp("plain_vs_ckpt.ckpt");
    let mut log = CheckpointLog::open(&path).unwrap();
    let (with_log, _) = generate_parallel_with(&config, 3, Some(&mut log)).unwrap();
    let (without_log, _) = generate_parallel_with(&config, 3, None).unwrap();
    assert_eq!(with_log, without_log);
}

#[test]
fn four_workers_beat_serial_on_a_quick_demo_scale_sweep() {
    // Enough instances that no single attack dominates the schedule; the
    // acceptance bar is 2x, asserted against the *serial parallel* path so
    // both sides pay identical per-instance costs. The wall-clock assertion
    // only applies where the hardware can express it — on fewer than four
    // cores the run still verifies byte-identity, because a speedup measured
    // against a physically impossible bar is noise, not signal.
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 24;
    config.key_range = (1, 10);

    let warm = generate_parallel_with(&config, 1, None).expect("warmup").0; // prime allocator/caches
    let start = Instant::now();
    let serial = generate_parallel_with(&config, 1, None)
        .expect("serial sweep")
        .0;
    let serial_time = start.elapsed();
    assert_eq!(warm, serial);

    let start = Instant::now();
    let parallel = generate_parallel_with(&config, 4, None)
        .expect("parallel sweep")
        .0;
    let parallel_time = start.elapsed();

    assert_eq!(serial, parallel);
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 workers must be at least 2x faster on {cores} cores (serial \
             {serial_time:.2?}, parallel {parallel_time:.2?}, speedup {speedup:.2}x)"
        );
    } else {
        eprintln!(
            "# speedup assertion skipped: {cores} core(s) available \
             (measured {speedup:.2}x; serial {serial_time:.2?}, parallel {parallel_time:.2?})"
        );
    }
}
