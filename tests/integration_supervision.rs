//! Supervised sweeps, end to end: a deliberately panicking oracle and a
//! deliberately timing-out instance in one multi-worker sweep must cost
//! exactly their own labels — every healthy instance completes, both
//! failures land as typed quarantine records in the sweep report (and the
//! checkpoint log), the process exits cleanly, and a resumed sweep skips
//! exactly the quarantined instances.

use dataset::{generate_parallel_with, CheckpointLog, DatasetConfig, FailureKind};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const PANICKY: usize = 2;
const SLUGGISH: usize = 5;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("icnet_integration_supervision");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// An 8-instance sweep where instance [`PANICKY`] panics on every attempt
/// and instance [`SLUGGISH`] exceeds a wall-clock deadline on every attempt
/// (through the real deadline code path — the hook only shrinks the
/// deadline to zero before delegating to the genuine attack).
fn faulty_config() -> DatasetConfig {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 8;
    config.max_attempts = 2;
    config.attack_hook = Some(Arc::new(|index, locked, cfg| match index {
        PANICKY => panic!("injected oracle explosion at instance {index}"),
        SLUGGISH => {
            let mut hobbled = cfg.clone();
            hobbled.deadline = Some(Duration::ZERO);
            attack::attack_locked(locked, &hobbled)
        }
        _ => attack::attack_locked(locked, cfg),
    }));
    config
}

/// The labels the healthy instances of [`faulty_config`] must produce:
/// the clean serial sweep minus the two sick indices.
fn healthy_subset() -> Vec<dataset::Instance> {
    let mut clean = faulty_config();
    clean.attack_hook = None;
    let baseline = generate_parallel_with(&clean, 1, None)
        .expect("clean sweep")
        .0;
    baseline
        .instances
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != PANICKY && *i != SLUGGISH)
        .map(|(_, inst)| inst)
        .collect()
}

#[test]
fn sick_instances_cost_their_own_labels_for_every_worker_count() {
    let config = faulty_config();
    let expected = healthy_subset();
    for jobs in [1, 2, 4] {
        let (data, report) =
            generate_parallel_with(&config, jobs, None).expect("sweep with quarantines completes");
        assert_eq!(
            data.instances, expected,
            "healthy labels byte-identical to the clean sweep (jobs={jobs})"
        );
        assert_eq!(report.quarantined(), 2, "jobs={jobs}");
        let kinds: Vec<(usize, FailureKind)> = report
            .failures
            .iter()
            .map(|f| (f.index, f.failure.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (PANICKY, FailureKind::Panic),
                (SLUGGISH, FailureKind::Timeout)
            ],
            "jobs={jobs}"
        );
        assert!(report.failures.iter().all(|f| f.failure.attempts == 2));
        assert!(report
            .summary()
            .contains(&format!("quarantined instance {PANICKY}")));
    }
}

#[test]
fn resume_skips_exactly_the_quarantined_instances() {
    let config = faulty_config();
    let path = tmp("quarantine_resume.ckpt");

    let mut log = CheckpointLog::open(&path).unwrap();
    let (first, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), 6);
    assert_eq!(report.quarantined(), 2);
    assert_eq!(log.len(), 6, "six labels on record");
    assert_eq!(log.num_quarantined(), 2, "two quarantines on record");
    drop(log);

    // The replay must not re-attack anything: labels are reused from the
    // log, quarantines are replayed from the log (the hook would panic
    // again if the sick instances re-ran — reaching the hook at all would
    // burn wall-clock on the sluggish one, and the panicky one is cheap
    // but must still be skipped by record, which `reused` proves).
    let mut log = CheckpointLog::open(&path).unwrap();
    let (second, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.attacked(), 0, "nothing re-attacked on resume");
    assert_eq!(report.reused(), 6);
    assert_eq!(report.quarantined(), 2);
    assert!(
        report.failures.iter().all(|f| f.reused),
        "both quarantines replayed from the checkpoint log"
    );
    assert_eq!(first, second, "resumed dataset is byte-identical");
}

#[test]
fn raising_the_deadline_reattacks_quarantined_instances_on_resume() {
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 4;
    config.max_attempts = 1;
    config.attack.deadline = Some(Duration::ZERO); // everything times out
    let path = tmp("raised_deadline.ckpt");

    let mut log = CheckpointLog::open(&path).unwrap();
    let (data, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert!(data.instances.is_empty());
    assert_eq!(report.quarantined(), 4);
    assert_eq!(log.num_quarantined(), 4);
    drop(log);

    // Same --resume log, generous deadline: the quarantine verdicts were
    // reached under a tighter supervision policy and must not be trusted —
    // every instance deserves another attack.
    config.attack.deadline = Some(Duration::from_secs(600));
    let mut log = CheckpointLog::open(&path).unwrap();
    let (data, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
    assert_eq!(report.quarantined(), 0, "no stale quarantine replayed");
    assert_eq!(report.attacked(), 4, "every instance re-attacked");
    assert_eq!(data.instances.len(), 4);

    // The recovered labels are byte-identical to a deadline-free sweep:
    // deadlines decide whether an attack finishes, never what label a
    // finished attack gets.
    let mut clean = config.clone();
    clean.attack.deadline = None;
    assert_eq!(
        data.instances,
        generate_parallel_with(&clean, 1, None).unwrap().0.instances
    );
}

/// Conflict-free instances (pure equivalence chains) generate zero
/// conflicts, so the solver's conflict-cadence clock read never fires; the
/// arena-core rewrite must keep polling on the propagation axis (the PR 4
/// fix) or a supervised sweep would hang on such instances. The same poll
/// sees the cancel token, raised before the solve or from another thread
/// while it runs.
#[test]
fn conflict_free_solves_still_hit_the_deadline_on_the_propagation_axis() {
    use budget::{CancelToken, Limits, Stop};
    use sat::{Lit, SolveResult, Solver};

    // 600 chains of 400 equivalences: ~240k propagations per decision
    // cascade, no conflicts ever, and the all-false model is consistent.
    let chains = 600usize;
    let len = 400usize;
    let build = || {
        let mut solver = Solver::new();
        solver.new_vars(chains * len);
        for c in 0..chains {
            for i in 0..len - 1 {
                let a = Lit::from_dimacs((c * len + i + 1) as i64);
                let b = Lit::from_dimacs((c * len + i + 2) as i64);
                solver.add_clause([!a, b]);
                solver.add_clause([a, !b]);
            }
        }
        solver
    };
    let pre_cancelled = CancelToken::new();
    pre_cancelled.cancel();
    let cases = [
        (
            Limits::default().with_deadline(Duration::from_millis(5)),
            Stop::Deadline,
        ),
        (
            Limits::default().with_cancel(pre_cancelled),
            Stop::Cancelled,
        ),
    ];
    for (limits, expected) in cases {
        let mut solver = build();
        let start = std::time::Instant::now();
        solver.set_limits(limits, start);
        let verdict = solver.solve();
        let elapsed = start.elapsed();
        assert_eq!(solver.stats().conflicts, 0, "chains never conflict");
        // The only way to stop a conflict-free solve is the
        // propagation-axis poll; a generous wall-clock bound keeps this
        // robust under parallel test load while still catching an unbounded
        // overshoot (the full solve takes far longer than this in debug
        // builds).
        assert_eq!(
            verdict,
            SolveResult::Unknown,
            "{} must stop the solve",
            expected.describe()
        );
        assert_eq!(solver.stop(), Some(expected));
        if expected == Stop::Deadline {
            // The deadline is still open at the entry poll, so what stops
            // the solve is the propagation axis, after real work.
            assert!(
                solver.stats().propagations > 0,
                "the 5ms deadline was caught at the entry poll"
            );
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "overshoot: a 5ms deadline took {elapsed:?}"
        );
        // The solver survives the stop and stays usable.
        solver.set_limits(Limits::default(), start);
        assert!(matches!(solver.solve(), SolveResult::Sat(_)));
    }

    // A token raised from another thread must stop the solve inside its
    // search. Nothing signals when the search has begun (past its entry
    // poll a solve fills its decision heap, ~20 ms for these 240k variables
    // in a debug build), so the raise is retimed until it lands there: a
    // raise the entry poll sees doubles the wait, a solve that finishes
    // first halves it.
    let mut wait = Duration::from_millis(5);
    for attempt in 1.. {
        assert!(attempt <= 16, "no raise landed inside the search");
        let mut solver = build();
        let mid_solve = CancelToken::new();
        let start = std::time::Instant::now();
        solver.set_limits(Limits::default().with_cancel(mid_solve.clone()), start);
        let verdict = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(wait);
                mid_solve.cancel();
            });
            solver.solve()
        });
        match verdict {
            SolveResult::Unknown if solver.stats().propagations == 0 => wait *= 2,
            SolveResult::Unknown => {
                assert_eq!(solver.stop(), Some(Stop::Cancelled));
                assert_eq!(solver.stats().conflicts, 0, "chains never conflict");
                solver.set_limits(Limits::default(), start);
                assert!(matches!(solver.solve(), SolveResult::Sat(_)));
                break;
            }
            _ => wait /= 2,
        }
    }
}

#[test]
fn deadline_quarantines_are_not_censored_labels() {
    // A wall-clock timeout must never be labeled (its partial runtime is
    // machine-dependent); a deterministic budget exhaustion must still be.
    let mut config = DatasetConfig::quick_demo();
    config.num_instances = 4;
    config.max_attempts = 1;
    config.attack.work_budget = Some(1); // everything budget-exhausts
    let (data, report) = generate_parallel_with(&config, 2, None).unwrap();
    assert_eq!(report.quarantined(), 0);
    assert_eq!(data.instances.len(), 4);
    assert!(data.instances.iter().all(|i| i.censored));

    config.attack.work_budget = None;
    config.attack.deadline = Some(Duration::ZERO); // everything times out
    let (data, report) = generate_parallel_with(&config, 2, None).unwrap();
    assert_eq!(report.quarantined(), 4);
    assert!(data.instances.is_empty());
    assert!(report
        .failures
        .iter()
        .all(|f| f.failure.kind == FailureKind::Timeout));
}
