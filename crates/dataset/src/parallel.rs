//! The dataset sweep: the one path that turns locked instances into
//! labels, with deterministic replay and graceful degradation.
//!
//! The sweep fans instances over a scoped worker pool built from
//! `std::thread::scope` and an atomic work index — no thread-pool crate,
//! because each instance already owns an independent RNG seed
//! ([`crate::instance_seed`]), so a shared counter is all the scheduling
//! the problem needs. Instance `i` is a pure function of `(config, i)` and
//! results land in slot `i`, which makes the output **byte-identical for
//! every worker count** — scheduling order, worker count, and checkpoint
//! reuse cannot leak into the dataset. One worker is the serial sweep.
//!
//! Every attack runs under the per-instance supervisor
//! ([`crate::supervise`]): panics are isolated, wall-clock timeouts
//! and panics are retried with escalating deadlines (deterministic budgets
//! stay fixed so retries cannot change a label), and an instance that
//! exhausts its retries is *quarantined*. With
//! [`DatasetConfig::keep_going`] set (the default), the sweep records the
//! typed failure — in the [`CheckpointLog`] when one is attached, and in
//! the [`SweepReport`] always — and moves on, so one sick instance costs
//! its own label, not the sweep. With `keep_going` off, the first
//! quarantine aborts the sweep as [`DatasetError::Quarantined`], and the
//! shared [`budget::CancelToken`] stops the other workers' attacks at
//! their next stop poll. A resumed sweep skips both completed *and*
//! quarantined instances already on record.

use crate::checkpoint::{instance_key, supervision_key, CheckpointLog};
use crate::error::DatasetError;
use crate::generate::{label_instance, lock_instance, sweep_circuit, Dataset, DatasetConfig};
use crate::instance::Instance;
use crate::supervise::{supervise_attack, InstanceFailure, Supervised};
use budget::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one worker did during a sweep.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Instances this worker completed (attacked or reused).
    pub instances: usize,
    /// Of those, how many were reused from the checkpoint log.
    pub reused: usize,
    /// Instances this worker quarantined (fresh failures or failures
    /// reused from the checkpoint log).
    pub failed: usize,
    /// Deterministic solver work this worker expended.
    pub work: u64,
    /// Wall-clock time this worker spent on instances (not idle).
    pub busy: Duration,
}

/// One quarantined instance of a sweep, as reported in [`SweepReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Index of the quarantined instance within the sweep.
    pub index: usize,
    /// The typed failure that exhausted the retry policy.
    pub failure: InstanceFailure,
    /// True when the quarantine was replayed from the checkpoint log
    /// instead of diagnosed by this run.
    pub reused: bool,
}

/// Per-worker counters, quarantine records, and totals for one parallel
/// sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// One entry per worker, in worker-id order.
    pub workers: Vec<WorkerStats>,
    /// Every instance quarantined this sweep, sorted by instance index.
    pub failures: Vec<SweepFailure>,
    /// Wall-clock duration of the whole sweep.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Instances reused from the checkpoint log instead of re-attacked.
    pub fn reused(&self) -> usize {
        self.workers.iter().map(|w| w.reused).sum()
    }

    /// Instances whose attack actually ran and produced a label.
    pub fn attacked(&self) -> usize {
        let done: usize = self.workers.iter().map(|w| w.instances).sum();
        done - self.reused()
    }

    /// Instances quarantined (fresh or replayed from the log).
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }

    /// Renders the per-worker table printed at sweep end, followed by one
    /// line per quarantined instance when there are any.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# sweep: {} attacked, {} reused, {} quarantined, {:.2?} wall",
            self.attacked(),
            self.reused(),
            self.quarantined(),
            self.elapsed
        );
        for (id, w) in self.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "#   worker {id}: {} instances ({} reused, {} quarantined), work {}, busy {:.2?}",
                w.instances, w.reused, w.failed, w.work, w.busy
            );
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "#   quarantined instance {}: {}{}",
                f.index,
                f.failure,
                if f.reused { " [from checkpoint]" } else { "" }
            );
        }
        out
    }
}

/// Generates the sweep described by `config` on `jobs` worker threads,
/// optionally resuming from / recording to a [`CheckpointLog`], and returns
/// the dataset with its per-worker [`SweepReport`].
///
/// The dataset is byte-identical for every `jobs` value — see the module
/// docs for why worker count cannot affect the result. When
/// [`DatasetConfig::keep_going`] is set and instances quarantine, the
/// dataset holds the labels of the healthy instances only; the report
/// lists the quarantined ones.
///
/// Each finished attack is appended to the log before its result is
/// published, so an interrupted sweep loses at most `jobs` in-flight
/// attacks. On resume, instances whose content hash is already on record
/// skip their attack entirely — completed instances are reused as labels,
/// quarantined instances are skipped and re-reported in the
/// [`SweepReport`].
///
/// # Errors
///
/// Returns [`DatasetError::UnknownProfile`] for a bad profile name,
/// [`DatasetError::BadKeyRange`] when the sweep asks for more locked gates
/// than the circuit can supply, [`DatasetError::Obfuscate`] when locking
/// fails, [`DatasetError::Io`] when a checkpoint append fails,
/// [`DatasetError::Quarantined`] when an instance exhausts its retry policy
/// and `config.keep_going` is off, [`DatasetError::Interrupted`] when the
/// cancel token in `config.attack` fires, and [`DatasetError::WorkerLoss`]
/// when every worker died with instances left. The first worker error wins
/// and the remaining attacks are cancelled.
pub fn generate_parallel_with(
    config: &DatasetConfig,
    jobs: usize,
    checkpoint: Option<&mut CheckpointLog>,
) -> Result<(Dataset, SweepReport), DatasetError> {
    let jobs = jobs.max(1);
    let circuit = sweep_circuit(config)?;
    let n = config.num_instances;
    let started = Instant::now();

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Instance>>> = Mutex::new(vec![None; n]);
    let failures: Mutex<Vec<SweepFailure>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<DatasetError>> = Mutex::new(None);
    // The internal worker token is a *child* of the caller's token in the
    // attack limits (when one is set): an operator interrupt stops the
    // workers, but a worker aborting the sweep on an internal error never
    // trips the operator-level token other subsystems share.
    let cancel = config
        .attack
        .cancel
        .as_ref()
        .map(CancelToken::child)
        .unwrap_or_default();
    // The first worker error wins and stops every other worker's attack.
    let abort = |error: DatasetError| {
        first_error.lock().unwrap().get_or_insert(error);
        cancel.cancel();
    };
    let log = checkpoint.map(Mutex::new);
    // Quarantine records are only trusted across runs with the same
    // deadlines and retry policy (see `checkpoint::supervision_key`).
    let supervision = supervision_key(config);
    // A quarantine is fatal exactly when the operator opted out of
    // keep-going; everything routes through here so the policy lives in
    // one place.
    let quarantine = |index: usize,
                      failure: InstanceFailure,
                      reused: bool,
                      persist: bool|
     -> Result<(), DatasetError> {
        if !config.keep_going {
            return Err(DatasetError::Quarantined {
                instance: index,
                circuit: config.profile.clone(),
                failure,
            });
        }
        if !reused && persist {
            if let Some(log) = &log {
                let locked = lock_instance(config, &circuit, index)?;
                let key = instance_key(config, &locked);
                log.lock()
                    .unwrap()
                    .record_failure(key, index, supervision, &failure)?;
            }
        }
        obs::emit(obs::EventKind::InstanceQuarantined {
            index: index as u64,
            failure: failure.kind.tag(),
            attempts: failure.attempts as u64,
            reused,
        });
        failures.lock().unwrap().push(SweepFailure {
            index,
            failure,
            reused,
        });
        Ok(())
    };

    let worker = |wid: usize| -> WorkerStats {
        let mut stats = WorkerStats::default();
        // Workers attack under a config that carries the shared cancel
        // token, so a fatal failure stops the others mid-attack.
        let mut cfg = config.clone();
        cfg.attack = cfg.attack.clone().with_cancel(cancel.clone());
        loop {
            if cancel.is_cancelled() {
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let begun = Instant::now();
            obs::emit(obs::EventKind::InstanceStarted {
                index: index as u64,
                worker: wid as u64,
            });
            // Attach the instance index to every event (solver snapshots,
            // attack iterations, retries) emitted while working on it, and
            // as the fault-injection context so plans can target one
            // instance deterministically regardless of worker scheduling.
            let _ctx = obs::context(index as u64);
            let _fault_ctx = faults::context(index as u64);
            if let Some(fault) = faults::inject("dataset.worker") {
                match fault.action {
                    faults::Action::Die => {
                        // The worker dies with this instance in flight: the
                        // instance is quarantined (reported, but *not*
                        // persisted — a dead worker is no verdict on the
                        // instance, so a resumed sweep re-attacks it), and
                        // the worker exits its loop for good. Survivors
                        // pick up the remaining work.
                        let failure = InstanceFailure {
                            kind: crate::supervise::FailureKind::Death,
                            attempts: 1,
                            message: format!(
                                "fault site dataset.worker killed worker {wid} \
                                 while attacking instance {index}"
                            ),
                            iterations: 0,
                            work: 0,
                        };
                        match quarantine(index, failure, false, false) {
                            Ok(()) => stats.failed += 1,
                            Err(e) => abort(e),
                        }
                        stats.busy += begun.elapsed();
                        break;
                    }
                    _ => fault.unsupported("dataset.worker"),
                }
            }
            // Ok(None) = instance quarantined under keep-going; the sweep
            // continues without a label for it.
            let outcome: Result<Option<(Instance, bool)>, DatasetError> = (|| {
                let locked = lock_instance(config, &circuit, index)?;
                let key = log.as_ref().map(|_| instance_key(config, &locked));
                if let (Some(log), Some(key)) = (&log, key) {
                    let log = log.lock().unwrap();
                    if let Some(done) = log.lookup(key) {
                        return Ok(Some((done.clone(), true)));
                    }
                    if let Some(known_bad) = log.lookup_failure(key, supervision) {
                        let failure = known_bad.clone();
                        drop(log);
                        quarantine(index, failure, true, true)?;
                        return Ok(None);
                    }
                }
                match supervise_attack(config, &locked, index, &cfg.attack) {
                    Supervised::Done(result) => {
                        obs::emit(obs::EventKind::MemHighwater {
                            scope: "attack",
                            bytes: result.peak_logical_bytes,
                        });
                        let instance = label_instance(config, &locked, &result);
                        if let (Some(log), Some(key)) = (&log, key) {
                            log.lock().unwrap().record(key, index, &instance)?;
                        }
                        Ok(Some((instance, false)))
                    }
                    Supervised::Failed(failure) => {
                        quarantine(index, failure, false, true)?;
                        Ok(None)
                    }
                    Supervised::Cancelled => {
                        // Another worker's error or an external cancel:
                        // shutdown, nothing to report here.
                        Ok(None)
                    }
                }
            })();
            match outcome {
                Ok(Some((instance, reused))) => {
                    stats.instances += 1;
                    if reused {
                        stats.reused += 1;
                    } else {
                        stats.work += instance.work;
                    }
                    stats.busy += begun.elapsed();
                    obs::emit(obs::EventKind::InstanceFinished {
                        index: index as u64,
                        worker: wid as u64,
                        reused,
                        wall_ns: begun.elapsed().as_nanos() as u64,
                        work: instance.work,
                    });
                    slots.lock().unwrap()[index] = Some(instance);
                }
                Ok(None) => {
                    if cancel.is_cancelled() {
                        stats.busy += begun.elapsed();
                        break;
                    }
                    stats.failed += 1;
                    stats.busy += begun.elapsed();
                }
                Err(e) => {
                    abort(e);
                    stats.busy += begun.elapsed();
                    break;
                }
            }
        }
        stats
    };

    let workers: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|wid| scope.spawn(move || worker(wid)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    if let Some(error) = first_error.into_inner().unwrap() {
        return Err(error);
    }
    if config.attack.is_cancelled() {
        // Operator interrupt: every finished instance is already in the
        // checkpoint log (when one is attached); rerunning resumes there.
        return Err(DatasetError::Interrupted);
    }
    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|f| f.index);
    let quarantined: std::collections::HashSet<usize> = failures.iter().map(|f| f.index).collect();
    let slots = slots.into_inner().unwrap();
    // With no error and no interrupt, every slot must be labeled or
    // quarantined — unless workers died (injected death) with work left.
    let unprocessed = slots
        .iter()
        .enumerate()
        .filter(|(index, slot)| slot.is_none() && !quarantined.contains(index))
        .count();
    if unprocessed > 0 {
        return Err(DatasetError::WorkerLoss { unprocessed });
    }
    let instances: Vec<Instance> = slots.into_iter().flatten().collect();
    let report = SweepReport {
        workers,
        failures,
        elapsed: started.elapsed(),
    };
    Ok((Dataset { circuit, instances }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::RetryPolicy;
    use attack::AttackError;
    use std::sync::Arc;

    fn small_config() -> DatasetConfig {
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 6;
        config
    }

    /// The serial sweep: one worker, no checkpoint.
    fn serial(config: &DatasetConfig) -> Dataset {
        generate_parallel_with(config, 1, None).unwrap().0
    }

    #[test]
    fn parallel_matches_serial_for_every_worker_count() {
        let config = small_config();
        let reference = serial(&config);
        for jobs in [1, 2, 4] {
            let (parallel, _) = generate_parallel_with(&config, jobs, None).unwrap();
            assert_eq!(reference, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_degrades_to_one_worker() {
        let config = small_config();
        let (data, report) = generate_parallel_with(&config, 0, None).unwrap();
        assert_eq!(data.instances.len(), 6);
        assert_eq!(report.workers.len(), 1);
    }

    #[test]
    fn report_accounts_for_every_instance() {
        let config = small_config();
        let (data, report) = generate_parallel_with(&config, 3, None).unwrap();
        let done: usize = report.workers.iter().map(|w| w.instances).sum();
        assert_eq!(done, data.instances.len());
        assert_eq!(report.reused(), 0);
        assert_eq!(report.attacked(), 6);
        assert_eq!(report.quarantined(), 0);
        let total_work: u64 = report.workers.iter().map(|w| w.work).sum();
        let label_work: u64 = data.instances.iter().map(|i| i.work).sum();
        assert_eq!(total_work, label_work);
        assert!(report.summary().contains("worker 0"));
    }

    #[test]
    fn a_cancelled_attack_token_interrupts_the_sweep() {
        let token = CancelToken::new();
        token.cancel();
        let mut config = small_config();
        config.attack = config.attack.clone().with_cancel(token);
        for jobs in [1, 2] {
            assert!(
                matches!(
                    generate_parallel_with(&config, jobs, None),
                    Err(DatasetError::Interrupted)
                ),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn config_errors_surface_from_the_pool() {
        let mut config = small_config();
        config.profile = "c9999".into();
        assert!(matches!(
            generate_parallel_with(&config, 2, None),
            Err(DatasetError::UnknownProfile(_))
        ));
    }

    #[test]
    fn checkpointed_run_resumes_without_reattacking() {
        let config = small_config();
        let dir = std::env::temp_dir().join("icnet_parallel_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume_unit.ckpt");
        let _ = std::fs::remove_file(&path);

        let mut log = CheckpointLog::open(&path).unwrap();
        let (first, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
        assert_eq!(report.reused(), 0);
        assert_eq!(log.len(), 6);
        drop(log);

        let mut log = CheckpointLog::open(&path).unwrap();
        let (second, report) = generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
        assert_eq!(report.reused(), 6, "every attack skipped on resume");
        assert_eq!(report.attacked(), 0);
        assert_eq!(first, second);
    }

    #[test]
    fn keep_going_quarantines_a_panicking_instance() {
        let mut config = small_config();
        config.retry = RetryPolicy {
            max_attempts: 2,
            escalation: 2,
        };
        config.attack_hook = Some(Arc::new(|index, locked, cfg| {
            if index == 2 {
                panic!("injected fault at instance 2");
            }
            attack::attack_locked(locked, cfg)
        }));
        for jobs in [1, 3] {
            let (data, report) = generate_parallel_with(&config, jobs, None).unwrap();
            assert_eq!(data.instances.len(), 5, "only the sick instance is lost");
            assert_eq!(report.quarantined(), 1, "jobs={jobs}");
            let f = &report.failures[0];
            assert_eq!(f.index, 2);
            assert!(f.failure.message.contains("injected fault"));
            assert_eq!(f.failure.attempts, 2, "jobs={jobs}");
            assert!(report.summary().contains("quarantined instance 2"));
        }
    }

    #[test]
    fn no_keep_going_aborts_on_the_sick_instance() {
        let mut config = small_config();
        config.keep_going = false;
        config.attack_hook = Some(Arc::new(|index, locked, cfg| {
            if index == 2 {
                return Err(AttackError::OracleInconsistent);
            }
            attack::attack_locked(locked, cfg)
        }));
        match generate_parallel_with(&config, 2, None) {
            Err(DatasetError::Quarantined { instance: 2, .. }) => {}
            other => panic!("expected fatal quarantine of instance 2, got {other:?}"),
        }
    }

    /// A logical-byte budget that splits `config`'s sweep: some instances
    /// fit, some exceed. Calibrated from the unbudgeted per-instance peaks
    /// so the test tracks solver evolution instead of hardcoding bytes.
    fn splitting_budget(config: &DatasetConfig) -> u64 {
        let circuit = sweep_circuit(config).unwrap();
        let mut peaks: Vec<u64> = (0..config.num_instances)
            .map(|i| {
                let locked = lock_instance(config, &circuit, i).unwrap();
                attack::attack_locked(&locked, &config.attack)
                    .unwrap()
                    .peak_logical_bytes
            })
            .collect();
        peaks.sort_unstable();
        let (min, max) = (peaks[0], peaks[peaks.len() - 1]);
        assert!(
            min < max,
            "calibration needs peak variance to split the sweep (all peaks = {min})"
        );
        (min + max) / 2
    }

    #[test]
    fn mem_budget_quarantine_set_is_identical_for_every_worker_count() {
        let mut config = small_config();
        config.attack.mem_budget = Some(splitting_budget(&config));
        let (serial, serial_report) = generate_parallel_with(&config, 1, None).unwrap();
        let quarantined: Vec<(usize, crate::supervise::FailureKind)> = serial_report
            .failures
            .iter()
            .map(|f| (f.index, f.failure.kind))
            .collect();
        assert!(
            !quarantined.is_empty() && !serial.instances.is_empty(),
            "calibrated budget must split the sweep \
             ({} quarantined, {} labeled)",
            quarantined.len(),
            serial.instances.len()
        );
        assert!(quarantined
            .iter()
            .all(|(_, k)| *k == crate::supervise::FailureKind::MemoryExceeded));
        for jobs in [2, 4] {
            let (parallel, report) = generate_parallel_with(&config, jobs, None).unwrap();
            let par_quarantined: Vec<(usize, crate::supervise::FailureKind)> = report
                .failures
                .iter()
                .map(|f| (f.index, f.failure.kind))
                .collect();
            assert_eq!(quarantined, par_quarantined, "jobs={jobs}");
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn raised_budget_resume_reattacks_only_quarantined_instances() {
        let mut tight = small_config();
        tight.attack.mem_budget = Some(splitting_budget(&tight));
        let dir = std::env::temp_dir().join("icnet_parallel_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mem_resume_unit.ckpt");
        let _ = std::fs::remove_file(&path);

        let mut log = CheckpointLog::open(&path).unwrap();
        let (_, report) = generate_parallel_with(&tight, 2, Some(&mut log)).unwrap();
        let quarantined = report.quarantined();
        let labeled = report.attacked();
        assert!(
            quarantined > 0 && labeled > 0,
            "budget must split the sweep"
        );
        drop(log);

        // Raising the budget changes the supervision fingerprint, so the
        // quarantine verdicts are stale; completed labels keep their
        // instance keys and are reused as-is.
        let mut roomy = tight.clone();
        roomy.attack.mem_budget = None;
        let mut log = CheckpointLog::open(&path).unwrap();
        let (data, report) = generate_parallel_with(&roomy, 2, Some(&mut log)).unwrap();
        assert_eq!(report.reused(), labeled, "completed labels survive");
        assert_eq!(
            report.attacked(),
            quarantined,
            "exactly the quarantined instances are re-attacked"
        );
        assert_eq!(report.quarantined(), 0);

        // The healed dataset is byte-identical to a never-budgeted run:
        // labels that completed under the budget were never perturbed by it
        // (perturbed completions quarantine instead of labeling).
        let baseline = serial(&small_config());
        assert_eq!(data, baseline);
    }

    #[test]
    fn healthy_instances_are_identical_with_and_without_a_sick_neighbor() {
        let clean = small_config();
        let baseline = serial(&clean);
        let mut sick = clean.clone();
        sick.attack_hook = Some(Arc::new(|index, locked, cfg| {
            if index == 4 {
                panic!("sick neighbor");
            }
            attack::attack_locked(locked, cfg)
        }));
        for jobs in [1, 2, 4] {
            let (data, report) = generate_parallel_with(&sick, jobs, None).unwrap();
            assert_eq!(report.quarantined(), 1, "jobs={jobs}");
            let expected: Vec<_> = baseline
                .instances
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 4)
                .map(|(_, inst)| inst.clone())
                .collect();
            assert_eq!(data.instances, expected, "jobs={jobs}");
        }
    }
}
