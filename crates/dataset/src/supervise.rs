//! Per-instance attack supervision: panic isolation, retry with deadline
//! escalation, and typed failure records.
//!
//! The labels this pipeline produces come from SAT attacks whose runtime is
//! heavy-tailed and, on SAT-hard structures, effectively unbounded — the
//! exact pathology ICNet exists to predict. A sweep that fails fast throws
//! away hours of good labels the moment one instance panics or outlives
//! every budget estimate. The supervisor turns each attack into a bounded,
//! isolated attempt sequence:
//!
//! 1. every attempt runs under [`std::panic::catch_unwind`], so a panicking
//!    oracle or solver bug cannot unwind across the sweep's thread scope;
//! 2. a retryable failure (wall-clock timeout or panic) is retried up to
//!    [`DatasetConfig::max_attempts`] times, with the wall-clock deadline
//!    doubled on each retry — transient slowness gets a second, longer
//!    chance. The *deterministic* budgets (work budget, per-solve conflict
//!    cap) are never escalated: a label must be a pure function of the
//!    instance and the configured budgets, never of which attempt happened
//!    to beat the machine-dependent clock;
//! 3. an instance that exhausts its attempts is *quarantined*: the sweep
//!    records a typed [`InstanceFailure`] (kind, attempt count, partial
//!    solver stats) and moves on, and a resumed sweep skips the known-bad
//!    instance instead of re-diverging on it.
//!
//! Deterministic budget exhaustion ([`attack::AttackOutcome::BudgetExceeded`])
//! is *not* a failure — it yields a reproducible censored label, exactly as
//! before. Only wall-clock timeouts, panics, attack errors and memory-budget
//! exhaustion quarantine. Memory exhaustion
//! ([`attack::AttackOutcome::MemoryExceeded`]) is deterministic for a given
//! budget and therefore never retried within a run; like the wall-clock
//! deadline, the budget rides in the checkpoint's supervision fingerprint,
//! so a resume under a raised budget re-attacks exactly the quarantined
//! instances while completed labels survive.

use crate::generate::DatasetConfig;
use attack::{attack_locked, AttackConfig, AttackError, AttackOutcome, AttackResult};
use obfuscate::LockedCircuit;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Pluggable attack runner, mainly for fault-injection tests: receives the
/// instance index, the locked circuit, and the (already escalated) attack
/// config. `None` in [`DatasetConfig::attack_hook`] means the real
/// [`attack::attack_locked`].
pub type AttackHook = Arc<
    dyn Fn(usize, &LockedCircuit, &AttackConfig) -> Result<AttackResult, AttackError> + Send + Sync,
>;

/// Multiplier applied to the wall-clock deadline on each retry: attempt `k`
/// runs at `ESCALATION^k` times the configured deadline.
pub(crate) const ESCALATION: u32 = 2;

/// `config` with its wall-clock deadline scaled by `ESCALATION^attempt`
/// (attempt 0 = the configured deadline).
///
/// The deterministic budgets (`work_budget`, `conflicts_per_solve`) are
/// left untouched: they define the label (a censored instance is "censored
/// at the configured budget"), so escalating them would make the label
/// depend on wall-clock timing and worker contention — whichever attempt
/// finished would have been measured under different budgets, breaking
/// byte-identity across machines, worker counts, and resumed runs. Only the
/// machine-dependent deadline grows; a retry that succeeds therefore yields
/// exactly the label a serial deadline-free run would have produced.
fn escalate(config: &AttackConfig, attempt: usize) -> AttackConfig {
    let factor = u64::from(ESCALATION).saturating_pow(attempt as u32);
    let factor = u32::try_from(factor).unwrap_or(u32::MAX);
    let mut out = config.clone();
    out.deadline = out.deadline.map(|d| d.saturating_mul(factor));
    out
}

/// Why an instance was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Every attempt hit its wall-clock deadline.
    Timeout,
    /// Every attempt panicked (oracle or solver bug).
    Panic,
    /// The attack returned a hard error (e.g. an inconsistent oracle).
    Error,
    /// The worker servicing the instance died mid-attack (injected fault or
    /// external kill); the instance got no verdict of its own.
    Death,
    /// The attack exceeded its logical-byte memory budget. Deterministic
    /// for a given budget, so never retried; a
    /// resume under a raised `--mem-budget` re-attacks the instance (the
    /// budget rides in the supervision fingerprint, not the instance key).
    MemoryExceeded,
    /// Read from logs written with the removed stall watchdog; never
    /// produced. Kept so such a log still opens: its `stall=Some(..)`
    /// supervision value matches no current config, so the instance is
    /// re-attacked.
    Stalled,
}

impl FailureKind {
    /// Stable single-word tag used in checkpoint records.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureKind::Timeout => "timeout",
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
            FailureKind::Death => "death",
            FailureKind::MemoryExceeded => "memory",
            FailureKind::Stalled => "stalled",
        }
    }

    /// Parses [`FailureKind::tag`] output.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "timeout" => Some(FailureKind::Timeout),
            "panic" => Some(FailureKind::Panic),
            "error" => Some(FailureKind::Error),
            "death" => Some(FailureKind::Death),
            "memory" => Some(FailureKind::MemoryExceeded),
            "stalled" => Some(FailureKind::Stalled),
            _ => None,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The typed quarantine record for one instance that exhausted its
/// attempts. Persisted in the checkpoint log so resume skips the instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceFailure {
    /// What kind of failure won on the final attempt.
    pub kind: FailureKind,
    /// Attempts spent before giving up.
    pub attempts: usize,
    /// One-line human-readable cause (panic payload / error / deadline).
    pub message: String,
    /// DIP iterations completed by the final attempt, when it got that far.
    pub iterations: usize,
    /// Solver work expended by the final attempt, when it got that far.
    pub work: u64,
}

impl fmt::Display for InstanceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} attempt{} ({})",
            self.kind,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// What supervising one instance's attack produced.
#[derive(Debug)]
pub(crate) enum Supervised {
    /// The attack completed (key recovered or deterministic budget hit);
    /// the result is labelable.
    Done(AttackResult),
    /// Every attempt failed; the instance should be quarantined.
    Failed(InstanceFailure),
    /// The sweep's cancel token fired mid-attack — shutdown, not a verdict
    /// on the instance.
    Cancelled,
}

/// Renders a `catch_unwind` payload as a one-line message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    sanitize_line(&text)
}

/// Collapses a message onto one line (checkpoint records are line-oriented).
pub(crate) fn sanitize_line(text: &str) -> String {
    text.replace(['\n', '\r'], " ")
}

/// Runs the attack for instance `index` of `config` under full supervision:
/// panic isolation, retry with escalation, and failure typing. The attack
/// config `base` must already carry the sweep's cancel token (when any).
///
/// This is the only place an [`AttackOutcome`] or [`AttackError`] becomes a
/// label, a quarantine, or a shutdown.
pub(crate) fn supervise_attack(
    config: &DatasetConfig,
    locked: &LockedCircuit,
    index: usize,
    base: &AttackConfig,
) -> Supervised {
    let max_attempts = config.max_attempts.max(1);
    let mut last_failure = None;
    for attempt in 0..max_attempts {
        if base.is_cancelled() {
            return Supervised::Cancelled;
        }
        let attack_cfg = escalate(base, attempt);
        let run = catch_unwind(AssertUnwindSafe(|| match &config.attack_hook {
            Some(hook) => hook(index, locked, &attack_cfg),
            None => attack_locked(locked, &attack_cfg),
        }));
        let failure = match run {
            Ok(Ok(result)) => match result.outcome {
                AttackOutcome::KeyRecovered(_) | AttackOutcome::BudgetExceeded => {
                    return Supervised::Done(result)
                }
                AttackOutcome::Cancelled => return Supervised::Cancelled,
                AttackOutcome::MemoryExceeded => {
                    // Deterministic for the configured budget: retrying under
                    // the same budget replays the same search. Quarantine
                    // immediately; only a raised budget (a new supervision
                    // fingerprint) re-attacks the instance.
                    return Supervised::Failed(InstanceFailure {
                        kind: FailureKind::MemoryExceeded,
                        attempts: attempt + 1,
                        message: format!(
                            "logical-byte budget {:?} exceeded (peak {} bytes)",
                            attack_cfg.mem_budget, result.peak_logical_bytes,
                        ),
                        iterations: result.iterations,
                        work: result.solver_stats.work(),
                    });
                }
                AttackOutcome::TimedOut => InstanceFailure {
                    kind: FailureKind::Timeout,
                    attempts: attempt + 1,
                    message: format!("wall-clock deadline {:?} expired", attack_cfg.deadline),
                    iterations: result.iterations,
                    work: result.solver_stats.work(),
                },
            },
            Ok(Err(error)) => {
                // Attack errors are deterministic properties of the instance
                // (bad netlist, inconsistent oracle): retrying cannot help.
                return Supervised::Failed(InstanceFailure {
                    kind: FailureKind::Error,
                    attempts: attempt + 1,
                    message: sanitize_line(&error.to_string()),
                    iterations: 0,
                    work: 0,
                });
            }
            Err(payload) => InstanceFailure {
                kind: FailureKind::Panic,
                attempts: attempt + 1,
                message: panic_message(payload.as_ref()),
                iterations: 0,
                work: 0,
            },
        };
        if attempt + 1 < max_attempts {
            obs::emit(obs::EventKind::InstanceRetry {
                index: index as u64,
                // 1-based number of the attempt about to run.
                attempt: (attempt + 2) as u64,
                reason: failure.kind.tag(),
            });
        }
        last_failure = Some(failure);
    }
    Supervised::Failed(last_failure.expect("max_attempts >= 1 ran at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{lock_instance, sweep_circuit};
    use budget::CancelToken;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn demo_locked() -> (DatasetConfig, LockedCircuit) {
        let config = DatasetConfig::quick_demo();
        let circuit = sweep_circuit(&config).unwrap();
        let locked = lock_instance(&config, &circuit, 0).unwrap();
        (config, locked)
    }

    #[test]
    fn healthy_attack_is_done_first_attempt() {
        let (config, locked) = demo_locked();
        match supervise_attack(&config, &locked, 0, &config.attack) {
            Supervised::Done(result) => assert!(result.key().is_some()),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn panics_are_isolated_and_retried_to_quarantine() {
        let (mut config, locked) = demo_locked();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        config.max_attempts = 3;
        config.attack_hook = Some(Arc::new(move |_, _, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            panic!("deliberate oracle explosion");
        }));
        match supervise_attack(&config, &locked, 0, &config.attack.clone()) {
            Supervised::Failed(failure) => {
                assert_eq!(failure.kind, FailureKind::Panic);
                assert_eq!(failure.attempts, 3);
                assert!(failure.message.contains("oracle explosion"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3, "every attempt isolated");
    }

    #[test]
    fn timeout_retries_escalate_deadlines_but_never_budgets() {
        let (mut config, locked) = demo_locked();
        config.attack.work_budget = Some(5_000_000);
        config.attack.deadline = Some(Duration::from_secs(60));
        config.max_attempts = 3;
        let attempts = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = attempts.clone();
        config.attack_hook = Some(Arc::new(move |index, locked, cfg| {
            seen.lock().unwrap().push((cfg.work_budget, cfg.deadline));
            if seen.lock().unwrap().len() < 3 {
                // Simulate a wall-clock timeout through the real code path.
                let mut timed = cfg.clone();
                timed.deadline = Some(Duration::ZERO);
                attack_locked(locked, &timed)
            } else {
                let _ = index;
                attack_locked(locked, cfg)
            }
        }));
        match supervise_attack(&config, &locked, 0, &config.attack.clone()) {
            Supervised::Done(result) => {
                assert!(result.key().is_some());
                // The label the escalated attempt produced is byte-identical
                // to a first-try run under the base config: escalation only
                // buys wall-clock, never a different measurement.
                let reference = attack_locked(&locked, &config.attack).unwrap();
                assert_eq!(result.outcome, reference.outcome);
                assert_eq!(result.iterations, reference.iterations);
                assert_eq!(result.solver_stats.work(), reference.solver_stats.work());
            }
            other => panic!("expected Done on third attempt, got {other:?}"),
        }
        assert_eq!(
            *attempts.lock().unwrap(),
            vec![
                (Some(5_000_000), Some(Duration::from_secs(60))),
                (Some(5_000_000), Some(Duration::from_secs(120))),
                (Some(5_000_000), Some(Duration::from_secs(240))),
            ],
            "deadlines escalate 2x per attempt; the deterministic budget never moves"
        );
    }

    #[test]
    fn attack_errors_quarantine_without_retry() {
        let (mut config, locked) = demo_locked();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        config.attack_hook = Some(Arc::new(move |_, _, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            Err(AttackError::OracleInconsistent)
        }));
        match supervise_attack(&config, &locked, 0, &config.attack.clone()) {
            Supervised::Failed(failure) => {
                assert_eq!(failure.kind, FailureKind::Error);
                assert_eq!(failure.attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "hard errors do not retry");
    }

    #[test]
    fn cancellation_is_not_a_failure() {
        let (config, locked) = demo_locked();
        let token = CancelToken::new();
        token.cancel();
        let base = config.attack.clone().with_cancel(token);
        assert!(matches!(
            supervise_attack(&config, &locked, 0, &base),
            Supervised::Cancelled
        ));
    }

    #[test]
    fn escalation_saturates_instead_of_overflowing() {
        // 2^79 overflows even the u64 factor; it must saturate, clamp to
        // u32::MAX and leave the deterministic budget alone.
        let mut cfg = AttackConfig::with_work_budget(1000);
        cfg.deadline = Some(Duration::from_secs(1));
        let escalated = escalate(&cfg, 79);
        assert_eq!(
            escalated.deadline,
            Some(Duration::from_secs(1).saturating_mul(u32::MAX)),
            "the factor clamps and the deadline saturates instead of wrapping"
        );
        assert_eq!(escalated.work_budget, Some(1000), "budgets never escalate");
    }

    #[test]
    fn huge_escalation_factors_clamp_instead_of_truncating_to_zero() {
        // 2^40 overflows u32; a plain `as u32` cast would truncate it to 0
        // and turn every later attempt's deadline into Duration::ZERO.
        let cfg = AttackConfig {
            deadline: Some(Duration::from_millis(1)),
            ..AttackConfig::default()
        };
        let escalated = escalate(&cfg, 40);
        let clamped = Duration::from_millis(1).saturating_mul(u32::MAX);
        assert_eq!(escalated.deadline, Some(clamped));
    }

    #[test]
    fn failure_kind_tags_round_trip() {
        for kind in [
            FailureKind::Timeout,
            FailureKind::Panic,
            FailureKind::Error,
            FailureKind::Death,
            FailureKind::MemoryExceeded,
            FailureKind::Stalled,
        ] {
            assert_eq!(FailureKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(FailureKind::from_tag("nonsense"), None);
    }

    #[test]
    fn failure_display_is_one_line() {
        let failure = InstanceFailure {
            kind: FailureKind::Panic,
            attempts: 2,
            message: sanitize_line("boom\nwith newline"),
            iterations: 0,
            work: 0,
        };
        let text = failure.to_string();
        assert!(text.contains("panic after 2 attempts"));
        assert!(!text.contains('\n'));
    }
}
