//! The DIP (distinguishing input pattern) loop.

use crate::error::AttackError;
use crate::oracle::{Oracle, SimOracle};
use crate::runtime::AttackRuntime;
use budget::{Limits, Poll, Stop};
use cnf::{encode_miter, IoConstraint};
use netlist::Circuit;
use obfuscate::{Key, LockedCircuit};
use sat::{SolveResult, Solver, SolverStats};
use std::time::Instant;

/// The stop conditions of one attack run. The work budget is polled once
/// per DIP iteration, so an attack that stops on it overshoots by at most
/// one query; every other bound is also polled inside each solver call.
pub type AttackConfig = Limits;

/// How an attack run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The DIP loop converged and this key reproduces the oracle on all
    /// inputs.
    KeyRecovered(Key),
    /// A deterministic resource limit from [`AttackConfig`] (work budget or
    /// per-solve conflict cap) was hit first. The partial runtime is a
    /// reproducible lower bound, so the instance is still usable as a
    /// censored label.
    BudgetExceeded,
    /// A wall-clock bound expired: [`Stop::Deadline`] for the whole-attack
    /// [`Limits::deadline`], [`Stop::QueryDeadline`] for one solver call's
    /// [`Limits::per_query_deadline`]. The partial runtime is
    /// machine-dependent, so supervisors quarantine these instead of
    /// labeling them.
    TimedOut(Stop),
    /// The solver's logical bytes exceeded [`Limits::mem_budget`].
    /// Deterministic, but the partial runtime is not the attack's runtime,
    /// so supervisors quarantine (a raised budget re-attacks) rather than
    /// label.
    MemoryExceeded,
    /// The attack was stopped through its [`budget::CancelToken`] — an
    /// operator or coordinator decision, not a property of the instance.
    /// Any partial result must be discarded.
    Cancelled,
}

/// Everything measured during one attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackResult {
    /// Terminal state of the run.
    pub outcome: AttackOutcome,
    /// Number of DIPs found (= SAT-attack iterations, the quantity the
    /// paper's Section II-A ties to attack effort).
    pub iterations: usize,
    /// Oracle queries served.
    pub oracle_queries: usize,
    /// Work counters of the attack's solver.
    pub solver_stats: SolverStats,
    /// Deterministic + wall-clock runtime of the run.
    pub runtime: AttackRuntime,
    /// Peak logical bytes the attack solver's storage reached (see
    /// [`Solver::logical_bytes`]) — the per-instance `mem.highwater` figure.
    pub peak_logical_bytes: u64,
}

impl AttackResult {
    /// The recovered key, if the attack finished.
    pub fn key(&self) -> Option<&Key> {
        match &self.outcome {
            AttackOutcome::KeyRecovered(k) => Some(k),
            _ => None,
        }
    }
}

/// Runs the oracle-guided SAT attack on `locked` using `oracle` as the
/// activated chip.
///
/// # Errors
///
/// Returns [`AttackError::NothingToAttack`] / [`AttackError::NoOutputs`] for
/// circuits without keys or outputs, and
/// [`AttackError::OracleInconsistent`] when the oracle's responses cannot be
/// produced by any key of the locked netlist.
pub fn attack(
    locked: &Circuit,
    oracle: &mut dyn Oracle,
    config: &AttackConfig,
) -> Result<AttackResult, AttackError> {
    if locked.keys().is_empty() {
        return Err(AttackError::NothingToAttack);
    }
    if locked.outputs().is_empty() {
        return Err(AttackError::NoOutputs);
    }
    let start = Instant::now();
    let mut solver = Solver::new();
    // Installed before encoding, so the attack deadline and the cancel token
    // bound `preprocess` as well as every DIP query.
    solver.set_limits(config.clone(), start);
    let miter = encode_miter(locked, &mut solver);
    // One preprocessing pass over the freshly-encoded miter before any DIP
    // query: Tseitin encodings leave subsumed and strengthenable clauses,
    // and no assumptions are in flight yet. It is the only pass: each DIP
    // constraint below is encoded without its constant gates, so there are
    // no satisfied clauses for a periodic sweep to clear.
    solver.preprocess();

    let mut iterations = 0usize;
    // The bound that ended the DIP loop; `None` once no DIP remains.
    let stopped = loop {
        // The loop's one stop poll, between queries: it sees the work
        // budget, and the deadlines even when every query finishes below
        // the solver's own poll cadence.
        let poll = Poll {
            started: start,
            query_started: None,
            now: config.tick(),
            over_memory: false,
            conflicts: None,
            work: Some(solver.stats().work()),
        };
        if let Some(stop) = config.check(&poll) {
            break Some(stop);
        }
        // Observation-only: snapshot counters/clock around the query so the
        // trace can attribute work per DIP iteration. Reads never feed back
        // into the attack, so tracing cannot perturb labels.
        let observing = obs::enabled();
        let query_started = observing.then(Instant::now);
        let work_before = if observing { solver.stats().work() } else { 0 };
        match solver.solve_with_assumptions(&[miter.diff_lit()]) {
            SolveResult::Unknown => break Some(stopped_by(&solver)),
            SolveResult::Unsat => break None, // no DIP remains
            SolveResult::Sat(model) => {
                let dip: Vec<bool> = miter.inputs.iter().map(|&v| model.value(v)).collect();
                let response = oracle.query(&dip);
                debug_assert_eq!(response.len(), locked.outputs().len());
                // Constrain both key copies to reproduce the oracle on this
                // DIP; one analysis serves both.
                let constraint = IoConstraint::new(locked, &dip, &response);
                for key_vars in [&miter.key1, &miter.key2] {
                    constraint.encode(&mut solver, key_vars);
                }
                iterations += 1;
                if observing {
                    obs::emit(obs::EventKind::AttackIteration {
                        iteration: iterations as u64,
                        query_work: solver.stats().work() - work_before,
                        total_work: solver.stats().work(),
                        miter_vars: solver.num_vars() as u64,
                        miter_clauses: solver.num_clauses_total() as u64,
                        wall_ns: query_started
                            .map(|t| t.elapsed().as_nanos() as u64)
                            .unwrap_or(0),
                    });
                }
            }
        }
    };

    let outcome = match stopped {
        Some(stop) => outcome_of(stop),
        None => {
            // No DIP remains: any key satisfying the I/O constraints is
            // correct. The extraction solve stays under the attack deadline
            // but not the per-query one: it is the last call and must not be
            // starved by an earlier slow query.
            let extraction = Limits {
                per_query_deadline: None,
                ..config.clone()
            };
            solver.set_limits(extraction, start);
            match solver.solve() {
                SolveResult::Sat(model) => AttackOutcome::KeyRecovered(
                    miter.key1.iter().map(|&v| model.value(v)).collect(),
                ),
                SolveResult::Unsat => return Err(AttackError::OracleInconsistent),
                SolveResult::Unknown => outcome_of(stopped_by(&solver)),
            }
        }
    };

    let solver_stats = *solver.stats();
    Ok(AttackResult {
        outcome,
        iterations,
        oracle_queries: oracle.num_queries(),
        solver_stats,
        runtime: AttackRuntime::new(&solver_stats, start.elapsed()),
        peak_logical_bytes: solver.peak_logical_bytes(),
    })
}

/// The bound that stopped `solver`'s last call, which returned `Unknown`.
fn stopped_by(solver: &Solver) -> Stop {
    solver.stop().expect("an Unknown verdict names its bound")
}

/// How an attack that `stop` ended is reported. Only the deterministic
/// budgets yield a (censored) label.
fn outcome_of(stop: Stop) -> AttackOutcome {
    match stop {
        Stop::Cancelled => AttackOutcome::Cancelled,
        Stop::Memory => AttackOutcome::MemoryExceeded,
        Stop::Deadline | Stop::QueryDeadline => AttackOutcome::TimedOut(stop),
        Stop::Conflicts | Stop::Work => AttackOutcome::BudgetExceeded,
    }
}

/// Convenience wrapper: attacks a [`LockedCircuit`] with a [`SimOracle`]
/// built from its original netlist.
///
/// # Errors
///
/// Same conditions as [`attack`].
pub fn attack_locked(
    locked: &LockedCircuit,
    config: &AttackConfig,
) -> Result<AttackResult, AttackError> {
    let mut oracle = SimOracle::new(locked.original.clone());
    attack(&locked.locked, &mut oracle, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use budget::CancelToken;
    use obfuscate::{lock_random, SchemeKind};
    use std::time::Duration;
    use synth::GeneratorConfig;

    fn run(scheme: SchemeKind, gates: usize, seed: u64) -> (LockedCircuit, AttackResult) {
        let locked = lock_random(&netlist::c17(), scheme, gates, seed).unwrap();
        let result = attack_locked(&locked, &AttackConfig::default()).unwrap();
        (locked, result)
    }

    #[test]
    fn recovers_functionally_correct_key_xor() {
        for seed in 0..6 {
            let (locked, result) = run(SchemeKind::XorLock, 3, seed);
            let key = result.key().expect("attack finishes on c17");
            assert!(locked.verify_key(key).unwrap(), "seed {seed}");
            assert!(result.iterations <= 32, "c17 has only 32 input patterns");
        }
    }

    #[test]
    fn recovers_functionally_correct_key_mux() {
        for seed in 0..4 {
            let (locked, result) = run(SchemeKind::MuxLock, 3, seed);
            let key = result.key().expect("attack finishes on c17");
            assert!(locked.verify_key(key).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn recovers_functionally_correct_key_lut() {
        for seed in 0..4 {
            let (locked, result) = run(SchemeKind::LutLock { lut_size: 2 }, 2, seed);
            let key = result.key().expect("attack finishes on c17");
            assert!(locked.verify_key(key).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn recovered_key_may_differ_but_matches_oracle() {
        // With LUT locking, many keys are functionally correct (pad inputs
        // are don't-cares); the attack may return any of them.
        let (locked, result) = run(SchemeKind::LutLock { lut_size: 3 }, 2, 9);
        let key = result.key().unwrap();
        assert!(locked.verify_key(key).unwrap());
    }

    #[test]
    fn work_budget_aborts_attack() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 3).unwrap();
        let config = AttackConfig {
            work_budget: Some(1),
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::BudgetExceeded);
        assert!(result.key().is_none());
    }

    #[test]
    fn pre_cancelled_attack_stops_immediately() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::XorLock, 20, 3).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let config = AttackConfig::default().with_cancel(token.clone());
        assert!(config.is_cancelled());
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::Cancelled);
        assert!(result.key().is_none());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn expired_deadline_times_out_not_budget() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 3).unwrap();
        let config = AttackConfig::default().with_deadline(Duration::ZERO);
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::TimedOut(Stop::Deadline));
        assert!(result.key().is_none());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn expired_deadline_bounds_preprocessing_too() {
        // The limits are installed before the miter is encoded, so an
        // expired attack deadline stops the preprocessing pass as well: the
        // attack spends no propagation before reporting the timeout.
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 3).unwrap();
        let config = AttackConfig::default().with_deadline(Duration::ZERO);
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::TimedOut(Stop::Deadline));
        assert_eq!(result.solver_stats.propagations, 0);
    }

    #[test]
    fn mid_attack_deadline_times_out() {
        // A LUT-locked mid-size circuit takes well over 5 ms to attack; the
        // deadline must interrupt the run mid-flight via the solver's
        // wall-clock check, not just at iteration boundaries.
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 12, 3).unwrap();
        let config = AttackConfig::default().with_deadline(Duration::from_millis(5));
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::TimedOut(Stop::Deadline));
    }

    #[test]
    fn per_query_deadline_times_out_a_pathological_query() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 12, 3).unwrap();
        let config = AttackConfig {
            per_query_deadline: Some(Duration::ZERO),
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(
            result.outcome,
            AttackOutcome::TimedOut(Stop::QueryDeadline),
            "an expired per-query bound must not be blamed on the attack deadline"
        );
    }

    #[test]
    fn attack_deadline_wins_attribution_over_per_query() {
        // With both bounds set and the whole-attack deadline already
        // expired, the timeout is attributed to the attack deadline even
        // though the per-query bound would also have fired.
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 12, 3).unwrap();
        let config = AttackConfig {
            per_query_deadline: Some(Duration::ZERO),
            ..AttackConfig::default().with_deadline(Duration::ZERO)
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::TimedOut(Stop::Deadline));
    }

    #[test]
    fn generous_deadline_leaves_result_untouched() {
        let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 3, 1).unwrap();
        let unlimited = attack_locked(&locked, &AttackConfig::default()).unwrap();
        let bounded = attack_locked(
            &locked,
            &AttackConfig::default().with_deadline(Duration::from_secs(600)),
        )
        .unwrap();
        assert_eq!(unlimited.outcome, bounded.outcome);
        assert_eq!(unlimited.iterations, bounded.iterations);
    }

    #[test]
    fn anti_sat_dip_count_grows_exponentially_in_key_width() {
        // The point-function block admits one distinguishing pattern per
        // wrong key pair, so every extra tap bit roughly doubles the DIP
        // count — the property that makes the scheme SAT-resilient.
        let mut iterations = Vec::new();
        for width in [3usize, 4, 5] {
            let locked = lock_random(
                &netlist::c17(),
                SchemeKind::AntiSat { key_width: width },
                1,
                2,
            )
            .unwrap();
            let result = attack_locked(&locked, &AttackConfig::default()).unwrap();
            let key = result.key().expect("attack finishes on c17");
            // Random sampling can miss the single flipped pattern, so check
            // the recovered key exhaustively against the oracle.
            let applied = locked.apply_key(key).unwrap();
            for pat in 0..1u32 << 5 {
                let ins: Vec<bool> = (0..5).map(|b| pat >> b & 1 == 1).collect();
                assert_eq!(
                    applied.simulate_bool(&ins, &[]).unwrap(),
                    locked.original.simulate_bool(&ins, &[]).unwrap(),
                    "width {width} pattern {pat}"
                );
            }
            iterations.push(result.iterations);
        }
        assert!(
            iterations[0] >= 4 && iterations[1] > iterations[0] && iterations[2] > iterations[1],
            "DIP counts must grow with key width: {iterations:?}"
        );
    }

    #[test]
    fn anti_sat_deadline_mid_iteration_times_out_not_budget() {
        // Regression (issue 9): a resistant instance with an ample *work*
        // budget and a small wall-clock deadline dies mid-DIP-iteration
        // inside the solver; the outcome must name the expired deadline and
        // never degrade into BudgetExceeded.
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::AntiSat { key_width: 8 }, 1, 3).unwrap();
        let config = AttackConfig {
            work_budget: Some(u64::MAX),
            ..AttackConfig::default().with_deadline(Duration::from_millis(5))
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(
            result.outcome,
            AttackOutcome::TimedOut(Stop::Deadline),
            "iterations={}",
            result.iterations
        );
        if let AttackOutcome::TimedOut(bound) = result.outcome {
            assert_eq!(bound.describe(), "deadline");
        }
    }

    #[test]
    fn tight_mem_budget_ends_as_memory_exceeded() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 3).unwrap();
        let config = AttackConfig {
            mem_budget: Some(1024), // far below the encoded miter itself
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::MemoryExceeded);
        assert!(result.key().is_none());
    }

    #[test]
    fn mem_budget_verdict_is_deterministic_and_attributed_over_deadline() {
        // Both a memory budget and a (not yet expired) deadline in flight:
        // the solver's self-attributed memory give-up must win, and two
        // runs must agree exactly.
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 3).unwrap();
        let config = AttackConfig {
            mem_budget: Some(1024),
            ..AttackConfig::default().with_deadline(Duration::from_secs(600))
        };
        let a = attack_locked(&locked, &config).unwrap();
        let b = attack_locked(&locked, &config).unwrap();
        assert_eq!(a.outcome, AttackOutcome::MemoryExceeded);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.solver_stats, b.solver_stats);
        assert_eq!(a.peak_logical_bytes, b.peak_logical_bytes);
    }

    #[test]
    fn peak_logical_bytes_is_recorded_on_success() {
        let (_, result) = run(SchemeKind::XorLock, 3, 2);
        assert!(result.key().is_some());
        assert!(
            result.peak_logical_bytes > 0,
            "the miter encoding alone is thousands of logical bytes"
        );
    }

    #[test]
    fn generous_mem_budget_leaves_result_untouched() {
        let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 3, 1).unwrap();
        let unlimited = attack_locked(&locked, &AttackConfig::default()).unwrap();
        let capped = attack_locked(
            &locked,
            &AttackConfig {
                mem_budget: Some(1 << 30),
                ..AttackConfig::default()
            },
        )
        .unwrap();
        assert_eq!(unlimited.outcome, capped.outcome);
        assert_eq!(unlimited.solver_stats, capped.solver_stats);
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_threads() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        std::thread::scope(|scope| {
            scope.spawn(|| token.cancel());
        });
        assert!(clone.is_cancelled());
    }

    #[test]
    fn attack_types_are_send_and_sync() {
        // The dataset pipeline fans attacks out over worker threads; the
        // config and result types must be shareable.
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttackConfig>();
        assert_send_sync::<AttackOutcome>();
        assert_send_sync::<AttackResult>();
        assert_send_sync::<CancelToken>();
    }

    #[test]
    fn attack_on_unkeyed_circuit_errors() {
        let mut oracle = SimOracle::new(netlist::c17());
        let err = attack(&netlist::c17(), &mut oracle, &AttackConfig::default()).unwrap_err();
        assert_eq!(err, AttackError::NothingToAttack);
    }

    #[test]
    fn attack_runtime_grows_with_key_count() {
        // The paper's central premise: more obfuscated gates, more work.
        let base = synth::generate(&GeneratorConfig::new("grow", 12, 6, 120).with_seed(7));
        let mut works = Vec::new();
        for n in [1usize, 8, 24] {
            let locked = lock_random(&base, SchemeKind::XorLock, n, 5).unwrap();
            let result = attack_locked(&locked, &AttackConfig::default()).unwrap();
            assert!(result.key().is_some());
            works.push(result.solver_stats.work());
        }
        assert!(
            works[2] > works[0],
            "24 key gates should cost more work than 1: {works:?}"
        );
    }

    #[test]
    fn solver_stats_and_oracle_queries_populated() {
        let (_, result) = run(SchemeKind::XorLock, 3, 2);
        assert!(result.solver_stats.solves >= 1);
        assert_eq!(result.oracle_queries, result.iterations);
        assert!(result.runtime.work > 0);
    }
}
