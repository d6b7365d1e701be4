//! AppSAT-style approximate attack (Shamsi et al., HOST'17).
//!
//! The exact SAT attack must exhaust *every* distinguishing input before it
//! terminates, which is exactly what makes SAT-hard schemes expensive. An
//! approximate attacker interleaves DIP constraints with random oracle
//! queries and settles for a key that is correct on (nearly) all sampled
//! inputs — usually recovering an exact key on traditionally locked
//! circuits in a fraction of the work.
//!
//! This module reproduces that attacker as an extension over the paper's
//! exact attack, useful for studying how runtime prediction transfers to a
//! different attack algorithm (the paper's challenge #1: attackers are
//! heterogeneous).
//!
//! Resource accounting mirrors [`attack`](crate::attack): the deterministic
//! work budget yields [`AppSatOutcome::BudgetExceeded`] (a reproducible,
//! censored measurement), while wall-clock deadlines yield
//! [`AppSatOutcome::TimedOut`] naming the expired bound — a deadline
//! expiring mid-iteration is never misreported as budget exhaustion, which
//! matters on SAT-resilient (Anti-SAT) instances where both bounds are
//! routinely armed at once.

use crate::dip::ExpiredDeadline;
use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::runtime::AttackRuntime;
use cnf::{encode_io_constraint, encode_miter};
use netlist::Circuit;
use obfuscate::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sat::{SolveResult, Solver, SolverStats};
use std::time::{Duration, Instant};

/// Parameters of one AppSAT run.
#[derive(Debug, Clone)]
pub struct AppSatConfig {
    /// DIP iterations between random-query rounds.
    pub dips_per_round: usize,
    /// Random oracle queries per reinforcement round.
    pub random_queries_per_round: usize,
    /// Consecutive all-correct rounds required to settle.
    pub settle_rounds: usize,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Total solver-work budget (deterministic; exhausting it is a
    /// reproducible, censored measurement).
    pub work_budget: Option<u64>,
    /// Wall-clock bound on the whole run (machine-dependent; expiring it is
    /// a timeout, never budget exhaustion).
    pub deadline: Option<Duration>,
    /// Wall-clock bound on each individual solver call.
    pub per_query_deadline: Option<Duration>,
    /// Random-query seed.
    pub seed: u64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            dips_per_round: 4,
            random_queries_per_round: 32,
            settle_rounds: 2,
            max_rounds: 100,
            work_budget: None,
            deadline: None,
            per_query_deadline: None,
            seed: 0,
        }
    }
}

/// How an AppSAT run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppSatOutcome {
    /// The miter became UNSAT — the key is exactly correct.
    ExactKey,
    /// The required number of all-correct reinforcement rounds passed; the
    /// key is approximate but matched every sampled input.
    Settled,
    /// The round cap was reached without settling.
    RoundLimit,
    /// The deterministic work budget ran out first.
    BudgetExceeded,
    /// A wall-clock bound expired — the payload names which one.
    TimedOut(ExpiredDeadline),
}

/// Outcome of an AppSAT run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSatResult {
    /// The recovered (possibly approximate) key, or `None` on a budget or
    /// deadline abort.
    pub key: Option<Key>,
    /// Terminal state of the run.
    pub outcome: AppSatOutcome,
    /// Rounds executed.
    pub rounds: usize,
    /// True when the miter became UNSAT (the key is exactly correct, as in
    /// the exact attack); false when the attacker settled approximately.
    pub exact: bool,
    /// Fraction of the final round's random queries the key got wrong
    /// (0.0 for an exact or fully settled key).
    pub error_estimate: f64,
    /// DIPs consumed in total.
    pub dips: usize,
    /// Solver work counters.
    pub solver_stats: SolverStats,
    /// Runtime under both measures.
    pub runtime: AttackRuntime,
}

/// Runs the AppSAT loop on `locked` against `oracle`.
///
/// # Errors
///
/// Same conditions as [`attack`](crate::attack): circuits without keys or
/// outputs are rejected, and an oracle inconsistent with the netlist
/// surfaces as [`AttackError::OracleInconsistent`].
pub fn appsat(
    locked: &Circuit,
    oracle: &mut dyn Oracle,
    config: &AppSatConfig,
) -> Result<AppSatResult, AttackError> {
    if locked.keys().is_empty() {
        return Err(AttackError::NothingToAttack);
    }
    if locked.outputs().is_empty() {
        return Err(AttackError::NoOutputs);
    }
    let start = Instant::now();
    let attack_deadline = config.deadline.map(|d| start + d);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA995_A700);
    let mut solver = Solver::new();
    let miter = encode_miter(locked, &mut solver);
    let num_inputs = locked.inputs().len();

    // The deadline for the next solver call: the whole-run deadline or the
    // per-query deadline, whichever falls first (same rule as the exact
    // attack's DIP loop).
    let query_deadline = |attack_deadline: Option<Instant>| -> Option<Instant> {
        let per_query = config.per_query_deadline.map(|d| Instant::now() + d);
        match (attack_deadline, per_query) {
            (Some(a), Some(q)) => Some(a.min(q)),
            (a, q) => a.or(q),
        }
    };
    // Classifies a `SolveResult::Unknown`: past a wall-clock deadline it was
    // a timeout (the whole-run bound wins attribution when both expired),
    // otherwise only the deterministic budget can explain the abort.
    let classify_unknown =
        |attack_deadline: Option<Instant>, solve_deadline: Option<Instant>| -> AppSatOutcome {
            let now = Instant::now();
            if attack_deadline.is_some_and(|d| now >= d) {
                AppSatOutcome::TimedOut(ExpiredDeadline::Attack)
            } else if solve_deadline.is_some_and(|d| now >= d) {
                AppSatOutcome::TimedOut(ExpiredDeadline::PerQuery)
            } else {
                AppSatOutcome::BudgetExceeded
            }
        };

    let add_io_constraint = |solver: &mut Solver, inputs: &[bool], outputs: &[bool]| {
        for key_vars in [&miter.key1, &miter.key2] {
            encode_io_constraint(locked, solver, key_vars, inputs, outputs);
        }
    };

    let mut dips = 0usize;
    let mut settled = 0usize;
    let mut error_estimate = 1.0;
    let finish = |solver: &mut Solver,
                  key: Option<Key>,
                  outcome: AppSatOutcome,
                  rounds: usize,
                  error_estimate: f64,
                  dips: usize,
                  start: Instant| {
        let solver_stats = *solver.stats();
        let exact = outcome == AppSatOutcome::ExactKey;
        Ok(AppSatResult {
            key,
            outcome,
            rounds,
            exact,
            error_estimate,
            dips,
            solver_stats,
            runtime: AttackRuntime::new(&solver_stats, start.elapsed()),
        })
    };

    for round in 0..config.max_rounds {
        // Deadline before budget: when both bounds have tripped by a round
        // boundary, the wall clock is the reason the run must stop *now*,
        // and reporting it as budget exhaustion would let a machine-speed
        // artifact masquerade as a reproducible censored label.
        if attack_deadline.is_some_and(|d| Instant::now() >= d) {
            let outcome = AppSatOutcome::TimedOut(ExpiredDeadline::Attack);
            return finish(
                &mut solver,
                None,
                outcome,
                round,
                error_estimate,
                dips,
                start,
            );
        }
        if let Some(budget) = config.work_budget {
            if solver.stats().work() >= budget {
                let outcome = AppSatOutcome::BudgetExceeded;
                return finish(
                    &mut solver,
                    None,
                    outcome,
                    round,
                    error_estimate,
                    dips,
                    start,
                );
            }
        }
        // Phase 1: a few exact DIP iterations.
        for _ in 0..config.dips_per_round {
            let deadline = query_deadline(attack_deadline);
            solver.set_deadline(deadline);
            match solver.solve_with_assumptions(&[miter.diff_lit()]) {
                SolveResult::Unknown => {
                    let outcome = classify_unknown(attack_deadline, deadline);
                    return finish(
                        &mut solver,
                        None,
                        outcome,
                        round,
                        error_estimate,
                        dips,
                        start,
                    );
                }
                SolveResult::Unsat => {
                    // Exact convergence — extract the key like the exact
                    // attack. The extraction solve stays under the whole-run
                    // deadline only; it is the last call and must not be
                    // starved by an earlier slow query.
                    solver.set_deadline(attack_deadline);
                    return match solver.solve() {
                        SolveResult::Sat(model) => {
                            let key: Key = miter.key1.iter().map(|&v| model.value(v)).collect();
                            let outcome = AppSatOutcome::ExactKey;
                            finish(&mut solver, Some(key), outcome, round + 1, 0.0, dips, start)
                        }
                        SolveResult::Unsat => Err(AttackError::OracleInconsistent),
                        SolveResult::Unknown => {
                            let outcome = classify_unknown(attack_deadline, None);
                            finish(
                                &mut solver,
                                None,
                                outcome,
                                round,
                                error_estimate,
                                dips,
                                start,
                            )
                        }
                    };
                }
                SolveResult::Sat(model) => {
                    let dip: Vec<bool> = miter.inputs.iter().map(|&v| model.value(v)).collect();
                    let response = oracle.query(&dip);
                    add_io_constraint(&mut solver, &dip, &response);
                    dips += 1;
                }
            }
        }
        // Phase 2: extract the current key candidate.
        let deadline = query_deadline(attack_deadline);
        solver.set_deadline(deadline);
        let candidate: Key = match solver.solve() {
            SolveResult::Sat(model) => miter.key1.iter().map(|&v| model.value(v)).collect(),
            SolveResult::Unsat => return Err(AttackError::OracleInconsistent),
            SolveResult::Unknown => {
                let outcome = classify_unknown(attack_deadline, deadline);
                return finish(
                    &mut solver,
                    None,
                    outcome,
                    round,
                    error_estimate,
                    dips,
                    start,
                );
            }
        };
        // Phase 3: random-query reinforcement.
        let mut mismatches = 0usize;
        for _ in 0..config.random_queries_per_round {
            let inputs: Vec<bool> = (0..num_inputs).map(|_| rng.gen()).collect();
            let truth = oracle.query(&inputs);
            let predicted = locked
                .simulate_bool(&inputs, candidate.bits())
                .expect("candidate key has the right width");
            if predicted != truth {
                mismatches += 1;
                add_io_constraint(&mut solver, &inputs, &truth);
            }
        }
        error_estimate = mismatches as f64 / config.random_queries_per_round.max(1) as f64;
        if mismatches == 0 {
            settled += 1;
            if settled >= config.settle_rounds {
                let outcome = AppSatOutcome::Settled;
                return finish(
                    &mut solver,
                    Some(candidate),
                    outcome,
                    round + 1,
                    0.0,
                    dips,
                    start,
                );
            }
        } else {
            settled = 0;
        }
    }
    finish(
        &mut solver,
        None,
        AppSatOutcome::RoundLimit,
        config.max_rounds,
        error_estimate,
        dips,
        start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use obfuscate::{lock_random, SchemeKind};
    use synth::GeneratorConfig;

    fn run(scheme: SchemeKind, gates: usize) -> (obfuscate::LockedCircuit, AppSatResult) {
        let base = synth::generate(&GeneratorConfig::new("appsat", 12, 6, 120).with_seed(3));
        let locked = lock_random(&base, scheme, gates, 7).expect("lockable");
        let mut oracle = SimOracle::new(locked.original.clone());
        let result =
            appsat(&locked.locked, &mut oracle, &AppSatConfig::default()).expect("appsat runs");
        (locked, result)
    }

    fn anti_sat_instance(width: usize) -> obfuscate::LockedCircuit {
        let base = synth::generate(&GeneratorConfig::new("appsat", 16, 8, 150).with_seed(2));
        lock_random(&base, SchemeKind::AntiSat { key_width: width }, 1, 3).expect("lockable")
    }

    #[test]
    fn appsat_recovers_functionally_correct_keys() {
        for scheme in [SchemeKind::XorLock, SchemeKind::LutLock { lut_size: 3 }] {
            let (locked, result) = run(scheme, 4);
            let key = result.key.as_ref().expect("appsat settles");
            assert!(
                locked.verify_key(key).expect("verifies"),
                "{scheme} exact={} err={}",
                result.exact,
                result.error_estimate
            );
            assert!(matches!(
                result.outcome,
                AppSatOutcome::ExactKey | AppSatOutcome::Settled
            ));
        }
    }

    #[test]
    fn appsat_uses_no_more_dips_than_exact_attack() {
        let (locked, approx) = run(SchemeKind::LutLock { lut_size: 4 }, 6);
        let exact = crate::attack_locked(&locked, &crate::AttackConfig::default())
            .expect("exact attack runs");
        assert!(
            approx.dips <= exact.iterations + 8,
            "appsat {} DIPs vs exact {}",
            approx.dips,
            exact.iterations
        );
    }

    #[test]
    fn budget_aborts_cleanly() {
        let (_, result) = {
            let base = synth::generate(&GeneratorConfig::new("appsat", 12, 6, 120).with_seed(3));
            let locked =
                lock_random(&base, SchemeKind::LutLock { lut_size: 4 }, 10, 7).expect("lockable");
            let mut oracle = SimOracle::new(locked.original.clone());
            let config = AppSatConfig {
                work_budget: Some(1),
                ..AppSatConfig::default()
            };
            (
                locked.clone(),
                appsat(&locked.locked, &mut oracle, &config).expect("appsat runs"),
            )
        };
        assert!(result.key.is_none());
        assert_eq!(result.outcome, AppSatOutcome::BudgetExceeded);
        // The budget is only checked at round boundaries, so at most one
        // round runs before the abort.
        assert!(result.rounds <= 1);
    }

    #[test]
    fn anti_sat_deadline_times_out_not_budget() {
        // Regression (issue 9): on a SAT-resilient instance with *both* a
        // work budget and an expired deadline armed, the run must surface as
        // a timeout naming the bound — never as budget exhaustion.
        let locked = anti_sat_instance(8);
        let mut oracle = SimOracle::new(locked.original.clone());
        let config = AppSatConfig {
            work_budget: Some(1),
            deadline: Some(Duration::ZERO),
            ..AppSatConfig::default()
        };
        let result = appsat(&locked.locked, &mut oracle, &config).expect("appsat runs");
        assert_eq!(
            result.outcome,
            AppSatOutcome::TimedOut(ExpiredDeadline::Attack)
        );
        assert!(result.key.is_none());
        if let AppSatOutcome::TimedOut(bound) = result.outcome {
            assert_eq!(bound.describe(), "deadline");
        }
    }

    #[test]
    fn anti_sat_deadline_mid_iteration_times_out() {
        // A width-10 Anti-SAT block needs ~1024 DIPs; a few-ms deadline
        // expires mid-DIP-iteration, inside the solver's wall-clock check,
        // and must still be attributed to the attack deadline even though an
        // (unreached) work budget is armed. Settling and the round cap are
        // pushed out of reach so the timeout is the only possible ending —
        // on Anti-SAT a disagreeing wrong key passes random reinforcement
        // almost surely, so a reachable settle threshold would race the
        // deadline on fast machines.
        let locked = anti_sat_instance(10);
        let mut oracle = SimOracle::new(locked.original.clone());
        let config = AppSatConfig {
            work_budget: Some(u64::MAX),
            deadline: Some(Duration::from_millis(5)),
            settle_rounds: usize::MAX,
            max_rounds: usize::MAX,
            ..AppSatConfig::default()
        };
        let result = appsat(&locked.locked, &mut oracle, &config).expect("appsat runs");
        assert_eq!(
            result.outcome,
            AppSatOutcome::TimedOut(ExpiredDeadline::Attack),
            "rounds={} dips={}",
            result.rounds,
            result.dips
        );
    }

    #[test]
    fn per_query_deadline_is_attributed_to_the_query_bound() {
        let locked = anti_sat_instance(8);
        let mut oracle = SimOracle::new(locked.original.clone());
        let config = AppSatConfig {
            per_query_deadline: Some(Duration::ZERO),
            ..AppSatConfig::default()
        };
        let result = appsat(&locked.locked, &mut oracle, &config).expect("appsat runs");
        assert_eq!(
            result.outcome,
            AppSatOutcome::TimedOut(ExpiredDeadline::PerQuery)
        );
    }

    #[test]
    fn generous_deadline_leaves_result_untouched() {
        let (locked, unlimited) = run(SchemeKind::XorLock, 4);
        let mut oracle = SimOracle::new(locked.original.clone());
        let config = AppSatConfig {
            deadline: Some(Duration::from_secs(600)),
            ..AppSatConfig::default()
        };
        let bounded = appsat(&locked.locked, &mut oracle, &config).expect("appsat runs");
        assert_eq!(unlimited.outcome, bounded.outcome);
        assert_eq!(unlimited.dips, bounded.dips);
    }

    #[test]
    fn rejects_unkeyed_circuits() {
        let mut oracle = SimOracle::new(netlist::c17());
        let err = appsat(&netlist::c17(), &mut oracle, &AppSatConfig::default()).unwrap_err();
        assert_eq!(err, AttackError::NothingToAttack);
    }
}
