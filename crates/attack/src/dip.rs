//! The DIP (distinguishing input pattern) loop.

use crate::error::AttackError;
use crate::oracle::{Oracle, SimOracle};
use crate::runtime::AttackRuntime;
use cnf::{encode_io_constraint, encode_miter};
use netlist::Circuit;
use obfuscate::{Key, LockedCircuit};
use sat::{SolveResult, Solver, SolverStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, cloneable cooperative-cancellation flag.
///
/// Clones share one flag, so a coordinator thread can hand copies to worker
/// threads and cancel every in-flight attack at once (the DIP loop polls the
/// flag between solver calls, exactly like its work-budget check). A
/// cancelled attack ends with [`AttackOutcome::Cancelled`], distinct from
/// every resource-exhaustion outcome so supervisors can tell an operator
/// shutdown from an instance that is genuinely too hard.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Flags of ancestor tokens; cancellation flows down through them but
    /// never back up.
    parents: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag; every attack polling a clone stops at its next
    /// iteration boundary. Children observe the cancellation too; parents
    /// (see [`CancelToken::child`]) do not.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone of this
    /// token or of an ancestor it was derived from.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parents.iter().any(|p| p.load(Ordering::Relaxed))
    }

    /// Derives a child token: cancelling `self` cancels the child, but
    /// cancelling the child leaves `self` untouched. This lets a sweep abort
    /// its own workers on an internal error without tripping an
    /// operator-level interrupt token it was handed.
    pub fn child(&self) -> CancelToken {
        let mut parents = self.parents.clone();
        parents.push(Arc::clone(&self.flag));
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parents,
        }
    }
}

/// Resource limits and options for one attack run.
#[derive(Debug, Clone, Default)]
pub struct AttackConfig {
    /// Abort once total solver work (see [`sat::SolverStats::work`]) exceeds
    /// this bound. `None` = run to completion.
    pub work_budget: Option<u64>,
    /// Abort after this many DIP iterations. `None` = unlimited.
    pub max_iterations: Option<usize>,
    /// Conflict cap per individual solver call (guards against a single
    /// pathological query). `None` = unlimited.
    pub conflicts_per_solve: Option<u64>,
    /// Wall-clock bound on the whole attack run. Unlike the deterministic
    /// work budget this actually bounds *time*: SAT-hard structures blow
    /// past any conflict estimate, and a dataset sweep must terminate.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Wall-clock bound on each individual solver call (guards against one
    /// pathological query eating the whole deadline). `None` = unlimited.
    pub per_query_deadline: Option<Duration>,
    /// Logical-byte cap on the attack solver's clause storage (see
    /// [`sat::Solver::set_memory_budget`]). Deterministic and
    /// machine-independent, but it rides in the *supervision* fingerprint,
    /// not the instance key: an exceeded budget quarantines rather than
    /// labels, and raising it re-attacks only the quarantined instances —
    /// the same contract as deadlines. `None` = uncapped.
    pub mem_budget: Option<u64>,
    /// Record every DIP found (costs memory on long attacks).
    pub record_dips: bool,
    /// Cross-thread cancellation flag, polled once per DIP iteration.
    /// `None` = not cancellable.
    pub cancel: Option<CancelToken>,
    /// Watchdog pulse forwarded to the solver (beaten at its deadline-poll
    /// sites) and beaten once per DIP iteration, so a stall monitor can see
    /// progress the polled deadlines cannot. `None` = unmonitored.
    pub heartbeat: Option<budget::Heartbeat>,
}

impl AttackConfig {
    /// A config with a total work budget.
    pub fn with_work_budget(budget: u64) -> Self {
        AttackConfig {
            work_budget: Some(budget),
            ..AttackConfig::default()
        }
    }

    /// This config with `token` installed as its cancellation flag.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// This config with a wall-clock deadline for the whole attack.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether an installed cancellation token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Which wall-clock bound expired when an attack ends as
/// [`AttackOutcome::TimedOut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpiredDeadline {
    /// The whole-attack [`AttackConfig::deadline`].
    Attack,
    /// The [`AttackConfig::per_query_deadline`] of one solver call.
    PerQuery,
}

impl ExpiredDeadline {
    /// Flag-style name of the expired bound ("deadline" /
    /// "per-query deadline"), for diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            ExpiredDeadline::Attack => "deadline",
            ExpiredDeadline::PerQuery => "per-query deadline",
        }
    }
}

/// How an attack run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The DIP loop converged and this key reproduces the oracle on all
    /// inputs.
    KeyRecovered(Key),
    /// A deterministic resource limit from [`AttackConfig`] (work budget,
    /// iteration cap, or per-solve conflict cap) was hit first. The partial
    /// runtime is a reproducible lower bound, so the instance is still
    /// usable as a censored label.
    BudgetExceeded,
    /// The wall-clock [`AttackConfig::deadline`] or
    /// [`AttackConfig::per_query_deadline`] expired — the payload says
    /// which. The partial runtime is machine-dependent, so supervisors
    /// quarantine these instead of labeling them.
    TimedOut(ExpiredDeadline),
    /// The logical-byte [`AttackConfig::mem_budget`] stayed exhausted even
    /// after the solver's staged learnt-DB degradation. Deterministic, but
    /// the partial runtime reflects a degraded search, so supervisors
    /// quarantine (a raised budget re-attacks) rather than label.
    MemoryExceeded,
    /// The attack was stopped through its [`CancelToken`] — an operator or
    /// coordinator decision, not a property of the instance. Any partial
    /// result must be discarded.
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
    /// [`budget::MemoryMeter`]) — the per-instance `mem.highwater` figure.
    pub peak_logical_bytes: u64,
    /// The DIPs, if [`AttackConfig::record_dips`] was set.
    pub dips: Vec<Vec<bool>>,
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
    let attack_deadline = config.deadline.map(|d| start + d);
    let mut solver = Solver::new();
    solver.set_conflict_budget(config.conflicts_per_solve);
    solver.set_memory_budget(config.mem_budget);
    solver.set_heartbeat(config.heartbeat.clone());
    let miter = encode_miter(locked, &mut solver);
    // One preprocessing pass over the freshly-encoded miter before any DIP
    // query: Tseitin encodings leave subsumed and strengthenable clauses,
    // and no assumptions are in flight yet. It is the only pass: each DIP
    // constraint below is encoded without its constant gates, so there are
    // no satisfied clauses for a periodic sweep to clear.
    solver.preprocess();

    // Why the loop ended early, when it did. Timeouts are kept distinct
    // from deterministic budget exhaustion because only the latter yields a
    // reproducible (censored) runtime label.
    #[derive(Clone, Copy)]
    enum End {
        Budget,
        Timeout(ExpiredDeadline),
        Memory,
        Cancelled,
    }

    // The deadline for the next solver call: the attack deadline or the
    // per-query deadline, whichever falls first.
    let query_deadline = |attack_deadline: Option<Instant>| -> Option<Instant> {
        let per_query = config.per_query_deadline.map(|d| Instant::now() + d);
        match (attack_deadline, per_query) {
            (Some(a), Some(q)) => Some(a.min(q)),
            (a, q) => a.or(q),
        }
    };
    // Classifies a `SolveResult::Unknown`: past a wall-clock deadline it
    // was a timeout (the whole-attack bound wins attribution when both have
    // expired), otherwise the per-solve conflict cap fired.
    let classify_unknown =
        |attack_deadline: Option<Instant>, solve_deadline: Option<Instant>| -> End {
            let now = Instant::now();
            if attack_deadline.is_some_and(|d| now >= d) {
                End::Timeout(ExpiredDeadline::Attack)
            } else if solve_deadline.is_some_and(|d| now >= d) {
                End::Timeout(ExpiredDeadline::PerQuery)
            } else {
                End::Budget
            }
        };

    let mut iterations = 0usize;
    let mut dips = Vec::new();
    let mut ended: Option<End> = None;

    loop {
        if let Some(hb) = &config.heartbeat {
            // The solver beats at its deadline-poll sites; easy queries can
            // finish below those thresholds, so the iteration boundary
            // beats too.
            hb.beat();
        }
        if config.is_cancelled() {
            ended = Some(End::Cancelled);
            break;
        }
        if attack_deadline.is_some_and(|d| Instant::now() >= d) {
            ended = Some(End::Timeout(ExpiredDeadline::Attack));
            break;
        }
        if let Some(max) = config.max_iterations {
            if iterations >= max {
                ended = Some(End::Budget);
                break;
            }
        }
        if let Some(budget) = config.work_budget {
            if solver.stats().work() >= budget {
                ended = Some(End::Budget);
                break;
            }
        }
        let deadline = query_deadline(attack_deadline);
        solver.set_deadline(deadline);
        // Observation-only: snapshot counters/clock around the query so the
        // trace can attribute work per DIP iteration. Reads never feed back
        // into the attack, so tracing cannot perturb labels.
        let observing = obs::enabled();
        let query_started = observing.then(Instant::now);
        let work_before = if observing { solver.stats().work() } else { 0 };
        match solver.solve_with_assumptions(&[miter.diff_lit()]) {
            SolveResult::Unknown => {
                // A memory give-up is self-attributed by the solver;
                // everything else is classified by which bound expired.
                ended = Some(
                    if solver.out_of_budget() == Some(sat::OutOfBudget::Memory) {
                        End::Memory
                    } else {
                        classify_unknown(attack_deadline, deadline)
                    },
                );
                break;
            }
            SolveResult::Unsat => break, // no DIP remains
            SolveResult::Sat(model) => {
                let dip: Vec<bool> = miter.inputs.iter().map(|&v| model.value(v)).collect();
                let response = oracle.query(&dip);
                debug_assert_eq!(response.len(), locked.outputs().len());
                // Constrain both key copies to reproduce the oracle on this DIP.
                for key_vars in [&miter.key1, &miter.key2] {
                    encode_io_constraint(locked, &mut solver, key_vars, &dip, &response);
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
                if config.record_dips {
                    dips.push(dip);
                }
            }
        }
    }

    let outcome = match ended {
        Some(End::Cancelled) => AttackOutcome::Cancelled,
        Some(End::Timeout(which)) => AttackOutcome::TimedOut(which),
        Some(End::Memory) => AttackOutcome::MemoryExceeded,
        Some(End::Budget) => AttackOutcome::BudgetExceeded,
        None => {
            // No DIP remains: any key satisfying the I/O constraints is
            // correct. The extraction solve stays under the attack deadline
            // (but not the per-query one — it is the last call and must not
            // be starved by an earlier slow query).
            solver.set_deadline(attack_deadline);
            match solver.solve() {
                SolveResult::Sat(model) => {
                    let key: Key = miter.key1.iter().map(|&v| model.value(v)).collect();
                    AttackOutcome::KeyRecovered(key)
                }
                SolveResult::Unsat => return Err(AttackError::OracleInconsistent),
                SolveResult::Unknown => {
                    if solver.out_of_budget() == Some(sat::OutOfBudget::Memory) {
                        AttackOutcome::MemoryExceeded
                    } else {
                        match classify_unknown(attack_deadline, None) {
                            End::Timeout(which) => AttackOutcome::TimedOut(which),
                            _ => AttackOutcome::BudgetExceeded,
                        }
                    }
                }
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
        peak_logical_bytes: solver.meter().high_water(),
        dips,
    })
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
    use obfuscate::{lock_random, SchemeKind};
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
    fn max_iterations_aborts_attack() {
        let base = synth::generate(&GeneratorConfig::new("mid", 16, 8, 150).with_seed(2));
        let locked = lock_random(&base, SchemeKind::XorLock, 20, 3).unwrap();
        let config = AttackConfig {
            max_iterations: Some(0),
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.outcome, AttackOutcome::BudgetExceeded);
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn dips_recorded_when_requested() {
        let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 4, 11).unwrap();
        let config = AttackConfig {
            record_dips: true,
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert_eq!(result.dips.len(), result.iterations);
        for dip in &result.dips {
            assert_eq!(dip.len(), 5);
        }
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
        assert_eq!(
            result.outcome,
            AttackOutcome::TimedOut(ExpiredDeadline::Attack)
        );
        assert!(result.key().is_none());
        assert_eq!(result.iterations, 0);
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
        assert_eq!(
            result.outcome,
            AttackOutcome::TimedOut(ExpiredDeadline::Attack)
        );
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
            AttackOutcome::TimedOut(ExpiredDeadline::PerQuery),
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
        assert_eq!(
            result.outcome,
            AttackOutcome::TimedOut(ExpiredDeadline::Attack)
        );
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
            AttackOutcome::TimedOut(ExpiredDeadline::Attack),
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
    fn heartbeat_beats_across_the_attack() {
        let dog = budget::Watchdog::new(budget::WatchdogConfig {
            stall_after: Duration::from_secs(3600),
            poll: Duration::from_millis(50),
        });
        let hb = dog.watch("attack", |_| {});
        let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 3, 1).unwrap();
        let config = AttackConfig {
            heartbeat: Some(hb.clone()),
            ..AttackConfig::default()
        };
        let result = attack_locked(&locked, &config).unwrap();
        assert!(result.key().is_some());
        assert!(!hb.tripped());
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
