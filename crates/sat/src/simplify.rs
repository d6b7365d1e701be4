//! Inprocessing: clause-database simplification between incremental solves.
//!
//! [`Solver::preprocess`] runs a bounded pipeline of classic preprocessing
//! techniques, each of which preserves equisatisfiability *and* keeps every
//! model of the simplified database a model of the original clauses (no
//! variable elimination, so no model reconstruction is needed):
//!
//! 1. **Root sweep** — delete clauses satisfied at level 0, strip false
//!    level-0 literals ([`Solver::root_sweep`]).
//! 2. **Subsumption** — delete any clause that is a superset of another
//!    (the subsumer stays, so every model still satisfies the deleted
//!    clause).
//! 3. **Self-subsuming resolution** — when resolving clauses `C` and `D`
//!    yields a strict subset of `C`, shrink `C` in place to that resolvent.
//! 4. **Failed-literal probing** — assume a literal at a fresh decision
//!    level and propagate; a conflict proves its negation at the root.
//!    Budgeted, with a cursor that rotates across calls.
//!
//! The pass is only sound at decision level 0 with no outstanding
//! assumptions; the solver's own `solve` calls always return at level 0, and
//! the SAT attack invokes `preprocess` once, on the freshly encoded miter
//! before its first DIP query, never while an assumption-scoped query is in
//! flight.

use crate::arena::ClauseRef;
use crate::lit::{Lit, Var};
use crate::solver::{Solver, VAL_FALSE, VAL_TRUE, VAL_UNDEF};

/// Clauses longer than this are not indexed for subsumption; long clauses
/// (e.g. the miter's output disjunction) are rarely subsumed and would
/// dominate the occurrence lists.
const SUB_CLAUSE_MAX: usize = 16;
/// Occurrence lists longer than this are skipped when gathering subsumption
/// candidates, bounding the classic quadratic blowup on frequent literals.
const OCC_CAP: usize = 400;
/// Targets (subsumption) / probes (failed-literal) between stop polls.
/// Inprocessing honours the same [`Solver::set_limits`] deadline and cancel
/// token as search: a caller that asked for a 2-second attack must not
/// first spend 10 seconds inside `preprocess`. Same rationale as the search
/// poll's conflict cadence: `Instant::now` every iteration would be
/// measurable, every 64 it is noise.
const STOP_POLL_INTERVAL: usize = 64;

impl Solver {
    /// Simplifies the clause database in place: root-level sweep,
    /// subsumption, self-subsuming resolution, and budgeted failed-literal
    /// probing (see the [module docs](crate::simplify) for the pipeline and
    /// its soundness argument). A superset of [`Solver::simplify`].
    ///
    /// Must be called with no assumptions in flight (always true between
    /// [`Solver::solve`] calls). The solver remains incrementally usable:
    /// clauses can be added and solved under assumptions afterwards.
    pub fn preprocess(&mut self) {
        if !self.ok {
            return;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        self.root_sweep();
        let pending = self.subsume_pass();
        self.rebuild_watches();
        if !pending.is_empty() {
            for l in pending {
                match self.value(l) {
                    VAL_TRUE => {}
                    VAL_FALSE => {
                        self.ok = false;
                        return;
                    }
                    _ => self.unchecked_enqueue(l, None),
                }
            }
            if self.propagate().is_some() {
                self.ok = false;
                return;
            }
            // The new units may satisfy or weaken further clauses.
            self.root_sweep();
            self.rebuild_watches();
        }
        if self.probe_budget > 0 && !self.probe_pass() {
            return;
        }
        self.maybe_gc();
    }

    /// One bounded subsumption / self-subsuming-resolution sweep over all
    /// live clauses of length `<= SUB_CLAUSE_MAX`. Returns unit literals
    /// produced by strengthening (the caller enqueues them once watch lists
    /// are valid again). Watch lists are stale afterwards.
    fn subsume_pass(&mut self) -> Vec<Lit> {
        let mut pending = Vec::new();
        let list: Vec<ClauseRef> = self
            .arena
            .refs()
            .filter(|&c| !self.arena.is_deleted(c) && self.arena.len(c) <= SUB_CLAUSE_MAX)
            .collect();
        if list.is_empty() {
            return pending;
        }
        let n_codes = self.num_vars() * 2;
        // occ[l] = indices into `list` of clauses containing literal l;
        // sig[i] = 64-bit variable signature of list[i] (sound prefilter:
        // D ⊆ C up to sign flips requires sig(D) ⊆ sig(C)).
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); n_codes];
        let mut sig: Vec<u64> = Vec::with_capacity(list.len());
        for (idx, &c) in list.iter().enumerate() {
            let mut s = 0u64;
            for l in self.arena.lits(c) {
                occ[l.code()].push(idx as u32);
                s |= 1u64 << (l.var().index() % 64);
            }
            sig.push(s);
        }
        let mut lit_stamp: Vec<u32> = vec![0; n_codes];
        let mut clause_stamp: Vec<u32> = vec![0; list.len()];
        let mut target_lits: Vec<Lit> = Vec::new();

        // For each target C, find subsumers/strengtheners D among clauses
        // sharing a literal with C. Complete for both rules whenever
        // D ∩ C ≠ ∅, which subsumption (D ⊆ C) always satisfies and
        // strengthening satisfies unless D is a unit (impossible here: units
        // live on the trail, not in the clause database).
        for ci in 0..list.len() {
            // Stopping between targets is sound: the pass is a pure
            // optimisation and every completed deletion/strengthening
            // stands on its own (the caller rebuilds watches either way).
            if ci % STOP_POLL_INTERVAL == 0 && self.preprocess_should_stop() {
                break;
            }
            let c = list[ci];
            if self.arena.is_deleted(c) {
                continue;
            }
            let stamp = ci as u32 + 1;
            target_lits.clear();
            target_lits.extend(self.arena.lits(c));
            for &l in &target_lits {
                lit_stamp[l.code()] = stamp;
            }
            let mut clen = target_lits.len();

            'candidates: for &l in &target_lits {
                if lit_stamp[l.code()] != stamp {
                    continue; // removed from C by an earlier strengthening
                }
                if occ[l.code()].len() > OCC_CAP {
                    continue;
                }
                for &di in &occ[l.code()] {
                    let di = di as usize;
                    if di == ci || clause_stamp[di] == stamp {
                        continue;
                    }
                    clause_stamp[di] = stamp;
                    let d = list[di];
                    if self.arena.is_deleted(d) || self.arena.len(d) > clen {
                        continue;
                    }
                    if sig[di] & !sig[ci] != 0 {
                        continue;
                    }
                    // Verify D ⊆ C allowing at most one sign-flipped literal.
                    let mut flip: Option<Lit> = None;
                    let mut fits = true;
                    for dl in self.arena.lits(d) {
                        if lit_stamp[dl.code()] == stamp {
                            continue;
                        }
                        if lit_stamp[(!dl).code()] == stamp && flip.is_none() {
                            flip = Some(dl);
                            continue;
                        }
                        fits = false;
                        break;
                    }
                    if !fits {
                        continue;
                    }
                    match flip {
                        None => {
                            // D subsumes C. Only delete C when that cannot
                            // lose information later: a learnt subsumer can
                            // itself be dropped by reduce_db, so it may only
                            // subsume other learnt clauses.
                            if self.arena.is_learnt(d) && !self.arena.is_learnt(c) {
                                continue;
                            }
                            self.free_clause(c);
                            break 'candidates;
                        }
                        Some(dl) => {
                            // Resolving C and D on var(dl) yields C \ {!dl}:
                            // strengthen C in place. Sound even when D is
                            // learnt — the resolvent replaces C permanently.
                            let rem = !dl;
                            let pos = (0..clen)
                                .position(|i| self.arena.lit(c, i) == rem)
                                .expect("flipped literal is in the target");
                            self.arena.swap_lits(c, pos, clen - 1);
                            self.arena.shrink(c, clen - 1);
                            clen -= 1;
                            lit_stamp[rem.code()] = 0;
                            sig[ci] = self
                                .arena
                                .lits(c)
                                .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64));
                            if clen == 1 {
                                pending.push(self.arena.lit(c, 0));
                                self.free_clause(c);
                                break 'candidates;
                            }
                        }
                    }
                }
            }
        }
        pending
    }

    /// Budgeted failed-literal probing at the root: assume each phase of a
    /// variable at a throwaway decision level; a propagation conflict proves
    /// the opposite phase as a level-0 unit. The cursor rotates so repeated
    /// calls cover different variables; probing propagations count into the
    /// ordinary propagation statistics. Returns `false` when probing proved
    /// the formula unsatisfiable.
    fn probe_pass(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let nv = self.num_vars();
        if nv == 0 {
            return true;
        }
        let start_props = self.stats.propagations;
        let mut checked = 0usize;
        while checked < nv && self.stats.propagations - start_props < self.probe_budget {
            // The propagation budget is deterministic but wall-clock-blind;
            // a huge budget on a slow instance must still respect the
            // solver's deadline (same contract as the search loop).
            if checked.is_multiple_of(STOP_POLL_INTERVAL) && self.preprocess_should_stop() {
                break;
            }
            let v = self.probe_cursor % nv;
            self.probe_cursor = (self.probe_cursor + 1) % nv;
            checked += 1;
            if self.assign[v] != VAL_UNDEF {
                continue;
            }
            let var = Var::from_index(v);
            for probe in [Lit::positive(var), Lit::negative(var)] {
                if self.value(probe) != VAL_UNDEF {
                    break; // first phase failed; its negation is now fixed
                }
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(probe, None);
                let conflicted = self.propagate().is_some();
                self.cancel_until(0);
                if conflicted {
                    // probe leads to conflict, so !probe holds at the root.
                    self.unchecked_enqueue(!probe, None);
                    if self.propagate().is_some() {
                        self.ok = false;
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::lit::{Lit, Var};
    use crate::solver::{SolveResult, Solver};

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        s.new_vars(n);
        s
    }

    #[test]
    fn subsumption_deletes_supersets() {
        let mut s = solver_with_vars(4);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(2), lit(3)]); // subsumed
        s.add_clause([lit(1), lit(2), lit(3), lit(4)]); // subsumed
        s.add_clause([lit(3), lit(4)]); // unrelated, stays
        s.preprocess();
        assert_eq!(s.num_clauses(), 2);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        // (x1 | x2) and (!x1 | x2 | x3): resolving on x1 gives (x2 | x3),
        // a strict subset of the second clause, which shrinks in place.
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2), lit(3)]);
        s.preprocess();
        assert_eq!(s.num_clauses(), 2);
        // Force x2 false: the strengthened clause (x2|x3) must now imply x3.
        s.add_clause([lit(-2)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn strengthening_to_unit_propagates() {
        // (x1 | x2) and (!x1 | x2) resolve to the unit x2.
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        s.preprocess();
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(1))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn preprocess_detects_root_unsat() {
        // Strengthening chains down to complementary units.
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        s.add_clause([lit(-1), lit(-2)]);
        s.preprocess();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn failed_literal_probing_finds_units() {
        // x1 -> x2, x1 -> !x2: probing x1 conflicts, so !x1 is forced,
        // even though plain propagation finds nothing (no unit clauses).
        let mut s = solver_with_vars(3);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-1), lit(-2)]);
        s.add_clause([lit(1), lit(3)]); // with !x1 this forces x3
        s.preprocess();
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(!m.value(Var::from_index(0)));
                assert!(m.value(Var::from_index(2)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn probing_can_prove_unsat() {
        // Both phases of x1 conflict.
        let mut s = solver_with_vars(2);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-1), lit(-2)]);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        // Disable subsumption's ability to solve this first by probing only.
        s.preprocess();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn probe_budget_zero_disables_probing() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(1), lit(2)]);
        s.set_probe_budget(0);
        s.preprocess();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn preprocess_keeps_incremental_solving_sound() {
        // Preprocess between incremental additions; verdicts must track the
        // accumulated formula exactly.
        let mut s = solver_with_vars(4);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(1), lit(2), lit(3), lit(4)]); // subsumed
        s.preprocess();
        assert!(s.solve().is_sat());
        s.add_clause([lit(-1)]);
        s.add_clause([lit(-2)]);
        s.preprocess();
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([lit(-3)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn preprocess_respects_assumption_queries_afterwards() {
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.preprocess();
        assert!(s.solve_with_assumptions(&[lit(-1), lit(-2)]).is_unsat());
        assert!(s.solve_with_assumptions(&[lit(-1)]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn preprocess_on_unsat_solver_is_a_noop() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        s.preprocess();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn preprocess_honours_an_expired_deadline() {
        // Regression guard: `preprocess` must poll the same wall-clock
        // deadline as search. A long implication chain makes every probe
        // propagate O(n) literals, so an effectively unlimited probe budget
        // burns ~n²/2 propagations — unless the (already expired) deadline
        // stops the pass almost immediately. Propagation counts are
        // deterministic, so the comparison is machine-independent.
        let n = 400usize;
        let fresh = || {
            let mut s = solver_with_vars(n);
            // Chain only: any extra clause touching the chain variables
            // lets self-subsuming resolution derive a unit (e.g. (1,2) with
            // (-1,2) strengthens to (2)), which fixes the whole chain at the
            // root and leaves probing nothing to do.
            for i in 1..n as i64 {
                s.add_clause([lit(-i), lit(i + 1)]);
            }
            s.set_probe_budget(u64::MAX);
            s
        };

        let mut unbounded = fresh();
        unbounded.preprocess();
        let unbounded_props = unbounded.stats().propagations;
        assert!(
            unbounded_props > 10_000,
            "chain probing should be expensive, got {unbounded_props}"
        );

        let mut bounded = fresh();
        bounded.set_limits(
            budget::Limits::default().with_deadline(std::time::Duration::ZERO),
            std::time::Instant::now(),
        );
        bounded.preprocess();
        let bounded_props = bounded.stats().propagations;
        assert!(
            bounded_props < unbounded_props / 10,
            "expired deadline must stop probing: {bounded_props} vs {unbounded_props}"
        );

        // The half-finished pass leaves the solver sound and usable.
        bounded.set_limits(budget::Limits::default(), std::time::Instant::now());
        assert!(bounded.solve().is_sat());
        bounded.add_clause([lit(1)]);
        bounded.add_clause([lit(-(n as i64))]);
        assert!(bounded.solve().is_unsat(), "x1 forces the whole chain");
    }

    #[test]
    fn learnt_subsumer_does_not_delete_problem_clause() {
        // Regression guard for the soundness rule: a learnt clause may be
        // dropped by reduce_db later, so it must never be the sole survivor
        // of a problem clause it subsumes. Exercised indirectly: run a hard
        // instance (learning many clauses), preprocess, and re-verify.
        let mut s = solver_with_vars(12);
        // php(4,3) over 12 vars.
        let p = |i: i64, j: i64| lit(i * 3 + j + 1);
        for i in 0..4 {
            let clause: Vec<Lit> = (0..3).map(|j| p(i, j)).collect();
            s.add_clause(clause);
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s.preprocess();
        assert!(s.solve().is_unsat());
    }
}
