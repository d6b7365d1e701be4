//! A from-scratch CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the attack engine of the ICNet reproduction: the oracle-guided
//! SAT attack in the `attack` crate drives this solver incrementally. The
//! implementation follows the MiniSat lineage:
//!
//! * an arena-allocated clause store (one flat `u32` buffer addressed by
//!   `ClauseRef` offsets) with compacting garbage collection instead of
//!   per-clause heap boxes,
//! * two-literal watching with blocker literals for fast unit propagation,
//! * VSIDS variable activity with a binary heap and phase saving,
//! * first-UIP conflict analysis with clause minimization,
//! * Luby-sequence restarts,
//! * learnt-clause database reduction driven by LBD and activity,
//! * incremental solving under assumptions with a conflict budget,
//! * an inprocessing pass ([`Solver::preprocess`]) doing root-level
//!   sweeping, subsumption, self-subsuming resolution, and budgeted
//!   failed-literal probing between incremental solves,
//! * one stop poll over a [`budget::Limits`] ([`Solver::set_limits`]): the
//!   per-solve conflict cap, the run deadline, a logical-byte memory budget
//!   and a cancel token.
//!
//! Clauses enter through the API only; the `cnf` crate encodes circuits
//! straight into a live solver, so there is no file format.
//!
//! The solver also exposes deterministic work counters ([`SolverStats`])
//! which the dataset pipeline uses as its runtime label.
//!
//! # Example
//!
//! ```
//! use sat::{Lit, SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a | b) & (!a | b) forces b.
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a), Lit::positive(b)]);
//! match solver.solve() {
//!     SolveResult::Sat(model) => assert!(model.value(b)),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

mod arena;
mod heap;
mod lit;
mod model;
pub mod naive;
mod simplify;
mod solver;
mod stats;

pub use lit::{Lit, Var};
pub use model::Model;
pub use solver::{SolveResult, Solver};
pub use stats::SolverStats;
