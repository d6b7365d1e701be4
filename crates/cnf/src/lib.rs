//! CNF infrastructure: Tseitin encoding of netlists and miter construction.
//!
//! This crate bridges the [`netlist`] IR to the [`sat`] solver. Its central
//! abstraction is [`ClauseSink`], implemented both by [`CnfFormula`] (an
//! in-memory clause list, convertible to DIMACS) and by [`sat::Solver`]
//! (direct incremental encoding, which is what the SAT attack uses).
//! [`encode_miter`] shares every gate the key cannot reach between the
//! miter's two key copies. [`IoConstraint`] is the attack's per-DIP
//! constraint: a key copy pinned to an oracle observation, analysed once per
//! DIP and encoded over only the logic the key can still move.
//!
//! # Example
//!
//! ```
//! use cnf::{encode_circuit, ClauseSink};
//! use sat::{Lit, SolveResult, Solver};
//!
//! let circuit = netlist::c17();
//! let mut solver = Solver::new();
//! let enc = encode_circuit(&circuit, &mut solver);
//!
//! // Fix all inputs to 1 and check the encoding is satisfiable.
//! for &id in circuit.inputs() {
//!     solver.add_clause([Lit::positive(enc.var(id))]);
//! }
//! assert!(matches!(solver.solve(), SolveResult::Sat(_)));
//! ```

mod encode;
mod formula;
mod io_constraint;
mod miter;

pub use encode::{encode_circuit, encode_circuit_with, CircuitEncoding, EncodeOptions};
pub use formula::CnfFormula;
pub use io_constraint::IoConstraint;
pub use miter::{encode_miter, MiterEncoding};

use sat::{Lit, Var};

/// A destination for freshly encoded variables and clauses.
///
/// Implemented by [`CnfFormula`] and by [`sat::Solver`], so encoders can
/// target either an in-memory formula or a live solver.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;

    /// Adds a clause (a disjunction of literals).
    fn add_sink_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for sat::Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_sink_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

/// Emits clauses constraining `y = a XOR b` and returns `y`.
pub fn encode_xor(sink: &mut impl ClauseSink, a: Lit, b: Lit) -> Var {
    let y = sink.fresh_var();
    let yl = Lit::positive(y);
    sink.add_sink_clause(&[!yl, a, b]);
    sink.add_sink_clause(&[!yl, !a, !b]);
    sink.add_sink_clause(&[yl, !a, b]);
    sink.add_sink_clause(&[yl, a, !b]);
    y
}

/// Emits clauses constraining `y = OR(lits)` and returns `y`.
///
/// # Panics
///
/// Panics when `lits` is empty (an empty OR has no Tseitin form here).
pub fn encode_or(sink: &mut impl ClauseSink, lits: &[Lit]) -> Var {
    assert!(!lits.is_empty(), "encode_or needs at least one literal");
    let y = sink.fresh_var();
    let yl = Lit::positive(y);
    for &l in lits {
        sink.add_sink_clause(&[yl, !l]);
    }
    let mut big: Vec<Lit> = vec![!yl];
    big.extend_from_slice(lits);
    sink.add_sink_clause(&big);
    y
}

/// Emits clauses constraining `y = AND(lits)` and returns `y`.
///
/// # Panics
///
/// Panics when `lits` is empty.
pub fn encode_and(sink: &mut impl ClauseSink, lits: &[Lit]) -> Var {
    assert!(!lits.is_empty(), "encode_and needs at least one literal");
    let y = sink.fresh_var();
    let yl = Lit::positive(y);
    for &l in lits {
        sink.add_sink_clause(&[!yl, l]);
    }
    let mut big: Vec<Lit> = vec![yl];
    big.extend(lits.iter().map(|&l| !l));
    sink.add_sink_clause(&big);
    y
}

/// Adds unit clauses fixing each variable to the given constant.
///
/// # Panics
///
/// Panics if `vars` and `values` have different lengths.
pub fn fix_vars(sink: &mut impl ClauseSink, vars: &[Var], values: &[bool]) {
    assert_eq!(vars.len(), values.len(), "fix_vars length mismatch");
    for (&v, &b) in vars.iter().zip(values) {
        sink.add_sink_clause(&[Lit::new(v, !b)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SolveResult, Solver};

    #[test]
    fn encode_xor_truth_table() {
        for a_val in [false, true] {
            for b_val in [false, true] {
                let mut s = Solver::new();
                let a = s.new_var();
                let b = s.new_var();
                let y = encode_xor(&mut s, Lit::positive(a), Lit::positive(b));
                fix_vars(&mut s, &[a, b], &[a_val, b_val]);
                match s.solve() {
                    SolveResult::Sat(m) => assert_eq!(m.value(y), a_val ^ b_val),
                    other => panic!("expected SAT, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn encode_or_and_cover_all_inputs() {
        for pattern in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| (pattern >> i) & 1 == 1).collect();
            let mut s = Solver::new();
            let vars: Vec<_> = (0..3).map(|_| s.new_var()).collect();
            let lits: Vec<Lit> = vars.iter().map(|&v| Lit::positive(v)).collect();
            let or = encode_or(&mut s, &lits);
            let and = encode_and(&mut s, &lits);
            fix_vars(&mut s, &vars, &vals);
            match s.solve() {
                SolveResult::Sat(m) => {
                    assert_eq!(m.value(or), vals.iter().any(|&v| v));
                    assert_eq!(m.value(and), vals.iter().all(|&v| v));
                }
                other => panic!("expected SAT, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one literal")]
    fn encode_or_empty_panics() {
        let mut s = Solver::new();
        encode_or(&mut s, &[]);
    }
}
