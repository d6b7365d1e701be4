use crate::ClauseSink;
use sat::{Lit, Var};
use std::fmt;

/// An in-memory CNF formula: a variable count plus a clause list.
///
/// Useful for inspecting or serializing an encoding without a live solver.
///
/// ```
/// use cnf::{encode_circuit, CnfFormula};
///
/// let mut formula = CnfFormula::new();
/// let enc = encode_circuit(&netlist::c17(), &mut formula);
/// assert_eq!(formula.num_vars(), netlist::c17().num_gates());
/// assert!(formula.num_clauses() > 0);
/// let _dimacs = formula.to_dimacs();
/// # let _ = enc;
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl CnfFormula {
    /// Creates an empty formula.
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clause list.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Serializes the formula as DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        sat::write_dimacs(self.num_vars, &self.clauses)
    }

    /// Loads every clause into a fresh [`sat::Solver`].
    pub fn to_solver(&self) -> sat::Solver {
        let mut solver = sat::Solver::new();
        solver.new_vars(self.num_vars);
        for clause in &self.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Evaluates the formula under a full assignment (index = variable).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the number of variables used.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|&l| assignment[l.var().index()] == l.is_positive())
        })
    }
}

impl ClauseSink for CnfFormula {
    fn fresh_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_sink_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cnf with {} vars, {} clauses",
            self.num_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_xor, fix_vars};

    #[test]
    fn formula_collects_clauses() {
        let mut f = CnfFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        let y = encode_xor(&mut f, Lit::positive(a), Lit::positive(b));
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 4);
        // y = a ^ b holds in eval.
        assert!(f.eval(&[true, false, true]));
        assert!(!f.eval(&[true, false, false]));
        let _ = y;
    }

    #[test]
    fn to_solver_round_trip() {
        let mut f = CnfFormula::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        let _y = encode_xor(&mut f, Lit::positive(a), Lit::positive(b));
        fix_vars(&mut f, &[a, b], &[true, true]);
        let mut solver = f.to_solver();
        match solver.solve() {
            sat::SolveResult::Sat(m) => assert!(!m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn dimacs_export_parses_back() {
        let mut f = CnfFormula::new();
        let a = f.fresh_var();
        f.add_sink_clause(&[Lit::positive(a)]);
        let (vars, clauses) = sat::parse_dimacs(&f.to_dimacs()).unwrap();
        assert_eq!(vars, 1);
        assert_eq!(clauses.len(), 1);
    }

    #[test]
    fn display_is_informative() {
        let f = CnfFormula::new();
        assert!(f.to_string().contains("0 vars"));
    }
}
