use std::fmt;

/// Deterministic work counters accumulated by a [`Solver`](crate::Solver).
///
/// The dataset pipeline converts these into a reproducible runtime measure
/// (see the `attack` crate), because wall-clock time is machine-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered (= learnt clauses before reduction).
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently retained.
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Solve calls.
    pub solves: u64,
}

impl SolverStats {
    /// A single scalar measure of solver effort, used as the deterministic
    /// runtime proxy: `propagations + 2*decisions + 10*conflicts`.
    ///
    /// The weights approximate the relative instruction cost of each event in
    /// this implementation; the exact values only set the proxy's scale.
    pub fn work(&self) -> u64 {
        self.propagations + 2 * self.decisions + 10 * self.conflicts
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(earlier.learnt_clauses),
            deleted_clauses: self.deleted_clauses.saturating_sub(earlier.deleted_clauses),
            solves: self.solves.saturating_sub(earlier.solves),
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnt={} deleted={} solves={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.solves
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_weights() {
        let s = SolverStats {
            decisions: 3,
            propagations: 5,
            conflicts: 2,
            ..SolverStats::default()
        };
        assert_eq!(s.work(), 5 + 6 + 20);
    }

    #[test]
    fn since_subtracts() {
        let a = SolverStats {
            decisions: 10,
            propagations: 100,
            conflicts: 5,
            ..SolverStats::default()
        };
        let b = SolverStats {
            decisions: 4,
            propagations: 40,
            conflicts: 5,
            ..SolverStats::default()
        };
        let d = a.since(&b);
        assert_eq!(d.decisions, 6);
        assert_eq!(d.propagations, 60);
        assert_eq!(d.conflicts, 0);
    }

    #[test]
    fn display_mentions_counters() {
        let s = SolverStats::default();
        let text = s.to_string();
        assert!(text.contains("decisions=0"));
        assert!(text.contains("conflicts=0"));
    }
}
