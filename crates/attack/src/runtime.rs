use sat::SolverStats;
use std::fmt;
use std::time::Duration;

/// Calibration constant converting solver work units into synthetic seconds.
///
/// One work unit (see [`SolverStats::work`]) corresponds roughly to a few
/// tens of machine instructions in this solver; 2e7 units/second puts the
/// synthetic timescale in the same ballpark as the wall-clock of a release
/// build on commodity hardware. Only the *scale* of runtime labels depends
/// on this constant, never their ordering.
pub const WORK_UNITS_PER_SECOND: f64 = 2.0e7;

/// The runtime of one attack: the deterministic solver work that labels
/// it, and the wall-clock time it took.
///
/// The label is always the work: the paper's tables are about the
/// *relationships* between runtimes, which the proxy preserves while making
/// every label bit-reproducible across machines, worker counts and resumed
/// runs. The wall time is reported, never a label.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackRuntime {
    /// Solver work expended (deterministic).
    pub work: u64,
    /// Wall-clock time elapsed (reported only).
    pub wall: Duration,
}

impl AttackRuntime {
    /// Builds a runtime record from solver counters plus elapsed time.
    pub fn new(stats: &SolverStats, wall: Duration) -> Self {
        AttackRuntime {
            work: stats.work(),
            wall,
        }
    }

    /// Runtime in synthetic seconds: the work over
    /// [`WORK_UNITS_PER_SECOND`].
    pub fn seconds(&self) -> f64 {
        self.work as f64 / WORK_UNITS_PER_SECOND
    }

    /// Natural log of the runtime in seconds, floored to avoid `-inf` on
    /// sub-microsecond attacks. Runtime prediction is trained on this scale
    /// because deobfuscation time grows exponentially with key count
    /// (paper, Eq. 3).
    pub fn log_seconds(&self) -> f64 {
        self.seconds().max(1e-6).ln()
    }
}

impl fmt::Display for AttackRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3}s synthetic ({} work units, {:.3}s wall)",
            self.seconds(),
            self.work,
            self.wall.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_count_work_not_wall() {
        let rt = AttackRuntime {
            work: 2_000_000,
            wall: Duration::from_millis(250),
        };
        assert!((rt.seconds() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn log_seconds_is_floored() {
        let rt = AttackRuntime {
            work: 0,
            wall: Duration::ZERO,
        };
        assert!(rt.log_seconds().is_finite());
    }

    #[test]
    fn log_seconds_flooring_boundary() {
        // The 1e-6 s floor corresponds to exactly 20 work units at the
        // calibration constant: everything at or below collapses to
        // ln(1e-6); everything above is the exact logarithm. The CSV layer
        // round-trips the floored value bit-exactly (see dataset::csv).
        let floor = (1e-6f64).ln();
        for work in [0u64, 1, 19, 20] {
            let rt = AttackRuntime {
                work,
                wall: Duration::ZERO,
            };
            assert_eq!(rt.log_seconds(), floor);
        }
        let above = AttackRuntime {
            work: 21,
            wall: Duration::ZERO,
        };
        let got = above.log_seconds();
        assert_eq!(got, (21.0 / WORK_UNITS_PER_SECOND).ln());
        assert!(got > floor);
    }

    #[test]
    fn display_shows_both() {
        let rt = AttackRuntime {
            work: 100,
            wall: Duration::from_secs(1),
        };
        let text = rt.to_string();
        assert!(text.contains("work units"));
        assert!(text.contains("wall"));
    }
}
