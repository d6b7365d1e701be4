use netlist::GateId;

/// One labeled obfuscation instance: which gates were locked, and how long
/// the SAT attack took.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Gate ids (in the *original* circuit) selected for obfuscation — the
    /// paper's encryption-location vector.
    pub selected: Vec<GateId>,
    /// Key bits of the locked netlist.
    pub key_bits: usize,
    /// DIP iterations the attack used.
    pub iterations: usize,
    /// Deterministic solver work expended.
    pub work: u64,
    /// Runtime label in synthetic seconds (solver work over
    /// [`attack::WORK_UNITS_PER_SECOND`]).
    pub seconds: f64,
    /// `ln(seconds)` — the regression target (runtime grows exponentially
    /// with key count, so models are trained on the log scale).
    pub log_seconds: f64,
    /// True when the attack hit its budget: `seconds` is a lower bound.
    pub censored: bool,
}

impl Instance {
    /// Number of obfuscated gates.
    pub fn num_selected(&self) -> usize {
        self.selected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let inst = Instance {
            selected: vec![GateId::from_index(3), GateId::from_index(9)],
            key_bits: 32,
            iterations: 7,
            work: 1000,
            seconds: 0.5,
            log_seconds: (0.5f64).ln(),
            censored: false,
        };
        assert_eq!(inst.num_selected(), 2);
        assert!(inst.log_seconds < 0.0);
    }
}
