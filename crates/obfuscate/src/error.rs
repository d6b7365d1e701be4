use std::fmt;

/// Errors produced while locking a circuit or applying a key.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObfuscateError {
    /// Fewer eligible gates exist than locking locations were requested.
    NotEnoughGates {
        /// Eligible gates in the circuit.
        available: usize,
        /// Locations requested.
        requested: usize,
    },
    /// The requested LUT size is outside the supported 1..=6 range.
    BadLutSize(usize),
    /// The requested Anti-SAT key width is outside the supported 2..=16
    /// range (the comparator AND/NAND trees need at least two fan-ins, and
    /// the DIP count 2^w makes widths past 16 unattackable in any sweep).
    BadKeyWidth(usize),
    /// The circuit has fewer primary inputs than an Anti-SAT block needs
    /// tap points.
    NotEnoughInputs {
        /// Primary inputs in the circuit.
        available: usize,
        /// Tap points one block requires (= the key width).
        required: usize,
    },
    /// A key of the wrong length was supplied.
    KeyLengthMismatch {
        /// Key bits the locked circuit expects.
        expected: usize,
        /// Key bits supplied.
        actual: usize,
    },
    /// The underlying netlist operation failed (name clash, cycle, ...).
    Netlist(netlist::NetlistError),
}

impl fmt::Display for ObfuscateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObfuscateError::NotEnoughGates {
                available,
                requested,
            } => write!(
                f,
                "requested {requested} locking locations but only {available} gates are eligible"
            ),
            ObfuscateError::BadLutSize(k) => {
                write!(f, "LUT size {k} unsupported (must be 1..=6)")
            }
            ObfuscateError::BadKeyWidth(w) => {
                write!(f, "Anti-SAT key width {w} unsupported (must be 2..=16)")
            }
            ObfuscateError::NotEnoughInputs {
                available,
                required,
            } => write!(
                f,
                "Anti-SAT block needs {required} tap inputs but the circuit has {available}"
            ),
            ObfuscateError::KeyLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "key has {actual} bits, locked circuit expects {expected}"
                )
            }
            ObfuscateError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for ObfuscateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObfuscateError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<netlist::NetlistError> for ObfuscateError {
    fn from(e: netlist::NetlistError) -> Self {
        ObfuscateError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ObfuscateError::NotEnoughGates {
            available: 3,
            requested: 10,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn netlist_error_wraps_with_source() {
        use std::error::Error as _;
        let inner = netlist::NetlistError::DuplicateSignal("x".into());
        let e = ObfuscateError::from(inner);
        assert!(e.source().is_some());
    }
}
