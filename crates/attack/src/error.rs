use std::fmt;

/// Errors produced while running the SAT attack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// The circuit under attack has no key inputs.
    NothingToAttack,
    /// The circuit under attack has no outputs to observe.
    NoOutputs,
    /// The accumulated I/O constraints became unsatisfiable, meaning the
    /// oracle's behaviour cannot be produced by any key — the oracle and the
    /// locked netlist do not match.
    OracleInconsistent,
    /// A netlist operation failed.
    Netlist(netlist::NetlistError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NothingToAttack => {
                f.write_str("circuit has no key inputs; nothing to attack")
            }
            AttackError::NoOutputs => f.write_str("circuit has no outputs to observe"),
            AttackError::OracleInconsistent => {
                f.write_str("oracle responses are inconsistent with the locked netlist")
            }
            AttackError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<netlist::NetlistError> for AttackError {
    fn from(e: netlist::NetlistError) -> Self {
        AttackError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(AttackError::NothingToAttack.to_string().contains("key"));
        assert!(AttackError::OracleInconsistent
            .to_string()
            .contains("inconsistent"));
    }
}
