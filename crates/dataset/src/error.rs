use std::fmt;

/// Errors produced by dataset generation or persistence.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The requested circuit profile does not exist.
    UnknownProfile(String),
    /// The key-count range is empty or exceeds the circuit's eligible gates.
    BadKeyRange {
        /// Configured inclusive range.
        range: (usize, usize),
        /// Eligible gates available.
        available: usize,
    },
    /// A locking operation failed.
    Obfuscate(obfuscate::ObfuscateError),
    /// A CSV line could not be parsed.
    ParseCsv {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A filesystem operation on a dataset artifact failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered (keeps the type `Clone`).
        message: String,
    },
    /// A checkpoint log record is corrupt.
    Checkpoint {
        /// 1-based line number in the log.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The sweep was cancelled by an external interrupt (operator Ctrl-C)
    /// before every instance was attacked. Work finished so far is already
    /// persisted in the checkpoint log; rerunning resumes from it.
    Interrupted,
    /// Every worker died (injected death or panic escape) before the sweep
    /// covered all instances, leaving some unattacked with no error and no
    /// cancellation to explain them.
    WorkerLoss {
        /// Instances left neither labeled nor quarantined.
        unprocessed: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::UnknownProfile(name) => write!(f, "unknown circuit profile `{name}`"),
            DatasetError::BadKeyRange { range, available } => write!(
                f,
                "key-count range {}..={} invalid for {} eligible gates",
                range.0, range.1, available
            ),
            DatasetError::Obfuscate(e) => write!(f, "obfuscation failed: {e}"),
            DatasetError::ParseCsv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DatasetError::Io { path, message } => {
                write!(f, "io error on `{path}`: {message}")
            }
            DatasetError::Checkpoint { line, message } => {
                write!(f, "corrupt checkpoint record at line {line}: {message}")
            }
            DatasetError::Interrupted => {
                write!(
                    f,
                    "sweep interrupted before completion (progress checkpointed)"
                )
            }
            DatasetError::WorkerLoss { unprocessed } => write!(
                f,
                "all sweep workers died with {unprocessed} instance(s) unprocessed"
            ),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Obfuscate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<obfuscate::ObfuscateError> for DatasetError {
    fn from(e: obfuscate::ObfuscateError) -> Self {
        DatasetError::Obfuscate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DatasetError::UnknownProfile("cX".into())
            .to_string()
            .contains("cX"));
        assert!(DatasetError::BadKeyRange {
            range: (1, 400),
            available: 100
        }
        .to_string()
        .contains("400"));
    }
}
