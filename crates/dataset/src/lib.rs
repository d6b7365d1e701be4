//! Dataset pipeline: obfuscate → attack → label → encode → split.
//!
//! Reproduces the paper's data generation (Section IV-A): take one circuit,
//! repeatedly pick random gates to obfuscate (LUT size 4 in the paper), run
//! the SAT attack, and record the de-obfuscation runtime. Two sweeps are
//! predefined:
//!
//! * **Dataset 1** — encryption locations drawn from 1..=350 (tests
//!   sensitivity to the *quantity* of locked gates);
//! * **Dataset 2** — encryption locations drawn from 1..=3 (tests precision
//!   on very small runtimes).
//!
//! The runtime label is the attack's deterministic solver work (see
//! [`attack::AttackRuntime`]), never its wall-clock time: every resume,
//! cache and bit-identity guarantee of the sweep rests on a label that is a
//! function of the inputs alone. Instances whose attack exceeded the work
//! budget carry a lower-bound label and are flagged
//! [`Instance::censored`].
//!
//! Every label comes from [`generate_parallel_with`], the supervised sweep:
//! it retries and quarantines attacks, on any number of workers, with
//! byte-identical results.
//!
//! # Example
//!
//! ```
//! use dataset::{generate_parallel_with, DatasetConfig};
//!
//! # fn main() -> Result<(), dataset::DatasetError> {
//! let config = DatasetConfig::quick_demo();
//! // One worker, no checkpoint log: the serial sweep.
//! let (data, report) = generate_parallel_with(&config, 1, None)?;
//! assert_eq!(report.quarantined(), 0);
//! assert_eq!(data.instances.len(), config.num_instances);
//! assert!(data.instances.iter().all(|i| i.log_seconds.is_finite()));
//! # Ok(())
//! # }
//! ```

mod checkpoint;
mod csv;
mod encode;
mod error;
mod generate;
mod instance;
mod parallel;
mod split;
mod supervise;

pub use checkpoint::{instance_key, label_fingerprint, supervision_key, CheckpointLog};
pub use csv::{dataset_from_csv, dataset_to_csv};
pub use encode::{flat_features, graph_features, FlatAggregation, StructureEncoding};
pub use error::DatasetError;
pub use generate::{instance_seed, sweep_circuit, Dataset, DatasetConfig};
pub use instance::Instance;
pub use parallel::{generate_parallel_with, SweepFailure, SweepReport, WorkerStats};
pub use split::{train_test_split, Split};
pub use supervise::{AttackHook, FailureKind, InstanceFailure};
