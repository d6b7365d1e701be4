//! Oracle-guided SAT attack on locked circuits (Subramanyan et al., HOST'15).
//!
//! The attack owns an activated chip (the *oracle*) and the locked netlist.
//! It repeatedly solves a double-keyed miter for a *distinguishing input
//! pattern* (DIP) — an input on which two key candidates disagree — queries
//! the oracle on that DIP, and constrains both key copies to reproduce the
//! observed output. When no DIP remains, any key satisfying the accumulated
//! constraints is functionally correct.
//!
//! The attack reports two runtimes (see [`AttackRuntime`]). The
//! deterministic *solver-work* measure is the dataset pipeline's one label:
//! it is machine-independent and reproducible, while preserving the paper's
//! key property that runtime varies steeply with the number and position of
//! obfuscated gates. The wall-clock time is reported, never a label.
//!
//! A run stops on the bounds of its [`AttackConfig`]. The whole-attack
//! deadline ends it as [`AttackOutcome::TimedOut`], a machine-dependent
//! verdict the sweep quarantines; a single pathological query is bounded by
//! the deterministic per-solve conflict cap instead, which ends the run as
//! a censored [`AttackOutcome::BudgetExceeded`].
//!
//! # Example
//!
//! ```
//! use attack::{attack_locked, AttackConfig, AttackOutcome};
//! use obfuscate::{lock_random, SchemeKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 3, 7)?;
//! let result = attack_locked(&locked, &AttackConfig::default())?;
//! match &result.outcome {
//!     AttackOutcome::KeyRecovered(key) => assert!(locked.verify_key(key)?),
//!     other => panic!("attack should finish on c17, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

mod dip;
mod error;
mod oracle;
mod runtime;

pub use dip::{attack, attack_locked, AttackConfig, AttackOutcome, AttackResult};
pub use error::AttackError;
pub use oracle::{Oracle, SimOracle};
pub use runtime::{AttackRuntime, WORK_UNITS_PER_SECOND};
