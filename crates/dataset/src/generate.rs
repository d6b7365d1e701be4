use crate::error::DatasetError;
use crate::instance::Instance;
use crate::supervise::{AttackHook, RetryPolicy};
use attack::{AttackConfig, AttackOutcome, AttackResult, RuntimeMeasure};
use netlist::Circuit;
use obfuscate::{eligible_gates, lut_lock, select_gates, LockedCircuit, SchemeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Full parameterization of one dataset sweep.
#[derive(Clone)]
pub struct DatasetConfig {
    /// Circuit profile name (see [`synth::iscas`]); the paper uses one
    /// 1529-gate circuit (`"c1529"`).
    pub profile: String,
    /// Seed of the synthetic circuit.
    pub circuit_seed: u64,
    /// Locking scheme (the paper: LUT locking with LUT size 4).
    pub scheme: SchemeKind,
    /// Number of labeled instances to generate.
    pub num_instances: usize,
    /// Inclusive range the per-instance key-gate count is drawn from
    /// (Dataset 1: `(1, 350)`; Dataset 2: `(1, 3)`).
    pub key_range: (usize, usize),
    /// Master seed for gate selection and locking.
    pub seed: u64,
    /// Resource limits for each attack run. Its cancel token is the sweep's
    /// one interrupt (operator Ctrl-C): the sweep derives its internal
    /// worker token as a *child* of it, so the sweep can abort its own
    /// workers on an internal error without tripping the caller's token.
    pub attack: AttackConfig,
    /// Which runtime measure becomes the label.
    pub measure: RuntimeMeasure,
    /// How timed-out / panicking attacks are retried before quarantine.
    pub retry: RetryPolicy,
    /// When true (the default), a sweep quarantines instances that exhaust
    /// their retries and keeps going, completing with a partial dataset and
    /// a failure report; when false, the first such failure aborts the
    /// sweep with [`DatasetError::Quarantined`].
    pub keep_going: bool,
    /// Optional replacement attack runner (fault injection in tests);
    /// `None` = the real [`attack::attack_locked`].
    pub attack_hook: Option<AttackHook>,
}

impl fmt::Debug for DatasetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatasetConfig")
            .field("profile", &self.profile)
            .field("circuit_seed", &self.circuit_seed)
            .field("scheme", &self.scheme)
            .field("num_instances", &self.num_instances)
            .field("key_range", &self.key_range)
            .field("seed", &self.seed)
            .field("attack", &self.attack)
            .field("measure", &self.measure)
            .field("retry", &self.retry)
            .field("keep_going", &self.keep_going)
            .field("attack_hook", &self.attack_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl DatasetConfig {
    /// The paper's Dataset 1 sweep (1..=350 key gates, LUT-4) on `profile`.
    pub fn dataset1(profile: &str, num_instances: usize) -> Self {
        DatasetConfig {
            profile: profile.to_owned(),
            circuit_seed: 0,
            scheme: SchemeKind::LutLock { lut_size: 4 },
            num_instances,
            key_range: (1, 350),
            seed: 1,
            attack: AttackConfig::with_work_budget(50_000_000),
            measure: RuntimeMeasure::SolverWork,
            retry: RetryPolicy::default(),
            keep_going: true,
            attack_hook: None,
        }
    }

    /// The paper's Dataset 2 sweep (1..=3 key gates, LUT-4) on `profile`.
    pub fn dataset2(profile: &str, num_instances: usize) -> Self {
        DatasetConfig {
            key_range: (1, 3),
            seed: 2,
            ..DatasetConfig::dataset1(profile, num_instances)
        }
    }

    /// A seconds-scale configuration for tests and doc examples: a small
    /// circuit, few instances, XOR locking (cheapest to attack).
    pub fn quick_demo() -> Self {
        DatasetConfig {
            profile: "c432".to_owned(),
            circuit_seed: 0,
            scheme: SchemeKind::XorLock,
            num_instances: 8,
            key_range: (1, 6),
            seed: 3,
            attack: AttackConfig::with_work_budget(5_000_000),
            measure: RuntimeMeasure::SolverWork,
            retry: RetryPolicy::default(),
            keep_going: true,
            attack_hook: None,
        }
    }
}

/// A generated dataset: the (shared) original circuit plus labeled
/// instances.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The unlocked base circuit every instance obfuscates.
    pub circuit: Circuit,
    /// Labeled obfuscation instances.
    pub instances: Vec<Instance>,
}

impl Dataset {
    /// The log-runtime labels, in instance order.
    pub fn labels(&self) -> Vec<f64> {
        self.instances.iter().map(|i| i.log_seconds).collect()
    }

    /// Fraction of instances whose attack hit the budget.
    pub fn censored_fraction(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().filter(|i| i.censored).count() as f64 / self.instances.len() as f64
    }
}

/// Derives the RNG seed for instance `index` of a sweep with master seed
/// `master` (a SplitMix64 mix).
///
/// Each instance owns an independent seed, so any subset of instances can be
/// (re)generated in any order — by any number of worker threads — and the
/// result is identical for every worker count (see
/// [`crate::generate_parallel_with`]).
pub fn instance_seed(master: u64, index: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x0DA7_A5E7)
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Validates `config` and builds the base circuit every instance locks.
///
/// # Errors
///
/// Returns [`DatasetError::UnknownProfile`] for a bad profile name and
/// [`DatasetError::BadKeyRange`] when the sweep asks for more locked gates
/// than the circuit can supply.
pub fn sweep_circuit(config: &DatasetConfig) -> Result<Circuit, DatasetError> {
    let circuit = synth::iscas::circuit(&config.profile, config.circuit_seed)
        .ok_or_else(|| DatasetError::UnknownProfile(config.profile.clone()))?;
    let available = eligible_gates(&circuit, config.scheme).len();
    let (lo, hi) = config.key_range;
    if lo == 0 || lo > hi || hi > available {
        return Err(DatasetError::BadKeyRange {
            range: config.key_range,
            available,
        });
    }
    Ok(circuit)
}

/// Draws the key-gate selection and locks `circuit` for instance `index` —
/// a pure function of `(config, index)` and the cheap half of labeling an
/// instance, reused by checkpointing to identify an instance without
/// re-running its attack.
///
/// # Errors
///
/// Wraps locking failures as [`DatasetError::Obfuscate`].
pub(crate) fn lock_instance(
    config: &DatasetConfig,
    circuit: &Circuit,
    index: usize,
) -> Result<LockedCircuit, DatasetError> {
    let mut rng = StdRng::seed_from_u64(instance_seed(config.seed, index));
    let (lo, hi) = config.key_range;
    let count = rng.gen_range(lo..=hi);
    let selected = select_gates(circuit, config.scheme, count, &mut rng)?;
    let locked = match config.scheme {
        SchemeKind::LutLock { lut_size } => lut_lock(circuit, &selected, lut_size, &mut rng)?,
        SchemeKind::XorLock => obfuscate::xor_lock(circuit, &selected, &mut rng)?,
        SchemeKind::MuxLock => obfuscate::mux_lock(circuit, &selected, &mut rng)?,
        SchemeKind::AntiSat { key_width } => {
            obfuscate::anti_sat_lock(circuit, &selected, key_width, &mut rng)?
        }
    };
    Ok(locked)
}

/// Builds the label for an already locked and attacked instance.
pub(crate) fn label_instance(
    config: &DatasetConfig,
    locked: &LockedCircuit,
    result: &AttackResult,
) -> Instance {
    let seconds = result.runtime.seconds(config.measure);
    Instance {
        selected: locked.selected.clone(),
        key_bits: locked.key_len(),
        iterations: result.iterations,
        work: result.runtime.work,
        seconds,
        log_seconds: seconds.max(1e-6).ln(),
        censored: matches!(
            result.outcome,
            AttackOutcome::BudgetExceeded | AttackOutcome::TimedOut(_)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one labeling path: the supervised sweep, on one worker.
    fn sweep(config: &DatasetConfig) -> Result<Dataset, DatasetError> {
        crate::generate_parallel_with(config, 1, None).map(|(data, _)| data)
    }

    #[test]
    fn quick_demo_generates_labeled_instances() {
        let config = DatasetConfig::quick_demo();
        let data = sweep(&config).unwrap();
        assert_eq!(data.instances.len(), 8);
        for inst in &data.instances {
            assert!(inst.num_selected() >= 1 && inst.num_selected() <= 6);
            assert!(inst.seconds > 0.0);
            assert!(inst.log_seconds.is_finite());
            assert_eq!(inst.key_bits, inst.num_selected()); // XOR lock: 1 bit/gate
        }
        assert_eq!(data.labels().len(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = DatasetConfig::quick_demo();
        let a = sweep(&config).unwrap();
        let b = sweep(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn runtime_grows_with_key_count_on_average() {
        // The premise of the whole paper, checked end to end. LUT locking
        // gives the labels real dynamic range on c432; XOR-locked attacks
        // there finish in a near-constant few DIP rounds, so their
        // key-count/runtime correlation is sampling noise.
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 12;
        config.scheme = SchemeKind::LutLock { lut_size: 2 };
        config.key_range = (1, 12);
        let data = sweep(&config).unwrap();
        let counts: Vec<f64> = data
            .instances
            .iter()
            .map(|i| i.num_selected() as f64)
            .collect();
        let corr = regress_corr(&counts, &data.labels());
        assert!(corr > 0.3, "key-count/runtime correlation {corr}");
    }

    fn regress_corr(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|&x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|&y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }

    #[test]
    fn bad_profile_and_range_are_rejected() {
        let mut config = DatasetConfig::quick_demo();
        config.profile = "c9999".into();
        assert!(matches!(
            sweep(&config),
            Err(DatasetError::UnknownProfile(_))
        ));
        let mut config = DatasetConfig::quick_demo();
        config.key_range = (1, 100_000);
        assert!(matches!(
            sweep(&config),
            Err(DatasetError::BadKeyRange { .. })
        ));
        let mut config = DatasetConfig::quick_demo();
        config.key_range = (0, 3);
        assert!(matches!(
            sweep(&config),
            Err(DatasetError::BadKeyRange { .. })
        ));
    }

    #[test]
    fn golden_labels_pin_the_labelling_algorithm() {
        // "iterations work label" of fixed `(config, index)` instances. Any
        // change to the attack, its constraint encoder or the solver that
        // moves one of these must bump `LABEL_REVISION` and re-record them.
        assert_eq!(
            crate::checkpoint::LABEL_REVISION,
            3,
            "re-record the golden labels"
        );
        let xor = DatasetConfig {
            num_instances: 2,
            ..DatasetConfig::quick_demo()
        };
        let lut4 = DatasetConfig {
            scheme: SchemeKind::LutLock { lut_size: 4 },
            key_range: (2, 4),
            ..xor.clone()
        };
        let anti_sat = DatasetConfig {
            scheme: SchemeKind::AntiSat { key_width: 4 },
            key_range: (1, 1),
            ..xor.clone()
        };
        for (config, golden) in [
            (&xor, ["1 3794 -8.570067", "4 24863 -6.690107"]),
            (&lut4, ["23 22216 -6.802675", "33 58688 -5.831252"]),
            (&anti_sat, ["16 9717 -7.629611", "16 9570 -7.644854"]),
        ] {
            let got: Vec<String> = sweep(config)
                .unwrap()
                .instances
                .iter()
                .map(|i| format!("{} {} {:.6}", i.iterations, i.work, i.log_seconds))
                .collect();
            assert_eq!(got, golden, "{}", config.scheme);
        }
    }

    #[test]
    fn dataset_presets_have_paper_ranges() {
        let d1 = DatasetConfig::dataset1("c1529", 100);
        assert_eq!(d1.key_range, (1, 350));
        assert_eq!(d1.scheme, SchemeKind::LutLock { lut_size: 4 });
        let d2 = DatasetConfig::dataset2("c1529", 100);
        assert_eq!(d2.key_range, (1, 3));
    }
}
