//! Label sweeps: the supervised sweep every bench binary uses
//! (`dataset::generate_parallel_with`, one worker, no checkpoint), run in
//! chunks so a run's size follows `--seconds`, with an attack hook that
//! times each attack and its oracle from outside the library.

use crate::report::{ms_since, Events, Ledger, Outcome};
use crate::stats::{self, TAIL_BEYOND};
use attack::{AttackConfig, AttackOutcome, Oracle, SimOracle};
use dataset::{AttackHook, DatasetConfig, Instance};
use netlist::{Circuit, GateId};
use obfuscate::{Key, LockedCircuit, SchemeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sat::{Solver, SolverStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One sweep shape: circuit profile, locking scheme and key-gate range.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// ISCAS-85 profile of the base circuit.
    pub profile: &'static str,
    /// Locking scheme.
    pub scheme: SchemeKind,
    /// Inclusive key-gate count range.
    pub key_range: (usize, usize),
    /// Instances per sweep call.
    pub chunk: usize,
}

/// The paper's pipeline, scaled down: LUT-4 locking of c1529.
pub const LUT4_C1529: Spec = Spec {
    profile: "c1529",
    scheme: SchemeKind::LutLock { lut_size: 4 },
    key_range: (1, 6),
    chunk: 8,
};

/// Iteration-heavy label generation: Anti-SAT (key width 5) on c880.
pub const ANTISAT_C880: Spec = Spec {
    profile: "c880",
    scheme: SchemeKind::AntiSat { key_width: 5 },
    key_range: (1, 4),
    chunk: 8,
};

/// The sweep's base circuit. It is fixed per profile (circuit seed 0, as in
/// the paper's single-circuit sweeps); the workload seed drives everything
/// locked on top of it.
pub fn base_circuit(spec: &Spec) -> Circuit {
    synth::iscas::circuit(spec.profile, 0).expect("known profile")
}

/// What the hook saw of one attack.
#[derive(Debug, Clone)]
pub struct AttackRecord {
    chunk: usize,
    index: usize,
    wall_ns: u64,
    oracle_ns: u64,
    oracle_queries: usize,
    iterations: usize,
    stats: SolverStats,
    peak_bytes: u64,
    censored: bool,
    recovered: Option<Key>,
    selected: Vec<GateId>,
    true_key: Key,
}

/// One finished sweep call.
#[derive(Debug)]
pub struct Chunk {
    /// Master seed of the call.
    pub seed: u64,
    /// Key gates of every instance of the call.
    pub key_gates: usize,
    /// The dataset CSV it produced.
    pub csv: String,
    /// Its labelled instances.
    pub instances: Vec<Instance>,
    /// Instances it quarantined.
    pub quarantined: usize,
    /// Wall time of the call.
    pub wall_ns: u64,
}

/// A run of consecutive chunks.
#[derive(Debug)]
pub struct Sweep {
    spec: Spec,
    /// The base circuit the chunks locked.
    pub circuit: Circuit,
    /// Chunks in order.
    pub chunks: Vec<Chunk>,
    records: Vec<AttackRecord>,
}

/// Times oracle queries from outside the attack.
struct TimedOracle {
    inner: SimOracle,
    busy_ns: u64,
}

impl Oracle for TimedOracle {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let t = Instant::now();
        let out = self.inner.query(inputs);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn num_queries(&self) -> usize {
        self.inner.num_queries()
    }
}

/// Master seed of chunk `chunk` of a workload.
fn chunk_seed(workload_seed: u64, chunk: usize) -> u64 {
    stats::mix(workload_seed, chunk as u64)
}

/// The attack the sweep would run (`attack::attack_locked`), with the
/// oracle timed and the outcome recorded.
fn hook(chunk: usize, records: Arc<Mutex<Vec<AttackRecord>>>) -> AttackHook {
    Arc::new(
        move |index: usize, locked: &LockedCircuit, config: &AttackConfig| {
            let started = Instant::now();
            let mut oracle = TimedOracle {
                inner: SimOracle::new(locked.original.clone()),
                busy_ns: 0,
            };
            let result = attack::attack(&locked.locked, &mut oracle, config);
            let wall_ns = started.elapsed().as_nanos() as u64;
            if let Ok(r) = &result {
                records
                    .lock()
                    .expect("no panic while recording")
                    .push(AttackRecord {
                        chunk,
                        index,
                        wall_ns,
                        oracle_ns: oracle.busy_ns,
                        oracle_queries: r.oracle_queries,
                        iterations: r.iterations,
                        stats: r.solver_stats,
                        peak_bytes: r.peak_logical_bytes,
                        censored: matches!(r.outcome, AttackOutcome::BudgetExceeded),
                        recovered: r.key().cloned(),
                        selected: locked.selected.clone(),
                        true_key: locked.key.clone(),
                    });
            }
            result
        },
    )
}

/// Key gates of every instance of chunk `chunk`. Chunks cycle through the
/// spec's key range, so each run holds the same mix of key counts (uniform
/// over the range, as the sweep's own draw is in expectation) and runs on
/// different seeds differ only in which gates are locked and how.
fn key_gates(spec: &Spec, chunk: usize) -> usize {
    let (lo, hi) = spec.key_range;
    lo + chunk % (hi - lo + 1)
}

/// Rounds a chunk count up to whole cycles of the key range.
pub fn whole_cycles(spec: &Spec, chunks: usize) -> usize {
    let span = spec.key_range.1 - spec.key_range.0 + 1;
    chunks.div_ceil(span).max(1) * span
}

/// Runs chunks `0..chunks` of the workload's sweep.
pub fn run(spec: &Spec, workload_seed: u64, chunks: usize) -> Sweep {
    let records = Arc::new(Mutex::new(Vec::new()));
    let mut out = Vec::with_capacity(chunks);
    let mut circuit = None;
    for chunk in 0..chunks {
        let mut config = DatasetConfig::dataset1(spec.profile, spec.chunk);
        config.scheme = spec.scheme;
        let keys = key_gates(spec, chunk);
        config.key_range = (keys, keys);
        config.seed = chunk_seed(workload_seed, chunk);
        config.attack_hook = Some(hook(chunk, Arc::clone(&records)));
        let started = Instant::now();
        let (data, report) = dataset::generate_parallel_with(&config, 1, None)
            .expect("sweep configuration is valid");
        let wall_ns = started.elapsed().as_nanos() as u64;
        out.push(Chunk {
            seed: config.seed,
            key_gates: keys,
            csv: dataset::dataset_to_csv(&data.instances),
            instances: data.instances,
            quarantined: report.quarantined(),
            wall_ns,
        });
        circuit.get_or_insert(data.circuit);
    }
    let mut records = std::mem::take(&mut *records.lock().expect("sweep finished"));
    records.sort_by_key(|r| (r.chunk, r.index));
    Sweep {
        spec: *spec,
        circuit: circuit.expect("at least one chunk"),
        chunks: out,
        records,
    }
}

impl Sweep {
    /// Labelled instances across all chunks.
    pub fn labels(&self) -> usize {
        self.chunks.iter().map(|c| c.instances.len()).sum()
    }

    /// Instances attempted across all chunks.
    pub fn attempted(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.instances.len() + c.quarantined)
            .sum()
    }

    /// Quarantined instances across all chunks.
    pub fn quarantined(&self) -> usize {
        self.chunks.iter().map(|c| c.quarantined).sum()
    }

    /// Wall time of all sweep calls, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e9
    }

    /// Attack wall times in milliseconds, sorted.
    pub fn attack_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .records
                .iter()
                .map(|r| r.wall_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Sets the per-label attack latency and checks the labels:
    /// `latency_p50_ms` is the central median of all attack times (see
    /// [`stats::central_median`]: attack time grows steeply with key count
    /// and every key count has the same share of the run), and
    /// `latency_tail_ms` the highest percentile with ten attacks beyond it.
    pub fn report_latency(&self, out: &mut Outcome) {
        self.check_labels(out);
        let (lo, hi) = self.spec.key_range;
        let by_keys: Vec<f64> = (lo..=hi)
            .map(|k| {
                let ms: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| self.chunks[r.chunk].key_gates == k)
                    .map(|r| r.wall_ns as f64 / 1e6)
                    .collect();
                stats::median(&ms)
            })
            .collect();
        let attack = self.attack_ms();
        out.set(
            "latency_p50_ms",
            stats::central_median(&attack).unwrap_or(0.0),
        );
        let tail = stats::tail(&attack, TAIL_BEYOND);
        out.check(tail.is_some(), || {
            format!("only {} attacks: no tail", attack.len())
        });
        if let Some(t) = tail {
            out.set("latency_tail_ms", t.value);
            out.note(format!(
                "labels_per_s = {:.3} 1/s: {} labels in {:.3} s of sweep; attack tail p{:.1} \
                 {:.3} ms over {} attacks, pooled p50 {:.3} ms",
                self.labels() as f64 / self.wall_s(),
                self.labels(),
                self.wall_s(),
                100.0 * t.percentile,
                t.value,
                attack.len(),
                stats::nearest_rank(&attack, 0.5).unwrap_or(0.0)
            ));
        }
        let by_keys: Vec<String> = (lo..=hi)
            .zip(&by_keys)
            .map(|(k, ms)| format!("{k}: {ms:.3} ms"))
            .collect();
        out.note(format!("attack p50 by key gates: {}", by_keys.join(", ")));
    }

    /// Every attempted instance labelled, with a finite label, one attack
    /// record each.
    pub fn check_labels(&self, out: &mut Outcome) {
        out.attempted += self.attempted() as u64;
        out.failed += self.quarantined() as u64;
        let finite = self
            .chunks
            .iter()
            .flat_map(|c| &c.instances)
            .all(|i| i.log_seconds.is_finite() && i.work > 0);
        out.check(finite, || "a label is not finite or has no work".into());
        out.check(self.records.len() == self.labels(), || {
            format!(
                "{} attack records for {} labels",
                self.records.len(),
                self.labels()
            )
        });
    }

    /// Re-locks every instance the way the sweep did (`select_gates` plus
    /// the scheme's lock on `dataset::instance_seed`), checks it equals what
    /// the sweep locked, and checks each recovered key with
    /// `LockedCircuit::verify_key`. With a ledger (the traced run), charges
    /// the time to `obfuscate`, sets `obfuscate.lock_ms` and returns the
    /// re-locked circuits; without one it keeps none of them.
    pub fn verify(&self, out: &mut Outcome, mut ledger: Option<&mut Ledger>) -> Vec<LockedCircuit> {
        let mut lock_ms = Vec::with_capacity(self.records.len());
        let mut relocked = Vec::with_capacity(self.records.len());
        let mut wrong = Vec::new();
        for r in &self.records {
            let t = Instant::now();
            let chunk = &self.chunks[r.chunk];
            let locked = relock(
                &self.spec,
                &self.circuit,
                chunk.seed,
                chunk.key_gates,
                r.index,
            );
            let lock = ms_since(t);
            lock_ms.push(lock);
            if locked.selected != r.selected || locked.key != r.true_key {
                wrong.push(format!(
                    "chunk {} instance {}: re-lock differs",
                    r.chunk, r.index
                ));
            }
            let t = Instant::now();
            if let Some(key) = &r.recovered {
                if !locked.verify_key(key).unwrap_or(false) {
                    wrong.push(format!("chunk {} instance {}: wrong key", r.chunk, r.index));
                }
            }
            if let Some(l) = ledger.as_deref_mut() {
                l.add("obfuscate", lock + ms_since(t));
                relocked.push(locked);
            }
        }
        let recovered = self
            .records
            .iter()
            .filter(|r| r.recovered.is_some())
            .count();
        out.note(format!(
            "{} of {} attacks recovered a key; every recovered key verified: {}",
            recovered,
            self.records.len(),
            wrong.is_empty()
        ));
        out.violations.extend(wrong);
        if ledger.is_some() {
            out.set("obfuscate.lock_ms", stats::median(&lock_ms));
        }
        relocked
    }

    /// Per-layer metrics of a traced sweep: attack, oracle, solver counters,
    /// per-DIP times from `attack.iteration` events, and the sweep's own
    /// overhead. Charges the sweep wall to `dataset`, `attack`, `sat`,
    /// `cnf` (per-DIP re-encode, estimated by `reencode_ms`) and `netlist`
    /// (oracle simulation).
    pub fn report_layers(
        &self,
        events: &Events,
        reencode_ms: f64,
        out: &mut Outcome,
        ledger: &mut Ledger,
    ) {
        let attack = self.attack_ms();
        let attack_total: f64 = attack.iter().sum();
        let sweep_ms = self.wall_s() * 1e3;
        let iter_ms = stats::sorted(
            &events
                .iteration_ns
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let iter_total: f64 = iter_ms.iter().sum();
        let oracle_ms = self.records.iter().map(|r| r.oracle_ns).sum::<u64>() as f64 / 1e6;
        let iterations: usize = self.records.iter().map(|r| r.iterations).sum();
        out.check(iter_ms.len() == iterations, || {
            format!(
                "{} attack.iteration events for {iterations} DIPs",
                iter_ms.len()
            )
        });
        let reencode_total = (reencode_ms * iterations as f64).min(iter_total - oracle_ms);
        ledger.add("dataset", sweep_ms - attack_total);
        ledger.add("attack", attack_total - iter_total);
        ledger.add("netlist", oracle_ms);
        ledger.add("cnf", reencode_total);
        ledger.add("sat", iter_total - oracle_ms - reencode_total);

        let n = self.records.len().max(1) as f64;
        out.set(
            "attack.wall_p50_ms",
            stats::nearest_rank(&attack, 0.5).unwrap_or(0.0),
        );
        out.set(
            "attack.wall_tail_ms",
            stats::tail(&attack, TAIL_BEYOND).map_or(0.0, |t| t.value),
        );
        out.set("attack.wall_total_ms", attack_total);
        out.set("attack.iterations", iterations as f64 / n);
        out.set(
            "attack.iter_p50_ms",
            stats::nearest_rank(&iter_ms, 0.5).unwrap_or(0.0),
        );
        out.set(
            "attack.iter_tail_ms",
            stats::tail(&iter_ms, TAIL_BEYOND).map_or(0.0, |t| t.value),
        );
        out.set("attack.oracle_ms", oracle_ms);
        out.set(
            "attack.oracle_queries",
            self.records.iter().map(|r| r.oracle_queries).sum::<usize>() as f64,
        );
        out.set(
            "attack.censored_frac",
            self.records.iter().filter(|r| r.censored).count() as f64 / n,
        );
        out.set(
            "attack.peak_logical_bytes",
            self.records.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64,
        );
        let sum = |f: fn(&SolverStats) -> u64| -> f64 {
            self.records.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
        };
        out.set("sat.work", sum(SolverStats::work));
        out.set("sat.conflicts", sum(|s| s.conflicts));
        out.set("sat.propagations", sum(|s| s.propagations));
        out.set("sat.decisions", sum(|s| s.decisions));
        out.set("sat.solves", sum(|s| s.solves));
        out.set(
            "sat.props_per_s",
            sum(|s| s.propagations) / (attack_total / 1e3),
        );
        out.set("dataset.overhead_ms", sweep_ms - attack_total);
        out.set("dataset.labels_per_s", self.labels() as f64 / self.wall_s());
    }
}

/// Re-derives instance `index` of the sweep call with master seed `seed`
/// and `keys` key gates.
fn relock(spec: &Spec, circuit: &Circuit, seed: u64, keys: usize, index: usize) -> LockedCircuit {
    let mut rng = StdRng::seed_from_u64(dataset::instance_seed(seed, index));
    let count = rng.gen_range(keys..=keys);
    let selected = obfuscate::select_gates(circuit, spec.scheme, count, &mut rng)
        .expect("sweep selected them");
    match spec.scheme {
        SchemeKind::LutLock { lut_size } => {
            obfuscate::lut_lock(circuit, &selected, lut_size, &mut rng)
        }
        SchemeKind::AntiSat { key_width } => {
            obfuscate::anti_sat_lock(circuit, &selected, key_width, &mut rng)
        }
        SchemeKind::XorLock => obfuscate::xor_lock(circuit, &selected, &mut rng),
        SchemeKind::MuxLock => obfuscate::mux_lock(circuit, &selected, &mut rng),
    }
    .expect("sweep locked it")
}

/// Miter encoding and preprocessing of each locked instance on a fresh
/// solver, plus the cost of one DIP's re-encode of both key copies. Sets
/// `cnf.miter_encode_ms`, `cnf.miter_clauses`, `cnf.reencode_ms` and
/// `sat.preprocess_ms` (medians per instance), charges `cnf` and `sat`, and
/// returns the median re-encode time.
pub fn miter_probe(locked: &[LockedCircuit], out: &mut Outcome, ledger: &mut Ledger) -> f64 {
    let (mut encode, mut clauses, mut pre, mut reencode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for l in locked {
        let mut solver = Solver::new();
        let t = Instant::now();
        let miter = cnf::encode_miter(&l.locked, &mut solver);
        encode.push(ms_since(t));
        clauses.push(solver.num_clauses_total() as f64);
        let t = Instant::now();
        solver.preprocess();
        pre.push(ms_since(t));
        // One DIP's constraint: both key copies re-encoded with the inputs
        // and outputs fixed, as the attack loop does after each oracle query.
        let dip = vec![false; miter.inputs.len()];
        let response = l.original.simulate_bool(&dip, &[]).expect("oracle width");
        let t = Instant::now();
        for key_vars in [&miter.key1, &miter.key2] {
            let enc = cnf::encode_circuit_with(
                &l.locked,
                &mut solver,
                cnf::EncodeOptions {
                    input_vars: None,
                    key_vars: Some(key_vars.clone()),
                },
            );
            cnf::fix_vars(&mut solver, &enc.input_vars(&l.locked), &dip);
            cnf::fix_vars(&mut solver, &enc.output_vars(&l.locked), &response);
        }
        reencode.push(ms_since(t));
    }
    ledger.add(
        "cnf",
        encode.iter().sum::<f64>() + reencode.iter().sum::<f64>(),
    );
    ledger.add("sat", pre.iter().sum());
    out.set("cnf.miter_encode_ms", stats::median(&encode));
    out.set("cnf.miter_clauses", stats::median(&clauses));
    out.set("sat.preprocess_ms", stats::median(&pre));
    let re = stats::median(&reencode);
    out.set("cnf.reencode_ms", re);
    re
}

/// Byte-compares the CSVs of two runs of the same chunks.
pub fn same_csvs(a: &Sweep, b: &Sweep, out: &mut Outcome) {
    out.check(a.chunks.len() == b.chunks.len(), || {
        "sweeps ran different chunks".into()
    });
    for (i, (x, y)) in a.chunks.iter().zip(&b.chunks).enumerate() {
        out.check(x.csv == y.csv, || {
            format!("chunk {i}: untraced and traced CSVs differ")
        });
    }
}
