//! Property-based tests (proptest) over the core data structures and
//! invariants: solver soundness, encoding/simulation agreement, locking
//! correctness, sparse/dense algebra parity, metric ranges, and autodiff
//! gradients.

use proptest::prelude::*;
use sat::{Lit, SolveResult, Solver};
use tensor::{CsrMatrix, Matrix, Tape};

/// Strategy: a random CNF over `nv` variables.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i64>>)> {
    (2usize..12).prop_flat_map(|nv| {
        let clause = proptest::collection::vec(
            (1i64..=nv as i64).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
            1..4,
        );
        proptest::collection::vec(clause, 1..30).prop_map(move |cs| (nv, cs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any model the solver returns satisfies every clause it was given.
    #[test]
    fn solver_models_satisfy_all_clauses((nv, clauses) in cnf_strategy()) {
        let mut solver = Solver::new();
        solver.new_vars(nv);
        for clause in &clauses {
            solver.add_clause(clause.iter().map(|&l| Lit::from_dimacs(l)));
        }
        if let SolveResult::Sat(model) = solver.solve() {
            for clause in &clauses {
                prop_assert!(
                    clause.iter().any(|&l| model.lit_value(Lit::from_dimacs(l))),
                    "model violates clause {clause:?}"
                );
            }
        }
    }

    /// UNSAT verdicts agree with exhaustive enumeration (small formulas).
    #[test]
    fn solver_unsat_is_confirmed_by_enumeration((nv, clauses) in cnf_strategy()) {
        prop_assume!(nv <= 8);
        let mut solver = Solver::new();
        solver.new_vars(nv);
        for clause in &clauses {
            solver.add_clause(clauses_to_lits(clause));
        }
        let brute_sat = (0u32..(1 << nv)).any(|bits| {
            clauses.iter().all(|clause| {
                clause.iter().any(|&l| {
                    let v = (l.unsigned_abs() - 1) as u32;
                    let val = (bits >> v) & 1 == 1;
                    if l > 0 { val } else { !val }
                })
            })
        });
        match solver.solve() {
            SolveResult::Sat(_) => prop_assert!(brute_sat),
            SolveResult::Unsat => prop_assert!(!brute_sat),
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }
}

fn clauses_to_lits(clause: &[i64]) -> Vec<Lit> {
    clause.iter().map(|&l| Lit::from_dimacs(l)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated circuits always round-trip through the bench format
    /// structurally (ids, kinds, ports).
    #[test]
    fn bench_round_trip_is_identity(seed in 0u64..5000, gates in 5usize..60) {
        let circuit = synth::generate(
            &synth::GeneratorConfig::new("p", 6, 3, gates).with_seed(seed),
        );
        let reparsed = netlist::Circuit::from_bench("p", &circuit.to_bench()).unwrap();
        prop_assert_eq!(circuit, reparsed);
    }

    /// Locked circuits round-trip through the bench format too: key inputs
    /// keep their `keyinput` prefix and survive reparsing for every scheme.
    #[test]
    fn bench_round_trips_locked_circuits(
        seed in 0u64..2000,
        keys in 1usize..5,
        scheme in prop_oneof![
            Just(obfuscate::SchemeKind::XorLock),
            Just(obfuscate::SchemeKind::MuxLock),
            Just(obfuscate::SchemeKind::LutLock { lut_size: 2 }),
            Just(obfuscate::SchemeKind::LutLock { lut_size: 4 }),
            Just(obfuscate::SchemeKind::AntiSat { key_width: 3 }),
        ],
    ) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 8, 4, 80).with_seed(seed),
        );
        let locked = obfuscate::lock_random(&base, scheme, keys, seed).unwrap();
        let text = locked.locked.to_bench();
        let reparsed = netlist::Circuit::from_bench(locked.locked.name(), &text).unwrap();
        // Ids shift (the writer groups all INPUT lines first, the builder
        // interleaves key inputs), so the round trip is functional + textual,
        // not structural: same ports, same text, same behaviour per key.
        prop_assert_eq!(reparsed.keys().len(), locked.key.bits().len());
        prop_assert_eq!(reparsed.inputs().len(), locked.locked.inputs().len());
        prop_assert_eq!(reparsed.outputs().len(), locked.locked.outputs().len());
        prop_assert_eq!(&text, &reparsed.to_bench());
        let words: Vec<u64> = (0..8).map(|i| seed.rotate_left(i * 7) ^ 0xF00D).collect();
        let key_words: Vec<u64> = locked
            .key
            .bits()
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        prop_assert_eq!(
            locked.locked.simulate(&words, &key_words).unwrap(),
            reparsed.simulate(&words, &key_words).unwrap()
        );
    }

    /// Applying a key produces 0-input LUT constants; those must survive the
    /// `LUT 0x..` extension of the format, and the reparsed circuit must
    /// simulate identically to the one that was written.
    #[test]
    fn bench_round_trips_applied_key_circuits(seed in 0u64..2000, keys in 1usize..4) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 7, 3, 60).with_seed(seed),
        );
        let locked = obfuscate::lock_random(
            &base,
            obfuscate::SchemeKind::LutLock { lut_size: 3 },
            keys,
            seed,
        ).unwrap();
        let applied = locked.apply_key(&locked.key).unwrap();
        let reparsed = netlist::Circuit::from_bench(applied.name(), &applied.to_bench()).unwrap();
        prop_assert_eq!(&applied, &reparsed);
        let words: Vec<u64> = (0..7).map(|i| seed.rotate_left(i * 11) ^ 0x5A5A).collect();
        prop_assert_eq!(
            applied.simulate(&words, &[]).unwrap(),
            reparsed.simulate(&words, &[]).unwrap()
        );
    }

    /// Writing is a left inverse of parsing as *text*, not just as structure:
    /// write(parse(write(c))) == write(c), so the format is canonical.
    #[test]
    fn bench_text_is_canonical(seed in 0u64..3000, gates in 5usize..50) {
        let circuit = synth::generate(
            &synth::GeneratorConfig::new("p", 6, 3, gates).with_seed(seed),
        );
        let text = circuit.to_bench();
        let reparsed = netlist::Circuit::from_bench("p", &text).unwrap();
        prop_assert_eq!(text, reparsed.to_bench());
    }

    /// The correct key always restores the original function.
    #[test]
    fn correct_key_always_verifies(seed in 0u64..2000, keys in 1usize..5) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 8, 4, 60).with_seed(seed),
        );
        let locked = obfuscate::lock_random(
            &base,
            obfuscate::SchemeKind::LutLock { lut_size: 3 },
            keys,
            seed,
        ).unwrap();
        prop_assert!(locked.verify_key(&locked.key).unwrap());
    }

    /// Truth tables are consistent between construction and evaluation.
    #[test]
    fn truth_table_from_fn_eval_consistent(bits in any::<u64>(), k in 0usize..=6) {
        let table = netlist::TruthTable::new(k, bits).unwrap();
        let rebuilt = netlist::TruthTable::from_fn(k, |vals| table.eval(vals)).unwrap();
        prop_assert_eq!(table, rebuilt);
    }

    /// Word-parallel simulation equals 64 single-pattern simulations.
    #[test]
    fn word_simulation_matches_scalar(seed in 0u64..1000) {
        let circuit = synth::generate(
            &synth::GeneratorConfig::new("p", 5, 3, 40).with_seed(seed),
        );
        let words: Vec<u64> = (0..5).map(|i| seed.rotate_left(i * 13) ^ 0xABCD).collect();
        let outs = circuit.simulate(&words, &[]).unwrap();
        for p in [0usize, 17, 63] {
            let bits: Vec<bool> = words.iter().map(|w| (w >> p) & 1 == 1).collect();
            let scalar = circuit.simulate_bool(&bits, &[]).unwrap();
            for (o, w) in scalar.iter().zip(&outs) {
                prop_assert_eq!(*o, (w >> p) & 1 == 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse-dense product agrees with densified matmul.
    #[test]
    fn spmm_matches_dense(
        triplets in proptest::collection::vec((0usize..8, 0usize..8, -4i32..=4), 0..24),
        cols in 1usize..5,
    ) {
        let trip: Vec<(usize, usize, f64)> =
            triplets.iter().map(|&(r, c, v)| (r, c, v as f64)).collect();
        let sparse = CsrMatrix::from_triplets(8, 8, &trip);
        let dense = Matrix::from_fn(8, cols, |r, c| ((r * 3 + c * 5) % 7) as f64 - 3.0);
        let expect = sparse.to_dense().matmul(&dense);
        prop_assert_eq!(sparse.spmm(&dense), expect);
        // Transpose parity too.
        let expect_t = sparse.to_dense().transpose();
        prop_assert_eq!(sparse.transpose().to_dense(), expect_t);
    }

    /// Correlations always land in [-1, 1].
    #[test]
    fn correlations_are_bounded(
        a in proptest::collection::vec(-100.0f64..100.0, 3..30),
    ) {
        let b: Vec<f64> = a.iter().map(|&x| (x * 1.7).sin() * 10.0 + x * 0.2).collect();
        let p = regress::metrics::pearson(&a, &b);
        let s = regress::metrics::spearman(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&p), "pearson {p}");
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "spearman {s}");
    }

    /// Autodiff matmul gradients match central finite differences.
    #[test]
    fn autodiff_matches_finite_difference(
        vals in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let w = Matrix::from_vec(3, 2, vals);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let forward = |w: &Matrix| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let wv = tape.leaf(w.clone());
            let h = tape.matmul(xv, wv);
            let r = tape.relu(h);
            let sq = tape.hadamard(r, r);
            let loss = tape.sum_all(sq);
            (tape.value(loss).get(0, 0), tape, wv, loss)
        };
        let (_, mut tape, wv, loss) = forward(&w);
        tape.backward(loss);
        let grad = tape.grad(wv).clone();
        let eps = 1e-5;
        for r in 0..3 {
            for c in 0..2 {
                // Skip non-differentiable kinks of the ReLU.
                let pre = x.matmul(&w);
                if pre.as_slice().iter().any(|v| v.abs() < 1e-3) {
                    continue;
                }
                let mut wp = w.clone();
                wp.set(r, c, w.get(r, c) + eps);
                let mut wm = w.clone();
                wm.set(r, c, w.get(r, c) - eps);
                let numeric = (forward(&wp).0 - forward(&wm).0) / (2.0 * eps);
                prop_assert!(
                    (grad.get(r, c) - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "grad ({r},{c}): {} vs {}",
                    grad.get(r, c),
                    numeric
                );
            }
        }
    }

    /// The netlist optimizer never changes circuit function.
    #[test]
    fn optimizer_preserves_function(seed in 0u64..2000, keys in 1usize..4) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 6, 3, 40).with_seed(seed),
        );
        // Locked + key applied: rich in constants and MUX trees.
        let locked = obfuscate::lock_random(
            &base,
            obfuscate::SchemeKind::LutLock { lut_size: 3 },
            keys,
            seed,
        ).unwrap();
        let applied = locked.apply_key(&locked.key).unwrap();
        let (optimized, stats) = netlist::opt::optimize(&applied).unwrap();
        prop_assert!(applied.equiv_random(&optimized, &[], &[], 8, seed).unwrap());
        prop_assert!(stats.gates_after <= stats.gates_before);
    }

    /// Keys round-trip through hex for arbitrary lengths.
    #[test]
    fn key_hex_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..128)) {
        let key = obfuscate::Key::from_bits(bits.clone());
        let parsed = obfuscate::Key::from_hex(&key.to_hex(), bits.len()).unwrap();
        prop_assert_eq!(key, parsed);
    }
}

// ---------------------------------------------------------------------------
// Anti-SAT correctness: SAT-certified equivalence under the right key, a
// guaranteed observable flip under a wrong one.

use cnf::ClauseSink as _;

/// Encodes an equivalence miter between `original` and `locked` under the
/// fixed `key`: both circuits share their primary-input variables, the key
/// variables are pinned to `key`, and the returned literal asserts "some
/// output pair disagrees". UNSAT with that assumption is a proof of
/// functional equivalence over *all* 2^n inputs — strictly stronger than any
/// sampled simulation check.
fn equivalence_diff_lit(
    original: &netlist::Circuit,
    locked: &netlist::Circuit,
    key: &[bool],
    solver: &mut Solver,
) -> (Lit, Vec<sat::Var>) {
    let inputs: Vec<sat::Var> = (0..original.inputs().len())
        .map(|_| solver.fresh_var())
        .collect();
    let enc_orig = cnf::encode_circuit_with(
        original,
        solver,
        cnf::EncodeOptions {
            input_vars: Some(inputs.clone()),
            key_vars: None,
        },
    );
    let key_vars: Vec<sat::Var> = (0..locked.keys().len())
        .map(|_| solver.fresh_var())
        .collect();
    let enc_lock = cnf::encode_circuit_with(
        locked,
        solver,
        cnf::EncodeOptions {
            input_vars: Some(inputs.clone()),
            key_vars: Some(key_vars.clone()),
        },
    );
    cnf::fix_vars(solver, &key_vars, key);
    let diffs: Vec<Lit> = enc_orig
        .output_vars(original)
        .iter()
        .zip(&enc_lock.output_vars(locked))
        .map(|(&a, &b)| Lit::positive(cnf::encode_xor(solver, Lit::positive(a), Lit::positive(b))))
        .collect();
    (Lit::positive(cnf::encode_or(solver, &diffs)), inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under the correct key, the Anti-SAT-locked circuit is miter-UNSAT
    /// equivalent to the original: no input whatsoever distinguishes them.
    #[test]
    fn anti_sat_correct_key_is_miter_unsat_equivalent(
        seed in 0u64..2000,
        key_width in 2usize..6,
        blocks in 1usize..3,
    ) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 8, 4, 60).with_seed(seed),
        );
        let locked = obfuscate::lock_random(
            &base,
            obfuscate::SchemeKind::AntiSat { key_width },
            blocks,
            seed,
        ).unwrap();
        let mut solver = Solver::new();
        let (diff, _) = equivalence_diff_lit(
            &locked.original,
            &locked.locked,
            locked.key.bits(),
            &mut solver,
        );
        prop_assert!(
            matches!(solver.solve_with_assumptions(&[diff]), SolveResult::Unsat),
            "correct key must be UNSAT-equivalent"
        );
    }

    /// A key whose K1/K2 halves disagree in one bit flips at least one
    /// output for some input: the equivalence miter is SAT. (Halves that
    /// *agree* on a different alpha are functionally correct by design —
    /// that is the scheme's 2^w-correct-keys property — so the wrong key
    /// here is always a disagreeing-halves one.)
    #[test]
    fn anti_sat_disagreeing_halves_flip_an_output(
        seed in 0u64..2000,
        key_width in 2usize..6,
        flip in 0usize..6,
    ) {
        let base = synth::generate(
            &synth::GeneratorConfig::new("p", 8, 4, 60).with_seed(seed),
        );
        let locked = obfuscate::lock_random(
            &base,
            obfuscate::SchemeKind::AntiSat { key_width },
            1,
            seed,
        ).unwrap();
        // Flip one bit of the K1 half only: K1 != K2 breaks Y ≡ 0.
        let mut bits = locked.key.bits().to_vec();
        let j = flip % key_width;
        bits[j] = !bits[j];
        let mut solver = Solver::new();
        let (diff, input_vars) =
            equivalence_diff_lit(&locked.original, &locked.locked, &bits, &mut solver);
        match solver.solve_with_assumptions(&[diff]) {
            SolveResult::Sat(model) => {
                // The model is a concrete witness: replay it through both
                // simulators and confirm the disagreement is real.
                let pattern: Vec<bool> = input_vars.iter().map(|&v| model.value(v)).collect();
                let want = locked.original.simulate_bool(&pattern, &[]).unwrap();
                let got = locked.locked.simulate_bool(&pattern, &bits).unwrap();
                prop_assert_ne!(want, got, "SAT witness must replay as a real flip");
            }
            SolveResult::Unsat => prop_assert!(false, "disagreeing halves must be detectable"),
            other => prop_assert!(false, "unexpected solve result: {other:?}"),
        }
        prop_assert!(
            !locked.verify_key(&obfuscate::Key::from_bits(bits)).unwrap(),
            "verify_key must reject a disagreeing-halves key"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every key the SAT attack recovers is proven correct: the equivalence
    /// miter against the original is UNSAT over all inputs. Sampling (as
    /// `verify_key` does) can miss Anti-SAT's single flipped pattern.
    #[test]
    fn recovered_keys_are_miter_unsat_equivalent(
        seed in any::<u64>(),
        synthetic in any::<bool>(),
        scheme in 0usize..5,
        size in 0usize..6,
    ) {
        let base = if synthetic {
            synth::generate(&synth::GeneratorConfig::new("p", 7, 4, 40).with_seed(seed))
        } else {
            netlist::c17()
        };
        let (scheme, count) = match scheme {
            0 => (obfuscate::SchemeKind::XorLock, 1 + size),
            1 => (obfuscate::SchemeKind::MuxLock, 1 + size),
            2 => (obfuscate::SchemeKind::LutLock { lut_size: 2 }, 1 + size % 2),
            3 => (obfuscate::SchemeKind::LutLock { lut_size: 3 }, 1),
            _ => (obfuscate::SchemeKind::AntiSat { key_width: 2 + size % 4 }, 1),
        };
        let locked = obfuscate::lock_random(&base, scheme, count, seed).unwrap();
        let result = attack::attack_locked(&locked, &attack::AttackConfig::default()).unwrap();
        let key = result.key().expect("small lockings are attacked to the end");
        let mut solver = Solver::new();
        let (diff, _) =
            equivalence_diff_lit(&locked.original, &locked.locked, key.bits(), &mut solver);
        prop_assert!(
            matches!(solver.solve_with_assumptions(&[diff]), SolveResult::Unsat),
            "{} recovered a key that some input tells apart from the original",
            scheme
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint-log robustness: corruption is detected, quarantine is replayed.

use dataset::{CheckpointLog, DatasetError, Instance};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh temp path per proptest case, so shrinking never reuses a file.
fn ckpt_tmp() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("icnet_property_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "case_{}_{}.ckpt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Writes a small, valid checkpoint log and returns its path.
fn seeded_checkpoint() -> std::path::PathBuf {
    let path = ckpt_tmp();
    let mut log = CheckpointLog::open(&path).unwrap();
    for i in 0..3usize {
        log.record(
            0xA0 + i as u64,
            i,
            &Instance {
                selected: vec![netlist::GateId::from_index(i)],
                key_bits: i + 1,
                iterations: 2 * i,
                work: 1000 + i as u64,
                seconds: 0.25,
                log_seconds: 0.25f64.ln(),
                censored: false,
            },
        )
        .unwrap();
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte substitution inside a checkpoint record is detected
    /// at reopen — never silently deserialized into a bogus label.
    #[test]
    fn corrupted_checkpoint_byte_is_detected(pos in 0usize..10_000, replacement in 33u8..127) {
        let path = seeded_checkpoint();
        let text = std::fs::read_to_string(&path).unwrap();
        let header_end = text.find('\n').unwrap();
        // Candidate positions: every byte of every record line (the header
        // has its own check; newlines would change the line structure).
        let candidates: Vec<usize> = (header_end + 1..text.len())
            .filter(|&i| text.as_bytes()[i] != b'\n')
            .collect();
        let target = candidates[pos % candidates.len()];
        let mut bytes = text.into_bytes();
        prop_assume!(bytes[target] != replacement);
        bytes[target] = replacement;
        std::fs::write(&path, bytes).unwrap();
        let reopened = CheckpointLog::open(&path);
        match &reopened {
            Err(DatasetError::Checkpoint { line, .. }) => prop_assert!(*line >= 2),
            other => prop_assert!(false, "corruption at byte {target} not detected: {other:?}"),
        }
    }

    /// A garbage line spliced into the middle of the log is reported as
    /// corruption, not skipped or misparsed.
    #[test]
    fn garbage_checkpoint_line_is_detected(
        garbage in proptest::collection::vec(33u8..127, 1..30),
        at in 0usize..3,
    ) {
        let path = seeded_checkpoint();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line = String::from_utf8(garbage).unwrap();
        lines.insert(1 + at.min(lines.len() - 1), line);
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        prop_assert!(
            matches!(
                CheckpointLog::open(&path),
                Err(DatasetError::Checkpoint { .. })
            ),
            "garbage line accepted"
        );
    }

    /// After a sweep quarantines some instances, a resumed sweep skips
    /// exactly those instances: nothing is re-attacked, every healthy label
    /// is reused, and the replayed quarantine set matches the sick set.
    #[test]
    fn resume_skips_exactly_the_quarantined_instances(
        sick in proptest::collection::vec(0usize..6, 0..4),
    ) {
        let mut sick: Vec<usize> = sick;
        sick.sort_unstable();
        sick.dedup();
        let mut config = dataset::DatasetConfig::quick_demo();
        config.num_instances = 6;
        let bad = sick.clone();
        config.attack_hook = Some(std::sync::Arc::new(move |index, locked, cfg| {
            if bad.contains(&index) {
                Err(attack::AttackError::OracleInconsistent)
            } else {
                attack::attack_locked(locked, cfg)
            }
        }));
        let path = ckpt_tmp();

        let mut log = CheckpointLog::open(&path).unwrap();
        let (first, report) =
            dataset::generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
        prop_assert_eq!(report.attacked(), 6 - sick.len());
        let found: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        prop_assert_eq!(&found, &sick);
        drop(log);

        let mut log = CheckpointLog::open(&path).unwrap();
        prop_assert_eq!(log.num_quarantined(), sick.len());
        let (second, report) =
            dataset::generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
        prop_assert_eq!(report.attacked(), 0);
        prop_assert_eq!(report.reused(), 6 - sick.len());
        let replayed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        prop_assert_eq!(&replayed, &sick);
        prop_assert!(report.failures.iter().all(|f| f.reused));
        prop_assert_eq!(first, second);
    }
}

/// A crash (or an injected `checkpoint.append` fault) can truncate the
/// append-only log after *any* byte. Exhaustively, every prefix must reopen
/// silently — keeping exactly the records whose lines survived complete —
/// and stay appendable; torn tails (including a torn header, which once
/// left the next open failing loudly) are dropped, never misparsed.
#[test]
fn every_truncation_offset_recovers_the_intact_prefix() {
    let full = seeded_checkpoint();
    let bytes = std::fs::read(&full).unwrap();
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    let header_end = newlines[0];
    for k in 0..=bytes.len() {
        let path = ckpt_tmp();
        std::fs::write(&path, &bytes[..k]).unwrap();
        let log = CheckpointLog::open(&path)
            .unwrap_or_else(|e| panic!("offset {k}: truncation must recover silently: {e}"));
        let expected = if k <= header_end {
            0 // torn header: the log restarts fresh
        } else {
            newlines.iter().skip(1).filter(|&&n| n < k).count()
        };
        assert_eq!(log.len(), expected, "offset {k}: surviving records");
        drop(log);
        // Recovery must leave a log that accepts appends and then reopens
        // cleanly — i.e. the truncated tail was physically removed, not
        // left to corrupt the next record.
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record(
            0xFFFF,
            9,
            &Instance {
                selected: vec![netlist::GateId::from_index(9)],
                key_bits: 9,
                iterations: 1,
                work: 42,
                seconds: 0.125,
                log_seconds: 0.125f64.ln(),
                censored: false,
            },
        )
        .unwrap();
        drop(log);
        let reopened = CheckpointLog::open(&path)
            .unwrap_or_else(|e| panic!("offset {k}: append after recovery broke the log: {e}"));
        assert_eq!(reopened.len(), expected + 1, "offset {k}: appended record");
        let _ = std::fs::remove_file(&path);
    }
}

// Sealed files: every persisted format rejects truncation and bit flips
// with a typed error, and every writer's bytes stay pinned.

/// Length and FNV-1a digest of a file's bytes.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), faults::fnv1a(faults::FNV_OFFSET, bytes))
}

/// A small fixed model file (ICNet, NN aggregation, 4-wide layers).
fn sample_model_text() -> String {
    icnet::GraphModel::new(icnet::ModelKind::ICNet, icnet::Aggregation::Nn, 7, 4, 4, 7).to_text()
}

/// A small fixed sealed dataset cache (three instances).
fn sample_sealed_csv() -> String {
    let instances: Vec<Instance> = (0..3usize)
        .map(|i| Instance {
            selected: vec![
                netlist::GateId::from_index(i),
                netlist::GateId::from_index(i + 5),
            ],
            key_bits: 2 * i + 1,
            iterations: i + 1,
            work: 500 + 7 * i as u64,
            seconds: 0.125 * (i + 1) as f64,
            log_seconds: (0.125 * (i + 1) as f64).ln(),
            censored: i == 2,
        })
        .collect();
    bench::harness::seal_csv(&dataset::dataset_to_csv(&instances))
}

/// The writers' output on fixed inputs, recorded before the framing moved
/// into `faults::sealed`: a persisted file written by an older build must
/// keep loading, so these bytes may not drift.
#[test]
fn sealed_writers_emit_the_pinned_bytes() {
    assert_eq!(
        digest(sample_model_text().as_bytes()),
        (1455, 4025205265848996650),
        "model file"
    );
    assert_eq!(
        digest(sample_sealed_csv().as_bytes()),
        (215, 17174133551612160571),
        "sealed CSV"
    );
    let log = std::fs::read(seeded_checkpoint()).unwrap();
    assert_eq!(
        digest(&log),
        (268, 17120323564526727755),
        "3-record checkpoint log"
    );
}

/// Every copy of `bytes` a torn write or a flipped bit can leave: each
/// proper prefix, then each single-bit flip of each byte.
fn damaged_copies(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|k| (format!("{k}-byte prefix"), bytes[..k].to_vec()));
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {} of byte {}", bit % 8, bit / 8), flipped)
    });
    cuts.chain(flips)
}

/// Whether a reader's answer to damaged bytes is acceptable.
type Verdict = Result<(), String>;

/// Feeds damaged bytes to one public reader and judges its answer.
type Reader<'a> = Box<dyn Fn(&[u8]) -> Verdict + 'a>;

fn refused<T: std::fmt::Debug, E>(result: Result<T, E>) -> Verdict {
    match result {
        Err(_) => Ok(()),
        Ok(value) => Err(format!("accepted as {value:?}")),
    }
}

/// The one corruption test every sealed format passes through its public
/// reader: a whole file must be refused with the reader's typed error at
/// every truncation offset and under every single-bit flip; the append-only
/// log may instead keep exactly an intact prefix of its records.
#[test]
fn every_truncation_and_bit_flip_is_refused_by_every_reader() {
    let scratch = ckpt_tmp().with_extension("d");
    std::fs::create_dir_all(&scratch).unwrap();
    let model_dir = scratch.join("models");
    std::fs::create_dir_all(&model_dir).unwrap();
    let log_path = scratch.join("sweep.ckpt");
    let intact_log = seeded_checkpoint();
    let log_bytes = std::fs::read(&intact_log).unwrap();
    let intact = CheckpointLog::open(&intact_log).unwrap();
    let keys: Vec<u64> = (0..3).map(|i| 0xA0 + i).collect();

    let model = sample_model_text().into_bytes();
    let readers: Vec<(&str, Vec<u8>, Reader)> = vec![
        (
            "GraphModel::from_text",
            model.clone(),
            Box::new(|bytes| refused(icnet::GraphModel::from_text(bytes).map(|m| m.to_string()))),
        ),
        (
            "unseal_csv",
            sample_sealed_csv().into_bytes(),
            Box::new(|bytes| refused(bench::harness::unseal_csv(bytes))),
        ),
        (
            "ModelRegistry::load_dir",
            model,
            Box::new(|bytes| {
                std::fs::write(model_dir.join("demo.model"), bytes).unwrap();
                match serve::ModelRegistry::load_dir(&model_dir) {
                    Err(serve::RegistryError::Corrupt { .. }) => Ok(()),
                    other => Err(format!("not Corrupt: {other:?}")),
                }
            }),
        ),
        (
            "CheckpointLog::open",
            log_bytes,
            Box::new(|bytes| {
                std::fs::write(&log_path, bytes).unwrap();
                match CheckpointLog::open(&log_path) {
                    Err(DatasetError::Checkpoint { .. }) => Ok(()),
                    Err(other) => Err(format!("not a Checkpoint error: {other:?}")),
                    Ok(log) => {
                        let kept = log.len();
                        let prefix = log.num_quarantined() == 0
                            && keys.iter().enumerate().all(|(i, &key)| {
                                log.lookup(key) == intact.lookup(key).filter(|_| i < kept)
                            });
                        prefix
                            .then_some(())
                            .ok_or_else(|| format!("kept {kept} records that are not a prefix"))
                    }
                }
            }),
        ),
    ];
    for (reader, sample, verdict) in &readers {
        for (damage, bytes) in damaged_copies(sample) {
            if let Err(why) = verdict(&bytes) {
                panic!("{reader}, {damage}: {why}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
