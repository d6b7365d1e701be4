//! Differential testing of the SAT layer against the netlist simulator:
//! every `Sat` model of the de-obfuscation miter claims a concrete
//! disagreement witness — replaying it through `netlist` simulation must
//! reproduce that disagreement, or the CNF encoding and the simulator
//! have diverged. The shared-logic miter must tell apart exactly the key
//! pairs the two-full-copy miter tells apart, and the attack's per-DIP
//! constraint gets the same treatment: the folded encoding must admit
//! exactly the keys the full-copy encoding and the simulator admit.

use cnf::{
    encode_circuit_with, encode_miter, encode_or, encode_xor, fix_vars, EncodeOptions, IoConstraint,
};
use netlist::Circuit;
use obfuscate::{lock_random, SchemeKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sat::{Lit, SolveResult, Solver, Var};

/// Solves the miter of `locked` for up to `max_models` distinguishing
/// models; for each, replays inputs and both keys through the simulator and
/// asserts the outputs differ. Returns how many models were checked.
fn check_miter_models(locked: &netlist::Circuit, max_models: usize) -> usize {
    let mut solver = Solver::new();
    let miter = encode_miter(locked, &mut solver);
    let mut checked = 0;
    while checked < max_models {
        let model = match solver.solve_with_assumptions(&[miter.diff_lit()]) {
            SolveResult::Sat(model) => model,
            SolveResult::Unsat => break,
            SolveResult::Unknown => panic!("no budget set; solver must decide"),
        };
        let dip: Vec<bool> = miter.inputs.iter().map(|&v| model.value(v)).collect();
        let key1: Vec<bool> = miter.key1.iter().map(|&v| model.value(v)).collect();
        let key2: Vec<bool> = miter.key2.iter().map(|&v| model.value(v)).collect();

        let out1 = locked.simulate_bool(&dip, &key1).expect("copy 1 simulates");
        let out2 = locked.simulate_bool(&dip, &key2).expect("copy 2 simulates");
        assert_ne!(
            out1, out2,
            "SAT said keys {key1:?} and {key2:?} disagree on {dip:?}, \
             but simulation produced identical outputs"
        );

        // The miter's own output variables must mirror the simulator too.
        let enc1: Vec<bool> = miter.outputs1.iter().map(|&v| model.value(v)).collect();
        let enc2: Vec<bool> = miter.outputs2.iter().map(|&v| model.value(v)).collect();
        assert_eq!(enc1, out1, "copy-1 CNF outputs disagree with simulation");
        assert_eq!(enc2, out2, "copy-2 CNF outputs disagree with simulation");

        // Ban this (dip, key1, key2) witness and look for another.
        let mut ban: Vec<Lit> = Vec::new();
        for (&var, &val) in miter
            .inputs
            .iter()
            .chain(&miter.key1)
            .chain(&miter.key2)
            .zip(dip.iter().chain(&key1).chain(&key2))
        {
            ban.push(if val {
                Lit::negative(var)
            } else {
                Lit::positive(var)
            });
        }
        solver.add_clause(ban);
        checked += 1;
    }
    checked
}

#[test]
fn miter_models_reproduce_under_simulation_for_xor_locking() {
    let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 3, 11).expect("lockable");
    let checked = check_miter_models(&locked.locked, 16);
    assert!(checked > 0, "an XOR-locked c17 miter must have DIPs");
}

#[test]
fn miter_models_reproduce_under_simulation_for_lut_locking() {
    let base = synth::iscas::circuit("c432", 0).expect("profile");
    let locked = lock_random(&base, SchemeKind::LutLock { lut_size: 3 }, 4, 5).expect("lockable");
    let checked = check_miter_models(&locked.locked, 8);
    assert!(checked > 0, "a LUT-locked c432 miter must have DIPs");
}

#[test]
fn miter_models_reproduce_under_simulation_for_mux_locking() {
    let base = synth::iscas::circuit("c432", 0).expect("profile");
    let locked = lock_random(&base, SchemeKind::MuxLock, 5, 2).expect("lockable");
    let checked = check_miter_models(&locked.locked, 8);
    assert!(checked > 0, "a MUX-locked c432 miter must have DIPs");
}

/// The keys (as bit masks, bit `i` = key input `i`) a solver holding a
/// constraint over `key_vars` admits.
fn admitted_keys(solver: &mut Solver, key_vars: &[Var]) -> Vec<u32> {
    (0..1u32 << key_vars.len())
        .filter(|&key| {
            let assume: Vec<Lit> = key_vars
                .iter()
                .enumerate()
                .map(|(i, &v)| Lit::new(v, key >> i & 1 == 0))
                .collect();
            matches!(solver.solve_with_assumptions(&assume), SolveResult::Sat(_))
        })
        .collect()
}

/// The keys admitted by the folded constraint, by the full-copy
/// encode-then-fix constraint, and by simulation, in that order.
fn key_sets(locked: &Circuit, dip: &[bool], response: &[bool]) -> [Vec<u32>; 3] {
    let nk = locked.keys().len();
    let mut folded = Solver::new();
    let folded_keys = folded.new_vars(nk);
    IoConstraint::new(locked, dip, response).encode(&mut folded, &folded_keys);
    let mut full = Solver::new();
    let full_keys = full.new_vars(nk);
    let enc = encode_circuit_with(
        locked,
        &mut full,
        EncodeOptions {
            input_vars: None,
            key_vars: Some(full_keys.clone()),
        },
    );
    fix_vars(&mut full, &enc.input_vars(locked), dip);
    fix_vars(&mut full, &enc.output_vars(locked), response);
    let simulated = (0..1u32 << nk)
        .filter(|&key| {
            let bits: Vec<bool> = (0..nk).map(|i| key >> i & 1 == 1).collect();
            locked.simulate_bool(dip, &bits).expect("widths match") == response
        })
        .collect();
    [
        admitted_keys(&mut folded, &folded_keys),
        admitted_keys(&mut full, &full_keys),
        simulated,
    ]
}

/// Asserts every gate the ternary pass calls constant under `dip` takes
/// that value under every key. Which gates are constant does not depend on
/// the response, so any response will do.
fn check_constants(locked: &Circuit, dip: &[bool]) {
    let nk = locked.keys().len();
    let constraint = IoConstraint::new(locked, dip, &vec![false; locked.outputs().len()]);
    let inputs: Vec<u64> = dip.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
    for base in (0..1u64 << nk).step_by(64) {
        let lanes = (1u64 << nk) - base;
        let mask = if lanes >= 64 {
            u64::MAX
        } else {
            (1 << lanes) - 1
        };
        // Lane `p` carries key `base + p`.
        let keys: Vec<u64> = (0..nk)
            .map(|i| (0..64).fold(0, |w, p| w | ((base + p) >> i & 1) << p))
            .collect();
        let sim = locked.simulate_words(&inputs, &keys).expect("widths match");
        for &gate in locked.topo_order() {
            if let Some(b) = constraint.constant(gate) {
                let index = gate.index();
                let word = sim.words()[index] & mask;
                assert_eq!(
                    word,
                    if b { mask } else { 0 },
                    "gate {index} is not constant {b}"
                );
            }
        }
    }
}

/// A random locking of c17 or a small synthetic circuit with at most 10
/// key bits.
fn small_locking(rng: &mut StdRng) -> obfuscate::LockedCircuit {
    let base = if rng.gen::<bool>() {
        netlist::c17()
    } else {
        synth::generate(&synth::GeneratorConfig::new("small", 7, 4, 40).with_seed(rng.gen()))
    };
    let (scheme, count) = match rng.gen_range(0..5) {
        0 => (SchemeKind::XorLock, rng.gen_range(1..=6)),
        1 => (SchemeKind::MuxLock, rng.gen_range(1..=6)),
        2 => (SchemeKind::LutLock { lut_size: 2 }, rng.gen_range(1..=2)),
        3 => (SchemeKind::LutLock { lut_size: 3 }, 1),
        _ => (
            SchemeKind::AntiSat {
                key_width: rng.gen_range(2..=5),
            },
            1,
        ),
    };
    let locked = lock_random(&base, scheme, count, rng.gen()).expect("small lockings fit");
    assert!(
        locked.locked.keys().len() <= 10,
        "{scheme}: too many key bits"
    );
    locked
}

/// The textbook miter: two full keyed copies sharing their inputs, with
/// every output pair XORed into the difference indicator. Returns both key
/// variable sets and the indicator.
fn full_copy_miter(locked: &Circuit, solver: &mut Solver) -> (Vec<Var>, Vec<Var>, Lit) {
    let inputs = solver.new_vars(locked.inputs().len());
    let copy = |solver: &mut Solver| {
        let keys = solver.new_vars(locked.keys().len());
        let enc = encode_circuit_with(
            locked,
            solver,
            EncodeOptions {
                input_vars: Some(inputs.clone()),
                key_vars: Some(keys.clone()),
            },
        );
        (keys, enc.output_vars(locked))
    };
    let (key1, out1) = copy(solver);
    let (key2, out2) = copy(solver);
    let diffs: Vec<Lit> = out1
        .iter()
        .zip(&out2)
        .map(|(&a, &b)| Lit::positive(encode_xor(solver, Lit::positive(a), Lit::positive(b))))
        .collect();
    let diff = Lit::positive(encode_or(solver, &diffs));
    (key1, key2, diff)
}

/// Whether some input tells key `pair.0` on `keys[0]` from key `pair.1` on
/// `keys[1]` in a miter with difference indicator `diff`.
fn distinguishes(solver: &mut Solver, keys: [&[Var]; 2], diff: Lit, pair: (u32, u32)) -> bool {
    let mut assume = vec![diff];
    for (vars, key) in keys.into_iter().zip([pair.0, pair.1]) {
        assume.extend(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| Lit::new(v, key >> i & 1 == 0)),
        );
    }
    match solver.solve_with_assumptions(&assume) {
        SolveResult::Sat(_) => true,
        SolveResult::Unsat => false,
        SolveResult::Unknown => panic!("no budget set; solver must decide"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The folded per-DIP constraint admits exactly the keys the full-copy
    /// constraint admits, for the oracle's response, another key's
    /// response, and an arbitrary (often unreachable) response.
    #[test]
    fn folded_io_constraint_admits_the_full_copy_key_set(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = small_locking(&mut rng);
        let circuit = &locked.locked;
        let nk = circuit.keys().len();
        for source in 0..3 {
            let dip: Vec<bool> = (0..circuit.inputs().len()).map(|_| rng.gen()).collect();
            let response = match source {
                0 => locked.original.simulate_bool(&dip, &[]).unwrap(),
                1 => {
                    let key: Vec<bool> = (0..nk).map(|_| rng.gen()).collect();
                    circuit.simulate_bool(&dip, &key).unwrap()
                }
                _ => (0..circuit.outputs().len()).map(|_| rng.gen()).collect(),
            };
            let [folded, full, simulated] = key_sets(circuit, &dip, &response);
            prop_assert_eq!(&folded, &full, "dip {:?} response {:?}", dip, response);
            prop_assert_eq!(&full, &simulated);
            if source < 2 {
                prop_assert!(!folded.is_empty(), "a reachable response admits a key");
            }
            check_constants(circuit, &dip);
        }
    }

    /// The shared-logic miter tells apart exactly the key pairs the
    /// two-full-copy miter tells apart: every pair when the key has at most
    /// 6 bits, 256 seeded pairs otherwise.
    #[test]
    fn shared_miter_distinguishes_the_full_copy_key_pairs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = small_locking(&mut rng);
        let circuit = &locked.locked;
        let nk = circuit.keys().len();
        let mut shared = Solver::new();
        let miter = encode_miter(circuit, &mut shared);
        let mut full = Solver::new();
        let (key1, key2, diff) = full_copy_miter(circuit, &mut full);
        let pairs: Vec<(u32, u32)> = if nk <= 6 {
            (0..1u32 << nk)
                .flat_map(|a| (0..1u32 << nk).map(move |b| (a, b)))
                .collect()
        } else {
            (0..256)
                .map(|_| (rng.gen_range(0..1u32 << nk), rng.gen_range(0..1u32 << nk)))
                .collect()
        };
        for pair in pairs {
            let shared_keys = [&miter.key1[..], &miter.key2[..]];
            let folded = distinguishes(&mut shared, shared_keys, miter.diff_lit(), pair);
            let reference = distinguishes(&mut full, [&key1, &key2], diff, pair);
            prop_assert_eq!(folded, reference, "key pair {:?} of {}", pair, locked.scheme);
        }
    }
}
