//! The SAT attack's per-DIP I/O constraint, encoded over the key-dependent
//! gates only.
//!
//! Once a distinguishing input pattern (DIP) is fixed, most of a locked
//! circuit no longer depends on the key: every gate whose fan-in cone holds
//! no key input is a constant, and so is every gate a constant fan-in
//! controls (an AND with a 0 input, a MUX whose select and chosen data input
//! are constant, ...). [`encode_io_constraint`] finds those constants by
//! ternary simulation and encodes only the rest, so each DIP adds clauses in
//! proportion to the logic the key can still move rather than to the whole
//! circuit.

use crate::encode::encode_gate;
use crate::ClauseSink;
use netlist::Circuit;
use sat::{Lit, Var};

/// Lane words for the unknown fan-ins of one gate: lane `l` of word `j`
/// carries bit `j` of `l`, so the first `2^u` lanes of `u` such words
/// enumerate every combination of `u` unknowns. Six words fill all 64
/// lanes; a gate with more unknown fan-ins is left unknown.
const LANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Ternary-simulates `circuit` with its primary inputs fixed to `inputs` and
/// every key bit unknown.
///
/// Entry `i` is `Some(b)` when gate `i` takes value `b` under every key, and
/// `None` when it may depend on the key. Each gate is evaluated over every
/// combination of its unknown fan-ins, one bit lane per combination; a gate
/// with more unknown fan-ins than a word has lanes for counts as unknown,
/// which stays sound.
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
pub fn key_independent_values(circuit: &Circuit, inputs: &[bool]) -> Vec<Option<bool>> {
    assert_eq!(
        inputs.len(),
        circuit.inputs().len(),
        "inputs length mismatch"
    );
    let mut values = vec![None; circuit.num_gates()];
    for (&id, &b) in circuit.inputs().iter().zip(inputs) {
        values[id.index()] = Some(b);
    }
    let mut words: Vec<u64> = Vec::with_capacity(8);
    'gates: for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind().is_input() {
            continue; // data inputs are set above; keys stay unknown
        }
        words.clear();
        let mut unknown = 0;
        for &f in gate.fanin() {
            words.push(match values[f.index()] {
                Some(b) => {
                    if b {
                        u64::MAX
                    } else {
                        0
                    }
                }
                None => {
                    let Some(&lane) = LANES.get(unknown) else {
                        continue 'gates;
                    };
                    unknown += 1;
                    lane
                }
            });
        }
        let lanes = match 1u32 << unknown {
            64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let out = gate.kind().eval_words(&words) & lanes;
        values[id.index()] = match out {
            0 => Some(false),
            _ if out == lanes => Some(true),
            _ => None,
        };
    }
    values
}

/// Encodes into `sink` the constraint "the copy of `locked` keyed by
/// `key_vars` maps `inputs` to `outputs`" — what each DIP adds per key copy
/// in the SAT attack.
///
/// Only gates that depend on the key under `inputs` (see
/// [`key_independent_values`]) and feed a key-dependent output get
/// variables and clauses. A constant fan-in enters as one literal fixed true
/// at the root, so [`sat::Solver::add_clause`] strips it from, or drops, each
/// clause it appears in. A constant output needs no clause when it matches
/// `outputs`; when it differs, no key reproduces the observation and an
/// empty clause makes the formula unsatisfiable.
///
/// Over the key variables this admits exactly the keys the full-copy
/// encoding (encode the whole circuit, then fix its inputs and outputs)
/// admits.
///
/// # Panics
///
/// Panics if `key_vars`, `inputs` or `outputs` does not match the
/// circuit's key, input or output count.
pub fn encode_io_constraint(
    locked: &Circuit,
    sink: &mut impl ClauseSink,
    key_vars: &[Var],
    inputs: &[bool],
    outputs: &[bool],
) {
    assert_eq!(
        key_vars.len(),
        locked.keys().len(),
        "key_vars length mismatch"
    );
    assert_eq!(
        outputs.len(),
        locked.outputs().len(),
        "outputs length mismatch"
    );
    let values = key_independent_values(locked, inputs);

    // The key-dependent cone of the key-dependent outputs; any other
    // key-dependent gate only feeds constants and constrains nothing.
    let mut needed = vec![false; locked.num_gates()];
    for &id in locked.outputs() {
        needed[id.index()] = values[id.index()].is_none();
    }
    for &id in locked.topo_order().iter().rev() {
        if needed[id.index()] {
            for &f in locked.gate(id).fanin() {
                needed[f.index()] |= values[f.index()].is_none();
            }
        }
    }

    let mut vars: Vec<Option<Var>> = vec![None; locked.num_gates()];
    for (&id, &v) in locked.keys().iter().zip(key_vars) {
        vars[id.index()] = Some(v);
    }
    let mut root_true: Option<Lit> = None;
    let mut fanin: Vec<Lit> = Vec::with_capacity(8);
    for &id in locked.topo_order() {
        let gate = locked.gate(id);
        if !needed[id.index()] || gate.kind().is_input() {
            continue;
        }
        fanin.clear();
        for &f in gate.fanin() {
            fanin.push(match values[f.index()] {
                None => Lit::positive(vars[f.index()].expect("topo order")),
                Some(b) => {
                    let t = *root_true.get_or_insert_with(|| {
                        let t = Lit::positive(sink.fresh_var());
                        sink.add_sink_clause(&[t]);
                        t
                    });
                    Lit::new(t.var(), !b)
                }
            });
        }
        vars[id.index()] = Some(encode_gate(sink, gate.kind(), &fanin));
    }

    for (&id, &want) in locked.outputs().iter().zip(outputs) {
        match values[id.index()] {
            None => {
                let v = vars[id.index()].expect("outputs are encoded");
                sink.add_sink_clause(&[Lit::new(v, !want)]);
            }
            Some(got) if got != want => sink.add_sink_clause(&[]),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CnfFormula;
    use netlist::{CircuitBuilder, GateKind};

    /// y = AND(a, XOR(b, k)), z = OR(a, b).
    fn gated() -> Circuit {
        let mut b = CircuitBuilder::new("gated");
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let k = b.add_key_input("keyinput0").unwrap();
        let x = b.add_gate("x", GateKind::Xor, &[c, k]).unwrap();
        let y = b.add_gate("y", GateKind::And, &[a, x]).unwrap();
        let z = b.add_gate("z", GateKind::Or, &[a, c]).unwrap();
        b.mark_output(y);
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn ternary_values_follow_controlling_inputs() {
        let circuit = gated();
        let id = |name: &str| circuit.find(name).unwrap().index();
        // a = 0 masks the key entirely.
        let v = key_independent_values(&circuit, &[false, true]);
        assert_eq!(v[id("x")], None);
        assert_eq!(v[id("y")], Some(false));
        assert_eq!(v[id("z")], Some(true));
        // a = 1 lets the key through to y.
        let v = key_independent_values(&circuit, &[true, false]);
        assert_eq!(v[id("y")], None);
        assert_eq!(v[id("z")], Some(true));
    }

    #[test]
    fn wide_gates_beyond_the_lane_limit_stay_unknown() {
        let mut b = CircuitBuilder::new("wide");
        let a = b.add_input("a").unwrap();
        let mut fanin = vec![a];
        for i in 0..7 {
            fanin.push(b.add_key_input(format!("keyinput{i}")).unwrap());
        }
        let six = b.add_gate("six", GateKind::Or, &fanin[..7]).unwrap();
        let seven = b.add_gate("seven", GateKind::Or, &fanin).unwrap();
        b.mark_output(six);
        b.mark_output(seven);
        let circuit = b.finish().unwrap();
        // a = 1 makes both ORs true under every key.
        let v = key_independent_values(&circuit, &[true]);
        assert_eq!(v[six.index()], Some(true), "six unknowns fit the lanes");
        assert_eq!(v[seven.index()], None, "seven do not: unknown, still sound");
    }

    #[test]
    fn constant_outputs_need_no_clause_unless_they_contradict() {
        let circuit = gated();
        let mut formula = CnfFormula::new();
        let k = formula.fresh_var();
        encode_io_constraint(&circuit, &mut formula, &[k], &[false, true], &[false, true]);
        assert!(
            formula.clauses().is_empty(),
            "both outputs are constant and match: nothing to say"
        );
        encode_io_constraint(&circuit, &mut formula, &[k], &[false, true], &[true, true]);
        assert_eq!(
            formula.clauses(),
            &[Vec::<Lit>::new()],
            "a wrong constant is UNSAT"
        );
    }
}
