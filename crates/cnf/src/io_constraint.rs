//! The SAT attack's per-DIP I/O constraint, encoded over the logic the key
//! can still move.
//!
//! Once a distinguishing input pattern (DIP) is fixed, most of a locked
//! circuit no longer depends on the key: every gate whose fan-in cone holds
//! no key input is a constant, and so is every gate a constant fan-in
//! controls (an AND with a 0 input, a MUX whose select and chosen data input
//! are constant, ...). Much of the rest only passes one key bit through: a
//! MUX whose select is constant, the `X ⊕ K` layer of an Anti-SAT block.
//! [`IoConstraint::new`] finds both in one ternary pass and
//! [`IoConstraint::encode`] encodes only what is left, so each DIP adds
//! clauses in proportion to the logic the key can still move rather than to
//! the whole circuit.

use crate::encode::encode_gate;
use crate::ClauseSink;
use netlist::{Circuit, GateId};
use sat::{Lit, Var};

/// Lane words for the unknown roots of one gate: lane `l` of word `j`
/// carries bit `j` of `l`, so the first `2^u` lanes of `u` such words
/// enumerate every combination of `u` unknowns. Six words fill all 64
/// lanes; a gate with more unknown roots is left unknown.
const LANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// What the ternary pass knows about one gate under a fixed DIP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Signal {
    /// The same value under every key.
    Const(bool),
    /// Equal under every key to `root` (an [`Signal::Own`] gate),
    /// complemented when `negated`.
    Alias { root: GateId, negated: bool },
    /// A key input, or a gate that is a function of two or more roots and
    /// so takes its own variable.
    Own,
}

/// A fan-in as its gate sees it: a constant, or a root's value,
/// complemented when `negated`.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(bool),
    Root { root: GateId, negated: bool },
}

fn operand(signals: &[Signal], f: GateId) -> Operand {
    match signals[f.index()] {
        Signal::Const(b) => Operand::Const(b),
        Signal::Alias { root, negated } => Operand::Root { root, negated },
        Signal::Own => Operand::Root {
            root: f,
            negated: false,
        },
    }
}

/// Ternary-simulates `circuit` with its primary inputs fixed to `inputs`
/// and every key bit unknown.
///
/// Each fan-in is first resolved to a constant or a (possibly complemented)
/// root; the gate is then evaluated over every combination of its distinct
/// unknown roots, one bit lane per combination. All-zero or all-one output
/// is a constant, a root's lane word or its complement is an alias, and
/// anything else takes its own variable. A gate with more unknown roots
/// than a word has lanes for takes its own variable, which stays sound.
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
fn signals(circuit: &Circuit, inputs: &[bool]) -> Vec<Signal> {
    assert_eq!(
        inputs.len(),
        circuit.inputs().len(),
        "inputs length mismatch"
    );
    let mut signals = vec![Signal::Own; circuit.num_gates()];
    for (&id, &b) in circuit.inputs().iter().zip(inputs) {
        signals[id.index()] = Signal::Const(b);
    }
    let mut words: Vec<u64> = Vec::with_capacity(8);
    let mut roots: Vec<GateId> = Vec::with_capacity(8);
    'gates: for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind().is_input() {
            continue; // data inputs are set above; keys are their own roots
        }
        words.clear();
        roots.clear();
        for &f in gate.fanin() {
            words.push(match operand(&signals, f) {
                Operand::Const(b) => {
                    if b {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Operand::Root { root, negated } => {
                    let j = roots.iter().position(|&r| r == root).unwrap_or_else(|| {
                        roots.push(root);
                        roots.len() - 1
                    });
                    let Some(&lane) = LANES.get(j) else {
                        continue 'gates; // too many roots: stays `Own`
                    };
                    if negated {
                        !lane
                    } else {
                        lane
                    }
                }
            });
        }
        let lanes = match 1u32 << roots.len() {
            64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let out = gate.kind().eval_words(&words) & lanes;
        signals[id.index()] = if out == 0 || out == lanes {
            Signal::Const(out != 0)
        } else if let Some(j) = (0..roots.len()).find(|&j| out == LANES[j] & lanes) {
            Signal::Alias {
                root: roots[j],
                negated: false,
            }
        } else if let Some(j) = (0..roots.len()).find(|&j| out == !LANES[j] & lanes) {
            Signal::Alias {
                root: roots[j],
                negated: true,
            }
        } else {
            Signal::Own
        };
    }
    signals
}

/// The constraint "the circuit maps this DIP to this oracle response",
/// analysed once and encodable over any number of key copies — the SAT
/// attack adds it once per key copy after each oracle query.
///
/// Only gates that take their own variable under the DIP (neither constant
/// nor an alias, see [`IoConstraint::constant`]) and that a key-dependent
/// output depends on get a variable and clauses. Constants and aliases get
/// neither: an alias is its root's literal. A constant fan-in enters as one
/// literal fixed true at the root, so [`sat::Solver::add_clause`] strips it
/// from, or drops, each clause it appears in. A constant output needs no
/// clause when it matches the response; when it differs, no key reproduces
/// the observation and an empty clause makes the formula unsatisfiable.
///
/// Over the key variables this admits exactly the keys the full-copy
/// encoding (encode the whole circuit, then fix its inputs and outputs)
/// admits.
#[derive(Debug, Clone)]
pub struct IoConstraint<'a> {
    circuit: &'a Circuit,
    signals: Vec<Signal>,
    /// The gates to encode, in topological order.
    steps: Vec<GateId>,
    /// Gate index → slot of its literal: key input `i` is slot `i`, step
    /// `s` is slot `keys + s`. Any other gate has no slot and is never read.
    slots: Vec<u32>,
    /// Literals of the key-dependent outputs, as roots, each asserted by
    /// one unit clause.
    pinned: Vec<(GateId, bool)>,
    /// Some constant output differs from the response.
    contradiction: bool,
}

impl<'a> IoConstraint<'a> {
    /// Analyses `locked` under the DIP `inputs` and the oracle's `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` does not match the circuit's input or
    /// output count.
    pub fn new(locked: &'a Circuit, inputs: &[bool], outputs: &[bool]) -> Self {
        assert_eq!(
            outputs.len(),
            locked.outputs().len(),
            "outputs length mismatch"
        );
        let signals = signals(locked, inputs);

        let mut needed = vec![false; locked.num_gates()];
        let mut pinned = Vec::new();
        let mut contradiction = false;
        for (&id, &want) in locked.outputs().iter().zip(outputs) {
            match operand(&signals, id) {
                Operand::Const(got) => contradiction |= got != want,
                Operand::Root { root, negated } => {
                    needed[root.index()] = true;
                    pinned.push((root, negated ^ !want));
                }
            }
        }

        // Walk back from the outputs through the roots of each needed gate;
        // steps are collected in reverse topological order.
        let mut steps = Vec::new();
        for &id in locked.topo_order().iter().rev() {
            let gate = locked.gate(id);
            if signals[id.index()] != Signal::Own || !needed[id.index()] || gate.kind().is_input() {
                continue;
            }
            for &f in gate.fanin() {
                if let Operand::Root { root, .. } = operand(&signals, f) {
                    needed[root.index()] = true;
                }
            }
            steps.push(id);
        }
        steps.reverse();

        let mut slots = vec![u32::MAX; locked.num_gates()];
        for (slot, &id) in locked.keys().iter().chain(&steps).enumerate() {
            slots[id.index()] = slot as u32;
        }
        IoConstraint {
            circuit: locked,
            signals,
            steps,
            slots,
            pinned,
            contradiction,
        }
    }

    /// The value `gate` takes under every key, or `None` when it may depend
    /// on the key.
    pub fn constant(&self, gate: GateId) -> Option<bool> {
        match self.signals[gate.index()] {
            Signal::Const(b) => Some(b),
            _ => None,
        }
    }

    /// Encodes the constraint into `sink` for the key copy whose key inputs
    /// are `key_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `key_vars` does not match the circuit's key count.
    pub fn encode(&self, sink: &mut impl ClauseSink, key_vars: &[Var]) {
        assert_eq!(
            key_vars.len(),
            self.circuit.keys().len(),
            "key_vars length mismatch"
        );
        if self.contradiction {
            sink.add_sink_clause(&[]);
            return;
        }
        let mut lits: Vec<Lit> = Vec::with_capacity(key_vars.len() + self.steps.len());
        lits.extend(key_vars.iter().map(|&v| Lit::positive(v)));
        let lit = |lits: &[Lit], root: GateId, negated: bool| {
            let l = lits[self.slots[root.index()] as usize];
            if negated {
                !l
            } else {
                l
            }
        };
        let mut root_true: Option<Lit> = None;
        let mut fanin: Vec<Lit> = Vec::with_capacity(8);
        for &id in &self.steps {
            let gate = self.circuit.gate(id);
            fanin.clear();
            for &f in gate.fanin() {
                fanin.push(match operand(&self.signals, f) {
                    Operand::Root { root, negated } => lit(&lits, root, negated),
                    Operand::Const(b) => {
                        let t = *root_true.get_or_insert_with(|| {
                            let t = Lit::positive(sink.fresh_var());
                            sink.add_sink_clause(&[t]);
                            t
                        });
                        Lit::new(t.var(), !b)
                    }
                });
            }
            lits.push(Lit::positive(encode_gate(sink, gate.kind(), &fanin)));
        }
        for &(root, negated) in &self.pinned {
            sink.add_sink_clause(&[lit(&lits, root, negated)]);
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
        let id = |name: &str| circuit.find(name).unwrap();
        // a = 0 masks the key entirely.
        let c = IoConstraint::new(&circuit, &[false, true], &[false, true]);
        assert_eq!(c.constant(id("x")), None);
        assert_eq!(c.constant(id("y")), Some(false));
        assert_eq!(c.constant(id("z")), Some(true));
        // a = 1 lets the key through to y.
        let c = IoConstraint::new(&circuit, &[true, false], &[false, true]);
        assert_eq!(c.constant(id("y")), None);
        assert_eq!(c.constant(id("z")), Some(true));
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
        let c = IoConstraint::new(&circuit, &[true], &[true, true]);
        assert_eq!(c.constant(six), Some(true), "six unknowns fit the lanes");
        assert_eq!(
            c.constant(seven),
            None,
            "seven do not: unknown, still sound"
        );
    }

    #[test]
    fn constant_outputs_need_no_clause_unless_they_contradict() {
        let circuit = gated();
        let mut formula = CnfFormula::new();
        let k = formula.fresh_var();
        IoConstraint::new(&circuit, &[false, true], &[false, true]).encode(&mut formula, &[k]);
        assert!(
            formula.clauses().is_empty(),
            "both outputs are constant and match: nothing to say"
        );
        IoConstraint::new(&circuit, &[false, true], &[true, true]).encode(&mut formula, &[k]);
        assert_eq!(
            formula.clauses(),
            &[Vec::<Lit>::new()],
            "a wrong constant is UNSAT"
        );
    }

    #[test]
    fn a_lut_with_fixed_selects_is_one_unit_clause_on_its_key_bit() {
        // A LUT-4 as LUT locking builds it: a tree of 15 MUXes over 16 key
        // leaves, selected by four data inputs.
        let mut b = CircuitBuilder::new("lut4");
        let selects: Vec<GateId> = (0..4)
            .map(|i| b.add_input(format!("s{i}")).unwrap())
            .collect();
        let mut level: Vec<GateId> = (0..16)
            .map(|i| b.add_key_input(format!("keyinput{i}")).unwrap())
            .collect();
        for (depth, &s) in selects.iter().enumerate() {
            level = level
                .chunks(2)
                .enumerate()
                .map(|(i, pair)| {
                    let name = format!("m{depth}_{i}");
                    b.add_gate(name, GateKind::Mux, &[s, pair[0], pair[1]])
                        .unwrap()
                })
                .collect();
        }
        b.mark_output(level[0]);
        let circuit = b.finish().unwrap();
        for row in [0usize, 6, 13] {
            let dip: Vec<bool> = (0..4).map(|j| row >> j & 1 == 1).collect();
            for want in [false, true] {
                let mut formula = CnfFormula::new();
                let keys: Vec<Var> = (0..16).map(|_| formula.fresh_var()).collect();
                IoConstraint::new(&circuit, &dip, &[want]).encode(&mut formula, &keys);
                assert_eq!(formula.num_vars(), 16, "the MUX tree adds no variable");
                assert_eq!(formula.clauses(), &[vec![Lit::new(keys[row], !want)]]);
            }
        }
    }

    #[test]
    fn an_anti_sat_key_layer_adds_no_variable() {
        // One Anti-SAT block: y = AND(X ^ K1) & NAND(X ^ K2), out = g ^ y.
        let mut b = CircuitBuilder::new("anti_sat");
        let x: Vec<GateId> = (0..3)
            .map(|i| b.add_input(format!("x{i}")).unwrap())
            .collect();
        let key: Vec<GateId> = (0..6)
            .map(|i| b.add_key_input(format!("keyinput{i}")).unwrap())
            .collect();
        let xor = |b: &mut CircuitBuilder, j: usize, k: usize| {
            b.add_gate(format!("asx{k}"), GateKind::Xor, &[x[j], key[k]])
                .unwrap()
        };
        let left: Vec<GateId> = (0..3).map(|j| xor(&mut b, j, j)).collect();
        let right: Vec<GateId> = (0..3).map(|j| xor(&mut b, j, j + 3)).collect();
        let and = b.add_gate("and", GateKind::And, &left).unwrap();
        let nand = b.add_gate("nand", GateKind::Nand, &right).unwrap();
        let y = b.add_gate("y", GateKind::And, &[and, nand]).unwrap();
        let g = b.add_gate("g", GateKind::Or, &[x[0], x[1]]).unwrap();
        let out = b.add_gate("out", GateKind::Xor, &[g, y]).unwrap();
        b.mark_output(out);
        let circuit = b.finish().unwrap();
        let dip = [true, false, true];
        let mut formula = CnfFormula::new();
        let keys: Vec<Var> = (0..6).map(|_| formula.fresh_var()).collect();
        let constraint = IoConstraint::new(&circuit, &dip, &[true]);
        constraint.encode(&mut formula, &keys);
        // AND, NAND and y: the six XORs are key literals and `out` is `!y`.
        assert_eq!(formula.num_vars(), 6 + 3);
        assert!(left
            .iter()
            .chain(&right)
            .all(|&x| constraint.constant(x).is_none()));
    }

    #[test]
    fn a_gate_wider_than_the_lanes_needs_every_fan_in() {
        // y = OR(a, k0..k6) with a = 0: seven unknown roots, more than the
        // lanes cover, so y takes a variable over all seven keys.
        let mut b = CircuitBuilder::new("wide");
        let a = b.add_input("a").unwrap();
        let mut fanin = vec![a];
        for i in 0..7 {
            fanin.push(b.add_key_input(format!("keyinput{i}")).unwrap());
        }
        let y = b.add_gate("y", GateKind::Or, &fanin).unwrap();
        b.mark_output(y);
        let circuit = b.finish().unwrap();
        let constraint = IoConstraint::new(&circuit, &[false], &[true]);
        assert_eq!(constraint.constant(y), None);
        let mut formula = CnfFormula::new();
        let keys: Vec<Var> = (0..7).map(|_| formula.fresh_var()).collect();
        constraint.encode(&mut formula, &keys);
        // y, plus the root-true literal the constant `a` reads.
        assert_eq!(formula.num_vars(), 7 + 2);
        for &k in &keys {
            assert!(
                formula.clauses().iter().flatten().any(|l| l.var() == k),
                "every key stays in the wide gate's clauses"
            );
        }
    }
}
