//! Attack-miter construction: two keyed copies of a locked circuit sharing
//! their primary inputs and every gate the key cannot reach, plus an
//! output-difference indicator.

use crate::encode::encode_gate;
use crate::{encode_circuit_with, encode_or, encode_xor, ClauseSink, EncodeOptions};
use netlist::Circuit;
use sat::{Lit, Var};

/// The variable layout of a de-obfuscation miter (Subramanyan et al., HOST'15).
///
/// Two copies of the locked circuit `C(X, K)` share the input variables `X`
/// but carry independent key variables `K1`, `K2`. [`diff`](MiterEncoding::diff)
/// is true iff the copies disagree on at least one output, so a model of the
/// miter with `diff` asserted yields a *distinguishing input pattern* (DIP).
#[derive(Debug, Clone)]
pub struct MiterEncoding {
    /// Shared primary-input variables.
    pub inputs: Vec<Var>,
    /// Key variables of copy 1.
    pub key1: Vec<Var>,
    /// Key variables of copy 2.
    pub key2: Vec<Var>,
    /// Output variables of copy 1.
    pub outputs1: Vec<Var>,
    /// Output variables of copy 2. An output outside the keys' fan-out
    /// cone holds the same variable as in `outputs1`.
    pub outputs2: Vec<Var>,
    /// Indicator variable: true iff some output pair differs. Fixed false
    /// when no output depends on the key.
    pub diff: Var,
}

impl MiterEncoding {
    /// The literal asserting "the two keyed copies disagree somewhere";
    /// use it as a solve assumption when searching for DIPs.
    pub fn diff_lit(&self) -> Lit {
        Lit::positive(self.diff)
    }
}

/// Encodes the double-keyed miter of `locked` into `sink`.
///
/// Copy 1 is the whole circuit. A gate outside the static fan-out cone of
/// the keys computes the same function of the shared inputs in both
/// copies, so copy 2 encodes only that cone and reuses copy 1's variable
/// everywhere else; only the outputs inside the cone get an XOR and enter
/// `diff`.
///
/// # Panics
///
/// Panics if the circuit has no outputs (a miter needs something to compare)
/// or no key inputs (nothing to attack).
pub fn encode_miter(locked: &Circuit, sink: &mut impl ClauseSink) -> MiterEncoding {
    assert!(
        !locked.outputs().is_empty(),
        "miter construction requires at least one output"
    );
    assert!(
        !locked.keys().is_empty(),
        "miter construction requires key inputs"
    );
    let inputs: Vec<Var> = (0..locked.inputs().len())
        .map(|_| sink.fresh_var())
        .collect();
    let key1: Vec<Var> = (0..locked.keys().len()).map(|_| sink.fresh_var()).collect();
    let key2: Vec<Var> = (0..locked.keys().len()).map(|_| sink.fresh_var()).collect();

    let copy1 = encode_circuit_with(
        locked,
        sink,
        EncodeOptions {
            input_vars: Some(inputs.clone()),
            key_vars: Some(key1.clone()),
        },
    );
    let mut vars2: Vec<Var> = locked.iter().map(|(id, _)| copy1.var(id)).collect();
    let mut keyed = vec![false; locked.num_gates()];
    for (&id, &v) in locked.keys().iter().zip(&key2) {
        vars2[id.index()] = v;
        keyed[id.index()] = true;
    }
    let mut fanin: Vec<Lit> = Vec::with_capacity(8);
    for &id in locked.topo_order() {
        let gate = locked.gate(id);
        if gate.kind().is_input() || !gate.fanin().iter().any(|f| keyed[f.index()]) {
            continue;
        }
        keyed[id.index()] = true;
        fanin.clear();
        fanin.extend(gate.fanin().iter().map(|f| Lit::positive(vars2[f.index()])));
        vars2[id.index()] = encode_gate(sink, gate.kind(), &fanin);
    }

    let outputs1 = copy1.output_vars(locked);
    let outputs2: Vec<Var> = locked.outputs().iter().map(|o| vars2[o.index()]).collect();
    let diffs: Vec<Lit> = locked
        .outputs()
        .iter()
        .zip(outputs1.iter().zip(&outputs2))
        .filter(|(o, _)| keyed[o.index()])
        .map(|(_, (&a, &b))| Lit::positive(encode_xor(sink, Lit::positive(a), Lit::positive(b))))
        .collect();
    let diff = if diffs.is_empty() {
        let never = sink.fresh_var();
        sink.add_sink_clause(&[Lit::negative(never)]);
        never
    } else {
        encode_or(sink, &diffs)
    };

    MiterEncoding {
        inputs,
        key1,
        key2,
        outputs1,
        outputs2,
        diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fix_vars;
    use netlist::{CircuitBuilder, GateKind};
    use sat::{SolveResult, Solver};

    /// y = a XOR k: distinct keys always disagree, so a DIP exists.
    fn xor_locked() -> Circuit {
        let mut b = CircuitBuilder::new("xor_locked");
        let a = b.add_input("a").unwrap();
        let k = b.add_key_input("keyinput0").unwrap();
        let y = b.add_gate("y", GateKind::Xor, &[a, k]).unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn miter_finds_dip_for_distinct_keys() {
        let locked = xor_locked();
        let mut solver = Solver::new();
        let miter = encode_miter(&locked, &mut solver);
        match solver.solve_with_assumptions(&[miter.diff_lit()]) {
            SolveResult::Sat(m) => {
                // Keys must differ for the outputs to differ under XOR locking.
                assert_ne!(m.value(miter.key1[0]), m.value(miter.key2[0]));
                assert_ne!(m.value(miter.outputs1[0]), m.value(miter.outputs2[0]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn miter_unsat_when_keys_equal() {
        let locked = xor_locked();
        let mut solver = Solver::new();
        let miter = encode_miter(&locked, &mut solver);
        // Force both keys to the same value: the copies become identical.
        fix_vars(&mut solver, &miter.key1, &[true]);
        fix_vars(&mut solver, &miter.key2, &[true]);
        assert!(solver
            .solve_with_assumptions(&[miter.diff_lit()])
            .is_unsat());
    }

    #[test]
    #[should_panic(expected = "requires key inputs")]
    fn miter_requires_keys() {
        let mut solver = Solver::new();
        let _ = encode_miter(&netlist::c17(), &mut solver);
    }
}
