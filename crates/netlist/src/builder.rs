use crate::circuit::{Circuit, GateId};
use crate::error::NetlistError;
use crate::gate::{Gate, GateKind, InputRole};
use std::collections::HashMap;

/// Incremental constructor for [`Circuit`] values.
///
/// The builder checks names and arities eagerly and validates acyclicity at
/// [`finish`](CircuitBuilder::finish), so the resulting circuit is always a
/// well-formed DAG.
///
/// # Example
///
/// ```
/// use netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("half_adder");
/// let a = b.add_input("a")?;
/// let c = b.add_input("b")?;
/// let sum = b.add_gate("sum", GateKind::Xor, &[a, c])?;
/// let carry = b.add_gate("carry", GateKind::And, &[a, c])?;
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.num_logic_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    keys: Vec<GateId>,
    outputs: Vec<GateId>,
    by_name: HashMap<String, GateId>,
}

impl CircuitBuilder {
    /// Starts a new, empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            keys: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether no gates have been added yet.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Looks up a previously added signal by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    fn push(
        &mut self,
        name: String,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateSignal(name));
        }
        kind.check_arity(&name, fanin.len())?;
        for &f in &fanin {
            if f.index() >= self.gates.len() {
                return Err(NetlistError::UndefinedSignal {
                    gate: name.clone(),
                    signal: format!("{f}"),
                });
            }
        }
        let id = GateId(self.gates.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.gates.push(Gate { name, kind, fanin });
        Ok(id)
    }

    /// Adds a primary (data) input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] when the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        let id = self.push(name.into(), GateKind::Input(InputRole::Data), Vec::new())?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a key input (used by obfuscation schemes).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] when the name is taken.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        let id = self.push(name.into(), GateKind::Input(InputRole::Key), Vec::new())?;
        self.keys.push(id);
        Ok(id)
    }

    /// Adds a logic gate driven by previously added signals.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] for name collisions,
    /// [`NetlistError::BadArity`] for an illegal fan-in count, and
    /// [`NetlistError::UndefinedSignal`] if a fan-in id is out of range.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: &[GateId],
    ) -> Result<GateId, NetlistError> {
        if kind.is_input() {
            // Inputs must go through add_input/add_key_input so the port
            // lists stay consistent.
            let name = name.into();
            return match kind {
                GateKind::Input(InputRole::Data) => self.add_input(name),
                GateKind::Input(InputRole::Key) => self.add_key_input(name),
                _ => unreachable!(),
            };
        }
        self.push(name.into(), kind, fanin.to_vec())
    }

    /// Marks a signal as a primary output. Repeated marks are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn mark_output(&mut self, id: GateId) {
        assert!(
            id.index() < self.gates.len(),
            "output id does not belong to this builder"
        );
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Validates the netlist and produces an immutable [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the gates do not
    /// form a DAG. (Cycles cannot be constructed through this builder's
    /// `add_gate`, which only accepts already-defined fan-ins, but the check
    /// keeps the invariant local and guards future construction paths.)
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        let topo = kahn_topo(&self.gates)?;
        Ok(Circuit {
            name: self.name,
            gates: self.gates,
            inputs: self.inputs,
            keys: self.keys,
            outputs: self.outputs,
            topo,
        })
    }
}

/// Kahn topological sort over the gate list.
pub(crate) fn kahn_topo(gates: &[Gate]) -> Result<Vec<GateId>, NetlistError> {
    let n = gates.len();
    let mut indegree = vec![0usize; n];
    let mut fanouts: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, gate) in gates.iter().enumerate() {
        indegree[i] = gate.fanin.len();
        for f in &gate.fanin {
            fanouts[f.index()].push(i as u32);
        }
    }
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&i| indegree[i as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(GateId(v));
        for &w in &fanouts[v as usize] {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() != n {
        let cyclic = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
        return Err(NetlistError::CombinationalCycle {
            gate: gates[cyclic].name.clone(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        assert!(matches!(
            b.add_input("a"),
            Err(NetlistError::DuplicateSignal(_))
        ));
    }

    #[test]
    fn arity_enforced_at_add() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a").unwrap();
        assert!(matches!(
            b.add_gate("g", GateKind::And, &[a]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn add_gate_routes_inputs_to_port_lists() {
        let mut b = CircuitBuilder::new("t");
        let a = b
            .add_gate("a", GateKind::Input(InputRole::Data), &[])
            .unwrap();
        let k = b
            .add_gate("k0", GateKind::Input(InputRole::Key), &[])
            .unwrap();
        let g = b.add_gate("g", GateKind::Xor, &[a, k]).unwrap();
        b.mark_output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.inputs(), &[a]);
        assert_eq!(c.keys(), &[k]);
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a").unwrap();
        b.mark_output(a);
        b.mark_output(a);
        let c = b.finish().unwrap();
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn finish_produces_valid_topo() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a").unwrap();
        let x = b.add_gate("x", GateKind::Not, &[a]).unwrap();
        let y = b.add_gate("y", GateKind::And, &[a, x]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        assert_eq!(c.topo_order().len(), 3);
    }

    #[test]
    fn empty_circuit_is_legal() {
        let c = CircuitBuilder::new("empty").finish().unwrap();
        assert_eq!(c.num_gates(), 0);
        assert!(CircuitBuilder::new("e").is_empty());
    }
}
