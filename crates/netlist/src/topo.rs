//! Topological analysis: levelization, depth, cones, and fanout metrics.

use crate::circuit::{Circuit, GateId};

/// Levelization of a circuit: level 0 holds the primary/key inputs, and each
/// gate sits one past its deepest fan-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    level: Vec<u32>,
    depth: u32,
}

impl Levels {
    /// The level of a gate.
    pub fn level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// The circuit depth (maximum level).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Levels of all gates in id order.
    pub fn as_slice(&self) -> &[u32] {
        &self.level
    }
}

/// Computes the level of every gate (longest path from any input).
pub fn levelize(circuit: &Circuit) -> Levels {
    let mut level = vec![0u32; circuit.num_gates()];
    let mut depth = 0;
    for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind().is_input() {
            continue;
        }
        let l = gate
            .fanin()
            .iter()
            .map(|&f| level[f.index()])
            .max()
            .unwrap_or(0)
            + 1;
        level[id.index()] = l;
        depth = depth.max(l);
    }
    Levels { level, depth }
}

/// The transitive fan-in cone of a set of gates (including the roots).
pub fn fanin_cone(circuit: &Circuit, roots: &[GateId]) -> Vec<GateId> {
    let mut seen = vec![false; circuit.num_gates()];
    let mut stack: Vec<GateId> = roots.to_vec();
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        cone.push(id);
        for &f in circuit.gate(id).fanin() {
            if !seen[f.index()] {
                stack.push(f);
            }
        }
    }
    cone.sort();
    cone
}

/// Gates that do not reach any primary output (dead logic).
pub fn dead_gates(circuit: &Circuit) -> Vec<GateId> {
    let live = fanin_cone(circuit, circuit.outputs());
    let mut is_live = vec![false; circuit.num_gates()];
    for id in live {
        is_live[id.index()] = true;
    }
    (0..circuit.num_gates())
        .map(GateId::from_index)
        .filter(|id| !is_live[id.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c17;
    use crate::{CircuitBuilder, GateKind};

    #[test]
    fn c17_depth_is_three() {
        let c = c17();
        let levels = levelize(&c);
        assert_eq!(levels.depth(), 3);
        let n22 = c.find("n22").unwrap();
        assert_eq!(levels.level(n22), 3);
        let n10 = c.find("n10").unwrap();
        assert_eq!(levels.level(n10), 1);
        for &i in c.inputs() {
            assert_eq!(levels.level(i), 0);
        }
        assert_eq!(levels.as_slice().len(), c.num_gates());
    }

    #[test]
    fn fanin_cone_of_output_covers_support() {
        let c = c17();
        let n22 = c.find("n22").unwrap();
        let cone = fanin_cone(&c, &[n22]);
        // n22's cone: n22, n10, n16, n11, n1, n2, n3, n6.
        assert_eq!(cone.len(), 8);
        assert!(cone.contains(&c.find("n1").unwrap()));
        assert!(!cone.contains(&c.find("n7").unwrap()));
    }

    #[test]
    fn dead_gates_found() {
        let mut b = CircuitBuilder::new("dead");
        let a = b.add_input("a").unwrap();
        let live = b.add_gate("live", GateKind::Not, &[a]).unwrap();
        let dead = b.add_gate("dead", GateKind::Buf, &[a]).unwrap();
        b.mark_output(live);
        let c = b.finish().unwrap();
        assert_eq!(dead_gates(&c), vec![dead]);
    }

    #[test]
    fn no_dead_gates_in_c17() {
        assert!(dead_gates(&c17()).is_empty());
    }
}
