use netlist::Circuit;
use tensor::CsrMatrix;

/// The connectivity of one circuit, as consumed by the graph models.
///
/// Built once per circuit and shared across every obfuscation instance of
/// that circuit (the paper evaluates thousands of encryption placements on
/// a single netlist, so the operator is heavily reused).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitGraph {
    num_nodes: usize,
    /// Directed edges `(from, to)` following signal flow.
    edges: Vec<(u32, u32)>,
}

impl CircuitGraph {
    /// Extracts the gate-connectivity graph of a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        CircuitGraph {
            num_nodes: circuit.num_gates(),
            edges: circuit
                .edges()
                .into_iter()
                .map(|(a, b)| (a.index() as u32, b.index() as u32))
                .collect(),
        }
    }

    /// Number of gates (graph nodes).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Symmetrized adjacency matrix, optionally with self-loops.
    ///
    /// Circuits are directed, but convolution needs information to flow both
    /// with and against signal direction (an obfuscated gate affects the
    /// SAT hardness of its fan-in cone too), so `A := A_dir + A_dirᵀ`.
    pub fn adjacency(&self, self_loops: bool) -> CsrMatrix {
        let mut triplets: Vec<(usize, usize, f64)> =
            Vec::with_capacity(self.edges.len() * 2 + self.num_nodes);
        for &(a, b) in &self.edges {
            triplets.push((a as usize, b as usize, 1.0));
            triplets.push((b as usize, a as usize, 1.0));
        }
        if self_loops {
            for i in 0..self.num_nodes {
                triplets.push((i, i, 1.0));
            }
        }
        // Duplicate edges (reconvergent fan-out) collapse to weight >= 1;
        // clamp back to 0/1 as the paper uses an unweighted matrix.
        let raw = CsrMatrix::from_triplets(self.num_nodes, self.num_nodes, &triplets);
        let clamped: Vec<(usize, usize, f64)> = raw.iter().map(|(r, c, _)| (r, c, 1.0)).collect();
        CsrMatrix::from_triplets(self.num_nodes, self.num_nodes, &clamped)
    }

    /// The Kipf-Welling GCN operator `D̂^-1/2 (A + I) D̂^-1/2`.
    pub fn gcn_norm(&self) -> CsrMatrix {
        let a = self.adjacency(true);
        let inv_sqrt: Vec<f64> = a
            .row_sums()
            .iter()
            .map(|&d| if d > 0.0 { d.powf(-0.5) } else { 0.0 })
            .collect();
        a.scale_rows(&inv_sqrt).scale_cols(&inv_sqrt)
    }

    /// The ChebNet operator: the scaled normalized Laplacian
    /// `L̃ = L_norm - I = -D^-1/2 A D^-1/2` (using the standard `λ_max ≈ 2`
    /// approximation).
    pub fn scaled_laplacian(&self) -> CsrMatrix {
        let a = self.adjacency(false);
        let inv_sqrt: Vec<f64> = a
            .row_sums()
            .iter()
            .map(|&d| if d > 0.0 { d.powf(-0.5) } else { 0.0 })
            .collect();
        let norm = a.scale_rows(&inv_sqrt).scale_cols(&inv_sqrt);
        let neg: Vec<(usize, usize, f64)> = norm.iter().map(|(r, c, v)| (r, c, -v)).collect();
        CsrMatrix::from_triplets(self.num_nodes, self.num_nodes, &neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c17_graph() -> CircuitGraph {
        CircuitGraph::from_circuit(&netlist::c17())
    }

    #[test]
    fn shape_matches_circuit() {
        let g = c17_graph();
        assert_eq!(g.num_nodes(), 11);
        assert_eq!(g.edges.len(), 12);
    }

    #[test]
    fn adjacency_is_symmetric_unweighted() {
        let a = c17_graph().adjacency(false).to_dense();
        for r in 0..11 {
            for c in 0..11 {
                assert_eq!(a.get(r, c), a.get(c, r), "symmetry at ({r},{c})");
                assert!(a.get(r, c) == 0.0 || a.get(r, c) == 1.0);
            }
            assert_eq!(a.get(r, r), 0.0, "no self loop at {r}");
        }
    }

    #[test]
    fn self_loops_set_diagonal() {
        let a = c17_graph().adjacency(true).to_dense();
        for r in 0..11 {
            assert_eq!(a.get(r, r), 1.0);
        }
    }

    #[test]
    fn gcn_norm_rows_are_bounded() {
        let n = c17_graph().gcn_norm();
        // Symmetric normalization keeps entries in (0, 1].
        for (_, _, v) in n.iter() {
            assert!(v > 0.0 && v <= 1.0);
        }
        // Known property: row sums of the normalized operator are <= sqrt(d+1).
        for s in n.row_sums() {
            assert!(s > 0.0 && s < 4.0);
        }
    }

    #[test]
    fn scaled_laplacian_is_negative_normalized_adjacency() {
        let g = c17_graph();
        let l = g.scaled_laplacian().to_dense();
        for r in 0..11 {
            assert_eq!(l.get(r, r), 0.0);
            for c in 0..11 {
                assert!(l.get(r, c) <= 0.0);
                assert_eq!(l.get(r, c), l.get(c, r));
            }
        }
    }
}
