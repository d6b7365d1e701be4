//! Feature encodings: graph-structured for the GNN models, flattened for
//! the classical baselines.
//!
//! The paper feeds the classical regressors "mean or sum on concatenation of
//! Laplacian or adjacency matrix and gate features": per gate, the structure
//! row (length `n`) is concatenated with the feature row (length `F`), and
//! the `n` per-gate vectors are aggregated by sum or mean into a single
//! `(n + F)`-dimensional vector per instance.

use crate::instance::Instance;
use icnet::{CircuitGraph, FeatureSet};
use netlist::Circuit;
use tensor::Matrix;

/// Which structural matrix enters the flat encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureEncoding {
    /// Symmetrized adjacency matrix.
    Adjacency,
    /// Combinatorial graph Laplacian `L = D - A`.
    Laplacian,
}

/// How the per-gate rows collapse into one flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatAggregation {
    /// Column-wise sum over gates.
    Sum,
    /// Column-wise mean over gates.
    Mean,
}

impl FlatAggregation {
    /// Table label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            FlatAggregation::Sum => "Sum",
            FlatAggregation::Mean => "Mean",
        }
    }
}

/// Encodes every instance as a graph-feature matrix (`n x F` each) for the
/// GNN models.
pub fn graph_features(circuit: &Circuit, instances: &[Instance], fs: FeatureSet) -> Vec<Matrix> {
    instances
        .iter()
        .map(|inst| icnet::encode_features(circuit, &inst.selected, fs))
        .collect()
}

/// Encodes every instance as one flat `(n + F)`-dimensional row for the
/// classical baselines (design matrix: `instances x (n + F)`).
pub fn flat_features(
    circuit: &Circuit,
    instances: &[Instance],
    fs: FeatureSet,
    structure: StructureEncoding,
    agg: FlatAggregation,
) -> Matrix {
    let n = circuit.num_gates();
    let graph = CircuitGraph::from_circuit(circuit);
    let adj = graph.adjacency(false);

    // Column aggregate of the structure matrix — identical for every
    // instance (the circuit is fixed), computed once.
    let mut struct_cols = vec![0.0f64; n];
    match structure {
        StructureEncoding::Adjacency => {
            for (_, c, v) in adj.iter() {
                struct_cols[c] += v;
            }
        }
        StructureEncoding::Laplacian => {
            // L = D - A: column sums are deg(c) - deg(c) = 0, but the
            // mean/sum aggregation still sees the diagonal through the
            // per-gate rows; aggregate of column c is d_c - d_c = 0.
            // Computing it explicitly keeps the encoding honest.
            let degrees = adj.row_sums();
            for (r, c, v) in adj.iter() {
                struct_cols[c] -= v;
                let _ = r;
            }
            for (c, d) in degrees.iter().enumerate() {
                struct_cols[c] += d;
            }
        }
    }
    let divisor = match agg {
        FlatAggregation::Sum => 1.0,
        FlatAggregation::Mean => n as f64,
    };

    let f = fs.width();
    let mut out = Matrix::zeros(instances.len(), n + f);
    for (row, inst) in instances.iter().enumerate() {
        for (col, &s) in struct_cols.iter().enumerate() {
            out.set(row, col, s / divisor);
        }
        let x = icnet::encode_features(circuit, &inst.selected, fs);
        let feat_cols = x.col_sums();
        for j in 0..f {
            out.set(row, n + j, feat_cols.get(0, j) / divisor);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateId;

    fn instances() -> (Circuit, Vec<Instance>) {
        let c = netlist::c17();
        let mk = |sel: Vec<usize>| Instance {
            selected: sel.into_iter().map(GateId::from_index).collect(),
            key_bits: 1,
            iterations: 1,
            work: 1,
            seconds: 1.0,
            log_seconds: 0.0,
            censored: false,
        };
        let insts = vec![mk(vec![5]), mk(vec![5, 6, 7])];
        (c, insts)
    }

    #[test]
    fn graph_features_shapes() {
        let (c, insts) = instances();
        let xs = graph_features(&c, &insts, FeatureSet::All);
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].shape(), (11, 7));
        assert_eq!(xs[0].get(5, 0), 1.0);
        assert_eq!(xs[1].get(7, 0), 1.0);
    }

    #[test]
    fn flat_features_shape_and_mask_sum() {
        let (c, insts) = instances();
        let x = flat_features(
            &c,
            &insts,
            FeatureSet::Location,
            StructureEncoding::Adjacency,
            FlatAggregation::Sum,
        );
        assert_eq!(x.shape(), (2, 12));
        // Mask column aggregates to the number of selected gates.
        assert_eq!(x.get(0, 11), 1.0);
        assert_eq!(x.get(1, 11), 3.0);
        // Structure columns equal gate degrees (same in both rows).
        for col in 0..11 {
            assert_eq!(x.get(0, col), x.get(1, col));
        }
    }

    #[test]
    fn mean_divides_by_gate_count() {
        let (c, insts) = instances();
        let sum = flat_features(
            &c,
            &insts,
            FeatureSet::Location,
            StructureEncoding::Adjacency,
            FlatAggregation::Sum,
        );
        let mean = flat_features(
            &c,
            &insts,
            FeatureSet::Location,
            StructureEncoding::Adjacency,
            FlatAggregation::Mean,
        );
        for col in 0..12 {
            assert!((mean.get(0, col) - sum.get(0, col) / 11.0).abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_structure_columns_are_zero() {
        let (c, insts) = instances();
        let x = flat_features(
            &c,
            &insts,
            FeatureSet::All,
            StructureEncoding::Laplacian,
            FlatAggregation::Sum,
        );
        for col in 0..11 {
            assert_eq!(x.get(0, col), 0.0, "Laplacian columns sum to zero");
        }
        // Feature columns still carry signal.
        assert!(x.get(0, 11) > 0.0);
    }
}
