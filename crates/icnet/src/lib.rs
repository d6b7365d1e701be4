//! ICNet: graph deep learning for de-obfuscation runtime prediction.
//!
//! This is the paper's primary contribution (Chen et al., DATE 2020): an
//! end-to-end graph regressor that maps an obfuscated circuit — its topology
//! plus per-gate features (encryption mask ⊕ one-hot gate type) — to the
//! predicted SAT-attack runtime.
//!
//! Three model families share one skeleton (two graph convolutions with
//! ReLU, an aggregation stage, a linear/exponential head) and differ in the
//! graph operator:
//!
//! * [`ModelKind::Gcn`] — Kipf-Welling GCN on the symmetric-normalized
//!   adjacency with self-loops (the paper's GCN baseline, which inherits the
//!   Laplacian smoothness assumption);
//! * [`ModelKind::ChebNet`] — Chebyshev polynomial filters of order `k` on
//!   the scaled Laplacian (Defferrard et al.);
//! * [`ModelKind::ICNet`] — the paper's model: the **raw adjacency matrix**
//!   (plus self-loops) replaces the Laplacian, avoiding label-propagation
//!   smoothing that does not hold for circuits, with learned soft-attention
//!   aggregation over features ([`Aggregation::Nn`]'s `Θfeat`) and gates
//!   (`Θgate`).
//!
//! # Example
//!
//! ```
//! use icnet::{Aggregation, FeatureSet, GraphModel, ModelKind, TrainConfig};
//! use icnet::{encode_features, CircuitGraph};
//! use std::sync::Arc;
//!
//! let circuit = netlist::c17();
//! let graph = CircuitGraph::from_circuit(&circuit);
//! let op = Arc::new(icnet::ModelKind::ICNet.operator(&graph));
//!
//! // Two toy instances: different encryption locations, different runtimes.
//! let sel_a = vec![circuit.find("n10").unwrap()];
//! let sel_b = vec![circuit.find("n22").unwrap(), circuit.find("n23").unwrap()];
//! let xs = vec![
//!     encode_features(&circuit, &sel_a, FeatureSet::All),
//!     encode_features(&circuit, &sel_b, FeatureSet::All),
//! ];
//! let ys = vec![0.5, 1.5];
//!
//! let mut model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 8, 1);
//! let report = icnet::train(&mut model, &op, &xs, &ys, &TrainConfig::quick());
//! assert!(report.final_loss.is_finite());
//! let pred = model.predict(&op, &xs[0]);
//! assert!(pred.is_finite());
//! ```

mod aggregate;
mod batch;
mod checkpoint;
mod features;
mod graph;
mod model;
mod persist;
mod pool_lease;
mod trainer;

pub use aggregate::Aggregation;
pub use batch::BatchedGraph;
pub use features::{encode_features, FeatureSet, NUM_FEATURES_ALL, NUM_FEATURES_LOCATION};
pub use graph::CircuitGraph;
pub use model::{GraphModel, ModelKind, OutputHead};
pub use persist::ParseModelError;
pub use trainer::{train, TrainCheckpointSpec, TrainConfig, TrainControl, TrainReport};
