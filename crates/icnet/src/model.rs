//! The graph regressor family: GCN, ChebNet, and ICNet.

use crate::aggregate::Aggregation;
use crate::batch::{diffs_from_first, BatchedGraph, Compressed};
use crate::graph::CircuitGraph;
use crate::pool_lease::PoolLease;
use std::fmt;
use std::sync::Arc;
use tensor::{init, CsrMatrix, Matrix, Segments, Tape, VarId};

/// Which graph operator (and hence which model of the paper) to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Kipf-Welling GCN on `D̂^-1/2 (A+I) D̂^-1/2`.
    Gcn,
    /// Chebyshev filters of order `k` on the scaled Laplacian.
    ChebNet {
        /// Polynomial order (number of hops per layer).
        k: usize,
    },
    /// The paper's model: raw adjacency (plus self-loops) instead of the
    /// Laplacian, avoiding the smoothness assumption.
    ICNet,
}

impl ModelKind {
    /// Precomputes this model's graph operator for a circuit graph.
    ///
    /// The ICNet operator is the raw self-looped adjacency scaled by the
    /// constant `1 / (avg_degree + 1)`. A uniform scalar rescale changes
    /// nothing the model can express (it is absorbed by the layer weights)
    /// but keeps two stacked convolutions numerically conditioned like the
    /// normalized operators of the baselines.
    pub fn operator(&self, graph: &CircuitGraph) -> CsrMatrix {
        match self {
            ModelKind::Gcn => graph.gcn_norm(),
            ModelKind::ChebNet { .. } => graph.scaled_laplacian(),
            ModelKind::ICNet => {
                let a = graph.adjacency(true);
                let n = a.rows().max(1);
                let scale = 1.0 / (a.nnz() as f64 / n as f64);
                let uniform = vec![scale; n];
                a.scale_rows(&uniform)
            }
        }
    }

    /// Table label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::ChebNet { .. } => "ChebNet",
            ModelKind::ICNet => "ICNet",
        }
    }

    fn cheb_order(&self) -> usize {
        match self {
            ModelKind::ChebNet { k } => *k,
            _ => 1,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::ChebNet { k } => write!(f, "ChebNet(k={k})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The output nonlinearity of the regressor head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputHead {
    /// Linear output; pair with log-scale labels (numerically robust, the
    /// library default).
    #[default]
    Identity,
    /// Exponential output, the paper's Eq. 3 (`Y = exp(...)`), modelling
    /// the exponential growth of runtime with key-gate count directly.
    Exp,
}

/// A trainable graph regressor (two graph convolutions → aggregation →
/// scalar head). See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct GraphModel {
    /// Operator family.
    pub kind: ModelKind,
    /// Aggregation stage.
    pub aggregation: Aggregation,
    /// Output head.
    pub output: OutputHead,
    num_features: usize,
    hidden: usize,
    conv_layers: usize,
    params: Vec<Matrix>,
}

impl GraphModel {
    /// Creates a model with Xavier-initialized parameters and the paper's
    /// two graph-convolution layers.
    ///
    /// `num_features` must match the encoding width
    /// ([`FeatureSet::width`](crate::FeatureSet::width)); `hidden1`/`hidden2`
    /// are the widths of the two graph convolutions (this reproduction keeps
    /// them equal internally; `hidden2` is the effective width).
    pub fn new(
        kind: ModelKind,
        aggregation: Aggregation,
        num_features: usize,
        hidden1: usize,
        hidden2: usize,
        seed: u64,
    ) -> Self {
        let _ = hidden1;
        GraphModel::with_conv_layers(kind, aggregation, num_features, hidden2, 2, seed)
    }

    /// Creates a model with `conv_layers` stacked graph convolutions of
    /// width `hidden` (the layer-count ablation of `DESIGN.md` §9).
    ///
    /// # Panics
    ///
    /// Panics if `conv_layers == 0`.
    pub fn with_conv_layers(
        kind: ModelKind,
        aggregation: Aggregation,
        num_features: usize,
        hidden: usize,
        conv_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(conv_layers >= 1, "at least one graph convolution required");
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1C4E_7000);
        let k = kind.cheb_order();
        let mut params = Vec::new();
        for layer in 0..conv_layers {
            let in_dim = if layer == 0 { num_features } else { hidden };
            for _ in 0..k {
                params.push(init::xavier_uniform(in_dim, hidden, &mut rng));
            }
        }
        if aggregation == Aggregation::Nn {
            params.push(init::gaussian(num_features, 1, 0.1, &mut rng)); // Θfeat logits
            params.push(init::gaussian(hidden, 1, 0.1, &mut rng)); // Θgate
        }
        // Near-zero head: initial predictions start at the label mean
        // regardless of the pooled magnitude (sum pooling over thousands of
        // gates on the raw adjacency can be large), which keeps the first
        // optimization steps stable for every operator/aggregation combo.
        params.push(init::gaussian(hidden, 1, 1e-3, &mut rng)); // w_out
        params.push(Matrix::zeros(1, 1)); // bias
        GraphModel {
            kind,
            aggregation,
            output: OutputHead::Identity,
            num_features,
            hidden,
            conv_layers,
            params,
        }
    }

    /// Reassembles a model from serialized parts (see the `persist`
    /// module). Validates that the parameter shapes are consistent with the
    /// declared architecture.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub(crate) fn from_parts(
        kind: ModelKind,
        aggregation: Aggregation,
        output: OutputHead,
        num_features: usize,
        params: Vec<Matrix>,
    ) -> Result<GraphModel, String> {
        let k = kind.cheb_order();
        let extra = if aggregation == Aggregation::Nn { 4 } else { 2 };
        if params.len() < k + extra {
            return Err("too few parameter matrices".into());
        }
        let conv_weights = params.len() - extra;
        if !conv_weights.is_multiple_of(k) {
            return Err("conv weight count not divisible by the Chebyshev order".into());
        }
        let conv_layers = conv_weights / k;
        if conv_layers == 0 {
            return Err("no convolution layers".into());
        }
        if params[0].rows() != num_features {
            return Err("first conv weight does not match the feature count".into());
        }
        let hidden = params[0].cols();
        for (i, p) in params[..conv_weights].iter().enumerate() {
            let expect_in = if i / k == 0 { num_features } else { hidden };
            if p.shape() != (expect_in, hidden) {
                return Err(format!("conv weight {i} has shape {:?}", p.shape()));
            }
        }
        let mut idx = conv_weights;
        if aggregation == Aggregation::Nn {
            if params[idx].shape() != (num_features, 1) {
                return Err("Θfeat shape mismatch".into());
            }
            if params[idx + 1].shape() != (hidden, 1) {
                return Err("Θgate shape mismatch".into());
            }
            idx += 2;
        }
        if params[idx].shape() != (hidden, 1) {
            return Err("output weight shape mismatch".into());
        }
        if params[idx + 1].shape() != (1, 1) {
            return Err("bias shape mismatch".into());
        }
        Ok(GraphModel {
            kind,
            aggregation,
            output,
            num_features,
            hidden,
            conv_layers,
            params,
        })
    }

    /// Switches the output head (builder style).
    pub fn with_output(mut self, output: OutputHead) -> Self {
        self.output = output;
        self
    }

    /// The model's parameter matrices (conv weights, attention, head).
    pub fn params(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable access for optimizers.
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params.iter().map(|p| p.as_slice().len()).sum()
    }

    /// Feature width this model expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The learned feature-attention distribution (softmax of the Θfeat
    /// logits), or `None` for sum/mean aggregation. Index 0 is the gate
    /// mask; indices 1.. are the one-hot gate types — the quantities of the
    /// paper's Table III case study.
    pub fn feature_attention(&self) -> Option<Vec<f64>> {
        if self.aggregation != Aggregation::Nn {
            return None;
        }
        let theta = &self.params[self.kind.cheb_order() * self.conv_layers];
        let max = theta
            .as_slice()
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f64> = theta.as_slice().iter().map(|&v| (v - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        Some(exps.iter().map(|&e| e / total).collect())
    }

    /// One graph-convolution layer, `relu(op-filter(input) @ w)`, over rows
    /// split into `segments`: the dense products are segment-aware matmuls,
    /// so each weight gradient folds per row segment, scaled by
    /// `grad_scale`.
    fn conv(
        &self,
        tape: &mut Tape,
        op: &Arc<CsrMatrix>,
        segments: &Arc<Segments>,
        grad_scale: f64,
        input: VarId,
        weights: &[VarId],
    ) -> VarId {
        let matmul = |tape: &mut Tape, a: VarId, w: VarId| {
            tape.matmul_seg(a, w, Arc::clone(segments), grad_scale)
        };
        let mixed = match self.kind {
            ModelKind::Gcn | ModelKind::ICNet => {
                let propagated = tape.spmm(Arc::clone(op), input);
                matmul(tape, propagated, weights[0])
            }
            ModelKind::ChebNet { k } => {
                let mut terms: Vec<VarId> = Vec::with_capacity(k);
                terms.push(input);
                if k > 1 {
                    terms.push(tape.spmm(Arc::clone(op), input));
                }
                for j in 2..k {
                    let prop = tape.spmm(Arc::clone(op), terms[j - 1]);
                    let doubled = tape.scale(prop, 2.0);
                    let t = tape.sub(doubled, terms[j - 2]);
                    terms.push(t);
                }
                let mut acc = matmul(tape, terms[0], weights[0]);
                for (j, &t) in terms.iter().enumerate().skip(1) {
                    let contrib = matmul(tape, t, weights[j]);
                    acc = tape.add(acc, contrib);
                }
                acc
            }
        };
        tape.relu(mixed)
    }

    /// Operator hops between an input row and the last convolution's
    /// output: how far a feature difference can spread, and so the halo
    /// radius of a compressed batch (DESIGN.md §10.1).
    pub(crate) fn halo_hops(&self) -> usize {
        let per_layer = match self.kind {
            ModelKind::ChebNet { k } => k.saturating_sub(1),
            ModelKind::Gcn | ModelKind::ICNet => 1,
        };
        self.conv_layers * per_layer
    }

    /// Builds the forward graph for a whole mini-batch on one tape. The
    /// convolutions run on the batch's compressed rows (`rows`, from
    /// [`BatchedGraph::compress`]); pooling then walks `batch`'s stacked
    /// [`Segments`] through the gather index. Sum and Mean read each
    /// instance's rows of the last layer in place; attention pooling
    /// gathers them into stacked rows first. Returns a `B x 1` prediction
    /// node. Every prediction is bit-identical to the instance's own
    /// forward pass (DESIGN.md §10.1).
    ///
    /// `grad_scale` is the weight each row segment's parameter gradient
    /// carries in the backward fold (`1/batch_size` during training, `1.0`
    /// for pure inference).
    pub(crate) fn forward_batched(
        &self,
        tape: &mut Tape,
        param_ids: &[VarId],
        batch: &BatchedGraph,
        rows: Compressed,
        grad_scale: f64,
    ) -> VarId {
        let Compressed {
            x,
            op,
            segments: row_seg,
            gather,
        } = rows;
        assert_eq!(
            x.cols(),
            self.num_features,
            "feature width mismatch: model expects {}",
            self.num_features
        );
        let seg = Arc::clone(batch.segments());
        let k = self.kind.cheb_order();
        let b = seg.len();
        let mut x_node = tape.constant(x);

        let mut idx = self.conv_layers * k;
        let (theta_f, theta_g) = if self.aggregation == Aggregation::Nn {
            let tf = param_ids[idx];
            let tg = param_ids[idx + 1];
            idx += 2;
            (Some(tf), Some(tg))
        } else {
            (None, None)
        };
        let w_out = param_ids[idx];
        let bias = param_ids[idx + 1];

        // Θfeat: one softmax row broadcast over every compressed row.
        if let Some(tf) = theta_f {
            let spread = tape.broadcast_softmax_seg(tf, Arc::clone(&row_seg), grad_scale);
            x_node = tape.hadamard(x_node, spread);
        }

        let mut h2 = x_node;
        for layer in 0..self.conv_layers {
            let weights = &param_ids[layer * k..(layer + 1) * k];
            h2 = self.conv(tape, &op, &row_seg, grad_scale, h2, weights);
        }

        // Pool each graph's node rows into one row of a B x hidden matrix.
        let pooled = match self.aggregation {
            Aggregation::Sum | Aggregation::Mean => {
                let summed = tape.segment_sum(h2, Arc::clone(&seg), gather); // B x h
                if self.aggregation == Aggregation::Mean {
                    let inv =
                        Matrix::from_fn(b, self.hidden, |g, _| 1.0 / seg.range(g).len() as f64);
                    let invc = tape.constant(inv);
                    tape.hadamard(summed, invc)
                } else {
                    summed
                }
            }
            Aggregation::Nn => {
                // The stacked rows feed both the Θgate scores and the
                // weighted sum, and their two gradients are added per
                // stacked row before the gather scatters the total. Reading
                // through the index instead would scatter each separately
                // and reassociate the sum, moving ICNet-Nn's trained bits.
                if let Some(index) = gather {
                    h2 = tape.gather_rows(h2, index);
                }
                let tg = theta_g.expect("Nn aggregation carries Θgate");
                let scores = tape.matmul_seg(h2, tg, Arc::clone(&seg), grad_scale); // n x 1
                let attn = tape.segment_softmax_col(scores, Arc::clone(&seg));
                tape.segment_weighted_sum(h2, attn, Arc::clone(&seg)) // B x h
            }
        };

        let head_seg = Arc::new(Segments::units(b));
        let lin = tape.matmul_seg(pooled, w_out, head_seg, grad_scale); // B x 1
        let out = tape.add_bias_row_seg(lin, bias, grad_scale);
        match self.output {
            OutputHead::Identity => out,
            OutputHead::Exp => tape.exp(out),
        }
    }

    /// Builds the forward graph on `tape`; `param_ids` must be leaves of the
    /// model's parameters in order. This is the per-instance reference path
    /// (one graph per tape) the batched engine is tested against: its
    /// predictions are bit-identical, its gradients equal up to rounding.
    /// Returns the scalar prediction node.
    #[cfg(test)]
    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        param_ids: &[VarId],
        op: &Arc<CsrMatrix>,
        x: &Matrix,
    ) -> VarId {
        self.forward_with_attention(tape, param_ids, op, x).0
    }

    /// Like [`forward`](Self::forward), additionally returning the
    /// gate-attention node when the model aggregates with Θgate.
    pub(crate) fn forward_with_attention(
        &self,
        tape: &mut Tape,
        param_ids: &[VarId],
        op: &Arc<CsrMatrix>,
        x: &Matrix,
    ) -> (VarId, Option<VarId>) {
        assert_eq!(
            x.cols(),
            self.num_features,
            "feature width mismatch: model expects {}",
            self.num_features
        );
        let n = x.rows();
        let whole = Arc::new(Segments::from_lens(&[n]));
        let k = self.kind.cheb_order();
        let mut x_node = tape.constant(x.clone());

        let mut idx = self.conv_layers * k;
        let (theta_f, theta_g) = if self.aggregation == Aggregation::Nn {
            let tf = param_ids[idx];
            let tg = param_ids[idx + 1];
            idx += 2;
            (Some(tf), Some(tg))
        } else {
            (None, None)
        };
        let w_out = param_ids[idx];
        let bias = param_ids[idx + 1];

        // Θfeat: learned feature attention rescales the input columns.
        if let Some(tf) = theta_f {
            let attn = tape.softmax_col(tf); // F x 1
            let attn_row = tape.transpose(attn); // 1 x F
            let ones = tape.constant(Matrix::ones(n, 1));
            let spread = tape.matmul(ones, attn_row); // n x F
            x_node = tape.hadamard(x_node, spread);
        }

        let mut h2 = x_node;
        for layer in 0..self.conv_layers {
            let weights = &param_ids[layer * k..(layer + 1) * k];
            h2 = self.conv(tape, op, &whole, 1.0, h2, weights);
        }

        // Θgate: pool gates into one h2-dimensional vector.
        let mut attn_node = None;
        let pooled = match self.aggregation {
            Aggregation::Sum | Aggregation::Mean => {
                let ones = tape.constant(Matrix::ones(n, 1));
                let ht = tape.transpose(h2);
                let summed = tape.matmul(ht, ones); // h2 x 1
                if self.aggregation == Aggregation::Mean {
                    tape.scale(summed, 1.0 / n as f64)
                } else {
                    summed
                }
            }
            Aggregation::Nn => {
                let tg = theta_g.expect("Nn aggregation carries Θgate");
                let scores = tape.matmul(h2, tg); // n x 1
                let attn = tape.softmax_col(scores);
                attn_node = Some(attn);
                let ht = tape.transpose(h2);
                tape.matmul(ht, attn) // h2 x 1
            }
        };

        let wt = tape.transpose(w_out); // 1 x h2
        let lin = tape.matmul(wt, pooled); // 1 x 1
        let out = tape.add(lin, bias);
        let out = match self.output {
            OutputHead::Identity => out,
            OutputHead::Exp => tape.exp(out),
        };
        (out, attn_node)
    }

    /// The gate-attention distribution Θgate produces for one instance: one
    /// weight per gate, summing to 1. Returns `None` for sum/mean
    /// aggregation. High-attention gates are the ones the model considers
    /// decisive for this placement's runtime.
    pub fn gate_attention(&self, op: &Arc<CsrMatrix>, x: &Matrix) -> Option<Vec<f64>> {
        if self.aggregation != Aggregation::Nn {
            return None;
        }
        let mut tape = Tape::new();
        let ids = self.insert_params(&mut tape);
        let (_, attn) = self.forward_with_attention(&mut tape, &ids, op, x);
        attn.map(|a| tape.value(a).as_slice().to_vec())
    }

    /// Inserts the parameters as trainable leaves on `tape`.
    pub(crate) fn insert_params(&self, tape: &mut Tape) -> Vec<VarId> {
        self.params.iter().map(|p| tape.leaf(p.clone())).collect()
    }

    /// Predicts the (log-)runtime of one instance.
    pub fn predict(&self, op: &Arc<CsrMatrix>, x: &Matrix) -> f64 {
        let batch = BatchedGraph::single(Arc::clone(op));
        self.predict_batched(&batch, &[x])[0]
    }

    /// Predicts every instance of a pre-packed batch in one forward pass.
    pub fn predict_batched(&self, batch: &BatchedGraph, xs: &[&Matrix]) -> Vec<f64> {
        if xs.is_empty() && batch.num_graphs() == 0 {
            return Vec::new();
        }
        // Lease the thread's standing buffer pool so repeated inference
        // (the serve loop, evaluation sweeps) reuses one set of buffers.
        let mut lease = PoolLease::acquire();
        // One pass finds every instance's diff rows against the first; a
        // batch of one is not compressed and needs none.
        let diffs = if batch.num_graphs() > 1 {
            diffs_from_first(xs)
        } else {
            Vec::new()
        };
        let rows = batch.compress(xs, &diffs, self.halo_hops(), lease.pool());
        let mut tape = Tape::with_pool(std::mem::take(lease.pool()));
        let ids = self.insert_params(&mut tape);
        let out = self.forward_batched(&mut tape, &ids, batch, rows, 1.0);
        let values = tape.value(out).as_slice().to_vec();
        *lease.pool() = tape.into_pool();
        values
    }

    /// Predicts a batch of instances sharing one graph operator.
    pub fn predict_batch(&self, op: &Arc<CsrMatrix>, xs: &[Matrix]) -> Vec<f64> {
        if xs.is_empty() {
            return Vec::new();
        }
        let batch = BatchedGraph::replicate(op, xs.len());
        let refs: Vec<&Matrix> = xs.iter().collect();
        self.predict_batched(&batch, &refs)
    }
}

impl fmt::Display for GraphModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{} ({} features, {} x {}-wide convs, {} params)",
            self.kind,
            self.aggregation,
            self.num_features,
            self.conv_layers,
            self.hidden,
            self.num_params()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode_features, FeatureSet};

    fn setup(kind: ModelKind, agg: Aggregation) -> (Arc<CsrMatrix>, Matrix, GraphModel) {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(kind.operator(&graph));
        let sel = vec![circuit.find("n10").unwrap()];
        let x = encode_features(&circuit, &sel, FeatureSet::All);
        let model = GraphModel::new(kind, agg, 7, 8, 6, 42);
        (op, x, model)
    }

    #[test]
    fn forward_produces_finite_scalar_for_all_kinds() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                let (op, x, model) = setup(kind, agg);
                let y = model.predict(&op, &x);
                assert!(y.is_finite(), "{kind} {agg}");
            }
        }
    }

    #[test]
    fn exp_head_is_positive() {
        let (op, x, model) = setup(ModelKind::ICNet, Aggregation::Nn);
        let model = model.with_output(OutputHead::Exp);
        assert!(model.predict(&op, &x) > 0.0);
    }

    #[test]
    fn predictions_depend_on_the_mask() {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(ModelKind::ICNet.operator(&graph));
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 6, 1);
        let a = encode_features(&circuit, &[circuit.find("n10").unwrap()], FeatureSet::All);
        let all: Vec<netlist::GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_input())
            .map(|(id, _)| id)
            .collect();
        let b = encode_features(&circuit, &all, FeatureSet::All);
        assert_ne!(model.predict(&op, &a), model.predict(&op, &b));
    }

    #[test]
    fn feature_attention_only_for_nn() {
        let (_, _, nn) = setup(ModelKind::ICNet, Aggregation::Nn);
        let attn = nn.feature_attention().expect("NN model has Θfeat");
        assert_eq!(attn.len(), 7);
        assert!((attn.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let (_, _, sum) = setup(ModelKind::ICNet, Aggregation::Sum);
        assert!(sum.feature_attention().is_none());
    }

    #[test]
    fn param_counts_differ_by_kind() {
        let (_, _, gcn) = setup(ModelKind::Gcn, Aggregation::Sum);
        let (_, _, cheb) = setup(ModelKind::ChebNet { k: 3 }, Aggregation::Sum);
        assert!(cheb.num_params() > gcn.num_params());
        assert!(gcn.to_string().contains("GCN"));
    }

    #[test]
    fn batch_predict_matches_single() {
        let (op, x, model) = setup(ModelKind::ICNet, Aggregation::Nn);
        let batch = model.predict_batch(&op, std::slice::from_ref(&x));
        assert_eq!(batch[0], model.predict(&op, &x));
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_instance() {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let a = encode_features(&circuit, &[circuit.find("n10").unwrap()], FeatureSet::All);
        let b = encode_features(
            &circuit,
            &[circuit.find("n22").unwrap(), circuit.find("n23").unwrap()],
            FeatureSet::All,
        );
        let c = encode_features(&circuit, &[], FeatureSet::All);
        let xs = vec![a, b, c];
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            let op = Arc::new(kind.operator(&graph));
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                for output in [OutputHead::Identity, OutputHead::Exp] {
                    let model = GraphModel::new(kind, agg, 7, 8, 6, 42).with_output(output);
                    let batched = model.predict_batch(&op, &xs);
                    // The reference path: one tape per instance.
                    let reference: Vec<f64> = xs
                        .iter()
                        .map(|x| {
                            let mut tape = Tape::new();
                            let ids = model.insert_params(&mut tape);
                            let out = model.forward(&mut tape, &ids, &op, x);
                            tape.value(out).get(0, 0)
                        })
                        .collect();
                    assert_eq!(batched, reference, "{kind} {agg} {output:?}");
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Random 1–6-gate selections over the non-input gates of `circuit`.
    fn random_selections(
        circuit: &netlist::Circuit,
        count: usize,
        seed: u64,
    ) -> Vec<Vec<netlist::GateId>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gates: Vec<netlist::GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_input())
            .map(|(id, _)| id)
            .collect();
        (0..count)
            .map(|_| {
                let keys = rng.gen_range(1..=6);
                (0..keys)
                    .map(|_| gates[rng.gen_range(0..gates.len())])
                    .collect()
            })
            .collect()
    }

    /// Runs the batched convolutions of `model` on `xs`, compressed with
    /// a halo of `hops`, and returns each layer's compressed value with the
    /// compressed features and the gather index.
    fn batched_layers(
        model: &GraphModel,
        op: &CsrMatrix,
        xs: &[Matrix],
        hops: usize,
    ) -> (Vec<Matrix>, Matrix, Arc<[u32]>) {
        let batch = BatchedGraph::replicate(op, xs.len());
        let refs: Vec<&Matrix> = xs.iter().collect();
        let diffs = diffs_from_first(xs);
        let rows = batch.compress(&refs, &diffs, hops, &mut tensor::BufferPool::new());
        let mut tape = Tape::new();
        let ids = model.insert_params(&mut tape);
        let k = model.kind.cheb_order();
        let mut h = tape.constant(rows.x.clone());
        let layers = (0..model.conv_layers)
            .map(|layer| {
                let weights = &ids[layer * k..(layer + 1) * k];
                h = model.conv(&mut tape, &rows.op, &rows.segments, 1.0, h, weights);
                tape.value(h).clone()
            })
            .collect();
        let gather = rows.gather.expect("a compressed batch");
        (layers, rows.x, gather)
    }

    #[test]
    fn halo_covers_every_row_that_differs_from_the_reference() {
        // Brute force: each instance through the per-instance layers on its
        // own tape. Every row of every layer must equal the compressed row
        // its gather index names — its own halo row, or the reference's row
        // when it is outside the halo. A halo one hop short must fail this.
        let circuit = synth::iscas::circuit("c432", 7).expect("known profile");
        let graph = CircuitGraph::from_circuit(&circuit);
        let mut sels = random_selections(&circuit, 5, 12);
        sels.push(Vec::new());
        sels.push(circuit.outputs().to_vec());
        let xs: Vec<Matrix> = sels
            .iter()
            .map(|s| encode_features(&circuit, s, FeatureSet::All))
            .collect();
        let n = circuit.num_gates();
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            let op = Arc::new(kind.operator(&graph));
            let model = GraphModel::new(kind, Aggregation::Sum, 7, 8, 8, 5);
            let k = kind.cheb_order();
            let whole = Arc::new(Segments::from_lens(&[n]));
            let solo: Vec<Vec<Matrix>> = xs
                .iter()
                .map(|x| {
                    let mut tape = Tape::new();
                    let ids = model.insert_params(&mut tape);
                    let mut h = tape.constant(x.clone());
                    (0..model.conv_layers)
                        .map(|layer| {
                            let weights = &ids[layer * k..(layer + 1) * k];
                            h = model.conv(&mut tape, &op, &whole, 1.0, h, weights);
                            tape.value(h).clone()
                        })
                        .collect()
                })
                .collect();
            // Rows (layer, instance, gate) whose compressed row differs.
            let mismatches = |hops: usize| {
                let (layers, x, gather) = batched_layers(&model, &op, &xs, hops);
                let reference = Matrix::from_fn(n, 7, |r, c| x.get(r, c));
                assert_eq!(
                    bits(&reference),
                    bits(&xs[5]),
                    "{kind}: the empty selection is the reference"
                );
                let mut wrong = Vec::new();
                for (layer, compressed) in layers.iter().enumerate() {
                    for (s, per_instance) in solo.iter().enumerate() {
                        for g in 0..n {
                            let row = compressed.row(gather[s * n + g] as usize);
                            let want = per_instance[layer].row(g);
                            if row
                                .iter()
                                .zip(want)
                                .any(|(a, b)| a.to_bits() != b.to_bits())
                            {
                                wrong.push((layer, s, g));
                            }
                        }
                    }
                }
                wrong
            };
            let hops = model.halo_hops();
            assert_eq!(mismatches(hops), vec![], "{kind}");
            assert!(
                !mismatches(hops - 1).is_empty(),
                "{kind}: a halo one hop short must miss a differing row"
            );
        }
    }

    #[test]
    fn compression_keeps_at_most_a_quarter_of_the_rows_on_c1529() {
        // The paper's workload: 16 lockings of c1529 with 1–6 key gates.
        // The reference plus every other instance's two-hop halo must stay
        // within 25% of the stacked rows (about 11% measured), or the
        // compressed engine's speedup is gone.
        let circuit = synth::iscas::circuit("c1529", 0).expect("known profile");
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = ModelKind::ICNet.operator(&graph);
        let xs: Vec<Matrix> = random_selections(&circuit, 16, 3)
            .iter()
            .map(|s| encode_features(&circuit, s, FeatureSet::All))
            .collect();
        let refs: Vec<&Matrix> = xs.iter().collect();
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Sum, 7, 16, 16, 1);
        let batch = BatchedGraph::replicate(&op, xs.len());
        let diffs = diffs_from_first(&xs);
        let rows = batch.compress(
            &refs,
            &diffs,
            model.halo_hops(),
            &mut tensor::BufferPool::new(),
        );
        let kept = rows.x.rows() as f64 / batch.total_nodes() as f64;
        assert!(kept <= 0.25, "{:.1}% of rows kept", 100.0 * kept);
    }

    #[test]
    fn gate_attention_is_a_distribution_over_gates() {
        let (op, x, model) = setup(ModelKind::ICNet, Aggregation::Nn);
        let attn = model.gate_attention(&op, &x).expect("NN aggregation");
        assert_eq!(attn.len(), 11, "one weight per c17 gate");
        assert!((attn.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(attn.iter().all(|&a| a >= 0.0));
        let (op, x, sum_model) = setup(ModelKind::ICNet, Aggregation::Sum);
        assert!(sum_model.gate_attention(&op, &x).is_none());
    }

    #[test]
    fn conv_depth_is_configurable() {
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(ModelKind::ICNet.operator(&graph));
        let x = encode_features(&circuit, &[], FeatureSet::All);
        for layers in [1usize, 2, 3] {
            let model =
                GraphModel::with_conv_layers(ModelKind::ICNet, Aggregation::Nn, 7, 8, layers, 3);
            assert!(model.predict(&op, &x).is_finite(), "{layers} layers");
            assert!(model.feature_attention().is_some(), "{layers} layers");
            assert!(model.to_string().contains(&format!("{layers} x")));
        }
        // Deeper models carry more parameters.
        let shallow = GraphModel::with_conv_layers(ModelKind::ICNet, Aggregation::Sum, 7, 8, 1, 0);
        let deep = GraphModel::with_conv_layers(ModelKind::ICNet, Aggregation::Sum, 7, 8, 3, 0);
        assert!(deep.num_params() > shallow.num_params());
    }

    #[test]
    #[should_panic(expected = "at least one graph convolution")]
    fn zero_conv_layers_panics() {
        let _ = GraphModel::with_conv_layers(ModelKind::Gcn, Aggregation::Sum, 7, 8, 0, 0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_feature_width_panics() {
        let (op, _, model) = setup(ModelKind::ICNet, Aggregation::Nn);
        let bad = Matrix::zeros(11, 3);
        let _ = model.predict(&op, &bad);
    }
}
