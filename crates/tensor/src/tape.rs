//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The tape records a DAG of operations as the forward pass runs;
//! [`Tape::backward`] then accumulates gradients in reverse topological
//! order (which is simply reverse insertion order). Models rebuild the tape
//! on every training step — parameters live outside the tape and are
//! re-inserted as leaves (see the `icnet` crate's trainer).
//!
//! Tapes are `Send`: graph operators are shared as `Arc<CsrMatrix>`, so
//! worker threads (evaluation-suite cells, serving workers) can each run
//! their own tapes against the same operator.

use crate::matrix::Matrix;
use crate::pool::BufferPool;
use crate::segments::Segments;
use crate::sparse::CsrMatrix;
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf {
        requires_grad: bool,
    },
    MatMul(VarId, VarId),
    SpMM {
        sparse: Arc<CsrMatrix>,
        dense: VarId,
    },
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Hadamard(VarId, VarId),
    Scale(VarId, f64),
    Relu(VarId),
    Exp(VarId),
    Transpose(VarId),
    SumAll(VarId),
    SoftmaxCol(VarId),
    /// Matmul over a row-stacked batch whose `b`-side (parameter) gradient
    /// is reduced per row segment, scaled by `scale`, in segment order.
    MatMulSeg {
        a: VarId,
        b: VarId,
        segments: Arc<Segments>,
        scale: f64,
    },
    /// Per-segment row sum: `(total_rows x C) -> (num_segments x C)`, or
    /// with an index, `out[s] = sum_{i in seg s} a[index[i]]`.
    SegmentSum {
        a: VarId,
        segments: Arc<Segments>,
        index: Option<Arc<[u32]>>,
    },
    /// Softmax down a stacked column, renormalized per row segment.
    SegmentSoftmaxCol {
        a: VarId,
        segments: Arc<Segments>,
    },
    /// Broadcast of `softmax(theta)^T` over every row of a stacked batch;
    /// theta's gradient is reduced per segment with `scale` (the batched
    /// form of the ICNet feature-attention spread).
    BroadcastSoftmaxSeg {
        theta: VarId,
        segments: Arc<Segments>,
        scale: f64,
    },
    /// Bias-row add whose bias gradient folds row contributions with
    /// `scale` in row order (rows are the per-graph outputs of a batch).
    AddBiasRowSeg {
        x: VarId,
        bias: VarId,
        scale: f64,
    },
    /// Attention-weighted per-segment row sum:
    /// `out[s] = sum_{r in seg s} attn[r] * h[r]` — the fused form of
    /// spreading `attn` across columns, multiplying into `h` and
    /// segment-summing, in one pass over `h` instead of three full
    /// intermediates.
    SegmentWeightedSum {
        h: VarId,
        attn: VarId,
        segments: Arc<Segments>,
    },
    /// Row gather `out[i] = a[index[i]]`; the backward scatter-adds.
    GatherRows {
        a: VarId,
        index: Arc<[u32]>,
    },
}

impl Op {
    /// The nodes this op reads (at most two).
    fn inputs(&self) -> [Option<VarId>; 2] {
        match *self {
            Op::Leaf { .. } => [None, None],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b)
            | Op::MatMulSeg { a, b, .. }
            | Op::AddBiasRowSeg { x: a, bias: b, .. }
            | Op::SegmentWeightedSum { h: a, attn: b, .. } => [Some(a), Some(b)],
            Op::SpMM { dense: a, .. }
            | Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Exp(a)
            | Op::Transpose(a)
            | Op::SumAll(a)
            | Op::SoftmaxCol(a)
            | Op::SegmentSum { a, .. }
            | Op::SegmentSoftmaxCol { a, .. }
            | Op::BroadcastSoftmaxSeg { theta: a, .. }
            | Op::GatherRows { a, .. } => [Some(a), None],
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// Whether a trainable leaf reaches this node, fixed at push time. A
    /// node without it never collects a gradient, so the backward pass
    /// skips every product that would only feed it.
    needs_grad: bool,
}

fn wants_grad(node: &Node) -> bool {
    node.needs_grad
}

/// Adds an owned gradient contribution to node `v` (moves the matrix into
/// an empty slot — no copy on the first contribution). Contributions that
/// are not kept (constants, second-and-later accumulations) surrender their
/// buffer to `pool`.
fn accumulate_owned(nodes: &mut [Node], pool: &mut BufferPool, v: VarId, grad: Matrix) {
    let node = &mut nodes[v.0];
    if !wants_grad(node) {
        pool.absorb(grad); // constants do not collect gradients
        return;
    }
    match &mut node.grad {
        Some(g) => {
            g.axpy(1.0, &grad);
            pool.absorb(grad);
        }
        slot @ None => *slot = Some(grad),
    }
}

/// Adds `c * grad` to node `v` without allocating a scaled temporary when a
/// gradient buffer already exists (the accumulation hot path of backprop).
fn accumulate_scaled(nodes: &mut [Node], pool: &mut BufferPool, v: VarId, c: f64, grad: &Matrix) {
    let node = &mut nodes[v.0];
    if !wants_grad(node) {
        return;
    }
    match &mut node.grad {
        Some(g) => g.axpy(c, grad),
        slot @ None => {
            let (rows, cols) = grad.shape();
            let mut m = pool.alloc(rows, cols);
            if c == 1.0 {
                grad.map_into(&mut m, |g| g);
            } else {
                grad.map_into(&mut m, |g| g * c);
            }
            *slot = Some(m);
        }
    }
}

/// Numerically stable softmax of a slice. One code path shared by the
/// per-column and per-segment softmax ops, so a segment of a batched column
/// produces bit-identical values to the same rows run through
/// [`Tape::softmax_col`] alone.
fn softmax_slice(xs: &[f64]) -> Vec<f64> {
    let max = xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    let exps: Vec<f64> = xs.iter().map(|&x| (x - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / total).collect()
}

/// Looks up (or computes once) the transpose of a shared sparse operator.
/// Graph convolutions reuse one operator across every layer and instance,
/// so its transpose is cached per tape instead of being rebuilt for every
/// `SpMM` node on every backward pass.
fn cached_transpose(
    cache: &mut Vec<(usize, Arc<CsrMatrix>)>,
    sparse: &Arc<CsrMatrix>,
) -> Arc<CsrMatrix> {
    let key = Arc::as_ptr(sparse) as usize;
    if let Some((_, t)) = cache.iter().find(|(k, _)| *k == key) {
        return Arc::clone(t);
    }
    let t = Arc::new(sparse.transpose());
    cache.push((key, Arc::clone(&t)));
    t
}

/// A reverse-mode autodiff tape. See the [crate docs](crate) for an example.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    // Keyed by the operator allocation's address; the entry holds its own
    // Arc, which keeps the allocation alive (the address cannot be reused
    // while the entry exists).
    sparse_transposes: Vec<(usize, Arc<CsrMatrix>)>,
    // Recycled buffers for node values and gradients (see [`BufferPool`]).
    pool: BufferPool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty tape that allocates node values and gradients from `pool`.
    /// Training loops pass the pool from tape to tape (reclaiming it with
    /// [`Tape::into_pool`]) so steady-state steps reuse the same buffers
    /// instead of hitting the allocator — results are bit-identical either
    /// way.
    pub fn with_pool(pool: BufferPool) -> Self {
        Tape {
            pool,
            ..Tape::default()
        }
    }

    /// Consumes the tape, surrendering every node value and gradient buffer
    /// to the returned pool (the counterpart of [`Tape::with_pool`]).
    pub fn into_pool(mut self) -> BufferPool {
        let mut pool = std::mem::take(&mut self.pool);
        for node in self.nodes.drain(..) {
            pool.absorb(node.value);
            if let Some(g) = node.grad {
                pool.absorb(g);
            }
        }
        pool
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Logical bytes live on the tape: every node value, every materialized
    /// gradient, and the recycled buffers waiting in the pool. Bytes
    /// requested rather than allocator capacity, so the reading is a pure
    /// function of the computation graph — training can be held to a memory
    /// budget with machine-independent verdicts (see the `budget` crate).
    pub fn logical_bytes(&self) -> u64 {
        let nodes: u64 = self
            .nodes
            .iter()
            .map(|n| n.value.logical_bytes() + n.grad.as_ref().map_or(0, Matrix::logical_bytes))
            .sum();
        nodes + self.pool.logical_bytes()
    }

    fn push(&mut self, value: Matrix, op: Op) -> VarId {
        let needs_grad = match op {
            Op::Leaf { requires_grad } => requires_grad,
            _ => op
                .inputs()
                .into_iter()
                .flatten()
                .any(|v| self.nodes[v.0].needs_grad),
        };
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    /// Inserts a trainable leaf (gradients will be accumulated for it).
    pub fn leaf(&mut self, value: Matrix) -> VarId {
        self.push(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Inserts a constant leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(
            value,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// The forward value of a node.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`Tape::backward`] target w.r.t. `v`.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been run or the node is unreachable from
    /// the loss (no gradient was accumulated).
    pub fn grad(&self, v: VarId) -> &Matrix {
        self.nodes[v.0]
            .grad
            .as_ref()
            .expect("no gradient: run backward() on a loss that depends on this node")
    }

    /// Like [`Tape::grad`] but returns `None` when no gradient reached `v`.
    pub fn try_grad(&self, v: VarId) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, cols) = (self.value(a).rows(), self.value(b).cols());
        let mut value = self.pool.alloc(rows, cols);
        self.value(a).matmul_into(self.value(b), &mut value);
        self.push(value, Op::MatMul(a, b))
    }

    /// Sparse-constant × dense product (`sparse` receives no gradient).
    pub fn spmm(&mut self, sparse: Arc<CsrMatrix>, dense: VarId) -> VarId {
        let cols = self.value(dense).cols();
        let mut value = self.pool.alloc(sparse.rows(), cols);
        sparse.spmm_into(self.value(dense), &mut value);
        self.push(value, Op::SpMM { sparse, dense })
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a)
            .zip_into(self.value(b), &mut value, |x, y| x + y);
        self.push(value, Op::Add(a, b))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a)
            .zip_into(self.value(b), &mut value, |x, y| x - y);
        self.push(value, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a)
            .zip_into(self.value(b), &mut value, |x, y| x * y);
        self.push(value, Op::Hadamard(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: VarId, c: f64) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a).map_into(&mut value, |v| v * c);
        self.push(value, Op::Scale(a, c))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a).map_into(&mut value, |v| v.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let mut value = self.pool.alloc(rows, cols);
        self.value(a).map_into(&mut value, f64::exp);
        self.push(value, Op::Exp(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Sum of all elements, as a `1 x 1` node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let value = Matrix::scalar(self.value(a).sum());
        self.push(value, Op::SumAll(a))
    }

    /// Numerically stable softmax down a column vector (`n x 1`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column vector.
    pub fn softmax_col(&mut self, a: VarId) -> VarId {
        let v = self.value(a);
        assert_eq!(v.cols(), 1, "softmax_col expects an n x 1 column");
        let value = Matrix::column(&softmax_slice(v.as_slice()));
        self.push(value, Op::SoftmaxCol(a))
    }

    /// Batched matrix product `a * b` where `a` stacks the rows of a batch
    /// of graphs and `b` is a shared parameter. Forward equals
    /// [`Tape::matmul`]; the backward pass reduces `b`'s gradient per row
    /// segment — `sum_over_segments(scale * a[seg]^T dC[seg])`, folded in
    /// segment order (DESIGN.md §10).
    ///
    /// # Panics
    ///
    /// Panics if `segments` does not cover exactly the rows of `a`.
    pub fn matmul_seg(&mut self, a: VarId, b: VarId, segments: Arc<Segments>, scale: f64) -> VarId {
        assert_eq!(
            self.value(a).rows(),
            segments.total_rows(),
            "matmul_seg segments must cover the stacked rows"
        );
        let (rows, cols) = (self.value(a).rows(), self.value(b).cols());
        let mut value = self.pool.alloc(rows, cols);
        self.value(a).matmul_into(self.value(b), &mut value);
        self.push(
            value,
            Op::MatMulSeg {
                a,
                b,
                segments,
                scale,
            },
        )
    }

    /// Per-segment row sum: collapses each graph's rows of a stacked
    /// `(total_rows x C)` matrix into one row, yielding
    /// `(num_segments x C)`. This is the batched Sum readout (and, scaled,
    /// the Mean readout).
    ///
    /// With an `index`, the stacked rows are read through it without being
    /// built: `out[s] = sum_{i in seg s} a[index[i]]`, summed in ascending
    /// `i` from 0.0, so the result is bit-identical to
    /// [`Tape::gather_rows`] followed by the plain sum. The backward pass
    /// scatter-adds `grad[s]` into row `index[i]` of a zeroed gradient in
    /// ascending `i` — the order in which the gather's backward adds the
    /// stacked rows' gradient copies, so the gradient bits match too.
    ///
    /// # Panics
    ///
    /// Panics if `segments` does not cover exactly the rows of `a` (or,
    /// with an index, the index entries), or if an index is not a row of
    /// `a`.
    pub fn segment_sum(
        &mut self,
        a: VarId,
        segments: Arc<Segments>,
        index: Option<Arc<[u32]>>,
    ) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let stacked = index.as_ref().map_or(rows, |index| {
            assert!(
                index.iter().all(|&r| (r as usize) < rows),
                "segment_sum: index past the {rows} rows"
            );
            index.len()
        });
        assert_eq!(
            stacked,
            segments.total_rows(),
            "segment_sum segments must cover the stacked rows"
        );
        let mut value = self.pool.zeros(segments.len(), cols);
        {
            let src = self.value(a).as_slice();
            let dst = value.as_mut_slice();
            for (s, range) in segments.iter().enumerate() {
                let out = &mut dst[s * cols..(s + 1) * cols];
                for i in range {
                    let r = index.as_ref().map_or(i, |index| index[i] as usize);
                    for (o, &x) in out.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                        *o += x;
                    }
                }
            }
        }
        self.push(value, Op::SegmentSum { a, segments, index })
    }

    /// Softmax down a stacked `(total_rows x 1)` column, renormalized per
    /// row segment — each graph's rows form one independent softmax,
    /// bit-identical to running [`Tape::softmax_col`] on that graph alone.
    ///
    /// # Panics
    ///
    /// Panics unless `a` is a column covered exactly by `segments`.
    pub fn segment_softmax_col(&mut self, a: VarId, segments: Arc<Segments>) -> VarId {
        let rows = {
            let v = self.value(a);
            assert_eq!(v.cols(), 1, "segment_softmax_col expects an n x 1 column");
            assert_eq!(
                v.rows(),
                segments.total_rows(),
                "segment_softmax_col segments must cover the stacked rows"
            );
            v.rows()
        };
        // The segments cover every row exactly once, so each element of the
        // pooled buffer is overwritten below.
        let mut value = self.pool.alloc(rows, 1);
        {
            let src = self.value(a).as_slice();
            let data = value.as_mut_slice();
            for range in segments.iter() {
                let y = softmax_slice(&src[range.clone()]);
                data[range].copy_from_slice(&y);
            }
        }
        self.push(value, Op::SegmentSoftmaxCol { a, segments })
    }

    /// Broadcasts `softmax(theta)^T` (theta is `F x 1`) over every row of a
    /// stacked batch, yielding `(total_rows x F)`; theta's gradient is
    /// reduced per segment with `scale` in segment order. This is the
    /// batched form of the ICNet feature-attention spread
    /// (`ones(n,1) * softmax(theta)^T` per instance).
    ///
    /// # Panics
    ///
    /// Panics unless `theta` is a column vector.
    pub fn broadcast_softmax_seg(
        &mut self,
        theta: VarId,
        segments: Arc<Segments>,
        scale: f64,
    ) -> VarId {
        let t = self.value(theta);
        assert_eq!(t.cols(), 1, "broadcast_softmax_seg expects an F x 1 theta");
        let y = softmax_slice(t.as_slice());
        let f = y.len();
        let rows = segments.total_rows();
        let mut value = self.pool.alloc(rows, f);
        if f > 0 {
            for row in value.as_mut_slice().chunks_exact_mut(f) {
                row.copy_from_slice(&y);
            }
        }
        self.push(
            value,
            Op::BroadcastSoftmaxSeg {
                theta,
                segments,
                scale,
            },
        )
    }

    /// Attention-weighted per-segment row sum: collapses each segment's
    /// rows of `h` (`total_rows x C`) into one row of the
    /// `(num_segments x C)` output, each row weighted by its `attn` entry
    /// (`total_rows x 1`). One pass over `h` replaces the
    /// spread-multiply-pool chain (`hadamard(h, attn * ones^T)` followed by
    /// [`Tape::segment_sum`]) while accumulating each output element in the
    /// same ascending-row order from 0.0, so the result is bit-identical to
    /// the unfused composition — and to the per-instance `h^T * attn`
    /// readout it batches (DESIGN.md §10).
    ///
    /// # Panics
    ///
    /// Panics unless `attn` is a column whose rows match `h`, covered
    /// exactly by `segments`.
    pub fn segment_weighted_sum(
        &mut self,
        h: VarId,
        attn: VarId,
        segments: Arc<Segments>,
    ) -> VarId {
        let (rows, cols) = self.value(h).shape();
        assert_eq!(
            self.value(attn).shape(),
            (rows, 1),
            "segment_weighted_sum expects an n x 1 attention column"
        );
        assert_eq!(
            rows,
            segments.total_rows(),
            "segment_weighted_sum segments must cover the stacked rows"
        );
        let mut value = self.pool.zeros(segments.len(), cols);
        {
            let hs = self.value(h).as_slice();
            let avs = self.value(attn).as_slice();
            let dst = value.as_mut_slice();
            for (s, range) in segments.iter().enumerate() {
                let out = &mut dst[s * cols..(s + 1) * cols];
                for r in range {
                    let a = avs[r];
                    let hrow = &hs[r * cols..(r + 1) * cols];
                    for (o, &hv) in out.iter_mut().zip(hrow) {
                        *o += a * hv;
                    }
                }
            }
        }
        self.push(value, Op::SegmentWeightedSum { h, attn, segments })
    }

    /// Adds a `1 x cols` bias row to every row of `x`, where each row is
    /// one graph's output; the bias gradient folds row contributions with
    /// `scale` in row order (the batched form of the per-instance scalar
    /// bias add).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x cols(x)`.
    pub fn add_bias_row_seg(&mut self, x: VarId, bias: VarId, scale: f64) -> VarId {
        let (xr, xc) = self.value(x).shape();
        assert_eq!(self.value(bias).shape(), (1, xc), "bias must be 1 x cols");
        let mut value = self.pool.alloc(xr, xc);
        if xc > 0 {
            let bias_row = self.value(bias).as_slice();
            let xv = self.value(x).as_slice();
            for (orow, xrow) in value
                .as_mut_slice()
                .chunks_exact_mut(xc)
                .zip(xv.chunks_exact(xc))
            {
                for ((o, &xe), &be) in orow.iter_mut().zip(xrow).zip(bias_row) {
                    *o = xe + be;
                }
            }
        }
        self.push(value, Op::AddBiasRowSeg { x, bias, scale })
    }

    /// Row gather: row `i` of the result is row `index[i]` of `a`, so
    /// several result rows may read one source row. The backward pass
    /// scatter-adds each result row's gradient into the row it was read
    /// from, in ascending `i`.
    ///
    /// # Panics
    ///
    /// Panics if an index is not a row of `a`.
    pub fn gather_rows(&mut self, a: VarId, index: Arc<[u32]>) -> VarId {
        let (rows, cols) = self.value(a).shape();
        assert!(
            index.iter().all(|&r| (r as usize) < rows),
            "gather_rows: index past the {rows} rows"
        );
        let mut value = self.pool.alloc(index.len(), cols);
        if cols > 0 {
            let src = self.value(a).as_slice();
            for (dst, &r) in value
                .as_mut_slice()
                .chunks_exact_mut(cols)
                .zip(index.iter())
            {
                let r = r as usize;
                dst.copy_from_slice(&src[r * cols..(r + 1) * cols]);
            }
        }
        self.push(value, Op::GatherRows { a, index })
    }

    /// Runs the backward pass from `target` (which must be `1 x 1`),
    /// accumulating gradients into every reachable node.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a `1 x 1` node.
    pub fn backward(&mut self, target: VarId) {
        assert_eq!(
            self.nodes[target.0].value.shape(),
            (1, 1),
            "backward target must be scalar (1 x 1)"
        );
        let Tape {
            nodes,
            sparse_transposes,
            pool,
        } = self;
        for node in nodes.iter_mut() {
            if let Some(g) = node.grad.take() {
                pool.absorb(g); // reclaim buffers from a previous backward
            }
        }
        nodes[target.0].grad = Some(Matrix::scalar(1.0));

        for i in (0..=target.0).rev() {
            // Every operand of node `i` has a smaller index (push order), so
            // splitting at `i` lets the node's gradient be read while the
            // operands' gradients are written — no per-node clone.
            let (head, tail) = nodes.split_at_mut(i);
            let node = &tail[0];
            let Some(grad) = node.grad.as_ref() else {
                continue;
            };
            match &node.op {
                Op::Leaf { .. } => {}
                &Op::MatMul(a, b) => {
                    // Either side may be a constant (e.g. a broadcast ones
                    // row); its gradient would be discarded, so skip
                    // computing it.
                    if wants_grad(&head[a.0]) {
                        let mut da = pool.alloc(grad.rows(), head[b.0].value.rows());
                        grad.matmul_nt_into(&head[b.0].value, &mut da);
                        accumulate_owned(head, pool, a, da);
                    }
                    if wants_grad(&head[b.0]) {
                        let db = head[a.0].value.matmul_tn(grad);
                        accumulate_owned(head, pool, b, db);
                    }
                }
                Op::SpMM { sparse, dense } => {
                    let st = cached_transpose(sparse_transposes, sparse);
                    let mut dd = pool.alloc(st.rows(), grad.cols());
                    st.spmm_into(grad, &mut dd);
                    accumulate_owned(head, pool, *dense, dd);
                }
                &Op::Add(a, b) => {
                    accumulate_scaled(head, pool, a, 1.0, grad);
                    accumulate_scaled(head, pool, b, 1.0, grad);
                }
                &Op::Sub(a, b) => {
                    accumulate_scaled(head, pool, a, 1.0, grad);
                    accumulate_scaled(head, pool, b, -1.0, grad);
                }
                &Op::Hadamard(a, b) => {
                    let (rows, cols) = grad.shape();
                    // A constant factor (e.g. gated input features) collects
                    // no gradient — skip the full-matrix pass producing it.
                    if wants_grad(&head[a.0]) {
                        let mut da = pool.alloc(rows, cols);
                        grad.zip_into(&head[b.0].value, &mut da, |g, v| g * v);
                        accumulate_owned(head, pool, a, da);
                    }
                    if wants_grad(&head[b.0]) {
                        let mut db = pool.alloc(rows, cols);
                        grad.zip_into(&head[a.0].value, &mut db, |g, v| g * v);
                        accumulate_owned(head, pool, b, db);
                    }
                }
                &Op::Scale(a, c) => accumulate_scaled(head, pool, a, c, grad),
                &Op::Relu(a) => {
                    let (rows, cols) = grad.shape();
                    let mut da = pool.alloc(rows, cols);
                    grad.zip_into(
                        &head[a.0].value,
                        &mut da,
                        |g, v| {
                            if v > 0.0 {
                                g
                            } else {
                                0.0
                            }
                        },
                    );
                    accumulate_owned(head, pool, a, da);
                }
                &Op::Exp(a) => {
                    let (rows, cols) = grad.shape();
                    let mut da = pool.alloc(rows, cols);
                    grad.zip_into(&node.value, &mut da, |g, v| g * v);
                    accumulate_owned(head, pool, a, da);
                }
                &Op::Transpose(a) => accumulate_owned(head, pool, a, grad.transpose()),
                &Op::SumAll(a) => {
                    let (r, c) = head[a.0].value.shape();
                    let g = grad.get(0, 0);
                    let mut da = pool.alloc(r, c);
                    da.as_mut_slice().fill(g);
                    accumulate_owned(head, pool, a, da);
                }
                &Op::SoftmaxCol(a) => {
                    // dx = y ⊙ (dy - <y, dy>)
                    let y = &node.value;
                    let dot: f64 = y
                        .as_slice()
                        .iter()
                        .zip(grad.as_slice())
                        .map(|(&yi, &gi)| yi * gi)
                        .sum();
                    let dx = y.zip(grad, |yi, gi| yi * (gi - dot));
                    accumulate_owned(head, pool, a, dx);
                }
                Op::MatMulSeg {
                    a,
                    b,
                    segments,
                    scale,
                } => {
                    let (a, b, scale) = (*a, *b, *scale);
                    // A first-layer input is built from constants only; its
                    // gradient would be thrown away, so it is not computed.
                    if wants_grad(&head[a.0]) {
                        let mut da = pool.alloc(grad.rows(), head[b.0].value.rows());
                        grad.matmul_nt_into(&head[b.0].value, &mut da);
                        accumulate_owned(head, pool, a, da);
                    }
                    if wants_grad(&head[b.0]) {
                        // Parameter gradient: per-segment A_i^T dC_i
                        // products, folded with `scale` in segment order.
                        let (br, bc) = head[b.0].value.shape();
                        let av = &head[a.0].value;
                        let mut db = Matrix::zeros(br, bc);
                        for range in segments.iter() {
                            let g = av.matmul_tn_rows(grad, range);
                            db.axpy(scale, &g);
                        }
                        accumulate_owned(head, pool, b, db);
                    }
                }
                Op::SegmentSum { a, segments, index } => {
                    let (ar, cols) = head[a.0].value.shape();
                    let g = grad.as_slice();
                    let da = match index {
                        // Every row of `da` belongs to exactly one segment,
                        // so the copies overwrite the whole (pooled) buffer.
                        None => {
                            let mut da = pool.alloc(ar, cols);
                            let dst = da.as_mut_slice();
                            for (s, range) in segments.iter().enumerate() {
                                for r in range {
                                    dst[r * cols..(r + 1) * cols]
                                        .copy_from_slice(&g[s * cols..(s + 1) * cols]);
                                }
                            }
                            da
                        }
                        // A row may be read by several segments (or none):
                        // scatter-add in ascending stacked row.
                        Some(index) => {
                            let mut da = pool.zeros(ar, cols);
                            let dst = da.as_mut_slice();
                            for (s, range) in segments.iter().enumerate() {
                                let grow = &g[s * cols..(s + 1) * cols];
                                for &r in &index[range] {
                                    let r = r as usize;
                                    for (o, &gv) in
                                        dst[r * cols..(r + 1) * cols].iter_mut().zip(grow)
                                    {
                                        *o += gv;
                                    }
                                }
                            }
                            da
                        }
                    };
                    accumulate_owned(head, pool, *a, da);
                }
                Op::SegmentSoftmaxCol { a, segments } => {
                    // Per segment: dx = y ⊙ (dy - <y, dy>), exactly the
                    // SoftmaxCol rule on that segment's rows. The segments
                    // cover every row, so the pooled buffer is fully
                    // overwritten.
                    let y = node.value.as_slice();
                    let g = grad.as_slice();
                    let mut da = pool.alloc(y.len(), 1);
                    {
                        let dx = da.as_mut_slice();
                        for range in segments.iter() {
                            let dot: f64 = y[range.clone()]
                                .iter()
                                .zip(&g[range.clone()])
                                .map(|(&yi, &gi)| yi * gi)
                                .sum();
                            for r in range {
                                dx[r] = y[r] * (g[r] - dot);
                            }
                        }
                    }
                    accumulate_owned(head, pool, *a, da);
                }
                Op::BroadcastSoftmaxSeg {
                    theta,
                    segments,
                    scale,
                } => {
                    // Recompute softmax(theta) via the forward code path
                    // (bit-identical), then fold the per-segment softmax
                    // jacobian contributions with `scale` in segment order.
                    let y = softmax_slice(head[theta.0].value.as_slice());
                    let f = y.len();
                    let g = grad.as_slice();
                    let mut acc = Matrix::zeros(f, 1);
                    for range in segments.iter() {
                        // Column sums over the segment rows, ascending —
                        // the per-instance ones^T · d(spread) product.
                        let mut gseg = vec![0.0; f];
                        for r in range {
                            for (o, &gv) in gseg.iter_mut().zip(&g[r * f..(r + 1) * f]) {
                                *o += gv;
                            }
                        }
                        let dot: f64 = y.iter().zip(&gseg).map(|(&yi, &gi)| yi * gi).sum();
                        let dtheta: Vec<f64> = y
                            .iter()
                            .zip(&gseg)
                            .map(|(&yi, &gi)| yi * (gi - dot))
                            .collect();
                        acc.axpy(*scale, &Matrix::from_vec(f, 1, dtheta));
                    }
                    accumulate_owned(head, pool, *theta, acc);
                }
                Op::SegmentWeightedSum { h, attn, segments } => {
                    let (h, attn) = (*h, *attn);
                    let (n, f) = head[h.0].value.shape();
                    let mut dh = pool.alloc(n, f);
                    let mut da = pool.alloc(n, 1);
                    {
                        let g = grad.as_slice();
                        let hs = head[h.0].value.as_slice();
                        let avs = head[attn.0].value.as_slice();
                        let dhs = dh.as_mut_slice();
                        let das = da.as_mut_slice();
                        // Each stacked row belongs to exactly one segment,
                        // so both pooled buffers are fully overwritten.
                        for (s, range) in segments.iter().enumerate() {
                            let grow = &g[s * f..(s + 1) * f];
                            for r in range {
                                let a = avs[r];
                                let hrow = &hs[r * f..(r + 1) * f];
                                let drow = &mut dhs[r * f..(r + 1) * f];
                                for (o, &gv) in drow.iter_mut().zip(grow) {
                                    *o = gv * a;
                                }
                                // d_attn[r] = <h[r], g[s]>, ascending
                                // columns with exact-zero h terms skipped —
                                // the per-instance `h^T * grad` product's
                                // accumulation order.
                                let mut acc = 0.0;
                                for (&hv, &gv) in hrow.iter().zip(grow) {
                                    if hv == 0.0 {
                                        continue;
                                    }
                                    acc += hv * gv;
                                }
                                das[r] = acc;
                            }
                        }
                    }
                    accumulate_owned(head, pool, h, dh);
                    accumulate_owned(head, pool, attn, da);
                }
                Op::GatherRows { a, index } => {
                    let (rows, cols) = head[a.0].value.shape();
                    let mut da = pool.zeros(rows, cols);
                    if cols > 0 {
                        let dst = da.as_mut_slice();
                        for (g, &r) in grad.as_slice().chunks_exact(cols).zip(index.iter()) {
                            let r = r as usize;
                            for (o, &gv) in dst[r * cols..(r + 1) * cols].iter_mut().zip(g) {
                                *o += gv;
                            }
                        }
                    }
                    accumulate_owned(head, pool, *a, da);
                }
                &Op::AddBiasRowSeg { x, bias, scale } => {
                    accumulate_scaled(head, pool, x, 1.0, grad);
                    let (gr, gc) = grad.shape();
                    // Fold row contributions with `scale` in row order (the
                    // per-instance trainer's scaled bias-gradient fold).
                    let mut acc = Matrix::zeros(1, gc);
                    {
                        let a = acc.as_mut_slice();
                        let g = grad.as_slice();
                        for r in 0..gr {
                            for (o, &gv) in a.iter_mut().zip(&g[r * gc..(r + 1) * gc]) {
                                *o += scale * gv;
                            }
                        }
                    }
                    accumulate_owned(head, pool, bias, acc);
                }
            }
        }
    }
}

// Worker threads build and run their own tapes; a compile error here
// means an `!Send` type (e.g. `Rc`) crept back into the tape.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Tape>();
    assert_send::<Matrix>();
    assert_send::<CsrMatrix>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of d(loss)/d(param[idx]).
    fn finite_diff(
        build: &dyn Fn(&mut Tape, VarId) -> VarId,
        param: &Matrix,
        r: usize,
        c: usize,
    ) -> f64 {
        let eps = 1e-6;
        let eval = |delta: f64| {
            let mut p = param.clone();
            p.set(r, c, p.get(r, c) + delta);
            let mut tape = Tape::new();
            let pv = tape.leaf(p);
            let loss = build(&mut tape, pv);
            tape.value(loss).get(0, 0)
        };
        (eval(eps) - eval(-eps)) / (2.0 * eps)
    }

    fn check_grads(build: &dyn Fn(&mut Tape, VarId) -> VarId, param: Matrix) {
        let mut tape = Tape::new();
        let pv = tape.leaf(param.clone());
        let loss = build(&mut tape, pv);
        tape.backward(loss);
        let analytic = tape.grad(pv).clone();
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let numeric = finite_diff(build, &param, r, c);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn logical_bytes_grow_with_nodes_and_gradients() {
        let mut tape = Tape::new();
        assert_eq!(tape.logical_bytes(), 0);
        let a = tape.leaf(Matrix::zeros(8, 4));
        assert_eq!(tape.logical_bytes(), 8 * 4 * 8);
        let s = tape.sum_all(a);
        let before_backward = tape.logical_bytes();
        assert_eq!(before_backward, (8 * 4 + 1) * 8);
        tape.backward(s);
        assert!(
            tape.logical_bytes() > before_backward,
            "materialized gradients count toward the footprint"
        );
        // Deterministic: the same graph reads the same bytes.
        let mut again = Tape::new();
        let a2 = again.leaf(Matrix::zeros(8, 4));
        let s2 = again.sum_all(a2);
        again.backward(s2);
        assert_eq!(tape.logical_bytes(), again.logical_bytes());
    }

    #[test]
    fn matmul_grad_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0], &[2.0, 1.0]]);
        let build = move |tape: &mut Tape, w: VarId| {
            let xv = tape.constant(x.clone());
            let h = tape.matmul(xv, w);
            let sq = tape.hadamard(h, h);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::from_rows(&[&[0.3, -0.7], &[1.1, 0.2]]));
    }

    #[test]
    fn relu_exp_chain_grad() {
        let build = |tape: &mut Tape, w: VarId| {
            let r = tape.relu(w);
            let e = tape.exp(r);
            tape.sum_all(e)
        };
        check_grads(&build, Matrix::from_rows(&[&[0.5, -0.5], &[1.5, -2.0]]));
    }

    #[test]
    fn softmax_attention_grad() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        let build = move |tape: &mut Tape, theta: VarId| {
            let xv = tape.constant(x.clone());
            let scores = tape.matmul(xv, theta); // 3x1
            let attn = tape.softmax_col(scores);
            let xt = tape.transpose(xv); // 2x3
            let pooled = tape.matmul(xt, attn); // 2x1
            let sq = tape.hadamard(pooled, pooled);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::column(&[0.3, -0.2]));
    }

    #[test]
    fn spmm_grad() {
        let s = Arc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, -1.0), (2, 2, 0.5)],
        ));
        let build = move |tape: &mut Tape, x: VarId| {
            let h = tape.spmm(Arc::clone(&s), x);
            let sq = tape.hadamard(h, h);
            tape.sum_all(sq)
        };
        check_grads(
            &build,
            Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5], &[0.3, 0.7]]),
        );
    }

    #[test]
    fn stacked_spmm_layers_share_one_cached_transpose() {
        // Two convolution layers on the same operator — the shape of every
        // GNN in this repo; gradients must still match finite differences
        // when the backward pass reuses one cached transpose.
        let s = Arc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, -1.0), (1, 1, 0.5)],
        ));
        let build = move |tape: &mut Tape, x: VarId| {
            let h1 = tape.spmm(Arc::clone(&s), x);
            let r1 = tape.relu(h1);
            let h2 = tape.spmm(Arc::clone(&s), r1);
            let sq = tape.hadamard(h2, h2);
            tape.sum_all(sq)
        };
        check_grads(
            &build,
            Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5], &[0.3, 0.7]]),
        );
    }

    #[test]
    fn bias_scale_sub_grads() {
        let build = |tape: &mut Tape, w: VarId| {
            let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
            let two_w = tape.scale(w, 2.0);
            let d = tape.sub(x, two_w);
            let s = tape.add(d, d);
            let sq = tape.hadamard(s, s);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::from_rows(&[&[0.1, -0.4], &[0.9, 0.2]]));
    }

    #[test]
    fn constants_collect_no_gradient() {
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::scalar(3.0));
        let w = tape.leaf(Matrix::scalar(2.0));
        let p = tape.hadamard(c, w);
        let l = tape.sum_all(p);
        tape.backward(l);
        assert!(tape.try_grad(c).is_none());
        assert_eq!(tape.grad(w).get(0, 0), 3.0);
    }

    #[test]
    fn backward_is_rerunnable() {
        let mut tape = Tape::new();
        let w = tape.leaf(Matrix::scalar(2.0));
        let sq = tape.hadamard(w, w);
        let l = tape.sum_all(sq);
        tape.backward(l);
        let g1 = tape.grad(w).get(0, 0);
        tape.backward(l);
        let g2 = tape.grad(w).get(0, 0);
        assert_eq!(g1, g2, "gradients must reset between backward passes");
        assert_eq!(g1, 4.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let w = tape.leaf(Matrix::ones(2, 2));
        tape.backward(w);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::column(&[1000.0, 1000.0, 999.0]));
        let s = tape.softmax_col(a);
        let v = tape.value(s);
        assert!(v.as_slice().iter().all(|x| x.is_finite()));
        assert!((v.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_seg_grad_matches_finite_difference() {
        // Two stacked "graphs" (3 + 2 rows) against one shared parameter;
        // with scale = 1.0 the segment-reduced gradient is the plain sum,
        // i.e. the true derivative.
        let x = Matrix::from_rows(&[
            &[1.0, -2.0],
            &[0.5, 3.0],
            &[2.0, 1.0],
            &[-1.0, 0.25],
            &[0.75, -0.5],
        ]);
        let seg = Arc::new(Segments::from_lens(&[3, 2]));
        let build = move |tape: &mut Tape, w: VarId| {
            let xv = tape.constant(x.clone());
            let h = tape.matmul_seg(xv, w, Arc::clone(&seg), 1.0);
            let sq = tape.hadamard(h, h);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::from_rows(&[&[0.3, -0.7], &[1.1, 0.2]]));
    }

    #[test]
    fn segment_ops_grads_match_finite_difference() {
        let seg = Arc::new(Segments::from_lens(&[2, 3]));
        // segment_sum: pool a trainable stacked matrix.
        let seg2 = Arc::clone(&seg);
        let build = move |tape: &mut Tape, x: VarId| {
            let pooled = tape.segment_sum(x, Arc::clone(&seg2), None);
            let sq = tape.hadamard(pooled, pooled);
            tape.sum_all(sq)
        };
        check_grads(
            &build,
            Matrix::from_rows(&[
                &[1.0, 2.0],
                &[-1.0, 0.5],
                &[0.3, 0.7],
                &[2.0, -2.0],
                &[0.1, 0.9],
            ]),
        );
        // segment_softmax_col on trainable scores.
        let seg3 = Arc::clone(&seg);
        let build = move |tape: &mut Tape, s: VarId| {
            let attn = tape.segment_softmax_col(s, Arc::clone(&seg3));
            let sq = tape.hadamard(attn, attn);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::column(&[0.3, -0.2, 1.5, 0.0, -0.7]));
    }

    #[test]
    fn broadcast_softmax_and_bias_seg_grads_match_finite_difference() {
        let seg = Arc::new(Segments::from_lens(&[2, 3]));
        let x = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 1.0],
            &[0.5, -0.5],
            &[2.0, 0.25],
        ]);
        let seg2 = Arc::clone(&seg);
        let build = move |tape: &mut Tape, theta: VarId| {
            let spread = tape.broadcast_softmax_seg(theta, Arc::clone(&seg2), 1.0);
            let xv = tape.constant(x.clone());
            let weighted = tape.hadamard(xv, spread);
            let sq = tape.hadamard(weighted, weighted);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::column(&[0.3, -0.2]));
        let build = |tape: &mut Tape, b: VarId| {
            let x = tape.constant(Matrix::column(&[1.0, -2.0, 0.5]));
            let out = tape.add_bias_row_seg(x, b, 1.0);
            let sq = tape.hadamard(out, out);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::scalar(0.4));
    }

    #[test]
    fn segment_ops_are_bit_identical_to_per_instance_ops() {
        // Run two instances through the classic per-instance ops and the
        // same two instances stacked through the segment ops; forward
        // values and parameter gradients must agree to the last bit.
        let xs = [
            Matrix::from_rows(&[&[1.0, 0.5], &[-0.25, 2.0], &[0.75, -1.5]]),
            Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 0.125]]),
        ];
        let w = Matrix::from_rows(&[&[0.3, -0.7], &[1.1, 0.2]]);
        let scale = 1.0 / xs.len() as f64;

        // Per-instance reference: grad fold acc += scale * g_i.
        let mut ref_grad = Matrix::zeros(2, 2);
        let mut ref_vals = Vec::new();
        for x in &xs {
            let mut tape = Tape::new();
            let wv = tape.leaf(w.clone());
            let xv = tape.constant(x.clone());
            let h = tape.matmul(xv, wv);
            let r = tape.relu(h);
            let sq = tape.hadamard(r, r);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            ref_vals.extend_from_slice(tape.value(r).as_slice());
            ref_grad.axpy(scale, tape.grad(wv));
        }

        // Batched: one stacked tape with segment-aware reduction.
        let seg = Arc::new(Segments::from_lens(&[3, 2]));
        let mut stacked = xs[0].as_slice().to_vec();
        stacked.extend_from_slice(xs[1].as_slice());
        let mut tape = Tape::new();
        let wv = tape.leaf(w.clone());
        let xv = tape.constant(Matrix::from_vec(5, 2, stacked));
        let h = tape.matmul_seg(xv, wv, seg, scale);
        let r = tape.relu(h);
        let sq = tape.hadamard(r, r);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        assert_eq!(tape.value(r).as_slice(), &ref_vals[..]);
        assert_eq!(tape.grad(wv), &ref_grad);
    }

    #[test]
    fn segment_weighted_sum_grads_match_finite_difference() {
        let seg = Arc::new(Segments::from_lens(&[2, 3]));
        let h = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 1.0],
            &[0.5, -0.5],
            &[2.0, 0.25],
        ]);
        // Gradient through the attention column.
        let (h2, seg2) = (h.clone(), Arc::clone(&seg));
        let build = move |tape: &mut Tape, attn: VarId| {
            let hv = tape.constant(h2.clone());
            let pooled = tape.segment_weighted_sum(hv, attn, Arc::clone(&seg2));
            let sq = tape.hadamard(pooled, pooled);
            tape.sum_all(sq)
        };
        check_grads(&build, Matrix::column(&[0.3, -0.2, 1.5, 0.1, -0.7]));
        // Gradient through the stacked features.
        let seg3 = Arc::clone(&seg);
        let attn = Matrix::column(&[0.6, 0.4, 0.2, 0.3, 0.5]);
        let build = move |tape: &mut Tape, hv: VarId| {
            let av = tape.constant(attn.clone());
            let pooled = tape.segment_weighted_sum(hv, av, Arc::clone(&seg3));
            let sq = tape.hadamard(pooled, pooled);
            tape.sum_all(sq)
        };
        check_grads(&build, h);
    }

    #[test]
    fn segment_weighted_sum_is_bit_identical_to_the_unfused_chain() {
        // The fused readout must reproduce, to the last bit, the
        // spread-multiply-pool composition it replaces — values and the
        // gradients reaching both operands.
        let seg = Arc::new(Segments::from_lens(&[3, 2]));
        let h = Matrix::from_fn(5, 4, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.25 - 1.0);
        let scores = Matrix::column(&[0.3, -0.2, 1.5, 0.0, -0.7]);

        let run = |fused: bool| {
            let mut tape = Tape::new();
            let hv = tape.leaf(h.clone());
            let sv = tape.leaf(scores.clone());
            let attn = tape.segment_softmax_col(sv, Arc::clone(&seg));
            let pooled = if fused {
                tape.segment_weighted_sum(hv, attn, Arc::clone(&seg))
            } else {
                let ones_row = tape.constant(Matrix::ones(1, 4));
                let spread = tape.matmul(attn, ones_row);
                let weighted = tape.hadamard(hv, spread);
                tape.segment_sum(weighted, Arc::clone(&seg), None)
            };
            let sq = tape.hadamard(pooled, pooled);
            let l = tape.sum_all(sq);
            tape.backward(l);
            (
                tape.value(pooled).clone(),
                tape.grad(hv).clone(),
                tape.grad(sv).clone(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn gradients_that_reach_only_constants_are_pruned() {
        let s = Arc::new(CsrMatrix::from_triplets(
            4,
            4,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, -1.0), (3, 3, 0.5)],
        ));
        let seg = Arc::new(Segments::from_lens(&[2, 2]));
        let x = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64 * 0.3 - 1.0);
        let run = |trainable_input: bool| {
            let mut tape = Tape::new();
            let xv = if trainable_input {
                tape.leaf(x.clone())
            } else {
                tape.constant(x.clone())
            };
            let w = tape.leaf(Matrix::from_rows(&[&[0.2, -0.4], &[0.6, 0.1]]));
            let h = tape.spmm(Arc::clone(&s), xv);
            let m = tape.matmul_seg(h, w, Arc::clone(&seg), 0.5);
            let sq = tape.hadamard(m, m);
            let l = tape.sum_all(sq);
            tape.backward(l);
            let bits: Vec<u64> = tape
                .grad(w)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (tape.try_grad(h).is_some(), bits)
        };
        let (pruned_h, pruned_w) = run(false);
        let (full_h, full_w) = run(true);
        assert!(!pruned_h, "spmm over a constant collects no gradient");
        assert!(full_h, "spmm over a trainable leaf does");
        assert_eq!(pruned_w, full_w, "parameter gradient bits unchanged");
    }

    #[test]
    fn gather_rows_copies_rows_and_scatter_adds_gradients() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let index: Arc<[u32]> = Arc::from(vec![2, 0, 2, 1]);
        let g = tape.gather_rows(a, index);
        assert_eq!(
            tape.value(g).as_slice(),
            &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0, 3.0, 4.0]
        );
        let weights = tape.constant(Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64));
        let weighted = tape.hadamard(g, weights);
        let l = tape.sum_all(weighted);
        tape.backward(l);
        // Row 2 is read twice: its gradient is the sum of both readers'.
        assert_eq!(tape.grad(a).as_slice(), &[2.0, 3.0, 6.0, 7.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_rows_grad_matches_finite_difference() {
        let build = |tape: &mut Tape, w: VarId| {
            let g = tape.gather_rows(w, Arc::from(vec![1, 1, 0]));
            let sq = tape.hadamard(g, g);
            let e = tape.exp(sq);
            tape.sum_all(e)
        };
        check_grads(&build, Matrix::from_rows(&[&[0.3, -0.2], &[0.5, 0.1]]));
    }

    #[test]
    #[should_panic(expected = "gather_rows")]
    fn gather_rows_rejects_an_index_past_the_rows() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::zeros(2, 1));
        let _ = tape.gather_rows(a, Arc::from(vec![2]));
    }

    /// Pools `a` over `seg` through `index`, either read in place or first
    /// gathered into stacked rows, weights the pooled rows by `w` and
    /// returns the value and gradient bits.
    fn indexed_pool(
        a: &Matrix,
        index: &Arc<[u32]>,
        seg: &Arc<Segments>,
        w: &Matrix,
        gathered: bool,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut tape = Tape::new();
        let av = tape.leaf(a.clone());
        let pooled = if gathered {
            let stacked = tape.gather_rows(av, Arc::clone(index));
            tape.segment_sum(stacked, Arc::clone(seg), None)
        } else {
            tape.segment_sum(av, Arc::clone(seg), Some(Arc::clone(index)))
        };
        let wv = tape.constant(w.clone());
        let weighted = tape.hadamard(pooled, wv);
        let l = tape.sum_all(weighted);
        tape.backward(l);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        (bits(tape.value(pooled)), bits(tape.grad(av)))
    }

    #[test]
    fn indexed_segment_sum_is_bit_identical_to_gather_then_sum() {
        // Row 0 is read by every segment, row 3 by none; the zeros are
        // signed so that `0.0 + -0.0` and `-0.0 + -0.0` both occur, in the
        // values and in the gradients (weights of both signs of zero).
        let a = Matrix::from_rows(&[
            &[-0.0, 1.5, 0.1],
            &[0.0, -0.0, 0.2],
            &[-0.0, 2.25, 1e-17],
            &[7.0, 8.0, 9.0],
        ]);
        let index: Arc<[u32]> = Arc::from(vec![0, 1, 0, 2, 0, 0, 2, 1]);
        let seg = Arc::new(Segments::from_lens(&[3, 0, 4, 1]));
        let w = Matrix::from_rows(&[
            &[-0.0, 0.5, 1e16],
            &[1.0, 1.0, 1.0],
            &[0.0, -0.0, 0.3],
            &[-0.0, -0.0, -1.0],
        ]);
        let (values, grads) = indexed_pool(&a, &index, &seg, &w, false);
        assert_eq!((values, grads), indexed_pool(&a, &index, &seg, &w, true));
    }

    #[test]
    fn indexed_segment_sum_grad_matches_finite_difference() {
        let index: Arc<[u32]> = Arc::from(vec![1, 1, 0, 2, 1]);
        let seg = Arc::new(Segments::from_lens(&[2, 3]));
        let build = move |tape: &mut Tape, x: VarId| {
            let pooled = tape.segment_sum(x, Arc::clone(&seg), Some(Arc::clone(&index)));
            let sq = tape.hadamard(pooled, pooled);
            let e = tape.exp(sq);
            tape.sum_all(e)
        };
        check_grads(
            &build,
            Matrix::from_rows(&[&[0.3, -0.2], &[0.5, 0.1], &[-0.4, 0.6]]),
        );
    }

    #[test]
    #[should_panic(expected = "segment_sum: index past")]
    fn indexed_segment_sum_rejects_an_index_past_the_rows() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::zeros(2, 1));
        let seg = Arc::new(Segments::from_lens(&[1]));
        let _ = tape.segment_sum(a, seg, Some(Arc::from(vec![2])));
    }

    #[test]
    fn unindexed_segment_sum_sums_and_copies_each_segment_in_row_order() {
        // Without an index the op is the plain per-segment fold: each
        // output row is its segment's rows added in order from 0.0, and
        // each input row's gradient is a copy of its segment's.
        let a = Matrix::from_rows(&[
            &[-0.0, 1e17],
            &[-0.0, 1.0],
            &[0.1, -1e17],
            &[0.2, 3.0],
            &[0.0, -0.0],
        ]);
        let seg = Arc::new(Segments::from_lens(&[3, 0, 2]));
        let w = Matrix::from_rows(&[&[-0.0, 2.0], &[5.0, 5.0], &[0.5, -0.0]]);
        let mut tape = Tape::new();
        let av = tape.leaf(a.clone());
        let pooled = tape.segment_sum(av, Arc::clone(&seg), None);
        let wv = tape.constant(w.clone());
        let weighted = tape.hadamard(pooled, wv);
        let l = tape.sum_all(weighted);
        tape.backward(l);
        let mut want = Matrix::zeros(3, 2);
        let mut want_grad = Matrix::zeros(5, 2);
        for (s, range) in seg.iter().enumerate() {
            for r in range {
                for c in 0..2 {
                    want.set(s, c, want.get(s, c) + a.get(r, c));
                    want_grad.set(r, c, w.get(s, c));
                }
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tape.value(pooled)), bits(&want));
        assert_eq!(bits(tape.grad(av)), bits(&want_grad));
        // 1e17 + 1.0 - 1e17 in row order is 0.0, not 1.0.
        assert_eq!(want.get(0, 1), 0.0);
    }

    #[test]
    fn tapes_move_across_threads() {
        let s = Arc::new(CsrMatrix::identity(2));
        let handle = std::thread::spawn(move || {
            let mut tape = Tape::new();
            let x = tape.leaf(Matrix::ones(2, 1));
            let h = tape.spmm(s, x);
            let l = tape.sum_all(h);
            tape.backward(l);
            tape.grad(x).clone()
        });
        let grad = handle.join().expect("worker thread");
        assert_eq!(grad, Matrix::ones(2, 1));
    }
}
