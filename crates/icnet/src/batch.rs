//! Block-diagonal packing of a mini-batch of circuit graphs.
//!
//! A batch of B instances of one circuit is one graph problem: B copies of
//! the graph operator are stacked into a single block-diagonal CSR matrix,
//! the per-instance feature matrices into one tall dense matrix, and a
//! [`Segments`] table records which stacked rows belong to which instance.
//! One spmm/matmul chain then processes the whole batch per layer, instead
//! of B separate tapes (DESIGN.md §10). Because every copy shares one
//! operator, a row whose inputs match a reference copy's is computed once
//! and copied ([`RowReuse`], DESIGN.md §10.5).
//!
//! The packing is purely structural — it depends on the batch *layout*
//! (which operator, how many copies) and not on the feature data — so a
//! trainer builds one `BatchedGraph` per distinct batch length and reuses it
//! across epochs, including its lazily computed operator transpose (seeded
//! into every fresh tape via [`Tape::seed_transpose`](tensor::Tape)).

use std::sync::{Arc, OnceLock};
use tensor::{CsrMatrix, Matrix, RowReuse, Segments};

/// B copies of one graph packed into one block-diagonal operator plus row
/// segments.
#[derive(Debug)]
pub struct BatchedGraph {
    op: Arc<CsrMatrix>,
    segments: Arc<Segments>,
    op_t: OnceLock<Arc<CsrMatrix>>,
    // The transpose of one copy of the operator: row `c` lists the rows
    // that read column `c`, which is all a row-reuse hop needs.
    fan_out: OnceLock<CsrMatrix>,
}

impl BatchedGraph {
    /// Packs `count` copies of one operator: every instance shares the
    /// circuit topology and differs only in its feature matrix (encryption
    /// mask).
    ///
    /// # Panics
    ///
    /// Panics if the operator is non-square (graph operators always are).
    pub fn replicate(op: &CsrMatrix, count: usize) -> Self {
        assert_eq!(op.rows(), op.cols(), "graph operators must be square");
        let ops = vec![op; count];
        BatchedGraph {
            op: Arc::new(CsrMatrix::block_diag(&ops)),
            segments: Arc::new(Segments::from_lens(&vec![op.rows(); count])),
            op_t: OnceLock::new(),
            fan_out: OnceLock::from(op.transpose()),
        }
    }

    /// Wraps a single graph as a batch of one, reusing the operator `Arc`
    /// without copying it.
    pub fn single(op: Arc<CsrMatrix>) -> Self {
        assert_eq!(op.rows(), op.cols(), "graph operators must be square");
        let segments = Arc::new(Segments::from_lens(&[op.rows()]));
        BatchedGraph {
            op,
            segments,
            op_t: OnceLock::new(),
            fan_out: OnceLock::new(),
        }
    }

    /// The block-diagonal operator.
    pub fn operator(&self) -> &Arc<CsrMatrix> {
        &self.op
    }

    /// The per-graph row ranges.
    pub fn segments(&self) -> &Arc<Segments> {
        &self.segments
    }

    /// Number of graphs in the batch.
    pub fn num_graphs(&self) -> usize {
        self.segments.len()
    }

    /// Total stacked node count.
    pub fn total_nodes(&self) -> usize {
        self.segments.total_rows()
    }

    /// The transpose of the block-diagonal operator, computed once per
    /// layout and shared by every tape that trains on it.
    pub fn operator_transpose(&self) -> Arc<CsrMatrix> {
        Arc::clone(self.op_t.get_or_init(|| Arc::new(self.op.transpose())))
    }

    /// The rows `plan` marks dirty, grown by one hop of the operator: the
    /// rows of `op · H` that read a dirty row of `H`. A clean plan stays
    /// clean without touching the operator.
    pub fn hop(&self, plan: &RowReuse) -> RowReuse {
        if plan.is_clean() {
            plan.clone()
        } else {
            plan.hop(self.fan_out.get_or_init(|| self.op.transpose()))
        }
    }

    /// Stacks per-graph feature matrices into one tall matrix whose row
    /// blocks line up with [`segments`](Self::segments).
    ///
    /// # Panics
    ///
    /// Panics if the number of matrices or any row count disagrees with the
    /// batch layout, or if the feature widths are inconsistent.
    pub fn stack_features(&self, xs: &[&Matrix]) -> Matrix {
        assert_eq!(
            xs.len(),
            self.num_graphs(),
            "feature stack: batch holds {} graphs",
            self.num_graphs()
        );
        let cols = xs.first().map_or(0, |x| x.cols());
        let mut data = Vec::with_capacity(self.total_nodes() * cols);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.rows(),
                self.segments.range(i).len(),
                "feature stack: instance {i} row count does not match its graph"
            );
            assert_eq!(
                x.cols(),
                cols,
                "feature stack: instance {i} feature width differs"
            );
            data.extend_from_slice(x.as_slice());
        }
        Matrix::from_vec(self.total_nodes(), cols, data)
    }

    /// [`BatchedGraph::stack_features`] into a buffer from `pool` (the
    /// training hot path restacks every mini-batch; pooling skips the
    /// allocation, never changing the stacked values).
    ///
    /// # Panics
    ///
    /// Same panics as [`BatchedGraph::stack_features`].
    pub fn stack_features_pooled(&self, xs: &[&Matrix], pool: &mut tensor::BufferPool) -> Matrix {
        assert_eq!(
            xs.len(),
            self.num_graphs(),
            "feature stack: batch holds {} graphs",
            self.num_graphs()
        );
        let cols = xs.first().map_or(0, |x| x.cols());
        let mut out = pool.alloc(self.total_nodes(), cols);
        let mut cursor = 0usize;
        {
            let dst = out.as_mut_slice();
            for (i, x) in xs.iter().enumerate() {
                assert_eq!(
                    x.rows(),
                    self.segments.range(i).len(),
                    "feature stack: instance {i} row count does not match its graph"
                );
                assert_eq!(
                    x.cols(),
                    cols,
                    "feature stack: instance {i} feature width differs"
                );
                let src = x.as_slice();
                dst[cursor..cursor + src.len()].copy_from_slice(src);
                cursor += src.len();
            }
        }
        debug_assert_eq!(cursor, out.as_slice().len(), "stack covered every row");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::CsrMatrix;

    fn op(n: usize) -> CsrMatrix {
        CsrMatrix::identity(n)
    }

    #[test]
    fn replicate_builds_block_diagonal_layout() {
        let base = op(3);
        let batch = BatchedGraph::replicate(&base, 4);
        assert_eq!(batch.num_graphs(), 4);
        assert_eq!(batch.total_nodes(), 12);
        assert_eq!(batch.operator().rows(), 12);
        assert_eq!(batch.operator().nnz(), 4 * base.nnz());
        assert_eq!(batch.segments().range(2), 6..9);
    }

    #[test]
    fn single_shares_the_operator_arc() {
        let base = Arc::new(op(5));
        let batch = BatchedGraph::single(Arc::clone(&base));
        assert!(Arc::ptr_eq(batch.operator(), &base));
        assert_eq!(batch.num_graphs(), 1);
        assert_eq!(batch.total_nodes(), 5);
    }

    #[test]
    fn transpose_is_computed_once_and_shaped_right() {
        let batch = BatchedGraph::replicate(&op(3), 2);
        let t1 = batch.operator_transpose();
        let t2 = batch.operator_transpose();
        assert!(Arc::ptr_eq(&t1, &t2), "lazy transpose is cached");
        assert_eq!((t1.rows(), t1.cols()), (6, 6));
    }

    #[test]
    fn stack_features_concatenates_row_blocks() {
        let batch = BatchedGraph::replicate(&op(2), 2);
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let stacked = batch.stack_features(&[&a, &b]);
        assert_eq!(stacked.shape(), (4, 2));
        assert_eq!(
            stacked.as_slice(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    #[should_panic(expected = "row count does not match")]
    fn stack_features_rejects_wrong_row_count() {
        let batch = BatchedGraph::replicate(&op(2), 2);
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        let _ = batch.stack_features(&[&a, &b]);
    }

    #[test]
    fn hop_follows_the_operator_edges() {
        // Path 0 -> 1 -> 2 (row r reads column r - 1) plus self-loops.
        let path = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
            ],
        );
        let batch = BatchedGraph::replicate(&path, 2);
        let x = Matrix::from_vec(6, 1, vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let plan = RowReuse::diff(&x, Arc::clone(batch.segments()));
        assert_eq!(plan.dirty(1), &[0]);
        assert_eq!(batch.hop(&plan).dirty(1), &[0, 1]);
        let clean = RowReuse::diff(&Matrix::zeros(6, 1), Arc::clone(batch.segments()));
        assert!(batch.hop(&clean).is_clean());
    }

    #[test]
    fn empty_batch_is_representable() {
        let batch = BatchedGraph::replicate(&op(3), 0);
        assert_eq!(batch.num_graphs(), 0);
        assert_eq!(batch.total_nodes(), 0);
        let stacked = batch.stack_features(&[]);
        assert_eq!(stacked.shape(), (0, 0));
    }
}
