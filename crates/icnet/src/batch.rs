//! Packing of a mini-batch of lockings of one circuit.
//!
//! Every multi-graph batch is B lockings of one circuit: B feature matrices
//! over one graph operator that differ only in the mask rows of each
//! instance's key gates. [`BatchedGraph`] holds the operator and the
//! *stacked* layout, a [`Segments`] table of B ranges of n rows, which
//! pooling, attention and the head walk per graph (DESIGN.md §10).
//!
//! The convolutions run on a *compressed* layout instead
//! ([`BatchedGraph::compress`], DESIGN.md §10.1): the n rows of one
//! reference instance, and for every other instance only its halo — the
//! rows within a few operator hops of a row whose features differ from the
//! reference's. Every other row of that instance holds the reference's
//! bits in every layer, so it is never stored or computed.
//!
//! The stacked layout is never built as a matrix for Sum and Mean pooling:
//! it is read through the gather index, which names the compressed row
//! holding each stacked row.
//!
//! The layout is structural (which operator, how many instances), so a
//! trainer builds one `BatchedGraph` per distinct batch length and reuses
//! it across epochs. The compressed rows depend on the features and are
//! rebuilt per mini-batch from each instance's diff rows
//! ([`diffs_from_first`]), which a trainer finds once per run.

use std::borrow::Borrow;
use std::sync::Arc;
use tensor::{BufferPool, CsrMatrix, Matrix, Segments};

/// B lockings of one graph: its operator plus the stacked row segments.
#[derive(Debug)]
pub struct BatchedGraph {
    op: Arc<CsrMatrix>,
    segments: Arc<Segments>,
    // The operator's transpose (row `c` lists the rows that read column
    // `c`), which halo growth walks. Absent for a batch of one, which is
    // never compressed.
    fan_out: Option<CsrMatrix>,
}

/// One mini-batch in the compressed layout: the rows the convolutions
/// compute (see [`BatchedGraph::compress`]).
#[derive(Debug)]
pub(crate) struct Compressed {
    /// Feature rows: the reference instance's n rows, then each other
    /// instance's halo rows (ascending), in batch order.
    pub(crate) x: Matrix,
    /// The operator over those rows.
    pub(crate) op: Arc<CsrMatrix>,
    /// The reference's rows, then one range per other instance.
    pub(crate) segments: Arc<Segments>,
    /// For stacked row `s·n + g` (gate `g` of instance `s`), the compressed
    /// row holding its value; `None` when the two layouts coincide (a batch
    /// of one).
    pub(crate) gather: Option<Arc<[u32]>>,
}

impl BatchedGraph {
    /// Packs `count` lockings of one circuit: every instance shares the
    /// operator and differs only in its feature matrix (encryption mask).
    ///
    /// # Panics
    ///
    /// Panics if the operator is non-square (graph operators always are).
    pub fn replicate(op: &CsrMatrix, count: usize) -> Self {
        assert_eq!(op.rows(), op.cols(), "graph operators must be square");
        BatchedGraph {
            op: Arc::new(op.clone()),
            segments: Arc::new(Segments::from_lens(&vec![op.rows(); count])),
            fan_out: (count > 1).then(|| op.transpose()),
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
            fan_out: None,
        }
    }

    /// The operator every instance shares.
    pub fn operator(&self) -> &Arc<CsrMatrix> {
        &self.op
    }

    /// The per-graph row ranges of the stacked layout.
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

    /// The common feature width of `xs`, after checking them against the
    /// layout (the panics of [`compress`](Self::compress)).
    fn feature_width(&self, xs: &[&Matrix]) -> usize {
        assert_eq!(
            xs.len(),
            self.num_graphs(),
            "feature stack: batch holds {} graphs",
            self.num_graphs()
        );
        let cols = xs.first().map_or(0, |x| x.cols());
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.rows(),
                self.op.rows(),
                "feature stack: instance {i} row count does not match its graph"
            );
            assert_eq!(
                x.cols(),
                cols,
                "feature stack: instance {i} feature width differs"
            );
        }
        cols
    }

    /// Packs `xs` into the compressed layout for a model whose last
    /// convolution output depends on inputs up to `hops` operator hops
    /// away (DESIGN.md §10.1). `diffs[s]` lists, ascending, the rows whose
    /// bits differ from one base matrix that every instance is compared
    /// against ([`diffs_from_first`]); a caller finds them once per
    /// instance, not once per batch. A batch of one ignores them.
    ///
    /// The reference is the instance with the fewest rows off the batch's
    /// common value, taken per row as the value two of the first three
    /// instances share: in a batch of lockings, the one with the fewest key
    /// gates. Every other instance keeps its *halo*: the rows within `hops`
    /// hops of a row whose features differ bitwise from the reference's
    /// (`-0.0` and `0.0` differ). In a halo row the operator reads the
    /// instance's own halo row where the neighbour has one and the
    /// reference's row otherwise, with the nonzeros in their original
    /// order, so each halo row is the same sum of the same terms as in the
    /// instance's own forward pass. A batch of one is copied as is.
    ///
    /// Only diff rows are compared: off them every instance holds the
    /// base, so two instances can differ, or one can leave the common
    /// value, only where one of them is off the base.
    ///
    /// # Panics
    ///
    /// Panics if the number of matrices or any row count disagrees with the
    /// batch layout, if the feature widths are inconsistent, or if a batch
    /// of several lacks one diff per instance.
    pub(crate) fn compress<D: AsRef<[u32]>>(
        &self,
        xs: &[&Matrix],
        diffs: &[D],
        hops: usize,
        pool: &mut BufferPool,
    ) -> Compressed {
        let width = self.feature_width(xs);
        let n = self.op.rows();
        let Some(fan_out) = &self.fan_out else {
            let mut x = pool.alloc(self.total_nodes(), width);
            if let Some(only) = xs.first() {
                x.as_mut_slice().copy_from_slice(only.as_slice());
            }
            return Compressed {
                x,
                op: Arc::clone(&self.op),
                segments: Arc::clone(&self.segments),
                gather: None,
            };
        };
        assert_eq!(diffs.len(), xs.len(), "compress: one diff per instance");
        let row = |s: usize, g: usize| &xs[s].as_slice()[g * width..(g + 1) * width];
        let same = |s: usize, t: usize, g: usize| same_bits(row(s, g), row(t, g));
        // Off the diff rows of instances 0 and 1 both hold the base, so the
        // common value is the base there. Per remaining row, an instance
        // holding its common value.
        let mut candidates: Vec<u32> = diffs
            .iter()
            .take(2)
            .flat_map(|d| d.as_ref().iter().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let common: Vec<usize> = candidates
            .iter()
            .map(|&g| {
                if xs.len() < 3 || same(0, 1, g as usize) {
                    0
                } else {
                    2
                }
            })
            .collect();
        // Instance s is off the common value on some candidate rows, and on
        // every one of its own diff rows outside them, where the common
        // value is the base.
        let off = |s: usize| {
            let on_candidates = candidates
                .iter()
                .zip(&common)
                .filter(|&(&g, &c)| !same(s, c, g as usize))
                .count();
            let own = diffs[s]
                .as_ref()
                .iter()
                .filter(|g| candidates.binary_search(g).is_err())
                .count();
            on_candidates + own
        };
        let reference = (0..xs.len()).min_by_key(|&s| off(s)).unwrap_or(0);

        // Compressed row i is gate `source[i]` of instance `owner[i]`; every
        // stacked row starts out reading the reference's copy of its gate.
        let mut source: Vec<usize> = (0..n).collect();
        let mut owner = vec![reference; n];
        let mut lens = vec![n];
        let mut gather: Vec<u32> = (0..xs.len()).flat_map(|_| 0..n as u32).collect();
        let mut marked = vec![usize::MAX; n];
        for s in (0..xs.len()).filter(|&s| s != reference) {
            // A row on the base in both instances is equal in both, so only
            // their diff rows can differ.
            let mut halo = Vec::new();
            let (own, theirs) = (diffs[s].as_ref(), diffs[reference].as_ref());
            for g in own.iter().chain(theirs).map(|&g| g as usize) {
                if marked[g] != s && !same(s, reference, g) {
                    marked[g] = s;
                    halo.push(g);
                }
            }
            let mut frontier = 0;
            for _ in 0..hops {
                let reached = halo.len();
                for i in frontier..reached {
                    for &r in fan_out.row_indices(halo[i]) {
                        if std::mem::replace(&mut marked[r as usize], s) != s {
                            halo.push(r as usize);
                        }
                    }
                }
                frontier = reached;
            }
            halo.sort_unstable();
            for (i, &g) in halo.iter().enumerate() {
                gather[s * n + g] = (source.len() + i) as u32;
            }
            owner.resize(source.len() + halo.len(), s);
            lens.push(halo.len());
            source.extend(halo);
        }

        let mut x = pool.alloc(source.len(), width);
        if width > 0 {
            for (dst, (&g, &s)) in x
                .as_mut_slice()
                .chunks_exact_mut(width)
                .zip(source.iter().zip(&owner))
            {
                dst.copy_from_slice(row(s, g));
            }
        }
        let op = self.op.select_rows(&source, source.len(), |i, c| {
            gather[owner[i] * n + c] as usize
        });
        Compressed {
            x,
            op: Arc::new(op),
            segments: Arc::new(Segments::from_lens(&lens)),
            gather: Some(Arc::from(gather)),
        }
    }
}

/// Every instance's diff rows against the first instance: the rows of
/// `xs[s]` whose bits differ from `xs[0]`'s (`-0.0` and `0.0` differ),
/// ascending. This is the `diffs` input of [`BatchedGraph::compress`].
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn diffs_from_first<M: Borrow<Matrix>>(xs: &[M]) -> Vec<Vec<u32>> {
    let Some(base) = xs.first() else {
        return Vec::new();
    };
    xs.iter()
        .map(|x| diff_rows(base.borrow(), x.borrow()))
        .collect()
}

/// The rows of `x` whose bits differ from `base`'s, ascending.
fn diff_rows(base: &Matrix, x: &Matrix) -> Vec<u32> {
    assert_eq!(
        base.shape(),
        x.shape(),
        "feature stack: shape differs from the base"
    );
    let width = base.cols().max(1);
    base.as_slice()
        .chunks_exact(width)
        .zip(x.as_slice().chunks_exact(width))
        .enumerate()
        .filter(|(_, (p, q))| !same_bits(p, q))
        .map(|(g, _)| g as u32)
        .collect()
}

fn same_bits(p: &[f64], q: &[f64]) -> bool {
    p.iter().zip(q).all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(n: usize) -> CsrMatrix {
        CsrMatrix::identity(n)
    }

    /// Path `0 -> 1 -> 2` (row r reads column r - 1) plus self-loops.
    fn path() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
            ],
        )
    }

    /// One-column instances, one per slice.
    fn instances(values: &[[f64; 3]]) -> Vec<Matrix> {
        values.iter().map(|v| Matrix::column(v)).collect()
    }

    fn compress(op: &CsrMatrix, xs: &[Matrix], hops: usize) -> Compressed {
        let refs: Vec<&Matrix> = xs.iter().collect();
        compress_against(op, &refs, &xs[0], hops)
    }

    /// Compresses `xs` with their diffs taken against `base`.
    fn compress_against(op: &CsrMatrix, xs: &[&Matrix], base: &Matrix, hops: usize) -> Compressed {
        let diffs: Vec<Vec<u32>> = xs.iter().map(|x| diff_rows(base, x)).collect();
        BatchedGraph::replicate(op, xs.len()).compress(xs, &diffs, hops, &mut BufferPool::new())
    }

    /// Each instance's halo (its rows held apart from the reference's), read
    /// back from the gather index.
    fn halos(c: &Compressed, n: usize) -> Vec<Vec<usize>> {
        let gather = c.gather.as_ref().expect("a compressed batch");
        gather
            .chunks(n)
            .map(|rows| (0..n).filter(|&g| rows[g] as usize >= n).collect())
            .collect()
    }

    #[test]
    fn replicate_keeps_one_operator_and_stacked_segments() {
        let base = op(3);
        let batch = BatchedGraph::replicate(&base, 4);
        assert_eq!(batch.num_graphs(), 4);
        assert_eq!(batch.total_nodes(), 12);
        assert_eq!(**batch.operator(), base);
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
    fn halo_seeds_are_the_rows_whose_bits_differ_from_the_reference() {
        let xs = instances(&[[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [1.0, 0.0, 3.0]]);
        let c = compress(&op(3), &xs, 0);
        assert_eq!(
            halos(&c, 3),
            vec![vec![], vec![1], vec![2]],
            "-0.0 and 0.0 differ in bits"
        );
        // Reference rows first, then each halo row.
        assert_eq!(c.x.as_slice(), &[1.0, 0.0, 2.0, -0.0, 3.0]);
        assert_eq!(
            c.segments.iter().map(|r| r.len()).collect::<Vec<_>>(),
            [3, 1, 1]
        );
        assert_eq!(&*c.gather.unwrap(), &[0, 1, 2, 0, 3, 2, 0, 1, 4]);
    }

    #[test]
    fn the_reference_is_the_instance_closest_to_the_common_rows() {
        let xs = instances(&[
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]);
        let c = compress(&op(3), &xs, 0);
        assert_eq!(halos(&c, 3), vec![vec![0, 1], vec![2], vec![], vec![0]]);
        assert_eq!(&c.x.as_slice()[..3], &[0.0, 0.0, 0.0], "instance 2 first");
    }

    #[test]
    fn rows_off_the_common_value_in_both_instances_are_compared() {
        // Every instance has one row off the common value, so instance 0 is
        // the reference; instance 4 shares its odd row and keeps no halo.
        let xs = instances(&[
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 9.0, 0.0],
            [7.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]);
        let c = compress(&op(3), &xs, 0);
        assert_eq!(
            halos(&c, 3),
            vec![vec![], vec![0], vec![0, 1], vec![0], vec![]]
        );
    }

    #[test]
    fn hop_follows_the_operator_edges() {
        let xs = instances(&[[0.0; 3], [1.0, 0.0, 0.0]]);
        let grown: Vec<Vec<usize>> = (0..4)
            .map(|hops| halos(&compress(&path(), &xs, hops), 3)[1].clone())
            .collect();
        assert_eq!(
            grown,
            vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2]]
        );
        // Without self-loops a hop leaves the source row behind; the halo
        // keeps it.
        let shift = CsrMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]);
        assert_eq!(halos(&compress(&shift, &xs, 1), 3)[1], vec![0, 2]);
        // Equal instances keep no rows apart.
        let twins = instances(&[[0.5, 0.0, 1.0], [0.5, 0.0, 1.0]]);
        assert_eq!(compress(&path(), &twins, 2).x.rows(), 3);
    }

    #[test]
    fn compressed_products_equal_the_stacked_products_bit_for_bit() {
        // Two hops of the operator on the compressed rows, gathered back to
        // the stacked layout, equal two hops on every instance alone.
        let base = CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, 0.5),
                (0, 4, 1.0 / 3.0),
                (1, 0, 0.7),
                (1, 1, 0.5),
                (2, 1, -1.1),
                (2, 3, 0.25),
                (3, 3, 0.5),
                (4, 2, 0.9),
                (4, 4, 0.5),
            ],
        );
        let xs: Vec<Matrix> = (0..4)
            .map(|s| {
                Matrix::from_fn(5, 2, |r, c| {
                    let v = r as f64 * 0.3 + c as f64 / 7.0;
                    if r == s || (s == 3 && r == 1) {
                        v + 0.1
                    } else {
                        v
                    }
                })
            })
            .collect();
        let c = compress(&base, &xs, 2);
        assert!(c.x.rows() < 20, "something was spared");
        let twice = c.op.spmm(&c.op.spmm(&c.x));
        let gather = c.gather.expect("compressed");
        for (s, x) in xs.iter().enumerate() {
            let want = base.spmm(&base.spmm(x));
            for g in 0..5 {
                let got = twice.row(gather[s * 5 + g] as usize);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want.row(g)), "instance {s} row {g}");
            }
        }
    }

    #[test]
    fn a_batch_of_one_is_not_compressed() {
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let base = Arc::new(path());
        for batch in [
            BatchedGraph::single(Arc::clone(&base)),
            BatchedGraph::replicate(&base, 1),
        ] {
            let c = batch.compress::<&[u32]>(&[&x], &[], 2, &mut BufferPool::new());
            assert!(c.gather.is_none());
            assert_eq!(c.x, x);
            assert_eq!(*c.op, *base);
        }
    }

    /// The compressed layout derived by scanning every row of every
    /// instance for the common value, the rows off it and the reference:
    /// the derivation the diff-based [`BatchedGraph::compress`] must
    /// reproduce exactly.
    fn scan_compress(op: &CsrMatrix, xs: &[&Matrix], hops: usize) -> Compressed {
        let n = op.rows();
        let width = xs.first().map_or(0, |x| x.cols());
        if xs.len() < 2 {
            let mut x = Matrix::zeros(n * xs.len(), width);
            if let Some(only) = xs.first() {
                x.as_mut_slice().copy_from_slice(only.as_slice());
            }
            return Compressed {
                x,
                op: Arc::new(op.clone()),
                segments: Arc::new(Segments::from_lens(&vec![n; xs.len()])),
                gather: None,
            };
        }
        let fan_out = op.transpose();
        let row = |s: usize, g: usize| &xs[s].as_slice()[g * width..(g + 1) * width];
        let same = |s: usize, t: usize, g: usize| same_bits(row(s, g), row(t, g));
        let common: Vec<usize> = (0..n)
            .map(|g| if xs.len() < 3 || same(0, 1, g) { 0 } else { 2 })
            .collect();
        let off: Vec<Vec<usize>> = (0..xs.len())
            .map(|s| (0..n).filter(|&g| !same(s, common[g], g)).collect())
            .collect();
        let reference = (0..off.len()).min_by_key(|&s| off[s].len()).unwrap_or(0);
        let mut source: Vec<usize> = (0..n).collect();
        let mut owner = vec![reference; n];
        let mut lens = vec![n];
        let mut gather: Vec<u32> = (0..xs.len()).flat_map(|_| 0..n as u32).collect();
        let mut marked = vec![usize::MAX; n];
        for s in (0..xs.len()).filter(|&s| s != reference) {
            let mut halo = Vec::new();
            for &g in off[s].iter().chain(&off[reference]) {
                if marked[g] != s && !same(s, reference, g) {
                    marked[g] = s;
                    halo.push(g);
                }
            }
            let mut frontier = 0;
            for _ in 0..hops {
                let reached = halo.len();
                for i in frontier..reached {
                    for &r in fan_out.row_indices(halo[i]) {
                        if std::mem::replace(&mut marked[r as usize], s) != s {
                            halo.push(r as usize);
                        }
                    }
                }
                frontier = reached;
            }
            halo.sort_unstable();
            for (i, &g) in halo.iter().enumerate() {
                gather[s * n + g] = (source.len() + i) as u32;
            }
            owner.resize(source.len() + halo.len(), s);
            lens.push(halo.len());
            source.extend(halo);
        }
        let mut x = Matrix::zeros(source.len(), width);
        if width > 0 {
            for (dst, (&g, &s)) in x
                .as_mut_slice()
                .chunks_exact_mut(width)
                .zip(source.iter().zip(&owner))
            {
                dst.copy_from_slice(row(s, g));
            }
        }
        let op = op.select_rows(&source, source.len(), |i, c| {
            gather[owner[i] * n + c] as usize
        });
        Compressed {
            x,
            op: Arc::new(op),
            segments: Arc::new(Segments::from_lens(&lens)),
            gather: Some(Arc::from(gather)),
        }
    }

    #[test]
    fn diff_based_compress_matches_the_full_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (n, width) = (40, 3);
        let mut rng = StdRng::seed_from_u64(27);
        let values = [0.0, -0.0, 1.0, 0.5, 2.0];
        let mut layouts = 0;
        let mut moved_reference = 0;
        for trial in 0..12 {
            // A sparse operator: a self-loop and two random reads per row.
            let triplets: Vec<(usize, usize, f64)> = (0..n)
                .flat_map(|r| [(r, r), (r, rng.gen_range(0..n)), (r, rng.gen_range(0..n))])
                .map(|(r, c)| (r, c, 0.5 + c as f64 / 64.0))
                .collect();
            let op = CsrMatrix::from_triplets(n, n, &triplets);
            // The empty selection, and lockings that change a few rows of
            // it — to any value, so a change may also restore the bits,
            // or flip the sign of a zero.
            let plain =
                Matrix::from_fn(n, width, |_, _| [0.0, 1.0, 0.25][rng.gen_range(0..3usize)]);
            let locking = |rng: &mut StdRng, rows: usize| {
                let mut x = plain.clone();
                for _ in 0..rows {
                    let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..width));
                    let v = x.get(r, c);
                    let v = if v == 0.0 && rng.gen_bool(0.5) {
                        -v
                    } else {
                        values[rng.gen_range(0..values.len())]
                    };
                    x.set(r, c, v);
                }
                x
            };
            let outside = locking(&mut rng, 3);
            for b in [1, 2, 3, 16] {
                let mut xs: Vec<Matrix> = (0..b)
                    .map(|_| {
                        let rows = rng.gen_range(0..5);
                        locking(&mut rng, rows)
                    })
                    .collect();
                if b >= 3 {
                    // Instance 0 carries the most rows off the common value
                    // and the last one is the empty selection, so the
                    // reference is not instance 0.
                    xs[0] = locking(&mut rng, 12);
                    xs[b - 1] = plain.clone();
                }
                if b > 3 {
                    // An instance off the empty selection on every row, one
                    // off it only in the signs of its zeros, a duplicate.
                    xs[3] = Matrix::from_fn(n, width, |r, c| {
                        plain.get(r, c) + if c == trial % width { 3.0 } else { 0.0 }
                    });
                    xs[4] = plain.map(|v| if v == 0.0 { -0.0 } else { v });
                    xs[5] = xs[1].clone();
                }
                let refs: Vec<&Matrix> = xs.iter().collect();
                for hops in 0..3 {
                    let want = scan_compress(&op, &refs, hops);
                    // Diffs against a batch member, the empty selection,
                    // and a matrix outside the batch (the trainer's base).
                    for base in [&xs[0], &plain, &outside] {
                        let got = compress_against(&op, &refs, base, hops);
                        let what = format!("trial {trial}, B = {b}, {hops} hops");
                        let bits = |m: &Matrix| {
                            m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
                        assert_eq!(got.op, want.op, "{what}: operator");
                        assert_eq!(got.segments, want.segments, "{what}: segments");
                        assert_eq!(got.gather, want.gather, "{what}: gather");
                        layouts += 1;
                        moved_reference += usize::from(b >= 3 && !halos(&got, n)[0].is_empty());
                    }
                }
            }
        }
        assert_eq!(layouts, 12 * 4 * 3 * 3);
        assert_eq!(
            moved_reference,
            12 * 2 * 3 * 3,
            "instance 0 was never the reference"
        );
    }

    #[test]
    fn empty_batch_is_representable() {
        let batch = BatchedGraph::replicate(&op(3), 0);
        assert_eq!(batch.num_graphs(), 0);
        assert_eq!(batch.total_nodes(), 0);
        let stacked = batch
            .compress::<&[u32]>(&[], &[], 2, &mut BufferPool::new())
            .x;
        assert_eq!(stacked.shape(), (0, 0));
    }
}
