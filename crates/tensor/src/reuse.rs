//! Row reuse across a replicated batch.
//!
//! Every multi-graph batch the GNN engine builds is B copies of one graph
//! operator, and the B instances differ only in a few feature rows. A
//! row-wise kernel (spmm against the block-diagonal operator, matmul against
//! a shared weight) computes row `r` of every segment from the same CSR row
//! or the same weights, accumulating in the same order. So whenever every
//! input row it reads is bitwise equal to the same row of a *reference*
//! segment, the output row is bitwise equal to the reference's as well.
//!
//! [`RowReuse`] names the reference segment and records, per segment, the
//! *dirty* rows: the rows for which that premise may fail. The forward
//! kernels built on it ([`Tape::spmm_reuse`](crate::Tape::spmm_reuse),
//! [`Tape::matmul_seg_reuse`](crate::Tape::matmul_seg_reuse)) compute the
//! reference segment in full, copy it into every other segment and
//! recompute only the dirty rows. Every value they write is bit-identical
//! to the full product (DESIGN.md §10.5).

use crate::matrix::Matrix;
use crate::segments::Segments;
use crate::sparse::CsrMatrix;
use std::ops::Range;
use std::sync::Arc;

/// Per-segment dirty rows of a tall matrix stacked over equal-length
/// segments, relative to one reference segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowReuse {
    segments: Arc<Segments>,
    reference: usize,
    /// `dirty[s]`: ascending local row indices of segment `s` that may
    /// differ from the reference segment's. Always empty for the reference.
    dirty: Vec<Vec<u32>>,
}

impl RowReuse {
    /// The rows of each segment of `x` whose bits differ from the same row
    /// of the reference segment.
    ///
    /// The reference is the segment with the fewest rows off the batch's
    /// common value, taken per row as the value two of the first three
    /// segments share. In a batch of lockings of one circuit that is the
    /// instance with the fewest key gates, so every other instance's dirty
    /// rows are little more than its own key gates. Any reference gives the
    /// same bits; this one gives the fewest dirty rows.
    ///
    /// # Panics
    ///
    /// Panics unless `segments` covers the rows of `x` in segments of one
    /// length (a replicated batch).
    pub fn diff(x: &Matrix, segments: Arc<Segments>) -> Self {
        assert_eq!(
            x.rows(),
            segments.total_rows(),
            "row reuse: segments must cover the stacked rows"
        );
        let n = replicated_len(&segments);
        let w = x.cols();
        let data = x.as_slice();
        let row = |r: usize| &data[r * w..(r + 1) * w];
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
                == 0
        };
        // Each local row's common value, laid out like one segment.
        let mut common = Vec::with_capacity(n * w);
        for r in 0..n {
            let pick = if segments.len() < 3 || same(row(r), row(n + r)) {
                r
            } else {
                2 * n + r
            };
            common.extend_from_slice(row(pick));
        }
        let off: Vec<Vec<u32>> = segments
            .iter()
            .map(|range| {
                let rows = data[range.start * w..range.end * w].chunks_exact(w.max(1));
                rows.zip(common.chunks_exact(w.max(1)))
                    .enumerate()
                    .filter(|(_, (a, b))| !same(a, b))
                    .map(|(r, _)| r as u32)
                    .collect()
            })
            .collect();
        let reference = (0..off.len()).min_by_key(|&s| off[s].len()).unwrap_or(0);
        // A row on the common value in both segments is equal in both, so
        // only rows off it in either can differ.
        let dirty = off
            .iter()
            .enumerate()
            .map(|(s, rows)| {
                let mut rows = merge(rows, &off[reference]);
                rows.retain(|&r| !same(row(s * n + r as usize), row(reference * n + r as usize)));
                rows
            })
            .collect();
        RowReuse {
            segments,
            reference,
            dirty,
        }
    }

    /// The dirty rows one operator hop later: a row of `P · H` is dirty
    /// when it reads any dirty row of `H`. `fan_out` is `Pᵀ` (or any block
    /// diagonal whose first block is the per-graph `Pᵀ`): its row `c` lists
    /// the rows that read column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `fan_out` has fewer rows than one segment.
    pub fn hop(&self, fan_out: &CsrMatrix) -> Self {
        let n = self.segment_len();
        assert!(
            fan_out.rows() >= n,
            "row reuse: fan-out operator covers {} of {n} rows",
            fan_out.rows()
        );
        // One bit per row; draining the words in order yields the rows
        // ascending and leaves the set empty for the next segment.
        let mut marked = vec![0u64; n.div_ceil(64)];
        let dirty = self
            .dirty
            .iter()
            .map(|rows| {
                for &c in rows {
                    for &r in fan_out.row_indices(c as usize) {
                        marked[r as usize / 64] |= 1 << (r % 64);
                    }
                }
                let mut next = Vec::new();
                for (i, word) in marked.iter_mut().enumerate() {
                    while *word != 0 {
                        next.push((i * 64) as u32 + word.trailing_zeros());
                        *word &= *word - 1;
                    }
                }
                next
            })
            .collect();
        RowReuse {
            dirty,
            ..self.clone_layout()
        }
    }

    /// The dirty rows of an elementwise combination of two matrices laid
    /// out like `self` and `other`: a row is dirty in either operand.
    ///
    /// # Panics
    ///
    /// Panics if the two plans cover different layouts or references.
    pub fn union(&self, other: &RowReuse) -> Self {
        assert!(
            self.segments == other.segments && self.reference == other.reference,
            "row reuse: union of different layouts"
        );
        let dirty = self
            .dirty
            .iter()
            .zip(&other.dirty)
            .map(|(a, b)| merge(a, b))
            .collect();
        RowReuse {
            dirty,
            ..self.clone_layout()
        }
    }

    /// The segment layout the plan covers.
    pub fn segments(&self) -> &Arc<Segments> {
        &self.segments
    }

    /// The segment every other segment's clean rows are copied from.
    pub fn reference(&self) -> usize {
        self.reference
    }

    /// The dirty local rows of segment `s`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn dirty(&self, s: usize) -> &[u32] {
        &self.dirty[s]
    }

    /// Whether every segment equals the reference row for row.
    pub fn is_clean(&self) -> bool {
        self.dirty.iter().all(Vec::is_empty)
    }

    /// Rows a reuse kernel copies from the reference instead of computing.
    pub fn reused_rows(&self) -> usize {
        let n = self.segment_len();
        let dirty: usize = self.dirty.iter().map(Vec::len).sum();
        (self.dirty.len().max(1) - 1) * n - dirty
    }

    fn segment_len(&self) -> usize {
        replicated_len(&self.segments)
    }

    fn clone_layout(&self) -> Self {
        RowReuse {
            segments: Arc::clone(&self.segments),
            reference: self.reference,
            dirty: Vec::new(),
        }
    }

    /// Fills `out` (`total_rows x width`, row-major) with a row-wise
    /// product. `rows(row0, band)` must write output rows `row0..` into
    /// `band` from their inputs alone, the same way for every row; it is
    /// called for the reference segment in `jobs` row bands and then for
    /// each run of consecutive dirty rows of the other segments, whose clean
    /// rows are copied from the reference.
    pub(crate) fn fill<F>(&self, out: &mut [f64], width: usize, jobs: usize, rows: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let n = self.segment_len();
        let stride = n * width;
        if stride == 0 {
            return;
        }
        debug_assert_eq!(out.len(), stride * self.dirty.len());
        let jobs = jobs.max(1);
        let (before, tail) = out.split_at_mut(self.reference * stride);
        let (base, after) = tail.split_at_mut(stride);
        let row0 = self.reference * n;
        let band = n.div_ceil(jobs.min(n));
        if jobs == 1 {
            rows(row0, base);
        } else {
            std::thread::scope(|scope| {
                for (i, chunk) in base.chunks_mut(band * width).enumerate() {
                    let rows = &rows;
                    scope.spawn(move || rows(row0 + i * band, chunk));
                }
            });
        }
        let base = &*base;
        // Each clean gap is copied and each dirty run computed, so every
        // row is written once.
        let replay = |s: usize, dst: &mut [f64]| {
            let mut done = 0;
            for run in runs(&self.dirty[s]) {
                let (gap, dirty) = (
                    done * width..run.start * width,
                    run.start * width..run.end * width,
                );
                dst[gap.clone()].copy_from_slice(&base[gap]);
                rows(s * n + run.start, &mut dst[dirty]);
                done = run.end;
            }
            dst[done * width..].copy_from_slice(&base[done * width..]);
        };
        let mut copies: Vec<(usize, &mut [f64])> = before
            .chunks_exact_mut(stride)
            .enumerate()
            .chain(
                after
                    .chunks_exact_mut(stride)
                    .enumerate()
                    .map(|(i, c)| (self.reference + 1 + i, c)),
            )
            .collect();
        if jobs == 1 || copies.len() <= 1 {
            for (s, dst) in copies {
                replay(s, dst);
            }
            return;
        }
        let per = copies.len().div_ceil(jobs.min(copies.len()));
        std::thread::scope(|scope| {
            for group in copies.chunks_mut(per) {
                let replay = &replay;
                scope.spawn(move || {
                    for (s, dst) in group.iter_mut() {
                        replay(*s, dst);
                    }
                });
            }
        });
    }
}

/// The common length of every segment (0 for an empty batch).
fn replicated_len(segments: &Segments) -> usize {
    let n = segments.iter().next().map_or(0, |r| r.len());
    assert!(
        segments.iter().all(|r| r.len() == n),
        "row reuse needs a replicated batch: segments of one length"
    );
    n
}

/// The ascending union of two ascending row lists.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut rows = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        rows.push(next);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
    }
    rows.extend_from_slice(&a[i..]);
    rows.extend_from_slice(&b[j..]);
    rows
}

/// Maximal runs of consecutive values in an ascending row list.
fn runs(rows: &[u32]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = *rows.get(i)? as usize;
        let mut end = start + 1;
        i += 1;
        while rows.get(i) == Some(&(end as u32)) {
            end += 1;
            i += 1;
        }
        Some(start..end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node path `0 - 1 - 2` with self-loops.
    fn path() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 0.5),
                (1, 0, 0.5),
                (1, 1, 1.0),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (2, 2, 1.0),
            ],
        )
    }

    fn stacked(blocks: &[[f64; 3]]) -> Matrix {
        let data: Vec<f64> = blocks.iter().flatten().copied().collect();
        Matrix::from_vec(data.len(), 1, data)
    }

    #[test]
    fn diff_marks_rows_whose_bits_differ_from_the_reference() {
        let seg = Arc::new(Segments::from_lens(&[3, 3, 3]));
        let x = stacked(&[[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [1.0, 0.0, 3.0]]);
        let plan = RowReuse::diff(&x, seg);
        assert_eq!(plan.reference(), 0);
        assert_eq!(plan.dirty(0), &[] as &[u32]);
        assert_eq!(plan.dirty(1), &[1], "-0.0 and 0.0 differ in bits");
        assert_eq!(plan.dirty(2), &[2]);
        assert_eq!(plan.reused_rows(), 4);
        assert!(!plan.is_clean());
    }

    #[test]
    fn the_reference_is_the_segment_closest_to_the_common_rows() {
        let seg = Arc::new(Segments::from_lens(&[3, 3, 3, 3]));
        let x = stacked(&[
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]);
        let plan = RowReuse::diff(&x, seg);
        assert_eq!(plan.reference(), 2);
        assert_eq!(plan.dirty(0), &[0, 1]);
        assert_eq!(plan.dirty(1), &[2]);
        assert_eq!(plan.dirty(2), &[] as &[u32]);
        assert_eq!(plan.dirty(3), &[0]);
        assert_eq!(plan.reused_rows(), 5);
    }

    #[test]
    fn rows_off_the_common_value_in_both_segments_are_compared() {
        // Every segment has one row off the common value, so segment 0 is
        // the reference; segment 4 shares its odd row and is fully clean.
        let seg = Arc::new(Segments::from_lens(&[3, 3, 3, 3, 3]));
        let x = stacked(&[
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 9.0, 0.0],
            [7.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]);
        let plan = RowReuse::diff(&x, seg);
        assert_eq!(plan.reference(), 0);
        assert_eq!(plan.dirty(1), &[0]);
        assert_eq!(plan.dirty(2), &[0, 1]);
        assert_eq!(plan.dirty(3), &[0]);
        assert_eq!(plan.dirty(4), &[] as &[u32]);
    }

    #[test]
    fn hop_and_union_grow_the_dirty_set() {
        let seg = Arc::new(Segments::from_lens(&[3, 3]));
        let x = stacked(&[[0.0; 3], [0.0, 0.0, 1.0]]);
        let plan = RowReuse::diff(&x, seg);
        let fan_out = path().transpose();
        let one = plan.hop(&fan_out);
        assert_eq!(one.dirty(1), &[1, 2]);
        assert_eq!(one.hop(&fan_out).dirty(1), &[0, 1, 2]);
        // Without self-loops a hop can drop the source row; the union
        // restores it.
        let shift = CsrMatrix::from_triplets(3, 3, &[(0, 2, 1.0)]).transpose();
        let moved = plan.hop(&shift);
        assert_eq!(moved.dirty(1), &[0]);
        assert_eq!(moved.union(&plan).dirty(1), &[0, 2]);
    }

    #[test]
    fn merge_is_the_ascending_union() {
        assert_eq!(merge(&[1, 4, 6], &[0, 4, 7, 9]), vec![0, 1, 4, 6, 7, 9]);
        assert_eq!(merge(&[], &[2, 3]), vec![2, 3]);
        assert_eq!(merge(&[5], &[]), vec![5]);
    }

    #[test]
    fn runs_split_at_gaps() {
        let got: Vec<Range<usize>> = runs(&[0, 1, 2, 5, 7, 8]).collect();
        assert_eq!(got, vec![0..3, 5..6, 7..9]);
        assert_eq!(runs(&[]).count(), 0);
    }

    #[test]
    fn fill_reproduces_the_full_product_bit_for_bit() {
        let base = path();
        let op = CsrMatrix::block_diag(&[&base, &base, &base, &base]);
        let seg = Arc::new(Segments::from_lens(&[3, 3, 3, 3]));
        let x = Matrix::from_fn(12, 2, |r, c| {
            let local = (r % 3) as f64 * 0.7 + c as f64;
            if r == 1 || r == 5 || r == 9 {
                local + 1.0 / 3.0
            } else {
                local
            }
        });
        let plan = RowReuse::diff(&x, Arc::clone(&seg)).hop(&op.transpose());
        assert_eq!(plan.reference(), 2, "the unperturbed segment");
        let full = op.spmm(&x);
        for jobs in [1, 2, 3] {
            let mut out = Matrix::from_fn(12, 2, |_, _| f64::NAN);
            plan.fill(out.as_mut_slice(), 2, jobs, |row0, band| {
                op.spmm_rows(x.as_slice(), 2, band, row0, |c| c)
            });
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&full), "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "replicated batch")]
    fn unequal_segments_are_rejected() {
        let _ = RowReuse::diff(&Matrix::zeros(5, 1), Arc::new(Segments::from_lens(&[2, 3])));
    }
}
