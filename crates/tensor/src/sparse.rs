use crate::matrix::Matrix;
use std::fmt;

/// A compressed-sparse-row matrix of `f64`.
///
/// Circuit adjacency matrices have ~2 nonzeros per row, so the graph
/// convolutions in `icnet` run on this representation instead of dense
/// `n x n` matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet out of range");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicate coordinates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        let indices: Vec<u32> = merged.iter().map(|&(_, c, _)| c as u32).collect();
        let values: Vec<f64> = merged.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// The `n x n` sparse identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Logical bytes across the three CSR arrays (row pointers, column
    /// indices, values) — bytes requested, not allocator capacity, so the
    /// value is a pure function of the sparsity pattern (see the `budget`
    /// crate).
    pub fn logical_bytes(&self) -> u64 {
        (self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }

    /// The column indices stored in row `r`, in stored order (ascending
    /// unless the matrix came from [`CsrMatrix::select_rows`]).
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// A `rows.len() x cols` matrix whose row `i` holds the nonzeros of row
    /// `rows[i]` of `self`, each column `c` renamed `rename(i, c)`. The
    /// nonzeros keep their stored order, so a product row accumulates its
    /// terms in the same order as the source row's.
    ///
    /// # Panics
    ///
    /// Panics if a source row is out of range or a renamed column is not
    /// below `cols`.
    pub fn select_rows(
        &self,
        rows: &[usize],
        cols: usize,
        rename: impl Fn(usize, usize) -> usize,
    ) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &r) in rows.iter().enumerate() {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = rename(i, self.indices[k] as usize);
                assert!(c < cols, "select_rows: column {c} out of range");
                indices.push(c as u32);
                values.push(self.values[k]);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.indptr[r]..self.indptr[r + 1])
                .map(move |i| (r, self.indices[i] as usize, self.values[i]))
        })
    }

    /// Sparse × dense product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.spmm_into(rhs, &mut out);
        out
    }

    /// Sparse × dense product written into `out`, overwriting its contents
    /// (buffer-reuse variant of [`CsrMatrix::spmm`] for training hot paths).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or when `out` is not
    /// `rows(self) x cols(rhs)`.
    pub fn spmm_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm inner dimensions: {}x{} * {}x{}",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols()),
            "spmm output shape: want {}x{}",
            self.rows,
            rhs.cols()
        );
        let f = rhs.cols();
        if self.rows == 0 || f == 0 {
            return; // no output elements at all
        }
        self.spmm_rows(rhs.as_slice(), f, out.as_mut_slice());
    }

    /// The spmm kernel: fills `out` with the product rows. Each destination
    /// row is zeroed right before its accumulation (while it is cache-hot),
    /// so `out` may hold stale contents on entry and no separate
    /// whole-matrix zeroing pass is needed; the per-element accumulation
    /// order is unchanged.
    fn spmm_rows(&self, rhs_data: &[f64], f: usize, out: &mut [f64]) {
        // Register-resident accumulators for the common narrow widths (the
        // GNN feature/hidden sizes); bit-identical to the generic loop.
        match f {
            4 => return self.spmm_rows_w::<4>(rhs_data, out),
            7 => return self.spmm_rows_w::<7>(rhs_data, out),
            8 => return self.spmm_rows_w::<8>(rhs_data, out),
            16 => return self.spmm_rows_w::<16>(rhs_data, out),
            32 => return self.spmm_rows_w::<32>(rhs_data, out),
            _ => {}
        }
        for (r, dst) in out.chunks_exact_mut(f).enumerate() {
            dst.fill(0.0);
            for i in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[i] as usize;
                let v = self.values[i];
                let src = &rhs_data[c * f..(c + 1) * f];
                for (o, &x) in dst.iter_mut().zip(src) {
                    *o += v * x;
                }
            }
        }
    }

    /// [`CsrMatrix::spmm_rows`] specialized to a compile-time dense width
    /// `W`: the destination row accumulates in registers and is stored once.
    /// Per-element accumulation order (ascending nonzero index from 0.0) is
    /// unchanged, so results are bit-identical to the generic kernel.
    fn spmm_rows_w<const W: usize>(&self, rhs_data: &[f64], out: &mut [f64]) {
        for (r, dst) in out.chunks_exact_mut(W).enumerate() {
            let mut acc = [0.0f64; W];
            for i in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[i] as usize;
                let v = self.values[i];
                let src: &[f64; W] = rhs_data[c * W..(c + 1) * W].try_into().expect("W-wide row");
                for (o, &x) in acc.iter_mut().zip(src) {
                    *o += v * x;
                }
            }
            dst.copy_from_slice(&acc);
        }
    }

    /// Transpose (used for the backward pass of [`CsrMatrix::spmm`]). A
    /// counting sort by column: each transposed row lists its entries by
    /// ascending source row, in one pass over the nonzeros.
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr[..self.cols].to_vec();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for (r, c, v) in self.iter() {
            indices[next[c]] = r as u32;
            values[next[c]] = v;
            next[c] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Densifies (for tests and small matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, out.get(r, c) + v);
        }
        out
    }

    /// Multiplies each row by a scalar (`diag(scale) * self`); used for
    /// normalized Laplacians.
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != rows`.
    pub fn scale_rows(&self, scale: &[f64]) -> CsrMatrix {
        assert_eq!(scale.len(), self.rows, "row scale length mismatch");
        let mut out = self.clone();
        for (r, &factor) in scale.iter().enumerate() {
            for i in out.indptr[r]..out.indptr[r + 1] {
                out.values[i] *= factor;
            }
        }
        out
    }

    /// Multiplies each column by a scalar (`self * diag(scale)`).
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != cols`.
    pub fn scale_cols(&self, scale: &[f64]) -> CsrMatrix {
        assert_eq!(scale.len(), self.cols, "col scale length mismatch");
        let mut out = self.clone();
        for i in 0..out.values.len() {
            out.values[i] *= scale[out.indices[i] as usize];
        }
        out
    }

    /// Row sums (out-degree when the matrix is an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.values[self.indptr[r]..self.indptr[r + 1]].iter().sum())
            .collect()
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csr {}x{} ({} nnz)", self.rows, self.cols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0), (0, 2, 1.0)])
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let s = example();
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(s.spmm(&d), s.to_dense().matmul(&d));
    }

    #[test]
    fn spmm_into_overwrites_stale_output() {
        let s = example();
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Matrix::ones(3, 2);
        s.spmm_into(&d, &mut out);
        assert_eq!(out, s.spmm(&d));
    }

    #[test]
    fn duplicates_are_summed() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense().get(0, 0), 3.5);
    }

    #[test]
    fn transpose_matches_dense() {
        let s = example();
        assert_eq!(s.transpose().to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn transpose_round_trips_a_sorted_matrix() {
        let s = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 3, 1.0),
                (0, 1, 2.0),
                (2, 1, 0.0),
                (1, 0, -1.5),
                (2, 3, 4.0),
            ],
        );
        let t = s.transpose();
        assert_eq!(t.row_indices(1), &[0, 2], "source rows ascending");
        assert_eq!(t.transpose(), s);
        assert_eq!(
            t,
            CsrMatrix::from_triplets(
                4,
                3,
                &[
                    (3, 0, 1.0),
                    (1, 0, 2.0),
                    (1, 2, 0.0),
                    (0, 1, -1.5),
                    (3, 2, 4.0)
                ]
            )
        );
    }

    #[test]
    fn identity_spmm_is_noop() {
        let d = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(CsrMatrix::identity(3).spmm(&d), d);
    }

    #[test]
    fn empty_rows_are_fine() {
        let s = CsrMatrix::from_triplets(4, 4, &[(3, 0, 1.0)]);
        let d = Matrix::ones(4, 2);
        let out = s.spmm(&d);
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(3, 0), 1.0);
    }

    #[test]
    fn row_and_col_scaling() {
        let s = example();
        let scaled = s.scale_rows(&[2.0, 1.0, 0.5]);
        assert_eq!(scaled.to_dense().get(0, 1), 4.0);
        assert_eq!(scaled.to_dense().get(2, 2), 2.0);
        let cscaled = s.scale_cols(&[0.0, 1.0, 10.0]);
        assert_eq!(cscaled.to_dense().get(1, 0), 0.0);
        assert_eq!(cscaled.to_dense().get(0, 2), 10.0);
    }

    #[test]
    fn row_sums_match_dense() {
        let s = example();
        let dense = s.to_dense();
        for (r, sum) in s.row_sums().into_iter().enumerate() {
            assert_eq!(sum, dense.row(r).iter().sum::<f64>());
        }
    }

    #[test]
    fn display_mentions_nnz() {
        assert!(example().to_string().contains("4 nnz"));
    }

    #[test]
    fn select_rows_renames_columns_and_keeps_nonzero_order() {
        let a = example();
        // Rows 2 and 0 of `a`, every column moved to the other end.
        let picked = a.select_rows(&[2, 0], 3, |_, c| 2 - c);
        assert_eq!((picked.rows(), picked.cols()), (2, 3));
        assert_eq!(picked.row_indices(1), &[1, 0], "stored order kept");
        let dense = a.to_dense();
        for (i, r) in [2usize, 0].into_iter().enumerate() {
            for c in 0..3 {
                assert_eq!(picked.to_dense().get(i, 2 - c), dense.get(r, c));
            }
        }
    }

    #[test]
    fn select_rows_products_equal_the_source_rows_bit_for_bit() {
        // Rows 3.. of the tall input repeat rows 0..3 under new indices, so
        // every selected row reads the same values in the same order.
        let a = example();
        let x = Matrix::from_fn(3, 2, |r, c| 0.1 + r as f64 / 3.0 - c as f64 * 0.7);
        let mut tall = x.as_slice().to_vec();
        tall.extend_from_slice(x.as_slice());
        let picked = a.select_rows(&[1, 0, 2], 6, |i, c| if i == 0 { c } else { 3 + c });
        let out = picked.spmm(&Matrix::from_vec(6, 2, tall));
        let full = a.spmm(&x);
        for (i, r) in [1usize, 0, 2].into_iter().enumerate() {
            assert_eq!(out.row(i), full.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_rows_rejects_a_column_past_the_width() {
        let _ = example().select_rows(&[0], 2, |_, c| c);
    }

    #[test]
    fn spmm_into_degenerate_shapes_are_well_defined() {
        // 0xk sparse * kx0 dense -> 0x0.
        let s = CsrMatrix::from_triplets(0, 3, &[]);
        let mut out = Matrix::zeros(0, 0);
        s.spmm_into(&Matrix::zeros(3, 0), &mut out);
        assert_eq!(out.shape(), (0, 0));
        // n x 0 sparse * 0 x f dense -> n x f zeros, overwriting stale data.
        let s = CsrMatrix::from_triplets(2, 0, &[]);
        let mut out = Matrix::ones(2, 3);
        s.spmm_into(&Matrix::zeros(0, 3), &mut out);
        assert_eq!(out, Matrix::zeros(2, 3));
        // 1x1 * 1x1.
        let s = CsrMatrix::from_triplets(1, 1, &[(0, 0, 2.0)]);
        let mut out = Matrix::scalar(9.0);
        s.spmm_into(&Matrix::scalar(3.5), &mut out);
        assert_eq!(out, Matrix::scalar(7.0));
    }

    #[test]
    #[should_panic(expected = "spmm inner dimensions")]
    fn spmm_into_rejects_zero_dim_mismatch() {
        let s = CsrMatrix::from_triplets(0, 3, &[]);
        let mut out = Matrix::zeros(0, 0);
        s.spmm_into(&Matrix::zeros(4, 0), &mut out);
    }
}
