use std::fmt;
use std::ops::Range;

/// Column-tile width for the blocked matmul kernel: 256 columns keep the
/// active output/right-hand rows within L1 while the k loop streams the
/// left operand. Tiling only reorders independent output columns, so
/// results stay bit-identical to the untiled loop (each element still
/// accumulates in ascending-k order).
const MATMUL_COL_TILE: usize = 256;

/// The matmul row kernel: `out = a_rows * b`, where `a_rows` holds
/// whole rows of the left operand (row-major, `ak` columns), `b` is the full
/// right operand (`bc` columns) and `out` holds the matching output rows.
/// Every output element is written exactly once (accumulation happens in a
/// stack scratch tile), so `out` may hold arbitrary stale contents on entry.
/// The per-element accumulation order is unchanged from the read-modify-write
/// form — ascending `k`, zero terms skipped — so results are bit-identical.
fn matmul_rows(a_rows: &[f64], ak: usize, b: &[f64], bc: usize, out: &mut [f64]) {
    debug_assert!(ak > 0 && bc > 0, "degenerate shapes handled by callers");
    // The GNN layers multiply tall-skinny matrices whose widths are small
    // compile-time-friendly constants (features and hidden sizes); a
    // register-resident accumulator is worth ~3x over the stack tile there.
    match bc {
        1 => return matmul_rows_w::<1>(a_rows, ak, b, out),
        2 => return matmul_rows_w::<2>(a_rows, ak, b, out),
        4 => return matmul_rows_w::<4>(a_rows, ak, b, out),
        7 => return matmul_rows_w::<7>(a_rows, ak, b, out),
        8 => return matmul_rows_w::<8>(a_rows, ak, b, out),
        16 => return matmul_rows_w::<16>(a_rows, ak, b, out),
        32 => return matmul_rows_w::<32>(a_rows, ak, b, out),
        _ => {}
    }
    let mut scratch = [0.0f64; MATMUL_COL_TILE];
    for tile in (0..bc).step_by(MATMUL_COL_TILE) {
        let width = (bc - tile).min(MATMUL_COL_TILE);
        let acc = &mut scratch[..width];
        for (a_row, out_row) in a_rows.chunks_exact(ak).zip(out.chunks_exact_mut(bc)) {
            acc.fill(0.0);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_tile = &b[k * bc + tile..k * bc + tile + width];
                for (o, &bv) in acc.iter_mut().zip(b_tile) {
                    *o += a * bv;
                }
            }
            out_row[tile..tile + width].copy_from_slice(acc);
        }
    }
}

/// [`matmul_rows`] specialized to a compile-time column count `W`: the
/// accumulator lives in registers instead of a stack slice, and rows are
/// processed in pairs so the independent FMA chains hide each other's
/// latency. Neither change touches any output element's accumulation order
/// — still ascending `k`, zero terms skipped, starting from 0.0 — so the
/// result is bit-identical to the generic kernel.
fn matmul_rows_w<const W: usize>(a_rows: &[f64], ak: usize, b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a_rows.len() / ak * W, out.len());
    let mut a_pairs = a_rows.chunks_exact(2 * ak);
    let mut o_pairs = out.chunks_exact_mut(2 * W);
    for (a2, o2) in (&mut a_pairs).zip(&mut o_pairs) {
        let (a0, a1) = a2.split_at(ak);
        let mut acc0 = [0.0f64; W];
        let mut acc1 = [0.0f64; W];
        for k in 0..ak {
            let b_row: &[f64; W] = b[k * W..(k + 1) * W].try_into().expect("W-wide row");
            let (av0, av1) = (a0[k], a1[k]);
            if av0 != 0.0 {
                for (o, &bv) in acc0.iter_mut().zip(b_row) {
                    *o += av0 * bv;
                }
            }
            if av1 != 0.0 {
                for (o, &bv) in acc1.iter_mut().zip(b_row) {
                    *o += av1 * bv;
                }
            }
        }
        let (o0, o1) = o2.split_at_mut(W);
        o0.copy_from_slice(&acc0);
        o1.copy_from_slice(&acc1);
    }
    let a_rem = a_pairs.remainder();
    let o_rem = o_pairs.into_remainder();
    for (a_row, out_row) in a_rem.chunks_exact(ak).zip(o_rem.chunks_exact_mut(W)) {
        let mut acc = [0.0f64; W];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b_row: &[f64; W] = b[k * W..(k + 1) * W].try_into().expect("W-wide row");
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += a * bv;
            }
        }
        out_row.copy_from_slice(&acc);
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A 1x1 matrix holding `value`.
    pub fn scalar(value: f64) -> Self {
        Matrix::from_vec(1, 1, vec![value])
    }

    /// A column vector (n x 1) from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Logical bytes held by the element buffer: `rows * cols * 8`. Bytes
    /// *requested*, never allocator capacity or overhead, so the value is a
    /// pure function of the matrix shape — machine-independent by
    /// construction (see the `budget` crate).
    pub fn logical_bytes(&self) -> u64 {
        self.data.len() as u64 * std::mem::size_of::<f64>() as u64
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its flat row-major buffer (the
    /// inverse of [`Matrix::from_vec`]; lets a [`crate::BufferPool`]
    /// recycle the allocation).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out`, overwriting its
    /// contents. Reusing one output buffer across repeated products avoids
    /// an allocation per call on training hot paths.
    ///
    /// Degenerate shapes (zero rows, zero columns, empty inner dimension)
    /// are well-defined: the asserts reject any mismatched combination with
    /// a typed message, and every matching combination yields the
    /// mathematically correct (possibly empty or all-zero) product. Output
    /// aliasing is impossible by construction: `rhs: &Matrix` and
    /// `out: &mut Matrix` cannot refer to the same allocation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or when `out` is not
    /// `rows(self) x cols(rhs)`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimensions: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul output shape: want {}x{}",
            self.rows,
            rhs.cols
        );
        if self.rows == 0 || rhs.cols == 0 {
            return; // no output elements at all
        }
        if self.cols == 0 {
            out.data.fill(0.0); // empty inner dimension: all-zero product
            return;
        }
        matmul_rows(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// `self * rhs^T` (the backward pass of a matmul needs `dC * B^T`,
    /// where `B` is a small parameter block).
    ///
    /// # Panics
    ///
    /// Panics unless `cols(self) == cols(rhs)`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] written into `out`, overwriting its contents
    /// (buffer-reuse variant for training hot paths).
    ///
    /// # Panics
    ///
    /// Panics unless `cols(self) == cols(rhs)` and `out` is
    /// `rows(self) x rows(rhs)`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt inner dimensions: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_nt output shape: want {}x{}",
            self.rows,
            rhs.rows
        );
        if self.rows == 0 || rhs.rows == 0 {
            return; // no output elements at all
        }
        if self.cols == 0 {
            out.data.fill(0.0); // every dot product is empty
            return;
        }
        // Materializing rhs^T costs one pass over rhs — in the backward
        // passes that call this, rhs is a small parameter block — and lets
        // the product run through the register-blocked row kernel instead
        // of latency-bound scalar dot products. Each output element still
        // accumulates in ascending-k order from 0.0.
        let bt = rhs.transpose();
        matmul_rows(&self.data, self.cols, &bt.data, rhs.rows, &mut out.data);
    }

    /// `self^T * rhs` without materializing the transpose (the backward
    /// pass of a matmul needs `A^T * dC`).
    ///
    /// # Panics
    ///
    /// Panics unless `rows(self) == rows(rhs)`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn inner dimensions: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        // Walk self row-major: row k of self contributes a[k][i] * rhs[k][j]
        // to out[i][j] — sequential access on all three buffers.
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self[rows]^T * rhs[rows]` — the [`Matrix::matmul_tn`] product
    /// restricted to one contiguous row segment of both operands. The
    /// batched backward pass uses this to reproduce, segment by segment,
    /// exactly the per-instance `A_i^T * dC_i` products (same ascending-k
    /// accumulation within the segment, so the result is bit-identical to
    /// slicing the rows out first).
    ///
    /// # Panics
    ///
    /// Panics unless `rows(self) == rows(rhs)` and `rows` is within range.
    pub fn matmul_tn_rows(&self, rhs: &Matrix, rows: Range<usize>) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn inner dimensions: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "matmul_tn_rows segment {rows:?} out of range for {} rows",
            self.rows
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, mut f: impl FnMut(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "element-wise shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// [`Matrix::zip`] written into `out`, overwriting its contents
    /// (buffer-reuse variant for training hot paths).
    ///
    /// # Panics
    ///
    /// Panics unless `self`, `rhs` and `out` all share one shape.
    pub fn zip_into(&self, rhs: &Matrix, out: &mut Matrix, mut f: impl FnMut(f64, f64) -> f64) {
        assert_eq!(self.shape(), rhs.shape(), "element-wise shape mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "element-wise output shape mismatch"
        );
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = f(a, b);
        }
    }

    /// Element-wise map.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// [`Matrix::map`] written into `out`, overwriting its contents
    /// (buffer-reuse variant for training hot paths).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch with `out`.
    pub fn map_into(&self, out: &mut Matrix, mut f: impl FnMut(f64) -> f64) {
        assert_eq!(
            self.shape(),
            out.shape(),
            "element-wise output shape mismatch"
        );
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = f(a);
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, c: f64) -> Matrix {
        self.map(|a| a * c)
    }

    /// In-place `self += c * rhs` (the accumulation primitive of backprop).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, c: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += c * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Row sums as a `rows x 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Largest absolute element (0.0 for an empty matrix). NaN entries
    /// propagate: the result is NaN when any element is NaN, so a magnitude
    /// check cannot mistake a NaN-poisoned tensor for a healthy one
    /// (`f64::max` alone would silently discard NaN operands).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &a| {
            let a = a.abs();
            // `a > m` is false for NaN on either side, so NaN is sticky.
            if a > m || a.is_nan() {
                a
            } else {
                m
            }
        })
    }

    /// Whether every element is finite (no NaN or ±inf). True for an empty
    /// matrix. This is the divergence guard primitive: losses and gradients
    /// are checked before they can poison parameters.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:>9.4}"))
                .collect();
            writeln!(f, "  {}", row.join(" "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_and_reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::ones(2, 2);
        assert_eq!(a.add(&b).sum(), 14.0);
        assert_eq!(a.sub(&b).sum(), 6.0);
        assert_eq!(a.hadamard(&a).sum(), 30.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.col_sums(), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.row_sums(), Matrix::column(&[3.0, 7.0]));
        assert_eq!(a.scale(2.0).get(1, 1), 8.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.norm() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, 0.0, 3.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[-1.0, 0.5], &[4.0, -2.0]]);
        let mut out = Matrix::ones(2, 2); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 1.5, -1.0], &[2.0, -0.5, 1.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
        let c = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let d = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(c.matmul_tn(&d), c.transpose().matmul(&d));
    }

    #[test]
    fn matmul_into_degenerate_shapes_are_well_defined() {
        // 0xk * kx0 -> 0x0: legal, empty.
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 0);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (0, 0));
        // mxk with k=0: the empty inner dimension yields an all-zero product
        // and must overwrite stale output contents.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut out = Matrix::ones(2, 3);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, Matrix::zeros(2, 3));
        // 1x1 * 1x1 -> 1x1.
        let a = Matrix::scalar(3.0);
        let b = Matrix::scalar(-2.0);
        let mut out = Matrix::scalar(99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, Matrix::scalar(-6.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_into_rejects_zero_dim_mismatch() {
        // Degenerate dims must not slip past the shape check.
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(4, 0);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn matmul_nt_tn_degenerate_shapes() {
        // (0x2) * (3x2)^T -> 0x3 and the k=0 empty-dot case -> zeros.
        assert_eq!(
            Matrix::zeros(0, 2).matmul_nt(&Matrix::ones(3, 2)).shape(),
            (0, 3)
        );
        assert_eq!(
            Matrix::ones(2, 0).matmul_nt(&Matrix::ones(3, 0)),
            Matrix::zeros(2, 3)
        );
        // (0x2)^T * 0x3 -> 2x3 zeros; (2x0)^T * 2x3 -> 0x3 empty.
        assert_eq!(
            Matrix::zeros(0, 2).matmul_tn(&Matrix::zeros(0, 3)),
            Matrix::zeros(2, 3)
        );
        assert_eq!(
            Matrix::ones(2, 0).matmul_tn(&Matrix::ones(2, 3)).shape(),
            (0, 3)
        );
        // 1x1 cases.
        assert_eq!(
            Matrix::scalar(3.0).matmul_nt(&Matrix::scalar(4.0)),
            Matrix::scalar(12.0)
        );
        assert_eq!(
            Matrix::scalar(3.0).matmul_tn(&Matrix::scalar(4.0)),
            Matrix::scalar(12.0)
        );
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dimensions")]
    fn matmul_nt_rejects_zero_dim_mismatch() {
        let _ = Matrix::zeros(2, 0).matmul_nt(&Matrix::zeros(3, 1));
    }

    #[test]
    #[should_panic(expected = "matmul_tn inner dimensions")]
    fn matmul_tn_rejects_zero_dim_mismatch() {
        let _ = Matrix::zeros(0, 2).matmul_tn(&Matrix::zeros(1, 3));
    }

    #[test]
    fn matmul_tn_rows_matches_sliced_product() {
        let a = Matrix::from_fn(10, 4, |r, c| ((r * 5 + c) % 9) as f64 - 4.0);
        let b = Matrix::from_fn(10, 3, |r, c| ((r * 7 + c * 2) % 5) as f64 - 2.0);
        // Whole range == matmul_tn; sub-range == matmul_tn of the row slice.
        assert_eq!(a.matmul_tn_rows(&b, 0..10), a.matmul_tn(&b));
        let sub = |m: &Matrix, lo: usize, hi: usize| {
            Matrix::from_fn(hi - lo, m.cols(), |r, c| m.get(lo + r, c))
        };
        assert_eq!(
            a.matmul_tn_rows(&b, 3..7),
            sub(&a, 3, 7).matmul_tn(&sub(&b, 3, 7))
        );
        assert_eq!(a.matmul_tn_rows(&b, 5..5), Matrix::zeros(4, 3));
    }

    #[test]
    #[should_panic(expected = "matmul output shape")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn max_abs_propagates_nan() {
        let healthy = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 0.0]]);
        assert_eq!(healthy.max_abs(), 5.0);
        assert!(healthy.is_finite());
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = healthy.clone();
            m.set(0, 1, poison);
            assert!(!m.is_finite(), "{poison} must not look healthy");
        }
        // NaN anywhere — first, middle, last — surfaces in max_abs.
        for idx in [(0, 0), (1, 0), (1, 1)] {
            let mut m = healthy.clone();
            m.set(idx.0, idx.1, f64::NAN);
            assert!(m.max_abs().is_nan(), "NaN at {idx:?} was masked");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.axpy(2.0, &Matrix::ones(2, 2));
        a.axpy(-0.5, &Matrix::identity(2));
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn display_is_never_empty() {
        let a = Matrix::zeros(1, 1);
        assert!(!a.to_string().is_empty());
    }
}
