//! Dense row-major `f64` matrix with the small set of operations the DPZ
//! pipeline needs: slicing by rows/columns, transpose, (parallel) matrix
//! multiplication, Gram/covariance products and a direct linear solver.

use crate::{LinalgError, Result};
use dpz_kernels::{blas, gemm};
use rayon::prelude::*;

/// Minimum number of rows in the output before `matmul` fans out to rayon.
/// Below this the per-task overhead outweighs the work.
const PAR_ROW_THRESHOLD: usize = 32;

/// A dense, row-major matrix of `f64`.
///
/// Storage is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(r, c)` lives at index `r * cols + c`. The type is deliberately
/// small: DPZ only needs construction, transpose, products and column
/// statistics, so this is not a general linear-algebra interface.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                got: format!("{} elements", data.len()),
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from a slice of rows. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty("Matrix::from_rows"));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_rows",
                got: "ragged rows".to_string(),
                expected: format!("all rows of length {cols}"),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor. Panics on out-of-bounds (debug-friendly; hot loops
    /// below use row slices instead).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Overwrite column `c` from a slice of length `rows`.
    pub fn set_col(&mut self, c: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "set_col length mismatch");
        for (r, &v) in values.iter().enumerate() {
            self.data[r * self.cols + c] = v;
        }
    }

    /// Return a new matrix containing the given columns, in order.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in cols.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// Return the submatrix of the first `k` columns.
    pub fn leading_cols(&self, k: usize) -> Matrix {
        assert!(k <= self.cols, "leading_cols: k={k} > cols={}", self.cols);
        let mut out = Matrix::zeros(self.rows, k);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[..k]);
        }
        out
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large inputs.
        const B: usize = 64;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * rhs`, parallelized over output rows.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                got: format!("{}x{} * {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
                expected: "lhs.cols == rhs.rows".to_string(),
            });
        }
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0; n * m];
        if n == 0 || m == 0 {
            return Matrix::from_vec(n, m, out);
        }

        // Pack B once into zero-padded column panels; the packed form is
        // shared read-only by every worker. Each strip then runs the
        // register-tiled microkernel (see `dpz_kernels::gemm`).
        let packed = gemm::PackedB::new(&rhs.data, k, m);
        if n >= PAR_ROW_THRESHOLD {
            let threads = rayon::current_num_threads().max(1);
            let strip = n.div_ceil(threads).next_multiple_of(gemm::MR).max(gemm::MR);
            out.par_chunks_mut(strip * m)
                .enumerate()
                .for_each(|(si, c_chunk)| {
                    let r0 = si * strip;
                    let rows = c_chunk.len() / m;
                    let a_chunk = &self.data[r0 * k..(r0 + rows) * k];
                    gemm::gemm_strip(c_chunk, a_chunk, rows, &packed);
                });
        } else {
            gemm::gemm_strip(&mut out, &self.data, n, &packed);
        }
        Matrix::from_vec(n, m, out)
    }

    /// Matrix product `self * rhs` for a *thin* left operand (few rows,
    /// e.g. a transposed subspace sketch): streams `rhs` row-by-row through
    /// the kernels' fused-accumulate panel ([`dpz_kernels::gemm::gemm_thin`])
    /// instead of packing it — packing an `n x m` operand costs a full extra
    /// pass that a rank-`s` product never amortizes.
    ///
    /// Deterministic and backend/thread-independent: every output element is
    /// a fixed ascending-`k` chain of parity-contracted `accum4`/`axpy`
    /// primitives, with no data-dependent partitioning.
    pub fn matmul_thin(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_thin",
                got: format!("{}x{} * {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
                expected: "lhs.cols == rhs.rows".to_string(),
            });
        }
        let (s, n, m) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0; s * m];
        if s > 0 && n > 0 && m > 0 {
            gemm::gemm_thin(&mut out, &self.data, s, &rhs.data, n, m);
        }
        Matrix::from_vec(s, m, out)
    }

    /// Matrix product with a transposed right-hand side: `self * rhsᵀ`,
    /// where `rhs` is stored row-major as an `m x k` matrix. Both operands
    /// stream along contiguous rows, so each output element is a single
    /// [`dpz_kernels::blas::dot`].
    pub fn matmul_transb(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_transb",
                got: format!("{}x{} * ({}x{})ᵀ", self.rows, self.cols, rhs.rows, rhs.cols),
                expected: "lhs.cols == rhs.cols".to_string(),
            });
        }
        let (n, k, m) = (self.rows, self.cols, rhs.rows);
        let mut out = vec![0.0; n * m];
        let body = |(r, out_row): (usize, &mut [f64])| {
            let lhs_row = &self.data[r * k..(r + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = blas::dot(lhs_row, &rhs.data[j * k..(j + 1) * k]);
            }
        };
        if n >= PAR_ROW_THRESHOLD {
            out.par_chunks_mut(m.max(1)).enumerate().for_each(body);
        } else {
            out.chunks_mut(m.max(1)).enumerate().for_each(body);
        }
        Matrix::from_vec(n, m, out)
    }

    /// Matrix-vector product `self * v`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                got: format!("vector of {}", v.len()),
                expected: format!("vector of {}", self.cols),
            });
        }
        Ok((0..self.rows).map(|r| blas::dot(self.row(r), v)).collect())
    }

    /// Gram product `selfᵀ * self`, the `cols x cols` matrix of column inner
    /// products. This is the covariance kernel used by PCA; it is symmetric,
    /// so only the upper triangle is computed (in parallel) and mirrored.
    /// The pool width only sizes the blocks of output rows: every element is
    /// the same chain of operations over the input rows in order, so it has
    /// the same bits at any width.
    pub fn gram(&self) -> Matrix {
        self.gram_blocks(rayon::current_num_threads())
    }

    /// [`Matrix::gram`] over at most `blocks` contiguous blocks of output
    /// rows of about equal work, filled in parallel.
    fn gram_blocks(&self, blocks: usize) -> Matrix {
        let m = self.cols;
        let mut out = vec![0.0; m * m];
        // Row `i` holds `m - i` upper-triangle elements: a block ends where
        // the work so far reaches its cumulative share (the last at row m-1).
        let (total, blocks) = (m * (m + 1) / 2, blocks.clamp(1, m.max(1)));
        let (mut parts, mut rest, mut lo, mut done) = (Vec::new(), out.as_mut_slice(), 0, 0);
        for i in 0..m {
            done += m - i;
            if done * blocks >= (parts.len() + 1) * total {
                let (block, tail) = rest.split_at_mut((i + 1 - lo) * m);
                parts.push((lo, block));
                (rest, lo) = (tail, i + 1);
            }
        }
        parts.into_par_iter().for_each(|(lo, block)| {
            // Rank-4 blocking over input rows: four rows scatter into each
            // output row in one fused pass (`accum4`), so every element is
            // loaded/stored once per *four* rows instead of once per row.
            let mut quads = self.data.chunks_exact(4 * m);
            for quad in quads.by_ref() {
                let (r0, rest) = quad.split_at(m);
                let (r1, rest) = rest.split_at(m);
                let (r2, r3) = rest.split_at(m);
                for (i, out) in (lo..).zip(block.chunks_exact_mut(m)) {
                    let (a, b, c, d) = (r0[i], r1[i], r2[i], r3[i]);
                    if a == 0.0 && b == 0.0 && c == 0.0 && d == 0.0 {
                        continue;
                    }
                    blas::accum4(
                        &mut out[i..],
                        &r0[i..],
                        &r1[i..],
                        &r2[i..],
                        &r3[i..],
                        a,
                        b,
                        c,
                        d,
                    );
                }
            }
            for row in quads.remainder().chunks_exact(m) {
                for (i, out) in (lo..).zip(block.chunks_exact_mut(m)) {
                    if row[i] != 0.0 {
                        // Upper-triangle row update as one contiguous fused
                        // axpy: out[i, i..] += row[i] * row[i..].
                        blas::axpy(&mut out[i..], &row[i..], row[i]);
                    }
                }
            }
        });
        // Mirror the strict upper triangle into the lower one.
        for i in 0..m {
            for j in (i + 1)..m {
                out[j * m + i] = out[i * m + j];
            }
        }
        Matrix {
            rows: m,
            cols: m,
            data: out,
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element-wise difference against another matrix of the
    /// same shape. Handy in tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Solve the square linear system `self * x = b` by Gaussian elimination
    /// with partial pivoting. `self` is copied; `O(n³)`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.rows;
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "solve",
                got: format!("{}x{}", self.rows, self.cols),
                expected: "square matrix".to_string(),
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve",
                got: format!("rhs of {}", b.len()),
                expected: format!("rhs of {n}"),
            });
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot: find the largest magnitude entry in this column.
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-300 {
                return Err(LinalgError::Singular("Matrix::solve"));
            }
            if piv != col {
                for c in 0..n {
                    a.swap(col * n + c, piv * n + c);
                }
                x.swap(col, piv);
            }
            let diag = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Element-wise subtraction `self - other` into a new matrix.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                got: format!(
                    "{}x{} - {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
                expected: "matching shapes".to_string(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a).unwrap(), a);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_parallel_path_matches_serial() {
        // 64 rows crosses PAR_ROW_THRESHOLD; compare against a hand-rolled
        // triple loop.
        let n = 64;
        let a =
            Matrix::from_vec(n, n, (0..n * n).map(|i| (i % 17) as f64 - 8.0).collect()).unwrap();
        let b =
            Matrix::from_vec(n, n, (0..n * n).map(|i| ((i * 7) % 13) as f64).collect()).unwrap();
        let c = a.matmul(&b).unwrap();
        for r in 0..n {
            for cix in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.get(r, k) * b.get(k, cix);
                }
                assert!(approx(c.get(r, cix), s, 1e-9), "mismatch at ({r},{cix})");
            }
        }
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        for &(n, k, m) in &[(3usize, 5usize, 4usize), (40, 17, 33), (1, 1, 1)] {
            let a = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 11) as f64 - 5.0).collect())
                .unwrap();
            let b =
                Matrix::from_vec(m, k, (0..m * k).map(|i| ((i * 3) % 7) as f64).collect()).unwrap();
            let fast = a.matmul_transb(&b).unwrap();
            let slow = a.matmul(&b.transpose()).unwrap();
            assert!(fast.max_abs_diff(&slow) < 1e-12, "{n}x{k}x{m}");
        }
        assert!(Matrix::zeros(2, 3)
            .matmul_transb(&Matrix::zeros(2, 4))
            .is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(3, 5, (0..15).map(|i| i as f64).collect()).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn transpose_large_blocked() {
        let a = Matrix::from_vec(130, 70, (0..130 * 70).map(|i| i as f64).collect()).unwrap();
        let t = a.transpose();
        for r in 0..130 {
            for c in 0..70 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn gram_equals_at_a() {
        let a = Matrix::from_vec(
            4,
            3,
            vec![1., 2., 0., -1., 3., 2., 0.5, 0., 1., 2., -2., 4.],
        )
        .unwrap();
        let g = a.gram();
        let g_ref = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&g_ref) < 1e-12);
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn gram_bits_do_not_follow_the_block_count() {
        // 37 rows leave one row after the quads; the zeroed entries reach
        // the all-zero skips of both passes.
        for (n, m) in [(37usize, 13usize), (512, 128)] {
            let mut s = 0x9E37_79B9_7F4A_7C15u64;
            let data = (0..n * m)
                .map(|i| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    if i % m == 2 || (i / m) % 5 == 0 && i % m < m / 2 {
                        0.0
                    } else {
                        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    }
                })
                .collect();
            let a = Matrix::from_vec(n, m, data).unwrap();
            let bits = |g: Matrix| {
                g.into_vec()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect::<Vec<_>>()
            };
            let one = bits(a.gram_blocks(1));
            for blocks in [2, 3, 7] {
                assert_eq!(bits(a.gram_blocks(blocks)), one, "{n}x{m}, {blocks} blocks");
            }
            assert_eq!(bits(a.gram()), one, "{n}x{m}, the pool's width");
        }
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = vec![7.0, -2.0];
        let got = a.mul_vec(&v).unwrap();
        assert_eq!(got, vec![3.0, 13.0, 23.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_vec(3, 3, vec![4., 1., 0., 1., 3., -1., 0., -1., 2.]).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (g, t) in x.iter().zip(&x_true) {
            assert!(approx(*g, *t, 1e-10));
        }
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 4.]).unwrap();
        assert_eq!(
            a.solve(&[1.0, 2.0]),
            Err(LinalgError::Singular("Matrix::solve"))
        );
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0., 1., 1., 0.]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn select_and_leading_cols() {
        let a = Matrix::from_vec(2, 4, vec![0., 1., 2., 3., 10., 11., 12., 13.]).unwrap();
        let s = a.select_cols(&[3, 0]);
        assert_eq!(s.as_slice(), &[3., 0., 13., 10.]);
        let l = a.leading_cols(2);
        assert_eq!(l.as_slice(), &[0., 1., 10., 11.]);
    }

    #[test]
    fn col_get_set_round_trip() {
        let mut a = Matrix::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0; 3]);
    }

    #[test]
    fn frobenius_norm_simple() {
        let a = Matrix::from_vec(2, 2, vec![3., 0., 0., 4.]).unwrap();
        assert!(approx(a.frobenius_norm(), 5.0, 1e-12));
    }

    #[test]
    fn sub_shapes() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.sub(&b).is_err());
        let c = Matrix::from_vec(2, 2, vec![5., 5., 5., 5.]).unwrap();
        let d = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(c.sub(&d).unwrap().as_slice(), &[4., 3., 2., 1.]);
    }
}
