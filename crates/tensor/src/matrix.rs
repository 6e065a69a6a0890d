//! Dense row-major `f32` matrix backed by the [`workspace`](crate::workspace)
//! buffer pool and the runtime-dispatched [`kernels`](crate::kernels) layer.
//! Shapes are validated eagerly; every op output reuses pooled capacity, so
//! steady-state workloads stop touching the system allocator.

use std::fmt;

use crate::error::{Result, TensorError};
use crate::kernels;
use crate::workspace;

/// A dense row-major matrix of `f32`.
///
/// `Matrix` is the only tensor rank in this workspace: vectors are `1 × n`
/// or `n × 1` matrices, scalars are `1 × 1`. Higher-rank constructs (batches,
/// attention heads) are expressed by slicing/concatenating columns, which
/// keeps the autodiff core small and auditable.
///
/// Buffers are drawn from the [`workspace`] pool on construction and
/// recycled on drop, so cloning and op outputs are allocation-free once the
/// pool is warm.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = workspace::take_buffer(self.data.len());
        data.extend_from_slice(&self.data);
        Self { rows: self.rows, cols: self.cols, data }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        workspace::recycle_buffer(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// The caller's buffer is adopted as-is (and joins the pool when the
    /// matrix is dropped). Returns [`TensorError::ShapeMismatch`] when
    /// `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let len = rows * cols;
        let mut data = workspace::take_buffer(len);
        data.resize(len, value);
        Self { rows, cols, data }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// A `1 × n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        let mut data = workspace::take_buffer(values.len());
        data.extend_from_slice(values);
        Self { rows: 1, cols: values.len(), data }
    }

    /// A `n × 1` column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        let mut data = workspace::take_buffer(values.len());
        data.extend_from_slice(values);
        Self { rows: values.len(), cols: 1, data }
    }

    /// A `1 × 1` matrix holding `value`.
    pub fn scalar(value: f32) -> Self {
        let mut data = workspace::take_buffer(1);
        data.push(value);
        Self { rows: 1, cols: 1, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = workspace::take_buffer(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer (which leaves the pool).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element access; panics on out-of-bounds (debug-friendly hot path).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element write; panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 × 1` matrix.
    pub fn scalar_value(&self) -> Result<f32> {
        if self.rows == 1 && self.cols == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::ShapeMismatch {
                expected: (1, 1),
                got: self.shape(),
                op: "scalar_value",
            })
        }
    }

    fn check_same_shape(&self, other: &Self, op: &'static str) -> Result<()> {
        if self.shape() == other.shape() {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                expected: self.shape(),
                got: other.shape(),
                op,
            })
        }
    }

    /// Elementwise sum, shapes must match.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.check_same_shape(other, "add")?;
        let mut data = workspace::take_buffer(self.data.len());
        kernels::add_into(&self.data, &other.data, &mut data);
        Ok(Self { rows: self.rows, cols: self.cols, data })
    }

    /// In-place elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        kernels::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        kernels::axpy(&mut self.data, alpha, &other.data);
        Ok(())
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.check_same_shape(other, "sub")?;
        let mut data = workspace::take_buffer(self.data.len());
        kernels::sub_into(&self.data, &other.data, &mut data);
        Ok(Self { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        self.check_same_shape(other, "hadamard")?;
        let mut data = workspace::take_buffer(self.data.len());
        kernels::mul_into(&self.data, &other.data, &mut data);
        Ok(Self { rows: self.rows, cols: self.cols, data })
    }

    /// `alpha * self + beta` applied elementwise.
    pub fn affine(&self, alpha: f32, beta: f32) -> Self {
        let mut data = workspace::take_buffer(self.data.len());
        kernels::affine_into(&self.data, alpha, beta, &mut data);
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise `max(x, 0)` via the dispatched kernel layer.
    pub fn relu(&self) -> Self {
        let mut data = workspace::take_buffer(self.data.len());
        kernels::relu_into(&self.data, &mut data);
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` elementwise, returning a new matrix.
    ///
    /// Generic over the closure, so it cannot be backend-multiversioned;
    /// hot elementwise paths have dedicated kernels instead.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = workspace::take_buffer(self.data.len());
        data.extend(self.data.iter().map(|&a| f(a)));
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Matrix product `self · other`.
    ///
    /// Register-tiled, cache-blocked GEMM dispatched through the
    /// [`kernels`] layer (scalar / AVX2 / AVX-512 / NEON, bitwise identical
    /// by construction). Products above [`GEMM_PAR_MIN_MACS`] partition
    /// output rows across the `aero-parallel` pool. Every element of the
    /// output accumulates its `k` products in strictly increasing `p` order
    /// on every path, so the result is bitwise identical regardless of
    /// backend, blocking, or thread count.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                expected: (self.cols, other.rows),
                got: other.shape(),
                op: "matmul",
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = workspace::take_buffer(m * n);
        out.resize(m * n, 0.0);
        if m * k * n > 0 {
            run_gemm(m, k, n, &mut out, |r0, rows, chunk| {
                kernels::gemm_nn_rows(&self.data[r0 * k..(r0 + rows) * k], &other.data, chunk, k, n);
            })?;
        }
        Ok(Self { rows: m, cols: n, data: out })
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// Same dispatch/blocking/threading scheme and determinism contract as
    /// [`matmul`](Self::matmul).
    pub fn matmul_tn(&self, other: &Self) -> Result<Self> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, other.rows),
                got: other.shape(),
                op: "matmul_tn",
            });
        }
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = workspace::take_buffer(m * n);
        out.resize(m * n, 0.0);
        if m * k * n > 0 {
            run_gemm(m, k, n, &mut out, |r0, _rows, chunk| {
                kernels::gemm_tn_rows(&self.data, &other.data, chunk, r0, m, k, n);
            })?;
        }
        Ok(Self { rows: m, cols: n, data: out })
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// Packs `NR`-column panels of `other` so lanes can vectorize across
    /// output columns while each dot product still accumulates sequentially
    /// in increasing `p` order — same determinism contract as
    /// [`matmul`](Self::matmul).
    pub fn matmul_nt(&self, other: &Self) -> Result<Self> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, self.cols),
                got: other.shape(),
                op: "matmul_nt",
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = workspace::take_buffer(m * n);
        out.resize(m * n, 0.0);
        if m * k * n > 0 {
            run_gemm(m, k, n, &mut out, |r0, rows, chunk| {
                kernels::gemm_nt_rows(&self.data[r0 * k..(r0 + rows) * k], &other.data, chunk, k, n);
            })?;
        }
        Ok(Self { rows: m, cols: n, data: out })
    }

    /// Transposed copy, copied in 8×8 blocks so both the source reads and
    /// the destination writes stay within a few cache lines per block
    /// (a plain row sweep strides the destination by `rows` every element).
    pub fn transpose(&self) -> Self {
        const TB: usize = 8;
        let (r_n, c_n) = (self.rows, self.cols);
        let mut out = workspace::take_buffer(r_n * c_n);
        out.resize(r_n * c_n, 0.0);
        let mut rb = 0;
        while rb < r_n {
            let rh = TB.min(r_n - rb);
            let mut cb = 0;
            while cb < c_n {
                let cw = TB.min(c_n - cb);
                for r in rb..rb + rh {
                    for c in cb..cb + cw {
                        out[c * r_n + r] = self.data[r * c_n + c];
                    }
                }
                cb += cw;
            }
            rb += rh;
        }
        Self { rows: c_n, cols: r_n, data: out }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Maximum element; `None` on an empty matrix.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                Some(a) if a >= v => a,
                _ => v,
            })
        })
    }

    /// Concatenates matrices vertically (stacking rows).
    pub fn concat_rows(parts: &[&Self]) -> Result<Self> {
        let Some(first) = parts.first() else {
            return Ok(Self::zeros(0, 0));
        };
        let cols = first.cols;
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    expected: (p.rows, cols),
                    got: p.shape(),
                    op: "concat_rows",
                });
            }
            rows += p.rows;
        }
        let mut data = workspace::take_buffer(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Self { rows, cols, data })
    }

    /// Concatenates matrices horizontally (joining columns).
    pub fn concat_cols(parts: &[&Self]) -> Result<Self> {
        let Some(first) = parts.first() else {
            return Ok(Self::zeros(0, 0));
        };
        let rows = first.rows;
        let mut cols = 0;
        for p in parts {
            if p.rows != rows {
                return Err(TensorError::ShapeMismatch {
                    expected: (rows, p.cols),
                    got: p.shape(),
                    op: "concat_cols",
                });
            }
            cols += p.cols;
        }
        let mut data = workspace::take_buffer(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Ok(Self { rows, cols, data })
    }

    /// Copies columns `[start, start+len)` into a new matrix.
    pub fn slice_cols(&self, start: usize, len: usize) -> Result<Self> {
        if start + len > self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: start + len,
                bound: self.cols,
                op: "slice_cols",
            });
        }
        let mut data = workspace::take_buffer(self.rows * len);
        for r in 0..self.rows {
            let row = self.row(r);
            data.extend_from_slice(&row[start..start + len]);
        }
        Ok(Self { rows: self.rows, cols: len, data })
    }

    /// Copies rows `[start, start+len)` into a new matrix.
    pub fn slice_rows(&self, start: usize, len: usize) -> Result<Self> {
        if start + len > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: start + len,
                bound: self.rows,
                op: "slice_rows",
            });
        }
        let mut data = workspace::take_buffer(len * self.cols);
        data.extend_from_slice(&self.data[start * self.cols..(start + len) * self.cols]);
        Ok(Self { rows: len, cols: self.cols, data })
    }

    /// Gathers rows by index (rows may repeat); backward pass scatters.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Self> {
        let mut data = workspace::take_buffer(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                    op: "gather_rows",
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self { rows: indices.len(), cols: self.cols, data })
    }

    /// Adds a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Self) -> Result<Self> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: (1, self.cols),
                got: row.shape(),
                op: "add_row_broadcast",
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            kernels::add_assign(out.row_mut(r), &row.data);
        }
        Ok(out)
    }

    /// Per-row sums as an `rows × 1` column vector.
    pub fn row_sums(&self) -> Self {
        let mut data = workspace::take_buffer(self.rows);
        data.extend((0..self.rows).map(|r| self.row(r).iter().sum::<f32>()));
        Self { rows: self.rows, cols: 1, data }
    }

    /// Per-row means as an `rows × 1` column vector.
    pub fn row_means(&self) -> Self {
        let n = self.cols.max(1) as f32;
        let mut s = self.row_sums();
        for v in &mut s.data {
            *v /= n;
        }
        s
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Above this many multiply-accumulates output rows are partitioned across
/// the `aero-parallel` pool.
const GEMM_PAR_MIN_MACS: usize = 1 << 21;

/// Dispatches a GEMM over the output buffer: serial for small/medium
/// products, row-partitioned across the pool for large ones. `kernel`
/// receives `(first_row, row_count, row_slice)` and must fill exactly those
/// output rows. Row partitioning never changes any element's accumulation
/// order, so threaded and serial results are bitwise identical.
///
/// A panic inside `kernel` — on a pool worker or on the serial path — is
/// caught and surfaced as [`TensorError::WorkerPanic`] so a single bad shard
/// cannot abort the process.
fn run_gemm(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Result<()> {
    let macs = m * k * n;
    let threads = aero_parallel::max_threads();
    if macs >= GEMM_PAR_MIN_MACS && threads > 1 && m > 1 {
        let rows_per = m.div_ceil(threads);
        aero_parallel::try_parallel_for_chunks(out, rows_per * n, |offset, chunk| {
            kernel(offset / n, chunk.len() / n, chunk);
        })
        .map_err(|e| TensorError::WorkerPanic { shard: e.shard, message: e.message })
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(0, m, out))).map_err(
            |payload| TensorError::WorkerPanic {
                shard: 0,
                message: aero_parallel::panic_message(payload),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32).collect()).unwrap();
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32).collect()).unwrap();
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_matches_naive_loop() {
        // Shapes straddle the 8×8 tile in every combination (exact multiple,
        // remainder rows, remainder cols, smaller than one tile).
        for &(rows, cols) in &[(8usize, 8usize), (16, 24), (13, 9), (5, 3), (1, 17), (9, 1)] {
            let a = Matrix::from_fn(rows, cols, |r, c| (r * 31 + c * 7) as f32 - 40.0);
            let tiled = a.transpose();
            let mut naive = Matrix::zeros(cols, rows);
            for r in 0..rows {
                for c in 0..cols {
                    naive.set(c, r, a.get(r, c));
                }
            }
            assert_eq!(tiled, naive, "transpose mismatch at {rows}x{cols}");
        }
    }

    #[test]
    fn relu_matches_map() {
        let a = Matrix::from_fn(3, 5, |r, c| (r as f32 - 1.0) * (c as f32 - 2.0));
        assert_eq!(a.relu(), a.map(|v| v.max(0.0)));
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 2, |r, c| (r * c) as f32 + 10.0);
        let cat = Matrix::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), (2, 5));
        assert_eq!(cat.slice_cols(0, 3).unwrap(), a);
        assert_eq!(cat.slice_cols(3, 2).unwrap(), b);
    }

    #[test]
    fn concat_rows_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(1, 3, |_, c| c as f32 - 5.0);
        let cat = Matrix::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), (3, 3));
        assert_eq!(cat.slice_rows(0, 2).unwrap(), a);
        assert_eq!(cat.slice_rows(2, 1).unwrap(), b);
    }

    #[test]
    fn gather_rows_repeats_and_bounds() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.as_slice(), &[4., 5., 0., 1., 4., 5.]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn add_row_broadcast_adds_per_row() {
        let a = Matrix::ones(2, 3);
        let b = Matrix::row_vector(&[1., 2., 3.]);
        let c = a.add_row_broadcast(&b).unwrap();
        assert_eq!(c.as_slice(), &[2., 3., 4., 2., 3., 4.]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), Some(4.0));
        assert_eq!(a.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.row_means().as_slice(), &[1.5, 3.5]);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.matmul(&Matrix::eye(3)).unwrap(), a);
        assert_eq!(Matrix::eye(3).matmul(&a).unwrap(), a);
    }

    #[test]
    fn into_vec_roundtrips() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(a.into_vec(), vec![1., 2., 3., 4.]);
    }
}
