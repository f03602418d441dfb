//! Row-major dense `f32` matrix.
//!
//! The matrix type is deliberately small: the MiLo pipeline only needs
//! construction, element access, slicing by rows/columns, matrix products,
//! transposes, and elementwise arithmetic. Shapes are validated on every
//! binary operation and reported through [`TensorError::ShapeMismatch`].

use crate::{Result, TensorError};

/// Minimum number of multiply-adds (`rows · k · cols`) before
/// [`Matrix::matmul`] fans out over row blocks; below this the scoped
/// thread spawn costs more than the arithmetic saves.
pub const PAR_MATMUL_MIN_WORK: usize = 64 * 1024;

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use milo_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix of the given shape where every element is `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows are not allowed");
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses a cache-friendly i-k-j loop order; adequate for the matrix sizes
    /// used by the scaled models in this reproduction. Products above
    /// [`PAR_MATMUL_MIN_WORK`] multiply-adds are split over row blocks on
    /// the [`crate::pool`]; each output row is produced entirely by one
    /// block with the `k`-reduction order unchanged, so the result is
    /// bit-identical to the serial path at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "matmul: {}x{} · {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let threads = crate::pool::max_threads();
        let work = self.rows * self.cols * rhs.cols;
        if threads > 1 && self.rows > 1 && work >= PAR_MATMUL_MIN_WORK {
            let block_rows = self.rows.div_ceil(threads);
            crate::pool::parallel_chunks_mut(
                &mut out.data,
                block_rows * rhs.cols,
                |blk, out_block| {
                    let r0 = blk * block_rows;
                    for (i, out_row) in out_block.chunks_mut(rhs.cols).enumerate() {
                        self.matmul_row_into(rhs, r0 + i, out_row);
                    }
                },
            );
        } else {
            for i in 0..self.rows {
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                self.matmul_row_into(rhs, i, out_row);
            }
        }
        Ok(out)
    }

    /// Accumulates row `i` of `self · rhs` into `out_row` (i-k-j order;
    /// the single code path both the serial and the row-block-parallel
    /// matmul run, which is what makes them bit-identical).
    fn matmul_row_into(&self, rhs: &Matrix, i: usize, out_row: &mut [f32]) {
        for (k, &a_ik) in self.row(i).iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = rhs.row(k);
            for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * b_kj;
            }
        }
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(&self, rhs: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scales every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "matvec: {}x{} · {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Extracts the sub-matrix of rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges fall outside the matrix.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range {r0}..{r1} out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range {c0}..{c1} out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Frobenius norm `sqrt(Σ w_ij²)` (accumulated in `f64` for stability).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(TensorError::ShapeMismatch(_))));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_shape() {
        let a = Matrix::zeros(4, 7);
        assert_eq!(a.transpose().shape(), (7, 4));
    }

    #[test]
    fn add_sub_inverse() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = a.matvec(&[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = a.submatrix(1, 3, 2, 4);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn max_abs_finds_negative_extreme() {
        let a = Matrix::from_rows(&[&[1.0, -9.0], &[3.0, 4.0]]);
        assert_eq!(a.max_abs(), 9.0);
    }

    #[test]
    fn col_returns_column() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b).unwrap(), Matrix::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    fn map_and_scale_agree() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        assert_eq!(a.scale(2.0), a.map(|v| v * 2.0));
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial() {
        // 64×64×64 = 256k multiply-adds: above PAR_MATMUL_MIN_WORK, so
        // thread counts > 1 exercise the row-block path.
        let a = Matrix::from_fn(64, 64, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(64, 64, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.25);
        let serial = crate::pool::with_threads(1, || a.matmul(&b).unwrap());
        for t in [2, 4, 7] {
            let par = crate::pool::with_threads(t, || a.matmul(&b).unwrap());
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn parallel_matmul_handles_row_counts_not_divisible_by_threads() {
        let a = Matrix::from_fn(33, 64, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(64, 65, |r, c| ((r + c) % 7) as f32);
        let serial = crate::pool::with_threads(1, || a.matmul(&b).unwrap());
        for t in [2, 4, 7] {
            let par = crate::pool::with_threads(t, || a.matmul(&b).unwrap());
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={t}");
        }
    }
}
