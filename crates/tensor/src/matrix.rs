use std::fmt;
use std::ops::{Index, IndexMut};

use crate::error::ShapeError;

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the workhorse value type of the `lgo` ML stack. All binary
/// operations come in two flavours: a panicking one for internal hot paths
/// (`matmul`, `add`, ...) whose shape preconditions are documented under
/// *Panics*, and a checked `try_*` variant returning [`ShapeError`].
///
/// # Examples
///
/// ```
/// use lgo_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose().shape(), (3, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = lgo_tensor::Matrix::zeros(2, 2);
    /// assert_eq!(m.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of length {} cannot fill {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} but row 0 has {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose entry at `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
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

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs)
            // lint: allow(L1): documented panicking wrapper; try_matmul is the checked path
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        crate::sanitize::check_finite(&self.data, "matmul lhs");
        crate::sanitize::check_finite(&rhs.data, "matmul rhs");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner accesses sequential in both
        // operands, which matters for the LSTM-sized matrices used here.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 { // lint: allow(L4): exact-zero sparsity skip — only the literal 0.0 contributes nothing
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.try_zip(rhs, "add", |a, b| a + b)
            // lint: allow(L1): documented panicking wrapper; try_add is the checked path
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.try_zip(rhs, "sub", |a, b| a - b)
            // lint: allow(L1): documented panicking wrapper; try_sub is the checked path
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn try_sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.try_zip(rhs, "hadamard", |a, b| a * b)
            // lint: allow(L1): documented panicking wrapper; try_hadamard is the checked path
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn try_hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip(rhs, "hadamard", |a, b| a * b)
    }

    fn try_zip(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(op, self.shape(), rhs.shape()));
        }
        crate::sanitize::check_finite(&self.data, op);
        crate::sanitize::check_finite(&rhs.data, op);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|x| x * k)
    }

    /// Applies `f` to every entry, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} vs {} cols",
            x.len(),
            self.cols
        );
        crate::sanitize::check_finite(&self.data, "matvec matrix");
        crate::sanitize::check_finite(x, "matvec vector");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *o = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        out
    }

    /// Transposed matrix-vector product `self^T * x` without materializing
    /// the transpose (the backward pass of every linear map).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transpose: vector length {} vs {} rows",
            x.len(),
            self.rows
        );
        crate::sanitize::check_finite(&self.data, "matvec_transpose matrix");
        crate::sanitize::check_finite(x, "matvec_transpose vector");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 { // lint: allow(L4): exact-zero sparsity skip — only the literal 0.0 contributes nothing
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * xr;
            }
        }
        out
    }

    /// In-place rank-one update `self += k * a * b^T` (gradient accumulation
    /// for weight matrices).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.rows()` or `b.len() != self.cols()`.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64], k: f64) {
        assert_eq!(a.len(), self.rows, "add_outer: a length {} vs {} rows", a.len(), self.rows);
        assert_eq!(b.len(), self.cols, "add_outer: b length {} vs {} cols", b.len(), self.cols);
        crate::sanitize::check_finite(a, "add_outer a");
        crate::sanitize::check_finite(b, "add_outer b");
        crate::sanitize::check_finite_scalar(k, "add_outer k");
        for (r, &ar) in a.iter().enumerate() {
            if ar == 0.0 { // lint: allow(L4): exact-zero sparsity skip — only the literal 0.0 contributes nothing
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += k * ar * bv;
            }
        }
    }

    /// Outer product of two vectors: returns `a * b^T` as an
    /// `a.len() x b.len()` matrix.
    pub fn outer(a: &[f64], b: &[f64]) -> Matrix {
        let mut out = Matrix::zeros(a.len(), b.len());
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                out.data[i * b.len() + j] = ai * bj;
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True when any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Fills the matrix with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Fills the matrix with samples from `N(0, std^2)` using `rng`.
    ///
    /// The Gaussian is produced by a Box–Muller transform so that only a
    /// uniform RNG is required.
    pub fn fill_gaussian<R: rand::RngExt + ?Sized>(&mut self, rng: &mut R, std: f64) {
        let mut i = 0;
        while i < self.data.len() {
            let u1: f64 = rng.random_range(f64::EPSILON..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            self.data[i] = mag * (std::f64::consts::TAU * u2).cos() * std;
            if i + 1 < self.data.len() {
                self.data[i + 1] = mag * (std::f64::consts::TAU * u2).sin() * std;
            }
            i += 2;
        }
    }

    /// Creates a `rows x cols` matrix of `N(0, std^2)` samples.
    pub fn gaussian<R: rand::RngExt + ?Sized>(rows: usize, cols: usize, rng: &mut R, std: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.fill_gaussian(rng, std);
        m
    }

    /// Creates a `rows x cols` matrix of `U(lo, hi)` samples.
    pub fn uniform<R: rand::RngExt + ?Sized>(
        rows: usize,
        cols: usize,
        rng: &mut R,
        lo: f64,
        hi: f64,
    ) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.data[r * self.cols + c])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The `n × n` identity.
    fn eye(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&eye(3)), a);
        assert_eq!(eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let e = a.try_matmul(&b).unwrap_err();
        assert_eq!(e.op(), "matmul");
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_panics_on_mismatch() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(m.sum(), -2.0);
        assert_eq!(m.mean(), -0.5);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_reductions_are_zero() {
        let m = Matrix::default();
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::from_rows(&[&[0.0, 0.5, 1.0]]);
        assert!(!m.has_non_finite());
        m[(0, 0)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::gaussian(100, 100, &mut rng, 2.0);
        assert!(m.mean().abs() < 0.1, "mean was {}", m.mean());
        let var = m.map(|x| x * x).mean() - m.mean() * m.mean();
        assert!((var - 4.0).abs() < 0.3, "variance was {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::uniform(10, 10, &mut rng, -1.0, 1.0);
        assert!(m.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn row_col_accessors() {
        let m = Matrix::from_fn(3, 2, |r, c| (10 * r + c) as f64);
        assert_eq!(m.row(2), &[20.0, 21.0]);
        assert_eq!(m.col(1), vec![1.0, 11.0, 21.0]);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], &[10.0, 11.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn from_vec_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, 0.5, -1.0];
        assert_eq!(a.matvec(&x), vec![-1.0, 0.5]);
        // transpose path
        let y = [2.0, -1.0];
        let expected = a.transpose().matvec(&y);
        assert_eq!(a.matvec_transpose(&y), expected);
    }

    #[test]
    fn add_outer_rank_one_update() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0], 0.5);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 1.5);
    }

    #[test]
    #[should_panic(expected = "matvec")]
    fn matvec_length_mismatch_panics() {
        let _ = Matrix::zeros(2, 3).matvec(&[1.0]);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    mod strict_numerics {
        use super::*;

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in matmul lhs")]
        fn matmul_rejects_nan_operand() {
            let mut a = Matrix::ones(2, 2);
            a[(0, 1)] = f64::NAN;
            let _ = a.matmul(&eye(2));
        }

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in add")]
        fn add_rejects_infinite_operand() {
            let mut a = Matrix::ones(2, 2);
            a[(1, 0)] = f64::INFINITY;
            let _ = a.add(&Matrix::ones(2, 2));
        }

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in matvec vector")]
        fn matvec_rejects_nan_vector() {
            let _ = Matrix::ones(2, 2).matvec(&[1.0, f64::NAN]);
        }

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in add_outer")]
        fn add_outer_rejects_nan_gradient() {
            let mut m = Matrix::zeros(2, 2);
            m.add_outer(&[1.0, f64::NAN], &[1.0, 1.0], 1.0);
        }

        #[test]
        fn clean_operands_pass_all_checked_ops() {
            let a = Matrix::ones(2, 2);
            assert_eq!(a.matmul(&eye(2)), a);
            assert_eq!(a.add(&Matrix::zeros(2, 2)), a);
            assert_eq!(a.matvec(&[1.0, 1.0]), vec![2.0, 2.0]);
        }
    }
}
