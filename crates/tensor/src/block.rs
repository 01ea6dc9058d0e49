//! Blocked/tiled matrix kernels for the workspace's hot paths.
//!
//! [`Matrix::try_matmul`] is an i-k-j loop with a sparsity skip — the right
//! shape for the tiny matrices the optimizers touch, but not for many rows
//! against one shared weight matrix or for the OC-SVM Gram matrix (every
//! row against every row). This module adds two kernels tuned for those
//! shapes:
//!
//! * [`Matrix::matmul_nt`] — `A · Bᵀ` with `Bᵀ` *already stored row-major*,
//!   so both operands stream sequentially. OC-SVM scoring (query rows
//!   against the stored support vectors) is exactly this layout: no
//!   packing copy is ever needed.
//! * [`Matrix::syrk_nt`] — the symmetric self-product `P · Pᵀ`, computing
//!   only the upper triangle.
//!
//! # Determinism contract
//!
//! Every kernel here computes each output element as the *ascending-k dot
//! product* `Σₖ a[i][k]·b[k][j]` with left-to-right float accumulation —
//! the exact op sequence of [`Matrix::matvec`] and [`crate::vector::dot`].
//! Tiling only reorders **which elements** are computed when, never the
//! additions *within* an element, so results are bit-for-bit identical to
//! the unblocked loops at any tile size. The k dimension is deliberately
//! never split: splitting it would change accumulation order and break the
//! workspace's byte-identical-export guarantee.

use crate::error::ShapeError;
use crate::matrix::Matrix;

/// Square tile edge for the i/j blocking. 32×32 output tiles keep one RHS
/// row pack (32 rows × k) resident in L1/L2 while 32 LHS rows stream over
/// it. The value only affects speed, never results — see the module-level
/// determinism contract.
const TILE: usize = 32;

impl Matrix {
    /// `self · rhs_tᵀ` where `rhs_t` is the right-hand side stored
    /// transposed (row `j` of `rhs_t` is column `j` of the product's RHS).
    ///
    /// This is the natural layout for weights stored `(out × in)`: `X · Wᵀ`
    /// batches a stack of `matvec` calls without any packing, and a Gram
    /// matrix is `P · Pᵀ`, i.e. the matrix against itself. Row `i` of the
    /// result equals `rhs_t.matvec(row i)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs_t.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lgo_tensor::Matrix;
    ///
    /// let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let w = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]);
    /// let z = x.matmul_nt(&w); // == x · wᵀ, shape (2, 3)
    /// assert_eq!(z.row(0), &[1.0, 3.0, 4.0]);
    /// assert_eq!(z.row(1), w.matvec(x.row(1)).as_slice());
    /// ```
    pub fn matmul_nt(&self, rhs_t: &Matrix) -> Matrix {
        self.try_matmul_nt(rhs_t)
            // lint: allow(L1): documented panicking wrapper; try_matmul_nt is the checked path
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Self::matmul_nt`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs_t.cols()`.
    pub fn try_matmul_nt(&self, rhs_t: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols() != rhs_t.cols() {
            return Err(ShapeError::new("matmul_nt", self.shape(), rhs_t.shape()));
        }
        crate::sanitize::check_finite(self.as_slice(), "matmul_nt lhs");
        crate::sanitize::check_finite(rhs_t.as_slice(), "matmul_nt rhs");
        let (m, n) = (self.rows(), rhs_t.rows());
        let mut out = Matrix::zeros(m, n);
        // i/j tiling only: each output element is one self-contained
        // ascending-k dot, so the tile walk order cannot change any value.
        //
        // Within a tile row, four output columns run interleaved: one pass
        // over `arow` feeds four *independent* accumulators. A lone dot
        // product is latency-bound — FP addition must stay a serial chain
        // because reassociation would change the rounding — so interleaving
        // chains is how this kernel beats a matvec loop without touching a
        // single output bit (each accumulator still sums its own products
        // in ascending k from 0.0, exactly like the 1-wide form).
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + TILE).min(m);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    let arow = self.row(i);
                    let orow = out.row_mut(i);
                    let mut j = j0;
                    while j + 4 <= j1 {
                        let b0 = rhs_t.row(j);
                        let b1 = rhs_t.row(j + 1);
                        let b2 = rhs_t.row(j + 2);
                        let b3 = rhs_t.row(j + 3);
                        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                        for ((((&a, &x0), &x1), &x2), &x3) in
                            arow.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                        {
                            s0 += a * x0;
                            s1 += a * x1;
                            s2 += a * x2;
                            s3 += a * x3;
                        }
                        orow[j] = s0;
                        orow[j + 1] = s1;
                        orow[j + 2] = s2;
                        orow[j + 3] = s3;
                        j += 4;
                    }
                    while j < j1 {
                        let brow = rhs_t.row(j);
                        orow[j] = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
                        j += 1;
                    }
                }
                j0 = j1;
            }
            i0 = i1;
        }
        Ok(out)
    }

    /// Symmetric self-product `self · selfᵀ`: only the upper triangle is
    /// computed, the lower comes by mirroring. Bit-identical to
    /// `self.matmul_nt(self)` in every entry — IEEE multiplication is
    /// commutative, so the ascending-k dot of rows `(i, j)` and `(j, i)`
    /// runs the exact same operation sequence and the mirror *is* the
    /// value the full product would have computed — at roughly half the
    /// work. This is the Gram-matrix kernel: `n` rows of features against
    /// themselves.
    ///
    /// # Examples
    ///
    /// ```
    /// use lgo_tensor::Matrix;
    ///
    /// let p = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
    /// assert_eq!(p.syrk_nt(), p.matmul_nt(&p));
    /// ```
    pub fn syrk_nt(&self) -> Matrix {
        crate::sanitize::check_finite(self.as_slice(), "syrk_nt");
        let m = self.rows();
        let mut out = Matrix::zeros(m, m);
        // Tile walk restricted to j0 >= i0; the same interleaved 4-wide
        // accumulators as `try_matmul_nt` (see there for why interleaving
        // cannot move a bit), with each dot written to both (i, j) and
        // (j, i).
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + TILE).min(m);
            let mut j0 = i0;
            while j0 < m {
                let j1 = (j0 + TILE).min(m);
                for i in i0..i1 {
                    let mut j = j0.max(i);
                    while j + 4 <= j1 {
                        let arow = self.row(i);
                        let b0 = self.row(j);
                        let b1 = self.row(j + 1);
                        let b2 = self.row(j + 2);
                        let b3 = self.row(j + 3);
                        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                        for ((((&a, &x0), &x1), &x2), &x3) in
                            arow.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                        {
                            s0 += a * x0;
                            s1 += a * x1;
                            s2 += a * x2;
                            s3 += a * x3;
                        }
                        let o = out.as_mut_slice();
                        o[i * m + j] = s0;
                        o[i * m + j + 1] = s1;
                        o[i * m + j + 2] = s2;
                        o[i * m + j + 3] = s3;
                        o[j * m + i] = s0;
                        o[(j + 1) * m + i] = s1;
                        o[(j + 2) * m + i] = s2;
                        o[(j + 3) * m + i] = s3;
                        j += 4;
                    }
                    while j < j1 {
                        let arow = self.row(i);
                        let brow = self.row(j);
                        let v = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
                        let o = out.as_mut_slice();
                        o[i * m + j] = v;
                        o[j * m + i] = v;
                        j += 1;
                    }
                }
                j0 = j1;
            }
            i0 = i1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::uniform(rows, cols, &mut rng, -2.0, 2.0)
    }

    #[test]
    fn matmul_nt_rows_are_bitwise_matvec() {
        // The determinism contract: row i of A·Bᵀ must be exactly
        // Bᵀ-as-weights applied to row i, same bits.
        let a = random(67, 19, 1);
        let w = random(41, 19, 2);
        let z = a.matmul_nt(&w);
        for i in 0..a.rows() {
            let reference = w.matvec(a.row(i));
            for (got, want) in z.row(i).iter().zip(&reference) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn syrk_matches_full_product_bitwise() {
        // Sizes straddling tile edges, including the 4-wide remainder and
        // the diagonal-start columns inside a tile.
        for &(m, k) in &[(1, 1), (5, 3), (31, 8), (32, 32), (33, 17), (70, 4), (97, 9)] {
            let p = random(m, k, m as u64 * 31 + k as u64);
            let full = p.matmul_nt(&p);
            let syrk = p.syrk_nt();
            for (a, b) in full.as_slice().iter().zip(syrk.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "syrk diverged at {m}x{k}");
            }
        }
    }

    #[test]
    fn shape_errors_are_checked() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.try_matmul_nt(&Matrix::zeros(4, 2)).unwrap_err().op(), "matmul_nt");
    }

    #[test]
    #[should_panic(expected = "matmul_nt")]
    fn matmul_nt_panics_on_mismatch() {
        let _ = Matrix::zeros(2, 3).matmul_nt(&Matrix::zeros(2, 4));
    }
}
